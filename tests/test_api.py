import importlib.util
from pathlib import Path

import rtpshape


def test_every_public_name_resolves():
    # a stale __all__ entry does not fail on import, only on `import *`
    assert [name for name in rtpshape.__all__ if not hasattr(rtpshape, name)] == []


def test_trace_has_no_kind():
    assert "StreamKind" not in rtpshape.__all__
    assert not hasattr(rtpshape, "StreamKind")
    assert list(rtpshape.StreamTrace.__dataclass_fields__) == ["packets"]


def test_every_tracer_target_resolves():
    # perfbench's tracer patches these functions by name, and only a traced
    # benchmark run would find one renamed or deleted
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    assert [(module, name) for module, name, _ in tracer.TARGETS
            if not callable(getattr(importlib.import_module(f"rtpshape.{module}"), name, None))
            ] == []
