import importlib.util
from pathlib import Path

import rtpshape


def test_every_public_name_resolves():
    # a stale __all__ entry does not fail on import, only on `import *`
    assert [name for name in rtpshape.__all__ if not hasattr(rtpshape, name)] == []


def test_trace_has_no_kind():
    assert "StreamKind" not in rtpshape.__all__
    assert not hasattr(rtpshape, "StreamKind")
    assert rtpshape.StreamTrace.__slots__ == (*rtpshape.MediaPacket._fields, "missing")


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


def test_scale_bench_runs_every_layer():
    # bench/scale.py calls the trace and shape-result surfaces directly, and
    # only a bench run would find one of them changed
    path = Path(__file__).resolve().parent.parent / "bench" / "scale.py"
    spec = importlib.util.spec_from_file_location("bench_scale", path)
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)
    layers = scale.layers_at(300)
    names = ["generate", "channel", "generate_video", "channel_video", "validate_trace",
             "leaky", "token", "write_trace_csv", "read_trace_csv", "occupancy_csv",
             "panel_report", "render_svg", "panels_csv", "metrics_report", "compare"]
    assert sorted(layers) == sorted(f"{name}@300" for name in names)
    assert [key for key, row in layers.items() if not row["n"] > 0] == []
