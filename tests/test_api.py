import importlib.util
import marshal
import shutil
import struct
import sys
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


def load_scale_bench():
    path = Path(__file__).resolve().parent.parent / "bench" / "scale.py"
    spec = importlib.util.spec_from_file_location("bench_scale", path)
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)
    return scale


def test_scale_bench_runs_every_layer():
    # bench/scale.py calls the trace and shape-result surfaces directly, and
    # only a bench run would find one of them changed
    scale = load_scale_bench()
    layers = scale.layers_at(300)
    names = ["generate", "channel", "import_pcap", "generate_video", "channel_video", "validate_trace",
             "leaky", "token", "write_trace_csv", "read_trace_csv", "occupancy_csv",
             "panel_report", "render_svg", "panels_csv", "metrics_report", "jitter_csv",
             "compare"]
    assert sorted(layers) == sorted(f"{name}@300" for name in names)
    assert [key for key, row in layers.items() if not row["n"] > 0] == []
    assert [key for key, row in layers.items() if not 0 <= row["held_bytes"] <= row["peak_bytes"]
            ] == []


def test_scale_bench_holds_nothing_for_a_layer_that_keeps_nothing():
    # the tuples a layer frees stay allocated on CPython's free lists until a
    # collection empties them; they are not held by the layer's result
    def churn(n):
        rows = [(k, -k) for k in range(n)]
        del rows

    result, _, peak, held = load_scale_bench().measure(churn, (100_000,))
    assert result is None and held == 0 and peak > 100_000


def test_scale_bench_run_reads_no_bytecode_from_the_checkout(tmp_path, monkeypatch):
    # a __pycache__ in the checkout that matches its source's mtime and size
    # is loaded in place of the source; the end-to-end child must compile its own
    scale = load_scale_bench()
    src = tmp_path / "src"
    shutil.copytree(scale.SRC / "rtpshape", src / "rtpshape",
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = src / "rtpshape" / "__init__.py"
    stat = source.stat()
    pyc = source.parent / "__pycache__" / f"__init__.{sys.implementation.cache_tag}.pyc"
    pyc.parent.mkdir()
    pyc.write_bytes(importlib.util.MAGIC_NUMBER
                    + struct.pack("<3I", 0, int(stat.st_mtime) & 0xFFFFFFFF, stat.st_size)
                    + marshal.dumps(compile("raise SystemExit(99)", str(source), "exec")))
    monkeypatch.setattr(scale, "SRC", src)
    (config,) = scale.SCENARIOS.values()
    one_second = config.replace("duration_us = 300000000", "duration_us = 1000000")
    assert one_second != config
    assert len(scale.e2e(one_second)["run_dir_sha256"]) == 64


def test_scale_bench_names_an_archived_commit(tmp_path, monkeypatch):
    # a `git archive` copy has no .git; the commit is the hash that
    # export-subst wrote into bench/COMMIT, and unknown while it was not
    scale = load_scale_bench()
    monkeypatch.setattr(scale, "ROOT", tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    (tmp_path / "bench").mkdir()
    committed = "0123456789abcdef0123456789abcdef01234567"
    (tmp_path / "bench" / "COMMIT").write_text(committed + "\n", encoding="ascii")
    assert scale.commit() == committed
    (tmp_path / "bench" / "COMMIT").write_text("$Format:%H$\n", encoding="ascii")
    assert scale.commit() == "unknown"
