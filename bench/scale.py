"""Scale bench: the wall time and peak memory of each rtpshape layer at
3k, 30k and 300k packets, and of `rtpshape run` end to end on the scale
scenario. Standard library only; not part of the tests or of perfbench.

    python3 bench/scale.py --out BENCH_<n>.json

The scenario is audio at 1 ms ptime, `uniform(0,300)` jitter, 1/100 loss and
seed 1, then a leaky stage (50 packets, 900 us drain) and a token stage
(140000 B/s, 2000 tokens). At 300 s it has 297,037 received packets.

Each layer runs on the previous layer's output at the same size. `best_s`
is the best of REPEAT perf_counter timings; `peak_bytes` is
tracemalloc's peak above what was allocated before the call, taken in one
more call. A layer's `n` is the packet count of its input (for `generate`,
of its output). The end-to-end row runs `python -m rtpshape.cli run` in a
child process, E2E_REPEAT times: `best_s` is the best wall time, `peak_rss_mib` the child's
largest peak RSS (`os.wait4`), and `run_dir_sha256` a digest of every file
the run wrote, so two trees' run directories can be compared. The end-to-end
rows run before the layers: on Linux a child's peak RSS starts from the peak
RSS of the process that spawned it, and the 300k-packet layers take this
one's to 640-660 MiB, above what `rtpshape run` itself reaches.

`commit` is `git rev-parse HEAD`, with `+dirty` when `src/` differs from
it; a run made before committing therefore names the parent commit.
`src_sha256` is a digest of every file under `src/rtpshape/`, and so
names the measured source itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from rtpshape import metrics, model, reporting, shaping, traffic  # noqa: E402

SIZES = (3000, 30000, 300000)  # sent packets per layer row
REPEAT = 3
E2E_REPEAT = 2
PTIME_US = 1000
WINDOW_US = 10**6
CHANNEL = traffic.ChannelModel(jitter=traffic.UniformJitter(0, 300),
                               loss_prob=Fraction(1, 100), seed=1)
LEAKY = shaping.LeakyBucketConfig(capacity_packets=50, drain_interval_us=900)
TOKEN = shaping.TokenBucketConfig(rate=Fraction(140000), capacity_tokens=2000)

SCENARIOS = {
    "audio_1ms_leaky_token_300s": """\
generator.kind = audio
generator.ptime_us = 1000
generator.duration_us = 300000000
channel.jitter = uniform(0,300)
channel.loss_prob = 1/100
channel.seed = 1
pipeline.0.type = leaky
pipeline.0.capacity_packets = 50
pipeline.0.drain_interval_us = 900
pipeline.1.type = token
pipeline.1.rate = 140000
pipeline.1.capacity_tokens = 2000
""",
}


def measure(fn, args):
    """(result, best wall seconds, tracemalloc peak bytes) of fn(*args)."""
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
        del result
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, best, peak


def layers_at(size: int) -> dict:
    """Every layer on the scale scenario cut to `size` sent packets."""
    out = {}

    def run(name, n, fn, *args):
        result, best, peak = measure(fn, args)
        out[f"{name}@{size}"] = {"n": n, "best_s": round(best, 6), "peak_bytes": peak}
        return result

    sent = run("generate", size, traffic.generate_audio,
               traffic.AudioGenConfig(ptime_us=PTIME_US), size * PTIME_US)
    trace = run("channel", len(sent), traffic.apply_channel, sent, CHANNEL)
    leaky = run("leaky", len(trace), shaping.leaky_bucket_shape, trace, LEAKY)
    token = run("token", len(leaky.shaped), shaping.token_bucket_shape, leaky.shaped, TOKEN)
    csv = run("write_trace_csv", len(trace), model.write_trace_csv, trace)
    run("read_trace_csv", len(trace), model.read_trace_csv, csv)
    run("occupancy_csv", len(token.samples.ts_us), reporting.occupancy_csv, token)
    panel = run("panel_report", len(leaky.shaped), reporting.panel_report,
                leaky.shaped, token, TOKEN)
    run("render_svg", len(leaky.shaped), reporting.render_svg, panel)
    run("panels_csv", len(leaky.shaped), reporting.panels_csv, panel)
    run("metrics_report", len(trace), metrics.metrics_report, trace, WINDOW_US)
    run("compare", len(trace), metrics.compare, trace, token.shaped, WINDOW_US)
    return out


def run_dir_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}\n"
                      .encode("ascii"))
    return digest.hexdigest()


def e2e(config: str) -> dict:
    """`rtpshape run` on one scenario config, in a fresh child each time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    best, rss_kib, digests = float("inf"), 0, set()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "scenario.cfg"
        cfg.write_text(config, encoding="ascii")
        for k in range(E2E_REPEAT):
            out = Path(tmp) / f"run{k}"
            start = time.perf_counter()
            child = subprocess.Popen([sys.executable, "-m", "rtpshape.cli", "run",
                                      "--config", str(cfg), "--output", str(out)],
                                     env=env, stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(child.pid, 0)
            elapsed = time.perf_counter() - start
            child.returncode = os.waitstatus_to_exitcode(status)
            if child.returncode != 0:
                raise SystemExit(f"rtpshape run exited with {child.returncode}")
            best = min(best, elapsed)
            rss_kib = max(rss_kib, usage.ru_maxrss)  # KiB on Linux
            digests.add(run_dir_digest(out))
    if len(digests) != 1:
        raise SystemExit("rtpshape run wrote different files on the same config")
    return {"best_s": round(best, 3), "peak_rss_mib": round(rss_kib / 1024, 1),
            "run_dir_sha256": digests.pop()}


def commit() -> str:
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        head = git("rev-parse", "HEAD")
        return head + ("+dirty" if git("status", "--porcelain", "--", "src") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def src_sha256() -> str:
    digest = hashlib.sha256()
    package = SRC / "rtpshape"
    for path in sorted(package.rglob("*.py")):
        digest.update(f"{path.relative_to(package).as_posix()} "
                      f"{hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode("utf-8"))
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    report = {"commit": commit(), "src_sha256": src_sha256(),
              "python": platform.python_version(), "cpu_count": os.cpu_count(),
              "layers": {}, "e2e": {}}
    for name, config in SCENARIOS.items():
        report["e2e"][name] = e2e(config)
        print(f"e2e {name}: {report['e2e'][name]}", file=sys.stderr)
    for size in SIZES:
        report["layers"].update(layers_at(size))
        print(f"layers at {size} packets done", file=sys.stderr)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
