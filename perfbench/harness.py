"""Runs, times and checks the ops of one workload and prints its metrics.

Every run starts with one untimed op on the default seed, whose artifacts
must match perfbench/digests.json, then repeats the op on the given seed
until the time is up, checking each op's outputs. Untraced runs report the
end-to-end metrics; traced runs alternate untraced and traced ops and report
the per-layer metrics, writing the spans to perfbench/out/.

Timings are calibrated. On a virtual machine that shares its cores, CPU
speed can drift by a third within seconds, so the wall time of each step of
an op is scaled by ``REFERENCE_S`` over the time a fixed reference
computation took right before and after it. A calibrated second is a wall
second on a machine where ``reference()`` takes ``REFERENCE_S``. Raw wall
times are printed beside them.

The metric names and units come from BENCHMARK.json, which the harness
checks against the metrics it computes.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from tracer import OP_SPAN, Tracer
from workloads import DEFAULT_SEED, README_SCENARIO

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
REFERENCE_S = 0.1
SETUP_RUNS = 15
LAYERS = ("cli", "scenario", "traffic", "model", "shaping", "metrics",
          "reporting", "pcap")

# Fresh interpreter: the time a CLI call pays to import rtpshape and parse
# its scenario before any work starts.
SETUP_CHILD = """\
import sys, time
src, text = sys.argv[1], sys.argv[2]
start = time.perf_counter()
sys.path.insert(0, src)
import rtpshape
rtpshape.parse_scenario(text)
print(time.perf_counter() - start)
"""

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def reference() -> float:
    """Wall time of a fixed pure-Python computation with the same kinds of
    work as the ops: Fraction smoothing, tuple and string building, integer
    parsing and sorting. About 0.1 s on a 2-core x86-64 VM. The garbage
    collector is off while it runs, so the op's leftovers cannot slow it."""
    gc.disable()
    try:
        return _reference()
    finally:
        gc.enable()


def _reference() -> float:
    start = time.perf_counter()
    acc = Fraction(0)
    rows = []
    for i in range(6000):
        acc += (i % 97 - acc) / 16
        if i % 500 == 0:
            acc = Fraction(round(acc * 1024), 1024)
        rows.append((i, i * 7919 % 65536, f"{i},{i * 31 % 1000},{i & 255}"))
    text = "\n".join(r[2] for r in rows)
    sum(int(f) for line in text.split("\n") for f in line.split(","))
    for _ in range(3):
        rows.sort(key=lambda r: (r[1], r[0]))
    return time.perf_counter() - start


class OpTime(NamedTuple):
    wall: float        # s
    calibrated: float  # s at the reference speed
    packets: int       # input packets (or capture frames) of the op


class Runner:
    """Runs, times and checks ops of one workload; counts failures."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.counters: Counter = Counter()
        self.peaks: Counter = Counter()

    def run(self, workload, tracer=None, digests=None) -> OpTime:
        """Run, time and check one op; a failed op is counted and logged."""
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        gc.collect()
        self.attempted += 1
        wall = calibrated = 0.0
        outcome = None
        try:
            result, wall, calibrated = self._timed(workload, out, tracer)
            outcome = workload.check(result, out)
            problems = list(outcome.problems)
            if digests is not None:
                actual = workload.digests(result, out)
                problems += [f"{name}: sha256 {actual.get(name)} != recorded {want}"
                             for name, want in digests.items() if actual.get(name) != want]
            if tracer is not None:
                self.counters.update(outcome.counters)
                self._observe(tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            problems = ["op raised"]
        finally:
            shutil.rmtree(out)
            if tracer is not None:
                tracer.calls.clear()
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"{workload.name}: op {self.attempted} failed: {problem}",
                      file=sys.stderr)
        return OpTime(wall, calibrated, outcome.packets if outcome else 0)

    def _timed(self, workload, out: Path, tracer) -> tuple[object, float, float]:
        """Run the op step by step: (result, wall, calibrated). The op ends a
        step by calling ``step()``, and its own end ends the last one. Each
        step's wall time is calibrated by the reference runs right before and
        after it, which run outside any span."""
        wall = calibrated = 0.0
        before = reference()
        start = 0.0

        def begin() -> None:
            nonlocal start
            start = tracer.begin_op(self.attempted) if tracer else time.perf_counter()

        def end() -> None:
            nonlocal wall, calibrated, before
            elapsed = tracer.end_op(start) if tracer else time.perf_counter() - start
            after = reference()
            wall += elapsed
            calibrated += elapsed * 2 * REFERENCE_S / (before + after)
            before = after

        def step() -> None:
            end()
            begin()

        if tracer is not None:
            tracer.install()
        try:
            begin()
            try:
                result = workload.op(out, step)
            finally:
                end()
        finally:
            if tracer is not None:
                tracer.uninstall()
        return result, wall, calibrated

    def _observe(self, tracer: Tracer) -> None:
        for name, args, result in tracer.calls:
            if name in ("shaping.leaky", "shaping.token"):
                self.counters["shaping.in"] += len(args[0])
                self.counters["shaping.out"] += len(result.shaped)
                for _, reason in result.dropped:
                    self.counters["shaping.drops." + reason.replace(" ", "_")] += 1
                for sample in result.occupancy:
                    if sample.queued_packets > self.peaks["pkts"]:
                        self.peaks["pkts"] = sample.queued_packets
                    if sample.queued_bytes > self.peaks["bytes"]:
                        self.peaks["bytes"] = sample.queued_bytes
            elif name == "reporting.render_svg":
                self.counters["reporting.render_svg.bytes"] += len(result)
            elif name == "pcap.import_pcap":
                self.counters["pcap.streams"] += len(result)
                self.counters["pcap.rtp_packets"] += sum(len(t) for t in result)


def setup_seconds() -> tuple[float, float]:
    """Median (calibrated, wall) over fresh interpreters, after one that
    warms the file caches; each is calibrated by the reference runs around it."""
    calibrated, wall = [], []
    before = reference()
    for i in range(SETUP_RUNS + 1):
        child = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC),
                                README_SCENARIO], cwd=HERE.parent, capture_output=True,
                               text=True, timeout=60, check=True)
        after = reference()
        if i:
            wall.append(float(child.stdout))
            calibrated.append(wall[-1] * 2 * REFERENCE_S / (before + after))
        before = after
    return statistics.median(calibrated), statistics.median(wall)


def tail(times: list[float]) -> tuple[float, str]:
    """Nearest-rank p90 with at most 10 ops beyond it: the op with
    min(10, n // 10) slower ops after it. From 110 ops on, that is the
    highest percentile with 10 ops beyond it; below 10 ops, the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(10, n // 10)
    if not beyond:
        return ordered[-1], f"max of {n} ops"
    return ordered[n - 1 - beyond], f"p{100 * (n - beyond) // n} of {n} ops"


def contract_metrics(section: str, values: dict[str, float]) -> dict[str, tuple]:
    """Pair each value with its unit from BENCHMARK.json's ``section``; the
    computed names must be exactly the ones listed there."""
    units = {m["name"]: m["unit"] for m in CONTRACT[section]}
    if units.keys() != values.keys():
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json {section}: "
                           f"{sorted(units.keys() ^ values.keys())}")
    return {name: (values[name], unit) for name, unit in units.items()}


def per_layer(tracer: Tracer, runner: Runner, frames: int,
              untraced: list[OpTime], traced: list[OpTime]) -> dict[str, float]:
    """Per-op means over the traced ops, in raw wall time; ``frames`` is the
    capture size of a pcap op."""
    total: defaultdict = defaultdict(float)
    calls: Counter = Counter()
    work: Counter = Counter()
    for span, own in zip(tracer.spans, tracer.self_times()):
        total[span.name] += own
        calls[span.name] += 1
        work[span.name] += span.work
    ops = len(traced)
    total_op = sum(t.wall for t in traced)
    count = runner.counters

    def ns_per(name: str, n: int) -> float:
        return total[name] * 1e9 / n if n else 0.0

    m = {f"{name}.self_s": total[name] / ops for name in (
        "metrics.jitter", "metrics.pdv", "metrics.loss", "metrics.throughput",
        "metrics.compare", "reporting.jitter_csv", "model.read_trace_csv",
        "model.write_trace_csv", "model.validate_trace", "shaping.leaky",
        "shaping.token", "traffic.generate", "traffic.apply_channel",
        "reporting.render_svg", "reporting.panel_report", "reporting.csv",
        "pcap.import_pcap", "scenario.parse_scenario", "cli", OP_SPAN)}
    m.update({f"{name}.calls": calls[name] / ops for name in (
        "metrics.jitter", "metrics.metrics_report", "model.read_trace_csv",
        "model.validate_trace")})
    for name in ("metrics.jitter", "shaping.leaky", "shaping.token",
                 "traffic.apply_channel"):
        m[f"{name}.ns_per_pkt"] = ns_per(name, work[name])
    imports = calls["pcap.import_pcap"]
    m["pcap.ns_per_frame"] = ns_per("pcap.import_pcap", frames * imports)
    m["pcap.rtp_ratio"] = count["pcap.rtp_packets"] / (frames * imports) if imports else 0.0
    for name in ("shaping.drops.bucket_full", "shaping.drops.queue_full",
                 "cli.bytes_written", "reporting.render_svg.bytes", "pcap.streams"):
        m[name] = count[name] / ops
    shaped_in = count["shaping.in"]
    m["shaping.delivered_ratio"] = count["shaping.out"] / shaped_in if shaped_in else 0.0
    m["shaping.peak_queue_pkts"] = runner.peaks["pkts"]
    m["shaping.peak_queue_bytes"] = runner.peaks["bytes"]
    for layer in LAYERS:
        m[f"share.{layer}"] = sum(t for name, t in total.items()
                                  if name.split(".")[0] == layer) / total_op
    m["trace.op_p50_s"] = statistics.median(t.wall for t in traced)
    m["trace.overhead_ratio"] = (statistics.median(t.calibrated for t in traced)
                                 / statistics.median(t.calibrated for t in untraced))
    return m


def measure(cls, seed: int, seconds: float, traced_run: bool) -> int:
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{cls.name}-", dir=OUT))
    try:
        return _measure(cls, seed, seconds, traced_run, scratch)
    finally:
        shutil.rmtree(scratch)


def _measure(cls, seed: int, seconds: float, traced_run: bool, scratch: Path) -> int:
    runner = Runner(scratch)
    workload = cls(DEFAULT_SEED, scratch)
    runner.run(workload, digests=json.loads(DIGESTS.read_text())[cls.name])
    if seed != DEFAULT_SEED:
        workload = None  # free the default seed's inputs before building the next
        workload = cls(seed, scratch)

    untraced: list[OpTime] = []
    traced: list[OpTime] = []
    tracer = Tracer() if traced_run else None
    deadline = time.perf_counter() + seconds
    while not untraced or (tracer and not traced) or time.perf_counter() < deadline:
        if tracer is not None and len(traced) < len(untraced):
            traced.append(runner.run(workload, tracer))
        else:
            untraced.append(runner.run(workload))

    packets = max(t.packets for t in untraced)
    print(f"workload {cls.name} seed {seed} trace {int(traced_run)}: {packets} packets "
          f"per op, {runner.attempted} ops attempted (1 untimed on seed {DEFAULT_SEED}), "
          f"{runner.failed} failed")
    if tracer is None:
        calibrated = [t.calibrated for t in untraced]
        wall = [t.wall for t in untraced]
        setup, setup_wall = setup_seconds()
        op_tail, tail_label = tail(calibrated)
        metrics = contract_metrics("end_to_end", {
            "pkts_per_s": sum(t.packets for t in untraced) / sum(calibrated),
            "op_p50_s": statistics.median(calibrated),
            "op_tail_s": op_tail,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup,
        })
        notes = {
            "pkts_per_s": f"wall {sum(t.packets for t in untraced) / sum(wall):.6g}",
            "op_p50_s": f"median of {len(untraced)} ops; wall {statistics.median(wall):.6g}",
            "op_tail_s": f"{tail_label}; wall {tail(wall)[0]:.6g}",
            "setup_s": f"median of {SETUP_RUNS} interpreters; wall {setup_wall:.6g}",
        }
    else:
        metrics = contract_metrics("per_layer",
                                   per_layer(tracer, runner, packets, untraced, traced))
        notes = {"trace.op_p50_s": f"median of {len(traced)} traced ops, wall",
                 "trace.overhead_ratio": f"against {len(untraced)} untraced ops"}
        spans_file = OUT / f"spans-{cls.name}-seed{seed}.json"
        spans_file.write_text(json.dumps({
            "workload": cls.name, "seed": seed,
            "fields": ["op", "name", "start", "end", "parent", "work"],
            "spans": tracer.spans}) + "\n")
        print(f"spans: {spans_file.relative_to(HERE.parent)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    print(f"  {'failed_ratio':34s} {runner.failed / runner.attempted:14.6g} ratio  "
          f"{runner.failed} of {runner.attempted} ops")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0
