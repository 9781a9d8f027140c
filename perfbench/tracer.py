"""Outside-in span tracer for rtpshape.

The tracer replaces each target function with a timing wrapper in every
``rtpshape`` module namespace that binds it (``cli.read_trace_csv`` as well
as ``model.read_trace_csv``), so calls are traced whichever name the caller
used. Nothing under ``src/`` is edited; ``uninstall`` puts the originals
back.

A span is ``(op, name, start, end, parent, work)``: ``op`` is the index of
the benchmark op that caused it, ``parent`` the index of the enclosing span
(-1 for a root span; the benchmark opens one per step of an op) and
``work`` the packet count of the traced call's first argument when that is
a ``StreamTrace``. Spans are kept in memory; the benchmark writes them out
when it ends.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import NamedTuple

# (module, function, span name). Several functions may share a span name;
# the module prefix of the span name is the layer it is charged to.
TARGETS = (
    ("cli", "main", "cli"),
    ("scenario", "parse_scenario", "scenario.parse_scenario"),
    ("traffic", "generate_audio", "traffic.generate"),
    ("traffic", "generate_video", "traffic.generate"),
    ("traffic", "apply_channel", "traffic.apply_channel"),
    ("model", "read_trace_csv", "model.read_trace_csv"),
    ("model", "write_trace_csv", "model.write_trace_csv"),
    ("model", "validate_trace", "model.validate_trace"),
    ("shaping", "run_pipeline", "shaping.run_pipeline"),
    ("shaping", "leaky_bucket_shape", "shaping.leaky"),
    ("shaping", "token_bucket_shape", "shaping.token"),
    ("metrics", "metrics_report", "metrics.metrics_report"),
    ("metrics", "compare", "metrics.compare"),
    ("metrics", "interarrival_jitter", "metrics.jitter"),
    ("metrics", "pdv", "metrics.pdv"),
    ("metrics", "loss", "metrics.loss"),
    ("metrics", "throughput", "metrics.throughput"),
    ("reporting", "jitter_csv", "reporting.jitter_csv"),
    ("reporting", "summary_csv", "reporting.csv"),
    ("reporting", "comparison_csv", "reporting.csv"),
    ("reporting", "pdv_csv", "reporting.csv"),
    ("reporting", "throughput_csv", "reporting.csv"),
    ("reporting", "drops_csv", "reporting.csv"),
    ("reporting", "occupancy_csv", "reporting.csv"),
    ("reporting", "panels_csv", "reporting.csv"),
    ("reporting", "panel_report", "reporting.panel_report"),
    ("reporting", "render_svg", "reporting.render_svg"),
    ("pcap", "import_pcap", "pcap.import_pcap"),
)

# Spans whose calls and results the benchmark inspects after each op.
OBSERVED = frozenset({"shaping.leaky", "shaping.token", "reporting.render_svg",
                      "pcap.import_pcap"})

# Name of the root span the benchmark opens around each step of an op.
OP_SPAN = "bench"


class Span(NamedTuple):
    op: int
    name: str
    start: float
    end: float
    parent: int
    work: int


PACKAGE = "rtpshape"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: list[tuple[str, tuple, object]] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        from rtpshape.model import StreamTrace

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module_name, func_name, span_name in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)
            wrapper = self._wrap(original, span_name, StreamTrace)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str, trace_type):
        spans, stack, calls = self.spans, self._stack, self.calls
        observed = name in OBSERVED
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                work = len(args[0]) if args and isinstance(args[0], trace_type) else 0
                spans[index] = Span(self._op, name, start, end, parent, work)
            if observed:
                calls.append((name, args, result))
            return result

        return traced

    def begin_op(self, op: int) -> float:
        """Open a root span of op ``op``; traced calls become its children."""
        self._op = op
        self._stack.append(len(self.spans))
        self.spans.append(None)
        return time.perf_counter()

    def end_op(self, start: float) -> float:
        end = time.perf_counter()
        index = self._stack.pop()
        self.spans[index] = Span(self._op, OP_SPAN, start, end, -1, 0)
        return end - start

    def self_times(self) -> list[float]:
        """Self time per span: its duration minus its direct children's."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own
