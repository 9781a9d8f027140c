"""The figure and CSV writers against their per-point references in
`tests/oracles.py` (byte for byte)."""

import random
from array import array
from dataclasses import replace
from fractions import Fraction
from itertools import cycle, islice
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtpshape import (MediaPacket, StreamTrace, TraceValidationError, leaky_bucket_shape,
                      metrics_report, read_trace_csv, token_bucket_shape, write_trace_csv)
from rtpshape.model import _CHUNK_ROWS as CHUNK, TS_MAX, validate_trace
from rtpshape.reporting import (Panel, drops_csv, jitter_csv, occupancy_csv, panel_report,
                                panels_csv, render_svg)
from rtpshape.shaping import DROP_BUCKET_FULL, DROP_QUEUE_FULL, Occupancy, ShapeResult

from oracles import (drops_csv_reference, format_decimal_exact, occupancy_csv_reference,
                     panel_report_reference, panels_csv_reference, random_leaky_config,
                     random_received_trace, random_token_config, render_svg_reference,
                     write_trace_csv_reference)


def _random_stage(seed):
    rng = random.Random(seed)
    max_size = rng.choice([1, 3, 100, 1500])
    trace = random_received_trace(rng, max_packets=rng.choice([1, 5, 200]),
                                  max_t=rng.choice([0, 50, 3000, 10**7]),
                                  max_size=max_size)
    if seed % 2:
        cfg = random_token_config(rng, max_size=max_size)
        return trace, cfg, token_bucket_shape(trace, cfg)
    cfg = random_leaky_config(rng)
    return trace, cfg, leaky_bucket_shape(trace, cfg)


def columns(points):
    """(ts_us, values) of (t, v) points."""
    return tuple(zip(*points)) or ((), ())


def panel_rows(panels):
    """Each panel as panel_report_reference gives it: (title, kind, unit, points)."""
    return tuple((p.title, p.kind, p.unit, tuple(zip(p.ts_us, p.values))) for p in panels)


class TestAgainstReference:
    def test_random_shaped_stages(self):
        for seed in range(300):
            trace, cfg, result = _random_stage(seed)
            panels = panel_report(trace, result, cfg)
            assert panel_rows(panels) == panel_report_reference(trace, result, cfg), seed
            assert render_svg(panels) == render_svg_reference(panels), seed
            assert panels_csv(panels) == panels_csv_reference(panels), seed
            assert occupancy_csv(result) == occupancy_csv_reference(result), seed
            assert drops_csv(result) == drops_csv_reference(result), seed
            for t in (trace, result.shaped):
                assert write_trace_csv(t) == write_trace_csv_reference(t), seed

    @pytest.mark.parametrize("points", [
        (),                                   # empty panel
        ((7, 3),),                            # single point
        ((5, 1), (5, 9), (5, 4)),             # all-equal timestamps: t_span 0
        ((0, 0), (10, 0), (20, 0)),           # all-zero values: v_span 0
        ((0, -5), (10, 3), (20, -7), (30, -7)),  # negative values
        ((30, 2), (10, 8), (20, 2)),          # unsorted timestamps
        ((-(2**70), 2**65), (2**70, -(2**66)), (3, 1)),  # beyond float precision
    ], ids=["empty", "single", "equal-t", "zero-v", "negative-v", "unsorted", "huge"])
    @pytest.mark.parametrize("kind", ["scatter", "step"])
    def test_edge_panels(self, points, kind):
        panels = (Panel("edge", kind, "bytes", *columns(points)),
                  Panel("other", "scatter", "packets", (1, 2), (1, 2)))
        assert render_svg(panels) == render_svg_reference(panels)

    def test_no_panels(self):
        assert render_svg(()) == render_svg_reference(())

    def test_unknown_shaper_config_is_a_type_error(self):
        trace, _, result = _random_stage(0)
        with pytest.raises(TypeError, match="^unknown shaper config: None$"):
            panel_report(trace, result, None)

    def test_trace_rows_without_arrival_and_with_marker(self):
        trace = StreamTrace((
            MediaPacket(0, 1, 96, True, 0, None, 1200),
            MediaPacket(1, 1, 96, False, 10, None, 300),
            MediaPacket(2, 1, 96, True, 20, 25, 40),
        ))
        assert write_trace_csv(trace) == write_trace_csv_reference(trace)
        assert write_trace_csv(StreamTrace(())) == \
            write_trace_csv_reference(StreamTrace(()))

    # Few distinct values, as in real panels, plus the full integer range.
    values = st.one_of(st.integers(-3, 3), st.integers(-(2**64), 2**64))
    A = [(40, 1), (0, -1), (10, 3), (10, 1), (25, 0)]  # unsorted, a repeated time
    B = [(7, 2), (3, -2), (5, 6), (9, 2)]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(panels=st.lists(st.tuples(
        st.sampled_from(["scatter", "step"]),
        st.lists(st.tuples(st.integers(-(2**64), 2**64), values), max_size=12),
        st.none() | st.integers(0, 3)),
        max_size=5))
    # Shared time columns: A, B, then A again; mixed kinds on one column;
    # equal but distinct columns (each panel without `share` has its own).
    @example([("scatter", A, None), ("step", B, None), ("step", A, 0), ("scatter", B, 1)])
    @example([("step", A, None), ("scatter", B, None), ("step", B, 0), ("scatter", A, 0)])
    @example([("step", A, None), ("step", A, None), ("scatter", B, 0), ("scatter", B, 1)])
    def test_edge_panel_property(self, panels):
        """A panel whose `share` names an earlier one is drawn on that
        panel's time column (the same object), its values cycled to fit."""
        figure = []
        for i, (kind, points, share) in enumerate(panels):
            ts, vs = columns(points)
            if share is not None and share < i:
                ts = figure[share].ts_us
                vs = tuple(islice(cycle(vs or (0,)), len(ts)))
            figure.append(Panel(f"p{i}", kind, "u", ts, vs))
        assert render_svg(tuple(figure)) == render_svg_reference(tuple(figure))

    def test_title_and_unit_are_escaped(self):
        panels = (Panel("queue & tokens <B>", "step", "bytes > 0", (0, 10), (1, 2)),
                  Panel("a <tag/> & more", "scatter", "<&>", (0, 10), (1, 2)))
        svg = render_svg(panels)
        assert svg == render_svg_reference(panels)
        texts = {e.text for e in ElementTree.fromstring(svg).iter()}
        assert {"queue & tokens <B>", "bytes > 0", "a <tag/> & more", "<&>"} <= texts


SIZES = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]


class TestChunkBoundaries:
    """The writers format a chunk of CHUNK rows per `%`; row counts around
    the chunk size give the per-row references' bytes. validate_trace
    accepts only ints (and bool markers), so every field is written by
    `%s` or `%d` and every x by `%.2f`."""

    @staticmethod
    def _trace(n, seed=0):
        rng = random.Random(seed)
        return StreamTrace(tuple(
            MediaPacket(k % 65536, 9, 96, rng.random() < 0.2, 10 * k,
                        10 * k + rng.randint(0, 5), rng.randint(1, 1500)) for k in range(n)))

    @pytest.mark.parametrize("n", SIZES)
    def test_trace_drops_and_occupancy(self, n):
        trace = self._trace(n)
        assert write_trace_csv(trace) == write_trace_csv_reference(trace)
        rng = random.Random(n)
        samples = Occupancy(array("q", range(0, 3 * n, 3)),
                            array("q", [rng.randint(0, 50) for _ in range(n)]),
                            [rng.randint(0, 10**6) for _ in range(n)],
                            [rng.randint(0, 4000) for _ in range(n)])
        reasons = tuple(rng.choice([DROP_BUCKET_FULL, DROP_QUEUE_FULL]) for _ in range(n))
        result = ShapeResult(trace, trace, reasons, samples)  # every packet dropped
        assert occupancy_csv(result) == occupancy_csv_reference(result)
        assert drops_csv(result) == drops_csv_reference(result)

    @pytest.mark.parametrize("n", SIZES)
    def test_panels(self, n):
        rng = random.Random(n)
        points = tuple((5 * k + rng.randint(0, 4), rng.randint(-3, 40)) for k in range(n))
        panels = (Panel("dots", "scatter", "bytes", *columns(points)),
                  Panel("line", "step", "packets", *columns(points)),
                  Panel("short line", "step", "tokens", (1, 3), (2, 4)))
        assert render_svg(panels) == render_svg_reference(panels)
        assert panels_csv(panels) == panels_csv_reference(panels)

    @pytest.mark.parametrize("n", SIZES)
    def test_jitter(self, n):
        # Q64 values (2**-64 us) at the edges of the decimal rendering: exact
        # ties at the 6th place (odd m) and their neighbours, the two Q64
        # values nearest k * 1e-6 us (fractions with trailing zeros), whole
        # microseconds, 0, and values past 10**6 us
        rng = random.Random(n)
        edges = (lambda: rng.randrange(1, 4000) << 57,
                 lambda: (rng.randrange(1, 4000) << 57) + rng.choice([-1, 1]),
                 lambda: (rng.choice([1, 7, 10, 120, 5000, 10**6 - 10, rng.randrange(10**9)])
                          << 64) // 10**6 + rng.choice([0, 1]),
                 lambda: rng.randrange(3 * 10**4) << 64,
                 lambda: 0,
                 lambda: (10**6 << 64) + rng.randrange(10**9 << 64))
        series = tuple(rng.choice(edges)() for _ in range(n))
        report = replace(metrics_report(self._trace(1)), jitter_series=series)
        assert jitter_csv(report) == "index,jitter_us\n" + "".join(
            f"{i},{format_decimal_exact(Fraction(q, 2**64))}\n" for i, q in enumerate(series, 1))

    def test_trace_columns_at_their_bounds(self):
        # every column at both ends of its 64-bit range, and negative sizes
        rng = random.Random(3)
        ends = (-TS_MAX - 1, TS_MAX, -1, 0, 1)
        packets = [MediaPacket(*(rng.choice(ends) for _ in range(3)), rng.random() < 0.5,
                               *(rng.choice(ends) for _ in range(2)), -rng.randint(1, 1500))
                   for _ in range(2 * CHUNK + 1)]
        for k in (0, 1, CHUNK, 2 * CHUNK):
            packets[k] = packets[k]._replace(send_ts_us=-TS_MAX - 1, recv_ts_us=TS_MAX,
                                             size_bytes=-TS_MAX - 1)
        trace = StreamTrace(packets)
        assert not trace.missing
        assert write_trace_csv(trace) == write_trace_csv_reference(trace)
        packets[CHUNK] = packets[CHUNK]._replace(recv_ts_us=None)
        trace = StreamTrace(packets)
        assert list(trace.missing) == [CHUNK]
        assert write_trace_csv(trace) == write_trace_csv_reference(trace)

    def test_missing_arrivals_across_a_chunk_boundary(self):
        packets = list(self._trace(2 * CHUNK + 1, seed=1).packets)
        for k in (0, CHUNK - 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK):
            packets[k] = packets[k]._replace(recv_ts_us=None)
        trace = StreamTrace(tuple(packets))
        assert validate_trace(trace) == []
        assert write_trace_csv(trace) == write_trace_csv_reference(trace)

    def test_int_markers_round_trip_and_other_types_are_flagged(self):
        packets = list(self._trace(CHUNK + 1, seed=2).packets)
        packets[3] = packets[3]._replace(marker=1)
        packets[4] = packets[4]._replace(marker=0)
        trace = StreamTrace(tuple(packets))
        assert validate_trace(trace) == []
        csv = write_trace_csv(trace)
        assert csv == write_trace_csv_reference(trace)
        assert b"\n3,9,96,1," in csv and b"\n4,9,96,0," in csv
        assert read_trace_csv(csv) == trace
        packets[3] = packets[3]._replace(marker=2)
        assert validate_trace(StreamTrace(tuple(packets))) == [
            (3, "marker 2 is not True, False, 0 or 1")]
        # a field that is not an int fits no column: the trace refuses it
        packets[CHUNK - 1] = packets[CHUNK - 1]._replace(recv_ts_us=10 * (CHUNK - 1) + 0.5)
        packets[CHUNK] = packets[CHUNK]._replace(recv_ts_us=Fraction(20 * CHUNK + 3, 2))
        with pytest.raises(TraceValidationError) as exc:
            StreamTrace(tuple(packets))
        assert exc.value.violations == [
            (CHUNK - 1, f"recv_ts_us {10 * (CHUNK - 1) + 0.5!r} is not an int"),
            (CHUNK, f"recv_ts_us {Fraction(20 * CHUNK + 3, 2)!r} is not an int"),
        ]

    def test_percent_in_title_and_unit(self):
        panels = tuple(Panel(f"100% %s %d %{kind}", kind, "%s per %%", (0, 10, 20), (1, 5, 3))
                       for kind in ("scatter", "step"))
        svg = render_svg(panels)
        assert svg == render_svg_reference(panels)
        assert "100% %s %d %scatter" in svg and "%s per %%" in svg
        assert panels_csv(panels) == panels_csv_reference(panels)
