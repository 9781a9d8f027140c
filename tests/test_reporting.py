"""The figure and CSV writers against their per-point references in
`tests/oracles.py` (byte for byte), and the typed readers of the stage
artifacts."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtpshape import (MediaPacket, StreamTrace, TraceFormatError,
                      leaky_bucket_shape, token_bucket_shape, write_trace_csv)
from rtpshape.reporting import (Panel, PanelReport, drops_csv, occupancy_csv, panel_report,
                                read_drops_csv, read_occupancy_csv, render_svg)

from oracles import (occupancy_csv_reference, panel_report_reference,
                     random_leaky_config, random_received_trace, random_token_config,
                     render_svg_reference, write_trace_csv_reference)


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


class TestAgainstReference:
    def test_random_shaped_stages(self):
        for seed in range(300):
            trace, cfg, result = _random_stage(seed)
            panels = panel_report(trace, result, cfg)
            assert panels == panel_report_reference(trace, result, cfg), seed
            assert render_svg(panels) == render_svg_reference(panels), seed
            assert occupancy_csv(result) == occupancy_csv_reference(result), seed
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
        report = PanelReport((Panel("edge", kind, "bytes", points),
                              Panel("other", "scatter", "packets", ((1, 1), (2, 2)))))
        assert render_svg(report) == render_svg_reference(report)

    def test_no_panels(self):
        assert render_svg(PanelReport(())) == render_svg_reference(PanelReport(()))

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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(panels=st.lists(st.tuples(
        st.sampled_from(["scatter", "step"]),
        st.lists(st.tuples(st.integers(-(2**64), 2**64), values), max_size=12)),
        max_size=4))
    def test_edge_panel_property(self, panels):
        report = PanelReport(tuple(Panel(f"p{i}", kind, "u", tuple(points))
                                   for i, (kind, points) in enumerate(panels)))
        assert render_svg(report) == render_svg_reference(report)


class TestStageArtifactReaders:
    def test_round_trip(self):
        for seed in range(40):
            _, _, result = _random_stage(seed)
            assert read_occupancy_csv(occupancy_csv(result).encode("ascii")) == \
                result.occupancy
            assert read_drops_csv(drops_csv(result).encode("ascii")) == \
                [(p.seq, p.ssrc, p.recv_ts_us, reason) for p, reason in result.dropped]

    @pytest.mark.parametrize("body, message", [
        ("x\n", "row 1: expected 4 fields, got 1"),
        ("1,2,3,bucket full\n1,2\n", "row 2: expected 4 fields, got 2"),
        ("70000,1,5,bucket full\n", "row 1, column seq: 70000 outside"),
        ("1,1,-5,queue full\n", "row 1, column ts_us: -5 outside"),
        ("1,1,a,queue full\n", "row 1, column ts_us: not an integer"),
        ("1,1,5,late\n", "row 1, column reason: unknown drop reason 'late'"),
    ])
    def test_malformed_drops(self, body, message):
        with pytest.raises(TraceFormatError, match=message):
            read_drops_csv(("seq,ssrc,ts_us,reason\n" + body).encode("ascii"))

    @pytest.mark.parametrize("body, message", [
        ("1,2\n", "row 1: expected 4 fields, got 2"),
        ("1,0,0,0\n2,x,0,0\n", "row 2, column queued_packets: not an integer"),
        ("1,0,0,-1\n", "row 1, column tokens: -1 outside"),
    ])
    def test_malformed_occupancy(self, body, message):
        with pytest.raises(TraceFormatError, match=message):
            read_occupancy_csv(("ts_us,queued_packets,queued_bytes,tokens\n" + body)
                               .encode("ascii"))

    @pytest.mark.parametrize("reader", [read_drops_csv, read_occupancy_csv])
    @pytest.mark.parametrize("data", [b"", b"wrong,header\n", b"\xff\n"])
    def test_bad_header_or_bytes(self, reader, data):
        with pytest.raises(TraceFormatError):
            reader(data)
