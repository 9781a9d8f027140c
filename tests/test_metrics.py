import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from operator import sub

import pytest

from rtpshape import (AudioGenConfig, ChannelModel, ExponentialJitter, InconsistentInputError,
                      InsufficientDataError, LeakyBucketConfig, MediaPacket,
                      MetricPreconditionError, StreamTrace,
                      TokenBucketConfig, UniformJitter, apply_channel, compare,
                      format_decimal, generate_audio, interarrival_jitter, leaky_bucket_shape,
                      loss, metrics_report, pdv, throughput, token_bucket_shape)
from rtpshape import metrics
from rtpshape.metrics import format_jitter
from rtpshape.model import SEQ_MOD
from rtpshape.reporting import jitter_csv

from oracles import (format_decimal_exact, jitter_exact, loss_reference, metrics_report_reference,
                     random_received_trace)

Q64 = 1 << 64


def trace_from(rows):
    """rows: (seq, send, recv) or (seq, send, recv, size)."""
    packets = tuple(
        MediaPacket(r[0], 1, 96, False, r[1], r[2], r[3] if len(r) > 3 else 125)
        for r in rows
    )
    return StreamTrace(packets)


class TestJitter:
    def test_rfc_worked_example(self):
        trace = trace_from([(0, 0, 0), (1, 20000, 25000), (2, 40000, 45000)])
        series, final = interarrival_jitter(trace)
        assert series == ((1, Fraction(625, 2)), (2, Fraction(9375, 32)))
        assert final == Fraction("292.96875")

    def test_periodic_arrivals_zero_jitter(self):
        trace = trace_from([(k, 20000 * k, 20000 * k + 500) for k in range(10)])
        series, final = interarrival_jitter(trace)
        assert final == 0 and all(j == 0 for _, j in series)

    def test_constant_delay_cancels(self):
        base = [(k, 20000 * k, 20000 * k + (k % 3) * 700) for k in range(12)]
        shifted = [(s, snd, rcv + 50_000) for s, snd, rcv in base]
        assert interarrival_jitter(trace_from(base)) == \
            interarrival_jitter(trace_from(shifted))

    def test_too_few_packets(self):
        with pytest.raises(InsufficientDataError):
            interarrival_jitter(trace_from([(0, 0, 10)]))

    def test_missing_recv(self):
        trace = StreamTrace((MediaPacket(0, 1, 96, False, 0, None, 125),
                             MediaPacket(1, 1, 96, False, 100, None, 125)))
        with pytest.raises(MetricPreconditionError):
            interarrival_jitter(trace)


def random_jittered_trace(rng):
    """An oracle random trace re-stamped by a seeded channel, so sends and
    arrivals both vary; at most 200 packets, often more than 16."""
    sent = random_received_trace(rng, max_packets=200, max_t=rng.choice([3000, 10**6]))
    jitter = rng.choice([UniformJitter(0, rng.randint(0, 20000)),
                         ExponentialJitter(rng.randint(0, 5000))])
    return apply_channel(sent, ChannelModel(base_delay_us=rng.randint(0, 50000),
                                            jitter=jitter,
                                            loss_prob=rng.choice([0, Fraction(1, 10)]),
                                            seed=rng.randrange(2**32)))


class TestQ64JitterAgainstExact:
    """The Q64 recurrence against the exact-Fraction one (tests/oracles.py)
    on 250 seeded random traces."""

    @pytest.fixture(scope="class")
    def cases(self):
        rng = random.Random(3550)
        traces = [random_jittered_trace(rng) for _ in range(250)]
        traces = [t for t in traces if len(t) >= 2]
        assert len(traces) >= 200
        assert sum(len(t) > 17 for t in traces) >= 200
        return [(t, metrics_report(t), jitter_exact(t)) for t in traces]

    def test_first_16_steps_are_exact(self, cases):
        for trace, report, exact in cases:
            assert [Fraction(q, Q64) for q in report.jitter_series[:16]] == exact[:16]

    def test_error_below_16_units_and_never_above_exact(self, cases):
        for trace, report, exact in cases:
            assert len(report.jitter_series) == len(exact)
            for q, j in zip(report.jitter_series, exact):
                assert 0 <= j * Q64 - q < 16
            assert report.jitter_final_us == Fraction(report.jitter_series[-1], Q64)

    def test_public_view_matches_series(self, cases):
        for trace, report, _ in cases[:20]:
            series, final = interarrival_jitter(trace)
            assert series == tuple((i, Fraction(q, Q64))
                                   for i, q in enumerate(report.jitter_series, start=1))
            assert final == report.jitter_final_us

    def test_renderings_match_exact(self, cases):
        for trace, report, exact in cases:
            assert [format_jitter(q) for q in report.jitter_series] == \
                [format_decimal_exact(j) for j in exact]
            assert jitter_csv(report) == "index,jitter_us\n" + "".join(
                f"{i},{format_decimal_exact(j)}\n" for i, j in enumerate(exact, start=1))
            assert format_decimal(report.jitter_final_us) == format_decimal_exact(exact[-1])


def random_report_trace(rng, n, arrivals):
    """n packets of one stream, ordered by their active timestamp. Seqs step
    by -2 to +3 from a random start, so they repeat, go back and skip.
    `arrivals` is "all", "none" or "one missing"."""
    seq, send, packets = rng.randrange(SEQ_MOD), rng.randrange(10**7), []
    for _ in range(n):
        seq = (seq + rng.choice((1, 1, 1, 2, 3, 0, -1, -2))) % SEQ_MOD
        send += rng.randrange(3000)
        packets.append(MediaPacket(seq, 7, 96, False, send, send + rng.randrange(40000),
                                   rng.randint(1, 1500)))
    if arrivals == "all":
        packets.sort(key=lambda p: p.recv_ts_us)
    elif arrivals == "none":
        packets = [p._replace(recv_ts_us=None) for p in packets]
    else:
        k = rng.randrange(n)
        packets[k] = packets[k]._replace(recv_ts_us=None)
    return StreamTrace(tuple(packets))


class TestReportAgainstReference:
    """metrics_report against the report as it was written before it read
    each packet field once (tests/oracles.py), and the public per-metric
    functions against the report's fields."""

    WINDOWS = (1, 7, 10**6)

    @pytest.fixture(scope="class")
    def traces(self):
        rng = random.Random(1515)
        traces = [random_report_trace(rng, n, arrivals)
                  for n in (1, 2, 3, 40, 300) for arrivals in ("all", "none", "one missing")
                  for _ in range(8)]
        traces += [random_jittered_trace(rng) for _ in range(40)]
        shuffled = list(random_report_trace(rng, 200, "all").packets)
        rng.shuffle(shuffled)
        traces.append(StreamTrace(tuple(shuffled)))  # out of time order
        sent = generate_audio(AudioGenConfig(), 70_000 * 20_000)
        traces.append(apply_channel(sent, ChannelModel(jitter=UniformJitter(0, 60_000),
                                                       loss_prob=Fraction(1, 100), seed=15)))
        return [t for t in traces if t.packets]

    def test_cases_cover_the_edges(self, traces):
        assert {len(t) for t in traces} >= {1, 2, 3}
        assert any(len(t) > SEQ_MOD and any(a.seq > b.seq for a, b in
                                            zip(t.packets, t.packets[1:]))
                   for t in traces)
        timestamps = [t.active_timestamps() for t in traces]
        assert any(ts != sorted(ts) for ts in timestamps)
        arrived = [None not in [p.recv_ts_us for p in t.packets] for t in traces]
        assert any(arrived) and not all(arrived)
        # the report's jitter runs over the PDV values, the transits less
        # their minimum; a minimum above 0 checks that the offset drops out
        assert any(not t.missing and min(map(sub, t.recv_ts_us, t.send_ts_us)) > 0
                   for t in traces)

    def test_report_equals_reference(self, traces):
        for trace in traces:
            for window in self.WINDOWS:
                assert metrics_report(trace, window) == metrics_report_reference(trace, window)

    def test_public_functions_agree_with_the_report(self, traces):
        for trace in traces:
            for window in self.WINDOWS:
                assert throughput(trace, window) == \
                    metrics_report(trace, window).throughput_series
            report = metrics_report(trace)
            assert loss(trace) == (report.loss_count, report.loss_rate, report.duplicate_count)
            if report.pdv_stats is None:
                with pytest.raises(MetricPreconditionError):
                    pdv(trace)
            else:
                assert pdv(trace) == (report.pdv_per_packet_us, report.pdv_stats)
            if report.jitter_series is None:
                with pytest.raises((InsufficientDataError, MetricPreconditionError)):
                    interarrival_jitter(trace)
            else:
                assert interarrival_jitter(trace) == (
                    tuple((i, Fraction(q, Q64))
                          for i, q in enumerate(report.jitter_series, start=1)),
                    report.jitter_final_us)


def test_report_calls_the_public_metrics(monkeypatch):
    # perfbench times each metric by its public name in the module, so the
    # report is built from those names, once each; jitter is the Q64 series,
    # not the exact-Fraction interarrival_jitter
    calls = []

    def counting(name):
        fn = getattr(metrics, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    for name in ("loss", "pdv", "throughput", "interarrival_jitter"):
        monkeypatch.setattr(metrics, name, counting(name))
    trace = trace_from([(k, 20000 * k, 20000 * k + 500 + 37 * (k % 3)) for k in range(10)])
    assert metrics_report(trace, 7) == metrics_report_reference(trace, 7)
    assert sorted(calls) == ["loss", "pdv", "throughput"]


class TestFormatDecimalAgainstRound:
    """Integer round-half-even against round() on the exact Fraction."""

    def test_random_rationals(self):
        rng = random.Random(606)
        for _ in range(5000):
            den = rng.choice([1, 2, 3, 7, 10**6, 2 * 10**6, 3 * 10**7,
                              Q64, rng.randint(1, 10**12)])
            value = Fraction(rng.randint(-10**13, 10**13), den)
            assert format_decimal(value) == format_decimal_exact(value)

    def test_half_ulp_ties_both_signs(self):
        for k in range(-2000, 2000):
            tie = Fraction(2 * k + 1, 2 * 10**6)  # exactly half way between ulps
            assert format_decimal(tie) == format_decimal_exact(tie)
            for eps in (Fraction(1, Q64), -Fraction(1, Q64)):
                assert format_decimal(tie + eps) == format_decimal_exact(tie + eps)
        assert format_decimal(Fraction(-1, 2 * 10**6)) == "0"
        assert format_decimal(Fraction(-3, 2 * 10**6)) == "-0.000002"
        assert format_decimal(Fraction(-5, 2 * 10**6)) == "-0.000002"

    def test_q64_values_render_like_their_fraction(self):
        rng = random.Random(64)
        for _ in range(5000):
            q = rng.randrange(20000 * Q64)
            assert format_jitter(q) == format_decimal_exact(Fraction(q, Q64))
        # m/128 us (m odd) has 7 decimal places: a tie at the 6th
        assert format_jitter(1 << 57) == "0.007812"
        for m in range(1, 400, 2):
            for q in ((m << 57) - 1, m << 57, (m << 57) + 1):
                assert format_jitter(q) == format_decimal_exact(Fraction(q, Q64))
                assert format_jitter(-q) == format_decimal_exact(Fraction(-q, Q64))
        # no jitter value is negative, but format_jitter takes any int: a
        # value that rounds to 0 renders without a sign
        assert format_jitter(-1) == format_jitter(-((1 << 63) // 10**6)) == "0"
        assert format_jitter(-((1 << 63) // 10**6) - 1) == "-0.000001"
        assert format_jitter(-(1 << 57)) == "-0.007812"
        assert format_jitter(-(3 << 57)) == "-0.023438"
        rng = random.Random(-64)
        series = [rng.choice([-1, 1]) * rng.choice([
            rng.randrange(20000 * Q64), rng.randrange(1, 400, 2) << 57,
            (rng.randrange(1, 400, 2) << 57) + rng.choice([-1, 1]),
            rng.randrange((1 << 63) // 10**6), rng.randrange(100) << 64, 0])
            for _ in range(3000)]
        assert min(series) < 0 < max(series)
        assert [format_jitter(q) for q in series] == [format_decimal_exact(Fraction(q, Q64))
                                                      for q in series]
        # jitter_csv's one-pass rows render the magnitudes as format_jitter does
        magnitudes = tuple(map(abs, series))
        report = replace(metrics_report(trace_from([(0, 0, 0), (1, 20, 25)])),
                         jitter_series=magnitudes)
        assert jitter_csv(report) == "index,jitter_us\n" + "".join(
            f"{i},{format_jitter(q)}\n" for i, q in enumerate(magnitudes, start=1))


class TestPdv:
    def test_constant_delay_is_zero(self):
        trace = trace_from([(k, 1000 * k, 1000 * k + 300) for k in range(5)])
        values, stats = pdv(trace)
        assert set(values) == {0} and stats["max"] == 0

    def test_hand_example(self):
        trace = trace_from([(0, 0, 50000), (1, 0, 55000), (2, 0, 55000)])
        values, stats = pdv(trace)
        assert values == (0, 5000, 5000)
        assert stats["max"] == 5000
        assert stats["mean"] == Fraction(10000, 3)

    def test_single_packet(self):
        values, stats = pdv(trace_from([(0, 0, 123)]))
        assert values == (0,)
        assert stats == {"min": 0, "max": 0, "mean": 0, "p50": 0, "p99": 0}

    def test_shift_invariance(self):
        rows = [(k, 1000 * k, 1000 * k + 100 + (k * 37) % 500) for k in range(20)]
        shifted = [(s, snd, rcv + 9999) for s, snd, rcv in rows]
        assert pdv(trace_from(rows)) == pdv(trace_from(shifted))

    def test_empty_trace_is_insufficient(self):
        with pytest.raises(InsufficientDataError, match="^pdv needs at least 1 packet$"):
            pdv(StreamTrace(()))


class TestLoss:
    def test_complete_run(self):
        trace = trace_from([(k, k * 10, k * 10) for k in range(10)])
        assert loss(trace) == (0, Fraction(0), 0)

    def test_empty_trace_is_insufficient(self):
        with pytest.raises(InsufficientDataError, match="^loss needs at least 1 packet$"):
            loss(StreamTrace(()))

    def test_single_gap(self):
        trace = trace_from([(s, i * 10, i * 10) for i, s in enumerate([0, 1, 3, 4])])
        count, rate, dups = loss(trace)
        assert (count, rate, dups) == (1, Fraction(1, 5), 0)

    def test_wrap_around_gap(self):
        # stream spans 65534..3 across the wrap; 1 and 2 went missing
        seqs = [65534, 65535, 0, 3]
        trace = trace_from([(s, i * 10, i * 10) for i, s in enumerate(seqs)])
        count, rate, dups = loss(trace)
        assert count == 2 and rate == Fraction(2, 6) and dups == 0

    def test_contiguous_wrap_has_no_loss(self):
        seqs = [65534, 65535, 0, 1]
        trace = trace_from([(s, i * 10, i * 10) for i, s in enumerate(seqs)])
        assert loss(trace)[0] == 0

    def test_duplicates_counted_once(self):
        seqs = [0, 1, 1, 2]
        packets = tuple(MediaPacket(s, 1, 96, False, i * 10, i * 10, 125)
                        for i, s in enumerate(seqs))
        count, rate, dups = loss(StreamTrace(packets))
        assert count == 0 and dups == 1

    def test_memory_follows_packets_not_seq_span(self):
        # each extended seq moves 32767 ahead, so the span is 32767x the packets
        n = 20_000
        trace = trace_from([((k * 32767) % SEQ_MOD, k * 10, k * 10) for k in range(n)])
        tracemalloc.start()
        try:
            result = loss(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == loss_reference(trace)
        assert peak / n < 256


class TestThroughput:
    def test_single_window(self):
        trace = trace_from([(k, k * 1000, k * 1000) for k in range(5)])
        assert throughput(trace, 10**6) == ((0, 625),)

    def test_empty_trace(self):
        assert throughput(StreamTrace(()), 1000) == ()

    def test_window_below_1_is_refused(self):
        with pytest.raises(ValueError, match="^window_us must be >= 1$"):
            throughput(trace_from([(0, 0, 0)]), 0)

    def test_half_open_windows(self):
        trace = trace_from([(0, 0, 0), (1, 999, 999), (2, 1000, 1000)])
        assert throughput(trace, 1000) == ((0, 250), (1000, 125))

    def test_shaped_output_respects_rate_bound(self):
        rng = random.Random(31)
        rows = []
        t = 0
        for k in range(300):
            t += rng.randint(0, 2000)
            rows.append((k, t, t, rng.randint(1, 400)))
        trace = trace_from(rows)
        cfg = TokenBucketConfig(rate=Fraction(100_000), capacity_tokens=2000)
        shaped = token_bucket_shape(trace, cfg).shaped
        for _, total in throughput(shaped, 10**6):
            assert total <= 100_000 + cfg.capacity_tokens


class TestCompare:
    def test_noop_shaping_yields_zero_deltas(self):
        rows = [(k, 20000 * k, 20000 * k + (k * 13) % 900) for k in range(30)]
        trace = trace_from(rows)
        cfg = TokenBucketConfig(rate=Fraction(10**9), capacity_tokens=10**6)
        report = compare(trace, token_bucket_shape(trace, cfg).shaped)
        assert report.added_latency_mean_us == 0
        assert report.added_latency_max_us == 0
        assert report.drops_introduced == 0
        assert report.pdv_max_reduction_pct == 0
        assert report.after.pdv_stats == report.before.pdv_stats

    def test_leaky_on_jittered_cbr_removes_post_transient_pdv(self):
        rng = random.Random(12)
        rows = []
        for k in range(400):
            j = rng.randint(0, 15000)
            rows.append((k, 20000 * k, 20000 * k + j))
        rows.sort(key=lambda r: r[2])
        trace = trace_from(rows)
        result = leaky_bucket_shape(trace, LeakyBucketConfig(15, 20000))
        assert result.dropped == ()
        report = compare(trace, result.shaped)
        deps = [p.recv_ts_us for p in result.shaped.packets]
        gaps = [b - a for a, b in zip(deps, deps[1:])]
        last_irregular = max((i for i, g in enumerate(gaps) if g != 20000), default=-1)
        assert last_irregular < len(gaps) - 50  # long exactly-periodic tail
        assert report.before.pdv_stats["max"] > 0

    def test_zero_before_pdv_is_undefined_not_zero(self):
        rows = [(k, 1000 * k, 1000 * k + 50) for k in range(10)]
        trace = trace_from(rows)
        cfg = TokenBucketConfig(rate=Fraction(10**9), capacity_tokens=10**6)
        report = compare(trace, token_bucket_shape(trace, cfg).shaped)
        assert report.pdv_max_reduction_pct is None

    def test_streams_past_the_seq_wrap(self):
        # 70,000 packets: seqs 0..4463 occur twice; added latency is
        # recomputed per packet by send time, which the shaper leaves alone
        sent = generate_audio(AudioGenConfig(), 70_000 * 20_000)
        trace = apply_channel(sent, ChannelModel(jitter=UniformJitter(0, 60_000),
                                                 loss_prob=Fraction(1, 100), seed=3))
        result = leaky_bucket_shape(trace, LeakyBucketConfig(2, 20_000))
        assert result.dropped
        report = compare(trace, result.shaped)
        arrival = {p.send_ts_us: p.recv_ts_us for p in trace.packets}
        added = [p.recv_ts_us - arrival[p.send_ts_us] for p in result.shaped.packets]
        assert report.added_latency_max_us == max(added)
        assert report.added_latency_mean_us == Fraction(sum(added), len(added))
        assert report.drops_introduced == len(result.dropped)

    def test_match_follows_the_order_across_wraps(self):
        # the first packet (seq 65535) is left out, so the shaped packets
        # start after the wrap
        trace = trace_from([(65535, 0, 0), (0, 10, 10), (1, 20, 20)])
        late = [p._replace(recv_ts_us=p.recv_ts_us + 5) for p in trace.packets]
        report = compare(trace, StreamTrace(tuple(late[1:])))
        assert (report.drops_introduced, report.added_latency_max_us) == (1, 5)
        report = compare(trace, StreamTrace((late[2],)))
        assert (report.drops_introduced, report.added_latency_max_us) == (2, 5)
        with pytest.raises(InconsistentInputError, match="ssrc 2, seq 0"):
            compare(trace, StreamTrace((late[1]._replace(ssrc=2),)))  # unknown ssrc
        with pytest.raises(InconsistentInputError, match="ssrc 1, seq 0"):
            compare(trace, StreamTrace((late[2], late[1])))  # out of order

    @pytest.mark.parametrize("n, picks", [
        (40_000, [35_000]),                  # the only survivor, past half a period
        (100_000, [10_000, 50_000, 90_000]),  # survivors 40,000 packets apart
        (150_000, [1_000, 140_000]),          # seq 8,928 recurs twice between
    ])
    def test_match_sparse_picks_of_a_long_stream(self, n, picks):
        # only the picked packets survive, and packet k is delayed by k us,
        # so the added latencies show which packet of `before` each matched
        before = StreamTrace(tuple(MediaPacket(k % 65536, 7, 96, False, 20_000 * k,
                                               20_000 * k + 5, 160) for k in range(n)))
        after = StreamTrace(tuple(before.packets[k]._replace(recv_ts_us=20_000 * k + 5 + k)
                                  for k in picks))
        report = compare(before, after)
        assert report.drops_introduced == n - len(picks)
        assert report.added_latency_max_us == max(picks)
        assert report.added_latency_mean_us == Fraction(sum(picks), len(picks))

    def test_duplicate_identity_in_before_trace(self):
        # the same (seq, ssrc, send) twice: the copies match in order
        trace = trace_from([(7, 0, 0), (7, 0, 10)])
        result = leaky_bucket_shape(trace, LeakyBucketConfig())
        assert [p.recv_ts_us for p in result.shaped.packets] == [0, 20_000]
        report = compare(trace, result.shaped)
        assert report.added_latency_max_us == 19_990
        assert report.added_latency_mean_us == Fraction(19_990, 2)

    def test_identity_mismatch(self):
        trace = trace_from([(0, 0, 10), (1, 100, 110)])
        other = trace_from([(5, 0, 10), (6, 100, 110)])
        cfg = TokenBucketConfig(rate=Fraction(10**9), capacity_tokens=10**6)
        result = token_bucket_shape(other, cfg)
        with pytest.raises(InconsistentInputError):
            compare(trace, result.shaped)

    def test_after_without_arrival_is_a_precondition_error(self):
        trace = trace_from([(0, 0, 10), (1, 100, 110)])
        after = StreamTrace((trace.packets[0], trace.packets[1]._replace(recv_ts_us=None)))
        with pytest.raises(MetricPreconditionError, match="^after: packet 1 has no recv_ts_us"):
            compare(trace, after)
        with pytest.raises(MetricPreconditionError, match="^before: packet 1 has no recv_ts_us"):
            compare(after, trace)


class TestReportAndFormatting:
    def test_report_degrades_per_metric(self):
        report = metrics_report(trace_from([(0, 0, 500)]))
        assert report.jitter_final_us is None  # insufficient data
        assert report.pdv_per_packet_us == (0,)
        assert report.loss_count == 0

    def test_empty_trace_is_insufficient(self):
        with pytest.raises(InsufficientDataError):
            metrics_report(StreamTrace(()))

    @pytest.mark.parametrize("value,expected", [
        (0, "0"),
        (Fraction(625, 2), "312.5"),
        (Fraction(9375, 32), "292.96875"),
        (Fraction(1, 3), "0.333333"),
        (Fraction(-1, 3), "-0.333333"),
        (Fraction(10000, 3), "3333.333333"),
        (100, "100"),
    ])
    def test_format_decimal(self, value, expected):
        assert format_decimal(value) == expected

    def test_format_decimal_half_even_at_sixth_digit(self):
        assert format_decimal(Fraction(1, 2 * 10**6)) == "0"  # 0.5 ulp -> even
        assert format_decimal(Fraction(3, 2 * 10**6)) == "0.000002"  # 1.5 ulp -> even
