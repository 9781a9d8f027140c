import dataclasses
import random
from array import array
from fractions import Fraction
from operator import lt

import pytest

from rtpshape import (LeakyBucketConfig, MediaPacket, PipelineStageError,
                      ShapeResult, ShapingPreconditionError, StreamTrace,
                      TokenBucketConfig, TraceValidationError, leaky_bucket_shape,
                      run_pipeline, token_bucket_shape, validate_trace)
from rtpshape.reporting import occupancy_csv

from oracles import (burst_scaled, burst_scaled_brute,
                     leaky_bucket_shape_reference, leaky_oracle, random_leaky_config,
                     random_received_trace, random_token_config, token_bucket_shape_reference,
                     token_delay_bound_us, token_oracle)


def received_trace(entries, size=125):
    """entries: list of (arrival_us,) or (arrival_us, size)."""
    packets = []
    for k, entry in enumerate(entries):
        t = entry[0] if isinstance(entry, tuple) else entry
        s = entry[1] if isinstance(entry, tuple) and len(entry) > 1 else size
        packets.append(MediaPacket(k, 1, 96, False, t, t, s))
    return StreamTrace(tuple(packets))


class TestLeakyBucket:
    def test_empty_trace(self):
        r = leaky_bucket_shape(StreamTrace(()), LeakyBucketConfig())
        assert r.shaped.packets == ()
        assert r.dropped == ()
        assert r.occupancy == ()

    def test_burst_overflow_hand_example(self):
        trace = received_trace([0, 0, 0, 0, 0])
        r = leaky_bucket_shape(trace, LeakyBucketConfig(capacity_packets=3,
                                                        drain_interval_us=10000))
        assert [p.recv_ts_us for p in r.shaped.packets] == [0, 10000, 20000, 30000]
        assert [p.seq for p in r.shaped.packets] == [0, 1, 2, 3]
        assert [(p.seq, reason) for p, reason in r.dropped] == [(4, "bucket full")]
        assert max(s.queued_packets for s in r.occupancy) == 3

    def test_idle_clock_reset(self):
        # second talk spurt starts long after the first drains out
        trace = received_trace([0, 1000, 200000])
        r = leaky_bucket_shape(trace, LeakyBucketConfig(capacity_packets=15,
                                                        drain_interval_us=20000))
        assert [p.recv_ts_us for p in r.shaped.packets] == [0, 20000, 200000]

    def test_min_spacing_straddles_queue_empty_gap(self):
        # packet at t=5 arrives while the clock from t=0 is still armed,
        # so it waits for the tick instead of departing immediately
        trace = received_trace([0, 5])
        r = leaky_bucket_shape(trace, LeakyBucketConfig(drain_interval_us=100))
        assert [p.recv_ts_us for p in r.shaped.packets] == [0, 100]

    def test_missing_arrival_is_precondition_error(self):
        trace = StreamTrace((MediaPacket(0, 1, 96, False, 0, None, 125),))
        with pytest.raises(ShapingPreconditionError):
            leaky_bucket_shape(trace, LeakyBucketConfig())

    def test_immediate_departure_is_one_occupancy_row(self):
        trace = received_trace([5])
        r = leaky_bucket_shape(trace, LeakyBucketConfig())
        assert r.occupancy == ((5, 0, 0, 0),)

    def test_audio_configuration_bounds_bucket(self):
        # telephony-style audio: 125-byte CBR packets with jittered arrivals,
        # capacity 15; occupancy must stay within [0, 15] and nothing drops
        rng = random.Random(7)
        arrivals = sorted(20000 * k + rng.randint(0, 15000) for k in range(200))
        trace = received_trace(arrivals, size=125)
        r = leaky_bucket_shape(trace, LeakyBucketConfig(capacity_packets=15,
                                                        drain_interval_us=20000))
        assert r.dropped == ()
        assert all(0 <= s.queued_packets <= 15 for s in r.occupancy)
        deps = [p.recv_ts_us for p in r.shaped.packets]
        assert all(b - a >= 20000 for a, b in zip(deps, deps[1:]))


class TestTokenBucket:
    def test_empty_trace(self):
        cfg = TokenBucketConfig(rate=Fraction(1000), capacity_tokens=100)
        r = token_bucket_shape(StreamTrace(()), cfg)
        assert r.shaped.packets == () and r.dropped == () and r.occupancy == ()

    def test_full_bucket_passes_packet_unchanged(self):
        trace = received_trace([(5000, 80)])
        cfg = TokenBucketConfig(rate=Fraction(1000), capacity_tokens=100)
        r = token_bucket_shape(trace, cfg)
        assert [p.recv_ts_us for p in r.shaped.packets] == [5000]

    def test_refill_wait_hand_example(self):
        # rate 100 B/s, capacity 200, initially full; two 150 B packets at t=0
        trace = received_trace([(0, 150), (0, 150)])
        cfg = TokenBucketConfig(rate=Fraction(100), capacity_tokens=200)
        r = token_bucket_shape(trace, cfg)
        assert [p.recv_ts_us for p in r.shaped.packets] == [0, 1_000_000]
        mid = [s for s in r.occupancy if 0 < s.ts_us < 1_000_000]
        assert mid == []  # queue holds 150 bytes across the whole gap
        waiting = [s for s in r.occupancy if s.ts_us == 0][-1]
        assert waiting.queued_bytes == 150

    def test_one_token_buys_one_byte(self):
        trace = received_trace([(0, 1500)])
        cfg = TokenBucketConfig(rate=Fraction(1), capacity_tokens=2000)
        r = token_bucket_shape(trace, cfg)
        assert r.occupancy[-1].tokens == 2000 - 1500

    def test_queue_limit_drops(self):
        trace = received_trace([(0, 100), (0, 100), (0, 100)])
        cfg = TokenBucketConfig(rate=Fraction(100), capacity_tokens=100,
                                initial_tokens=0, queue_limit_bytes=200)
        r = token_bucket_shape(trace, cfg)
        assert [(p.seq, reason) for p, reason in r.dropped] == [(2, "queue full")]

    def test_immediate_departure_is_two_occupancy_rows(self):
        # the packet is sampled in the queue, then leaving it
        trace = received_trace([(5000, 80)])
        cfg = TokenBucketConfig(rate=Fraction(1000), capacity_tokens=100)
        r = token_bucket_shape(trace, cfg)
        assert r.occupancy == ((5000, 1, 80, 100), (5000, 0, 0, 20))

    def test_oversized_packet_dropped_on_queue_limit_does_not_raise(self):
        trace = received_trace([(0, 500), (10, 50)])
        cfg = TokenBucketConfig(rate=Fraction(100), capacity_tokens=100,
                                queue_limit_bytes=100)
        r = token_bucket_shape(trace, cfg)
        assert [(p.seq, reason) for p, reason in r.dropped] == [(0, "queue full")]
        assert [p.seq for p in r.shaped.packets] == [1]

    def test_oversized_packet_raises(self):
        trace = received_trace([(0, 500)])
        cfg = TokenBucketConfig(rate=Fraction(100), capacity_tokens=100)
        with pytest.raises(ShapingPreconditionError):
            token_bucket_shape(trace, cfg)

    def test_rate_bound_over_event_intervals(self):
        rng = random.Random(11)
        trace = random_received_trace(rng, max_packets=60)
        cfg = random_token_config(rng)
        r = token_bucket_shape(trace, cfg)
        deps = [(p.recv_ts_us, p.size_bytes) for p in r.shaped.packets]
        num = cfg.rate.numerator
        den_us = cfg.rate.denominator * 10**6
        for i in range(len(deps)):
            total = 0
            for j in range(i, len(deps)):
                total += deps[j][1]
                dt = deps[j][0] - deps[i][0]
                assert total <= cfg.capacity_tokens + -(-dt * num // den_us)


class TestDelayBound:
    def test_burst_matches_brute_force(self):
        rng = random.Random(31)
        for _ in range(200):
            trace = random_received_trace(rng, max_packets=40)
            rate = random_token_config(rng).rate
            assert burst_scaled(trace, rate) == burst_scaled_brute(trace, rate)

    @pytest.mark.parametrize("queue_limit", [False, True])
    def test_added_delay_within_bound(self, queue_limit):
        # greedy-shaper horizontal deviation: no accepted packet waits more
        # than ceil((b_in(r) - start_tokens) / r) us, drops or not
        rng = random.Random(707 if queue_limit else 808)
        reached = with_drops = 0
        for _ in range(400):
            trace = random_received_trace(rng)
            cfg = random_token_config(rng)
            cfg = dataclasses.replace(cfg, queue_limit_bytes=(
                rng.randint(100, 2000) if queue_limit else None))
            result = token_bucket_shape(trace, cfg)
            bound = token_delay_bound_us(trace, cfg)
            arrival = {p.seq: p.recv_ts_us for p in trace.packets}
            worst = max((p.recv_ts_us - arrival[p.seq]
                         for p in result.shaped.packets), default=0)
            assert worst <= bound
            reached += worst > 0 and worst == bound
            with_drops += bool(result.dropped)
        assert reached > 0  # the bound is met with equality, not just held
        assert (with_drops > 0) == queue_limit


class TestGreedyShaperGuarantees:
    """A greedy shaper's output already conforms to its own shaping curve
    (Le Boudec & Thiran, Network Calculus, LNCS 2050, section 1.5)."""

    @pytest.mark.parametrize("shaper", ["leaky", "token"])
    def test_reshaping_the_output_changes_nothing(self, shaper):
        rng = random.Random(909 if shaper == "leaky" else 919)
        changed = 0
        for _ in range(300):
            trace = random_received_trace(rng)
            if shaper == "leaky":
                cfg, shape_with = random_leaky_config(rng), leaky_bucket_shape
            else:
                cfg, shape_with = random_token_config(rng), token_bucket_shape
            shaped = shape_with(trace, cfg).shaped
            again = shape_with(shaped, cfg)
            assert again.shaped == shaped
            assert again.dropped == ()
            changed += shaped != trace
        assert changed > 100  # the first pass delays or drops packets of many traces

    def test_token_output_burst_within_capacity(self):
        rng = random.Random(929)
        tight = 0
        for _ in range(300):
            trace = random_received_trace(rng)
            cfg = random_token_config(rng)
            burst = burst_scaled(token_bucket_shape(trace, cfg).shaped, cfg.rate)
            capacity = cfg.capacity_tokens * cfg.rate.denominator * 10**6
            assert burst <= capacity
            tight += burst > capacity - cfg.rate.denominator * 10**6 * 100
        assert tight > 0  # some output bursts come within 100 bytes of the bound

    def test_leaky_departures_a_drain_interval_apart(self):
        rng = random.Random(939)
        tight = 0
        for _ in range(300):
            trace = random_received_trace(rng)
            cfg = random_leaky_config(rng)
            deps = [p.recv_ts_us for p in leaky_bucket_shape(trace, cfg).shaped.packets]
            gaps = [b - a for a, b in zip(deps, deps[1:])]
            assert all(gap >= cfg.drain_interval_us for gap in gaps)
            tight += cfg.drain_interval_us in gaps
        assert tight > 200  # the bound is met with equality, not just held


def conservation_holds(trace, result):
    shaped_ids = [(p.ssrc, p.seq) for p in result.shaped.packets]
    dropped_ids = [(p.ssrc, p.seq) for p, _ in result.dropped]
    input_ids = [(p.ssrc, p.seq) for p in trace.packets]
    return sorted(shaped_ids + dropped_ids) == sorted(input_ids)


class TestSharedInvariants:
    @pytest.mark.parametrize("shaper", ["leaky", "token"])
    def test_random_traces_fifo_causality_conservation(self, shaper):
        rng = random.Random(101 if shaper == "leaky" else 202)
        for _ in range(30):
            trace = random_received_trace(rng, max_packets=80)
            if shaper == "leaky":
                result = leaky_bucket_shape(trace, random_leaky_config(rng))
            else:
                result = token_bucket_shape(trace, random_token_config(rng))
            by_id = {(p.ssrc, p.seq): p for p in trace.packets}
            deps = [p.recv_ts_us for p in result.shaped.packets]
            assert deps == sorted(deps)  # FIFO: departures never reorder
            for p in result.shaped.packets:
                orig = by_id[(p.ssrc, p.seq)]
                assert p.recv_ts_us >= orig.recv_ts_us  # causality
                assert p.size_bytes == orig.size_bytes
            assert conservation_holds(trace, result)
            occ = [(s.ts_us,) for s in result.occupancy]
            assert occ == sorted(occ)

    def test_drop_freedom(self):
        rng = random.Random(5)
        trace = random_received_trace(rng, max_packets=100)
        leaky = leaky_bucket_shape(trace, LeakyBucketConfig(capacity_packets=len(trace),
                                                            drain_interval_us=10))
        assert leaky.dropped == ()
        token = token_bucket_shape(trace, TokenBucketConfig(
            rate=Fraction(1_000_000), capacity_tokens=200, queue_limit_bytes=None))
        assert token.dropped == ()

    def test_determinism(self):
        rng = random.Random(17)
        trace = random_received_trace(rng)
        cfg = random_leaky_config(rng)
        assert leaky_bucket_shape(trace, cfg) == leaky_bucket_shape(trace, cfg)
        tcfg = random_token_config(rng)
        assert token_bucket_shape(trace, tcfg) == token_bucket_shape(trace, tcfg)

    @pytest.mark.parametrize("shaper", ["leaky", "token"])
    def test_matches_microsecond_oracle(self, shaper):
        rng = random.Random(303 if shaper == "leaky" else 404)
        for _ in range(25):
            trace = random_received_trace(rng, max_packets=60, max_t=1500)
            if shaper == "leaky":
                cfg = random_leaky_config(rng)
                result = leaky_bucket_shape(trace, cfg)
                deps, drops = leaky_oracle(trace, cfg)
            else:
                cfg = random_token_config(rng)
                result = token_bucket_shape(trace, cfg)
                deps, drops = token_oracle(trace, cfg)
            assert [(p.seq, t) for p, t in deps] == \
                [(p.seq, p.recv_ts_us) for p in result.shaped.packets]
            assert [p.seq for p in drops] == [p.seq for p, _ in result.dropped]


def shape_or_error(shaper, trace, cfg):
    try:
        return shaper(trace, cfg)
    except ShapingPreconditionError as exc:
        return str(exc)


def rows(result):
    """A ShapeResult as the references give it: (shaped, dropped, occupancy)."""
    if isinstance(result, ShapeResult):
        return result.shaped, result.dropped, result.occupancy
    return result


def invalid_trace(rng, case):
    """Up to 60 packets arriving in order from 0 to 2000 µs, of 1 to 100 bytes,
    made invalid: "unordered" puts a packet after one that arrived later, and
    "negative sizes" gives some packets a size from -100 to 0."""
    times = sorted(rng.randint(0, 2000) for _ in range(rng.randint(2, 60)))
    sizes = [rng.randint(1, 100) for _ in times]
    if case == "unordered":
        k = rng.randrange(1, len(times))
        times[k - 1], times[k] = times[k] + 1, times[k - 1]
    else:
        for k in rng.sample(range(len(sizes)), rng.randint(1, len(sizes))):
            sizes[k] = rng.randint(-100, 0)
    return StreamTrace(tuple(MediaPacket(k, 7, 96, False, t, t, size)
                             for k, (t, size) in enumerate(zip(times, sizes))))


def refusal(shaper, trace, cfg) -> str:
    """The message a shaper refuses the trace with, which must be check_trace's."""
    with pytest.raises(TraceValidationError) as exc:
        shaper(trace, cfg)
    assert exc.value.violations == validate_trace(trace)
    return str(exc.value)


def edge_token_config(rng, case):
    """A random token config, then: "initial 0" starts it empty, "past 64
    bits" gives it a rate of 10**30 B/s or a capacity past 2**63 tokens,
    whose counts times the rate's denominator pass 2**63, and "oversized"
    gives it fewer tokens than some packets hold, without a queue limit."""
    cfg = random_token_config(rng)
    if case == "initial 0":
        return dataclasses.replace(cfg, initial_tokens=0)
    if case == "past 64 bits":
        cap = rng.choice([10**20, 2**63 + rng.randint(0, 1000)])
        return dataclasses.replace(
            cfg, rate=rng.choice([Fraction(10**30), Fraction(10**30, 7), cfg.rate]),
            capacity_tokens=cap, initial_tokens=rng.choice([None, 0, rng.randint(0, cap)]))
    if case == "oversized":
        return dataclasses.replace(cfg, capacity_tokens=rng.randint(20, 99),
                                   initial_tokens=None, queue_limit_bytes=None)
    return cfg


class TestAgainstSeparateLoops:
    """The one FIFO-server loop against the two loops it replaced: the shaped
    trace, the dropped packets with their reasons and every occupancy sample,
    or the same error. Every result is a valid trace, and a trace outside the
    contract is refused."""

    def test_leaky(self):
        rng = random.Random(505)
        for _ in range(400):
            trace = random_received_trace(rng, max_packets=80)
            cfg = random_leaky_config(rng)
            got = leaky_bucket_shape(trace, cfg)
            assert rows(got) == leaky_bucket_shape_reference(trace, cfg)
            assert validate_trace(got.shaped) == []

    @pytest.mark.parametrize("queue_limit", [False, True])
    def test_token(self, queue_limit):
        # a third of the configs hold fewer tokens than the largest packet;
        # with a queue limit no larger than the capacity, every oversized
        # packet is dropped before it could raise
        rng = random.Random(606 if queue_limit else 707)
        outcomes = set()
        for _ in range(400):
            trace = random_received_trace(rng, max_packets=80)
            cfg = random_token_config(rng)
            if rng.random() < 1 / 3:
                cap = rng.randint(20, 99)
                cfg = dataclasses.replace(cfg, capacity_tokens=cap, initial_tokens=None,
                                          queue_limit_bytes=rng.randint(1, cap)
                                          if queue_limit else None)
            elif not queue_limit:
                cfg = dataclasses.replace(cfg, queue_limit_bytes=None)
            got = shape_or_error(token_bucket_shape, trace, cfg)
            assert rows(got) == shape_or_error(token_bucket_shape_reference, trace, cfg)
            if isinstance(got, ShapeResult):
                assert validate_trace(got.shaped) == []
            outcomes.add((type(got), max(p.size_bytes for p in trace.packets)
                          > cfg.capacity_tokens))
        # (outcome, trace holds an oversized packet): without a queue limit
        # an oversized packet raises; with one it is dropped instead
        assert outcomes == ({(ShapeResult, True), (ShapeResult, False)} if queue_limit
                            else {(str, True), (ShapeResult, False)})

    @pytest.mark.parametrize("case", ["unordered", "negative sizes"])
    def test_leaky_outside_a_valid_trace(self, case):
        rng = random.Random(1505 if case == "unordered" else 1606)
        rule = "unsorted" if case == "unordered" else "size_bytes"
        for _ in range(300):
            trace = invalid_trace(rng, case)
            assert rule in refusal(leaky_bucket_shape, trace, random_leaky_config(rng))

    def test_leaky_arrival_at_the_least_time_departs_at_once(self):
        # 0 is the least time of a valid trace; the idle drain clock is earlier
        trace = received_trace([0, 0])
        cfg = LeakyBucketConfig(drain_interval_us=100)
        got = leaky_bucket_shape(trace, cfg)
        assert [p.recv_ts_us for p in got.shaped.packets] == [0, 100]
        assert rows(got) == leaky_bucket_shape_reference(trace, cfg)

    @pytest.mark.parametrize("case", ["negative sizes", "initial 0", "past 64 bits"])
    def test_token_outside_the_random_configs(self, case):
        rng = random.Random(sum(map(ord, case)))
        seen = 0
        for _ in range(300):
            cfg = edge_token_config(rng, case)
            if case == "negative sizes":  # refused, before any packet is served
                seen += "size_bytes" in refusal(token_bucket_shape, invalid_trace(rng, case), cfg)
                continue
            # within 1000 µs, a bucket that starts empty cannot pay for every packet
            trace = random_received_trace(rng, max_packets=60, max_t=1000)
            got = token_bucket_shape(trace, cfg)
            assert rows(got) == token_bucket_shape_reference(trace, cfg)
            if case == "initial 0":  # a packet waited for tokens
                arrival = dict(zip(trace.seq, trace.recv_ts_us))
                seen += any(map(lt, map(arrival.get, got.shaped.seq), got.shaped.recv_ts_us))
            else:  # tokens past 64 bits
                seen += max(got.samples.tokens) > 2**63
        assert seen > 100

    def test_token_clock_on_unordered_arrivals(self):
        # the clock never runs on arrivals out of order: the trace is refused
        # first, even by a bucket too small for its largest packet
        rng = random.Random(1717)
        for _ in range(300):
            cfg = edge_token_config(rng, rng.choice(["initial 0", "past 64 bits", "oversized"]))
            assert "unsorted" in refusal(token_bucket_shape, invalid_trace(rng, "unordered"), cfg)


def checked(shaper, trace, cfg) -> ShapeResult:
    """The shaper's result, once it equals its separate loop's rows and its
    1 µs oracle's departures and drops."""
    leaky = shaper is leaky_bucket_shape
    got = shaper(trace, cfg)
    assert rows(got) == (leaky_bucket_shape_reference if leaky
                         else token_bucket_shape_reference)(trace, cfg)
    deps, drops = (leaky_oracle if leaky else token_oracle)(trace, cfg)
    assert [(p.seq, t) for p, t in deps] == list(zip(got.shaped.seq, got.shaped.recv_ts_us))
    assert [p.seq for p in drops] == list(got.drops.seq)
    return got


class TestHeadDeparture:
    """The server works out a head's departure once, when the packet becomes
    the head, and keeps it through every arrival until it departs."""

    def test_token_head_waits_across_arrivals_and_drops(self):
        # 1 byte a ms from an empty bucket: the 100-byte head leaves at 100 ms,
        # while two of the four packets behind it are refused by the 200-byte
        # queue; each later head is due from the departure ahead of it
        trace = received_trace([(0, 100), (10_000, 60), (20_000, 60), (30_000, 40),
                                (40_000, 1), (100_000, 30), (130_000, 30)])
        cfg = TokenBucketConfig(rate=Fraction(1000), capacity_tokens=100, initial_tokens=0,
                                queue_limit_bytes=200)
        got = checked(token_bucket_shape, trace, cfg)
        assert list(zip(got.shaped.seq, got.shaped.recv_ts_us)) == \
            [(0, 100_000), (1, 160_000), (3, 200_000), (5, 230_000), (6, 260_000)]
        assert list(got.drops.seq) == [2, 4]

    @pytest.mark.parametrize("entries", [[(0, 80), (5, 500), (10, 20)], [(0, 500), (5, 20)]],
                             ids=["behind another", "into an empty queue"])
    def test_oversized_head_raises_the_same_text(self, entries):
        # the 1 µs oracle never ends on a packet that can never depart
        trace = received_trace(entries)
        cfg = TokenBucketConfig(rate=Fraction(1000), capacity_tokens=100, initial_tokens=0)
        assert shape_or_error(token_bucket_shape, trace, cfg) == \
            shape_or_error(token_bucket_shape_reference, trace, cfg) == \
            "packet of 500 bytes exceeds token capacity 100; it can never depart"

    @pytest.mark.parametrize("arrival, departures, drops", [
        (100, [0, 100, 200], []),  # the head leaves at the arrival, which finds room
        (99, [0, 100], [2]),  # 1 µs before the head leaves: the one place is taken
    ])
    def test_leaky_head_due_at_the_next_arrival(self, arrival, departures, drops):
        trace = received_trace([0, 5, arrival])
        got = checked(leaky_bucket_shape, trace,
                      LeakyBucketConfig(capacity_packets=1, drain_interval_us=100))
        assert list(got.shaped.recv_ts_us) == departures
        assert list(got.drops.seq) == drops

    def test_full_bucket_at_an_arrival_to_an_empty_queue(self):
        # 10 bytes a ms: long before 100 ms the bucket is full again, so the
        # 50-byte packet is due on arrival, not when its tokens were first
        # there; the 60-byte packet behind it waits 1 ms for 10 more
        trace = received_trace([(0, 50), (100_000, 50), (100_000, 60)])
        cfg = TokenBucketConfig(rate=Fraction(10_000), capacity_tokens=100, initial_tokens=0)
        got = checked(token_bucket_shape, trace, cfg)
        assert list(got.shaped.recv_ts_us) == [5000, 100_000, 101_000]
        assert got.occupancy[2] == (100_000, 1, 50, 100)


class TestOccupancyColumns:
    """A sample column is an array('q') when its bound, known before the server
    starts, fits in 64 bits, and a list otherwise; the CSV is the same either way."""

    def test_bounded_columns_are_arrays(self):
        trace = received_trace([0, 0, 0, 10_000])
        for result in (leaky_bucket_shape(trace, LeakyBucketConfig(capacity_packets=2)),
                       token_bucket_shape(trace, TokenBucketConfig(rate=Fraction(1000),
                                                                   capacity_tokens=200))):
            assert all(type(c) is array and c.typecode == "q" for c in result.samples)

    def test_tokens_past_64_bits_are_a_list(self):
        trace = received_trace([0, 10])
        result = token_bucket_shape(trace, TokenBucketConfig(rate=Fraction(1000),
                                                             capacity_tokens=10**20))
        assert type(result.samples.queued_bytes) is array
        assert type(result.samples.tokens) is list
        assert occupancy_csv(result).splitlines()[1] == "0,1,125,100000000000000000000"

    @pytest.mark.parametrize("count, size, row", [(3, 2**62, "0,2,9223372036854775808,0")])
    def test_queued_bytes_past_64_bits_are_a_list(self, count, size, row):
        trace = received_trace([0] * count, size=size)
        result = leaky_bucket_shape(trace, LeakyBucketConfig(capacity_packets=5,
                                                             drain_interval_us=1))
        assert type(result.samples.queued_bytes) is list
        assert row in occupancy_csv(result).splitlines()


# Traces outside the contract, each with the message check_trace names it by:
# a size below 1, an arrival below 0 (as a negative send time or delay) and
# an arrival before the one ahead of it.
REFUSED = {
    "size 0": (received_trace([(0, 125), (10, 0)]), "packet 1: size_bytes 0 < 1"),
    "negative sizes": (received_trace([(0, -2**62), (0, -2**62)]),
                       "packet 0: size_bytes -4611686018427387904 < 1; "
                       "packet 1: size_bytes -4611686018427387904 < 1"),
    "before time 0": (received_trace([(-10**18, 1)]), "packet 0: negative send_ts_us"),
    "least time": (received_trace([-2**63, 10]), "packet 0: negative send_ts_us"),
    "negative delay": (StreamTrace((MediaPacket(0, 1, 96, False, 0, -5, 125),)),
                       "packet 0: negative delay: recv_ts_us < send_ts_us"),
    "unsorted": (received_trace([(10**18, 1), (0, 1)]),
                 "packet 1: unsorted: active timestamp decreases"),
}
# The token bucket's 10 tokens never buy a 125-byte packet: the screen
# refuses the trace before any packet could be found too large.
REFUSING = {"leaky": (leaky_bucket_shape, LeakyBucketConfig(capacity_packets=5,
                                                            drain_interval_us=1)),
            "token": (token_bucket_shape, TokenBucketConfig(rate=Fraction(10**30),
                                                            capacity_tokens=10))}


class TestRefusals:
    """A shaper takes only a trace whose sizes are at least 1 and whose
    arrivals never decrease from 0 on; any other breaks the trace contract,
    and is refused with check_trace's TraceValidationError."""

    @pytest.mark.parametrize("case", list(REFUSED))
    @pytest.mark.parametrize("shaper", list(REFUSING))
    def test_shapers_refuse(self, shaper, case):
        trace, message = REFUSED[case]
        shape, cfg = REFUSING[shaper]
        assert refusal(shape, trace, cfg) == message

    @pytest.mark.parametrize("case", list(REFUSED))
    def test_pipeline_refuses_at_stage_0(self, case):
        trace, message = REFUSED[case]
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline([REFUSING["token"][1], REFUSING["leaky"][1]], trace)
        assert exc.value.stage == 0
        assert type(exc.value.cause) is TraceValidationError
        assert str(exc.value) == f"stage 0: {message}"

    @pytest.mark.parametrize("shaper", list(REFUSING))
    def test_the_screen_takes_its_bounds(self, shaper):
        # sizes of 1 and arrivals at 0, equal ones included, pass the screen
        shape, cfg = REFUSING[shaper]
        trace = received_trace([(0, 1), (0, 1), (5, 1)])
        assert len(shape(trace, cfg).shaped) == 3


class TestPipeline:
    def test_zero_stages_is_identity(self):
        trace = received_trace([0, 100, 200])
        final, results = run_pipeline([], trace)
        assert final == trace and results == []

    def test_single_stage_equals_direct_call(self):
        trace = received_trace([0, 0, 0])
        cfg = LeakyBucketConfig(capacity_packets=5, drain_interval_us=1000)
        final, results = run_pipeline([cfg], trace)
        direct = leaky_bucket_shape(trace, cfg)
        assert results == [direct] and final == direct.shaped

    def test_generous_token_stage_is_noop(self):
        rng = random.Random(3)
        arrivals = sorted(20000 * k + rng.randint(0, 15000) for k in range(50))
        trace = received_trace(arrivals, size=125)
        leaky = LeakyBucketConfig(capacity_packets=15, drain_interval_us=20000)
        token = TokenBucketConfig(rate=Fraction(10**9), capacity_tokens=10**6)
        final, results = run_pipeline([leaky, token], trace)
        assert final == results[0].shaped
        assert results[1].dropped == ()

    def test_stage_error_carries_index(self):
        trace = StreamTrace((MediaPacket(0, 1, 96, False, 0, None, 125),))
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline([LeakyBucketConfig()], trace)
        assert exc.value.stage == 0

    def test_unknown_stage_config_is_a_type_error(self):
        trace = received_trace([0, 10], size=125)
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline([LeakyBucketConfig(), object()], trace)
        assert exc.value.stage == 1
        assert isinstance(exc.value.__cause__, TypeError)
        assert "unknown shaper config" in str(exc.value)
