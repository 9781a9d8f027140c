from array import array
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtpshape import (AudioGenConfig, ChannelModel, ExponentialJitter,
                      GenerationError, NoJitter, StreamTrace, TraceValidationError,
                      UniformJitter, VideoGenConfig, apply_channel, generate_audio,
                      generate_video, pdv, read_trace_csv, validate_trace, write_trace_csv)
from rtpshape.model import TS_MAX, US_PER_S
from rtpshape.traffic import _LANES, _words

from oracles import _splitmix64_pair, apply_channel_reference, generate_video_reference


class TestAudio:
    def test_defaults_over_100ms(self):
        trace = generate_audio(AudioGenConfig(), 100_000)
        assert [p.send_ts_us for p in trace.packets] == [0, 20000, 40000, 60000, 80000]
        assert all(p.size_bytes == 125 for p in trace.packets)
        assert all(p.recv_ts_us is None for p in trace.packets)

    def test_duration_equals_one_interval(self):
        trace = generate_audio(AudioGenConfig(), 20_000)
        assert len(trace) == 1 and trace.packets[0].send_ts_us == 0

    def test_too_short_duration(self):
        with pytest.raises(GenerationError):
            generate_audio(AudioGenConfig(), 19_999)

    def test_seq_wraps_at_65536(self):
        cfg = AudioGenConfig(ptime_us=1000)
        trace = generate_audio(cfg, 1000 * 70_000)
        assert len(trace) == 70_000
        assert trace.packets[65535].seq == 65535
        assert trace.packets[65536].seq == 0


class TestVideo:
    def test_fragmentation_hand_example(self):
        cfg = VideoGenConfig(fps=25, gop=5, i_frame_bytes=3000, p_frame_bytes=1000,
                             size_jitter_pct=0, mtu_payload_bytes=1200)
        trace = generate_video(cfg, 200_000, seed=0)
        frames = {}
        for p in trace.packets:
            frames.setdefault(p.send_ts_us, []).append(p)
        assert sorted(frames) == [0, 40000, 80000, 120000, 160000]
        assert [p.size_bytes for p in frames[0]] == [1200, 1200, 600]
        assert [p.marker for p in frames[0]] == [False, False, True]
        for ts in (40000, 80000, 120000, 160000):
            assert [p.size_bytes for p in frames[ts]] == [1000]
            assert frames[ts][0].marker

    def test_gop_one_makes_every_frame_an_i_frame(self):
        cfg = VideoGenConfig(gop=1, size_jitter_pct=0)
        trace = generate_video(cfg, 200_000, seed=1)
        per_frame = {}
        for p in trace.packets:
            per_frame[p.send_ts_us] = per_frame.get(p.send_ts_us, 0) + p.size_bytes
        assert set(per_frame.values()) == {cfg.i_frame_bytes}

    def test_same_seed_is_bit_identical(self):
        cfg = VideoGenConfig()
        assert generate_video(cfg, 10**6, seed=9) == generate_video(cfg, 10**6, seed=9)
        assert generate_video(cfg, 10**6, seed=9) != generate_video(cfg, 10**6, seed=10)

    def test_fragment_conservation(self):
        cfg = VideoGenConfig()
        trace = generate_video(cfg, 2 * 10**6, seed=4)
        sizes = {}
        for p in trace.packets:
            assert p.size_bytes <= cfg.mtu_payload_bytes
            sizes[p.send_ts_us] = sizes.get(p.send_ts_us, 0) + p.size_bytes
        lo_i = round(cfg.i_frame_bytes * 0.8)
        hi_i = round(cfg.i_frame_bytes * 1.2)
        for k, ts in enumerate(sorted(sizes)):
            if k % cfg.gop == 0:
                assert lo_i <= sizes[ts] <= hi_i

    def test_too_short_duration(self):
        with pytest.raises(GenerationError):
            generate_video(VideoGenConfig(fps=25), 39_999, seed=0)

    # any fps from 1 (most do not divide 10^6), jitter from 0 to 100 percent,
    # P-frames from 1 byte, MTUs from the least, and a duration from one frame
    # interval that mostly ends inside one
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(cfg=st.builds(
        lambda fps, gop, p, extra, jitter_pct, mtu: VideoGenConfig(
            fps, gop, p + extra, p, jitter_pct, mtu),
        fps=st.integers(1, 120), gop=st.integers(1, 30), p=st.integers(1, 3000),
        extra=st.integers(0, 12_000), jitter_pct=st.integers(0, 100) | st.sampled_from([0, 100]),
        mtu=st.integers(64, 1500)),
        extra_us=st.integers(0, 2_000_000), seed=st.integers(0, 2**64 - 1))
    # without jitter, I-frames of exactly 3 MTUs and P-frames below one, in a
    # duration of 7.5 frame intervals
    @example(VideoGenConfig(25, 3, 3600, 700, 0, 1200), 260_000, 0)
    # at 100 percent, draws below -1/2 round a 1-byte P-frame to 0, and
    # max(1, ...) binds; 30 fps does not divide 10^6
    @example(VideoGenConfig(30, 30, 5000, 1, 100, 64), 1_966_666, 3)
    # every frame an I-frame, at 7 fps, over 20.3 frame intervals
    @example(VideoGenConfig(7, 1, 2500, 2500, 50, 1000), 2_757_143, 11)
    def test_matches_per_fragment_reference(self, cfg, extra_us, seed):
        duration = -(-US_PER_S // cfg.fps) + extra_us  # at least one frame interval
        assert generate_video(cfg, duration, seed) == \
            generate_video_reference(cfg, duration, seed)


class TestChannel:
    def test_constant_shift(self):
        trace = generate_audio(AudioGenConfig(), 200_000)
        out = apply_channel(trace, ChannelModel(base_delay_us=50_000))
        assert [p.recv_ts_us - p.send_ts_us for p in out.packets] == [50_000] * len(out)
        assert [p.seq for p in out.packets] == [p.seq for p in trace.packets]

    def test_loss_zero_keeps_every_packet(self):
        trace = generate_audio(AudioGenConfig(), 10**6)
        out = apply_channel(trace, ChannelModel(jitter=UniformJitter(0, 30_000), seed=3))
        assert len(out) == len(trace)

    def test_loss_prob_one_rejected(self):
        with pytest.raises(ValueError):
            ChannelModel(loss_prob=Fraction(1))

    def test_loss_rate_roughly_matches_probability(self):
        trace = generate_audio(AudioGenConfig(ptime_us=1000), 4_000_000)
        out = apply_channel(trace, ChannelModel(loss_prob=Fraction(1, 4), seed=8))
        rate = 1 - len(out) / len(trace)
        assert 0.2 < rate < 0.3

    def test_determinism_and_seed_sensitivity(self):
        trace = generate_audio(AudioGenConfig(), 10**6)
        ch = ChannelModel(jitter=UniformJitter(0, 30_000), loss_prob=Fraction(1, 10),
                          seed=77)
        assert apply_channel(trace, ch) == apply_channel(trace, ch)
        other = ChannelModel(jitter=UniformJitter(0, 30_000), loss_prob=Fraction(1, 10),
                             seed=78)
        assert apply_channel(trace, ch) != apply_channel(trace, other)

    def test_causality_and_sortedness(self):
        trace = generate_audio(AudioGenConfig(), 10**6)
        for jitter in (NoJitter(), UniformJitter(5_000, 40_000), ExponentialJitter(20_000)):
            out = apply_channel(trace, ChannelModel(base_delay_us=1000, jitter=jitter,
                                                    loss_prob=Fraction(1, 20), seed=5))
            assert all(p.recv_ts_us >= p.send_ts_us + 1000 for p in out.packets)
            assert validate_trace(out) == []

    def test_uniform_jitter_stays_in_range(self):
        trace = generate_audio(AudioGenConfig(), 10**6)
        out = apply_channel(trace, ChannelModel(jitter=UniformJitter(2000, 9000), seed=1))
        delays = [p.recv_ts_us - p.send_ts_us for p in out.packets]
        assert all(2000 <= d <= 9000 for d in delays)

    def test_cbr_with_no_jitter_has_zero_pdv(self):
        trace = generate_audio(AudioGenConfig(), 10**6)
        out = apply_channel(trace, ChannelModel(base_delay_us=7000, seed=2))
        values, stats = pdv(out)
        assert stats["max"] == 0 and set(values) == {0}

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ptime=st.integers(1000, 60_000), count=st.integers(1, 50) | st.integers(50, 2500),
           base=st.integers(0, TS_MAX),
           jitter=st.one_of(
               st.just(NoJitter()),
               st.tuples(st.integers(0, 2**70), st.integers(0, 2**70)).map(
                   lambda b: UniformJitter(min(b), max(b))),
               st.builds(ExponentialJitter, st.integers(0, 100_000)
                         | st.sampled_from([10**308, 10**400]))),
           loss=st.fractions(0, 1, max_denominator=10**6).filter(lambda p: p < 1),
           seed=st.integers(-2**70, -1) | st.integers(0, 2**64 - 1) | st.integers(2**64, 2**70))
    def test_draws_match_reference_rerun(self, ptime, count, base, jitter, loss, seed):
        # the same trace, or the same error, as the channel before each jitter
        # model drew its own delay and before lost packets skipped the second word;
        # up to 2,500 packets, so the streams fill several ints of 256 lanes.
        # A mean of 10**308 is in float range, but most of its values are not:
        # each such value, and only those, is taken exactly
        def outcome(channel, trace, ch):
            try:
                return channel(trace, ch)
            except Exception as exc:
                return type(exc), str(exc)

        trace = generate_audio(AudioGenConfig(ptime_us=ptime), ptime * count)
        ch = ChannelModel(base_delay_us=base, jitter=jitter, loss_prob=loss, seed=seed)
        assert outcome(apply_channel, trace, ch) == outcome(apply_channel_reference, trace, ch)

    @pytest.mark.parametrize("jitter", [NoJitter(), UniformJitter(3, 9), ExponentialJitter(50)])
    @pytest.mark.parametrize("loss", [Fraction(0), Fraction(1, 3)])
    def test_empty_trace(self, jitter, loss):
        ch = ChannelModel(base_delay_us=5, jitter=jitter, loss_prob=loss, seed=7)
        out = apply_channel(StreamTrace([]), ch)
        assert len(out) == 0 and out == apply_channel_reference(StreamTrace([]), ch)

    def test_words_match_splitmix64_per_stream(self):
        # the lanes of each int, its last lane and the next int's first, and a
        # sparse set of streams, for seeds past 64 bits and below 0
        streams = array("Q", [*range(2 * _LANES + 3), 2**40, 2**64 - 1])
        for seed in (0, 1, -1, 2**64 + 5, -(2**70)):
            for k in (1, 2):
                assert list(_words(seed, streams, k)) == \
                    [_splitmix64_pair((seed ^ i) & (2**64 - 1))[k - 1] for i in streams]
        assert list(_words(3, streams[1::97], 2)) == list(_words(3, streams, 2)[1::97])

    def test_arrival_past_ts_max_is_refused_as_a_row_is(self):
        trace = generate_audio(AudioGenConfig(), 20_000)
        with pytest.raises(TraceValidationError) as channel:
            apply_channel(trace, ChannelModel(base_delay_us=TS_MAX, jitter=UniformJitter(1, 1)))
        with pytest.raises(TraceValidationError) as row:
            StreamTrace([trace.packets[0]._replace(recv_ts_us=TS_MAX + 1)])
        assert channel.value.violations == row.value.violations == \
            [(0, f"recv_ts_us {TS_MAX + 1} > {TS_MAX}")]


SSRCS = st.integers(0, 2**32 - 1)
PAYLOAD_TYPES = st.integers(0, 127)

# generated traces, each at least one packet interval and at most 1 s long
AUDIO = st.builds(AudioGenConfig, ptime_us=st.integers(1000, 60_000),
                  payload_bytes=st.integers(1, 1500), ssrc=SSRCS,
                  payload_type=PAYLOAD_TYPES).flatmap(
    lambda cfg: st.integers(cfg.ptime_us, 1_000_000).map(
        lambda duration: generate_audio(cfg, duration)))
VIDEO = st.builds(
    lambda fps, gop, p, extra, jitter_pct, mtu, ssrc, pt: VideoGenConfig(
        fps, gop, p + extra, p, jitter_pct, mtu, ssrc, pt),
    fps=st.integers(1, 60), gop=st.integers(1, 30), p=st.integers(1, 3000),
    extra=st.integers(0, 12_000), jitter_pct=st.integers(0, 100),
    mtu=st.integers(64, 1500), ssrc=SSRCS, pt=PAYLOAD_TYPES).flatmap(
    lambda cfg: st.tuples(st.integers(-(-10**6 // cfg.fps), 1_000_000),
                          st.integers(0, 2**64 - 1)).map(
        lambda args: generate_video(cfg, *args)))
JITTERS = st.one_of(
    st.just(NoJitter()),
    st.tuples(st.integers(0, 50_000), st.integers(0, 50_000)).map(
        lambda b: UniformJitter(min(b), max(b))),
    st.builds(ExponentialJitter, st.integers(0, 100_000)))
CHANNELS = st.none() | st.builds(
    ChannelModel, base_delay_us=st.integers(0, 200_000), jitter=JITTERS,
    loss_prob=st.integers(0, 99).map(lambda n: Fraction(n, 100)),
    seed=st.integers(0, 2**64 - 1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sent=AUDIO | VIDEO, channel=CHANNELS)
def test_generated_traces_are_valid_and_round_trip(sent, channel):
    """Whatever the scenario parameters, a generated or impaired trace is
    valid and its CSV reads back to the same trace."""
    traces = [sent] if channel is None else [sent, apply_channel(sent, channel)]
    for trace in traces:
        assert validate_trace(trace) == []
        assert read_trace_csv(write_trace_csv(trace)) == trace
