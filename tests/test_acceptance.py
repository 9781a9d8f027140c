"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and announces a single
PASS/FAIL line on the live terminal (bypassing capture) so a full run reads
as a checklist. Criteria:

  1. jittered CBR audio through the leaky bucket comes out strictly periodic
  2. VBR video through the token bucket never exceeds the token rate bound
     and delays no packet beyond the network-calculus delay bound
  3. both shapers match a brute-force 1 us-step simulator on 500 random traces
  4. metric implementations reproduce hand-computed values
  5. the run command renders the expected 3- and 4-panel figures
  6. trace CSV and PCAP import survive round trips and hostile input
  7. identical runs are byte-identical and shaping scales to 1e6 packets
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from rtpshape import (AudioGenConfig, ChannelModel, LeakyBucketConfig,
                      MediaPacket, PcapError, StreamTrace,
                      TokenBucketConfig, UniformJitter,
                      VideoGenConfig, apply_channel, generate_audio,
                      generate_video, import_pcap, interarrival_jitter,
                      leaky_bucket_shape, pdv, read_trace_csv,
                      token_bucket_shape, write_trace_csv)
from rtpshape.cli import main

from oracles import (leaky_oracle, random_leaky_config, random_received_trace,
                     random_token_config, token_delay_bound_us, token_oracle)
from test_pcap import build_pcap, rtp_payload, udp_frame


@pytest.fixture
def announce(capfd):
    """One PASS/FAIL line per criterion, printed past pytest's capture."""

    @contextmanager
    def criterion(num, label):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"acceptance criterion {num} ({label}): FAIL")
            raise
        else:
            with capfd.disabled():
                print(f"acceptance criterion {num} ({label}): PASS")

    return criterion


def test_1_audio_leaky_bucket_restores_periodicity(announce):
    with announce(1, "audio leaky bucket"):
        t0 = time.perf_counter()
        sent = generate_audio(AudioGenConfig(ptime_us=20000, payload_bytes=125),
                              60_000_000)
        recv = apply_channel(sent, ChannelModel(jitter=UniformJitter(0, 15000),
                                                seed=1))
        result = leaky_bucket_shape(recv, LeakyBucketConfig(capacity_packets=15,
                                                            drain_interval_us=20000))
        assert result.dropped == ()

        # after a start-up transient the departures are exactly periodic
        deps = [p.recv_ts_us for p in result.shaped.packets]
        gaps = [b - a for a, b in zip(deps, deps[1:])]
        last_irregular = max((i for i, g in enumerate(gaps) if g != 20000),
                             default=-1)
        assert last_irregular < len(gaps) - 100  # a substantial periodic tail
        assert all(g == 20000 for g in gaps[last_irregular + 1:])

        # over that tail the delay is constant, so delay variation vanishes
        tail = StreamTrace(result.shaped.packets[last_irregular + 2:])
        _, tail_stats = pdv(tail)
        assert tail_stats["max"] == 0

        _, jitter_in = interarrival_jitter(recv)
        _, jitter_out = interarrival_jitter(result.shaped)
        assert jitter_out <= jitter_in / 100

        assert time.perf_counter() - t0 < 1.0


def test_2_video_token_bucket_rate_bound(announce):
    with announce(2, "video token bucket"):
        duration_us = 60_000_000
        sent = generate_video(VideoGenConfig(fps=25, gop=12), duration_us, seed=7)
        recv = apply_channel(sent, ChannelModel(jitter=UniformJitter(0, 15000),
                                                seed=2))
        total_bytes = sum(p.size_bytes for p in recv.packets)
        frames = len({p.send_ts_us for p in recv.packets})
        mean_rate = Fraction(total_bytes * 10**6, duration_us)  # bytes per second
        cfg = TokenBucketConfig(rate=mean_rate * Fraction(11, 10),
                                capacity_tokens=-(-2 * total_bytes // frames))
        result = token_bucket_shape(recv, cfg)
        assert result.dropped == ()

        # over every departure interval [i, j]: bytes <= capacity + ceil(rate*dt),
        # checked exactly for all O(n^2) pairs via a suffix-maximum rewrite
        num = cfg.rate.numerator
        den_us = cfg.rate.denominator * 10**6
        ts = [p.recv_ts_us for p in result.shaped.packets]
        pre = [0]
        for p in result.shaped.packets:
            pre.append(pre[-1] + p.size_bytes)
        # violation on (i, j) iff (pre[j+1] - pre[i] - cap - 1) * den >= dt * num,
        # i.e. A[j] >= B[i] with the terms split per endpoint
        a = [pre[j + 1] * den_us - ts[j] * num for j in range(len(ts))]
        suffix_max = list(a)
        for j in range(len(ts) - 2, -1, -1):
            if suffix_max[j + 1] > suffix_max[j]:
                suffix_max[j] = suffix_max[j + 1]
        for i in range(len(ts)):
            b = (pre[i] + cfg.capacity_tokens + 1) * den_us - ts[i] * num
            assert suffix_max[i] < b, f"rate bound violated from departure {i}"

        # the queue empties by the end of the run
        assert result.occupancy[-1].queued_bytes == 0

        # no packet waits longer than the network-calculus delay bound,
        # ceil((b_in(r) - start_tokens) / r). The bucket holds fewer tokens
        # than the largest I-frame, so that frame must wait and shaped PDV
        # may exceed the input's; it exceeds it by at most the bound.
        bound = token_delay_bound_us(recv, cfg)
        added = [d.recv_ts_us - a.recv_ts_us
                 for a, d in zip(recv.packets, result.shaped.packets)]
        assert max(added) <= bound

        _, in_stats = pdv(recv)
        _, out_stats = pdv(result.shaped)
        assert out_stats["max"] <= in_stats["max"] + bound


def test_3_shapers_match_microsecond_oracles(announce):
    with announce(3, "oracle equivalence on 500 random traces"):
        rng = random.Random(2024)
        t0 = time.perf_counter()
        for i in range(500):
            trace = random_received_trace(rng, max_packets=200)
            if i % 2 == 0:
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
        assert time.perf_counter() - t0 < 30.0


def test_4_metric_hand_examples(announce):
    with announce(4, "metric hand-computed examples"):
        # smoothed interarrival jitter recurrence, applied by hand:
        # sends 0/20000/40000, receives 0/25000/45000
        trace = StreamTrace(tuple(
            MediaPacket(k, 1, 0, False, s, r, 125)
            for k, (s, r) in enumerate([(0, 0), (20000, 25000), (40000, 45000)])
        ))
        series, final = interarrival_jitter(trace)
        assert [j for _, j in series] == [Fraction("312.5"), Fraction("292.96875")]
        assert final == Fraction("292.96875")

        # constant delay: zero jitter and zero delay variation
        flat = StreamTrace(tuple(
            MediaPacket(k, 1, 0, False, 20000 * k, 20000 * k + 700, 125)
            for k in range(20)
        ))
        _, flat_final = interarrival_jitter(flat)
        values, stats = pdv(flat)
        assert flat_final == 0
        assert stats["max"] == 0 and set(values) == {0}

        # loss across the 16-bit wrap: 65534, 65535, 0, 3 received means the
        # range spans 6 sequence numbers and 2 of them never arrived
        from rtpshape import loss
        wrapped = StreamTrace(tuple(
            MediaPacket(s, 1, 0, False, 10 * i, 10 * i, 125)
            for i, s in enumerate([65534, 65535, 0, 3])
        ))
        count, rate, dups = loss(wrapped)
        assert (count, rate, dups) == (2, Fraction(2, 6), 0)


AUDIO_RUN_CONFIG = """\
generator.kind = audio
generator.ptime_us = 20000
generator.payload_bytes = 125
generator.duration_us = 10000000
channel.jitter = uniform(0,15000)
channel.seed = 42
pipeline.0.type = leaky
pipeline.0.capacity_packets = 15
pipeline.0.drain_interval_us = 20000
"""

VIDEO_RUN_CONFIG = """\
generator.kind = video
generator.duration_us = 10000000
generator.seed = 5
channel.jitter = uniform(0,15000)
channel.seed = 43
pipeline.0.type = token
pipeline.0.rate = 80000
pipeline.0.capacity_tokens = 20000
"""


def _csv_rows(path):
    return len(path.read_text().splitlines()) - 1  # minus header


def _panel_rows(panels_csv_path, title):
    lines = panels_csv_path.read_text().splitlines()[1:]
    return sum(1 for line in lines if line.startswith(title + ","))


def test_5_figure_panels(announce, tmp_path):
    with announce(5, "figure panel structure"):
        audio_cfg = tmp_path / "audio.cfg"
        audio_cfg.write_text(AUDIO_RUN_CONFIG)
        out = tmp_path / "audio-run"
        assert main(["run", "--config", str(audio_cfg), "--output", str(out)]) == 0

        svg = (out / "stage0.figure.svg").read_text()
        assert svg.count('<g class="panel"') == 3
        n_in = _csv_rows(out / "stage0.input.csv")
        n_shaped = _csv_rows(out / "stage0.shaped.csv")
        n_events = _csv_rows(out / "stage0.occupancy.csv")
        assert svg.count("<circle") == n_in + n_shaped
        panels = out / "stage0.figure.panels.csv"
        assert _panel_rows(panels, "incoming traffic") == n_in
        assert _panel_rows(panels, "shaped traffic") == n_shaped
        assert _panel_rows(panels, "bucket content (packets)") == n_events

        video_cfg = tmp_path / "video.cfg"
        video_cfg.write_text(VIDEO_RUN_CONFIG)
        out = tmp_path / "video-run"
        assert main(["run", "--config", str(video_cfg), "--output", str(out)]) == 0

        svg = (out / "stage0.figure.svg").read_text()
        assert svg.count('<g class="panel"') == 4
        assert "tokens available" in svg
        n_in = _csv_rows(out / "stage0.input.csv")
        n_shaped = _csv_rows(out / "stage0.shaped.csv")
        n_events = _csv_rows(out / "stage0.occupancy.csv")
        assert svg.count("<circle") == n_in + n_shaped
        panels = out / "stage0.figure.panels.csv"
        assert _panel_rows(panels, "packet queue (bytes)") == n_events
        assert _panel_rows(panels, "tokens available") == n_events


def _random_trace_for_csv(rng):
    n = rng.randint(1, 60)
    received = rng.random() < 0.5
    ssrc = rng.randrange(2**32)
    pt = rng.randrange(128)
    start_seq = rng.randrange(2**16)
    packets = []
    send = 0
    recv_floor = 0
    for k in range(n):
        send += rng.randint(0, 5000)
        recv = None
        if received:
            recv = max(recv_floor, send + rng.randint(0, 3000))
            recv_floor = recv
        packets.append(MediaPacket((start_seq + k) % 2**16, ssrc, pt,
                                   rng.random() < 0.2, send, recv,
                                   rng.randint(1, 2000)))
    return StreamTrace(tuple(packets))


def test_6_round_trips_and_robustness(announce):
    with announce(6, "round trips and hostile input"):
        rng = random.Random(606)
        for _ in range(100):
            trace = _random_trace_for_csv(rng)
            assert read_trace_csv(write_trace_csv(trace)) == trace

        # a hand-assembled capture of one 125-byte RTP packet
        frame = udp_frame(rtp_payload(ssrc=0xDEADBEEF, seq=7, media_len=125))
        traces = import_pcap(build_pcap([(1_500_000, frame)]))
        assert len(traces) == 1 and len(traces[0]) == 1
        p = traces[0].packets[0]
        assert (p.ssrc, p.seq, p.size_bytes) == (0xDEADBEEF, 7, 125)
        assert p.send_ts_us == p.recv_ts_us == 0

        # the importer must fail typed, never crash, on arbitrary bytes
        fuzz = random.Random(99)
        for _ in range(10_000):
            blob = fuzz.randbytes(fuzz.randint(0, 200))
            if fuzz.random() < 0.3:  # steer some inputs past the magic check
                blob = b"\xa1\xb2\xc3\xd4" + blob
            try:
                result = import_pcap(blob)
            except PcapError:
                continue
            assert isinstance(result, list)


def test_7_determinism_and_scale(announce, tmp_path):
    with announce(7, "determinism and 1e6-packet scale"):
        cfg = tmp_path / "audio.cfg"
        cfg.write_text(AUDIO_RUN_CONFIG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--output", str(a)]) == 0
        assert main(["run", "--config", str(cfg), "--output", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        assert names  # the run produced files at all
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

        sent = generate_audio(AudioGenConfig(ptime_us=1000), 10**9)
        recv = apply_channel(sent, ChannelModel(jitter=UniformJitter(0, 300),
                                                seed=4))
        assert len(recv) == 10**6
        cfg = LeakyBucketConfig(capacity_packets=50, drain_interval_us=900)
        best = float("inf")
        for _ in range(3):  # best of 3 to ride out scheduling noise
            t0 = time.perf_counter()
            result = leaky_bucket_shape(recv, cfg)
            best = min(best, time.perf_counter() - t0)
        assert len(result.shaped) == 10**6
        assert best < 5.0
