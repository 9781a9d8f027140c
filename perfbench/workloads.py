"""The three benchmark workloads.

Each workload builds its inputs from the seed, runs one op (the timed unit of
end-to-end work) and then checks the op's outputs without calling rtpshape,
so a traced run records spans of ops only. ``op(out, step)`` returns the
op's result; it calls ``step()`` where one step ends and the next begins, so
the benchmark can calibrate the steps one by one. Library calls go through
module attributes (``rtpshape.traffic.generate_video``) so that the tracer's
wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import rtpshape.cli
import rtpshape.metrics
import rtpshape.model
import rtpshape.pcap
import rtpshape.reporting
import rtpshape.shaping
import rtpshape.traffic

from capture import build_capture

DEFAULT_SEED = 42

# The README scenario; `rtpshape run --seed` replaces channel.seed.
README_SCENARIO = """\
generator.kind = audio
generator.ptime_us = 20000
generator.payload_bytes = 125
generator.duration_us = 60000000
channel.jitter = uniform(0,15000)
channel.loss_prob = 1/100
channel.seed = 42
pipeline.0.type = leaky
pipeline.0.capacity_packets = 15
pipeline.0.drain_interval_us = 20000
"""


class Outcome(NamedTuple):
    packets: int                # input packets (or capture frames) of the op
    problems: list[str]         # empty when every output check passed
    counters: dict[str, float]  # per-op counts measured on the outputs


def sha256_files(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def stage_problems(stage: int, incoming, shaped, drops) -> list[str]:
    """Per-stage invariants of a FIFO shaper, on rows of
    (seq, ssrc, send_ts, arrival or departure, size) and drops (seq, ssrc, ts):
    packets in equal shaped plus dropped, departures keep arrival order, never
    precede their arrival and never decrease."""
    if len(incoming) != len(shaped) + len(drops):
        return [f"stage {stage}: {len(incoming)} in != {len(shaped)} shaped "
                f"+ {len(drops)} dropped"]
    d = s = 0
    last = None
    for seq, ssrc, send, arrival, size in incoming:
        if d < len(drops) and drops[d] == (seq, ssrc, arrival):
            d += 1
            continue
        if s == len(shaped):
            return [f"stage {stage}: fewer departures than surviving packets"]
        o_seq, o_ssrc, o_send, departure, o_size = shaped[s]
        s += 1
        if (o_seq, o_ssrc, o_send, o_size) != (seq, ssrc, send, size):
            return [f"stage {stage}: departure {s - 1} is not the next surviving arrival"]
        if departure < arrival:
            return [f"stage {stage}: seq {seq} departs at {departure} before "
                    f"it arrives at {arrival}"]
        if last is not None and departure < last:
            return [f"stage {stage}: departures decrease at seq {seq}"]
        last = departure
    if d != len(drops):
        return [f"stage {stage}: {len(drops) - d} drops match no arrival"]
    return []


def _csv_rows(path: Path, columns) -> list[tuple]:
    lines = path.read_text(encoding="ascii").splitlines()[1:]
    return [tuple(int(f[c]) for c in columns) for f in (line.split(",") for line in lines)]


def _packet_rows(trace) -> list[tuple]:
    return [(p[0], p[1], p[4], p[5], p[6]) for p in trace.packets]


class RunAudioLeaky:
    """`rtpshape run` on the README scenario, in process, with --seed."""

    name = "run_audio_leaky"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.config = workdir / "readme.cfg"
        self.config.write_text(README_SCENARIO, encoding="ascii")

    def op(self, out: Path, step):
        argv = ["run", "--config", str(self.config), "--output", str(out),
                "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = rtpshape.cli.main(argv)
        return code

    def check(self, code, out: Path) -> Outcome:
        if code != 0:
            return Outcome(0, [f"rtpshape run exited with {code}"], {})
        trace_cols = (0, 1, 4, 5, 6)
        incoming = _csv_rows(out / "stage0.input.csv", trace_cols)
        problems = stage_problems(0, incoming,
                                  _csv_rows(out / "stage0.shaped.csv", trace_cols),
                                  _csv_rows(out / "stage0.drops.csv", (0, 1, 2)))
        if (out / "input.csv").read_bytes() != (out / "stage0.input.csv").read_bytes():
            problems.append("input.csv differs from stage0.input.csv")
        written = sum(p.stat().st_size for p in out.iterdir())
        return Outcome(len(incoming), problems, {"cli.bytes_written": written})

    def digests(self, result, out: Path) -> dict[str, str]:
        return sha256_files(out)


VIDEO = rtpshape.traffic.VideoGenConfig(fps=30, gop=30, i_frame_bytes=60_000,
                                        p_frame_bytes=15_000, mtu_payload_bytes=1200)
VIDEO_DURATION_US = 300_000_000
VIDEO_CHANNEL = rtpshape.traffic.ChannelModel(
    base_delay_us=40_000, jitter=rtpshape.traffic.ExponentialJitter(4000),
    loss_prob=Fraction(1, 200))
# Sized so that each drop reason hits a few percent of packets.
VIDEO_STAGES = (
    rtpshape.shaping.LeakyBucketConfig(capacity_packets=32, drain_interval_us=2100),
    rtpshape.shaping.TokenBucketConfig(rate=Fraction(465_000), capacity_tokens=4000,
                                       queue_limit_bytes=30_000),
)


class ShapeHdVideo:
    """Everything `run` does apart from metrics, through the library, on
    300 s of 30 fps video (the 16-bit sequence number wraps once)."""

    name = "shape_hd_video"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def op(self, out: Path, step):
        sent = rtpshape.traffic.generate_video(VIDEO, VIDEO_DURATION_US, self.seed)
        trace = rtpshape.traffic.apply_channel(sent, replace(VIDEO_CHANNEL, seed=self.seed))
        step()
        _, results = rtpshape.shaping.run_pipeline(list(VIDEO_STAGES), trace)
        current = trace
        for k, (cfg, result) in enumerate(zip(VIDEO_STAGES, results)):
            step()
            base = f"stage{k}."
            (out / (base + "input.csv")).write_bytes(rtpshape.model.write_trace_csv(current))
            (out / (base + "shaped.csv")).write_bytes(
                rtpshape.model.write_trace_csv(result.shaped))
            (out / (base + "drops.csv")).write_bytes(
                rtpshape.reporting.drops_csv(result).encode("ascii"))
            (out / (base + "occupancy.csv")).write_bytes(
                rtpshape.reporting.occupancy_csv(result).encode("ascii"))
            panel = rtpshape.reporting.panel_report(current, result, cfg)
            (out / (base + "figure.svg")).write_bytes(
                rtpshape.reporting.render_svg(panel).encode("ascii"))
            current = result.shaped
        return trace, results

    def check(self, result, out: Path) -> Outcome:
        trace, results = result
        problems = []
        incoming = trace
        for k, stage in enumerate(results):
            drops = [(p.seq, p.ssrc, p.recv_ts_us) for p, _ in stage.dropped]
            problems += stage_problems(k, _packet_rows(incoming),
                                       _packet_rows(stage.shaped), drops)
            incoming = stage.shaped
        return Outcome(len(trace), problems, {})

    def digests(self, result, out: Path) -> dict[str, str]:
        return sha256_files(out)


PCAP_WINDOW_US = 10**6


class PcapConference:
    """import_pcap of a seeded 16-stream conference capture, then
    metrics_report per stream."""

    name = "pcap_conference"

    def __init__(self, seed: int, workdir: Path):
        path = workdir / f"capture-{seed}.pcap"
        self.capture = build_capture(seed, path)
        self.data = path.read_bytes()
        path.unlink()

    def op(self, out: Path, step):
        traces = rtpshape.pcap.import_pcap(self.data)
        step()
        return [(t, rtpshape.metrics.metrics_report(t, PCAP_WINDOW_US)) for t in traces]

    def check(self, result, out: Path) -> Outcome:
        cap = self.capture
        problems = []
        seen = {t.packets[0].ssrc for t, _ in result}
        if seen != set(cap.kept):
            problems.append(f"imported {len(seen)} streams, the capture holds {len(cap.kept)}")
        for trace, report in result:
            ssrc = trace.packets[0].ssrc
            got = (len(trace), report.total_packets, report.loss_count,
                   report.duplicate_count)
            want = (cap.kept.get(ssrc), cap.kept.get(ssrc), cap.lost_inside.get(ssrc), 0)
            if got != want:
                problems.append(f"ssrc {ssrc:08x}: (packets, reported packets, lost, "
                                f"duplicates) = {got}, generator kept {want}")
        return Outcome(cap.frames, problems, {})

    def digests(self, result, out: Path) -> dict[str, str]:
        files = {"capture.pcap": self.data}
        for trace, report in result:
            name = f"stream-{trace.packets[0].ssrc:08x}.summary.csv"
            files[name] = rtpshape.reporting.summary_csv(report).encode("ascii")
        return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(files.items())}


WORKLOADS = {w.name: w for w in (RunAudioLeaky, ShapeHdVideo, PcapConference)}
