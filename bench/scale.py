"""Scale bench: the wall time and peak memory of each rtpshape layer at
3k, 30k and 300k packets, and of `rtpshape run` end to end on the scale
scenario. Standard library only; not part of the tests or of perfbench.

    python3 bench/scale.py --out BENCH_<n>.json

The scenario is audio at 1 ms ptime, `uniform(0,300)` jitter, 1/100 loss and
seed 1, then a leaky stage (50 packets, 900 us drain) and a token stage
(140000 B/s, 2000 tokens). At 300 s it has 297,037 received packets.
The `generate_video` and `channel_video` rows time the same duration of
30 fps video (60 kB I-frames every 30 frames, 15 kB P-frames) through a
40 ms + `exponential(4000)` channel at 1/200 loss, seed 1: the path of
perfbench's `shape_hd_video`. At 300 s that is 128,222 sent and 127,569
received packets.
The `import_pcap` row reads a little-endian classic capture of the scale
scenario's received trace, built with `struct` before the timing: one
Ethernet/IPv4/UDP/RTP frame a packet, stamped with its arrival time, every
other one with a one-word RTP header extension so both header paths are
timed, and a non-RTP UDP frame after every 10th packet. Each RTP record is cut
just past its RTP header, as a header-only snaplen would cut it, so the
importer sizes the media from the UDP length; at 300 s the capture is about
25 MB. Its `n` is the number of frames.

Each layer runs on the previous layer's output at the same size. `best_s`
is the best of REPEAT perf_counter timings; `peak_bytes` is
tracemalloc's peak above what was allocated before the call, and
`held_bytes` what is still allocated when it returns (what its result
keeps), both taken in one more call. `held_bytes` is read after a
`gc.collect()`, which empties CPython's free lists, so the objects a layer
freed onto them do not count as held; files before BENCH_25.json counted
them, and their `held_bytes` is not comparable. A layer's `n` is the
packet count of its input (for `generate`, of its output). The end-to-end
row runs `python -m rtpshape.cli run` in a child process, E2E_REPEAT
times: `best_s` is the best wall time, `peak_rss_mib` the child's largest peak RSS
(`os.wait4`), and `run_dir_sha256` a digest of every file the run wrote, so
two trees' run directories can be compared. The child keeps its bytecode
under a PYTHONPYCACHEPREFIX in its temporary directory, so no `__pycache__`
in the checkout, however stale, is read. The end-to-end
rows run before the layers: on Linux a child's peak RSS starts from the peak
RSS of the process that spawned it, and the 300k-packet layers take this
one's to 640-660 MiB, above what `rtpshape run` itself reaches.

`commit` is `git rev-parse HEAD`, with `+dirty` when `src/` differs from
it; a run made before committing therefore names the parent commit. Where
git finds no checkout, as in a `git archive` copy (how a tree is compared
with its parent), it is the hash `git archive` writes into `bench/COMMIT`
(`export-subst` in `.gitattributes`), or `unknown` while that file still
holds its placeholder.
`src_sha256` is a digest of every file under `src/rtpshape/`, and so
names the measured source itself.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import struct
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

from rtpshape import metrics, model, pcap, reporting, shaping, traffic  # noqa: E402

SIZES = (3000, 30000, 300000)  # sent packets per layer row
REPEAT = 3
E2E_REPEAT = 2
PTIME_US = 1000
WINDOW_US = 10**6
CHANNEL = traffic.ChannelModel(jitter=traffic.UniformJitter(0, 300),
                               loss_prob=Fraction(1, 100), seed=1)
LEAKY = shaping.LeakyBucketConfig(capacity_packets=50, drain_interval_us=900)
TOKEN = shaping.TokenBucketConfig(rate=Fraction(140000), capacity_tokens=2000)
VIDEO = traffic.VideoGenConfig(fps=30, gop=30, i_frame_bytes=60_000, p_frame_bytes=15_000,
                               mtu_payload_bytes=1200)
VIDEO_CHANNEL = traffic.ChannelModel(base_delay_us=40_000, jitter=traffic.ExponentialJitter(4000),
                                     loss_prob=Fraction(1, 200), seed=1)

PCAP_HEADER = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)  # link type Ethernet
RECORD = struct.Struct("<IIII")  # ts_sec, ts_usec, incl_len, orig_len
# Ethernet type; IPv4 version/IHL, total length, TTL, protocol; UDP ports, length
ETH_IPV4_UDP = struct.Struct(">12xHBxH4xBB10xHHHxx")
RTP = struct.Struct(">BBHxxxxI")  # b0, b1 (marker, payload type), seq, ssrc
EXTENSION = b"\xbe\xde\x00\x01" + bytes(4)  # a one-word header extension

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
    """(result, best wall seconds, tracemalloc peak bytes, tracemalloc bytes
    held by the result) of fn(*args)."""
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
        del result
    # gc callbacks run inside the collect below, and what they keep (a test
    # framework's collection timer, say) is not held by the result
    callbacks = gc.callbacks[:]
    gc.callbacks.clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        gc.collect()  # empties the free lists, whose objects the result does not hold
        # read into plain names: a generator expression's function would be
        # made before the reading, and counted as held
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.callbacks[:0] = callbacks
    return result, best, peak - base, held - base


def udp_frame(sport: int, dport: int, payload_len: int) -> bytes:
    """Ethernet, IPv4 and UDP headers for a UDP payload of `payload_len` bytes."""
    return ETH_IPV4_UDP.pack(0x0800, 0x45, 28 + payload_len, 64, 17, sport, dport,
                             8 + payload_len)


def pcap_capture(trace: model.StreamTrace) -> bytes:
    """A classic pcap of `trace` as received; see the module docstring."""
    noise_payload = b"\x12\x34" + bytes(10)  # version bits 0: not RTP
    noise = udp_frame(5353, 53, len(noise_payload)) + noise_payload
    records = [PCAP_HEADER]
    for k, (seq, ssrc, pt, marker, ts, size) in enumerate(zip(
            trace.seq, trace.ssrc, trace.payload_type, trace.marker, trace.recv_ts_us,
            trace.size_bytes)):
        extended = k % 2
        header = RTP.pack(0x90 if extended else 0x80, marker << 7 | pt, seq, ssrc)
        header += EXTENSION if extended else b""
        frame = udp_frame(5004, 5004, len(header) + size) + header
        records.append(RECORD.pack(ts // 10**6, ts % 10**6, len(frame), len(frame) + size))
        records.append(frame)
        if k % 10 == 9:
            records.append(RECORD.pack(ts // 10**6, ts % 10**6, len(noise), len(noise)))
            records.append(noise)
    return b"".join(records)


def layers_at(size: int) -> dict:
    """Every layer on the scale scenario cut to `size` sent packets."""
    out = {}

    def run(name, n, fn, *args):
        result, best, peak, held = measure(fn, args)
        out[f"{name}@{size}"] = {"n": n, "best_s": round(best, 6), "peak_bytes": peak,
                                 "held_bytes": held}
        return result

    sent = run("generate", size, traffic.generate_audio,
               traffic.AudioGenConfig(ptime_us=PTIME_US), size * PTIME_US)
    trace = run("channel", len(sent), traffic.apply_channel, sent, CHANNEL)
    capture = pcap_capture(trace)
    run("import_pcap", len(trace) + len(trace) // 10, pcap.import_pcap, capture)
    del capture
    video = traffic.generate_video(VIDEO, size * PTIME_US, 1)
    run("generate_video", len(video), traffic.generate_video, VIDEO, size * PTIME_US, 1)
    run("channel_video", len(video), traffic.apply_channel, video, VIDEO_CHANNEL)
    del video
    run("validate_trace", len(trace), model.validate_trace, trace)
    leaky = run("leaky", len(trace), shaping.leaky_bucket_shape, trace, LEAKY)
    token = run("token", len(leaky.shaped), shaping.token_bucket_shape, leaky.shaped, TOKEN)
    csv = run("write_trace_csv", len(trace), model.write_trace_csv, trace)
    run("read_trace_csv", len(trace), model.read_trace_csv, csv)
    run("occupancy_csv", len(token.samples.ts_us), reporting.occupancy_csv, token)
    panel = run("panel_report", len(leaky.shaped), reporting.panel_report,
                leaky.shaped, token, TOKEN)
    run("render_svg", len(leaky.shaped), reporting.render_svg, panel)
    run("panels_csv", len(leaky.shaped), reporting.panels_csv, panel)
    report = run("metrics_report", len(trace), metrics.metrics_report, trace, WINDOW_US)
    run("jitter_csv", len(trace), reporting.jitter_csv, report)
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
    best, rss_kib, digests = float("inf"), 0, set()
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   PYTHONPYCACHEPREFIX=str(Path(tmp) / "pycache"))
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
        try:
            archived = (ROOT / "bench" / "COMMIT").read_text(encoding="ascii").strip()
        except OSError:
            return "unknown"
        return "unknown" if archived.startswith("$Format") else archived


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
