"""Seeded classic-format pcap of a 16-party conference, built with struct.

12 audio streams (20 ms, 160 B) and 4 video streams (10 ms, 600-1200 B)
interleave over 120 s. Each RTP packet is lost with probability 1/200 and
captured up to 8 ms late. About a tenth of the frames are noise the importer
must skip: DNS-like UDP whose first byte cannot read as RTP version 2, TCP,
and frames that are not IPv4.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from pathlib import Path

DURATION_US = 120_000_000
AUDIO_STREAMS = 12
VIDEO_STREAMS = 4
AUDIO_PTIME_US = 20_000
AUDIO_BYTES = 160
VIDEO_PTIME_US = 10_000
VIDEO_BYTES = (600, 1200)
LOSS_PROB = 1 / 200
WOBBLE_US = 8000
NOISE_SHARE = 0.10
EPOCH_US = 1_700_000_000 * 10**6

_ETH_IPV4 = bytes(12) + b"\x08\x00"
_ETH_IPV6 = bytes(12) + b"\x86\xdd"
_ETH_ARP = bytes(12) + b"\x08\x06"


@dataclass(frozen=True)
class Capture:
    frames: int
    kept: dict[int, int]          # ssrc -> RTP packets written
    lost_inside: dict[int, int]   # ssrc -> packets lost between its first and last kept


def _ipv4(proto: int, body: bytes) -> bytes:
    return _ETH_IPV4 + struct.pack(">BBHHHBBH4s4s", 0x45, 0, 20 + len(body), 0, 0,
                                   64, proto, 0, b"\x0a\x00\x00\x01",
                                   b"\x0a\x00\x00\x02") + body


def _udp(sport: int, dport: int, payload: bytes) -> bytes:
    return _ipv4(17, struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload)


def _noise(rng: random.Random, kind: int) -> bytes:
    if kind == 0:  # DNS-like query: id's top bits are never RTP version 2
        header = struct.pack(">HHHHHH", rng.randrange(0x8000), 0x0100, 1, 0, 0, 0)
        return _udp(rng.randrange(1024, 65536), 53, header + bytes(rng.randint(12, 48)))
    if kind == 1:  # TCP segment
        tcp = struct.pack(">HHIIBBHHH", 443, rng.randrange(1024, 65536),
                          rng.getrandbits(32), rng.getrandbits(32), 0x50, 0x18,
                          65535, 0, 0)
        return _ipv4(6, tcp + bytes(rng.randint(0, 400)))
    if kind == 2:  # IPv6
        return _ETH_IPV6 + bytes(40 + rng.randint(8, 200))
    return _ETH_ARP + bytes(28)


def build_capture(seed: int, path: Path) -> Capture:
    """Write the capture to ``path``; the same seed gives the same bytes.

    RTP frames are built only while writing, in timestamp order, so the
    builder never holds the whole capture in memory: the peak RSS the
    benchmark reports is then the op's, not the builder's.
    """
    rng = random.Random(seed)
    ssrcs = rng.sample(range(1, 2**32), AUDIO_STREAMS + VIDEO_STREAMS)
    # (ts, frame) for noise, (ts, (port, marker | pt, seq, rtp_ts, ssrc, media)) for RTP
    records: list[tuple[int, object]] = []
    kept: dict[int, int] = {}
    lost_inside: dict[int, int] = {}
    for i, ssrc in enumerate(ssrcs):
        audio = i < AUDIO_STREAMS
        ptime = AUDIO_PTIME_US if audio else VIDEO_PTIME_US
        pt = 0 if audio else 96
        port = 5004 + 2 * i
        seq0 = rng.randrange(1 << 16)
        offset = rng.randrange(ptime)
        lost_at: list[int] = []
        kept_at: list[int] = []
        for k in range(DURATION_US // ptime):
            if rng.random() < LOSS_PROB:
                lost_at.append(k)
                continue
            kept_at.append(k)
            ts = EPOCH_US + offset + k * ptime + rng.randint(0, WOBBLE_US)
            media = AUDIO_BYTES if audio else rng.randint(*VIDEO_BYTES)
            marker = 0 if audio else 0x80 * (rng.random() < 0.25)
            records.append((ts, (port, marker | pt, (seq0 + k) & 0xFFFF,
                                 k * ptime // 125, ssrc, media)))
        kept[ssrc] = len(kept_at)
        lost_inside[ssrc] = sum(1 for k in lost_at if kept_at[0] < k < kept_at[-1])

    noise = round(len(records) * NOISE_SHARE / (1 - NOISE_SHARE))
    for j in range(noise):
        records.append((EPOCH_US + rng.randrange(DURATION_US), _noise(rng, j % 4)))
    records.sort(key=lambda r: r[0])

    with open(path, "wb") as out:
        out.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        for ts, spec in records:
            if isinstance(spec, bytes):
                frame = spec
            else:
                port, b1, seq, rtp_ts, ssrc, media = spec
                frame = _udp(port, port, struct.pack(">BBHII", 0x80, b1, seq, rtp_ts, ssrc)
                             + bytes(media))
            out.write(struct.pack(">IIII", ts // 10**6, ts % 10**6, len(frame), len(frame)))
            out.write(frame)
    return Capture(len(records), kept, lost_inside)
