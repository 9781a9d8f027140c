"""Synthetic sender traces (CBR audio, GOP-structured video) and a seeded
channel impairment model (base delay, jitter, independent loss)."""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice
from typing import Union

from .model import (_RULES, SEQ_MOD, TS_MAX, US_PER_S, StreamTrace, TraceValidationError,
                    Violation, _show)

_ARRIVAL_PAST_TS_MAX = _RULES[-1][4]  # the recv_ts_us rule's message above its bounds


class GenerationError(ValueError):
    """Requested duration cannot hold a single packet/frame, or ends past TS_MAX."""


@dataclass(frozen=True)
class AudioGenConfig:
    """Constant-bitrate audio: fixed-size packets at a fixed interval."""

    ptime_us: int = 20000
    payload_bytes: int = 125
    ssrc: int = 0x000A0D10
    payload_type: int = 0

    def __post_init__(self) -> None:
        if self.ptime_us < 1000:
            raise ValueError("ptime_us must be >= 1000")
        if not 1 <= self.payload_bytes <= TS_MAX:
            raise ValueError(f"payload_bytes must lie in [1, {TS_MAX}]")
        if not 0 <= self.ssrc < 2**32:
            raise ValueError("ssrc outside 32-bit range")
        if not 0 <= self.payload_type < 128:
            raise ValueError("payload_type outside 7-bit range")


@dataclass(frozen=True)
class VideoGenConfig:
    """Two-size GOP approximation of an H.264-style stream: large I-frames
    every `gop` frames, small P-frames between, fragmented to MTU size."""

    fps: int = 25
    gop: int = 12
    i_frame_bytes: int = 8000
    p_frame_bytes: int = 1500
    size_jitter_pct: int = 20
    mtu_payload_bytes: int = 1200
    ssrc: int = 0x000F1DE0
    payload_type: int = 96

    def __post_init__(self) -> None:
        if self.fps < 1 or self.gop < 1:
            raise ValueError("fps and gop must be >= 1")
        if not 64 <= self.mtu_payload_bytes <= TS_MAX:
            raise ValueError(f"mtu_payload_bytes must lie in [64, {TS_MAX}]")
        if not 1 <= self.p_frame_bytes <= self.i_frame_bytes <= TS_MAX:
            raise ValueError(f"need 1 <= p_frame_bytes <= i_frame_bytes <= {TS_MAX}")
        if not 0 <= self.size_jitter_pct <= 100:
            raise ValueError("size_jitter_pct must lie in [0, 100]")
        if not 0 <= self.ssrc < 2**32:
            raise ValueError("ssrc outside 32-bit range")
        if not 0 <= self.payload_type < 128:
            raise ValueError("payload_type outside 7-bit range")


# Each jitter model draws its delay from one 64-bit word.
@dataclass(frozen=True)
class NoJitter:
    def draw(self, word: int) -> int:
        return 0


@dataclass(frozen=True)
class UniformJitter:
    lo_us: int
    hi_us: int

    def __post_init__(self) -> None:
        if not 0 <= self.lo_us <= self.hi_us:
            raise ValueError("need 0 <= lo_us <= hi_us")

    def draw(self, word: int) -> int:
        return self.lo_us + word % (self.hi_us - self.lo_us + 1)


@dataclass(frozen=True)
class ExponentialJitter:
    mean_us: int

    def __post_init__(self) -> None:
        if self.mean_us < 0:
            raise ValueError("mean_us must be >= 0")

    def draw(self, word: int) -> int:
        u = (word >> 11) * 2.0**-53  # 53-bit uniform in [0, 1)
        log = math.log1p(-u)
        try:
            return max(0, round(-self.mean_us * log))
        except OverflowError:  # a mean or a draw past float range, taken exactly
            return max(0, round(-self.mean_us * Fraction(log)))


JitterModel = Union[NoJitter, UniformJitter, ExponentialJitter]


@dataclass(frozen=True)
class ChannelModel:
    """Additive delay plus independent per-packet loss, fully determined by
    the seed (counter-based draws, one splitmix64 stream per packet index)."""

    base_delay_us: int = 0
    jitter: JitterModel = NoJitter()
    loss_prob: Fraction = Fraction(0)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "loss_prob", Fraction(self.loss_prob))
        if self.base_delay_us < 0:
            raise ValueError("base_delay_us must be >= 0")
        if not 0 <= self.loss_prob < 1:
            raise ValueError("loss_prob must lie in [0, 1)")


def _sent(cfg, marker: array, send: array, size: array) -> StreamTrace:
    """A sender's trace: seqs from 0 (wrapping at 2^16), one SSRC and payload
    type, and no arrivals (so the recv_ts_us column is the send column)."""
    n = len(send)
    return StreamTrace._of(array("q", islice(cycle(range(SEQ_MOD)), n)),
                           array("q", [cfg.ssrc]) * n, array("q", [cfg.payload_type]) * n,
                           marker, send, send, size, array("q", range(n)))


def generate_audio(cfg: AudioGenConfig, duration_us: int) -> StreamTrace:
    """Packets at 0, ptime, 2*ptime, ... < duration; seq wraps at 2^16."""
    if not cfg.ptime_us <= duration_us <= TS_MAX:
        raise GenerationError(f"duration_us must lie in [ptime_us, {TS_MAX}]")
    count = -(-duration_us // cfg.ptime_us)  # packets with k*ptime < duration
    send = array("q", range(0, count * cfg.ptime_us, cfg.ptime_us))
    return _sent(cfg, array("q", [0]) * count, send, array("q", [cfg.payload_bytes]) * count)


def generate_video(cfg: VideoGenConfig, duration_us: int, seed: int) -> StreamTrace:
    """Frame k at floor(k*10^6/fps); I-frame when k % gop == 0; frame sizes
    jittered by a seeded uniform factor, then fragmented to the MTU with all
    fragments sharing the frame send time and marker on the last."""
    if duration_us * cfg.fps < US_PER_S or duration_us > TS_MAX:
        raise GenerationError(f"duration_us must hold one frame interval and be <= {TS_MAX}")
    rng = random.Random(seed)
    marker, send, size = array("q"), array("q"), array("q")
    for k in range(-(-duration_us * cfg.fps // US_PER_S)):  # frames with k*10^6/fps < duration
        ts = (k * US_PER_S) // cfg.fps
        mean = cfg.i_frame_bytes if k % cfg.gop == 0 else cfg.p_frame_bytes
        u = rng.uniform(-cfg.size_jitter_pct / 100, cfg.size_jitter_pct / 100)
        remaining = max(1, round(mean * (1 + u)))
        while remaining > 0:
            frag = min(cfg.mtu_payload_bytes, remaining)
            remaining -= frag
            marker.append(remaining == 0)
            send.append(ts)
            size.append(frag)
    return _sent(cfg, marker, send, size)


_SM64_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _mix(state: int) -> int:
    """splitmix64's output for one state of its stream."""
    z = (state ^ (state >> 30)) * 0xBF58476D1CE4B5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def apply_channel(trace: StreamTrace, ch: ChannelModel) -> StreamTrace:
    """Stamp arrival times and apply loss; deterministic per (trace, seed).

    Packet index i draws from splitmix64 seeded with seed XOR i: the stream's
    first word decides loss, and only a kept packet takes the second, which
    the jitter model draws its delay from, so the two are independent. An
    arrival past TS_MAX raises TraceValidationError, naming the packet by its
    index in `trace`.
    """
    lost_below, den = ch.loss_prob.numerator << 64, ch.loss_prob.denominator
    seed, delay, draw = ch.seed, ch.base_delay_us, ch.jitter.draw
    keep = bytearray(len(trace))
    recv = array("q")
    for i, send in enumerate(trace.send_ts_us):
        state = (seed ^ i) + _SM64_GAMMA & _MASK64
        if _mix(state) * den < lost_below:
            continue
        keep[i] = 1
        arrival = send + delay + draw(_mix(state + _SM64_GAMMA & _MASK64))
        if arrival > TS_MAX:
            raise TraceValidationError([Violation(i, _ARRIVAL_PAST_TS_MAX.format(_show(arrival)))])
        recv.append(arrival)
    return trace.select(keep, recv).sorted_by("recv_ts_us")  # by arrival, stably
