"""Synthetic sender traces (CBR audio, GOP-structured video) and a seeded
channel impairment model (base delay, jitter, independent loss)."""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, cycle, islice, repeat
from math import log1p
from operator import add, floordiv, ge, mod, mul, rshift
from typing import Iterator, Sequence, Union

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


# Each jitter model draws each delay of a column from one 64-bit word.
@dataclass(frozen=True)
class NoJitter:
    def delays(self, words: Sequence[int]) -> list[int]:
        return [0] * len(words)


@dataclass(frozen=True)
class UniformJitter:
    lo_us: int
    hi_us: int

    def __post_init__(self) -> None:
        if not 0 <= self.lo_us <= self.hi_us:
            raise ValueError("need 0 <= lo_us <= hi_us")

    def delays(self, words: Sequence[int]) -> list[int]:
        span = self.hi_us - self.lo_us + 1
        return list(map(add, repeat(self.lo_us), map(mod, words, repeat(span))))


@dataclass(frozen=True)
class ExponentialJitter:
    mean_us: int

    def __post_init__(self) -> None:
        if self.mean_us < 0:
            raise ValueError("mean_us must be >= 0")

    def delays(self, words: Sequence[int]) -> list[int]:
        """round(-mean * log1p(-u)) for u = (word >> 11) * 2**-53, a 53-bit
        uniform in [0, 1); never negative, as log1p(-u) <= 0. In float in one
        pass when the mean and every value are in float range; otherwise
        value by value, each one past float range (and only those) exactly."""
        scale = -self.mean_us
        try:
            return list(map(round, map(mul, repeat(float(scale)), _logs(words))))
        except OverflowError:
            return [_delay(scale, log) for log in _logs(words)]


def _logs(words: Sequence[int]) -> Iterator[float]:
    """log1p(-u) for each word's uniform u = (word >> 11) * 2**-53."""
    return map(log1p, map(mul, map(rshift, words, repeat(11)), repeat(-2.0**-53)))


def _delay(scale: int, log: float) -> int:
    """round(scale * log), exactly when the scale or the product is past float range."""
    try:
        return round(scale * log)
    except OverflowError:
        return round(scale * Fraction(log))


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
    fragments sharing the frame send time and marker on the last.

    The frame sizes are drawn one frame at a time, in frame order, and the
    fragment columns built in passes: each frame's send time repeated once
    per fragment, sizes all MTU and markers all 0; then each frame's last
    fragment, found by accumulating the fragment counts, gets the rest of its
    frame and marker 1.
    """
    if duration_us * cfg.fps < US_PER_S or duration_us > TS_MAX:
        raise GenerationError(f"duration_us must hold one frame interval and be <= {TS_MAX}")
    rng = random.Random(seed)
    frames = -(-duration_us * cfg.fps // US_PER_S)  # frames with k*10^6/fps < duration
    span, mtu = cfg.size_jitter_pct / 100, cfg.mtu_payload_bytes
    means = (cfg.i_frame_bytes if k % cfg.gop == 0 else cfg.p_frame_bytes for k in range(frames))
    totals = [max(1, round(mean * (1 + rng.uniform(-span, span)))) for mean in means]
    fragments = list(map(floordiv, map(add, totals, repeat(mtu - 1)), repeat(mtu)))
    times = map(floordiv, range(0, frames * US_PER_S, US_PER_S), repeat(cfg.fps))
    send = array("q", chain.from_iterable(map(repeat, times, fragments)))
    marker, size = array("q", [0]) * len(send), array("q", [mtu]) * len(send)
    for end, total in zip(accumulate(fragments), totals):
        marker[end - 1], size[end - 1] = 1, (total - 1) % mtu + 1
    return _sent(cfg, marker, send, size)


_SM64_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_LANES = 256  # streams computed on one int
_LOW = int(sys.byteorder == "big")  # which native word of a 128-bit lane is its low half


def _lanes(word: int, width: int) -> int:
    """`word` in the low half of each of `width` 128-bit lanes of one int."""
    lanes = array("Q", [0]) * (2 * width)
    lanes[_LOW::2] = array("Q", [word]) * width
    return int.from_bytes(lanes, sys.byteorder)


_LANE_MASK = _lanes(_MASK64, _LANES)


def _words(seed: int, streams: array, k: int) -> array:
    """Word k (k >= 1) of splitmix64 stream i, seeded with seed XOR i, for each
    i in `streams`: mix((seed ^ i) + k*gamma mod 2^64).

    Computed _LANES streams at a time on one int, each in the low half of a
    128-bit lane: the stream numbers are copied into the lanes by a stride
    assignment into an array of native words, which int.from_bytes reads
    (and int.to_bytes writes back) with an explicit length and the native
    byte order. The xor, the add, and splitmix64's xor-shifts, multiplies
    and masks then run once on the whole int. Every lane's top half is clear
    before each add and multiply, so no carry or product crosses into the
    next lane; what a right shift brings down from the next lane lands in
    the top half and is masked off (or, after the last shift, never read).
    """
    width = min(len(streams), _LANES)
    seeds, step = _lanes(seed & _MASK64, width), _lanes(k * _SM64_GAMMA & _MASK64, width)
    lanes = array("Q", [0]) * (2 * width)
    out = array("Q")
    for start in range(0, len(streams), _LANES):
        chunk = streams[start:start + _LANES]
        lanes[_LOW:2 * len(chunk):2] = chunk  # later lanes keep the last chunk's, unread
        z = ((int.from_bytes(lanes, sys.byteorder) ^ seeds) + step) & _LANE_MASK
        z = ((z ^ z >> 30) & _LANE_MASK) * 0xBF58476D1CE4B5B9 & _LANE_MASK
        z = ((z ^ z >> 27) & _LANE_MASK) * 0x94D049BB133111EB & _LANE_MASK
        mixed = array("Q", (z ^ z >> 31).to_bytes(16 * width, sys.byteorder))
        out += mixed[_LOW:2 * len(chunk):2]
    return out


def apply_channel(trace: StreamTrace, ch: ChannelModel) -> StreamTrace:
    """Stamp arrival times and apply loss; deterministic per (trace, seed).

    Packet index i draws from splitmix64 seeded with seed XOR i: the stream's
    first word decides loss, and only a kept packet takes the second, which
    the jitter model draws its delay from, so the two are independent. An
    arrival past TS_MAX raises TraceValidationError, naming the first such
    packet by its index in `trace`.

    Each step is one pass over a column, not a loop over packets: the first
    words of all the streams (see _words for the lane kernel), loss for all
    the packets (word w is lost when w * den < num * 2^64, that is when w is
    below ceil(num * 2^64 / den); with no loss the first words are not
    needed), the kept packets' second words, their delays, then their
    arrivals.
    """
    kept = array("Q", range(len(trace)))
    keep = b"\x01" * len(trace)
    if ch.loss_prob:
        lost_below = -(-(ch.loss_prob.numerator << 64) // ch.loss_prob.denominator)
        keep = bytes(map(ge, _words(ch.seed, kept, 1), repeat(lost_below)))
        kept = array("Q", compress(kept, keep))
    send, base = trace.send_ts_us, ch.base_delay_us
    delays = ch.jitter.delays(_words(ch.seed, kept, 2))
    try:
        recv = array("q", map(add, compress(send, keep), map(add, repeat(base), delays)))
    except OverflowError:  # an arrival past TS_MAX: name the first
        i, arrival = next((i, t) for i, d in zip(kept, delays) if (t := send[i] + base + d) > TS_MAX)
        raise TraceValidationError([Violation(i, _ARRIVAL_PAST_TS_MAX.format(_show(arrival)))])
    del kept, delays  # not held through the sort, the channel's peak
    return trace.select(keep, recv).sorted_by("recv_ts_us")  # by arrival, stably
