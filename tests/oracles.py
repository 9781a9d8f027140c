"""Independent brute-force oracles for the shapers and the metrics, plus
random-input helpers.

The shaper oracles advance wall time one microsecond at a time and apply the
event rules literally; they share no code with the production shapers. The
`*_shape_reference` functions are the shapers as two separate loops, which
return rows: (shaped trace, (packet, reason) drops, occupancy samples). The
library's one loop must give the same, as `(r.shaped, r.dropped,
r.occupancy)`, or raise the same error.
The burst helpers give the network-calculus delay bound a token bucket must meet
(Le Boudec & Thiran, *Network Calculus*, LNCS 2050, 2001, ch. 1). The
jitter and decimal references compute in exact rationals what the library
computes in Q64 fixed point and integer rounding. The `*_reference`
renderers are the straightforward per-point versions of the figure and CSV
writers; the library's must produce the same bytes. They read a panel's
points as `zip(p.ts_us, p.values)`, the figure escapes its title and unit
with `html.escape`, and `panel_report_reference` gives
each panel as (title, kind, unit, points). `import_pcap_reference`
is the pcap importer as it was written before it read fields in place: it
slices out each layer, parses RTP in its own function and sorts each stream
by (time, capture order). Its one edit is the skip of later IPv4 fragments.
`metrics_report_reference` is the per-trace report as it was written before
it read each packet field once: every metric walks the packets on its own,
through attribute access, over rows built once per report; its helpers
carry a `_reference` suffix. `validate_trace_reference` and
`refusal_reference` are the trace contract as it was written before one rule
table stated it: a per-packet generator of (field, message) that names every
rule over rows, which the first runs on every packet of a trace that fails
its column screen, and the second on each row a StreamTrace refuses, keeping
the fields no column holds. `apply_channel_reference` is the channel as it
was written before each jitter model drew its own delay: one function asks
which model it is for every packet, and each packet takes both splitmix64
words, whether it is lost or not. `generate_video_reference` is the video
generator as it was written before it built its fragments in column passes:
one loop step per fragment, appending to each column.
"""

from __future__ import annotations

import html
import math
import random
import struct
from array import array
from collections import OrderedDict, deque
from fractions import Fraction
from itertools import islice
from operator import le, lt
from typing import Iterator, Optional

from rtpshape import LeakyBucketConfig, MediaPacket, StreamTrace, TokenBucketConfig
from rtpshape.metrics import (_JITTER_ONE, InsufficientDataError, MetricPreconditionError,
                              MetricsReport)
from rtpshape.model import (_SEQ_HALF, _TYPES, CSV_HEADER, PT_MOD, SEQ_MOD, SSRC_MOD, TS_MAX,
                            TraceValidationError, Violation, _show)
from rtpshape.pcap import (ETHERTYPE_IPV4, LINKTYPE_ETHERNET, MAGIC_NATIVE, MAGIC_SWAPPED,
                           PROTO_UDP, PcapFormatError, PcapLinkTypeError, PcapTruncatedError)
from rtpshape.shaping import (DROP_BUCKET_FULL, DROP_QUEUE_FULL, OccupancySample,
                              ShapingPreconditionError)
from rtpshape.traffic import (ChannelModel, ExponentialJitter, GenerationError, JitterModel,
                              NoJitter, UniformJitter, VideoGenConfig, _sent)
from rtpshape.reporting import (MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP,
                                PANEL_HEIGHT, PANEL_WIDTH)

US_PER_S = 10**6


def leaky_oracle(trace, cfg):
    """Returns (departures as [(packet, t)], drops as [packet])."""
    packets = list(trace.packets)
    i = 0
    queue: list = []
    tick = None
    deps: list = []
    drops: list = []
    t = 0
    while i < len(packets) or queue:
        if tick == t:
            if queue:
                deps.append((queue.pop(0), t))
                tick = t + cfg.drain_interval_us
            else:
                tick = None
        while i < len(packets) and packets[i].recv_ts_us == t:
            pkt = packets[i]
            i += 1
            if tick is None and not queue:
                deps.append((pkt, t))
                tick = t + cfg.drain_interval_us
            elif len(queue) < cfg.capacity_packets:
                queue.append(pkt)
            else:
                drops.append(pkt)
        t += 1
    return deps, drops


def token_oracle(trace, cfg):
    """Returns (departures as [(packet, t)], drops as [packet])."""
    packets = list(trace.packets)
    num = cfg.rate.numerator
    den_us = cfg.rate.denominator * US_PER_S
    cap = cfg.capacity_tokens
    tokens = cfg.start_tokens
    rem = 0
    queue: list = []
    queued_bytes = 0
    deps: list = []
    drops: list = []
    i = 0
    t = 0
    while i < len(packets) or queue:
        if t > 0:
            rem += num
            tokens += rem // den_us
            rem %= den_us
            if tokens >= cap:
                tokens, rem = cap, 0
        while queue and tokens >= queue[0].size_bytes:
            pkt = queue.pop(0)
            tokens -= pkt.size_bytes
            queued_bytes -= pkt.size_bytes
            deps.append((pkt, t))
        while i < len(packets) and packets[i].recv_ts_us == t:
            pkt = packets[i]
            i += 1
            if cfg.queue_limit_bytes is not None and \
                    queued_bytes + pkt.size_bytes > cfg.queue_limit_bytes:
                drops.append(pkt)
            else:
                queue.append(pkt)
                queued_bytes += pkt.size_bytes
                while queue and tokens >= queue[0].size_bytes:
                    head = queue.pop(0)
                    tokens -= head.size_bytes
                    queued_bytes -= head.size_bytes
                    deps.append((head, t))
        t += 1
    return deps, drops


# The shapers as two separate loops, kept verbatim apart from the removed
# StreamTrace.clock_resolution_us, as the reference the single FIFO-server
# loop must reproduce, occupancy samples and errors included.


def _arrivals_reference(trace: StreamTrace) -> list[int]:
    ts = []
    for i, p in enumerate(trace.packets):
        if p.recv_ts_us is None:
            raise ShapingPreconditionError(f"packet {i} has no arrival timestamp (recv_ts_us)")
        ts.append(p.recv_ts_us)
    return ts


def leaky_bucket_shape_reference(trace: StreamTrace, cfg: LeakyBucketConfig) -> tuple:
    """Shape a trace through a fixed-drain leaky bucket.

    A packet arriving to an empty queue with an idle drain clock departs
    immediately and arms the clock; otherwise it queues (or drops when the
    bucket is full). The clock goes idle only when a drain tick fires on an
    empty queue, so consecutive departures are never closer than the drain
    interval.
    """
    arrivals = _arrivals_reference(trace)
    drain = cfg.drain_interval_us
    cap = cfg.capacity_packets

    queue: deque[MediaPacket] = deque()
    queued_bytes = 0
    next_tick: Optional[int] = None
    shaped: list[MediaPacket] = []
    dropped: list[tuple[MediaPacket, str]] = []
    occupancy: list[OccupancySample] = []

    # hot loop: bind lookups to locals and build tuples without going
    # through the NamedTuple constructors
    new = tuple.__new__
    sample = OccupancySample
    packet = MediaPacket
    shaped_append = shaped.append
    occ_append = occupancy.append
    pop_head = queue.popleft
    enqueue = queue.append

    for pkt, t in zip(trace.packets, arrivals):
        while next_tick is not None and next_tick <= t:
            if queue:
                head = pop_head()
                queued_bytes -= head[6]
                shaped_append(new(packet, head[:5] + (next_tick, head[6])))
                occ_append(new(sample, (next_tick, len(queue), queued_bytes, 0)))
                next_tick += drain
            else:
                next_tick = None
        if next_tick is None and not queue:
            # departs the instant it arrives, so the packet is unchanged
            shaped_append(pkt)
            next_tick = t + drain
            occ_append(new(sample, (t, 0, 0, 0)))
        elif len(queue) < cap:
            enqueue(pkt)
            queued_bytes += pkt[6]
            occ_append(new(sample, (t, len(queue), queued_bytes, 0)))
        else:
            dropped.append((pkt, DROP_BUCKET_FULL))
            occ_append(new(sample, (t, len(queue), queued_bytes, 0)))

    while queue:
        assert next_tick is not None
        head = pop_head()
        queued_bytes -= head[6]
        shaped_append(new(packet, head[:5] + (next_tick, head[6])))
        occ_append(new(sample, (next_tick, len(queue), queued_bytes, 0)))
        next_tick += drain

    return StreamTrace(tuple(shaped)), tuple(dropped), tuple(occupancy)


class _TokenStateReference:
    """Exact integer token accrual with sub-token remainder carry.

    tokens available at t = min(cap, tokens + (rem + (t - t_last) * num) // den_us)
    where den_us = rate denominator * 10^6. When the bucket caps, the
    remainder is discarded (a full bucket accrues nothing).
    """

    __slots__ = ("num", "den_us", "cap", "tokens", "rem", "t")

    def __init__(self, rate: Fraction, cap: int, initial: int):
        self.num = rate.numerator
        self.den_us = rate.denominator * US_PER_S
        self.cap = cap
        self.tokens = initial
        self.rem = 0
        self.t = 0

    def advance(self, t: int) -> None:
        acc = self.rem + (t - self.t) * self.num
        tokens = self.tokens + acc // self.den_us
        if tokens >= self.cap:
            self.tokens, self.rem = self.cap, 0
        else:
            self.tokens, self.rem = tokens, acc % self.den_us
        self.t = t

    def ready_time(self, size: int) -> int:
        """Earliest time >= self.t at which `size` tokens are available."""
        if self.tokens >= size:
            return self.t
        deficit = (size - self.tokens) * self.den_us - self.rem
        return self.t + -(-deficit // self.num)  # ceiling division


def token_bucket_shape_reference(trace: StreamTrace, cfg: TokenBucketConfig) -> tuple:
    """Shape a trace through a byte-based token bucket.

    Tokens accrue continuously at the configured rational rate (exact
    integer arithmetic, no lost fractions); the FIFO head departs at the
    earliest microsecond its size in bytes is covered by available tokens.
    """
    arrivals = _arrivals_reference(trace)
    limit = cfg.queue_limit_bytes
    state = _TokenStateReference(cfg.rate, cfg.capacity_tokens, cfg.start_tokens)

    queue: deque[MediaPacket] = deque()
    queued_bytes = 0
    shaped: list[MediaPacket] = []
    dropped: list[tuple[MediaPacket, str]] = []
    occupancy: list[OccupancySample] = []

    def depart_until(deadline: Optional[int]) -> None:
        nonlocal queued_bytes
        while queue:
            head = queue[0]
            if head.size_bytes > cfg.capacity_tokens:
                raise ShapingPreconditionError(
                    f"packet of {head.size_bytes} bytes exceeds token capacity "
                    f"{cfg.capacity_tokens}; it can never depart"
                )
            dep = state.ready_time(head.size_bytes)
            if dep < head.recv_ts_us:  # type: ignore[operator]
                dep = head.recv_ts_us  # type: ignore[assignment]
            if deadline is not None and dep > deadline:
                return
            state.advance(dep)
            state.tokens -= head.size_bytes
            queue.popleft()
            queued_bytes -= head.size_bytes
            shaped.append(head._replace(recv_ts_us=dep))
            occupancy.append(OccupancySample(dep, len(queue), queued_bytes, state.tokens))

    for pkt, t in zip(trace.packets, arrivals):
        depart_until(t)
        if limit is not None and queued_bytes + pkt.size_bytes > limit:
            state.advance(t)
            dropped.append((pkt, DROP_QUEUE_FULL))
            occupancy.append(OccupancySample(t, len(queue), queued_bytes, state.tokens))
            continue
        queue.append(pkt if pkt.recv_ts_us == t else pkt._replace(recv_ts_us=t))
        queued_bytes += pkt.size_bytes
        state.advance(t)
        occupancy.append(OccupancySample(t, len(queue), queued_bytes, state.tokens))
        depart_until(t)

    depart_until(None)

    return StreamTrace(tuple(shaped)), tuple(dropped), tuple(occupancy)


def burst_scaled(trace, rate: Fraction) -> int:
    """The trace's burst b_in(r) at `rate`, times rate.denominator * 10**6.

    b_in(r) is the largest bytes(i..j) - r * (t_j - t_i) over arrival windows
    i <= j: the least b such that every window carries at most b + r * dt
    bytes. Splitting each window into its two endpoints leaves one pass with
    a running minimum over the window starts. 0 for an empty trace.
    """
    num = rate.numerator
    den_us = rate.denominator * US_PER_S
    best = 0
    total = 0
    start_min = None  # min over i <= j of bytes(0..i-1) * den_us - num * t_i
    for p in trace.packets:
        start = total * den_us - num * p.recv_ts_us
        if start_min is None or start < start_min:
            start_min = start
        total += p.size_bytes
        best = max(best, total * den_us - num * p.recv_ts_us - start_min)
    return best


def burst_scaled_brute(trace, rate: Fraction) -> int:
    """O(n^2) twin of burst_scaled: every window summed on its own."""
    num = rate.numerator
    den_us = rate.denominator * US_PER_S
    packets = trace.packets
    return max((sum(p.size_bytes for p in packets[i:j + 1]) * den_us
                - num * (packets[j].recv_ts_us - packets[i].recv_ts_us)
                for i in range(len(packets)) for j in range(i, len(packets))),
               default=0)


def token_delay_bound_us(trace, cfg: TokenBucketConfig) -> int:
    """Largest delay a token bucket may add to any packet it accepts:
    ceil((b_in(r) - start_tokens) / r) microseconds, and never below 0.

    This is the horizontal deviation between the trace's arrival curve
    b_in(r) + r*t and the bucket's service from start_tokens on. Dropped
    packets only thin the arrivals, so the bound holds with a queue limit.
    """
    excess = burst_scaled(trace, cfg.rate) - \
        cfg.start_tokens * cfg.rate.denominator * US_PER_S
    return max(0, -(-excess // cfg.rate.numerator))


def jitter_exact(trace) -> list[Fraction]:
    """RFC 3550 smoothed interarrival jitter in exact rationals, one value per
    difference: D = (R_i - R_{i-1}) - (S_i - S_{i-1}), J <- J + (|D| - J) / 16.
    J_n has a denominator dividing 16**n, so this is quadratic in time."""
    series = []
    j = Fraction(0)
    for prev, p in zip(trace.packets, trace.packets[1:]):
        d = (p.recv_ts_us - prev.recv_ts_us) - (p.send_ts_us - prev.send_ts_us)
        j = j + (abs(d) - j) / 16
        series.append(j)
    return series


def format_decimal_exact(value) -> str:
    """Decimal with at most 6 fractional digits, rounded half to even by
    Python's round() on the exact Fraction."""
    q = round(Fraction(value) * 10**6)
    sign = "-" if q < 0 else ""
    whole, frac = divmod(abs(q), 10**6)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + f"{frac:06d}".rstrip("0")


def random_received_trace(rng: random.Random, max_packets=200, max_t=3000,
                          max_size=100) -> StreamTrace:
    n = rng.randint(1, max_packets)
    times = sorted(rng.randint(0, max_t) for _ in range(n))
    packets = tuple(
        MediaPacket(k % 65536, 7, 96, False, t, t, rng.randint(1, max_size))
        for k, t in enumerate(times)
    )
    return StreamTrace(packets)


def random_leaky_config(rng: random.Random) -> LeakyBucketConfig:
    return LeakyBucketConfig(
        capacity_packets=rng.randint(1, 20),
        drain_interval_us=rng.randint(1, 50),
    )


def random_token_config(rng: random.Random, max_size=100) -> TokenBucketConfig:
    cap = rng.randint(max_size, max_size * 10)
    return TokenBucketConfig(
        rate=Fraction(rng.randint(2_000_000, 20_000_000), rng.choice([1, 2, 3, 7])),
        capacity_tokens=cap,
        initial_tokens=rng.choice([None, 0, rng.randint(0, cap)]),
        queue_limit_bytes=rng.choice([None, rng.randint(max_size, max_size * 20)]),
    )


def write_trace_csv_reference(trace: StreamTrace) -> bytes:
    """Serialize to the canonical trace CSV (ASCII, LF line endings)."""
    lines = [CSV_HEADER]
    for p in trace.packets:
        recv = "" if p.recv_ts_us is None else str(p.recv_ts_us)
        lines.append(
            f"{p.seq},{p.ssrc},{p.payload_type},{1 if p.marker else 0},"
            f"{p.send_ts_us},{recv},{p.size_bytes}"
        )
    return ("\n".join(lines) + "\n").encode("ascii")


def _packet_points_reference(trace: StreamTrace) -> tuple[tuple[int, int], ...]:
    return tuple((p.recv_ts_us, p.size_bytes) for p in trace.packets)


def panel_report_reference(incoming, result, cfg) -> tuple:
    """Figure layout for one shaping stage: dots for packets, step lines for
    occupancy, matching the three/four-diagram structure of the shapers.
    Each panel is (title, kind, unit, points)."""
    panels = [
        ("incoming traffic", "scatter", "bytes", _packet_points_reference(incoming)),
        ("shaped traffic", "scatter", "bytes", _packet_points_reference(result.shaped)),
    ]
    if isinstance(cfg, LeakyBucketConfig):
        panels.append(("bucket content (packets)", "step", "packets",
                       tuple((s.ts_us, s.queued_packets) for s in result.occupancy)))
    elif isinstance(cfg, TokenBucketConfig):
        panels.append(("packet queue (bytes)", "step", "bytes",
                       tuple((s.ts_us, s.queued_bytes) for s in result.occupancy)))
        panels.append(("tokens available", "step", "tokens",
                       tuple((s.ts_us, s.tokens) for s in result.occupancy)))
    else:
        raise TypeError(f"unknown shaper config: {cfg!r}")
    return tuple(panels)


def occupancy_csv_reference(result) -> str:
    lines = ["ts_us,queued_packets,queued_bytes,tokens"]
    lines += [f"{s.ts_us},{s.queued_packets},{s.queued_bytes},{s.tokens}"
              for s in result.occupancy]
    return "\n".join(lines) + "\n"


def drops_csv_reference(result) -> str:
    lines = ["seq,ssrc,ts_us,reason"]
    lines += [f"{p.seq},{p.ssrc},{p.recv_ts_us},{reason}" for p, reason in result.dropped]
    return "\n".join(lines) + "\n"


def panels_csv_reference(panels) -> str:
    lines = ["panel,kind,ts_us,value"]
    for panel in panels:
        head = f"{panel.title},{panel.kind},"
        lines += [f"{head}{ts},{v}" for ts, v in zip(panel.ts_us, panel.values)]
    return "\n".join(lines) + "\n"


def _scale_reference(points, width, height):
    ts = [p[0] for p in points]
    vs = [p[1] for p in points]
    t_lo, t_hi = min(ts), max(ts)
    v_lo, v_hi = min(min(vs), 0), max(vs)
    t_span = (t_hi - t_lo) or 1
    v_span = (v_hi - v_lo) or 1

    def to_xy(t, v):
        x = (t - t_lo) / t_span * width
        y = height - (v - v_lo) / v_span * height
        return f"{x:.2f}", f"{y:.2f}"

    return to_xy, (t_lo, t_hi, v_lo, v_hi)


def render_svg_reference(panels) -> str:
    """Standalone SVG: one vertically stacked <g class="panel"> per panel,
    <circle> dots for scatter panels, a step <polyline> for occupancy."""
    inner_w = PANEL_WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    inner_h = PANEL_HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    total_h = PANEL_HEIGHT * len(panels)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PANEL_WIDTH}" '
        f'height="{max(total_h, 1)}" viewBox="0 0 {PANEL_WIDTH} {max(total_h, 1)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for idx, panel in enumerate(panels):
        points = tuple(zip(panel.ts_us, panel.values))
        top = idx * PANEL_HEIGHT
        out.append(f'<g class="panel" transform="translate({MARGIN_LEFT},{top + MARGIN_TOP})">')
        out.append(f'<text x="0" y="-10" font-size="12" font-family="sans-serif">'
                   f'{html.escape(panel.title, quote=False)}</text>')
        out.append(f'<line x1="0" y1="{inner_h}" x2="{inner_w}" y2="{inner_h}" '
                   'stroke="black" stroke-width="1"/>')
        out.append(f'<line x1="0" y1="0" x2="0" y2="{inner_h}" '
                   'stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{inner_w // 2}" y="{inner_h + 22}" font-size="10" '
                   f'font-family="sans-serif" text-anchor="middle">time (us)</text>')
        out.append(f'<text x="-8" y="{inner_h // 2}" font-size="10" '
                   f'font-family="sans-serif" text-anchor="end">'
                   f'{html.escape(panel.unit, quote=False)}</text>')
        if points:
            to_xy, (t_lo, t_hi, v_lo, v_hi) = _scale_reference(points, inner_w, inner_h)
            out.append(f'<text x="0" y="{inner_h + 22}" font-size="9" '
                       f'font-family="sans-serif">{t_lo}</text>')
            out.append(f'<text x="{inner_w}" y="{inner_h + 22}" font-size="9" '
                       f'font-family="sans-serif" text-anchor="end">{t_hi}</text>')
            out.append(f'<text x="-4" y="10" font-size="9" font-family="sans-serif" '
                       f'text-anchor="end">{v_hi}</text>')
            if panel.kind == "scatter":
                for t, v in points:
                    x, y = to_xy(t, v)
                    out.append(f'<circle cx="{x}" cy="{y}" r="1.5" fill="steelblue"/>')
            else:
                coords = []
                prev_v = None
                for t, v in points:
                    if prev_v is not None:
                        x, y = to_xy(t, prev_v)
                        coords.append(f"{x},{y}")
                    x, y = to_xy(t, v)
                    coords.append(f"{x},{y}")
                    prev_v = v
                out.append(f'<polyline points="{" ".join(coords)}" fill="none" '
                           'stroke="darkorange" stroke-width="1"/>')
        out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


def _parse_rtp(payload: bytes, payload_len: int) -> Optional[tuple[int, int, int, bool, int]]:
    """Return (seq, ssrc, payload_type, marker, media_bytes) or None."""
    if payload_len < 12 or len(payload) < 12:
        return None
    b0 = payload[0]
    if b0 >> 6 != 2:
        return None
    padding = bool(b0 & 0x20)
    extension = bool(b0 & 0x10)
    cc = b0 & 0x0F
    marker = bool(payload[1] & 0x80)
    pt = payload[1] & 0x7F
    seq, = struct.unpack_from(">H", payload, 2)
    ssrc, = struct.unpack_from(">I", payload, 8)

    header_len = 12 + 4 * cc
    if extension:
        if len(payload) < header_len + 4:
            return None
        ext_words, = struct.unpack_from(">H", payload, header_len + 2)
        header_len += 4 + 4 * ext_words
    pad_len = 0
    if padding:
        if payload_len > len(payload):
            return None  # snaplen cut the padding byte off; cannot size it
        pad_len = payload[payload_len - 1]
    media_bytes = payload_len - header_len - pad_len
    if media_bytes < 1:
        return None
    return seq, ssrc, pt, marker, media_bytes


def _parse_frame(frame: bytes, port_filter: Optional[int]):
    """Dissect Ethernet II -> IPv4 -> UDP -> RTP; None when not RTP/UDP."""
    if len(frame) < 14:
        return None
    ethertype, = struct.unpack_from(">H", frame, 12)
    if ethertype != ETHERTYPE_IPV4:
        return None
    ip = frame[14:]
    if len(ip) < 20:
        return None
    if ip[0] >> 4 != 4:
        return None
    ihl = (ip[0] & 0x0F) * 4
    if ihl < 20 or len(ip) < ihl:
        return None
    if ip[9] != PROTO_UDP:
        return None
    if struct.unpack_from(">H", ip, 6)[0] & 0x1FFF:
        return None  # a later fragment carries no UDP header (RFC 791)
    udp = ip[ihl:]
    if len(udp) < 8:
        return None
    sport, dport, ulen = struct.unpack_from(">HHH", udp, 0)
    if port_filter is not None and port_filter not in (sport, dport):
        return None
    if ulen < 8:
        return None
    payload_len = ulen - 8
    payload = udp[8:8 + payload_len]
    if len(payload) < payload_len:
        # snaplen-truncated payload; cannot dissect reliably
        if len(payload) < 12:
            return None
    return _parse_rtp(payload, payload_len)


def import_pcap_reference(data: bytes, port_filter: Optional[int] = None) -> list[StreamTrace]:
    """Parse a classic PCAP byte stream into one StreamTrace per RTP SSRC.

    Arrival timestamps are offset so the earliest RTP packet sits at 0.
    """
    if len(data) < 4 or data[0:4] not in (MAGIC_NATIVE, MAGIC_SWAPPED):
        raise PcapFormatError("missing classic PCAP magic")
    endian = ">" if data[0:4] == MAGIC_NATIVE else "<"
    if len(data) < 24:
        raise PcapFormatError("truncated global header")
    _, _, _, _, _, _, network = struct.unpack(endian + "IHHiIII", data[:24])
    if network != LINKTYPE_ETHERNET:
        raise PcapLinkTypeError(f"unsupported link type {network} (need Ethernet)")

    found: list[tuple[int, int, int, int, bool, int]] = []  # ts, seq, ssrc, pt, marker, size
    offset = 24
    record = 0
    while offset < len(data):
        if len(data) - offset < 16:
            raise PcapTruncatedError(record, "record header cut short")
        ts_sec, ts_usec, incl_len, _ = struct.unpack_from(endian + "IIII", data, offset)
        offset += 16
        if incl_len > len(data) - offset:
            raise PcapTruncatedError(record, "record body cut short")
        frame = data[offset:offset + incl_len]
        offset += incl_len
        parsed = _parse_frame(frame, port_filter)
        if parsed is not None:
            seq, ssrc, pt, marker, size = parsed
            found.append((ts_sec * 10**6 + ts_usec, seq, ssrc, pt, marker, size))
        record += 1

    if not found:
        return []

    t0 = min(item[0] for item in found)
    by_ssrc: "OrderedDict[int, list[tuple[int, int]]]" = OrderedDict()
    for order, (ts, seq, ssrc, pt, marker, size) in enumerate(found):
        rel = ts - t0
        pkt = MediaPacket(seq, ssrc, pt, marker, rel, rel, size)
        by_ssrc.setdefault(ssrc, []).append((order, pkt))

    traces = []
    for ssrc, items in by_ssrc.items():
        items.sort(key=lambda it: (it[1].recv_ts_us, it[0]))
        packets = tuple(pkt for _, pkt in items)
        traces.append(StreamTrace(packets))
    return traces


def _require_both_ts_reference(trace: StreamTrace) -> None:
    for i, p in enumerate(trace.packets):
        if p.recv_ts_us is None:
            raise MetricPreconditionError(f"packet {i} has no recv_ts_us")


def _jitter_q64_reference(trace: StreamTrace) -> tuple[int, ...]:
    if len(trace.packets) < 2:
        raise InsufficientDataError("interarrival jitter needs at least 2 packets")
    _require_both_ts_reference(trace)
    series = []
    j = 0
    first = trace.packets[0]
    prev_transit = first.recv_ts_us - first.send_ts_us
    for p in trace.packets[1:]:
        transit = p.recv_ts_us - p.send_ts_us
        j += ((abs(transit - prev_transit) << 64) - j) >> 4
        series.append(j)
        prev_transit = transit
    return tuple(series)


def _nearest_rank_reference(sorted_values: list[int], pct: int) -> int:
    n = len(sorted_values)
    rank = -(-pct * n // 100)  # ceil(pct/100 * n)
    return sorted_values[max(rank, 1) - 1]


def pdv_reference(trace: StreamTrace) -> tuple[tuple[int, ...], dict]:
    if not trace.packets:
        raise InsufficientDataError("pdv needs at least 1 packet")
    _require_both_ts_reference(trace)
    delays = [p.recv_ts_us - p.send_ts_us for p in trace.packets]
    base = min(delays)
    values = [d - base for d in delays]
    ordered = sorted(values)
    stats = {
        "min": ordered[0],
        "max": ordered[-1],
        "mean": Fraction(sum(values), len(values)),
        "p50": _nearest_rank_reference(ordered, 50),
        "p99": _nearest_rank_reference(ordered, 99),
    }
    return tuple(values), stats


def extended_seqs_reference(packets) -> list[int]:
    out: list[int] = []
    for p in packets:
        seq = p[0]
        prev = out[-1] if out else seq
        out.append(prev + (seq - prev + _SEQ_HALF) % SEQ_MOD - _SEQ_HALF)
    return out


def loss_reference(trace: StreamTrace) -> tuple[int, Fraction, int]:
    if not trace.packets:
        raise InsufficientDataError("loss needs at least 1 packet")
    ext = extended_seqs_reference(trace.packets)
    unique = len(set(ext))
    expected = max(ext) - min(ext) + 1
    loss_count = expected - unique
    duplicates = len(ext) - unique
    return loss_count, Fraction(loss_count, expected), duplicates


def throughput_reference(trace: StreamTrace, window_us: int) -> tuple[tuple[int, int], ...]:
    if window_us < 1:
        raise ValueError("window_us must be >= 1")
    if not trace.packets:
        return ()
    buckets: dict[int, int] = {}
    for p, ts in zip(trace.packets, trace.active_timestamps()):
        buckets[ts // window_us] = buckets.get(ts // window_us, 0) + p.size_bytes
    return tuple((k * window_us, buckets[k]) for k in sorted(buckets))


class _RowsOnce:
    """A trace's rows, built once: every reference metric reads `packets`
    again, and a StreamTrace builds its rows on each access."""

    def __init__(self, trace: StreamTrace):
        self.packets = trace.packets
        self.active_timestamps = trace.active_timestamps


def metrics_report_reference(trace: StreamTrace, window_us: int = 10**6) -> MetricsReport:
    trace = _RowsOnce(trace)
    if not trace.packets:
        raise InsufficientDataError("metrics need at least 1 packet")
    try:
        jitter_series = _jitter_q64_reference(trace)
        jitter_final = Fraction(jitter_series[-1], _JITTER_ONE)
    except (InsufficientDataError, MetricPreconditionError):
        jitter_series, jitter_final = None, None
    try:
        pdv_values, pdv_stats = pdv_reference(trace)
    except (InsufficientDataError, MetricPreconditionError):
        pdv_values, pdv_stats = None, None
    loss_count, loss_rate, duplicates = loss_reference(trace)
    ts = trace.active_timestamps()
    return MetricsReport(
        jitter_series=jitter_series,
        jitter_final_us=jitter_final,
        pdv_per_packet_us=pdv_values,
        pdv_stats=pdv_stats,
        loss_count=loss_count,
        loss_rate=loss_rate,
        duplicate_count=duplicates,
        throughput_series=throughput_reference(trace, window_us),
        total_bytes=sum(p.size_bytes for p in trace.packets),
        total_packets=len(trace.packets),
        duration_us=ts[-1] - ts[0],
    )


def _bad_reference(name: str, value: object, rule: str) -> str:
    return f"{name} {_show(value)} {rule if type(value) is int else 'is not an int'}"


def _fits_reference(field: int, value: object) -> bool:
    """Whether a column holds the value of field number `field` of a row."""
    return type(value) in _TYPES[field] and (value is None or -TS_MAX - 1 <= value <= TS_MAX)


def _field_problems_reference(row, ssrc0) -> Iterator[tuple[int, str]]:
    """The rules of one packet: (field number, message) for each one it breaks.
    Exact ints (not bools) in the CSV ranges, recv_ts_us or None, marker
    True/False/0/1, and the SSRC `ssrc0` (if not None)."""
    seq, ssrc, pt, marker, send, recv, size = row
    if type(seq) is not int or not 0 <= seq < SEQ_MOD:
        yield 0, _bad_reference("seq", seq, "outside 16-bit range")
    if type(ssrc) is not int or not 0 <= ssrc < SSRC_MOD:
        yield 1, _bad_reference("ssrc", ssrc, "outside 32-bit range")
    if ssrc0 is not None and ssrc != ssrc0:
        yield 1, f"ssrc {_show(ssrc)} differs from packet 0's ssrc {_show(ssrc0)}"
    if type(pt) is not int or not 0 <= pt < PT_MOD:
        yield 2, _bad_reference("payload_type", pt, "outside 7-bit range")
    if type(marker) not in (bool, int) or marker not in (0, 1):
        yield 3, f"marker {_show(marker)} is not True, False, 0 or 1"
    if type(send) is not int or not 0 <= send <= TS_MAX:
        yield 4, "negative send_ts_us" if type(send) is int and send < 0 \
            else _bad_reference("send_ts_us", send, f"> {TS_MAX}")
    if type(size) is not int or not 1 <= size <= TS_MAX:
        yield 6, _bad_reference("size_bytes", size, "< 1" if type(size) is int and size < 1
                                else f"> {TS_MAX}")
    lo = send if type(send) is int else 0  # recv's lower bound
    if recv is not None and (type(recv) is not int or not lo <= recv <= TS_MAX):
        yield 5, "negative delay: recv_ts_us < send_ts_us" if type(recv) is int and recv < lo \
            else _bad_reference("recv_ts_us", recv, f"> {TS_MAX}")


def refusal_reference(rows) -> list:
    """The violations a StreamTrace refuses 7-field `rows` with."""
    return [Violation(i, message) for i, row in enumerate(rows)
            for field, message in _field_problems_reference(row, None)
            if not _fits_reference(field, row[field])]


# Each column's range in a valid trace.
_RANGES_REFERENCE = ((0, SEQ_MOD - 1), (0, SSRC_MOD - 1), (0, PT_MOD - 1), (0, 1), (0, TS_MAX),
                     (0, TS_MAX), (1, TS_MAX))


def validate_trace_reference(trace: StreamTrace) -> list:
    ts = trace.active_timestamps()
    if not len(trace) or (
            all(lo <= min(c) and max(c) <= hi
                for c, (lo, hi) in zip(trace.columns(), _RANGES_REFERENCE))
            and min(trace.ssrc) == max(trace.ssrc)
            and not any(map(lt, trace.recv_ts_us, trace.send_ts_us))
            and all(map(le, ts, islice(ts, 1, None)))):
        return []
    ssrc0 = trace.ssrc[0]
    out = [Violation(i, message) for i, row in enumerate(trace.packets)
           for _, message in _field_problems_reference(row, ssrc0)]
    return out + [Violation(i, "unsorted: active timestamp decreases")
                  for i, (prev_t, t) in enumerate(zip(ts, islice(ts, 1, None)), start=1)
                  if t < prev_t]


_SM64_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64_pair(seed: int) -> tuple[int, int]:
    """First two outputs of a splitmix64 stream."""

    def mix(state: int) -> int:
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4B5B9 & _MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
        return z ^ (z >> 31)

    s1 = (seed + _SM64_GAMMA) & _MASK64
    s2 = (s1 + _SM64_GAMMA) & _MASK64
    return mix(s1), mix(s2)


def _sample_jitter(model: JitterModel, word: int) -> int:
    if isinstance(model, NoJitter):
        return 0
    if isinstance(model, UniformJitter):
        return model.lo_us + word % (model.hi_us - model.lo_us + 1)
    if isinstance(model, ExponentialJitter):
        u = (word >> 11) * 2.0**-53  # 53-bit uniform in [0, 1)
        log = math.log1p(-u)
        try:
            return max(0, round(-model.mean_us * log))
        except OverflowError:  # a mean or a draw past float range, taken exactly
            return max(0, round(-model.mean_us * Fraction(log)))
    raise TypeError(f"unknown jitter model: {model!r}")


def apply_channel_reference(trace: StreamTrace, ch: ChannelModel) -> StreamTrace:
    num, den = ch.loss_prob.numerator, ch.loss_prob.denominator
    keep = bytearray(len(trace))
    recv = array("q")
    for i, send in enumerate(trace.send_ts_us):
        loss_word, jitter_word = _splitmix64_pair((ch.seed ^ i) & _MASK64)
        if loss_word * den < num << 64:
            continue
        keep[i] = 1
        arrival = send + ch.base_delay_us + _sample_jitter(ch.jitter, jitter_word)
        if arrival > TS_MAX:
            raise TraceValidationError([Violation(i, f"recv_ts_us {_show(arrival)} > {TS_MAX}")])
        recv.append(arrival)
    return trace.select(keep, recv).sorted_by("recv_ts_us")  # by arrival, stably


def generate_video_reference(cfg: VideoGenConfig, duration_us: int, seed: int) -> StreamTrace:
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
