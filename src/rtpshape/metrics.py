"""Stream measurements: RFC 3550 interarrival jitter, min-referenced packet
delay variation, wrap-aware loss, windowed throughput, and before/after
shaping comparisons.

Jitter is kept as a Q64 fixed-point integer (units of 2**-64 us), as RFC 3550
section A.8 keeps it as a scaled integer; see interarrival_jitter for the
recurrence and its error bound. Every other metric is exact integer or
rational arithmetic. Decimal rendering happens only at the report boundary,
in integer arithmetic: format_decimal renders a Fraction, format_jitter one
Q64 jitter value, and _millionths rounds a whole Q64 series in one pass, which
reporting.jitter_csv then writes in C-level `%` passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, islice, repeat
from operator import mul, sub
from typing import Iterator, Optional, Sequence

from .model import _SEQ_HALF, SEQ_MOD, StreamTrace


class MetricPreconditionError(ValueError):
    """Trace lacks the timestamps a metric needs."""


class InsufficientDataError(ValueError):
    """Too few packets for the metric."""


class InconsistentInputError(ValueError):
    """Comparison inputs do not describe the same packets."""


@dataclass(frozen=True)
class MetricsReport:
    # Q64 jitter after each interarrival difference (packet 1 onwards), in
    # units of 2**-64 us; render with format_jitter.
    jitter_series: Optional[tuple[int, ...]]
    jitter_final_us: Optional[Fraction]
    pdv_per_packet_us: Optional[tuple[int, ...]]
    pdv_stats: Optional[dict]  # min/max/mean/p50/p99 in us (mean is a Fraction)
    loss_count: int
    loss_rate: Fraction
    duplicate_count: int
    throughput_series: tuple[tuple[int, int], ...]
    total_bytes: int
    total_packets: int
    duration_us: int


@dataclass(frozen=True)
class ComparisonReport:
    before: MetricsReport
    after: MetricsReport
    pdv_max_reduction_pct: Optional[Fraction]  # None = undefined (before is 0)
    jitter_final_reduction_pct: Optional[Fraction]
    added_latency_mean_us: Fraction
    added_latency_max_us: int
    drops_introduced: int


def _arrived(trace: StreamTrace, where: str = "") -> None:
    """Raise a MetricPreconditionError, whose message `where` prefixes, if a
    packet has no recv_ts_us."""
    if trace.missing:
        raise MetricPreconditionError(f"{where}packet {trace.missing[0]} has no recv_ts_us")


def _transit(trace: StreamTrace) -> list[int]:
    """Each packet's transit time, recv_ts_us - send_ts_us."""
    _arrived(trace)
    return list(map(sub, trace.recv_ts_us, trace.send_ts_us))


# One jitter unit: 1 us in Q64 fixed point.
_JITTER_ONE = 1 << 64


def _jitter_q64(transit: Sequence[int]) -> tuple[int, ...]:
    """The Q64 jitter recurrence over the transit times; see interarrival_jitter.
    It reads only differences of consecutive values, so the transit times less
    any one constant (the PDV values) give the same series."""
    if len(transit) < 2:
        raise InsufficientDataError("interarrival jitter needs at least 2 packets")
    series = []
    j = 0
    prev = transit[0]
    for t in islice(transit, 1, None):
        j += ((abs(t - prev) << 64) - j) >> 4
        series.append(j)
        prev = t
    return tuple(series)


def interarrival_jitter(trace: StreamTrace) -> tuple[tuple[tuple[int, Fraction], ...], Fraction]:
    """RFC 3550 smoothed interarrival jitter in microseconds.

    D(i-1, i) = (R_i - R_{i-1}) - (S_i - S_{i-1}). J is kept as a Q64
    fixed-point integer q = J * 2**64, starting at 0:

        q <- q + floor(((|D| << 64) - q) / 16)

    For the first 16 differences this equals the exact rational recurrence
    J <- J + (|D| - J) / 16, whose n-th value has a denominator dividing
    16**n. After that the floor keeps q at or below the exact value and
    less than 16 units (16 * 2**-64 us) below it.

    Returns the per-packet running series (one entry (i, J_i) per difference,
    i from 1) and the final value, as exact Fractions q / 2**64.
    """
    series = tuple((i, Fraction(q, _JITTER_ONE))
                   for i, q in enumerate(_jitter_q64(_transit(trace)), start=1))
    return series, series[-1][1]


def _nearest_rank(sorted_values: list[int], pct: int) -> int:
    n = len(sorted_values)
    rank = -(-pct * n // 100)  # ceil(pct/100 * n)
    return sorted_values[max(rank, 1) - 1]


def pdv(trace: StreamTrace) -> tuple[tuple[int, ...], dict]:
    """Min-referenced packet delay variation: one-way delay minus the trace
    minimum, per packet, plus nearest-rank summary stats."""
    transit = _transit(trace)
    if not transit:
        raise InsufficientDataError("pdv needs at least 1 packet")
    base = min(transit)
    values = [d - base for d in transit]
    ordered = sorted(values)
    stats = {
        "min": ordered[0],
        "max": ordered[-1],
        "mean": Fraction(sum(values), len(values)),
        "p50": _nearest_rank(ordered, 50),
        "p99": _nearest_rank(ordered, 99),
    }
    return tuple(values), stats


def _extended(seqs: Sequence[int]) -> Iterator[int]:
    """Each seq extended to the value congruent to it nearest the previous one."""
    ext = seqs[0]  # so the first step is 0
    for seq in seqs:
        ext += (seq - ext + _SEQ_HALF) % SEQ_MOD - _SEQ_HALF
        yield ext


def loss(trace: StreamTrace) -> tuple[int, Fraction, int]:
    """Wrap-aware loss: (loss_count, loss_rate, duplicate_count).

    Each seq is extended (unwrapped) to the value congruent to it that is
    nearest the previous extended seq; the first keeps its own value. The
    expected count spans the observed extended range; duplicate sequence
    numbers count once. One pass puts each extended seq in a set, so memory
    follows the packet count, not the span of the seqs.
    """
    seqs = trace.seq
    if not seqs:
        raise InsufficientDataError("loss needs at least 1 packet")
    seen = set(_extended(seqs))
    unique = len(seen)
    expected = max(seen) - min(seen) + 1
    loss_count = expected - unique
    return loss_count, Fraction(loss_count, expected), len(seqs) - unique


def throughput(trace: StreamTrace, window_us: int) -> tuple[tuple[int, int], ...]:
    """Bytes per half-open window [k*w, (k+1)*w) over the active timestamp.

    Only windows containing at least one packet appear in the series. Each
    run of consecutive packets in one window adds its bytes to that window,
    so a window whose packets come in several runs (a trace out of time
    order) sums them all.
    """
    if window_us < 1:
        raise ValueError("window_us must be >= 1")
    sizes = trace.size_bytes
    buckets: dict[int, int] = {}
    end = 0
    for k, run in groupby(trace.active_timestamps(), key=lambda t: t // window_us):
        start, end = end, end + len(list(run))
        buckets[k] = buckets.get(k, 0) + sum(sizes[start:end])
    return tuple((k * window_us, buckets[k]) for k in sorted(buckets))


def metrics_report(trace: StreamTrace, window_us: int = 10**6) -> MetricsReport:
    """Full per-trace report from loss, pdv and throughput; jitter/PDV degrade
    to None when a trace cannot support them (too few packets, missing
    arrival timestamps). The jitter series is the Q64 recurrence over the PDV
    values, which differ from the transit times by one constant."""
    if not len(trace):
        raise InsufficientDataError("metrics need at least 1 packet")
    loss_count, loss_rate, duplicates = loss(trace)
    ts = trace.active_timestamps()
    jitter_series = jitter_final = pdv_values = pdv_stats = None
    if not trace.missing:
        pdv_values, pdv_stats = pdv(trace)
        if len(pdv_values) > 1:
            jitter_series = _jitter_q64(pdv_values)
            jitter_final = Fraction(jitter_series[-1], _JITTER_ONE)
    return MetricsReport(
        jitter_series=jitter_series,
        jitter_final_us=jitter_final,
        pdv_per_packet_us=pdv_values,
        pdv_stats=pdv_stats,
        loss_count=loss_count,
        loss_rate=loss_rate,
        duplicate_count=duplicates,
        throughput_series=throughput(trace, window_us),
        total_bytes=sum(trace.size_bytes),
        total_packets=len(trace),
        duration_us=ts[-1] - ts[0],
    )


def _reduction_pct(before, after) -> Optional[Fraction]:
    if before is None or after is None or before == 0:
        return None
    return Fraction(before - after, before) * 100


def compare(before: StreamTrace, after: StreamTrace,
            window_us: int = 10**6) -> ComparisonReport:
    """Quantify what shaping did: metrics before vs after, added latency per
    surviving packet, and drops introduced (the difference in packet counts).

    `after` is what shaping sent of `before`: the original send timestamps
    with the shaper departure times as arrivals, so jitter/PDV measure
    end-to-end delay variation after shaping. Each packet of `after` is
    matched to the next packet of `before` with its seq, ssrc and send time,
    which shaping leaves alone, so a seq that recurs after a wrap maps to the
    packet of its own period.

    A packet of `after` is measured against the first unmatched copy of its
    key in `before`. That is exact when copies also share their arrival
    time, as in every generated or imported trace. For a hand-written CSV
    with equal (seq, ssrc, send_ts_us) but different arrivals whose first
    copy was dropped, the added latency is measured from the dropped copy.
    """
    _arrived(before, "before: ")
    _arrived(after, "after: ")
    if len(before) and not len(after):
        raise InsufficientDataError("every packet was dropped: there is no shaped trace "
                                    "to compare")
    total, worst = 0, None
    walk = zip(before.seq, before.ssrc, before.send_ts_us, before.recv_ts_us)
    for seq, ssrc, send, recv in zip(after.seq, after.ssrc, after.send_ts_us, after.recv_ts_us):
        for b_seq, b_ssrc, b_send, b_recv in walk:
            if b_seq == seq and b_ssrc == ssrc and b_send == send:
                break
        else:
            raise InconsistentInputError(f"packet (ssrc {ssrc}, seq {seq}) not present "
                                         "in the before trace, in its order")
        added = recv - b_recv
        total += added
        if worst is None or added > worst:
            worst = added

    before_report = metrics_report(before, window_us)
    after_report = metrics_report(after, window_us)
    pdv_before = before_report.pdv_stats["max"] if before_report.pdv_stats else None
    pdv_after = after_report.pdv_stats["max"] if after_report.pdv_stats else None
    return ComparisonReport(
        before=before_report,
        after=after_report,
        pdv_max_reduction_pct=_reduction_pct(pdv_before, pdv_after),
        jitter_final_reduction_pct=_reduction_pct(before_report.jitter_final_us,
                                                  after_report.jitter_final_us),
        added_latency_mean_us=Fraction(total, len(after)) if len(after) else Fraction(0),
        added_latency_max_us=0 if worst is None else worst,
        drops_introduced=len(before) - len(after),
    )


def _format_ratio(num: int, den: int) -> str:
    """num / den (den > 0) as a decimal with at most 6 fractional digits,
    rounded half to even."""
    q, r = divmod(num * 10**6, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    sign = "-" if q < 0 else ""
    whole, frac = divmod(abs(q), 10**6)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + f"{frac:06d}".rstrip("0")


def format_decimal(value) -> str:
    """Exact decimal with at most 6 fractional digits, round-half-even."""
    f = Fraction(value)
    return _format_ratio(f.numerator, f.denominator)


def _millionths(series: Sequence[int]) -> list[int]:
    """Each Q64 jitter value q >= 0 as the number of 1e-6 us in q / 2**64,
    rounded half to even in one pass, with no branch: with x = q * 10**6,
    (x + 2**63 - 1 + (x >> 64 & 1)) >> 64, as the remainder x % 2**64 carries
    when it is above 2**63, and when it is exactly 2**63 (a tie) only if
    x >> 64 is odd. Ties are not rare: the second value of a series is a tie
    whenever the first |D| is 2 mod 4 us."""
    return [(x + ((1 << 63) - 1) + (x >> 64 & 1)) >> 64 for x in map(mul, series, repeat(10**6))]


def format_jitter(q: int) -> str:
    """One MetricsReport.jitter_series value, rendered as format_decimal
    renders the same value in microseconds, as reporting.jitter_csv writes
    each value of a series."""
    return _format_ratio(q, _JITTER_ONE)
