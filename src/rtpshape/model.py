"""Packet/trace data model, validation, and the canonical trace CSV format.

Time is integer microseconds everywhere; no floating-point timestamps.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional

SEQ_MOD = 1 << 16
_SEQ_HALF = SEQ_MOD // 2
SSRC_MOD = 1 << 32
PT_MOD = 1 << 7
TS_MAX = 2**63 - 1  # largest timestamp or size an rtpshape CSV holds

CSV_HEADER = "seq,ssrc,payload_type,marker,send_ts_us,recv_ts_us,size_bytes"
_CSV_ROW = "%s,%s,%s,%d,%s,%s,%s\n"
_CHUNK_ROWS = 4096  # rows per `%` format in the writers


class TraceFormatError(ValueError):
    """Trace CSV is malformed (bad header, wrong field count, unparseable or
    out-of-range field)."""


class TraceValidationError(ValueError):
    """A structurally well-formed trace violates a data invariant."""

    def __init__(self, violations: list["Violation"]):
        self.violations = list(violations)
        shown = [f"packet {v.index}: {v.message}" for v in self.violations[:10]]
        if len(self.violations) > 10:
            shown.append(f"... and {len(self.violations) - 10} more")
        super().__init__("; ".join(shown))


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Turn the cyclic garbage collector off for the body, then restore the
    state it was found in, also when the body raises. As a decorator, it
    pauses each call of a function that builds a trace-sized tuple of records.

    CPython never stops tracking a tuple subclass, so every MediaPacket and
    OccupancySample stays tracked, and each full collection walks all of them.
    Pausing is safe because these records hold only ints, bools, None and
    strs, so they cannot form cycles. The collector is one per process: while
    a builder runs, cycles that another thread makes wait for it to finish,
    and builders must not run in several threads at once, since one's exit
    can re-enable the collector under another, or leave it disabled for good.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class MediaPacket(NamedTuple):
    """One RTP-style packet. recv_ts_us is None until a channel or capture
    assigns an arrival time."""

    seq: int
    ssrc: int
    payload_type: int
    marker: bool
    send_ts_us: int
    recv_ts_us: Optional[int]
    size_bytes: int


class Violation(NamedTuple):
    index: int
    message: str


@dataclass(frozen=True)
class StreamTrace:
    """The packets of one stream as they arrived: every packet carries the
    SSRC of the first, and a repeated seq stays in as a duplicate.

    Packets are sorted by the active timestamp (recv_ts_us when every packet
    has one, send_ts_us otherwise); equal timestamps keep the order they
    came in: departure, capture or channel order.
    """

    packets: tuple[MediaPacket, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "packets", tuple(self.packets))

    def __len__(self) -> int:
        return len(self.packets)

    def active_timestamps(self) -> list[int]:
        """Timestamps the trace is ordered by (recv when complete, else send)."""
        recv = [p.recv_ts_us for p in self.packets]
        if None not in recv:
            return recv  # type: ignore[return-value]
        return [p.send_ts_us for p in self.packets]


def extended_seqs(packets: Iterable[MediaPacket]) -> list[int]:
    """The extended (unwrapped) sequence number of each packet.

    Each 16-bit seq becomes the value congruent to it that is nearest the
    extended seq of the previous packet; the first packet keeps its own seq.
    """
    out: list[int] = []
    for p in packets:
        seq = p[0]
        prev = out[-1] if out else seq
        out.append(prev + (seq - prev + _SEQ_HALF) % SEQ_MOD - _SEQ_HALF)
    return out


def validate_trace(trace: StreamTrace) -> list[Violation]:
    """Collect every invariant violation; an empty list means the trace is valid:
    every field in its CSV range, packet 0's SSRC on every packet, and an
    active timestamp that never decreases."""
    out: list[Violation] = []
    ssrc0 = trace.packets[0][1] if trace.packets else None
    for i, (seq, ssrc, pt, _, send, recv, size) in enumerate(trace.packets):
        if not 0 <= seq < SEQ_MOD:
            out.append(Violation(i, f"seq {seq} outside 16-bit range"))
        if not 0 <= ssrc < SSRC_MOD:
            out.append(Violation(i, f"ssrc {ssrc} outside 32-bit range"))
        if ssrc != ssrc0:
            out.append(Violation(i, f"ssrc {ssrc} differs from packet 0's ssrc {ssrc0}"))
        if not 0 <= pt < PT_MOD:
            out.append(Violation(i, f"payload_type {pt} outside 7-bit range"))
        if not 0 <= send <= TS_MAX:
            out.append(Violation(i, "negative send_ts_us" if send < 0
                                 else f"send_ts_us {send} > {TS_MAX}"))
        if not 1 <= size <= TS_MAX:
            out.append(Violation(i, f"size_bytes {size} < 1" if size < 1
                                 else f"size_bytes {size} > {TS_MAX}"))
        if recv is not None and not send <= recv <= TS_MAX:
            out.append(Violation(i, "negative delay: recv_ts_us < send_ts_us" if recv < send
                                 else f"recv_ts_us {recv} > {TS_MAX}"))

    ts = trace.active_timestamps()
    for i, (prev_t, t) in enumerate(zip(ts, ts[1:]), start=1):
        if t < prev_t:
            out.append(Violation(i, "unsorted: active timestamp decreases"))
    return out


def check_trace(trace: StreamTrace) -> StreamTrace:
    """Raise TraceValidationError unless the trace is valid."""
    violations = validate_trace(trace)
    if violations:
        raise TraceValidationError(violations)
    return trace


def _format_rows(template: str, rows: Iterable[tuple]) -> Iterator[str]:
    """`template % row` for each row, one str per chunk of _CHUNK_ROWS rows:
    one C-level format per chunk, with the template repeated once per row.
    Each `%s` gives str(field), which equals the f-string's format(field, "")."""
    rows = iter(rows)
    whole = template * _CHUNK_ROWS
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        n = len(chunk)
        yield (whole if n == _CHUNK_ROWS else template * n) % tuple(chain.from_iterable(chunk))


def write_trace_csv(trace: StreamTrace) -> bytes:
    """Serialize to the canonical trace CSV (ASCII, LF line endings). The
    marker is written 1 or 0 by its truth value, a missing arrival as an
    empty field."""
    packets = trace.packets
    if not set(map(type, map(itemgetter(3), packets))) <= {bool}:
        packets = [p[:3] + (1 if p[3] else 0,) + p[4:] for p in packets]
    # recv_ts_us is the only field validate_trace lets be None
    return b"".join([(CSV_HEADER + "\n").encode("ascii"),
                     *(chunk.replace(",None,", ",,").encode("ascii")
                       for chunk in _format_rows(_CSV_ROW, packets))])


def parse_int(text: str, lo: int, hi: int | float, row: int, col: str) -> int:
    """One integer field of an rtpshape CSV, checked against [lo, hi]."""
    try:
        value = int(text)
    except ValueError:
        raise TraceFormatError(f"row {row}, column {col}: not an integer: {text!r}") from None
    if not lo <= value <= hi:
        raise TraceFormatError(f"row {row}, column {col}: {value} outside [{lo}, {hi}]")
    return value


def csv_rows(data: bytes, header: str, width: int) -> Iterator[tuple[int, list[str]]]:
    """(row number, fields) for each row after the header of an rtpshape CSV
    artifact: ASCII, LF line endings, `width` fields per row."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"non-ASCII input: {exc}") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != header:
        raise TraceFormatError(f"line 1: expected header {header!r}")
    for row, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) != width:
            raise TraceFormatError(f"row {row}: expected {width} fields, got {len(fields)}")
        yield row, fields


def read_trace_csv(data: bytes) -> StreamTrace:
    """Parse the canonical trace CSV back into a validated StreamTrace."""
    packets: list[MediaPacket] = []
    for row, fields in csv_rows(data, CSV_HEADER, 7):
        seq = parse_int(fields[0], 0, SEQ_MOD - 1, row, "seq")
        ssrc = parse_int(fields[1], 0, SSRC_MOD - 1, row, "ssrc")
        pt = parse_int(fields[2], 0, PT_MOD - 1, row, "payload_type")
        marker = parse_int(fields[3], 0, 1, row, "marker")
        send = parse_int(fields[4], 0, TS_MAX, row, "send_ts_us")
        recv = None if fields[5] == "" else parse_int(fields[5], 0, TS_MAX, row, "recv_ts_us")
        size = parse_int(fields[6], -TS_MAX - 1, TS_MAX, row, "size_bytes")
        packets.append(MediaPacket(seq, ssrc, pt, bool(marker), send, recv, size))

    return check_trace(StreamTrace(tuple(packets)))
