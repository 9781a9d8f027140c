"""Packet/trace data model, the trace contract (all of it in validate_trace, field
types included) and the canonical trace CSV format. Time is integer microseconds."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple, Optional

SEQ_MOD = 1 << 16
_SEQ_HALF = SEQ_MOD // 2
SSRC_MOD = 1 << 32
PT_MOD = 1 << 7
TS_MAX = 2**63 - 1  # largest timestamp or size an rtpshape CSV holds

CSV_HEADER = "seq,ssrc,payload_type,marker,send_ts_us,recv_ts_us,size_bytes"
_COLUMNS = CSV_HEADER.split(",")
_CSV_ROW = "%s,%s,%s,%d,%s,%s,%s\n"
_CHUNK_ROWS = 4096  # rows per `%` format in the writers


class TraceFormatError(ValueError):
    """An rtpshape CSV is malformed: a bad header or field count, or a field
    that does not parse (or is outside a stage CSV's range)."""


class TraceValidationError(ValueError):
    """A trace breaks validate_trace's contract; names each violation's packet and field."""

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


def _show(value: object) -> str:
    try:
        return repr(value)
    except ValueError:  # an int of more digits than sys.get_int_max_str_digits()
        return f"<{type(value).__name__} too long to print>"


def _bad(name: str, value: object, rule: str) -> str:
    return f"{name} {_show(value)} {rule if type(value) is int else 'is not an int'}"


def validate_trace(trace: StreamTrace) -> list[Violation]:
    """Every violation of the trace contract, which only this function states ([] means
    valid; never raises): exact ints (not bools) in the CSV ranges, recv_ts_us or None,
    marker True/False/0/1, one SSRC, and int times that never decrease."""
    out: list[Violation] = []
    ssrc0 = trace.packets[0][1] if trace.packets else None
    for i, (seq, ssrc, pt, marker, send, recv, size) in enumerate(trace.packets):
        if type(seq) is not int or not 0 <= seq < SEQ_MOD:
            out.append(Violation(i, _bad("seq", seq, "outside 16-bit range")))
        if type(ssrc) is not int or not 0 <= ssrc < SSRC_MOD:
            out.append(Violation(i, _bad("ssrc", ssrc, "outside 32-bit range")))
        if ssrc != ssrc0:
            out.append(Violation(i, f"ssrc {_show(ssrc)} differs from packet 0's ssrc "
                                    f"{_show(ssrc0)}"))
        if type(pt) is not int or not 0 <= pt < PT_MOD:
            out.append(Violation(i, _bad("payload_type", pt, "outside 7-bit range")))
        if type(marker) not in (bool, int) or marker not in (0, 1):
            out.append(Violation(i, f"marker {_show(marker)} is not True, False, 0 or 1"))
        if type(send) is not int or not 0 <= send <= TS_MAX:
            out.append(Violation(i, "negative send_ts_us" if type(send) is int and send < 0
                                 else _bad("send_ts_us", send, f"> {TS_MAX}")))
        if type(size) is not int or not 1 <= size <= TS_MAX:
            out.append(Violation(i, _bad("size_bytes", size, "< 1" if type(size) is int
                                         and size < 1 else f"> {TS_MAX}")))
        lo = send if type(send) is int else 0  # recv's lower bound
        if recv is not None and (type(recv) is not int or not lo <= recv <= TS_MAX):
            out.append(Violation(i, "negative delay: recv_ts_us < send_ts_us"
                                 if type(recv) is int and recv < lo
                                 else _bad("recv_ts_us", recv, f"> {TS_MAX}")))
    ts = trace.active_timestamps()
    if set(map(type, ts)) <= {int}:
        for i, (prev_t, t) in enumerate(zip(ts, ts[1:]), start=1):
            if t < prev_t:
                out.append(Violation(i, "unsorted: active timestamp decreases"))
    return out


def check_trace(trace: StreamTrace) -> StreamTrace:
    """Raise TraceValidationError unless the trace is valid."""
    if violations := validate_trace(trace):
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
    """Serialize to the canonical trace CSV (ASCII, LF line endings): the marker
    as 1 or 0, a missing arrival (the one None validate_trace allows) as an empty
    field. A trace that validate_trace accepts reads back equal."""
    return b"".join([(CSV_HEADER + "\n").encode("ascii"),
                     *(chunk.replace(",None,", ",,").encode("ascii")
                       for chunk in _format_rows(_CSV_ROW, trace.packets))])


def _to_int(text: str, row: int, col: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise TraceFormatError(f"row {row}, column {col}: not an integer: {text!r}") from None


def parse_int(text: str, lo: int, hi: int | float, row: int, col: str) -> int:
    """One integer field of an rtpshape CSV, checked against [lo, hi]."""
    if not lo <= (value := _to_int(text, row, col)) <= hi:
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
    """Parse the canonical trace CSV into a StreamTrace that check_trace accepts. A
    TraceFormatError names the row and column of a non-integer field or non-0/1 marker."""
    packets: list[MediaPacket] = []
    for row, fields in csv_rows(data, CSV_HEADER, 7):
        seq, ssrc, pt, marker, send, recv, size = [
            None if text == "" and col == "recv_ts_us" else _to_int(text, row, col)
            for col, text in zip(_COLUMNS, fields)]
        if marker not in (0, 1):
            raise TraceFormatError(f"row {row}, column marker: not 0 or 1: {fields[3]!r}")
        packets.append(MediaPacket(seq, ssrc, pt, marker == 1, send, recv, size))
    return check_trace(StreamTrace(tuple(packets)))
