"""Packet/trace data model, the trace contract (all of it in validate_trace, field
types included) and the canonical trace CSV format. Time is integer microseconds."""

from __future__ import annotations

from array import array
from itertools import compress, islice
from operator import le, lt
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

SEQ_MOD = 1 << 16
_SEQ_HALF = SEQ_MOD // 2
SSRC_MOD = 1 << 32
PT_MOD = 1 << 7
TS_MAX = 2**63 - 1  # largest timestamp or size an rtpshape CSV (or a column) holds

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


class MediaPacket(NamedTuple):
    """One RTP-style packet: a row of a StreamTrace. recv_ts_us is None until a
    channel or capture assigns an arrival time."""

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


class _Record:
    """A record built from its columns, one value per slot in slot order; equal
    when every slot is."""

    __slots__ = ()

    def __init__(self, *columns):
        for name, value in zip(self.__slots__, columns, strict=True):
            setattr(self, name, value)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and \
            all(getattr(self, k) == getattr(other, k) for k in self.__slots__)


_MARKERS = {0: False, 1: True}  # a marker's row view (any other value shows as is)
# The types a column takes from each field of a row: a marker may be a bool,
# and a missing arrival (None) is held in `missing`.
_TYPES = ({int},) * 3 + ({int, bool}, {int}, {int, type(None)}, {int})


class StreamTrace(_Record):
    """The packets of one stream as they arrived: every packet carries the
    SSRC of the first, and a repeated seq stays in as a duplicate. Packets are
    sorted by the active timestamp (recv_ts_us when every packet has one,
    send_ts_us otherwise); equal timestamps keep the order they came in.

    Each MediaPacket field is an array('q') column of that name, the marker
    as 0 or 1. `missing` lists the packets without an arrival (ascending),
    whose recv_ts_us column holds their send_ts_us. Rows are its public input
    form, and `packets` is its row view.
    """

    __slots__ = (*MediaPacket._fields, "missing")

    def __init__(self, packets: Iterable[MediaPacket]):
        """Columns from rows. A field no column holds (not an exact int, but for
        a bool marker or None recv_ts_us, or outside [-2**63, TS_MAX]) raises
        the TraceValidationError of validate_trace's rules for it."""
        rows = tuple(packets)
        cols = list(zip(*rows)) or [()] * 7
        missing = [i for i, recv in enumerate(cols[5]) if recv is None]
        if missing:
            cols[5] = [s if r is None else r for s, r in zip(cols[4], cols[5])]
        try:
            if not all(set(map(type, c)) <= t for c, t in zip(cols, _TYPES)):
                raise TypeError
            super().__init__(*(array("q", c) for c in cols), array("q", missing))
        except (TypeError, OverflowError):
            raise TraceValidationError([
                Violation(i, message) for i, row in enumerate(rows)
                for field, message in _field_problems(row, None)
                if not _fits(field, row[field])]) from None

    @classmethod
    def _of(cls, *columns: array) -> StreamTrace:
        """A trace from its seven columns and `missing`, taken as they are."""
        trace = object.__new__(cls)
        _Record.__init__(trace, *columns)
        return trace

    def __len__(self) -> int:
        return len(self.seq)

    def columns(self) -> tuple[array, ...]:
        return tuple(getattr(self, name) for name in MediaPacket._fields)

    def arrivals(self) -> Sequence[Optional[int]]:
        """The recv_ts_us column, with None for each missing arrival."""
        if not self.missing:
            return self.recv_ts_us
        recv: list[Optional[int]] = list(self.recv_ts_us)
        for i in self.missing:
            recv[i] = None
        return recv

    @property
    def packets(self) -> tuple[MediaPacket, ...]:
        """The rows, built from the columns on each access (O(n) every time)."""
        return tuple(map(MediaPacket, self.seq, self.ssrc, self.payload_type,
                         map(_MARKERS.get, self.marker, self.marker), self.send_ts_us,
                         self.arrivals(), self.size_bytes))

    def active_timestamps(self) -> array:
        """Timestamps the trace is ordered by (recv when complete, else send)."""
        return self.send_ts_us if self.missing else self.recv_ts_us

    def select(self, keep: bytes, recv: Optional[array] = None) -> StreamTrace:
        """The packets whose byte in `keep` is 1, with the arrivals `recv` if
        given; without, every packet must have arrived."""
        cols = self.columns()
        kept = [array("q", compress(c, keep)) for c in cols[:5] + cols[6:]]
        kept.insert(5, array("q", compress(cols[5], keep)) if recv is None else recv)
        return StreamTrace._of(*kept, array("q"))

    def sorted_by(self, name: str) -> StreamTrace:
        """The packets stably sorted by column `name`; the trace itself when they
        already are."""
        key = getattr(self, name)
        if all(map(le, key, islice(key, 1, None))):
            return self
        order = sorted(range(len(key)), key=key.__getitem__)
        missing = set(self.missing)
        return StreamTrace._of(*(array("q", map(c.__getitem__, order)) for c in self.columns()),
                               array("q", [k for k, i in enumerate(order) if i in missing]))


def _show(value: object) -> str:
    try:
        return repr(value)
    except ValueError:  # an int of more digits than sys.get_int_max_str_digits()
        return f"<{type(value).__name__} too long to print>"


def _bad(name: str, value: object, rule: str) -> str:
    return f"{name} {_show(value)} {rule if type(value) is int else 'is not an int'}"


def _fits(field: int, value: object) -> bool:
    """Whether a column holds the value of field number `field` of a row."""
    return type(value) in _TYPES[field] and (value is None or -TS_MAX - 1 <= value <= TS_MAX)


def _field_problems(row, ssrc0) -> Iterator[tuple[int, str]]:
    """The rules of one packet: (field number, message) for each one it breaks.
    Exact ints (not bools) in the CSV ranges, recv_ts_us or None, marker
    True/False/0/1, and the SSRC `ssrc0` (if not None)."""
    seq, ssrc, pt, marker, send, recv, size = row
    if type(seq) is not int or not 0 <= seq < SEQ_MOD:
        yield 0, _bad("seq", seq, "outside 16-bit range")
    if type(ssrc) is not int or not 0 <= ssrc < SSRC_MOD:
        yield 1, _bad("ssrc", ssrc, "outside 32-bit range")
    if ssrc0 is not None and ssrc != ssrc0:
        yield 1, f"ssrc {_show(ssrc)} differs from packet 0's ssrc {_show(ssrc0)}"
    if type(pt) is not int or not 0 <= pt < PT_MOD:
        yield 2, _bad("payload_type", pt, "outside 7-bit range")
    if type(marker) not in (bool, int) or marker not in (0, 1):
        yield 3, f"marker {_show(marker)} is not True, False, 0 or 1"
    if type(send) is not int or not 0 <= send <= TS_MAX:
        yield 4, "negative send_ts_us" if type(send) is int and send < 0 \
            else _bad("send_ts_us", send, f"> {TS_MAX}")
    if type(size) is not int or not 1 <= size <= TS_MAX:
        yield 6, _bad("size_bytes", size, "< 1" if type(size) is int and size < 1
                      else f"> {TS_MAX}")
    lo = send if type(send) is int else 0  # recv's lower bound
    if recv is not None and (type(recv) is not int or not lo <= recv <= TS_MAX):
        yield 5, "negative delay: recv_ts_us < send_ts_us" if type(recv) is int and recv < lo \
            else _bad("recv_ts_us", recv, f"> {TS_MAX}")


# Each column's range in a valid trace.
_RANGES = ((0, SEQ_MOD - 1), (0, SSRC_MOD - 1), (0, PT_MOD - 1), (0, 1), (0, TS_MAX),
           (0, TS_MAX), (1, TS_MAX))


def validate_trace(trace: StreamTrace) -> list[Violation]:
    """Every violation of the trace contract, which only this function states ([] means
    valid; never raises): the rules of _field_problems, one SSRC, and times that
    never decrease. Each column is screened by its min and max, arrivals against
    departures and the active timestamps for order; the per-packet rules run only
    to name the violations."""
    ts = trace.active_timestamps()
    if not len(trace) or (
            all(lo <= min(c) and max(c) <= hi for c, (lo, hi) in zip(trace.columns(), _RANGES))
            and min(trace.ssrc) == max(trace.ssrc)
            and not any(map(lt, trace.recv_ts_us, trace.send_ts_us))
            and all(map(le, ts, islice(ts, 1, None)))):
        return []
    ssrc0 = trace.ssrc[0]
    out = [Violation(i, message) for i, row in enumerate(trace.packets)
           for _, message in _field_problems(row, ssrc0)]
    return out + [Violation(i, "unsorted: active timestamp decreases")
                  for i, (prev_t, t) in enumerate(zip(ts, islice(ts, 1, None)), start=1)
                  if t < prev_t]


def check_trace(trace: StreamTrace) -> StreamTrace:
    """Raise TraceValidationError unless the trace is valid."""
    if violations := validate_trace(trace):
        raise TraceValidationError(violations)
    return trace


def _format_columns(template: str, *columns: Sequence) -> Iterator[str]:
    """`template % row` for each row of the equal-length columns, one str per
    chunk of _CHUNK_ROWS rows: one C-level format per chunk, with the template
    repeated once per row and the columns interleaved by slice assignment.
    Each `%s` gives str(field), which equals the f-string's format(field, "")."""
    width, n = len(columns), len(columns[0])
    whole = template * _CHUNK_ROWS
    for start in range(0, n, _CHUNK_ROWS):
        m = min(_CHUNK_ROWS, n - start)
        args: list = [None] * (width * m)
        for k, column in enumerate(columns):
            args[k::width] = column[start:start + m]
        yield (whole if m == _CHUNK_ROWS else template * m) % tuple(args)


def write_trace_csv(trace: StreamTrace) -> bytes:
    """Serialize to the canonical trace CSV (ASCII, LF line endings): the marker
    as 1 or 0, a missing arrival as an empty field. A trace that validate_trace
    accepts reads back equal."""
    columns = (*trace.columns()[:5], trace.arrivals(), trace.size_bytes)
    return b"".join([(CSV_HEADER + "\n").encode("ascii"),
                     *(chunk.replace(",None,", ",,").encode("ascii")
                       for chunk in _format_columns(_CSV_ROW, *columns))])


def _to_int(text: str, row: int, col: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise TraceFormatError(f"row {row}, column {col}: not an integer: {text!r}") from None


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


def parse_trace_csv(data: bytes) -> StreamTrace:
    """The trace a canonical trace CSV holds, not yet checked. A TraceFormatError
    names the row and column of a non-integer field or non-0/1 marker."""
    rows = []
    for row, fields in csv_rows(data, CSV_HEADER, 7):
        values = [None if text == "" and col == "recv_ts_us" else _to_int(text, row, col)
                  for col, text in zip(_COLUMNS, fields)]
        if values[3] not in (0, 1):
            raise TraceFormatError(f"row {row}, column marker: not 0 or 1: {fields[3]!r}")
        rows.append(values)
    return StreamTrace(rows)


def read_trace_csv(data: bytes) -> StreamTrace:
    """Parse the canonical trace CSV into a StreamTrace that check_trace accepts."""
    return check_trace(parse_trace_csv(data))
