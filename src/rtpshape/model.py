"""Packet/trace data model, the trace contract (each rule stated once, in _RULES)
and the canonical trace CSV format. Time is integer microseconds."""

from __future__ import annotations

import re
from array import array
from itertools import islice
from operator import itemgetter, le, lt
from typing import AnyStr, Iterable, Iterator, NamedTuple, Optional, Sequence

SEQ_MOD = 1 << 16
_SEQ_HALF = SEQ_MOD // 2
SSRC_MOD = 1 << 32
PT_MOD = 1 << 7
TS_MAX = 2**63 - 1  # largest timestamp or size an rtpshape CSV (or a column) holds
US_PER_S = 10**6

_CHUNK_ROWS = 4096  # rows per `%` format in the writers
_KEPT_RUN = re.compile(b"\x01+")  # a run of kept packets in a keep mask


class TraceFormatError(ValueError):
    """A trace CSV is malformed: not ASCII, a bad header or field count, or a
    field that does not parse."""


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


CSV_HEADER = ",".join(MediaPacket._fields)
_CSV_ROW = ",".join(["%s"] * len(MediaPacket._fields)) + "\n"
_CSV_ROW_BYTES = (",".join(["%d"] * len(MediaPacket._fields)) + "\n").encode("ascii")

# Each field's rule, in the order a packet's violations are named: its bounds in
# a valid trace, and its message for an int below and for one above them ("{}"
# shows it). The recv_ts_us rule bounds the delay, recv_ts_us - send_ts_us, which
# has no upper bound; its message above is for a row's int past 64 bits.
_RULES = (("seq", 0, SEQ_MOD - 1, *["seq {} outside 16-bit range"] * 2),
          ("ssrc", 0, SSRC_MOD - 1, *["ssrc {} outside 32-bit range"] * 2),
          ("payload_type", 0, PT_MOD - 1, *["payload_type {} outside 7-bit range"] * 2),
          ("marker", 0, 1, *["marker {} is not True, False, 0 or 1"] * 2),
          ("send_ts_us", 0, TS_MAX, "negative send_ts_us", f"send_ts_us {{}} > {TS_MAX}"),
          ("size_bytes", 1, TS_MAX, "size_bytes {} < 1", f"size_bytes {{}} > {TS_MAX}"),
          ("recv_ts_us", 0, None, "negative delay: recv_ts_us < send_ts_us",
           f"recv_ts_us {{}} > {TS_MAX}"))


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
        """Columns from rows. A row of other than 7 fields, or a field no column
        holds (not an exact int, but for a bool marker or None recv_ts_us, or
        outside [-2**63, TS_MAX]), raises the TraceValidationError of _refusal."""
        rows = tuple(packets)
        try:
            cols = list(zip(*rows, strict=True)) or [()] * 7
            if len(cols) != 7 or not all(set(map(type, c)) <= t for c, t in zip(cols, _TYPES)):
                raise TypeError
            missing = [i for i, recv in enumerate(cols[5]) if recv is None]
            if missing:
                cols[5] = [s if r is None else r for s, r in zip(cols[4], cols[5])]
            super().__init__(*(array("q", c) for c in cols), array("q", missing))
        except (TypeError, ValueError, OverflowError):
            raise TraceValidationError(_refusal(rows)) from None

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
        given; without, every packet must have arrived. Each column is copied
        a run of kept packets at a time into an array of the kept size: a
        channel's or a shaper's losses leave few runs."""
        runs = [run.span() for run in _KEPT_RUN.finditer(keep)]
        size = keep.count(1)

        def take(column: array) -> array:
            out, at = array("q", [0]) * size, 0
            with memoryview(out) as dst, memoryview(column) as src:
                for start, stop in runs:  # view to view, with no copy of the run first
                    dst[at:at + stop - start] = src[start:stop]
                    at += stop - start
            return out
        cols = self.columns()
        kept = [take(c) for c in cols[:5] + cols[6:]]
        kept.insert(5, take(cols[5]) if recv is None else recv)
        return StreamTrace._of(*kept, array("q"))

    def sorted_by(self, name: str) -> StreamTrace:
        """The packets stably sorted by column `name`; the trace itself when they
        already are. The columns are gathered a chunk of about _CHUNK_ROWS rows
        at a time, by one itemgetter per chunk, so that only one chunk's rows
        and values are alive as ints. The chunks split the rows evenly: an
        unsorted trace has at least 2 rows, so each chunk has 2 or more, and
        its getter returns a tuple."""
        key = getattr(self, name)
        if all(map(le, key, islice(key, 1, None))):
            return self
        order = array("q", sorted(range(len(key)), key=key.__getitem__))
        missing = set(self.missing)
        missing = array("q", [k for k, i in enumerate(order) if i in missing] if missing else ())
        columns = [array("q", [0]) * len(key) for _ in MediaPacket._fields]
        chunks = -(-len(key) // _CHUNK_ROWS)
        bounds = [len(key) * k // chunks for k in range(chunks + 1)]
        for start, stop in zip(bounds, bounds[1:]):
            rows = itemgetter(*order[start:stop])
            for out, column in zip(columns, self.columns()):
                out[start:stop] = array("q", rows(column))
        return StreamTrace._of(*columns, missing)


def _show(value: object) -> str:
    try:
        return repr(value)
    except ValueError:  # an int of more digits than sys.get_int_max_str_digits()
        return f"<{type(value).__name__} too long to print>"


def _refusal(rows: Sequence[Sequence]) -> Iterator[Violation]:
    """Each row of other than 7 fields, and each field no column holds, named by
    its rule: a wrong type as not an int (the marker by its own message), and an
    int past 64 bits by the message for its side of the bounds."""
    for i, row in enumerate(rows):
        if len(row) != 7:
            yield Violation(i, f"row of {len(row)} fields, not 7")
            continue
        fields = dict(zip(MediaPacket._fields, zip(row, _TYPES)))
        for name, lo, _, below, above in _RULES:
            value, types = fields[name]
            if type(value) not in types:
                message = below if name == "marker" else name + " {} is not an int"
            elif value is None or -TS_MAX - 1 <= value <= TS_MAX:
                continue
            else:  # None for an arrival and a departure both below -2**63, in order
                base = row[4] if name == "recv_ts_us" and type(row[4]) is int else 0
                message = below if value - base < lo else above if value > TS_MAX else None
            if message:
                yield Violation(i, message.format(_show(value)))


def validate_trace(trace: StreamTrace) -> list[Violation]:
    """Every violation of the trace contract ([] means valid; never raises): the
    rules of _RULES, one SSRC, and active timestamps that never decrease. Each rule
    is screened by its column's min and max (the delay in one pass) and named from
    the columns only when its screen fails: by packet in rule order, order last."""
    send, out = trace.send_ts_us, []
    for name, lo, hi, below, above in _RULES:
        column = getattr(trace, name)
        if name == "recv_ts_us":
            if any(map(lt, column, send)):
                out += [Violation(i, below) for i, (s, r) in enumerate(zip(send, column)) if r < s]
        elif min(column, default=lo) < lo or max(column, default=hi) > hi:
            out += [Violation(i, (below if v < lo else above).format(v))
                    for i, v in enumerate(column) if not lo <= v <= hi]
        if name == "ssrc" and min(column, default=0) != max(column, default=0):
            out += [Violation(i, f"ssrc {v} differs from packet 0's ssrc {column[0]}")
                    for i, v in enumerate(column) if v != column[0]]
    out.sort(key=itemgetter(0))
    ts = trace.active_timestamps()
    if not all(map(le, ts, islice(ts, 1, None))):
        out += [Violation(i, "unsorted: active timestamp decreases")
                for i, (prev_t, t) in enumerate(zip(ts, islice(ts, 1, None)), start=1)
                if t < prev_t]
    return out


def check_trace(trace: StreamTrace) -> StreamTrace:
    """Raise TraceValidationError unless the trace is valid."""
    if violations := validate_trace(trace):
        raise TraceValidationError(violations)
    return trace


def _format_columns(template: AnyStr, *columns: Sequence) -> Iterator[AnyStr]:
    """`template % row` for each row of the equal-length columns, one str (or
    bytes, for a bytes template) per chunk of _CHUNK_ROWS rows: one C-level
    format per chunk, with the template repeated once per row and the columns
    interleaved by slice assignment. Each `%s` gives str(field), which equals
    the f-string's format(field, ""), and so does `%d` for an int field."""
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
    accepts reads back equal. A trace whose every packet has arrived is written
    straight to bytes by `%d`; one with a missing arrival is formatted as str,
    with None for that field, which is then blanked, because `%d` has no blank."""
    header = (CSV_HEADER + "\n").encode("ascii")
    if not trace.missing:
        return b"".join([header, *_format_columns(_CSV_ROW_BYTES, *trace.columns())])
    columns = (*trace.columns()[:5], trace.arrivals(), trace.size_bytes)
    return b"".join([header, *(chunk.replace(",None,", ",,").encode("ascii")
                               for chunk in _format_columns(_CSV_ROW, *columns))])


def _to_int(text: str, row: int, col: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise TraceFormatError(f"row {row}, column {col}: not an integer: {text!r}") from None


def parse_trace_csv(data: bytes) -> StreamTrace:
    """The trace a canonical trace CSV holds, not yet checked: ASCII, LF line
    endings, the header, then 7 fields per row. A TraceFormatError names the row
    and column of a non-integer field or non-0/1 marker."""
    try:
        lines = data.decode("ascii").removesuffix("\n").split("\n")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"non-ASCII input: {exc}") from None
    if lines[0] != CSV_HEADER:
        raise TraceFormatError(f"line 1: expected header {CSV_HEADER!r}")
    rows = []
    for row, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) != 7:
            raise TraceFormatError(f"row {row}: expected 7 fields, got {len(fields)}")
        values = [None if text == "" and col == "recv_ts_us" else _to_int(text, row, col)
                  for col, text in zip(MediaPacket._fields, fields)]
        if values[3] not in (0, 1):
            raise TraceFormatError(f"row {row}, column marker: not 0 or 1: {fields[3]!r}")
        rows.append(values)
    del lines  # about 90 B a row, freed before the columns are built
    return StreamTrace(rows)


def read_trace_csv(data: bytes) -> StreamTrace:
    """Parse the canonical trace CSV into a StreamTrace that check_trace accepts."""
    return check_trace(parse_trace_csv(data))
