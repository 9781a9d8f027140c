import random
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtpshape import (AudioGenConfig, ChannelModel, MediaPacket,
                      StreamTrace, TraceFormatError, TraceValidationError,
                      apply_channel, generate_audio, loss, read_trace_csv,
                      validate_trace, write_trace_csv)
from rtpshape.model import _CHUNK_ROWS as CHUNK
from rtpshape.model import SEQ_MOD, TS_MAX

from oracles import refusal_reference, validate_trace_reference


def pkt(seq=0, ssrc=1, pt=96, marker=False, send=0, recv=None, size=125):
    return MediaPacket(seq, ssrc, pt, marker, send, recv, size)


def refusal(*packets):
    """The violations StreamTrace refuses `packets` with."""
    with pytest.raises(TraceValidationError) as exc:
        StreamTrace(packets)
    return exc.value.violations


def test_validate_empty_trace():
    assert validate_trace(StreamTrace(())) == []


def test_validate_unsorted():
    trace = StreamTrace((pkt(seq=0, send=20000), pkt(seq=1, send=10000)))
    violations = validate_trace(trace)
    assert len(violations) == 1
    assert violations[0].index == 1
    assert "unsorted" in violations[0].message


def test_validate_negative_delay():
    trace = StreamTrace((pkt(send=10, recv=5),))
    violations = validate_trace(trace)
    assert len(violations) == 1
    assert "negative delay" in violations[0].message


def test_validate_size_and_ranges():
    trace = StreamTrace((pkt(size=0),))
    assert any("size_bytes" in v.message for v in validate_trace(trace))
    trace = StreamTrace((pkt(seq=70000),))
    assert any("16-bit" in v.message for v in validate_trace(trace))


@pytest.mark.parametrize("packet, message", [
    (pkt(send=-1), "negative send_ts_us"),
    (pkt(send=TS_MAX + 1), f"send_ts_us {TS_MAX + 1} > {TS_MAX}"),
    (pkt(send=0, recv=TS_MAX + 1), f"recv_ts_us {TS_MAX + 1} > {TS_MAX}"),
    (pkt(size=TS_MAX + 1), f"size_bytes {TS_MAX + 1} > {TS_MAX}"),
    # too long for str(): reported, not raised
    (pkt(seq=10**5000), "seq <int too long to print> outside 16-bit range"),
])
def test_validate_enforces_the_csv_ranges(packet, message):
    # outside [-2**63, 2**63 - 1] a value fits no column, so the trace refuses
    # it, with the message validate_trace gives
    if any(type(f) is int and abs(f) > TS_MAX for f in packet):
        assert [v.message for v in refusal(packet)] == [message]
    else:
        assert [v.message for v in validate_trace(StreamTrace((packet,)))] == [message]


@pytest.mark.parametrize("packet, message", [
    (pkt(seq=True), "seq True is not an int"),
    (pkt(ssrc="1"), "ssrc '1' is not an int"),
    (pkt(pt=96.0), "payload_type 96.0 is not an int"),
    (pkt(marker=2), "marker 2 is not True, False, 0 or 1"),
    (pkt(marker=1.0), "marker 1.0 is not True, False, 0 or 1"),
    (pkt(send=None), "send_ts_us None is not an int"),
    (pkt(send=0, recv=Fraction(1, 2)), "recv_ts_us Fraction(1, 2) is not an int"),
    (pkt(size=False), "size_bytes False is not an int"),
    (pkt(send=0, recv=Fraction(10**5000, 3)),
     "recv_ts_us <Fraction too long to print> is not an int"),
])
def test_validate_checks_field_types(packet, message):
    # a field that is not an exact int fits no column (only a marker may be a
    # bool, a recv None), so the trace refuses it, with validate_trace's message
    if type(packet.marker) is int:
        assert [v.message for v in validate_trace(StreamTrace((packet,)))] == [message]
    else:
        assert [v.message for v in refusal(packet)] == [message]


@pytest.mark.parametrize("rows, message", [
    ([(0, 1, 2)], (0, "row of 3 fields, not 7")),
    ([pkt(), (0, 1, 96, 0, 10)], (1, "row of 5 fields, not 7")),
    ([pkt(), (*pkt(send=10), 9)], (1, "row of 8 fields, not 7")),
])
def test_row_of_other_than_seven_fields_is_refused(rows, message):
    assert refusal(*rows) == [message]


def test_mistyped_time_is_reported_and_leaves_the_order_unchecked():
    packets = (pkt(seq=0, send=20), pkt(seq=1, send="10"), pkt(seq=2, send=5))
    assert refusal(*packets) == [(1, "send_ts_us '10' is not an int")]


def test_largest_valid_values_round_trip():
    trace = StreamTrace((pkt(send=TS_MAX, recv=TS_MAX, size=TS_MAX),))
    assert validate_trace(trace) == []
    assert read_trace_csv(write_trace_csv(trace)) == trace


def test_duplicate_is_accepted_and_counted_once_by_loss():
    # a repeated seq is what arrived: valid, and loss counts the copy
    trace = StreamTrace((pkt(seq=4, send=0), pkt(seq=5, send=10), pkt(seq=5, send=20)))
    assert validate_trace(trace) == []
    assert loss(trace) == (0, 0, 1)


def test_ties_keep_any_seq_order():
    # equal timestamps in the order they came in, whatever their seqs
    trace = StreamTrace((pkt(seq=9, send=0, recv=50), pkt(seq=3, send=10, recv=50),
                         pkt(seq=65535, send=20, recv=50), pkt(seq=1, send=30, recv=60)))
    assert validate_trace(trace) == []
    assert read_trace_csv(write_trace_csv(trace)) == trace


def test_seq_reused_after_wrap_is_not_a_duplicate():
    # 70,000 sent at 1/100 loss: every seq below 4,464 comes round twice,
    # fewer than 65,536 packets apart once losses are taken out
    sent = generate_audio(AudioGenConfig(), 1_400_000_000)
    trace = apply_channel(sent, ChannelModel(loss_prob=Fraction(1, 100), seed=1))
    assert len(sent) == 70_000 and len(trace) < 70_000
    assert validate_trace(trace) == []
    assert loss(trace)[2] == 0


def test_duplicate_after_wrap_is_accepted_and_counted_once_by_loss():
    seqs = [k % 65536 for k in range(65536 + 10)] + [5]  # seq 5 of the second cycle, again
    packets = tuple(pkt(seq=s, send=10 * i) for i, s in enumerate(seqs))
    trace = StreamTrace(packets)
    assert validate_trace(trace) == []
    assert loss(trace) == (0, 0, 1)


def test_sorted_by_is_stable_and_keeps_missing_arrivals():
    rows = [pkt(seq=k, send=send, recv=None if k % 3 else send + 5)
            for k, send in enumerate([30, 10, 30, 0, 10, 20])]
    trace = StreamTrace(rows)
    ordered = trace.sorted_by("send_ts_us")
    assert ordered.packets == tuple(sorted(rows, key=lambda p: p.send_ts_us))
    assert list(ordered.missing) == [i for i, p in enumerate(ordered.packets)
                                     if p.recv_ts_us is None]
    assert ordered.sorted_by("send_ts_us") is ordered


@pytest.mark.parametrize("pattern", ["runs", "scattered"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 40, 1000])
def test_select_keeps_the_marked_packets_in_order(pattern, n):
    # a mask of few long runs and one of many short ones, each starting and
    # ending either way, with and without new arrivals
    rng = random.Random(n)
    rows = [pkt(seq=k, send=k, recv=k + rng.randrange(50), size=k + 1) for k in range(n)]
    trace = StreamTrace(rows)
    flip = 0.02 if pattern == "runs" else 0.7
    masks = [bytes(n), b"\x01" * n]
    for first in (0, 1):
        mask = bytearray([first]) * n
        for k in range(1, n):
            mask[k] = mask[k - 1] ^ (rng.random() < flip)
        masks.append(mask)
    for keep in masks:
        kept = [row for row, bit in zip(rows, keep) if bit]
        assert trace.select(keep).packets == tuple(kept)
        recv = array("q", [row.recv_ts_us + 7 for row in kept])
        assert trace.select(keep, recv).packets == \
            tuple(row._replace(recv_ts_us=row.recv_ts_us + 7) for row in kept)


@pytest.mark.parametrize("missing", [False, True])
def test_sorted_by_two_rows_out_of_order(missing):
    # the smallest unsorted trace: its one chunk of rows has 2, so the gather
    # still takes a tuple from its itemgetter
    rows = [pkt(seq=1, send=20, recv=None if missing else 25, size=7),
            pkt(seq=2, marker=True, send=10, recv=15, size=9)]
    ordered = StreamTrace(rows).sorted_by("send_ts_us")
    assert ordered.packets == (rows[1], rows[0])
    assert list(ordered.missing) == ([1] if missing else [])


@pytest.mark.parametrize("n", [3, CHUNK + 1, 2 * CHUNK - 1, 3 * CHUNK + 2])
def test_sorted_by_across_chunks(n):
    # chunks split the rows evenly; ties keep their order across chunk edges
    rng = random.Random(n)
    rows = [pkt(seq=k % SEQ_MOD, send=rng.randrange(n // 3 + 1),
                recv=None if rng.random() < 0.1 else rng.randrange(10**6), size=k + 1)
            for k in range(n)]
    ordered = StreamTrace(rows).sorted_by("send_ts_us")
    assert ordered.packets == tuple(sorted(rows, key=lambda p: p.send_ts_us))
    assert list(ordered.missing) == [i for i, p in enumerate(ordered.packets)
                                     if p.recv_ts_us is None]


def test_second_ssrc_is_flagged():
    # a trace is one stream: each packet on another SSRC than packet 0's is
    # reported, naming both
    seqs = [(5, 1), (5, 2), (30000, 2), (60000, 2), (5, 1)]
    trace = StreamTrace(tuple(pkt(seq=seq, ssrc=ssrc, send=10 * i)
                              for i, (seq, ssrc) in enumerate(seqs)))
    flagged = [v for v in validate_trace(trace) if "differs" in v.message]
    assert [v.index for v in flagged] == [1, 2, 3]
    assert all(v.message == "ssrc 2 differs from packet 0's ssrc 1" for v in flagged)


def test_write_empty_trace_is_header_only():
    data = write_trace_csv(StreamTrace(()))
    assert data == b"seq,ssrc,payload_type,marker,send_ts_us,recv_ts_us,size_bytes\n"


def test_write_single_packet_row():
    trace = StreamTrace((pkt(seq=0, ssrc=1, pt=96, send=0, recv=50000, size=125),))
    lines = write_trace_csv(trace).decode().splitlines()
    assert lines[1] == "0,1,96,0,0,50000,125"


def test_absent_recv_written_as_empty_field():
    trace = StreamTrace((pkt(recv=None),))
    lines = write_trace_csv(trace).decode().splitlines()
    assert lines[1].split(",")[5] == ""


def test_read_header_only():
    trace = read_trace_csv(b"seq,ssrc,payload_type,marker,send_ts_us,recv_ts_us,size_bytes\n")
    assert len(trace) == 0


def test_read_bad_header():
    with pytest.raises(TraceFormatError, match="line 1"):
        read_trace_csv(b"nope\n")


def test_read_zero_size_is_validation_error():
    data = (b"seq,ssrc,payload_type,marker,send_ts_us,recv_ts_us,size_bytes\n"
            b"0,1,96,0,0,,0\n")
    with pytest.raises(TraceValidationError, match="size_bytes"):
        read_trace_csv(data)


def test_validation_message_names_the_first_ten_violations():
    trace = StreamTrace(tuple(pkt(seq=k, send=k, size=0) for k in range(10_000)))
    exc = TraceValidationError(validate_trace(trace))
    assert len(exc.violations) == 10_000
    assert len(str(exc)) < 2048
    assert str(exc).startswith("packet 0: size_bytes 0 < 1; packet 1: ")
    assert str(exc).endswith("; ... and 9990 more")


def test_read_out_of_range_seq_is_validation_error():
    # the reader converts; every range is check_trace's
    data = (b"seq,ssrc,payload_type,marker,send_ts_us,recv_ts_us,size_bytes\n"
            b"70000,1,96,0,0,,125\n")
    with pytest.raises(TraceValidationError, match="seq 70000 outside 16-bit range"):
        read_trace_csv(data)


def test_read_non_integer_field_names_row_and_column():
    data = (b"seq,ssrc,payload_type,marker,send_ts_us,recv_ts_us,size_bytes\n"
            b"0,1,96,0,zero,,125\n")
    with pytest.raises(TraceFormatError, match="row 1.*send_ts_us"):
        read_trace_csv(data)


@pytest.mark.parametrize("marker, message", [
    ("2", "row 1, column marker: not 0 or 1: '2'"),
    ("x", "row 1, column marker: not an integer: 'x'"),
])
def test_read_marker_other_than_0_or_1_is_format_error(marker, message):
    data = (b"seq,ssrc,payload_type,marker,send_ts_us,recv_ts_us,size_bytes\n"
            + f"0,1,96,{marker},0,,125\n".encode("ascii"))
    with pytest.raises(TraceFormatError, match=message):
        read_trace_csv(data)


@pytest.mark.parametrize("marker", ["1", "01", " 1", "+1"])
def test_read_marker_is_any_integer_text_for_1(marker):
    data = (b"seq,ssrc,payload_type,marker,send_ts_us,recv_ts_us,size_bytes\n"
            + f"0,1,96,{marker},0,,125\n".encode("ascii"))
    assert read_trace_csv(data).packets[0].marker is True


def random_valid_trace(rng):
    n = rng.randint(0, 60)
    t = 0
    packets = []
    for k in range(n):
        t += rng.randint(0, 5000)
        recv = None if rng.random() < 0.2 else t + rng.randint(0, 3000)
        packets.append(MediaPacket(k % 65536, 42, rng.randint(0, 127),
                                   rng.random() < 0.1, t, recv,
                                   rng.randint(1, 2000)))
    # the active timestamp flips to recv only when every packet has one
    if any(p.recv_ts_us is None for p in packets):
        packets = [p._replace(recv_ts_us=None) for p in packets]
    else:
        packets.sort(key=lambda p: (p.recv_ts_us, p.seq))
    return StreamTrace(tuple(packets))


def test_csv_round_trip_on_seeded_random_traces():
    rng = random.Random(2024)
    for _ in range(100):
        trace = random_valid_trace(rng)
        if validate_trace(trace):
            continue
        assert read_trace_csv(write_trace_csv(trace)) == trace


# Field values of every kind: ints in and out of each field's range, bools,
# floats, Fractions, None and short strs.
EDGE_INTS = [-1, 0, 1, 127, 128, 65535, 65536, 2**32 - 1, 2**32, TS_MAX, TS_MAX + 1, 10**5000]
ANY_FIELD = st.one_of(st.sampled_from(EDGE_INTS), st.integers(-(2**70), 2**70),
                      st.booleans(), st.floats(), st.fractions(), st.none(),
                      st.text(max_size=3))


@st.composite
def mutated_traces(draw):
    """A trace of up to 8 packets on one or two SSRCs, its sends sorted or not
    and maybe negative, with up to 3 fields replaced by any value."""
    n = draw(st.integers(0, 8))
    sends = draw(st.lists(st.integers(-1000, 10**6), min_size=n, max_size=n))
    if draw(st.booleans()):
        sends.sort()
    ssrcs = draw(st.sampled_from([[7], [7, 8]]))
    delay = draw(st.one_of(st.none(), st.integers(0, 5000)))
    packets = [[draw(st.integers(0, 65535)), draw(st.sampled_from(ssrcs)),
                draw(st.integers(0, 127)), draw(st.sampled_from([True, False, 0, 1])), send,
                None if delay is None else send + delay, draw(st.integers(1, 1500))]
               for send in sends]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        packet = draw(st.sampled_from(packets))
        packet[draw(st.integers(0, 6))] = draw(ANY_FIELD)
    return tuple(MediaPacket(*p) for p in packets)


def fits_a_column(field, value):
    return type(value) is int and -TS_MAX - 1 <= value <= TS_MAX or \
        field == 3 and type(value) is bool or field == 5 and value is None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(packets=mutated_traces())
def test_whatever_validates_round_trips(packets):
    # a trace refuses exactly the rows with a field no column holds;
    # validate_trace reports any other field values without raising, and a
    # trace it accepts reads back equal from what write_trace_csv makes of it
    unfit = [i for i, p in enumerate(packets)
             if not all(fits_a_column(f, v) for f, v in enumerate(p))]
    if unfit:
        assert sorted({v.index for v in refusal(*packets)}) == unfit
        return
    trace = StreamTrace(packets)
    violations = validate_trace(trace)
    assert isinstance(violations, list)
    if not violations:
        assert read_trace_csv(write_trace_csv(trace)) == trace


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(packets=mutated_traces())
def test_violations_equal_the_per_packet_reference(packets):
    # the one rule table names the same violations, in the same order, as the
    # per-packet rules did: in the refusal of rows no column holds, and in
    # validate_trace on any trace built
    if not all(fits_a_column(f, v) for p in packets for f, v in enumerate(p)):
        assert refusal(*packets) == refusal_reference(packets)
    else:
        trace = StreamTrace(packets)
        assert validate_trace(trace) == validate_trace_reference(trace)


def test_arrival_in_order_after_a_departure_below_64_bits_is_not_a_negative_delay():
    # both below -2**63 with recv >= send: only the departure breaks a rule
    packet = pkt(send=-(2**64), recv=-(2**64) + 5)
    assert refusal(packet) == refusal_reference([packet]) == [(0, "negative send_ts_us")]
