import random
from fractions import Fraction

import pytest

from rtpshape import (AudioGenConfig, ChannelModel, MediaPacket,
                      StreamTrace, TraceFormatError, TraceValidationError,
                      apply_channel, generate_audio, loss, read_trace_csv,
                      validate_trace, write_trace_csv)
from rtpshape.model import TS_MAX


def pkt(seq=0, ssrc=1, pt=96, marker=False, send=0, recv=None, size=125):
    return MediaPacket(seq, ssrc, pt, marker, send, recv, size)


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
])
def test_validate_enforces_the_csv_ranges(packet, message):
    violations = validate_trace(StreamTrace((packet,)))
    assert [v.message for v in violations] == [message]


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


def test_read_out_of_range_seq_is_parse_error():
    data = (b"seq,ssrc,payload_type,marker,send_ts_us,recv_ts_us,size_bytes\n"
            b"70000,1,96,0,0,,125\n")
    with pytest.raises(TraceFormatError, match="seq"):
        read_trace_csv(data)


def test_read_non_integer_field_names_row_and_column():
    data = (b"seq,ssrc,payload_type,marker,send_ts_us,recv_ts_us,size_bytes\n"
            b"0,1,96,0,zero,,125\n")
    with pytest.raises(TraceFormatError, match="row 1.*send_ts_us"):
        read_trace_csv(data)


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
