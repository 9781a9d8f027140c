import random
import struct

import pytest

from rtpshape import (MediaPacket, PcapError, PcapFormatError, PcapLinkTypeError,
                      PcapTruncatedError, import_pcap, loss, validate_trace)

from oracles import import_pcap_reference


def rtp_payload(ssrc, seq, media_len, pt=96, marker=False, cc=0, rtp_ts=0, ext_words=None,
                pad=0):
    """An RTP payload: `cc` CSRCs, then an extension header of `ext_words`
    words when given, `media_len` bytes of 7s, and `pad` bytes of padding
    ending in its count."""
    b0 = 0x80 | cc | (0 if ext_words is None else 0x10) | (0x20 if pad else 0)
    b1 = pt | (0x80 if marker else 0)
    ext = (b"" if ext_words is None
           else b"\xbe\xde" + struct.pack(">H", ext_words) + bytes(range(1, 4 * ext_words + 1)))
    padding = bytes(pad - 1) + bytes([pad]) if pad else b""
    return (bytes([b0, b1]) + struct.pack(">H", seq) + struct.pack(">I", rtp_ts)
            + struct.pack(">I", ssrc) + bytes(4 * cc) + ext + b"\x07" * media_len + padding)


def ipv4_frame(body, frag=0, options=b""):
    """Ethernet II + an IPv4 header (20 bytes plus `options`) carrying UDP;
    `frag` is the flags and fragment-offset field."""
    ihl = 5 + len(options) // 4
    ip = struct.pack(">BBHHHBBH4s4s", 0x40 | ihl, 0, 4 * ihl + len(body), 0, frag, 64, 17, 0,
                     bytes(4), bytes(4)) + options + body
    eth = bytes(6) + bytes(6) + struct.pack(">H", 0x0800)
    return eth + ip


def udp_frame(payload, sport=5000, dport=5004):
    return ipv4_frame(struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload)


def build_pcap(records, linktype=1, endian=">"):
    out = struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, linktype)
    for ts_us, frame in records:
        out += struct.pack(endian + "IIII", ts_us // 10**6, ts_us % 10**6,
                           len(frame), len(frame))
        out += frame
    return out


def test_single_rtp_packet():
    frame = udp_frame(rtp_payload(ssrc=0xDEADBEEF, seq=7, media_len=125))
    traces = import_pcap(build_pcap([(1_000_000, frame)]))
    assert len(traces) == 1
    trace = traces[0]
    assert len(trace) == 1
    p = trace.packets[0]
    assert (p.ssrc, p.seq, p.size_bytes) == (0xDEADBEEF, 7, 125)
    assert p.recv_ts_us == 0  # offset so the first packet is at 0
    assert p.send_ts_us == p.recv_ts_us


def test_non_rtp_udp_excluded():
    dns = udp_frame(bytes([0x12, 0x34]) + bytes(20), sport=5353, dport=53)
    assert import_pcap(build_pcap([(0, dns)])) == []


def test_four_byte_input_is_format_error():
    with pytest.raises(PcapFormatError):
        import_pcap(b"\xa1\xb2\xc3\xd4")


def test_bad_magic():
    with pytest.raises(PcapFormatError):
        import_pcap(bytes(64))


def test_non_ethernet_link():
    with pytest.raises(PcapLinkTypeError):
        import_pcap(build_pcap([], linktype=101))


def test_truncated_record():
    data = build_pcap([(0, udp_frame(rtp_payload(1, 0, 20)))])
    with pytest.raises(PcapTruncatedError) as exc:
        import_pcap(data[:-5])
    assert exc.value.record_index == 0


def test_swapped_endianness():
    frame = udp_frame(rtp_payload(ssrc=5, seq=1, media_len=60))
    native = build_pcap([(250, frame)])
    swapped = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    swapped += struct.pack("<IIII", 0, 250, len(frame), len(frame)) + frame
    assert import_pcap(native) == import_pcap(swapped)


def test_csrc_and_padding_reduce_media_size():
    payload = rtp_payload(ssrc=9, seq=3, media_len=100, cc=2)
    traces = import_pcap(build_pcap([(0, udp_frame(payload))]))
    assert traces[0].packets[0].size_bytes == 100

    padded = rtp_payload(ssrc=9, seq=4, media_len=0)
    padded = bytes([padded[0] | 0x20]) + padded[1:] + bytes(7) + bytes([8])
    traces = import_pcap(build_pcap([(0, udp_frame(padded))]))
    assert traces == []  # all 8 trailing bytes are padding, no media left


def test_port_filter():
    a = udp_frame(rtp_payload(1, 0, 50), dport=5004)
    b = udp_frame(rtp_payload(2, 0, 50), dport=7000)
    traces = import_pcap(build_pcap([(0, a), (100, b)]), port_filter=5004)
    assert [t.packets[0].ssrc for t in traces] == [1]


def test_streams_split_by_ssrc():
    records = []
    for k in range(4):
        records.append((k * 1000, udp_frame(rtp_payload(10, k, 125))))
        records.append((k * 1000 + 10, udp_frame(rtp_payload(20, k, 100 + 200 * (k % 2)))))
    traces = import_pcap(build_pcap(records))
    by_ssrc = {t.packets[0].ssrc: t for t in traces}
    assert set(by_ssrc) == {10, 20}
    for t in traces:
        assert validate_trace(t) == []


def test_fuzz_total_over_random_blobs():
    rng = random.Random(99)
    for _ in range(2000):
        blob = rng.randbytes(rng.randint(0, 200))
        if rng.random() < 0.3:  # steer some inputs past the magic check
            blob = b"\xa1\xb2\xc3\xd4" + blob
        try:
            traces = import_pcap(blob)
        except PcapError:
            continue
        assert isinstance(traces, list)


MF = 0x2000  # IPv4 "more fragments" flag; the low 13 bits are the offset in 8-byte words


def test_only_first_ipv4_fragment_is_dissected():
    # a 3000-byte datagram in 1480-byte fragments; the second fragment's
    # first 20 bytes happen to read as a UDP header plus an RTP v2 header
    fake = struct.pack(">HHHH", 5000, 5004, 1000, 0) + rtp_payload(0x0BADF00D, 1, 0)
    rtp = rtp_payload(ssrc=0xCAFE, seq=7, media_len=1460) + fake + bytes(1500)
    datagram = struct.pack(">HHHH", 5000, 5004, 8 + len(rtp), 0) + rtp
    first = ipv4_frame(datagram[:1480], frag=MF)
    later = ipv4_frame(datagram[1480:2960], frag=MF | 185)
    dont_fragment = ipv4_frame(datagram[:1480], frag=0x4000)  # as if cut by the snaplen

    assert import_pcap(build_pcap([(0, later)])) == []
    for records in ([(0, first)], [(0, first), (10, later)], [(0, dont_fragment)]):
        traces = import_pcap(build_pcap(records))
        assert [[(p.ssrc, p.size_bytes) for p in t.packets] for t in traces] == \
            [[(0xCAFE, 2980)]]  # sized from the UDP length


def test_streams_in_order_of_first_capture_not_first_time():
    a = udp_frame(rtp_payload(0xA, 0, 50))
    b = udp_frame(rtp_payload(0xB, 0, 60))
    traces = import_pcap(build_pcap([(1000, a), (400, b)]))
    assert [t.packets[0].ssrc for t in traces] == [0xA, 0xB]
    assert [t.packets[0].recv_ts_us for t in traces] == [600, 0]


def test_equal_timestamps_keep_capture_order():
    # 65535 -> 0 is forward across the wrap, so only capture order is right
    records = [(500, udp_frame(rtp_payload(7, seq, 40))) for seq in (65535, 0, 1)]
    records.insert(1, (500, udp_frame(rtp_payload(8, 9, 40))))
    records.append((300, udp_frame(rtp_payload(7, 65534, 40))))
    traces = import_pcap(build_pcap(records))
    assert [[p.seq for p in t.packets] for t in traces] == [[65534, 65535, 0, 1], [9]]
    assert [p.recv_ts_us for p in traces[0].packets] == [0, 200, 200, 200]


def test_duplicated_packet_is_imported_and_counted_by_loss():
    # a mirrored port captured SSRC 1's seq 30 twice
    records = [(k * 20_000 + offset, udp_frame(rtp_payload(ssrc, k, 100)))
               for k in range(50) for ssrc, offset in ((1, 0), (2, 10))]
    records.insert(61, (30 * 20_000 + 5, udp_frame(rtp_payload(1, 30, 100))))
    traces = import_pcap(build_pcap(records))
    assert [(t.packets[0].ssrc, len(t)) for t in traces] == [(1, 51), (2, 50)]
    assert [loss(t) for t in traces] == [(0, 0, 1), (0, 0, 0)]


def test_time_zero_is_the_earliest_rtp_packet():
    noise = udp_frame(bytes([0x12, 0x34]) + bytes(20), sport=5353, dport=53)
    records = [(100, noise), (1000, udp_frame(rtp_payload(1, 0, 50))),
               (700, udp_frame(rtp_payload(2, 0, 50)))]
    traces = import_pcap(build_pcap(records))
    assert [(t.packets[0].ssrc, t.packets[0].recv_ts_us) for t in traces] == [(1, 300), (2, 0)]



def import_both(data):
    """import_pcap(data), asserted equal to the reference dissector's streams."""
    traces = import_pcap(data)
    assert traces == import_pcap_reference(data)
    return traces


def sizes(traces):
    return [[p.size_bytes for p in t.packets] for t in traces]


def test_extension_and_padding_after_csrcs():
    payload = rtp_payload(9, 1, 40, cc=2, ext_words=3, pad=5)
    assert sizes(import_both(build_pcap([(0, udp_frame(payload))]))) == [[40]]


def test_extension_of_zero_words():
    payload = rtp_payload(9, 1, 30, ext_words=0)
    assert sizes(import_both(build_pcap([(0, udp_frame(payload))]))) == [[30]]


def test_extension_length_word_at_the_snaplen():
    # the payload starts 42 bytes into the frame; after 12 + 4 bytes of
    # header and CSRC, the extension's length word ends at byte 20 of it
    frame = udp_frame(rtp_payload(9, 1, 50, cc=1, ext_words=2))
    assert sizes(import_both(build_pcap([(0, frame[:62])]))) == [[50]]  # sized from UDP
    assert import_both(build_pcap([(0, frame[:61])])) == []  # length word cut: skipped


def test_padding_count_byte_at_the_record_end():
    frame = udp_frame(rtp_payload(9, 1, 30, pad=4))
    assert sizes(import_both(build_pcap([(0, frame)]))) == [[30]]
    assert sizes(import_both(build_pcap([(0, frame + b"\x09" * 6)]))) == [[30]]  # Ethernet trailer
    assert import_both(build_pcap([(0, frame[:-1])])) == []  # count byte cut by the snaplen


def test_second_header_byte_splits_into_payload_type_and_marker():
    records = [(0, udp_frame(rtp_payload(1, 0, 20, pt=127, marker=True))),  # b1 = 0xFF
               (10, udp_frame(rtp_payload(2, 0, 20, pt=0)))]  # b1 = 0x00
    traces = import_both(build_pcap(records))
    assert [[(p.payload_type, p.marker) for p in t.packets] for t in traces] == \
        [[(127, True)], [(0, False)]]
    assert [type(p.marker) for t in traces for p in t.packets] == [bool, bool]


def test_little_endian_capture_with_an_ipv4_option_word():
    # IHL 6: a 4-byte option (three NOPs, end of list) before the UDP header;
    # the later fragments begin with bytes that read as UDP + RTP
    option = b"\x01\x01\x01\x00"
    fake = struct.pack(">HHHH", 5000, 5004, 1000, 0) + rtp_payload(0x0BADF00D, 1, 100)
    rtp = rtp_payload(ssrc=0xCAFE, seq=7, media_len=1460)
    datagram = struct.pack(">HHHH", 5000, 5004, 8 + len(rtp) + 1000, 0) + rtp
    records = [(0, ipv4_frame(datagram, frag=MF, options=option)),
               (10, ipv4_frame(fake, frag=MF | 185, options=option)),
               (20, ipv4_frame(fake, frag=0x100, options=option))]
    traces = import_both(build_pcap(records, endian="<"))
    assert [[(p.ssrc, p.recv_ts_us, p.size_bytes) for p in t.packets] for t in traces] == \
        [[(0xCAFE, 0, 2460)]]  # sized from the UDP length


def random_rtp_frame(rng, ssrcs, next_seq):
    """An Ethernet frame that is RTP over UDP over IPv4, or nearly so: each
    layer sometimes carries a field the dissector must bound or reject."""
    ssrc = rng.choice(ssrcs)
    seq = next_seq[ssrc]
    draw = rng.random()  # mostly in order; sometimes a duplicate or a reordering
    step = 0 if draw < 0.01 else -1 if draw < 0.04 else rng.choice((1, 1, 1, 1, 2))
    next_seq[ssrc] = (seq + step) & 0xFFFF
    cc = rng.choice((0, 0, rng.randint(0, 15)))
    b0 = (0x80 if rng.random() < 0.9 else rng.getrandbits(2) << 6) | cc
    ext = b""
    if rng.random() < 0.3:
        b0 |= 0x10
        words = rng.randint(0, 3)
        ext = rng.randbytes(2) + struct.pack(">H", words) + rng.randbytes(4 * words)
    pad = b""
    if rng.random() < 0.3:
        b0 |= 0x20
        n = rng.randint(1, 8) if rng.random() < 0.8 else rng.getrandbits(8)
        pad = bytes(rng.randint(0, 7)) + bytes([n])
    rtp = (struct.pack(">BBHII", b0, rng.getrandbits(8), seq, rng.getrandbits(32), ssrc)
           + rng.randbytes(4 * cc) + ext + rng.randbytes(rng.randint(0, 40)) + pad)
    if rng.random() < 0.1:
        rtp = rtp[:rng.randint(0, len(rtp))]

    ulen = 8 + len(rtp)
    draw = rng.random()
    if draw < 0.05:
        ulen = rng.randint(0, 7)
    elif draw < 0.12:
        ulen += rng.randint(1, 50)  # claims more than the record holds
    elif draw < 0.25:
        ulen -= rng.randint(0, len(rtp))  # bytes past the datagram's end
    port = rng.choice((5004, 5006, 53))
    udp = struct.pack(">HHHH", port, rng.choice((port, 40000)), ulen, 0) + rtp
    if rng.random() < 0.2:
        udp += rng.randbytes(rng.randint(1, 12))  # e.g. Ethernet padding

    ihl = 5 if rng.random() < 0.7 else rng.randint(0, 15)
    options = rng.randbytes(4 * max(ihl - 5, 0))
    version = 4 if rng.random() < 0.95 else rng.choice((0, 6, 15))
    proto = 17 if rng.random() < 0.9 else 6
    frag = rng.choice((0, 0, 0, 0, 0x4000, MF, MF | rng.randint(1, 0x1FFF),
                       rng.randint(1, 0x1FFF)))
    ip = struct.pack(">BBHHHBBH4s4s", version << 4 | ihl, 0,
                     (20 + len(options) + len(udp)) & 0xFFFF, 0, frag, 64, proto, 0,
                     bytes(4), bytes(4))
    return bytes(12) + b"\x08\x00" + ip + options + udp


def random_capture(rng, endian):
    """A small classic pcap: RTP on up to four SSRCs among noise frames,
    with equal and out-of-order timestamps and snaplen-cut records."""
    out = [struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)]
    ssrcs = [rng.getrandbits(32) for _ in range(rng.randint(1, 4))]
    next_seq = {ssrc: rng.randrange(1 << 16) for ssrc in ssrcs}
    ts = rng.randrange(10**6, 10**9) * 10**6
    for _ in range(rng.randint(0, 30)):
        ts += rng.choice((0, 0, 1, 20_000, 20_000, -15_000))
        draw = rng.random()
        if draw < 0.06:
            frame = rng.randbytes(rng.randint(0, 40))
        elif draw < 0.12:
            frame = bytes(12) + rng.choice((b"\x86\xdd", b"\x08\x06")) + rng.randbytes(40)
        else:
            frame = random_rtp_frame(rng, ssrcs, next_seq)
        kept = frame if rng.random() < 0.85 else frame[:rng.randint(0, len(frame))]
        out.append(struct.pack(endian + "IIII", ts // 10**6, ts % 10**6, len(kept), len(frame))
                   + kept)
    if rng.random() < 0.05:
        out.append(rng.randbytes(rng.randint(1, 15)))  # a record header cut short
    return b"".join(out)


def import_outcome(importer, data, port_filter):
    try:
        traces = importer(data, port_filter)
    except PcapError as exc:
        return type(exc), str(exc), getattr(exc, "record_index", None)
    for trace in traces:
        assert validate_trace(trace) == []
        for p in trace.packets:
            assert type(p) is MediaPacket and type(p.marker) is bool
    return traces


def mutated(rng, data):
    if rng.random() < 0.5 or not data:
        return data[:rng.randint(0, len(data))]
    flipped = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        flipped[rng.randrange(len(flipped))] = rng.getrandbits(8)
    return bytes(flipped)


def test_import_matches_reference_dissector():
    rng = random.Random(606)
    streams = 0
    errors: set[type] = set()
    for _ in range(500):
        for endian in "<>":
            capture = random_capture(rng, endian)
            for data in (capture, mutated(rng, capture), mutated(rng, capture)):
                for port_filter in (None, 5004, 40000, 9):
                    got = import_outcome(import_pcap, data, port_filter)
                    assert got == import_outcome(import_pcap_reference, data, port_filter)
                    if isinstance(got, list):
                        streams += len(got)
                    else:
                        errors.add(got[0])
    # the generator reaches the stream builder and every error
    assert streams > 2000
    assert errors == {PcapFormatError, PcapLinkTypeError, PcapTruncatedError}
