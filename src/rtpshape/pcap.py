"""Classic-PCAP ingestion: Ethernet II / IPv4 / UDP dissection with an RTP heuristic.

Deliberately narrow: classic libpcap format only, Ethernet link type.
A frame is dissected when it is Ethernet II carrying IPv4 (header options
allowed) carrying UDP. Only unfragmented datagrams and first fragments are
read: a later fragment (non-zero fragment offset) carries no UDP header
(RFC 791) and is skipped. A UDP payload is treated as RTP when it is at
least 12 bytes long and its version bits read 2; like Wireshark's "decode
as RTP", this is a heuristic, and ``port_filter`` lets callers disambiguate.
A payload cut by the snaplen is sized from the UDP length field.

Ordering contract: one StreamTrace per SSRC, in the order each SSRC first
appears in the file. A stream's packets are sorted by capture timestamp,
and packets with equal timestamps keep their capture order. Time 0 is the
earliest RTP packet's timestamp, wherever in the file it sits.

Captures carry only arrival times, so imported packets get
``send_ts_us == recv_ts_us`` by convention. A duplicated packet is imported
like any other. Each stream is valid by construction (fields read at their
RTP widths, media bytes > 0, one SSRC, sorted times from 0), so it is not
validated again.
"""

from __future__ import annotations

import struct
from array import array
from typing import Optional

from .model import StreamTrace

MAGIC_NATIVE = b"\xa1\xb2\xc3\xd4"
MAGIC_SWAPPED = b"\xd4\xc3\xb2\xa1"
LINKTYPE_ETHERNET = 1
ETHERTYPE_IPV4 = 0x0800
PROTO_UDP = 17

_ENDIAN = {MAGIC_NATIVE: ">", MAGIC_SWAPPED: "<"}
# UDP header (sport, dport, length, checksum skipped) then the fixed RTP
# header (b0, b1, seq, timestamp skipped, ssrc): 20 contiguous bytes
_UDP_RTP = struct.Struct(">HHH2xBBH4xI")
_U16 = struct.Struct(">H")
# Ethernet type, then IPv4 version/IHL, flags + fragment offset and protocol
_ETH_IPV4 = struct.Struct(">HB5xHxB")


class PcapError(Exception):
    """Base class for PCAP import failures."""


class PcapFormatError(PcapError):
    """Input is not a classic PCAP byte stream."""


class PcapTruncatedError(PcapError):
    """A record header or body is cut short."""

    def __init__(self, record_index: int, message: str):
        self.record_index = record_index
        super().__init__(f"record {record_index}: {message}")


class PcapLinkTypeError(PcapError):
    """Capture uses a link type other than Ethernet."""


def import_pcap(data: bytes, port_filter: Optional[int] = None) -> list[StreamTrace]:
    """Parse a classic PCAP byte stream into one StreamTrace per RTP SSRC.

    Arrival timestamps are offset so the earliest RTP packet sits at 0.
    """
    endian = _ENDIAN.get(bytes(data[0:4]))
    if endian is None:
        raise PcapFormatError("missing classic PCAP magic")
    if len(data) < 24:
        raise PcapFormatError("truncated global header")
    network, = struct.unpack_from(endian + "I", data, 20)
    if network != LINKTYPE_ETHERNET:
        raise PcapLinkTypeError(f"unsupported link type {network} (need Ethernet)")

    # Every read below stays inside its record: each offset is checked against
    # the record's end before the bytes at it are read. Nothing is copied out of `data`.
    record_header = struct.Struct(endian + "III").unpack_from
    eth_ipv4 = _ETH_IPV4.unpack_from
    udp_rtp = _UDP_RTP.unpack_from
    u16 = _U16.unpack_from
    # ssrc -> flat rows of 4 ints a packet (capture us, seq, RTP byte 1 = marker
    # and payload type, media bytes), in the order each SSRC first appears
    found: dict[int, list[int]] = {}
    total = len(data)
    end = 24
    record = 0
    while end < total:
        if total - end < 16:
            raise PcapTruncatedError(record, "record header cut short")
        ts_sec, ts_usec, incl_len = record_header(data, end)
        start = end + 16
        end = start + incl_len
        if end > total:
            raise PcapTruncatedError(record, "record body cut short")
        record += 1

        ip = start + 14
        if ip + 20 > end:
            continue  # too short for Ethernet + IPv4
        ethertype, vihl, frag, proto = eth_ipv4(data, ip - 2)
        ihl = (vihl & 0x0F) * 4
        if (ethertype != ETHERTYPE_IPV4 or vihl >> 4 != 4 or ihl < 20 or ip + ihl > end
                or proto != PROTO_UDP or frag & 0x1FFF):
            continue  # not UDP in IPv4, or a later fragment (its first bytes are not UDP)
        udp = ip + ihl
        if udp + 20 > end:
            continue  # no room for UDP plus a 12-byte RTP header
        sport, dport, ulen, b0, b1, seq, ssrc = udp_rtp(data, udp)
        if port_filter is not None and port_filter != sport and port_filter != dport:
            continue
        payload_len = ulen - 8
        if payload_len < 12 or b0 >> 6 != 2:
            continue
        media = payload_len - 12 - 4 * (b0 & 0x0F)
        if b0 & 0x30:  # an extension header or padding
            rtp = udp + 8
            avail = min(payload_len, end - rtp)  # snaplen may cut the datagram
            if b0 & 0x10:
                header_len = 12 + 4 * (b0 & 0x0F)
                if avail < header_len + 4:
                    continue
                media -= 4 + 4 * u16(data, rtp + header_len + 2)[0]
            if b0 & 0x20:
                if payload_len > avail:
                    continue  # snaplen cut the padding byte off; cannot size it
                media -= data[rtp + payload_len - 1]
        if media > 0:
            rows = found.get(ssrc)
            if rows is None:
                rows = found[ssrc] = []
            rows += (ts_sec * 10**6 + ts_usec, seq, b1, media)

    t0 = min((min(rows[0::4]) for rows in found.values()), default=0)
    traces = []
    for ssrc, rows in found.items():  # each column is a stride-4 slice of the rows
        b1 = rows[2::4]
        pt, marker = array("q", [b & 0x7F for b in b1]), array("q", [b >> 7 for b in b1])
        rel = array("q", [t - t0 for t in rows[0::4]])
        trace = StreamTrace._of(array("q", rows[1::4]), array("q", [ssrc]) * len(rel), pt, marker,
                                rel, rel, array("q", rows[3::4]), array("q"))
        traces.append(trace.sorted_by("send_ts_us"))  # by capture time, stably
    return traces
