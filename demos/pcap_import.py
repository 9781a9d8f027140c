"""Walkthrough: importing RTP streams from a packet capture and measuring
their jitter.

To stay self-contained, the demo first assembles a tiny classic-format pcap
in memory: one audio-like stream (constant 160-byte packets every 20 ms with
wobbly capture timestamps) interleaved with DNS noise that the importer must
ignore. It then imports the capture and runs the standard metrics over
the stream.

Run with:  python3 demos/pcap_import.py
"""

import random
import struct

from rtpshape import StreamTrace, format_decimal, import_pcap, metrics_report


def rtp_packet(ssrc, seq, payload_len):
    header = bytes([0x80, 0x00]) + struct.pack(">HII", seq, seq * 160, ssrc)
    return header + bytes(payload_len)


def udp_frame(payload, sport, dport):
    udp = struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload
    ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 20 + len(udp), 0, 0, 64, 17, 0,
                     bytes(4), bytes(4)) + udp
    return bytes(12) + struct.pack(">H", 0x0800) + ip


def build_capture():
    rng = random.Random(21)
    out = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    records = []
    for k in range(100):
        ts = 1_700_000_000_000_000 + 20000 * k + rng.randint(0, 8000)
        records.append((ts, udp_frame(rtp_packet(0xCAFE, k, 160), 5000, 5004)))
        if k % 10 == 0:  # sprinkle in non-RTP noise
            records.append((ts + 1, udp_frame(bytes(30), 5353, 53)))
    records.sort()
    for ts, frame in records:
        out += struct.pack(">IIII", ts // 10**6, ts % 10**6, len(frame), len(frame))
        out += frame
    return out


def main():
    capture = build_capture()
    print(f"capture: {len(capture)} bytes")

    traces = import_pcap(capture)
    print(f"imported {len(traces)} RTP stream(s); the DNS noise was skipped")

    trace = traces[0]
    p = trace.packets[0]
    print(f"stream ssrc=0x{p.ssrc:X}, {len(trace)} packets of {p.size_bytes} bytes")

    report = metrics_report(trace)
    print(f"duration: {report.duration_us} us, {report.total_bytes} bytes, "
          f"loss: {report.loss_count} packets")

    # a capture records only arrival times, so the importer sets send = recv
    # and the delay metrics come out zero by construction; re-anchoring the
    # send times on the stream's nominal 20 ms grid exposes the capture jitter
    nominal = StreamTrace(tuple(
        p._replace(send_ts_us=20000 * i) for i, p in enumerate(trace.packets)
    ))
    report = metrics_report(nominal)
    print(f"against the nominal 20 ms grid:")
    print(f"  interarrival jitter: {format_decimal(report.jitter_final_us)} us")
    print(f"  delay variation: max {report.pdv_stats['max']} us, "
          f"p99 {report.pdv_stats['p99']} us")


if __name__ == "__main__":
    main()
