"""Walkthrough: policing a bursty GOP video stream with a byte-based token
bucket, then rendering the stacked panel figure.

The generator emits large I-frames every 12 frames and small P-frames in
between, fragmented to MTU size, so the byte rate arrives in bursts. A token
bucket (one token buys one byte) with a rate a little above the stream mean
absorbs each burst: departures never exceed capacity + rate * elapsed bytes
over any interval, at the cost of queueing delay around the I-frames.

Run with:  python3 demos/video_token_bucket.py
It writes video_figure.svg next to the working directory.
"""

from fractions import Fraction
from pathlib import Path

from rtpshape import (ChannelModel, TokenBucketConfig, UniformJitter,
                      VideoGenConfig, apply_channel, generate_video,
                      panel_report, render_svg, token_bucket_shape)


def main():
    duration_us = 20_000_000
    sent = generate_video(VideoGenConfig(fps=25, gop=12), duration_us, seed=3)
    total = sum(p.size_bytes for p in sent.packets)
    print(f"sender: {len(sent)} packets, {total} bytes over 20 s "
          f"({total // 20} B/s mean)")

    recv = apply_channel(sent, ChannelModel(jitter=UniformJitter(0, 10000), seed=4))

    mean_rate = Fraction(total * 10**6, duration_us)
    bucket = TokenBucketConfig(rate=mean_rate * Fraction(12, 10),
                               capacity_tokens=6000)
    print(f"token bucket: rate {float(bucket.rate):.0f} B/s "
          f"(120% of mean), capacity {bucket.capacity_tokens} tokens")

    result = token_bucket_shape(recv, bucket)
    held = sum(1 for p, q in zip(result.shaped.packets, recv.packets)
               if p.recv_ts_us != q.recv_ts_us)
    peak = max(s.queued_bytes for s in result.occupancy)
    print(f"shaped: {len(result.shaped)} departures, {held} of them delayed, "
          f"peak queue {peak} bytes")

    figure = panel_report(recv, result, bucket)
    for panel in figure:
        print(f"  panel: {panel.title} ({len(panel.ts_us)} points)")
    out = Path("video_figure.svg")
    out.write_text(render_svg(figure))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
