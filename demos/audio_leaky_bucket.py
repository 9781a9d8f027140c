"""Walkthrough: smoothing a jittered CBR audio stream with the leaky bucket.

A 20 ms / 125-byte audio sender goes through a channel that adds up to 15 ms
of random jitter. A leaky bucket with room for 15 packets and a 20 ms drain
interval absorbs the jitter: after a short start-up transient every departure
lands exactly 20 ms after the previous one, so the receiver sees a perfectly
periodic stream again.

Run with:  python3 demos/audio_leaky_bucket.py
"""

from fractions import Fraction

from rtpshape import (AudioGenConfig, ChannelModel, LeakyBucketConfig,
                      UniformJitter, apply_channel, compare, format_decimal,
                      generate_audio, leaky_bucket_shape)


def main():
    sent = generate_audio(AudioGenConfig(ptime_us=20000, payload_bytes=125),
                          duration_us=30_000_000)
    print(f"sender: {len(sent)} packets, one every 20 ms")

    channel = ChannelModel(jitter=UniformJitter(0, 15000), seed=11)
    recv = apply_channel(sent, channel)
    print(f"channel: uniform jitter up to 15 ms, {len(recv)} packets arrive")

    bucket = LeakyBucketConfig(capacity_packets=15, drain_interval_us=20000)
    result = leaky_bucket_shape(recv, bucket)
    print(f"leaky bucket: {len(result.shaped)} departures, "
          f"{len(result.dropped)} drops, "
          f"peak occupancy {max(s.queued_packets for s in result.occupancy)} packets")

    deps = [p.recv_ts_us for p in result.shaped.packets]
    gaps = [b - a for a, b in zip(deps, deps[1:])]
    periodic = sum(1 for g in gaps if g == 20000)
    print(f"departure spacing: {periodic} of {len(gaps)} gaps are exactly 20 ms")

    report = compare(recv, result.shaped)
    before, after = report.before, report.after
    print()
    print("                  before      after")
    print(f"jitter (us)     {format_decimal(before.jitter_final_us):>8}"
          f"   {format_decimal(after.jitter_final_us):>8}")
    print(f"pdv max (us)    {before.pdv_stats['max']:>8}   {after.pdv_stats['max']:>8}")
    mean = Fraction(report.added_latency_mean_us)
    print(f"\nprice paid: mean added latency {format_decimal(mean)} us, "
          f"max {report.added_latency_max_us} us")


if __name__ == "__main__":
    main()
