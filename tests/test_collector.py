"""The record builders run with the cyclic garbage collector paused, and
restore the state they found it in."""

import gc
import sys
from fractions import Fraction

import pytest

from rtpshape import (AudioGenConfig, ChannelModel, LeakyBucketConfig, MediaPacket,
                      ShapingPreconditionError, StreamTrace, TokenBucketConfig,
                      UniformJitter, VideoGenConfig, apply_channel, generate_audio,
                      generate_video, panel_report, read_trace_csv, run_pipeline, shaping,
                      token_bucket_shape, traffic, write_trace_csv)
from rtpshape.reporting import occupancy_csv, read_occupancy_csv
from rtpshape.shaping import shape

TOKEN = TokenBucketConfig(rate=Fraction(5_000), capacity_tokens=500)


@pytest.fixture
def collector_enabled():
    """Start with the collector on, and leave it on whatever the test does."""
    gc.enable()
    try:
        yield
    finally:
        gc.enable()


def collections_inside(names, call):
    """Run `call`, and return the generation of each collection that starts
    while a frame of one of the rtpshape functions `names` is on the stack."""
    seen = []

    def hook(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_name in names and \
                    frame.f_globals.get("__name__", "").startswith("rtpshape."):
                seen.append(info["generation"])
                return
            frame = frame.f_back

    gc.callbacks.append(hook)
    try:
        call()
    finally:
        gc.callbacks.remove(hook)
    return seen


def test_no_collection_while_a_builder_runs(collector_enabled):
    sent = generate_audio(AudioGenConfig(), 20_000 * 20_000)
    channel = ChannelModel(jitter=UniformJitter(0, 60_000), seed=7)
    trace = apply_channel(sent, channel)
    assert len(trace) == 20_000
    result = shape(trace, TOKEN)
    assert collections_inside({"_serve"}, lambda: shape(trace, TOKEN)) == []
    assert collections_inside({"apply_channel"}, lambda: apply_channel(sent, channel)) == []
    assert collections_inside({"panel_report"},
                              lambda: panel_report(trace, result, TOKEN)) == []


OVERSIZED = StreamTrace((MediaPacket(0, 1, 96, False, 0, 0, 501),
                         MediaPacket(1, 1, 96, False, 10, 10, 100)))
SENT = generate_audio(AudioGenConfig(), 50 * 20_000)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", ["returns", "channel-raises", "token-raises"])
def test_builder_restores_the_collector_state(collector_enabled, monkeypatch, enabled, case):
    # record the collector's state inside the builder, where it draws a
    # packet's jitter or asks the token policy when a packet may depart
    inside = []

    def spy(original):
        def call(*args):
            inside.append(gc.isenabled())
            return original(*args)
        return call

    monkeypatch.setattr(traffic, "_sample_jitter", spy(traffic._sample_jitter))
    monkeypatch.setattr(shaping._TokenPolicy, "ready", spy(shaping._TokenPolicy.ready))
    if not enabled:
        gc.disable()
    if case == "returns":
        assert len(apply_channel(SENT, ChannelModel(jitter=UniformJitter(0, 60_000)))) == 50
    elif case == "channel-raises":
        with pytest.raises(TypeError, match="unknown jitter model"):
            apply_channel(SENT, ChannelModel(jitter="uniform"))
    else:
        with pytest.raises(ShapingPreconditionError, match="exceeds token capacity"):
            token_bucket_shape(OVERSIZED, TOKEN)
    assert gc.isenabled() == enabled
    assert inside and not any(inside)


def build_and_drop_a_video_pipeline():
    sent = generate_video(VideoGenConfig(), 2_000_000, seed=5)
    trace = apply_channel(sent, ChannelModel(jitter=UniformJitter(0, 15_000), seed=43))
    stages = [LeakyBucketConfig(), TokenBucketConfig(rate=Fraction(80_000),
                                                     capacity_tokens=20_000)]
    _, results = run_pipeline(stages, trace)
    incoming = trace
    for cfg, result in zip(stages, results):
        assert panel_report(incoming, result, cfg).panels
        assert read_trace_csv(write_trace_csv(result.shaped)) == result.shaped
        assert read_occupancy_csv(occupancy_csv(result).encode("ascii")) == result.occupancy
        incoming = result.shaped


def test_records_form_no_cycles(collector_enabled):
    # pausing the collector is safe only because nothing a builder makes
    # can be reclaimed by it alone
    gc.collect()
    gc.disable()
    try:
        build_and_drop_a_video_pipeline()
    finally:
        gc.enable()
    assert gc.collect() == 0
