import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
from array import array
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rtpshape
from rtpshape import (AudioGenConfig, ChannelModel, ConfigError, ExponentialJitter,
                      LeakyBucketConfig, MediaPacket, NoJitter, ScenarioConfig,
                      ShapeResult, StreamTrace, TokenBucketConfig, TraceFormatError,
                      TraceValidationError, UniformJitter,
                      VideoGenConfig, cli, compare, format_decimal, leaky_bucket_shape,
                      parse_scenario, read_trace_csv, write_trace_csv)
from rtpshape.cli import main
from rtpshape.model import CSV_HEADER, SEQ_MOD, TS_MAX, validate_trace
from rtpshape.reporting import comparison_csv
from rtpshape.shaping import Occupancy

from test_acceptance import AUDIO_RUN_CONFIG, VIDEO_RUN_CONFIG
from test_pinned import README_SCENARIO

AUDIO_CONFIG = """\
# telephony-style CBR audio scenario
generator.kind = audio
generator.ptime_us = 20000
generator.payload_bytes = 125
generator.duration_us = 2000000
channel.jitter = uniform(0,15000)
channel.seed = 42
pipeline.0.type = leaky
pipeline.0.capacity_packets = 15
pipeline.0.drain_interval_us = 20000
"""

VIDEO_CONFIG = """\
generator.kind = video
generator.duration_us = 2000000
generator.seed = 5
channel.jitter = uniform(0,15000)
channel.seed = 43
pipeline.0.type = token
pipeline.0.rate = 80000
pipeline.0.capacity_tokens = 20000
"""


def run_cli(*argv):
    """`python -m rtpshape.cli` in a fresh interpreter, so that an uncaught
    exception shows as a traceback on stderr."""
    src = str(Path(rtpshape.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "rtpshape.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=60)


def assert_usage_error(proc, message):
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


class TestScenarioParsing:
    def test_audio_round(self):
        sc = parse_scenario(AUDIO_CONFIG)
        assert sc.generator.payload_bytes == 125
        assert sc.channel.jitter == UniformJitter(0, 15000)
        assert sc.pipeline == (LeakyBucketConfig(15, 20000),)

    def test_token_stage(self):
        sc = parse_scenario(VIDEO_CONFIG)
        assert sc.pipeline[0] == TokenBucketConfig(rate=Fraction(80000),
                                                   capacity_tokens=20000)

    def test_rational_rate_and_loss(self):
        sc = parse_scenario(VIDEO_CONFIG + "channel.loss_prob = 1/100\n")
        assert sc.channel.loss_prob == Fraction(1, 100)

    def test_errors(self):
        with pytest.raises(ConfigError, match="generator.kind"):
            parse_scenario("generator.duration_us = 1000\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_scenario(AUDIO_CONFIG + "generator.ptime_us = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_scenario(AUDIO_CONFIG + "generator.bogus = 1\n")
        with pytest.raises(ConfigError, match="line 11: unknown section 'bogus'"):
            parse_scenario(AUDIO_CONFIG + "bogus.key = 1\n")
        with pytest.raises(ConfigError, match="0..n-1"):
            parse_scenario(AUDIO_CONFIG.replace("pipeline.0", "pipeline.1"))
        with pytest.raises(ConfigError, match="jitter"):
            parse_scenario(AUDIO_CONFIG.replace("uniform(0,15000)", "gauss(3)"))


# Every key each section accepts, each once: with an audio generator and a
# leaky and a token stage, and with a video generator.
EVERY_KEY_AUDIO_CONFIG = """\
generator.kind = audio
generator.duration_us = 1000000
generator.ptime_us = 20000
generator.payload_bytes = 125
generator.ssrc = 7
generator.payload_type = 0
channel.base_delay_us = 0
channel.jitter = none
channel.loss_prob = 0
channel.seed = 0
pipeline.0.type = leaky
pipeline.0.capacity_packets = 15
pipeline.0.drain_interval_us = 20000
pipeline.1.type = token
pipeline.1.rate = 1000
pipeline.1.capacity_tokens = 200
pipeline.1.initial_tokens = 0
pipeline.1.queue_limit_bytes = 100
analysis.throughput_window_us = 1000000
"""

EVERY_KEY_VIDEO_CONFIG = """\
generator.kind = video
generator.duration_us = 1000000
generator.seed = 1
generator.fps = 25
generator.gop = 12
generator.i_frame_bytes = 8000
generator.p_frame_bytes = 1500
generator.size_jitter_pct = 20
generator.mtu_payload_bytes = 1200
generator.ssrc = 7
generator.payload_type = 96
"""


def keys_by_section(config: str) -> dict[str, set[str]]:
    sections: dict[str, set[str]] = {}
    for line in config.splitlines():
        section, name = line.split(" = ")[0].rsplit(".", 1)
        sections.setdefault(section, set()).add(name)
    return sections


@pytest.mark.parametrize("config", [EVERY_KEY_AUDIO_CONFIG, EVERY_KEY_VIDEO_CONFIG],
                         ids=["audio", "video"])
def test_accepted_keys_are_pinned(config):
    """Each section accepts exactly the keys written above: none of the
    field names of any config class, nor "kind" or "type", is accepted where
    it is not listed. A field added to a config class changes this test."""
    parse_scenario(config)
    candidates = {f.name for cls in (AudioGenConfig, VideoGenConfig, ChannelModel,
                                     LeakyBucketConfig, TokenBucketConfig, ScenarioConfig)
                  for f in fields(cls)} | {"kind", "type"}
    for section, names in keys_by_section(config).items():
        for name in sorted(candidates - names):
            with pytest.raises(ConfigError, match=f"unknown key {section}.{name}$"):
                parse_scenario(config + f"{section}.{name} = 1\n")


def readme_section() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return readme[readme.index("Scenario configs are"):readme.index("## Demos")]


def test_readme_example_is_the_pinned_scenario():
    example = readme_section().split("```")[1]
    assert parse_scenario(example) == parse_scenario(README_SCENARIO)


def test_readme_lists_every_key_with_its_default():
    """The README's key table names every accepted key, and writing a key at
    the default it gives parses the same as leaving the key out."""
    rows = re.findall(r"^\| `([a-z_.K]+)` \| ([^|]+) \| ([^|]+) \|$", readme_section(), re.M)
    listed = {key.replace(".K.", ".0.") for key, _, _ in rows}
    every = {f"{section}.{name}".replace("pipeline.1.", "pipeline.0.")
             for config in (EVERY_KEY_AUDIO_CONFIG, EVERY_KEY_VIDEO_CONFIG)
             for section, names in keys_by_section(config).items() for name in names}
    assert listed == every
    kinds = {"audio": "generator.kind = audio\n", "video": "generator.kind = video\n",
             "leaky": "pipeline.0.type = leaky\n",
             "token": "pipeline.0.type = token\npipeline.0.rate = 1\n"
                      "pipeline.0.capacity_tokens = 1\n"}
    for key, default, meaning in rows:
        if not re.fullmatch(r"`[^`]+`", default.strip()):
            continue  # required, or a default the config cannot spell
        kind = meaning.split(":")[0]  # "audio: packet interval" is an audio key
        base = kinds["video" if kind == "video" else "audio"] + \
            "generator.duration_us = 1000000\n" + kinds["token" if kind == "token" else "leaky"]
        line = f"{key.replace('.K.', '.0.')} = {default.strip().strip('`')}\n"
        with_default, without = parse_scenario(base + line), parse_scenario(base)
        assert with_default.channel in (None, ChannelModel()), key
        assert replace(with_default, channel=None) == without, key


JITTER_NAMES = {NoJitter: "none", UniformJitter: "uniform",
                ExponentialJitter: "exponential"}
KIND_NAMES = {AudioGenConfig: "audio", VideoGenConfig: "video",
              LeakyBucketConfig: "leaky", TokenBucketConfig: "token"}


def config_value(value) -> str:
    if type(value) in JITTER_NAMES:
        args = ",".join(str(getattr(value, f.name)) for f in fields(value))
        return f"{JITTER_NAMES[type(value)]}({args})" if args else "none"
    return str(value)


def section_lines(prefix: str, cfg, omit_defaults: bool) -> list[str]:
    return [f"{prefix}.{f.name} = {config_value(getattr(cfg, f.name))}"
            for f in fields(cfg) if getattr(cfg, f.name) is not None
            and not (omit_defaults and getattr(cfg, f.name) == f.default)]


def config_text(sc: ScenarioConfig, omit_defaults: bool) -> str:
    lines = [f"generator.kind = {KIND_NAMES[type(sc.generator)]}",
             f"generator.duration_us = {sc.duration_us}"]
    if isinstance(sc.generator, VideoGenConfig) and (sc.seed or not omit_defaults):
        lines += [f"generator.seed = {sc.seed}"]
    lines += section_lines("generator", sc.generator, omit_defaults)
    if sc.channel is not None:
        # an all-default channel still needs one key to be present
        lines += section_lines("channel", sc.channel, omit_defaults) or \
            [f"channel.seed = {sc.channel.seed}"]
    for k, stage in enumerate(sc.pipeline):
        lines += [f"pipeline.{k}.type = {KIND_NAMES[type(stage)]}"]
        lines += section_lines(f"pipeline.{k}", stage, omit_defaults)
    if sc.throughput_window_us != ScenarioConfig.throughput_window_us or not omit_defaults:
        lines += [f"analysis.throughput_window_us = {sc.throughput_window_us}"]
    return "".join(line + "\n" for line in lines)


def configs(cls, required=None, **optional):
    """Instances of cls from its required fields and any subset of the
    optional ones; draws that fail cls's own checks are discarded."""
    def build(kwargs):
        try:
            return cls(**kwargs)
        except ValueError:
            return None
    return st.fixed_dictionaries(required or {}, optional=optional) \
        .map(build).filter(lambda cfg: cfg is not None)


SIZES = st.integers(0, 10**6)
POSITIVE = st.integers(1, 10**6)
SCENARIOS = configs(
    ScenarioConfig,
    required=dict(
        generator=configs(AudioGenConfig, ptime_us=st.integers(1000, 10**6),
                          payload_bytes=POSITIVE, ssrc=st.integers(0, 2**32 - 1),
                          payload_type=st.integers(0, 127))
        | configs(VideoGenConfig, fps=POSITIVE, gop=POSITIVE, i_frame_bytes=POSITIVE,
                  p_frame_bytes=POSITIVE, size_jitter_pct=st.integers(0, 100),
                  mtu_payload_bytes=st.integers(64, 10**4),
                  ssrc=st.integers(0, 2**32 - 1), payload_type=st.integers(0, 127)),
        duration_us=st.integers(1, 10**9),
        seed=st.integers(0, 2),
        channel=st.none() | configs(
            ChannelModel, base_delay_us=SIZES, seed=st.integers(0, 2**64),
            loss_prob=st.fractions(0, 1, max_denominator=10**4),
            jitter=st.just(NoJitter()) | st.builds(ExponentialJitter, SIZES)
            | configs(UniformJitter, dict(lo_us=SIZES, hi_us=SIZES))),
        pipeline=st.lists(
            configs(LeakyBucketConfig, capacity_packets=POSITIVE,
                    drain_interval_us=POSITIVE)
            | configs(TokenBucketConfig,
                      dict(rate=st.fractions(0, 10**9, max_denominator=10**4),
                           capacity_tokens=POSITIVE),
                      initial_tokens=SIZES, queue_limit_bytes=POSITIVE),
            max_size=3).map(tuple)),
    throughput_window_us=st.integers(1, 10**7)) \
    .filter(lambda sc: sc.seed == 0 or isinstance(sc.generator, VideoGenConfig))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scenario=SCENARIOS)
def test_config_round_trip(scenario):
    """A config written out with every field, or with the fields at their
    defaults left out, parses back to the same ScenarioConfig."""
    for omit_defaults in (False, True):
        assert parse_scenario(config_text(scenario, omit_defaults)) == scenario


@pytest.fixture
def audio_cfg(tmp_path):
    path = tmp_path / "audio.cfg"
    path.write_text(AUDIO_CONFIG)
    return str(path)


@pytest.fixture
def video_cfg(tmp_path):
    path = tmp_path / "video.cfg"
    path.write_text(VIDEO_CONFIG)
    return str(path)


class TestGenerate:
    def test_writes_trace_and_reports_count(self, tmp_path, audio_cfg, capsys):
        out = tmp_path / "trace.csv"
        assert main(["generate", "--config", audio_cfg, "--output", str(out)]) == 0
        trace = read_trace_csv(out.read_bytes())
        assert len(trace) == 100
        assert None not in (p.recv_ts_us for p in trace.packets)  # channel applied
        assert "packets=100" in capsys.readouterr().out

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(AUDIO_CONFIG.replace("ptime_us = 20000", "ptime_us = 0"))
        assert main(["generate", "--config", str(cfg),
                     "--output", str(tmp_path / "t.csv")]) == 2
        assert "ptime_us" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "run"])
    def test_non_ascii_config_exits_2_without_traceback(self, tmp_path, command):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(AUDIO_CONFIG.replace("# telephony", "# t\xe9l\xe9phonie")
                        .encode("latin-1"))
        proc = run_cli(command, "--config", cfg, "--output", tmp_path / "out")
        assert_usage_error(proc, "not ASCII")

    @pytest.mark.parametrize("command", ["generate", "run"])
    def test_arrivals_beyond_csv_range_exit_2(self, tmp_path, command):
        # exponential jitter this large puts arrivals past 2**63 - 1 us,
        # which no trace CSV can hold
        cfg = tmp_path / "far.cfg"
        cfg.write_text(AUDIO_CONFIG.replace(
            "uniform(0,15000)", "exponential(10000000000000000000000)"))
        out = tmp_path / "out"
        proc = run_cli(command, "--config", cfg, "--output", out)
        assert_usage_error(proc, "recv_ts_us")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["generate", "run"])
    @pytest.mark.parametrize("config, message", [
        (AUDIO_CONFIG.replace("uniform(0,15000)", f"exponential({10**400})"), "recv_ts_us"),
        # the largest mean a config holds, and a draw that makes it longer
        (AUDIO_CONFIG.replace("uniform(0,15000)", f"exponential({'9' * 4300})")
         .replace("channel.seed = 42", "channel.seed = 3"), "recv_ts_us <int too long to print>"),
        (VIDEO_CONFIG + f"generator.i_frame_bytes = {10**400}\n", "i_frame_bytes"),
        (VIDEO_CONFIG + f"generator.i_frame_bytes = {10**400}\n"
         f"generator.p_frame_bytes = {10**400}\n", "p_frame_bytes"),
    ], ids=["exponential-mean", "exponential-mean-4300-digits", "i-frame", "both-frames"])
    def test_numbers_past_float_range_exit_2(self, tmp_path, command, config, message):
        # numbers past float range, which a float conversion refuses with OverflowError
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        proc = run_cli(command, "--config", cfg, "--output", out)
        assert_usage_error(proc, message)
        assert not out.exists()

    # packet counts around the seq wrap at 2**16
    COUNTS = st.sampled_from([1, 2, SEQ_MOD - 1, SEQ_MOD, SEQ_MOD + 1]) \
        | st.integers(1, SEQ_MOD + 3000)
    # audio, and video with frames of a multiple of the MTU (with no size
    # jitter, where a fragment count one too high would add a 0-byte fragment)
    GENERATORS = configs(AudioGenConfig, ptime_us=st.integers(1000, 40000),
                         payload_bytes=st.integers(1, 1500), ssrc=st.integers(0, 2**32 - 1),
                         payload_type=st.integers(0, 127)) \
        | st.integers(64, 1500).flatmap(lambda mtu: configs(
            VideoGenConfig, fps=st.integers(1, 60), gop=st.integers(1, 30),
            i_frame_bytes=st.integers(1, 50).map(mtu.__mul__) | st.integers(1, 60000),
            p_frame_bytes=st.integers(1, 10).map(mtu.__mul__) | st.integers(1, 15000),
            size_jitter_pct=st.sampled_from([0, 20, 100]), mtu_payload_bytes=st.just(mtu),
            ssrc=st.integers(0, 2**32 - 1), payload_type=st.integers(0, 127)))
    # exponential jitter with a mean of several packet intervals reorders packets
    CHANNELS = st.none() | configs(
        ChannelModel, base_delay_us=st.integers(0, 10**5), seed=st.integers(0, 2**64),
        loss_prob=st.sampled_from([0, Fraction(1, 100), Fraction(1, 2)]),
        jitter=st.sampled_from([NoJitter(), *map(ExponentialJitter, [0, 10**4, 10**5, 10**6])]))
    REORDERING = ChannelModel(jitter=ExponentialJitter(5000), loss_prob=Fraction(1, 100), seed=1)

    @example(generator=AudioGenConfig(ptime_us=1000), count=SEQ_MOD + 100, channel=None, seed=0)
    @example(generator=AudioGenConfig(ptime_us=1000), count=SEQ_MOD + 100, channel=REORDERING,
             seed=0)
    @example(generator=VideoGenConfig(fps=30, gop=10, i_frame_bytes=8 * 1200,
                                      p_frame_bytes=2 * 1200, size_jitter_pct=0,
                                      mtu_payload_bytes=1200),
             count=SEQ_MOD + 500, channel=REORDERING, seed=2)
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(generator=GENERATORS, count=COUNTS, channel=CHANNELS, seed=st.integers(0, 2))
    def test_generated_trace_is_valid_by_construction(self, generator, count, channel, seed):
        """What `generate` and `run` write without a check_trace is valid."""
        if isinstance(generator, AudioGenConfig):
            duration = count * generator.ptime_us
        else:  # about `count` packets
            g = generator
            per_frame = -(-(g.i_frame_bytes + (g.gop - 1) * g.p_frame_bytes)
                          // (g.gop * g.mtu_payload_bytes))
            duration = -(-max(1, count // per_frame) * 10**6 // g.fps)
        scenario = ScenarioConfig(generator, duration, seed, channel, ())
        trace = cli._generate_trace(scenario)
        assert validate_trace(trace) == []

    def test_unwritable_output_exits_3(self, audio_cfg, capsys):
        # the config file itself is not a directory
        assert main(["generate", "--config", audio_cfg,
                     "--output", audio_cfg + "/t.csv"]) == 3


class TestShape:
    def test_stage_files(self, tmp_path, audio_cfg):
        trace_path = tmp_path / "trace.csv"
        main(["generate", "--config", audio_cfg, "--output", str(trace_path)])
        prefix = str(tmp_path / "out-")
        assert main(["shape", "--config", audio_cfg, "--input", str(trace_path),
                     "--output", prefix]) == 0
        for name in ("input.csv", "shaped.csv", "drops.csv", "occupancy.csv"):
            assert (tmp_path / f"out-stage0.{name}").exists()
        shaped = read_trace_csv((tmp_path / "out-stage0.shaped.csv").read_bytes())
        drops = (tmp_path / "out-stage0.drops.csv").read_text().splitlines()
        assert len(shaped) + (len(drops) - 1) == 100

    def test_empty_pipeline_exits_2(self, tmp_path, audio_cfg, capsys):
        cfg = tmp_path / "nopipe.cfg"
        cfg.write_text("\n".join(line for line in AUDIO_CONFIG.splitlines()
                                 if not line.startswith("pipeline")) + "\n")
        trace_path = tmp_path / "trace.csv"
        main(["generate", "--config", audio_cfg, "--output", str(trace_path)])
        assert main(["shape", "--config", str(cfg), "--input", str(trace_path),
                     "--output", str(tmp_path / "o-")]) == 2

    @pytest.mark.parametrize("command", ["shape", "run"])
    def test_departures_beyond_csv_range_exit_2(self, tmp_path, audio_cfg, command):
        # the second packet queues behind a drain interval past 2**63 - 1 us
        cfg = tmp_path / "slow.cfg"
        cfg.write_text(AUDIO_CONFIG.replace("drain_interval_us = 20000",
                                            "drain_interval_us = 10000000000000000000000"))
        trace_path = tmp_path / "trace.csv"
        assert main(["generate", "--config", audio_cfg, "--output", str(trace_path)]) == 0
        args = ["--input", trace_path] if command == "shape" else []
        proc = run_cli(command, "--config", cfg, *args, "--output", tmp_path / "o-")
        assert_usage_error(proc, "stage 0: departure")

    def test_missing_arrivals_exit_2(self, tmp_path, audio_cfg, capsys):
        cfg = tmp_path / "nochan.cfg"
        cfg.write_text("\n".join(line for line in AUDIO_CONFIG.splitlines()
                                 if not line.startswith("channel")) + "\n")
        trace_path = tmp_path / "trace.csv"
        main(["generate", "--config", str(cfg), "--output", str(trace_path)])
        assert main(["shape", "--config", str(cfg), "--input", str(trace_path),
                     "--output", str(tmp_path / "o-")]) == 2
        assert "arrival" in capsys.readouterr().err


# Ten packets 20 ms apart with packet 3 captured twice, as a mirrored port
# records it: both copies share seq, ssrc, send and arrival time.
REPEATED_PACKET_CSV = CSV_HEADER + "\n" + "".join(
    f"{k},1,0,0,{20_000 * k},{20_000 * k + 100},125\n" for k in [0, 1, 2, 3, 3, 4, 5, 6, 7, 8, 9])


def blank_arrival(path: Path) -> None:
    """Empty the recv_ts_us field of packet 2 of a trace CSV."""
    lines = path.read_text().split("\n")
    fields = lines[3].split(",")
    fields[5] = ""
    lines[3] = ",".join(fields)
    path.write_text("\n".join(lines))


def shape_stage0(tmp_path, cfg) -> str:
    """Generate a trace, shape it under the prefix "s-" and return the prefix."""
    trace_path = tmp_path / "trace.csv"
    prefix = str(tmp_path / "s-")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--config", cfg, "--output", str(trace_path)]) == 0
        assert main(["shape", "--config", cfg, "--input", str(trace_path),
                     "--output", prefix]) == 0
    return prefix


class TestAnalyze:
    def test_result_with_a_repeated_packet(self, tmp_path, audio_cfg, capsys):
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text(REPEATED_PACKET_CSV)
        prefix = str(tmp_path / "s-")
        assert main(["shape", "--config", audio_cfg, "--input", str(trace_path),
                     "--output", prefix]) == 0
        capsys.readouterr()
        assert main(["analyze", "--input", str(trace_path),
                     "--result", prefix + "stage0."]) == 0
        before = read_trace_csv(trace_path.read_bytes())
        result = leaky_bucket_shape(before, parse_scenario(AUDIO_CONFIG).pipeline[0])
        arrival = {(p.seq, p.send_ts_us): p.recv_ts_us for p in before.packets}
        added = [p.recv_ts_us - arrival[p.seq, p.send_ts_us] for p in result.shaped.packets]
        assert len(added) == 11 and max(added) > 0
        out = capsys.readouterr().out
        assert f"added_latency_max_us,{max(added)}\n" in out
        assert f"added_latency_mean_us,{format_decimal(Fraction(sum(added), 11))}\n" in out

    def test_single_trace_summary(self, tmp_path, audio_cfg, capsys):
        cfg = tmp_path / "clean.cfg"
        cfg.write_text(AUDIO_CONFIG.replace("uniform(0,15000)", "none"))
        trace_path = tmp_path / "trace.csv"
        main(["generate", "--config", str(cfg), "--output", str(trace_path)])
        capsys.readouterr()
        assert main(["analyze", "--input", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "jitter_final_us,0\n" in out
        assert "pdv_max_us,0\n" in out

    def test_comparison_reports_full_reduction(self, tmp_path, audio_cfg, capsys):
        trace_path = tmp_path / "trace.csv"
        main(["generate", "--config", audio_cfg, "--output", str(trace_path)])
        prefix = str(tmp_path / "s-")
        main(["shape", "--config", audio_cfg, "--input", str(trace_path),
              "--output", prefix])
        capsys.readouterr()
        assert main(["analyze", "--input", str(trace_path),
                     "--result", prefix + "stage0.",
                     "--output", str(tmp_path / "m-")]) == 0
        text = (tmp_path / "m-comparison.csv").read_text()
        assert "drops_introduced,0" in text
        assert re.search(r"^after_pdv_max_us,(\d+)$", text, re.M)

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["analyze", "--input", str(tmp_path / "absent.csv")]) == 3

    def test_result_past_the_seq_wrap(self, tmp_path):
        # 70,000 packets, so seqs 0..4463 occur twice: every shaped packet
        # must match the packet of its own period, not one 65,536 seqs away.
        # Only the shaped CSV is read, so the stage's other files can go.
        scenario = parse_scenario(AUDIO_CONFIG.replace("2000000", str(70_000 * 20_000))
                                  .replace("uniform(0,15000)", "uniform(0,60000)")
                                  .replace("capacity_packets = 15", "capacity_packets = 2"))
        before = cli._generate_trace(scenario)
        expected = leaky_bucket_shape(before, scenario.pipeline[0])
        assert len(expected.dropped) > 100
        prefix = str(tmp_path / "s-")
        cli._write_files(prefix, cli._stage_files(before, write_trace_csv(before), [expected]))
        for name in ("drops.csv", "occupancy.csv"):
            (tmp_path / f"s-stage0.{name}").unlink()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze", "--input", prefix + "stage0.input.csv",
                         "--result", prefix + "stage0.", "--output", prefix]) == 0
        text = (tmp_path / "s-comparison.csv").read_text()
        assert text == comparison_csv(compare(before, expected.shaped))
        assert f"drops_introduced,{len(expected.dropped)}\n" in text

    def test_result_with_one_drop_past_half_a_period(self, tmp_path):
        # the only drop is packet 35,000 of 40,000: more than 32,768 seqs
        # from the stream's first packet, with no other drop in between
        before = StreamTrace(tuple(
            MediaPacket(k, 1, 0, False, 20_000 * k, 20_000 * k + 5, 160)
            for k in range(40_000)))
        packets = before.packets
        expected = ShapeResult(StreamTrace(packets[:35_000] + packets[35_001:]),
                               StreamTrace(packets[35_000:35_001]), ("bucket full",),
                               Occupancy(array("q"), array("q"), [], []))
        prefix = str(tmp_path / "s-")
        cli._write_files(prefix, cli._stage_files(before, write_trace_csv(before), [expected]))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["analyze", "--input", prefix + "stage0.input.csv",
                         "--result", prefix + "stage0."]) == 0
        assert "drops_introduced,1\n" in out.getvalue()

    def test_result_with_a_missing_arrival_exits_2(self, tmp_path, audio_cfg):
        prefix = shape_stage0(tmp_path, audio_cfg)
        blank_arrival(tmp_path / "s-stage0.shaped.csv")
        proc = run_cli("analyze", "--input", prefix + "stage0.input.csv",
                       "--result", prefix + "stage0.", "--output", tmp_path / "m-")
        assert_usage_error(proc, "s-stage0.shaped.csv: packet 2 has no arrival timestamp "
                                 "(recv_ts_us)")
        assert not list(tmp_path.glob("m-*"))

    def test_input_with_a_missing_arrival_exits_2(self, tmp_path, audio_cfg):
        prefix = shape_stage0(tmp_path, audio_cfg)
        blank_arrival(tmp_path / "s-stage0.input.csv")
        proc = run_cli("analyze", "--input", prefix + "stage0.input.csv",
                       "--result", prefix + "stage0.", "--output", tmp_path / "m-")
        assert_usage_error(proc, "s-stage0.input.csv: packet 2 has no arrival timestamp "
                                 "(recv_ts_us)")
        assert not list(tmp_path.glob("m-*"))

    def test_single_packet_trace(self, tmp_path, capsys):
        p = tmp_path / "one.csv"
        p.write_text("seq,ssrc,payload_type,marker,send_ts_us,recv_ts_us,size_bytes\n"
                     "0,1,96,0,0,100,125\n")
        assert main(["analyze", "--input", str(p)]) == 0
        out = capsys.readouterr().out
        assert "jitter_final_us,insufficient-data" in out
        assert "pdv_max_us,0" in out


# Channel jitter of up to 60 ms on 20 ms packets puts a stage CSV's send
# times out of order, so a trace with one blank arrival, whose active
# timestamps are the send times, is also unsorted.
JITTERY_AUDIO_CONFIG = AUDIO_CONFIG.replace("uniform(0,15000)", "uniform(0,60000)") \
    .replace("channel.seed = 42", "channel.seed = 3")


@pytest.mark.parametrize("command", ["analyze", "shape", "report"])
def test_blank_arrival_among_unsorted_sends_names_the_file(tmp_path, command):
    """The blank recv_ts_us is what each reader of the CSV reports, with the
    file and the packet, not the send-time order it leaves."""
    cfg = tmp_path / "jitter.cfg"
    cfg.write_text(JITTERY_AUDIO_CONFIG)
    run = tmp_path / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(cfg), "--output", str(run)]) == 0
    target = run / "stage0.input.csv"
    blank_arrival(target)
    sends = [int(line.split(",")[4]) for line in target.read_text().splitlines()[1:]]
    assert sends != sorted(sends)
    argv = {"analyze": ["--input", target, "--result", f"{run}/stage0."],
            "shape": ["--config", cfg, "--input", target, "--output", tmp_path / "s-"],
            "report": ["--config", cfg, "--input", f"{run}/", "--output", tmp_path / "f.svg"]}
    proc = run_cli(command, *argv[command])
    assert_usage_error(proc, f"{target}: packet 2 has no arrival timestamp (recv_ts_us)")


# Two loss-free 10-packet streams in one file: SSRC 1 with seqs 0-9 and
# SSRC 2 with seqs 1000-1009. Measured as one stream, loss would read 990.
TWO_SSRC_CSV = "seq,ssrc,payload_type,marker,send_ts_us,recv_ts_us,size_bytes\n" + "".join(
    f"{k},1,0,0,{20_000 * k},{20_000 * k + 100},160\n"
    f"{1000 + k},2,0,0,{20_000 * k + 10},{20_000 * k + 110},160\n" for k in range(10))


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", "{csv}"],
    ["analyze", "--input", "{csv}", "--output", "{dir}/p."],
    ["shape", "--config", "{cfg}", "--input", "{csv}", "--output", "{dir}/p."],
], ids=["analyze", "analyze-output", "shape"])
def test_second_ssrc_exits_2(tmp_path, audio_cfg, argv):
    csv = tmp_path / "two.csv"
    csv.write_text(TWO_SSRC_CSV)
    proc = run_cli(*[a.format(csv=csv, dir=tmp_path, cfg=audio_cfg) for a in argv])
    assert_usage_error(proc, "ssrc 2 differs from packet 0's ssrc 1")
    assert "loss_count" not in proc.stdout
    assert not (tmp_path / "p.summary.csv").exists()
    assert not (tmp_path / "p.stage0.input.csv").exists()


# Stage 0 is ordinary; stage 1 departs its second packet past 2**63 - 1 us.
STAGE1_OVERFLOW_CONFIG = AUDIO_CONFIG + """\
pipeline.1.type = leaky
pipeline.1.capacity_packets = 15
pipeline.1.drain_interval_us = 10000000000000000000000
"""

# Each 125-byte packet is larger than the 100-byte queue and finds no tokens.
DROP_ALL_CONFIG = "".join(line for line in AUDIO_CONFIG.splitlines(keepends=True)
                          if not line.startswith("pipeline")) + """\
pipeline.0.type = token
pipeline.0.rate = 100
pipeline.0.capacity_tokens = 200
pipeline.0.initial_tokens = 0
pipeline.0.queue_limit_bytes = 100
"""


def files_under(path: Path) -> list[Path]:
    return [p for p in path.rglob("*") if p.is_file()] if path.exists() else []


@pytest.mark.parametrize("command, config, message", [
    ("run", STAGE1_OVERFLOW_CONFIG, "stage 1: departure"),
    ("shape", STAGE1_OVERFLOW_CONFIG, "stage 1: departure"),
    ("run", DROP_ALL_CONFIG, "every packet was dropped"),
], ids=["run-stage1-overflow", "shape-stage1-overflow", "run-drop-all"])
def test_exit_2_writes_nothing(tmp_path, audio_cfg, command, config, message):
    """Every check runs before the first write, so a late one leaves no
    partial output."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config)
    trace_path = tmp_path / "trace.csv"
    assert main(["generate", "--config", audio_cfg, "--output", str(trace_path)]) == 0
    out = tmp_path / "out"
    args = ["--input", trace_path, "--output", f"{out}/s-"] if command == "shape" \
        else ["--output", out]
    proc = run_cli(command, "--config", cfg, *args)
    assert_usage_error(proc, message)
    assert files_under(out) == []


def without(config: str, key: str) -> str:
    return "".join(line for line in config.splitlines(keepends=True) if not line.startswith(key))


# A config for each refusal a scenario key reaches, with its message: the
# scenario parser's own, then those of the generator and channel classes.
REFUSED_CONFIGS = {
    "key-without-section": (AUDIO_CONFIG + "bogus = 1\n",
                            "line 11: key 'bogus' has no section prefix"),
    "uniform-jitter": (AUDIO_CONFIG.replace("uniform(0,15000)", "uniform(5,1)"),
                       "channel.jitter: need 0 <= lo_us <= hi_us"),
    "exponential-jitter": (AUDIO_CONFIG.replace("uniform(0,15000)", "exponential(-1)"),
                           "channel.jitter: mean_us must be >= 0"),
    "token-without-rate": (without(VIDEO_CONFIG, "pipeline.0.rate"),
                           "pipeline.0.rate is required"),
    "no-duration": (without(AUDIO_CONFIG, "generator.duration_us"),
                    "generator.duration_us is required"),
    "throughput-window-0": (AUDIO_CONFIG + "analysis.throughput_window_us = 0\n",
                            "analysis.throughput_window_us must be >= 1"),
    "audio-payload-0": (AUDIO_CONFIG.replace("payload_bytes = 125", "payload_bytes = 0"),
                        f"generator: payload_bytes must lie in [1, {TS_MAX}]"),
    "audio-ssrc": (AUDIO_CONFIG + "generator.ssrc = 4294967296\n",
                   "generator: ssrc outside 32-bit range"),
    "audio-payload-type": (AUDIO_CONFIG + "generator.payload_type = 128\n",
                           "generator: payload_type outside 7-bit range"),
    "video-fps-0": (VIDEO_CONFIG + "generator.fps = 0\n", "generator: fps and gop must be >= 1"),
    "video-mtu": (VIDEO_CONFIG + "generator.mtu_payload_bytes = 63\n",
                  f"generator: mtu_payload_bytes must lie in [64, {TS_MAX}]"),
    "video-size-jitter": (VIDEO_CONFIG + "generator.size_jitter_pct = 101\n",
                          "generator: size_jitter_pct must lie in [0, 100]"),
    "video-ssrc": (VIDEO_CONFIG + "generator.ssrc = 4294967296\n",
                   "generator: ssrc outside 32-bit range"),
    "video-payload-type": (VIDEO_CONFIG + "generator.payload_type = 128\n",
                           "generator: payload_type outside 7-bit range"),
    "base-delay": (AUDIO_CONFIG + "channel.base_delay_us = -1\n",
                   "channel: base_delay_us must be >= 0"),
}


# Two packets a microsecond before the last time a CSV holds.
LATE_CSV = CSV_HEADER + "\n" + "".join(f"{k},1,0,0,{TS_MAX - 1},{TS_MAX - 1},125\n"
                                       for k in range(2))

# The shaper refusals `shape` reaches: a departure past TS_MAX (the second
# packet waits 10 us behind the first), then each shaper config class's own.
SHAPE_REFUSALS = {
    "departure-past-ts-max": (AUDIO_CONFIG.replace("drain_interval_us = 20000",
                                                   "drain_interval_us = 10"),
                              f"stage 0: departure {TS_MAX + 9} > {TS_MAX}"),
    "capacity-packets-0": (AUDIO_CONFIG.replace("capacity_packets = 15", "capacity_packets = 0"),
                           "pipeline.0: capacity_packets must be >= 1"),
    "drain-interval-0": (AUDIO_CONFIG.replace("drain_interval_us = 20000",
                                              "drain_interval_us = 0"),
                         "pipeline.0: drain_interval_us must be >= 1"),
    "capacity-tokens-0": (VIDEO_CONFIG.replace("capacity_tokens = 20000", "capacity_tokens = 0"),
                          "pipeline.0: capacity_tokens must be >= 1"),
    "queue-limit-0": (VIDEO_CONFIG + "pipeline.0.queue_limit_bytes = 0\n",
                      "pipeline.0: queue_limit_bytes must be >= 1"),
}


REFUSALS = {"run": REFUSED_CONFIGS, "shape": SHAPE_REFUSALS}


@pytest.mark.parametrize("command, case", [(command, case) for command, cases in REFUSALS.items()
                                           for case in cases])
def test_each_refusal_exits_2(tmp_path, capsys, command, case):
    """Each refusal once, in process (a line tracer over the library sees it):
    the command exits 2 with the message on stderr and writes nothing."""
    config, message = REFUSALS[command][case]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config)
    trace_path = tmp_path / "late.csv"
    trace_path.write_text(LATE_CSV)
    out = tmp_path / "out"
    args = ["--input", str(trace_path), "--output", f"{out}/s-"] if command == "shape" \
        else ["--output", str(out)]
    assert main([command, "--config", str(cfg), *args]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert files_under(out) == []


# A stage index written other than as str(k), beside a stage 0 or alone.
LEADING_ZERO_CONFIGS = {
    "beside-stage-0": AUDIO_CONFIG + "pipeline.00.capacity_packets = 3\n",
    "alone": AUDIO_CONFIG.replace("pipeline.0.", "pipeline.00."),
}


@pytest.mark.parametrize("config", list(LEADING_ZERO_CONFIGS.values()),
                         ids=list(LEADING_ZERO_CONFIGS))
def test_stage_index_with_leading_zero_exits_2(tmp_path, config):
    """No entry goes unread: "pipeline.00" is neither stage 0 nor a stage of
    its own, so the config is rejected at the key's first line."""
    line = next(n for n, text in enumerate(config.splitlines(), start=1)
                if text.startswith("pipeline.00."))
    with pytest.raises(ConfigError, match=f"^line {line}: pipeline keys"):
        parse_scenario(config)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert_usage_error(run_cli("run", "--config", cfg, "--output", out), f"line {line}:")
    assert files_under(out) == []


def test_analyze_result_with_every_packet_dropped_exits_2(tmp_path, audio_cfg):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(DROP_ALL_CONFIG)
    trace_path = tmp_path / "trace.csv"
    assert main(["generate", "--config", audio_cfg, "--output", str(trace_path)]) == 0
    prefix = str(tmp_path / "s-")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["shape", "--config", str(cfg), "--input", str(trace_path),
                     "--output", prefix]) == 0
    assert read_trace_csv((tmp_path / "s-stage0.shaped.csv").read_bytes()).packets == ()
    proc = run_cli("analyze", "--input", trace_path, "--result", prefix + "stage0.",
                   "--output", tmp_path / "m-")
    assert_usage_error(proc, "every packet was dropped: there is no shaped trace to compare")
    assert not list(tmp_path.glob("m-*"))


class TestRunAndReport:
    def test_audio_run_produces_three_panel_svg(self, tmp_path, audio_cfg):
        out = tmp_path / "run"
        assert main(["run", "--config", audio_cfg, "--output", str(out)]) == 0
        for name in ("input.csv", "stage0.shaped.csv", "metrics.input.summary.csv",
                     "comparison.csv", "stage0.figure.svg"):
            assert (out / name).exists(), name
        svg = (out / "stage0.figure.svg").read_text()
        assert svg.count('<g class="panel"') == 3
        assert svg.count("<circle") >= 200  # incoming + shaped dots

    def test_video_run_produces_four_panel_svg(self, tmp_path, video_cfg):
        out = tmp_path / "run"
        assert main(["run", "--config", video_cfg, "--output", str(out)]) == 0
        svg = (out / "stage0.figure.svg").read_text()
        assert svg.count('<g class="panel"') == 4
        assert "tokens available" in svg

    def test_rerun_is_byte_identical(self, tmp_path, audio_cfg):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", audio_cfg, "--output", str(a)]) == 0
        assert main(["run", "--config", audio_cfg, "--output", str(b)]) == 0
        files_a = sorted(p.name for p in a.iterdir())
        assert files_a == sorted(p.name for p in b.iterdir())
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_override_changes_output(self, tmp_path, audio_cfg):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", audio_cfg, "--output", str(a)])
        main(["run", "--config", audio_cfg, "--output", str(b), "--seed", "99"])
        assert (a / "input.csv").read_bytes() != (b / "input.csv").read_bytes()

    def test_audio_generator_seed_exits_2(self, tmp_path, capsys):
        # only the video generator draws at random; an audio seed would be
        # read and change nothing
        cfg = tmp_path / "seeded-audio.cfg"
        cfg.write_text(AUDIO_CONFIG.replace("generator.ptime_us", "generator.seed = 1\n"
                                            "generator.ptime_us"))
        assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == "error: line 3: unknown key generator.seed\n"
        assert not (tmp_path / "run").exists()
        assert parse_scenario(VIDEO_RUN_CONFIG).seed == 5

    def test_pipeline_without_channel_exits_2_before_generating(self, tmp_path, capsys,
                                                                monkeypatch):
        cfg = tmp_path / "nochan.cfg"
        cfg.write_text("\n".join(line for line in AUDIO_CONFIG.splitlines()
                                 if not line.startswith("channel")) + "\n")

        def generate(*args):
            raise AssertionError("generated a trace no stage can shape")

        monkeypatch.setattr(cli, "generate_audio", generate)
        assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "run")]) == 2
        assert "channel" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_empty_pipeline_is_analysis_only(self, tmp_path):
        cfg = tmp_path / "nopipe.cfg"
        cfg.write_text("\n".join(line for line in AUDIO_CONFIG.splitlines()
                                 if not line.startswith("pipeline")) + "\n")
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "input.csv" in names and "metrics.input.summary.csv" in names
        assert not any("stage" in n or n == "comparison.csv" for n in names)

    def test_report_standalone(self, tmp_path, audio_cfg):
        trace_path = tmp_path / "trace.csv"
        main(["generate", "--config", audio_cfg, "--output", str(trace_path)])
        prefix = str(tmp_path / "s-")
        main(["shape", "--config", audio_cfg, "--input", str(trace_path),
              "--output", prefix])
        svg_path = tmp_path / "fig.svg"
        assert main(["report", "--config", audio_cfg, "--input", prefix,
                     "--output", str(svg_path)]) == 0
        assert svg_path.read_text().count('<g class="panel"') == 3
        assert (tmp_path / "fig.panels.csv").exists()

    @pytest.mark.parametrize("stage", ["-1", "1"])
    def test_report_stage_outside_pipeline_exits_2(self, tmp_path, audio_cfg,
                                                   capsys, stage):
        trace_path = tmp_path / "trace.csv"
        main(["generate", "--config", audio_cfg, "--output", str(trace_path)])
        prefix = str(tmp_path / "s-")
        main(["shape", "--config", audio_cfg, "--input", str(trace_path),
              "--output", prefix])
        capsys.readouterr()
        assert main(["report", "--config", audio_cfg, "--input", prefix,
                     "--stage", stage, "--output", str(tmp_path / "f.svg")]) == 2
        assert f"no pipeline stage {stage}" in capsys.readouterr().err
        assert not (tmp_path / "f.svg").exists()

    @pytest.mark.parametrize("name", ["input"])
    def test_report_missing_arrival_exits_2(self, tmp_path, audio_cfg, name):
        prefix = shape_stage0(tmp_path, audio_cfg)
        blank_arrival(tmp_path / f"s-stage0.{name}.csv")
        proc = run_cli("report", "--config", audio_cfg, "--input", prefix,
                       "--output", tmp_path / "f.svg")
        assert_usage_error(proc, f"s-stage0.{name}.csv: packet 2 has no arrival timestamp "
                                 "(recv_ts_us)")
        assert not list(tmp_path.glob("f.*"))

    def test_report_stage_failure_names_the_stage(self, tmp_path, audio_cfg, capsys):
        # only stage 1 runs, and its 10 tokens never buy a 125-byte packet
        cfg = tmp_path / "c.cfg"
        cfg.write_text(AUDIO_CONFIG + "pipeline.1.type = token\npipeline.1.rate = 1000\n"
                                      "pipeline.1.capacity_tokens = 10\n")
        prefix = tmp_path / "s-"
        assert main(["generate", "--config", audio_cfg,
                     "--output", f"{prefix}stage1.input.csv"]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg), "--input", str(prefix), "--stage", "1",
                     "--output", str(out / "f.svg")]) == 2
        assert capsys.readouterr().err == ("error: stage 1: packet of 125 bytes exceeds token "
                                           "capacity 10; it can never depart\n")
        assert files_under(out) == []

    def test_report_missing_inputs_exits_3(self, tmp_path, audio_cfg):
        assert main(["report", "--config", audio_cfg,
                     "--input", str(tmp_path / "nope-"),
                     "--output", str(tmp_path / "f.svg")]) == 3


TWO_STAGE_RUN_CONFIG = AUDIO_RUN_CONFIG + """\
pipeline.1.type = token
pipeline.1.rate = 6000
pipeline.1.capacity_tokens = 250
"""


# Token counts above 2**63 - 1 are written to the occupancy CSV as they are.
HUGE_BUCKET_RUN_CONFIG = VIDEO_RUN_CONFIG.replace(
    "capacity_tokens = 20000", "capacity_tokens = 100000000000000000000")


# The channel reorders each 60 kB I-frame's 64-byte fragments by up to
# 100 µs, faster than the token stage sends them, so the stage sends several
# in one microsecond in arrival order: ties out of seq order.
TIED_DEPARTURES_RUN_CONFIG = """\
generator.kind = video
generator.duration_us = 1000000
generator.i_frame_bytes = 60000
generator.mtu_payload_bytes = 64
channel.base_delay_us = 1000
channel.jitter = uniform(0,100)
channel.seed = 3
pipeline.0.type = token
pipeline.0.rate = 200000000
pipeline.0.capacity_tokens = 1000
"""


# Stage 1's 500-byte queue drops 15 packets, whose stage-1 arrivals are not
# the arrivals in input.csv.
QUEUE_LIMIT_RUN_CONFIG = TWO_STAGE_RUN_CONFIG + "pipeline.1.queue_limit_bytes = 500\n"


def assert_reads_back(cfg: Path, run: Path, stages: int, work: Path) -> None:
    """What `run` wrote to `run` from `cfg` reads back, byte for byte:
    `report --stage k` gives each stage's figure and its .panels.csv, `shape`
    on input.csv gives every stage CSV, `analyze --result` compares each
    stage, and `analyze` on input.csv (against the last stage, if any) gives
    `run`'s metrics CSVs. Scratch files go under `work`."""
    for k in range(stages):
        base = f"stage{k}."
        svg = work / "report" / f"{base}svg"
        assert main(["report", "--config", str(cfg), "--input", f"{run}/",
                     "--stage", str(k), "--output", str(svg)]) == 0
        assert svg.read_bytes() == (run / (base + "figure.svg")).read_bytes()
        assert svg.with_suffix(".panels.csv").read_bytes() == \
            (run / (base + "figure.panels.csv")).read_bytes()
        assert main(["analyze", "--input", str(run / (base + "input.csv")),
                     "--result", f"{run}/{base}"]) == 0
    shaped = str(work / "shape" / "s-")
    if stages:
        assert main(["shape", "--config", str(cfg), "--input", str(run / "input.csv"),
                     "--output", shaped]) == 0
    for name in (f"stage{k}.{kind}.csv" for k in range(stages)
                 for kind in ("input", "shaped", "drops", "occupancy")):
        assert Path(shaped + name).read_bytes() == (run / name).read_bytes(), name
    prefix = str(work / "analyze" / "m-")
    result = ["--result", f"{run}/stage{stages - 1}."] if stages else []
    assert main(["analyze", "--config", str(cfg), "--input", str(run / "input.csv"),
                 *result, "--output", prefix]) == 0
    sides = (("before.", "input"), ("after.", "output")) if stages else (("", "input"),)
    files = [("comparison.csv", "comparison.csv")] if stages else []
    files += [(f"{side}{kind}.csv", f"metrics.{run_side}.{kind}.csv") for side, run_side in sides
              for kind in ("summary", "jitter", "pdv", "throughput")]
    for mine, theirs in files:
        assert Path(prefix + mine).read_bytes() == (run / theirs).read_bytes(), mine


@pytest.mark.parametrize("config", [AUDIO_RUN_CONFIG, VIDEO_RUN_CONFIG, TWO_STAGE_RUN_CONFIG,
                                    HUGE_BUCKET_RUN_CONFIG, TIED_DEPARTURES_RUN_CONFIG,
                                    QUEUE_LIMIT_RUN_CONFIG],
                         ids=["audio", "video", "leaky-token", "huge-bucket", "tied-departures",
                              "leaky-token-queue-limit"])
def test_run_and_report_agree(tmp_path, config):
    """`run` draws each stage's figure from memory; `report` shapes the
    stage's input CSV that `run` wrote again. Every trace CSV must read back,
    and everything else `run` wrote must read back as assert_reads_back says."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
    stages = len(parse_scenario(config).pipeline)
    read_trace_csv((out / "input.csv").read_bytes())
    for k in range(stages):
        base = f"stage{k}."
        for name in ("input.csv", "shaped.csv"):
            read_trace_csv((out / (base + name)).read_bytes())
    assert_reads_back(cfg, out, stages, tmp_path)


@pytest.fixture(scope="module")
def two_stage_run(tmp_path_factory):
    """(config, run directory) of a TWO_STAGE_RUN_CONFIG run."""
    root = tmp_path_factory.mktemp("two-stage")
    cfg, run = root / "run.cfg", root / "run"
    cfg.write_text(TWO_STAGE_RUN_CONFIG)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(cfg), "--output", str(run)]) == 0
    return cfg, run


@pytest.mark.parametrize("stage", [0, 1])
def test_report_reads_only_the_stage_input(tmp_path, two_stage_run, stage):
    """`report --stage k` shapes stage<k>.input.csv under stage k of the
    config, and draws what `run` drew, with no shaped, drops or occupancy
    CSV beside it."""
    cfg, run = two_stage_run
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for k in range(2):
        (inputs / f"stage{k}.input.csv").write_bytes((run / f"stage{k}.input.csv").read_bytes())
    svg = tmp_path / "f.svg"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["report", "--config", str(cfg), "--input", f"{inputs}/",
                     "--stage", str(stage), "--output", str(svg)]) == 0
    assert svg.read_bytes() == (run / f"stage{stage}.figure.svg").read_bytes()
    assert (tmp_path / "f.panels.csv").read_bytes() == \
        (run / f"stage{stage}.figure.panels.csv").read_bytes()


def test_report_shapes_under_its_own_config(tmp_path, two_stage_run):
    """A config whose stage 1 cannot pass the run's 125-byte packets fails
    as stage 1 and writes nothing, whatever the run directory holds."""
    _, run = two_stage_run
    cfg = tmp_path / "small.cfg"
    cfg.write_text(TWO_STAGE_RUN_CONFIG.replace("capacity_tokens = 250", "capacity_tokens = 100"))
    out = tmp_path / "out"
    proc = run_cli("report", "--config", cfg, "--input", f"{run}/", "--stage", 1,
                   "--output", out / "f.svg")
    assert_usage_error(proc, "")
    assert proc.stderr.startswith("error: stage 1: packet of 125 bytes exceeds token capacity")
    assert files_under(out) == []


def bounded(scenario: ScenarioConfig) -> ScenarioConfig:
    """The scenario cut to 2 s or less (most draws near 2 s), for video to at
    most 30 fps and 41 fragments a frame, and given an all-default channel if
    it has pipeline stages and no channel: a few thousand packets at most."""
    gen = scenario.generator
    if isinstance(gen, VideoGenConfig):
        gen = replace(gen, fps=gen.fps % 30 + 1,
                      mtu_payload_bytes=max(gen.mtu_payload_bytes, gen.i_frame_bytes // 20))
    channel = scenario.channel or (ChannelModel() if scenario.pipeline else None)
    return replace(scenario, generator=gen, channel=channel,
                   duration_us=2_000_000 - scenario.duration_us % 2_000_000)


# channel jitter of up to 3 packet intervals (audio) and 2.5 frame intervals (video)
@example(scenario=parse_scenario(JITTERY_AUDIO_CONFIG))
@example(scenario=parse_scenario(VIDEO_CONFIG.replace("uniform(0,15000)", "uniform(0,100000)")))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(scenario=SCENARIOS.map(bounded))
def test_whatever_run_writes_reads_back(scenario):
    """`run` on any bounded scenario exits 0 or 2, and on 0 what it wrote
    reads back (assert_reads_back)."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cfg = work / "cfg"
        cfg.write_text(config_text(scenario, omit_defaults=True))
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", "--config", str(cfg), "--output", str(work / "run")])
        assert code in (0, 2)
        if code == 0:
            assert_reads_back(cfg, work / "run", len(scenario.pipeline), work)


CONTRACT_CASES = {
    # command: (the input file it reads, argv after the command)
    "generate": ("cfg", ["--config", "{cfg}", "--output", "{out}/t.csv"]),
    "run-config": ("cfg", ["--config", "{cfg}", "--output", "{out}/r"]),
    "shape-config": ("cfg", ["--config", "{cfg}", "--input", "{run}/input.csv",
                             "--output", "{out}/s-"]),
    "shape-trace": ("run/input.csv", ["--config", "{cfg}", "--input", "{run}/input.csv",
                                      "--output", "{out}/s-"]),
    "analyze-trace": ("run/stage0.input.csv", ["--input", "{run}/stage0.input.csv",
                                               "--result", "{run}/stage0.",
                                               "--output", "{out}/a-"]),
    "analyze-shaped": ("run/stage0.shaped.csv", ["--input", "{run}/stage0.input.csv",
                                                 "--result", "{run}/stage0.",
                                                 "--output", "{out}/a-"]),
    "report-config": ("cfg", ["--config", "{cfg}", "--input", "{run}/",
                              "--output", "{out}/f.svg"]),
    "report-input": ("run/stage0.input.csv", ["--config", "{cfg}", "--input", "{run}/",
                                              "--output", "{out}/f.svg"]),
}


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    """A config with a leaky and a token stage, and the run directory it makes."""
    root = tmp_path_factory.mktemp("contract")
    (root / "cfg").write_text(TWO_STAGE_RUN_CONFIG.replace(
        "duration_us = 10000000", "duration_us = 2000000"))
    assert main(["run", "--config", str(root / "cfg"), "--output", str(root / "run")]) == 0
    return root


def emptied(data: bytes, line: int, field: int) -> bytes:
    """`data` with one comma-separated field of one line emptied."""
    lines = data.split(b"\n")
    fields = lines[line].split(b",")
    if field < len(fields):
        fields[field] = b""
    lines[line] = b",".join(fields)
    return b"\n".join(lines)


def mangled(data: bytes):
    """Arbitrary bytes, `data` with a slice replaced by arbitrary bytes, or
    `data` with one field emptied (in a trace CSV, a blank arrival is valid)."""
    return st.one_of(
        st.binary(max_size=200),
        st.tuples(st.integers(0, len(data)), st.integers(0, 40), st.binary(max_size=40))
        .map(lambda c: data[:c[0]] + c[2] + data[c[0] + c[1]:]),
        st.tuples(st.integers(0, data.count(b"\n")), st.integers(0, 6))
        .map(lambda c: emptied(data, *c)))


@pytest.mark.parametrize("case", list(CONTRACT_CASES))
def test_exit_code_contract_on_arbitrary_input(contract_dir, case):
    """Whatever bytes the input holds, main returns 0, 2 or 3, lets no
    exception escape, and writes nothing when it returns 2; when the bytes of
    a trace CSV do not read, the message names that file. A config that
    generates a trace (generate, run) is arbitrary bytes only, because a
    mangled valid one could ask for an unbounded trace."""
    name, argv = CONTRACT_CASES[case]
    target = contract_dir / name
    original = target.read_bytes()
    command = case.split("-")[0]
    reader = None if name == "cfg" else read_trace_csv

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.binary(max_size=200) if command in ("generate", "run") else mangled(original))
    def check(data):
        target.write_bytes(data)
        with tempfile.TemporaryDirectory() as out:
            args = [a.format(cfg=contract_dir / "cfg", run=contract_dir / "run", out=out)
                    for a in argv]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([command, *args])
            assert code in (0, 2, 3)
            if code == 2:
                assert files_under(Path(out)) == []
            if reader is not None:
                try:
                    reader(data)
                except (TraceFormatError, TraceValidationError):
                    assert code == 2 and str(target) in err.getvalue(), err.getvalue()

    try:
        check()
    finally:
        target.write_bytes(original)
