"""Scenario config files: a flat, line-oriented ``section.key = value``
format (ASCII, ``#`` comments) describing one end-to-end experiment.

Sections:

  generator.kind = audio | video
  generator.duration_us, generator.seed, plus the generator's own fields
  channel.base_delay_us, channel.jitter (none | uniform(lo,hi) |
      exponential(mean)), channel.loss_prob (integer, decimal or n/d),
      channel.seed -- the whole section is optional
  pipeline.<k>.type = leaky | token, plus that shaper's fields; stages are
      numbered 0..n-1 and may be absent entirely
  analysis.throughput_window_us
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .shaping import LeakyBucketConfig, ShaperConfig, TokenBucketConfig
from .traffic import (AudioGenConfig, ChannelModel, ExponentialJitter, NoJitter,
                      UniformJitter, VideoGenConfig)


class ConfigError(ValueError):
    """Scenario config file is malformed or violates an invariant."""


@dataclass(frozen=True)
class ScenarioConfig:
    generator: Union[AudioGenConfig, VideoGenConfig]
    duration_us: int
    seed: int
    channel: Optional[ChannelModel]
    pipeline: tuple[ShaperConfig, ...]
    throughput_window_us: int = 10**6


def _parse_lines(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise ConfigError(f"line {lineno}: key {key!r} has no section prefix")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first on line {entries[key][1]})")
        entries[key] = (value, lineno)
    return entries


class _Section:
    def __init__(self, entries: dict[str, tuple[str, int]], prefix: str):
        self.prefix = prefix
        self.items = {key[len(prefix) + 1:]: val
                      for key, val in entries.items()
                      if key.startswith(prefix + ".")}
        self.used: set[str] = set()

    def __bool__(self) -> bool:
        return bool(self.items)

    def get(self, name: str, default=None) -> Optional[str]:
        self.used.add(name)
        if name in self.items:
            return self.items[name][0]
        return default

    def get_int(self, name: str, default: Optional[int] = None) -> Optional[int]:
        raw = self.get(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            line = self.items[name][1]
            raise ConfigError(f"line {line}: {self.prefix}.{name} must be an integer, "
                              f"got {raw!r}") from None

    def get_fraction(self, name: str, default=None):
        raw = self.get(name)
        if raw is None:
            return default
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            line = self.items[name][1]
            raise ConfigError(f"line {line}: {self.prefix}.{name} must be a rational, "
                              f"got {raw!r}") from None

    def check_no_extras(self) -> None:
        extras = set(self.items) - self.used
        if extras:
            name = sorted(extras)[0]
            line = self.items[name][1]
            raise ConfigError(f"line {line}: unknown key {self.prefix}.{name}")


def _parse_jitter(raw: str, line_hint: str):
    text = raw.strip()
    if text == "none":
        return NoJitter()
    for name, cls, arity in (("uniform", UniformJitter, 2),
                             ("exponential", ExponentialJitter, 1)):
        if text.startswith(name + "(") and text.endswith(")"):
            args = text[len(name) + 1:-1].split(",")
            if len(args) != arity:
                raise ConfigError(f"{line_hint}: {name} jitter takes {arity} argument(s)")
            try:
                return cls(*(int(a.strip()) for a in args))
            except ValueError as exc:
                raise ConfigError(f"{line_hint}: {exc}") from None
    raise ConfigError(f"{line_hint}: jitter must be none, uniform(lo,hi) "
                      f"or exponential(mean), got {raw!r}")


def _build_generator(section: _Section):
    kind = section.get("kind")
    if kind is None:
        raise ConfigError("generator.kind is required")
    duration = section.get_int("duration_us")
    if duration is None:
        raise ConfigError("generator.duration_us is required")
    seed = section.get_int("seed", 0)
    try:
        if kind == "audio":
            cfg = AudioGenConfig(
                ptime_us=section.get_int("ptime_us", 20000),
                payload_bytes=section.get_int("payload_bytes", 125),
                ssrc=section.get_int("ssrc", AudioGenConfig.ssrc),
                payload_type=section.get_int("payload_type", AudioGenConfig.payload_type),
            )
        elif kind == "video":
            cfg = VideoGenConfig(
                fps=section.get_int("fps", 25),
                gop=section.get_int("gop", 12),
                i_frame_bytes=section.get_int("i_frame_bytes", 8000),
                p_frame_bytes=section.get_int("p_frame_bytes", 1500),
                size_jitter_pct=section.get_int("size_jitter_pct", 20),
                mtu_payload_bytes=section.get_int("mtu_payload_bytes", 1200),
                ssrc=section.get_int("ssrc", VideoGenConfig.ssrc),
                payload_type=section.get_int("payload_type", VideoGenConfig.payload_type),
            )
        else:
            raise ConfigError(f"generator.kind must be audio or video, got {kind!r}")
    except ValueError as exc:
        raise ConfigError(f"generator: {exc}") from None
    section.check_no_extras()
    return cfg, duration, seed


def _build_channel(section: _Section) -> Optional[ChannelModel]:
    if not section:
        return None
    jitter_raw = section.get("jitter", "none")
    try:
        channel = ChannelModel(
            base_delay_us=section.get_int("base_delay_us", 0),
            jitter=_parse_jitter(jitter_raw, "channel.jitter"),
            loss_prob=section.get_fraction("loss_prob", Fraction(0)),
            seed=section.get_int("seed", 0),
        )
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}") from None
    section.check_no_extras()
    return channel


def _build_stage(section: _Section, index: int) -> ShaperConfig:
    kind = section.get("type")
    try:
        if kind == "leaky":
            stage = LeakyBucketConfig(
                capacity_packets=section.get_int("capacity_packets", 15),
                drain_interval_us=section.get_int("drain_interval_us", 20000),
            )
        elif kind == "token":
            rate = section.get_fraction("rate")
            capacity = section.get_int("capacity_tokens")
            if rate is None or capacity is None:
                raise ConfigError(f"pipeline.{index}: token stage needs rate "
                                  "and capacity_tokens")
            stage = TokenBucketConfig(
                rate=rate,
                capacity_tokens=capacity,
                initial_tokens=section.get_int("initial_tokens"),
                queue_limit_bytes=section.get_int("queue_limit_bytes"),
            )
        else:
            raise ConfigError(f"pipeline.{index}.type must be leaky or token, "
                              f"got {kind!r}")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"pipeline.{index}: {exc}") from None
    section.check_no_extras()
    return stage


def parse_scenario(text: str) -> ScenarioConfig:
    entries = _parse_lines(text)

    known_sections = {"generator", "channel", "analysis"}
    stage_indices: set[int] = set()
    for key, (_, lineno) in entries.items():
        section = key.split(".", 1)[0]
        if section == "pipeline":
            parts = key.split(".")
            if len(parts) < 3 or not parts[1].isdigit():
                raise ConfigError(f"line {lineno}: pipeline keys look like "
                                  "pipeline.<index>.<field>")
            stage_indices.add(int(parts[1]))
        elif section not in known_sections:
            raise ConfigError(f"line {lineno}: unknown section {section!r}")

    if stage_indices and stage_indices != set(range(len(stage_indices))):
        raise ConfigError(f"pipeline stages must be numbered 0..n-1, got "
                          f"{sorted(stage_indices)}")

    generator, duration, seed = _build_generator(_Section(entries, "generator"))
    channel = _build_channel(_Section(entries, "channel"))
    pipeline = tuple(_build_stage(_Section(entries, f"pipeline.{k}"), k)
                     for k in range(len(stage_indices)))

    analysis = _Section(entries, "analysis")
    window = analysis.get_int("throughput_window_us", ScenarioConfig.throughput_window_us)
    analysis.check_no_extras()
    if window < 1:
        raise ConfigError("analysis.throughput_window_us must be >= 1")

    return ScenarioConfig(generator=generator, duration_us=duration, seed=seed,
                          channel=channel, pipeline=pipeline,
                          throughput_window_us=window)
