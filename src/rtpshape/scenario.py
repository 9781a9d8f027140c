"""Scenario config files: a flat, line-oriented ``section.key = value``
format (ASCII, ``#`` comments) describing one end-to-end experiment.

A section's keys are the fields of the config class it builds, and that
class states each field's type and default and checks the values. A field
with no default is required; any other key is an error.

  generator.kind = audio | video picks AudioGenConfig | VideoGenConfig; the
      section also holds generator.duration_us (required) and, for video,
      generator.seed (default 0)
  channel.* builds ChannelModel; jitter is none | uniform(lo,hi) |
      exponential(mean), loss_prob an integer, decimal or n/d; the whole
      section is optional
  pipeline.<k>.type = leaky | token picks LeakyBucketConfig |
      TokenBucketConfig; stages are numbered 0..n-1 and may be absent
  analysis.throughput_window_us
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from typing import Optional, Union, get_type_hints

from .shaping import LeakyBucketConfig, ShaperConfig, TokenBucketConfig
from .traffic import (AudioGenConfig, ChannelModel, ExponentialJitter, JitterModel,
                      NoJitter, UniformJitter, VideoGenConfig)


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


Entries = dict[str, tuple[str, int]]  # key -> (value, line number)


def _parse_lines(text: str) -> Entries:
    entries: Entries = {}
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


_JITTERS = {"none": NoJitter, "uniform": UniformJitter, "exponential": ExponentialJitter}


def _parse_jitter(raw: str) -> JitterModel:
    """``none``, or a jitter class's name and one integer per field of that
    class: ``uniform(lo,hi)``, ``exponential(mean)``."""
    name, paren, args = raw.partition("(")
    cls = _JITTERS.get(name)
    values = args[:-1].split(",") if args.endswith(")") else []
    if cls is None or bool(paren) == (cls is NoJitter) or len(values) != len(fields(cls)):
        raise ValueError(raw)
    numbers = [int(value) for value in values]
    try:
        return cls(*numbers)
    except ValueError as exc:
        raise ConfigError(f"channel.jitter: {exc}") from None


# How a value of each field type is read, and what a bad value was meant to be.
_PARSERS = {int: (int, "an integer"), Optional[int]: (int, "an integer"),
            Fraction: (Fraction, "a rational"),
            JitterModel: (_parse_jitter, "none, uniform(lo,hi) or exponential(mean)")}

# The key that picks a section's config class, and the class for each value.
_KINDS = {"generator": ("kind", {"audio": AudioGenConfig, "video": VideoGenConfig}),
          "pipeline": ("type", {"leaky": LeakyBucketConfig, "token": TokenBucketConfig})}


def _parsers(cls, names) -> dict[str, tuple]:
    hints = get_type_hints(cls)
    return {name: _PARSERS[hints[name]] for name in names}


def _spec(cls) -> tuple[dict[str, tuple], list[str]]:
    """The parser of each of cls's fields, and the fields with no default."""
    return (_parsers(cls, [f.name for f in fields(cls)]),
            [f.name for f in fields(cls) if f.default is f.default_factory is MISSING])


# Resolved once: get_type_hints costs more than a whole parse.
_SPECS = {cls: _spec(cls) for cls in (AudioGenConfig, VideoGenConfig, ChannelModel,
                                       LeakyBucketConfig, TokenBucketConfig)}
# ScenarioConfig's fields that are set from the generator and analysis sections.
_RUN_KEYS = {"generator": _parsers(ScenarioConfig, ("duration_us", "seed")),
             "analysis": _parsers(ScenarioConfig, ("throughput_window_us",))}


def _read(prefix: str, items: Entries, parsers: dict[str, tuple]) -> dict[str, object]:
    values = {}
    for name, (raw, line) in items.items():
        if name not in parsers:
            raise ConfigError(f"line {line}: unknown key {prefix}.{name}")
        parse, what = parsers[name]
        try:
            values[name] = parse(raw)
        except ConfigError:
            raise
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"line {line}: {prefix}.{name} must be {what}, "
                              f"got {raw!r}") from None
    return values


def _build(prefix: str, cls, items: Entries):
    parsers, required = _SPECS[cls]
    values = _read(prefix, items, parsers)
    for name in required:
        if name not in values:
            raise ConfigError(f"{prefix}.{name} is required")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{prefix}: {exc}") from None


def _build_kind(prefix: str, items: Entries):
    key, kinds = _KINDS[prefix.split(".")[0]]
    kind, _ = items.pop(key, (None, 0))
    if kind is None:
        raise ConfigError(f"{prefix}.{key} is required")
    if kind not in kinds:
        raise ConfigError(f"{prefix}.{key} must be {' or '.join(kinds)}, got {kind!r}")
    return _build(prefix, kinds[kind], items)


def parse_scenario(text: str) -> ScenarioConfig:
    sections: dict[str, Entries] = {"generator": {}, "channel": {}, "analysis": {}}
    stages: dict[int, Entries] = {}
    for key, (raw, line) in _parse_lines(text).items():
        section, name = key.split(".", 1)
        if section == "pipeline":
            index, _, name = name.partition(".")
            if not (name and index.isdecimal() and index == str(int(index))):
                raise ConfigError(f"line {line}: pipeline keys look like pipeline."
                                  "<index>.<field>, <index> written 0, 1, 2, ...")
            stages.setdefault(int(index), {})[name] = (raw, line)
        elif section in sections:
            sections[section][name] = (raw, line)
        else:
            raise ConfigError(f"line {line}: unknown section {section!r}")

    if sorted(stages) != list(range(len(stages))):
        raise ConfigError(f"pipeline stages must be numbered 0..n-1, got {sorted(stages)}")

    generator = sections["generator"]
    video = generator.get("kind", ("",))[0] == "video"  # only video takes a seed
    run = _read("generator", {name: generator.pop(name) for name in _RUN_KEYS["generator"]
                              if name in generator and (video or name != "seed")},
                _RUN_KEYS["generator"])
    gen = _build_kind("generator", generator)
    if "duration_us" not in run:
        raise ConfigError("generator.duration_us is required")
    channel = _build("channel", ChannelModel, sections["channel"]) \
        if sections["channel"] else None
    pipeline = tuple(_build_kind(f"pipeline.{k}", stages[k])
                     for k in range(len(stages)))
    analysis = _read("analysis", sections["analysis"], _RUN_KEYS["analysis"])
    if analysis.get("throughput_window_us", ScenarioConfig.throughput_window_us) < 1:
        raise ConfigError("analysis.throughput_window_us must be >= 1")
    return ScenarioConfig(generator=gen, channel=channel, pipeline=pipeline,
                          **{"seed": 0, **run, **analysis})
