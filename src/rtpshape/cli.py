"""Command-line surface: generate | shape | analyze | report | run.

Exit codes: 0 success, 2 usage/config/validation problems, 3 I/O problems.
Every check runs before the first file is written, so a subcommand that
exits 2 writes nothing. Diagnostics go to stderr; machine-readable output
goes to files or stdout.
"""

from __future__ import annotations

import argparse
import sys
from collections import namedtuple
from dataclasses import replace
from itertools import chain
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from . import metrics as metrics_mod
from . import reporting
from .model import (StreamTrace, TraceFormatError, TraceValidationError, check_trace,
                    parse_trace_csv, read_trace_csv, write_trace_csv)
from .scenario import ConfigError, ScenarioConfig, parse_scenario
from .shaping import (ShapeResult, ShaperConfig, ShapingPreconditionError,
                      PipelineStageError, run_pipeline)
from .traffic import (AudioGenConfig, GenerationError, apply_channel,
                      generate_audio, generate_video)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3

_USAGE_ERRORS = (ConfigError, TraceFormatError, TraceValidationError,
                 ShapingPreconditionError, GenerationError,
                 metrics_mod.InsufficientDataError,
                 metrics_mod.MetricPreconditionError,
                 metrics_mod.InconsistentInputError)

Files = Iterable[tuple[str, Union[str, bytes]]]  # (name, serialized) pairs
StageNames = namedtuple("StageNames", "input shaped drops occupancy figure")


def _stage_names(prefix: str, k: Optional[int] = None) -> StageNames:
    """The run-directory layout: stage k's file names under `prefix`, or with
    no k, those starting with `prefix`; `run`'s input.csv has prefix ""."""
    base = prefix if k is None else f"{prefix}stage{k}."
    return StageNames(*(base + name for name in ("input.csv", "shaped.csv", "drops.csv",
                                                 "occupancy.csv", "figure.svg")))


def _load_scenario(path: str) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config is not ASCII: {exc}") from None
    return parse_scenario(text)


def _read(path: str, parse=read_trace_csv):
    """The trace CSV at `path` as `parse` reads it, the one artifact a command
    reads; an error in its bytes names the file."""
    data = Path(path).read_bytes()
    try:
        return parse(data)
    except (TraceFormatError, TraceValidationError, ShapingPreconditionError) as exc:
        raise TraceFormatError(f"{path}: {exc}") from None


def _parse_arrived(data: bytes) -> StreamTrace:
    """A trace CSV whose every packet has arrived, as shaping, a figure and a
    comparison need. Arrivals are checked first: one missing arrival makes the
    send times the ones whose order is checked."""
    trace = parse_trace_csv(data)
    if trace.missing:
        raise ShapingPreconditionError(
            f"packet {trace.missing[0]} has no arrival timestamp (recv_ts_us)")
    return check_trace(trace)


def _write_files(prefix: str, files: Files) -> None:
    """Write each (name, serialized) pair to `prefix + name` as it comes."""
    for name, data in files:
        path = Path(prefix + name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data.encode("ascii") if isinstance(data, str) else data)


def _generate_trace(scenario: ScenarioConfig, seed_override=None) -> StreamTrace:
    seed = scenario.seed if seed_override is None else seed_override
    if isinstance(scenario.generator, AudioGenConfig):
        trace = generate_audio(scenario.generator, scenario.duration_us)
    else:
        trace = generate_video(scenario.generator, scenario.duration_us, seed)
    if scenario.channel is not None:
        channel = scenario.channel if seed_override is None \
            else replace(scenario.channel, seed=seed_override)
        trace = apply_channel(trace, channel)
    return check_trace(trace)


def _stage_files(trace: StreamTrace, trace_csv: bytes, results: Sequence[ShapeResult],
                 configs: Sequence[ShaperConfig] = ()) -> Files:
    """Each stage's CSVs, and given the stage configs, its figure. Each trace
    is serialized once: a stage's shaped CSV is the next stage's input."""
    for k, result in enumerate(results):
        names = _stage_names("", k)
        shaped_csv = write_trace_csv(result.shaped)
        yield names.input, trace_csv
        yield names.shaped, shaped_csv
        yield names.drops, reporting.drops_csv(result)
        yield names.occupancy, reporting.occupancy_csv(result)
        if configs:
            yield from _figure_files(names.figure,
                                     reporting.panel_report(trace, result, configs[k]))
        trace, trace_csv = result.shaped, shaped_csv


def _figure_files(svg: str, panels: Sequence[reporting.Panel]) -> Files:
    yield svg, reporting.render_svg(panels)
    yield str(Path(svg).with_suffix(".panels.csv")), reporting.panels_csv(panels)


def _metrics_files(sides: tuple[str, str], measured) -> Files:
    """One trace's metrics under the prefix `sides[0]`; or comparison.csv,
    then the input's metrics under `sides[0]` and the output's under `sides[1]`."""
    compared = isinstance(measured, metrics_mod.ComparisonReport)
    if compared:
        yield "comparison.csv", reporting.comparison_csv(measured)
    for side, report in zip(sides, (measured.before, measured.after) if compared else [measured]):
        yield side + "summary.csv", reporting.summary_csv(report)
        yield side + "jitter.csv", reporting.jitter_csv(report)
        yield side + "pdv.csv", reporting.pdv_csv(report)
        yield side + "throughput.csv", reporting.throughput_csv(report)


def cmd_generate(args) -> int:
    scenario = _load_scenario(args.config)
    trace = _generate_trace(scenario, args.seed)
    _write_files("", [(args.output, write_trace_csv(trace))])
    ts = trace.active_timestamps()
    print(f"packets={len(trace)} duration_us={ts[-1] - ts[0] if ts else 0}")
    return EXIT_OK


def cmd_shape(args) -> int:
    scenario = _load_scenario(args.config)
    if not scenario.pipeline:
        raise ConfigError("pipeline is empty; nothing to shape")
    trace = _read(args.input, _parse_arrived)
    _, results = run_pipeline(list(scenario.pipeline), trace)
    _write_files(args.output, _stage_files(trace, write_trace_csv(trace), results))
    print(f"stages={len(results)} shaped={len(results[-1].shaped)} "
          f"dropped={sum(len(r.drops) for r in results)}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    window = (_load_scenario(args.config) if args.config else ScenarioConfig).throughput_window_us
    if args.result is None:
        measured = metrics_mod.metrics_report(_read(args.input), window)
        sides, shown = ("", ""), reporting.summary_csv(measured)
    else:
        trace = _read(args.input, _parse_arrived)
        shaped = _read(_stage_names(args.result).shaped, _parse_arrived)
        measured = metrics_mod.compare(trace, shaped, window)
        sides, shown = ("before.", "after."), reporting.comparison_csv(measured)
    if args.output:
        _write_files(args.output, _metrics_files(sides, measured))
    sys.stdout.write(shown)
    return EXIT_OK


def cmd_report(args) -> int:
    scenario = _load_scenario(args.config)
    k = args.stage
    if not 0 <= k < len(scenario.pipeline):
        raise ConfigError(f"config has no pipeline stage {k}")
    incoming = _read(_stage_names(args.input, k).input, _parse_arrived)
    try:
        _, (result,) = run_pipeline([scenario.pipeline[k]], incoming)
    except PipelineStageError as exc:
        raise PipelineStageError(k, exc.cause) from exc.cause
    panels = reporting.panel_report(incoming, result, scenario.pipeline[k])
    _write_files("", _figure_files(args.output, panels))
    print(f"panels={len(panels)}")
    return EXIT_OK


def cmd_run(args) -> int:
    scenario = _load_scenario(args.config)
    if scenario.pipeline and scenario.channel is None:
        raise ConfigError("pipeline stages need arrival times, and the config has no "
                          "channel section to stamp them")
    trace = _generate_trace(scenario, args.seed)
    final, results = run_pipeline(list(scenario.pipeline), trace)
    window = scenario.throughput_window_us
    measured = metrics_mod.compare(trace, final, window) if results \
        else metrics_mod.metrics_report(trace, window)
    trace_csv = write_trace_csv(trace)
    _write_files(f"{args.output}/", chain(
        [(_stage_names("").input, trace_csv)],
        _stage_files(trace, trace_csv, results, scenario.pipeline),
        _metrics_files(("metrics.input.", "metrics.output."), measured)))
    shaped = f" shaped={len(results[-1].shaped)} dropped={measured.drops_introduced}" \
        if results else ""
    print(f"packets={len(trace)}{shaped} stages={len(results)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtpshape",
        description="Traffic shaping and jitter analysis for RTP-style media traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a trace from a scenario config")
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("shape", help="run a trace through the configured pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="output file prefix")
    p.set_defaults(func=cmd_shape)

    p = sub.add_parser("analyze", help="metrics for one trace, or a before/after comparison")
    p.add_argument("--input", required=True)
    p.add_argument("--result", default=None,
                   help="stage prefix (e.g. out/stage0.) to compare against")
    p.add_argument("--output", default=None, help="output file prefix")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="shape one stage's input again and draw its figure")
    p.add_argument("--config", required=True)
    p.add_argument("--input", required=True,
                   help="shape result prefix; only its stage<k>.input.csv is read")
    p.add_argument("--stage", type=int, default=0)
    p.add_argument("--output", required=True, help="SVG path")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("run", help="generate, impair, shape, analyze and report in one go")
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PipelineStageError, OSError, *_USAGE_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause if isinstance(exc, PipelineStageError) else exc
        return EXIT_USAGE if isinstance(cause, _USAGE_ERRORS) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
