"""Command-line surface: generate | shape | analyze | report | run.

Exit codes: 0 success, 2 usage/config/validation problems, 3 I/O problems.
Diagnostics go to stderr; machine-readable output goes to files or stdout.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import metrics as metrics_mod
from . import reporting
from .model import (TS_MAX, StreamTrace, TraceFormatError, TraceValidationError,
                    Violation, check_trace, read_trace_csv, write_trace_csv)
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


def _load_scenario(path: str) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config is not ASCII: {exc}") from None
    return parse_scenario(text)


def _read_trace(path: str) -> StreamTrace:
    return read_trace_csv(Path(path).read_bytes())


def _write(path: Path, data: str | bytes) -> None:
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


def _stage_prefix(prefix: str, k: int) -> str:
    return f"{prefix}stage{k}."


def _write_stage(prefix: str, k: int, incoming_csv: bytes, result: ShapeResult) -> bytes:
    """Write stage k's CSVs; `incoming_csv` is its input trace, serialized.
    Returns the shaped trace's CSV, which is the next stage's input."""
    # Departures never decrease, so the last one bounds every timestamp the
    # stage writes; past TS_MAX its CSVs could not be read back.
    shaped = result.shaped.packets
    if shaped and shaped[-1].recv_ts_us > TS_MAX:
        raise TraceValidationError([Violation(
            len(shaped) - 1, f"stage {k}: departure {shaped[-1].recv_ts_us} > {TS_MAX}")])
    base = _stage_prefix(prefix, k)
    shaped_csv = write_trace_csv(result.shaped)
    _write(Path(base + "input.csv"), incoming_csv)
    _write(Path(base + "shaped.csv"), shaped_csv)
    _write(Path(base + "drops.csv"), reporting.drops_csv(result))
    _write(Path(base + "occupancy.csv"), reporting.occupancy_csv(result))
    return shaped_csv


def _write_metrics(prefix: str, report: metrics_mod.MetricsReport) -> None:
    _write(Path(prefix + "summary.csv"), reporting.summary_csv(report))
    _write(Path(prefix + "jitter.csv"), reporting.jitter_csv(report))
    _write(Path(prefix + "pdv.csv"), reporting.pdv_csv(report))
    _write(Path(prefix + "throughput.csv"), reporting.throughput_csv(report))


def cmd_generate(args) -> int:
    scenario = _load_scenario(args.config)
    trace = _generate_trace(scenario, args.seed)
    _write(Path(args.output), write_trace_csv(trace))
    duration = 0
    if trace.packets:
        ts = trace.active_timestamps()
        duration = ts[-1] - ts[0]
    print(f"packets={len(trace)} duration_us={duration}")
    return EXIT_OK


def cmd_shape(args) -> int:
    scenario = _load_scenario(args.config)
    if not scenario.pipeline:
        raise ConfigError("pipeline is empty; nothing to shape")
    trace = _read_trace(args.input)
    final, results = run_pipeline(list(scenario.pipeline), trace)
    stage_csv = write_trace_csv(trace)
    for k, result in enumerate(results):
        stage_csv = _write_stage(args.output, k, stage_csv, result)
    print(f"stages={len(results)} shaped={len(final)} "
          f"dropped={sum(len(r.dropped) for r in results)}")
    return EXIT_OK


def _reconstruct_result(before: StreamTrace, prefix: str) -> ShapeResult:
    shaped = _read_trace(prefix + "shaped.csv")
    rows = reporting.read_drops_csv(Path(prefix + "drops.csv").read_bytes())
    # a drop's timestamp is its arrival at the stage: recv_ts_us in `before`
    found = metrics_mod.match_packets([p[:2] + (p.recv_ts_us,) for p in before.packets],
                                      [row[:3] for row in rows])
    dropped = [(before.packets[i], row[3]) for i, row in zip(found, rows)]
    return ShapeResult(shaped=shaped, dropped=tuple(dropped), occupancy=())


def cmd_analyze(args) -> int:
    window = 10**6
    if args.config:
        window = _load_scenario(args.config).throughput_window_us
    trace = _read_trace(args.input)
    out_prefix = args.output or ""
    if args.result is None:
        report = metrics_mod.metrics_report(trace, window)
        if out_prefix:
            _write_metrics(out_prefix, report)
        sys.stdout.write(reporting.summary_csv(report))
    else:
        result = _reconstruct_result(trace, args.result)
        comparison = metrics_mod.compare(trace, result, window)
        if out_prefix:
            _write(Path(out_prefix + "comparison.csv"),
                   reporting.comparison_csv(comparison))
            _write_metrics(out_prefix + "before.", comparison.before)
            _write_metrics(out_prefix + "after.", comparison.after)
        sys.stdout.write(reporting.comparison_csv(comparison))
    return EXIT_OK


def _render_stage(cfg: ShaperConfig, incoming: StreamTrace, result: ShapeResult,
                  svg_path: str) -> reporting.PanelReport:
    """Write one stage's figure (SVG and panels CSV) from its result."""
    panel = reporting.panel_report(incoming, result, cfg)
    _write(Path(svg_path), reporting.render_svg(panel))
    _write(Path(svg_path).with_suffix(".panels.csv"), reporting.panels_csv(panel))
    return panel


def _report_stage(scenario: ScenarioConfig, prefix: str, k: int,
                  svg_path: str) -> reporting.PanelReport:
    """Read stage k's CSVs under `prefix` and render its figure."""
    if not 0 <= k < len(scenario.pipeline):
        raise ConfigError(f"config has no pipeline stage {k}")
    base = _stage_prefix(prefix, k)
    incoming = _read_trace(base + "input.csv")
    shaped = _read_trace(base + "shaped.csv")
    occupancy = reporting.read_occupancy_csv(Path(base + "occupancy.csv").read_bytes())
    result = ShapeResult(shaped=shaped, dropped=(), occupancy=occupancy)
    return _render_stage(scenario.pipeline[k], incoming, result, svg_path)


def cmd_report(args) -> int:
    scenario = _load_scenario(args.config)
    panel = _report_stage(scenario, args.input, args.stage, args.output)
    print(f"panels={len(panel.panels)}")
    return EXIT_OK


def cmd_run(args) -> int:
    scenario = _load_scenario(args.config)
    window = scenario.throughput_window_us
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    trace = _generate_trace(scenario, args.seed)
    stage_csv = write_trace_csv(trace)
    _write(out / "input.csv", stage_csv)

    if not scenario.pipeline:
        _write_metrics(str(out / "metrics.input."), metrics_mod.metrics_report(trace, window))
        print(f"packets={len(trace)} stages=0")
        return EXIT_OK

    final, results = run_pipeline(list(scenario.pipeline), trace)
    prefix = str(out) + "/"
    current = trace
    for k, (cfg, result) in enumerate(zip(scenario.pipeline, results)):
        stage_csv = _write_stage(prefix, k, stage_csv, result)
        _render_stage(cfg, current, result, str(out / f"stage{k}.figure.svg"))
        current = result.shaped
    combined = ShapeResult(
        shaped=final,
        dropped=tuple(d for r in results for d in r.dropped),
        occupancy=(),
    )
    # compare() measures the input trace too; its report is the input's.
    comparison = metrics_mod.compare(trace, combined, window)
    _write_metrics(str(out / "metrics.input."), comparison.before)
    _write(out / "comparison.csv", reporting.comparison_csv(comparison))
    _write_metrics(str(out / "metrics.output."), comparison.after)
    print(f"packets={len(trace)} shaped={len(final)} "
          f"dropped={len(combined.dropped)} stages={len(results)}")
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

    p = sub.add_parser("report", help="render the panel figure for a shape result")
    p.add_argument("--config", required=True)
    p.add_argument("--input", required=True, help="shape result prefix")
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
    except PipelineStageError as exc:
        cause = exc.cause
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(cause, _USAGE_ERRORS) else EXIT_IO
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
