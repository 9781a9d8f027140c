"""Report surfaces: CSV serializations of shaping/metric results and the
stacked-panel SVG figures (3 panels for the leaky bucket, 4 for the token
bucket). The trace CSV is the one artifact read back, by `model`.

All output is byte-deterministic: fixed field order, fixed decimal
formatting, LF newlines.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import floordiv, mod, not_
from typing import Iterator, Sequence

from .metrics import ComparisonReport, MetricsReport, _millionths, format_decimal
from .model import _CHUNK_ROWS, StreamTrace, _format_columns, _Record
from .shaping import LeakyBucketConfig, ShapeResult, ShaperConfig, TokenBucketConfig

OCCUPANCY_HEADER = "ts_us,queued_packets,queued_bytes,tokens"
DROPS_HEADER = "seq,ssrc,ts_us,reason"


class Panel(_Record):
    """One panel of a figure, built from its columns: Panel(title, kind, unit,
    ts_us, values), where kind is "scatter" or "step" and point k is
    (ts_us[k], values[k]). A figure is a tuple of panels."""

    __slots__ = ("title", "kind", "unit", "ts_us", "values")


def panel_report(incoming: StreamTrace, result: ShapeResult,
                 cfg: ShaperConfig) -> tuple[Panel, ...]:
    """Figure layout for one shaping stage: dots for packets, step lines for
    occupancy, matching the three/four-diagram structure of the shapers. Each
    panel's columns are the trace's or the samples' own."""
    shaped, occupancy = result.shaped, result.samples
    panels = [
        Panel("incoming traffic", "scatter", "bytes", incoming.recv_ts_us, incoming.size_bytes),
        Panel("shaped traffic", "scatter", "bytes", shaped.recv_ts_us, shaped.size_bytes),
    ]
    if isinstance(cfg, LeakyBucketConfig):
        panels.append(Panel("bucket content (packets)", "step", "packets",
                            occupancy.ts_us, occupancy.queued_packets))
    elif isinstance(cfg, TokenBucketConfig):
        panels.append(Panel("packet queue (bytes)", "step", "bytes",
                            occupancy.ts_us, occupancy.queued_bytes))
        panels.append(Panel("tokens available", "step", "tokens",
                            occupancy.ts_us, occupancy.tokens))
    else:
        raise TypeError(f"unknown shaper config: {cfg!r}")
    return tuple(panels)


def occupancy_csv(result: ShapeResult) -> str:
    return "".join([OCCUPANCY_HEADER + "\n",
                    *_format_columns("%s,%s,%s,%s\n", *result.samples)])


def drops_csv(result: ShapeResult) -> str:
    drops = result.drops
    return "".join([DROPS_HEADER + "\n", *_format_columns(
        "%s,%s,%s,%s\n", drops.seq, drops.ssrc, drops.recv_ts_us, result.reasons)])


def panels_csv(panels: Sequence[Panel]) -> str:
    chunks = ["panel,kind,ts_us,value\n"]
    for panel in panels:
        head = f"{panel.title},{panel.kind},".replace("%", "%%")
        chunks += _format_columns(head + "%s,%s\n", panel.ts_us, panel.values)
    return "".join(chunks)


def _fmt(value) -> str:
    if value is None:
        return "undefined"
    return format_decimal(value)


def summary_lines(report: MetricsReport) -> list[str]:
    jitter = "insufficient-data" if report.jitter_final_us is None \
        else format_decimal(report.jitter_final_us)
    lines = [
        f"total_packets,{report.total_packets}",
        f"total_bytes,{report.total_bytes}",
        f"duration_us,{report.duration_us}",
        f"jitter_final_us,{jitter}",
    ]
    stats = report.pdv_stats
    lines += [f"pdv_{k}_us," + ("insufficient-data" if stats is None else format_decimal(stats[k]))
              for k in ("min", "max", "mean", "p50", "p99")]
    lines += [
        f"loss_count,{report.loss_count}",
        f"loss_rate,{format_decimal(report.loss_rate)}",
        f"duplicate_count,{report.duplicate_count}",
    ]
    return lines


def summary_csv(report: MetricsReport) -> str:
    return "\n".join(summary_lines(report)) + "\n"


def comparison_csv(report: ComparisonReport) -> str:
    lines = [f"before_{line}" for line in summary_lines(report.before)]
    lines += [f"after_{line}" for line in summary_lines(report.after)]
    lines += [
        f"pdv_max_reduction_pct,{_fmt(report.pdv_max_reduction_pct)}",
        f"jitter_final_reduction_pct,{_fmt(report.jitter_final_reduction_pct)}",
        f"added_latency_mean_us,{format_decimal(report.added_latency_mean_us)}",
        f"added_latency_max_us,{report.added_latency_max_us}",
        f"drops_introduced,{report.drops_introduced}",
    ]
    return "\n".join(lines) + "\n"


def jitter_csv(report: MetricsReport) -> str:
    """The jitter series from index 1, each value as format_jitter renders it.
    Every jitter value is >= 0, which this needs: a negative value's whole
    and fraction would be floored (-2**57 written as -1.992188, where
    format_jitter gives -0.007812).
    A chunk of _CHUNK_ROWS values at a time, so that only one chunk's texts
    and column temporaries are alive, whole rows are written by one
    `%d,%d.%06d` pass; then only the rows whose fraction ends in 0 have their
    trailing zeros (and a bare point) stripped."""
    series = report.jitter_series or ()
    chunks = ["index,jitter_us\n"]
    for start in range(0, len(series), _CHUNK_ROWS):
        w = _millionths(series[start:start + _CHUNK_ROWS])
        frac = list(map(mod, w, repeat(10**6)))
        rows = "".join(_format_columns("%d,%d.%06d\n", range(start + 1, start + len(w) + 1),
                                       list(map(floordiv, w, repeat(10**6))), frac)).split("\n")
        for i in compress(range(len(frac)), map(not_, map(mod, frac, repeat(10)))):
            rows[i] = rows[i].rstrip("0").rstrip(".")
        chunks.append("\n".join(rows))
    return "".join(chunks)


def pdv_csv(report: MetricsReport) -> str:
    pdv = report.pdv_per_packet_us or ()
    return "".join(["index,pdv_us\n", *_format_columns("%s,%s\n", range(len(pdv)), pdv)])


def throughput_csv(report: MetricsReport) -> str:
    series = report.throughput_series
    return "".join(["window_start_us,bytes\n", *_format_columns(
        "%s,%s\n", [t for t, _ in series], [b for _, b in series])])


PANEL_WIDTH = 800
PANEL_HEIGHT = 150
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 30
MARGIN_BOTTOM = 30


def _scatter_chunks(ts, vs, ys: dict, t_lo, t_span, inner_w) -> Iterator[str]:
    """One <circle> line per point, a chunk of points per `%`."""
    for i in range(0, len(ts), _CHUNK_ROWS):
        xs = [(t - t_lo) / t_span * inner_w for t in ts[i:i + _CHUNK_ROWS]]
        args = [None] * (2 * len(xs))
        args[0::2] = xs
        args[1::2] = map(ys.__getitem__, vs[i:i + _CHUNK_ROWS])
        yield ('<circle cx="%.2f" cy="%s" r="1.5" fill="steelblue"/>\n' * len(xs)) % tuple(args)


def _step_lines(ts, lines: Sequence[tuple], t_lo, t_span, inner_w) -> list[list[str]]:
    """The coordinates after its first point of each step line (values, ys)
    drawn on the time column ts: each later point first at the previous
    point's value, then at its own. The lines are rendered a chunk at a time
    in lockstep, so each chunk's x texts, template and argument list are made
    once for all of them. A chunk's first point is its predecessor's
    successor, so chunks start at point 1."""
    out: list[list[str]] = [[] for _ in lines]
    for i in range(1, len(ts), _CHUNK_ROWS):
        xs = [(t - t_lo) / t_span * inner_w for t in ts[i:i + _CHUNK_ROWS]]
        m = len(xs)
        template, args = " %s,%s %s,%s" * m, [None] * (4 * m)
        args[0::4] = args[2::4] = (("%.2f," * m) % tuple(xs)).split(",")[:m]
        for chunks, (vs, ys) in zip(out, lines):
            y = list(map(ys.__getitem__, vs[i - 1:i + _CHUNK_ROWS]))  # after its predecessor
            args[1::4] = y[:m]
            args[3::4] = y[1:]
            chunks.append(template % tuple(args))
    return out


def _frame(panel: Panel, inner_h: int) -> tuple:
    """A panel's time range t_lo, t_hi, its largest value, and each distinct
    value's y text, formatted once: its value range [v_lo, v_lo + v_span]
    always includes 0."""
    values = set(panel.values)
    v_lo, v_hi = min(min(values), 0), max(values)
    v_span = (v_hi - v_lo) or 1
    return (min(panel.ts_us), max(panel.ts_us), v_hi,
            {v: f"{inner_h - (v - v_lo) / v_span * inner_h:.2f}" for v in values})


def render_svg(panels: Sequence[Panel]) -> str:
    """Standalone SVG: one vertically stacked <g class="panel"> per panel,
    <circle> dots for scatter panels, a step <polyline> for occupancy.

    Point (t, v) is drawn at x = (t - t_lo) / t_span * w and
    y = h - (v - v_lo) / v_span * h, with 2 decimals, where the panel's time
    range is [t_lo, t_lo + t_span] and its value range [v_lo, v_lo + v_span]
    always includes 0. Times and values are ints, as a valid trace's are, so
    every x is a float, written with `%.2f`. Each distinct value's y is
    formatted once, and the points are formatted a chunk per `%`. The step
    panels that share one time column (the same object) have their lines
    rendered together, before the panels, so that each x is formatted once
    for all of them.
    """
    inner_w = PANEL_WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    inner_h = PANEL_HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    total_h = PANEL_HEIGHT * len(panels)
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n'
           f'<svg xmlns="http://www.w3.org/2000/svg" width="{PANEL_WIDTH}" '
           f'height="{max(total_h, 1)}" viewBox="0 0 {PANEL_WIDTH} {max(total_h, 1)}">\n'
           '<rect width="100%" height="100%" fill="white"/>\n']
    frames = {idx: _frame(panel, inner_h) for idx, panel in enumerate(panels) if len(panel.ts_us)}
    shared: dict[int, list[int]] = {}  # the step panels on each time column, by its identity
    for idx, panel in enumerate(panels):
        if panel.kind == "step" and idx in frames:
            shared.setdefault(id(panel.ts_us), []).append(idx)
    lines: dict[int, list[str]] = {}
    for group in shared.values():
        t_lo, t_hi = frames[group[0]][:2]
        lines.update(zip(group, _step_lines(panels[group[0]].ts_us,
                                            [(panels[k].values, frames[k][3]) for k in group],
                                            t_lo, (t_hi - t_lo) or 1, inner_w)))
    for idx, panel in enumerate(panels):
        top = idx * PANEL_HEIGHT
        out.append(f'<g class="panel" transform="translate({MARGIN_LEFT},{top + MARGIN_TOP})">\n'
                   f'<text x="0" y="-10" font-size="12" font-family="sans-serif">'
                   f'{panel.title}</text>\n'
                   f'<line x1="0" y1="{inner_h}" x2="{inner_w}" y2="{inner_h}" '
                   'stroke="black" stroke-width="1"/>\n'
                   f'<line x1="0" y1="0" x2="0" y2="{inner_h}" '
                   'stroke="black" stroke-width="1"/>\n'
                   f'<text x="{inner_w // 2}" y="{inner_h + 22}" font-size="10" '
                   f'font-family="sans-serif" text-anchor="middle">time (us)</text>\n'
                   f'<text x="-8" y="{inner_h // 2}" font-size="10" '
                   f'font-family="sans-serif" text-anchor="end">{panel.unit}</text>\n')
        ts, vs = panel.ts_us, panel.values
        if idx in frames:
            t_lo, t_hi, v_hi, ys = frames.pop(idx)  # its y texts not held past its panel
            t_span = (t_hi - t_lo) or 1
            out.append(f'<text x="0" y="{inner_h + 22}" font-size="9" '
                       f'font-family="sans-serif">{t_lo}</text>\n'
                       f'<text x="{inner_w}" y="{inner_h + 22}" font-size="9" '
                       f'font-family="sans-serif" text-anchor="end">{t_hi}</text>\n'
                       f'<text x="-4" y="10" font-size="9" font-family="sans-serif" '
                       f'text-anchor="end">{v_hi}</text>\n')
            if panel.kind == "scatter":
                out += _scatter_chunks(ts, vs, ys, t_lo, t_span, inner_w)
            else:
                out.append(f'<polyline points="{(ts[0] - t_lo) / t_span * inner_w:.2f},'
                           f'{ys[vs[0]]}')
                out += lines[idx]
                out.append('" fill="none" stroke="darkorange" stroke-width="1"/>\n')
        out.append('</g>\n')
    out.append('</svg>\n')
    return "".join(out)
