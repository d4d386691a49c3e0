"""Aggregation and presentation: per-method summaries and the comparison-matrix
SVG. All output is a pure function of its numeric input (fixed precision,
stable ordering, no timestamps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_CELL = 44
_PAD = 1
_LEFT = 130
_TOP = 36


@dataclass(frozen=True)
class MethodSummary:
    """Per-method statistics; stats maps metric -> (mean, median, std, n)."""

    method: str
    stats: dict
    speed_score: float | None
    msfi_sum: float


def summarize(records, wall_times=None):
    """Group records by method and compute stats, sorted by summed MSFI descending.

    wall_times maps method -> iterable of per-sample seconds; the speed score
    is 1 - minmax(log mean time) across the scored methods (faster is closer to 1).
    Every method must carry msfi rows, since they define the sort key.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to summarize")
    by_method = {}
    for r in records:
        by_method.setdefault(r.method, []).append(r)

    speed = _speed_scores({m: t for m, t in (wall_times or {}).items() if m in by_method})
    summaries = []
    for method, rows in by_method.items():
        stats = {}
        for metric in sorted({r.metric for r in rows}):
            # sorted reduction keeps the stats exactly permutation-invariant
            vals = np.sort([r.value for r in rows if r.metric == metric])
            stats[metric] = (
                float(vals.mean()),
                float(_median(vals)),
                float(vals.std()),
                int(vals.size),
            )
        msfi_vals = sorted(r.value for r in rows if r.metric == "msfi")
        if not msfi_vals:
            raise ValueError(f"method {method!r} has no msfi rows to sort by")
        summaries.append(
            MethodSummary(method, stats, speed.get(method), float(sum(msfi_vals)))
        )
    summaries.sort(key=lambda s: (-s.msfi_sum, s.method))
    return summaries


def _median(ordered):
    """np.median of an ascending sequence, bit for bit, without its numpy.ma import."""
    n = len(ordered)
    return (ordered[(n - 1) // 2] + ordered[n // 2]) / 2


def _speed_scores(wall_times):
    log_means = {}
    for method, times in wall_times.items():
        times = list(times)
        if not times:
            continue
        log_means[method] = math.log(max(float(np.mean(times)), 1e-9))
    if not log_means:
        return {}
    lo, hi = min(log_means.values()), max(log_means.values())
    span = hi - lo
    if span == 0.0:
        return {m: 1.0 for m in log_means}
    return {m: 1.0 - (v - lo) / span for m, v in log_means.items()}


def matrix_value(metric, mean):
    """Map a metric mean onto [0,1] for the matrix; mi_corr is rescaled (tau+1)/2."""
    if metric == "mi_corr":
        return (mean + 1.0) / 2.0
    return min(1.0, max(0.0, mean))


def _svg_open(width, height):
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
    )


def render_matrix(summaries) -> str:
    """Comparison matrix SVG: one square per (metric, method) cell.

    Square side and fill darkness are proportional to the [0,1] value; a
    value of 1 fills the cell minus 2px padding and a value of 0 omits the
    square. Methods appear in the given (already sorted) order.
    """
    if not summaries:
        raise ValueError("nothing to render")
    metrics_order = sorted({m for s in summaries for m in s.stats})
    if any(s.speed_score is not None for s in summaries):
        metrics_order.append("speed")
    if not metrics_order:
        raise ValueError("no metrics to render")

    width = _LEFT + _CELL * len(summaries) + 10
    height = _TOP + _CELL * len(metrics_order) + 10
    parts = [_svg_open(width, height)]
    for j, s in enumerate(summaries):
        x = _LEFT + j * _CELL + _CELL // 2
        parts.append(
            f'<text x="{x}" y="{_TOP - 10}" font-size="9" text-anchor="middle" '
            f'transform="rotate(-35 {x} {_TOP - 10})">{_esc(s.method)}</text>\n'
        )
    for i, metric in enumerate(metrics_order):
        y = _TOP + i * _CELL + _CELL // 2
        parts.append(
            f'<text x="{_LEFT - 8}" y="{y + 3}" font-size="10" '
            f'text-anchor="end">{_esc(metric)}</text>\n'
        )
        for j, s in enumerate(summaries):
            if metric == "speed":
                value = s.speed_score
            elif metric in s.stats:
                value = matrix_value(metric, s.stats[metric][0])
            else:
                value = None
            if value is None or value <= 0.0:
                continue
            side = (_CELL - 2 * _PAD) * min(value, 1.0)
            cx = _LEFT + j * _CELL + _CELL / 2.0
            cy = _TOP + i * _CELL + _CELL / 2.0
            shade = int(round(235 * (1.0 - min(value, 1.0))))
            parts.append(
                f'<rect x="{cx - side / 2:.2f}" y="{cy - side / 2:.2f}" '
                f'width="{side:.2f}" height="{side:.2f}" '
                f'fill="rgb({shade},{shade},{shade})"/>\n'
            )
    parts.append("</svg>\n")
    return "".join(parts)


def _esc(text):
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def summary_csv_rows(summaries):
    """Rows for summary.csv: method, metric, mean, median, std, n, matrix_value."""
    rows = [["method", "metric", "mean", "median", "std", "n", "matrix_value"]]
    for s in summaries:
        for metric in sorted(s.stats):
            mean, median, std, n = s.stats[metric]
            rows.append(
                [
                    s.method,
                    metric,
                    repr(mean),
                    repr(median),
                    repr(std),
                    str(n),
                    repr(matrix_value(metric, mean)),
                ]
            )
        if s.speed_score is not None:
            rows.append(
                [s.method, "speed", repr(s.speed_score), "", "", "", repr(s.speed_score)]
            )
    return rows
