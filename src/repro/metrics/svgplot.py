"""Dependency-free SVG line charts for experiment results.

The reproduction environment has no plotting stack; this module renders
the figures' series as self-contained SVG documents (a few kilobytes,
viewable in any browser) so ``python -m repro.experiments ... --svg DIR``
can emit actual figures next to the text tables.

Deliberately small: line charts with nice-number axis ticks, a legend,
and optional log-y — exactly what Figures 4–14 need.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence
from xml.sax.saxutils import escape

#: A colour-blind-friendly categorical palette (Okabe-Ito).
PALETTE = (
    "#0072B2",  # blue
    "#D55E00",  # vermillion
    "#009E73",  # green
    "#CC79A7",  # purple
    "#E69F00",  # orange
    "#56B4E9",  # sky
    "#F0E442",  # yellow
    "#000000",  # black
)

MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 80
#: Chart size in pixels.
WIDTH = 720
HEIGHT = 440
#: Upper bound on the ticks of one axis.
MAX_TICKS = 6


def nice_ticks(low: float, high: float) -> List[float]:
    """Round tick positions covering [low, high] (inclusive-ish)."""
    if not (math.isfinite(low) and math.isfinite(high)):
        return [0.0, 1.0]
    if high <= low:
        high = low + 1.0
    span = high - low
    raw_step = span / (MAX_TICKS - 1)
    magnitude = 10 ** math.floor(math.log10(raw_step))
    for factor in (1, 2, 2.5, 5, 10):
        step = factor * magnitude
        if span / step <= MAX_TICKS - 1:
            break
    start = math.floor(low / step) * step
    ticks = []
    value = start
    while value <= high + step * 0.51:
        ticks.append(round(value, 10))
        value += step
    return ticks


def _format_tick(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:g}"
    if abs(value) >= 1:
        return f"{value:g}"
    return f"{value:.3g}"


class _Scale:
    def __init__(self, low: float, high: float, pixel_low: float, pixel_high: float, log: bool):
        self.log = log
        if log:
            low = math.log10(low)
            high = math.log10(high)
        if high <= low:
            high = low + 1.0
        self.low, self.high = low, high
        self.pixel_low, self.pixel_high = pixel_low, pixel_high

    def __call__(self, value: float) -> float:
        v = math.log10(value) if self.log else value
        frac = (v - self.low) / (self.high - self.low)
        return self.pixel_low + frac * (self.pixel_high - self.pixel_low)


def line_chart(
    title: str,
    x_label: str,
    y_label: str,
    x_values: Sequence[float],
    series: Dict[str, Sequence[float]],
    log_y: bool = False,
) -> str:
    """Render a line chart as an SVG document string."""
    if not x_values:
        raise ValueError("need at least one x value")
    for name, ys in series.items():
        if len(ys) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(ys)} points for {len(x_values)} x values"
            )
    xs = [float(x) for x in x_values]
    all_y = [
        float(y)
        for ys in series.values()
        for y in ys
        if y == y and math.isfinite(float(y)) and (not log_y or y > 0)
    ]
    if not all_y:
        all_y = [0.0, 1.0]
    y_min = min(all_y)
    y_max = max(all_y)
    if not log_y:
        y_min = min(0.0, y_min)
    plot_w_low, plot_w_high = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    plot_h_low, plot_h_high = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
    x_scale = _Scale(min(xs), max(xs), plot_w_low, plot_w_high, log=False)
    y_scale = _Scale(
        y_min if not log_y else max(min(all_y), 1e-12),
        y_max,
        plot_h_low,
        plot_h_high,
        log=log_y,
    )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" '
        f'font-size="14" font-weight="bold">{escape(title)}</text>',
    ]

    # Axes and ticks.
    if log_y:
        low_exp = math.floor(math.log10(max(min(all_y), 1e-12)))
        high_exp = math.ceil(math.log10(y_max))
        y_ticks = [10.0**e for e in range(low_exp, high_exp + 1)]
    else:
        y_ticks = nice_ticks(y_min, y_max)
    for tick in y_ticks:
        py = y_scale(tick)
        parts.append(
            f'<line x1="{plot_w_low}" y1="{py:.1f}" x2="{plot_w_high}" '
            f'y2="{py:.1f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{plot_w_low - 6}" y="{py + 4:.1f}" text-anchor="end">'
            f"{_format_tick(tick)}</text>"
        )
    for tick in nice_ticks(min(xs), max(xs)):
        if tick < min(xs) - 1e-9 or tick > max(xs) + 1e-9:
            continue
        px = x_scale(tick)
        parts.append(
            f'<line x1="{px:.1f}" y1="{plot_h_low}" x2="{px:.1f}" '
            f'y2="{plot_h_low + 4}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{plot_h_low + 18}" text-anchor="middle">'
            f"{_format_tick(tick)}</text>"
        )
    parts.append(
        f'<line x1="{plot_w_low}" y1="{plot_h_low}" x2="{plot_w_high}" '
        f'y2="{plot_h_low}" stroke="#333333"/>'
    )
    parts.append(
        f'<line x1="{plot_w_low}" y1="{plot_h_low}" x2="{plot_w_low}" '
        f'y2="{plot_h_high}" stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{(plot_w_low + plot_w_high) / 2}" y="{HEIGHT - 44}" '
        f'text-anchor="middle">{escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="16" y="{(plot_h_low + plot_h_high) / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(plot_h_low + plot_h_high) / 2})">'
        f"{escape(y_label)}</text>"
    )

    # Series polylines + point markers.
    for index, (name, ys) in enumerate(series.items()):
        colour = PALETTE[index % len(PALETTE)]
        points = []
        for x, y in zip(xs, ys):
            y = float(y)
            if y != y or not math.isfinite(y) or (log_y and y <= 0):
                continue
            points.append(f"{x_scale(x):.1f},{y_scale(y):.1f}")
        if points:
            parts.append(
                f'<polyline fill="none" stroke="{colour}" stroke-width="2" '
                f'points="{" ".join(points)}"/>'
            )
            for point in points:
                px, py = point.split(",")
                parts.append(
                    f'<circle cx="{px}" cy="{py}" r="3" fill="{colour}"/>'
                )

    # Legend along the bottom.
    legend_y = HEIGHT - 24
    legend_x = MARGIN_LEFT
    for index, name in enumerate(series):
        colour = PALETTE[index % len(PALETTE)]
        parts.append(
            f'<rect x="{legend_x}" y="{legend_y - 9}" width="12" height="12" '
            f'fill="{colour}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 16}" y="{legend_y + 1}">{escape(name)}</text>'
        )
        legend_x += 16 + 8 * len(name) + 24
    parts.append("</svg>")
    return "\n".join(parts)


def experiment_chart(result) -> str:
    """Render an :class:`~repro.experiments.registry.ExperimentResult`
    whose ``data`` carries a ``series`` mapping."""
    series = result.data.get("series")
    if not isinstance(series, dict) or not series:
        raise ValueError(f"experiment {result.experiment_id} has no series data")
    for key, x_label in (
        ("sizes", "network size"),
        ("minutes", "time (minutes)"),
        ("intervals_s", "switching interval (s)"),
        ("thresholds", "disruptions (<=)"),
        ("buffers_s", "buffer (s)"),
    ):
        if key in result.data:
            x_values = result.data[key]
            break
    else:
        x_values = list(range(len(next(iter(series.values())))))
        x_label = "index"
    return line_chart(
        title=result.title,
        x_label=x_label,
        y_label="value",
        x_values=x_values,
        series=series,
    )
