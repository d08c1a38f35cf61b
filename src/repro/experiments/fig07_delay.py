"""Figure 7: average end-to-end service delay vs network size.

Service delay is the sum of underlay delays along the overlay path from
the source.  ROST should be the best of the three distributed algorithms
and within a modest factor of the centralized bandwidth-ordered tree.
"""

from __future__ import annotations

from ..metrics.report import render_series_table
from .common import PAPER_SIZES
from .fig04_disruptions import sweep_series, sweep_units
from .registry import ExperimentResult, register


@register(
    "fig07",
    "Avg. service delay (ms) vs network size",
    "Figure 7",
    units=sweep_units,
)
def run(results, scale: float = 1.0, sizes=PAPER_SIZES, **_) -> ExperimentResult:
    series = sweep_series(results, lambda r: r.avg_service_delay_ms)
    table = render_series_table(
        f"Fig. 7 — avg service delay in ms (scale {scale:g})",
        "size",
        list(sizes),
        series,
        precision=1,
    )
    return ExperimentResult(
        experiment_id="fig07",
        title="Avg. service delay vs network size",
        table=table,
        data={"sizes": list(sizes), "series": dict(series)},
    )
