"""Figure 10: protocol overhead vs network size.

Overhead = average number of optimization-induced reconnections a member
suffers during its lifetime.  Minimum-depth and longest-first never
restructure the tree (zero overhead by construction); ROST stays far
below one reconnection per lifetime; the centralized relaxed BO/TO pay
the most.
"""

from __future__ import annotations

from ..metrics.report import render_series_table
from .common import PAPER_SIZES
from .fig04_disruptions import sweep_series, sweep_units
from .registry import ExperimentResult, register


@register(
    "fig10",
    "Protocol overhead (reconnections per node) vs network size",
    "Figure 10",
    units=sweep_units,
)
def run(results, scale: float = 1.0, sizes=PAPER_SIZES, **_) -> ExperimentResult:
    series = sweep_series(results, lambda r: r.avg_optimization_reconnections)
    table = render_series_table(
        f"Fig. 10 — avg optimization reconnections per node (scale {scale:g})",
        "size",
        list(sizes),
        series,
    )
    return ExperimentResult(
        experiment_id="fig10",
        title="Protocol overhead vs network size",
        table=table,
        data={"sizes": list(sizes), "series": dict(series)},
    )
