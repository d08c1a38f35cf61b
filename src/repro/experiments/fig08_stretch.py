"""Figure 8: average network stretch vs network size.

Stretch = overlay service delay over direct-unicast delay from the
source, averaged over members.
"""

from __future__ import annotations

from ..metrics.report import render_series_table
from .common import PAPER_SIZES
from .fig04_disruptions import sweep_series, sweep_units
from .registry import ExperimentResult, register


@register(
    "fig08",
    "Avg. network stretch vs network size",
    "Figure 8",
    units=sweep_units,
)
def run(results, scale: float = 1.0, sizes=PAPER_SIZES, **_) -> ExperimentResult:
    series = sweep_series(results, lambda r: r.avg_stretch)
    table = render_series_table(
        f"Fig. 8 — avg network stretch (scale {scale:g})",
        "size",
        list(sizes),
        series,
    )
    return ExperimentResult(
        experiment_id="fig08",
        title="Avg. network stretch vs network size",
        table=table,
        data={"sizes": list(sizes), "series": dict(series)},
    )
