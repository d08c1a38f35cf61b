"""Figure 5: CDF of per-member disruption counts in an 8000-node network.

The paper plots the cumulative percentage of nodes experiencing at most
1, 2, 4, ..., 128 disruptions over their lifetimes.
"""

from __future__ import annotations

from ..metrics.stats import cdf_at
from ..metrics.report import render_series_table
from .common import DEFAULT_SINGLE_SIZE, PROTOCOL_ORDER, SweepSettings
from .registry import ExperimentResult, register
from .units import ChurnUnit

THRESHOLDS = (1, 2, 4, 8, 16, 32, 64, 128)


def column_units(
    scale: float = 1.0, seed: int = 42, population: int = DEFAULT_SINGLE_SIZE, **_
):
    """One run per protocol at one size (the sweep's 8000-member column),
    which Fig 5 and the control-message table both read."""
    settings = SweepSettings(scale=scale, seed=seed)
    return [ChurnUnit(protocol, population, settings) for protocol in PROTOCOL_ORDER]


@register(
    "fig05",
    "CDF of per-node disruption counts (8000-node network)",
    "Figure 5",
    units=column_units,
)
def run(
    results,
    scale: float = 1.0,
    population: int = DEFAULT_SINGLE_SIZE,
    **_,
) -> ExperimentResult:
    series = []
    for protocol, result in zip(PROTOCOL_ORDER, results):
        counts = result.metrics.disruptions_per_departed
        fractions = [100.0 * f for f in cdf_at(counts, THRESHOLDS)]
        series.append((protocol, fractions))
    table = render_series_table(
        f"Fig. 5 — cumulative % of nodes with <= x disruptions "
        f"(population {population}, scale {scale:g})",
        "<= disruptions",
        list(THRESHOLDS),
        series,
        precision=1,
    )
    return ExperimentResult(
        experiment_id="fig05",
        title="CDF of per-node disruption counts",
        table=table,
        data={"thresholds": list(THRESHOLDS), "series": dict(series)},
    )
