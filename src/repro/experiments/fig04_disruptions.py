"""Figure 4: average number of streaming disruptions per node vs size.

Five algorithms over networks of 2000..14000 members; every departure is
abrupt, and a failure disrupts every descendant.  The paper's headline
result: ROST lowest; relaxed TO/BO in the middle; minimum-depth and
longest-first worst by a wide margin.
"""

from __future__ import annotations

from ..metrics.report import render_series_table
from .common import PAPER_SIZES, PROTOCOL_ORDER, SweepSettings
from .registry import ExperimentResult, register
from .units import ChurnUnit


def sweep_units(scale: float = 1.0, seed: int = 42, sizes=PAPER_SIZES, **_):
    """The five-protocol size sweep Figs 4, 7, 8 and 10 all read."""
    settings = SweepSettings(scale=scale, seed=seed)
    return [
        ChurnUnit(protocol, size, settings)
        for protocol in PROTOCOL_ORDER
        for size in sizes
    ]


def sweep_series(results, metric):
    """``(protocol, [metric(run) per size])`` rows of the sweep's results."""
    n = len(results) // len(PROTOCOL_ORDER)
    return [
        (protocol, [metric(result) for result in results[i * n : (i + 1) * n]])
        for i, protocol in enumerate(PROTOCOL_ORDER)
    ]


@register(
    "fig04",
    "Avg. streaming disruptions per node vs network size",
    "Figure 4",
    units=sweep_units,
)
def run(results, scale: float = 1.0, sizes=PAPER_SIZES, **_) -> ExperimentResult:
    series = sweep_series(results, lambda r: r.avg_disruptions_per_node)
    # Each size's population as the first protocol's run measured it.
    populations = {s: r.metrics.mean_population for s, r in zip(sizes, results)}
    table = render_series_table(
        "Fig. 4 — avg disruptions per node (scale "
        f"{scale:g}, measured populations "
        f"{[round(populations[s]) for s in sizes]})",
        "size",
        list(sizes),
        series,
    )
    return ExperimentResult(
        experiment_id="fig04",
        title="Avg. streaming disruptions per node vs network size",
        table=table,
        data={
            "sizes": list(sizes),
            "series": {name: values for name, values in series},
            "measured_populations": populations,
        },
    )
