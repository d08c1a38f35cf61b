"""Figure 11: effect of the ROST switching interval.

Four sub-figures on an 8000-member network with switching intervals from
480 s to 1800 s: disruptions, service delay, stretch and protocol
overhead.  Smaller intervals adjust the overlay more aggressively —
better reliability and quality at (slightly) more reconnections.
"""

from __future__ import annotations

from ..metrics.report import render_series_table
from .common import DEFAULT_SINGLE_SIZE, SweepSettings
from .registry import ExperimentResult, register
from .units import ChurnUnit

INTERVALS_S = (480.0, 960.0, 1200.0, 1800.0)


def units(
    scale: float = 1.0,
    seed: int = 42,
    population: int = DEFAULT_SINGLE_SIZE,
    intervals=INTERVALS_S,
    **_,
):
    settings = SweepSettings(scale=scale, seed=seed)
    return [
        ChurnUnit("rost", population, settings, switch_interval_s=interval)
        for interval in intervals
    ]


@register(
    "fig11",
    "Effect of the ROST switching interval (four metrics)",
    "Figure 11",
    units=units,
)
def run(
    results,
    scale: float = 1.0,
    population: int = DEFAULT_SINGLE_SIZE,
    intervals=INTERVALS_S,
    **_,
) -> ExperimentResult:
    rows = {
        "disruptions/node": [],
        "service delay (ms)": [],
        "stretch": [],
        "reconnections/node": [],
    }
    for result in results:
        rows["disruptions/node"].append(result.avg_disruptions_per_node)
        rows["service delay (ms)"].append(result.avg_service_delay_ms)
        rows["stretch"].append(result.avg_stretch)
        rows["reconnections/node"].append(result.avg_optimization_reconnections)
    table = render_series_table(
        f"Fig. 11 — ROST vs switching interval "
        f"(population {population}, scale {scale:g})",
        "interval (s)",
        [int(i) for i in intervals],
        list(rows.items()),
    )
    return ExperimentResult(
        experiment_id="fig11",
        title="Effect of the ROST switching interval",
        table=table,
        data={"intervals_s": list(intervals), "series": rows},
    )
