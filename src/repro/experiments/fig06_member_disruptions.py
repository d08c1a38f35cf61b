"""Figure 6: cumulative disruptions of a typical member over time.

A probe with moderate bandwidth and a 300-minute lifetime joins an
8000-node network after it reaches steady state.  Under ROST the slope
flattens as the member ages (it earns a higher, more sheltered position);
under the time-blind algorithms it stays linear.
"""

from __future__ import annotations

from typing import List

from ..metrics.collectors import TimeSeries
from ..metrics.report import render_series_table
from .common import DEFAULT_SINGLE_SIZE, PROTOCOL_ORDER, SweepSettings
from .registry import ExperimentResult, register
from .units import DEFAULT_PROBE, ChurnUnit

#: Minute marks matching the paper's x-axis (0..300 in ~33-minute steps).
SAMPLE_MINUTES = tuple(round(i * 100 / 3) for i in range(10))


def probe_units(
    scale: float = 1.0, seed: int = 42, population: int = DEFAULT_SINGLE_SIZE, **_
):
    """The probe churn runs Figs 6 and 9 both read (one per protocol).

    The probe lives 300 minutes, so the measurement window spans ~10 mean
    lifetimes beyond warm-up.
    """
    settings = SweepSettings(scale=scale, seed=seed, measure_lifetimes=10.5)
    return [
        ChurnUnit(protocol, population, settings, probe=DEFAULT_PROBE)
        for protocol in PROTOCOL_ORDER
    ]


def series_at_minutes(series: TimeSeries, start_s: float, minutes) -> List[float]:
    """Step-sample a cumulative series at minute offsets from ``start_s``."""
    values = []
    current = 0.0
    index = 0
    for minute in minutes:
        t = start_s + minute * 60.0
        while index < len(series) and series.times[index] <= t:
            current = series.values[index]
            index += 1
        values.append(current)
    return values


@register(
    "fig06",
    "Cumulative disruptions of a typical member over time",
    "Figure 6",
    units=probe_units,
)
def run(
    results,
    scale: float = 1.0,
    population: int = DEFAULT_SINGLE_SIZE,
    **_,
) -> ExperimentResult:
    series = []
    for protocol, result in zip(PROTOCOL_ORDER, results):
        assert result.probe_disruptions is not None
        # The probe joins at the end of warm-up (common.default_probe).
        values = series_at_minutes(
            result.probe_disruptions, result.config.warmup_s, SAMPLE_MINUTES
        )
        series.append((protocol, values))
    table = render_series_table(
        f"Fig. 6 — cumulative disruptions of the typical member "
        f"(population {population}, scale {scale:g})",
        "minute",
        list(SAMPLE_MINUTES),
        series,
        precision=0,
    )
    return ExperimentResult(
        experiment_id="fig06",
        title="Cumulative disruptions of a typical member over time",
        table=table,
        data={"minutes": list(SAMPLE_MINUTES), "series": dict(series)},
    )
