"""Figure 9: service delay of the typical member over time.

Under ROST (and relaxed TO) the probe's delay shrinks as it ascends the
tree; under the time-blind algorithms it fluctuates without converging.
Sampled on the same probe runs as Figure 6.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..metrics.collectors import TimeSeries
from ..metrics.report import render_series_table
from .common import DEFAULT_SINGLE_SIZE, PROTOCOL_ORDER
from .fig06_member_disruptions import SAMPLE_MINUTES, probe_units
from .registry import ExperimentResult, register

#: Half-width of the averaging window around each minute mark.
HALF_WINDOW_MIN = 16.0


def window_average(series: TimeSeries, start_s: float, minutes) -> List[float]:
    """Average the sampled delay in a window around each minute mark."""
    times = np.asarray(series.times)
    values = np.asarray(series.values)
    output = []
    for minute in minutes:
        center = start_s + minute * 60.0
        mask = np.abs(times - center) <= HALF_WINDOW_MIN * 60.0
        output.append(float(values[mask].mean()) if mask.any() else float("nan"))
    return output


@register(
    "fig09",
    "Service delay of a typical member over time",
    "Figure 9",
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
        assert result.probe_delay_ms is not None
        # The probe joins at the end of warm-up (common.default_probe).
        values = window_average(
            result.probe_delay_ms, result.config.warmup_s, SAMPLE_MINUTES
        )
        series.append((protocol, values))
    table = render_series_table(
        f"Fig. 9 — typical member's service delay in ms "
        f"(population {population}, scale {scale:g})",
        "minute",
        list(SAMPLE_MINUTES),
        series,
        precision=0,
    )
    return ExperimentResult(
        experiment_id="fig09",
        title="Service delay of a typical member over time",
        table=table,
        data={"minutes": list(SAMPLE_MINUTES), "series": dict(series)},
    )
