"""Figure 13: starving time ratio vs playback buffer size.

CER on a minimum-depth tree, group sizes 1..3, buffers 5..30 s.  The
paper's observation: one recovery node needs a ~27 s buffer to match what
two recovery nodes achieve with 5 s.
"""

from __future__ import annotations

from ..metrics.report import render_series_table
from ..recovery.schemes import cer_scheme
from .common import DEFAULT_SINGLE_SIZE, SweepSettings
from .registry import ExperimentResult, register
from .units import RecoveryUnit

BUFFERS_S = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
GROUP_SIZES = (1, 2, 3)


def units(
    scale: float = 1.0, seed: int = 42, population: int = DEFAULT_SINGLE_SIZE, **_
):
    settings = SweepSettings(scale=scale, seed=seed)
    schemes = tuple(cer_scheme(k, buffer_s=b) for k in GROUP_SIZES for b in BUFFERS_S)
    return [RecoveryUnit("min-depth", population, settings, schemes)]


@register(
    "fig13",
    "Avg. starving time ratio (%) vs buffer size",
    "Figure 13",
    units=units,
)
def run(
    results,
    scale: float = 1.0,
    population: int = DEFAULT_SINGLE_SIZE,
    **_,
) -> ExperimentResult:
    (result,) = results
    series = []
    for k in GROUP_SIZES:
        values = [
            result.ratio_pct(cer_scheme(k, buffer_s=b).name) for b in BUFFERS_S
        ]
        series.append((f"group={k}", values))
    table = render_series_table(
        f"Fig. 13 — avg starving time ratio %% vs buffer "
        f"(population {population}, scale {scale:g})",
        "buffer (s)",
        [int(b) for b in BUFFERS_S],
        series,
    )
    return ExperimentResult(
        experiment_id="fig13",
        title="Avg. starving time ratio vs buffer size",
        table=table,
        data={"buffers_s": list(BUFFERS_S), "series": dict(series)},
    )
