"""Figure 12: average starving time ratio vs recovery group size.

Minimum-depth trees with the CER protocol; recovery group sizes 1..4
across network sizes.  A group of 3 cuts the starving time by an order of
magnitude relative to a single recovery node.
"""

from __future__ import annotations

from ..metrics.report import render_series_table
from ..recovery.schemes import cer_scheme
from .common import PAPER_SIZES, SweepSettings
from .registry import ExperimentResult, register
from .units import RecoveryUnit

GROUP_SIZES = (1, 2, 3, 4)


def units(scale: float = 1.0, seed: int = 42, sizes=PAPER_SIZES, **_):
    settings = SweepSettings(scale=scale, seed=seed)
    schemes = tuple(cer_scheme(k) for k in GROUP_SIZES)
    return [RecoveryUnit("min-depth", size, settings, schemes) for size in sizes]


@register(
    "fig12",
    "Avg. starving time ratio (%) vs recovery group size",
    "Figure 12",
    units=units,
)
def run(results, scale: float = 1.0, sizes=PAPER_SIZES, **_) -> ExperimentResult:
    series = {k: [] for k in GROUP_SIZES}
    for result in results:
        for k in GROUP_SIZES:
            series[k].append(result.ratio_pct(cer_scheme(k).name))
    table = render_series_table(
        f"Fig. 12 — avg starving time ratio %% by CER group size "
        f"(min-depth tree, scale {scale:g})",
        "size",
        list(sizes),
        [(f"group={k}", series[k]) for k in GROUP_SIZES],
    )
    return ExperimentResult(
        experiment_id="fig12",
        title="Avg. starving time ratio vs recovery group size",
        table=table,
        data={"sizes": list(sizes), "series": {str(k): v for k, v in series.items()}},
    )
