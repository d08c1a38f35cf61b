"""Figure 14: the combined system — ROST+CER vs MinDepth+SingleSource.

For recovery group sizes 1..3 and several seeds, compare the full
proposed system (ROST tree, CER striped repair from an MLC group) against
the conventional one (minimum-depth tree, one recovery source at a time).
The paper reports an 8-9x reduction in starving time with 95% confidence
intervals; even ROST+CER with one recovery node beats the baseline with
two.
"""

from __future__ import annotations

from ..metrics.report import render_table
from ..metrics.stats import mean_and_ci
from ..recovery.schemes import cer_scheme, single_source_scheme
from .common import DEFAULT_SINGLE_SIZE, SweepSettings
from .registry import ExperimentResult, register
from .units import RecoveryUnit

GROUP_SIZES = (1, 2, 3)


def units(
    scale: float = 1.0,
    seed: int = 42,
    population: int = DEFAULT_SINGLE_SIZE,
    replicas: int = 3,
    **_,
):
    settings = SweepSettings(scale=scale, seed=seed)
    cer_schemes = tuple(cer_scheme(k) for k in GROUP_SIZES)
    ss_schemes = tuple(single_source_scheme(k) for k in GROUP_SIZES)
    out = []
    for replica in range(replicas):
        out.append(
            RecoveryUnit("rost", population, settings, cer_schemes, replica=replica)
        )
        out.append(
            RecoveryUnit(
                "min-depth", population, settings, ss_schemes, replica=replica
            )
        )
    return out


@register(
    "fig14",
    "ROST+CER vs MinDepth+SingleSource (95% CI)",
    "Figure 14",
    units=units,
)
def run(
    results,
    scale: float = 1.0,
    population: int = DEFAULT_SINGLE_SIZE,
    replicas: int = 3,
    **_,
) -> ExperimentResult:
    samples = {("rost+cer", k): [] for k in GROUP_SIZES}
    samples.update({("mindepth+ss", k): [] for k in GROUP_SIZES})
    # One (ROST+CER, MinDepth+SS) pair of runs per replica.
    for rost, base in zip(results[0::2], results[1::2]):
        for k in GROUP_SIZES:
            samples[("rost+cer", k)].append(rost.ratio_pct(cer_scheme(k).name))
            samples[("mindepth+ss", k)].append(
                base.ratio_pct(single_source_scheme(k).name)
            )

    rows = []
    data = {}
    for k in GROUP_SIZES:
        base_mean, base_ci = mean_and_ci(samples[("mindepth+ss", k)])
        rost_mean, rost_ci = mean_and_ci(samples[("rost+cer", k)])
        improvement = base_mean / rost_mean if rost_mean > 0 else float("inf")
        rows.append([k, base_mean, base_ci, rost_mean, rost_ci, improvement])
        data[str(k)] = {
            "mindepth_ss": (base_mean, base_ci),
            "rost_cer": (rost_mean, rost_ci),
            "improvement_x": improvement,
        }
    table = render_table(
        f"Fig. 14 — avg starving time ratio %% with 95% CI "
        f"(population {population}, scale {scale:g}, {replicas} replicas)",
        ["group", "mindepth+ss", "+/-", "rost+cer", "+/-", "improvement x"],
        rows,
    )
    return ExperimentResult(
        experiment_id="fig14",
        title="ROST+CER vs MinDepth+SingleSource",
        table=table,
        data=data,
    )
