"""Ablation experiments: quantifying the design choices DESIGN.md makes.

Not figures from the paper — these isolate mechanisms the paper's text
underdetermines (spare-slot promotion, grandparent succession, the
bandwidth guard, referee verification) and CER's ingredients (MLC
selection, striping, ELN), so the contribution of each is measurable.
"""

from __future__ import annotations

from ..metrics.report import render_table
from ..recovery.schemes import RecoveryScheme, cer_scheme, single_source_scheme
from .common import DEFAULT_SINGLE_SIZE, SweepSettings
from .registry import ExperimentResult, register
from .units import ChurnUnit, RecoveryUnit

ROST_VARIANTS = {
    "full-rost": {},
    "no-promotion": {"promote_into_spare": False},
    "no-succession": {"grandparent_rejoin": False},
    "no-bw-guard": {"bandwidth_guard": False},
    "no-referees": {"use_referees": False},
    "swaps-only": {"promote_into_spare": False, "grandparent_rejoin": False},
}


def rost_units(
    scale: float = 1.0, seed: int = 42, population: int = DEFAULT_SINGLE_SIZE, **_
):
    settings = SweepSettings(scale=scale, seed=seed)
    return [
        ChurnUnit("rost", population, settings, rost_flags=tuple(sorted(flags.items())))
        for flags in ROST_VARIANTS.values()
    ]


def _ablation_schemes():
    return (
        cer_scheme(3),  # the full protocol
        RecoveryScheme(  # striping without loss-correlation awareness
            name="cer-k3-random",
            group_size=3,
            use_mlc=False,
            striped=True,
            buffer_s=5.0,
        ),
        RecoveryScheme(  # MLC selection but one source at a time
            name="ss-k3-mlc",
            group_size=3,
            use_mlc=True,
            striped=False,
            buffer_s=5.0,
        ),
        cer_scheme(3, eln=False),  # every descendant recovers alone
        single_source_scheme(3),  # neither ingredient
    )


def recovery_units(
    scale: float = 1.0, seed: int = 42, population: int = DEFAULT_SINGLE_SIZE, **_
):
    settings = SweepSettings(scale=scale, seed=seed)
    return [RecoveryUnit("min-depth", population, settings, _ablation_schemes())]


@register(
    "ablation-rost",
    "ROST mechanism ablations (promotion / succession / guards)",
    "Extension",
    units=rost_units,
)
def run_rost_ablation(
    results,
    scale: float = 1.0,
    population: int = DEFAULT_SINGLE_SIZE,
    **_,
) -> ExperimentResult:
    rows = []
    data = {}
    for label, result in zip(ROST_VARIANTS, results):
        rows.append(
            [
                label,
                result.avg_disruptions_per_node,
                result.avg_service_delay_ms,
                result.avg_stretch,
                result.avg_optimization_reconnections,
            ]
        )
        data[label] = {
            "disruptions": result.avg_disruptions_per_node,
            "delay_ms": result.avg_service_delay_ms,
            "stretch": result.avg_stretch,
            "overhead": result.avg_optimization_reconnections,
        }
    table = render_table(
        f"ROST ablations (population {population}, scale {scale:g})",
        ["variant", "disr/node", "delay ms", "stretch", "reconn/node"],
        rows,
    )
    return ExperimentResult(
        experiment_id="ablation-rost",
        title="ROST mechanism ablations",
        table=table,
        data=data,
    )


@register(
    "ablation-recovery",
    "CER ingredient ablations (MLC / striping / ELN)",
    "Extension",
    units=recovery_units,
)
def run_recovery_ablation(
    results,
    scale: float = 1.0,
    population: int = DEFAULT_SINGLE_SIZE,
    **_,
) -> ExperimentResult:
    (result,) = results
    rows = []
    data = {}
    for scheme in _ablation_schemes():
        outcome = result.schemes[scheme.name]
        rows.append(
            [
                scheme.name,
                "mlc" if scheme.use_mlc else "random",
                "striped" if scheme.striped else "sequential",
                "yes" if scheme.eln else "no",
                outcome.avg_starving_ratio_pct,
                outcome.mean_coverage,
            ]
        )
        data[scheme.name] = {
            "starving_pct": outcome.avg_starving_ratio_pct,
            "coverage": outcome.mean_coverage,
        }
    table = render_table(
        f"CER ingredient ablations (min-depth tree, population {population}, "
        f"scale {scale:g})",
        ["scheme", "selection", "repair", "ELN", "starving %", "coverage"],
        rows,
    )
    return ExperimentResult(
        experiment_id="ablation-recovery",
        title="CER ingredient ablations",
        table=table,
        data=data,
    )
