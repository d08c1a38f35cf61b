"""Extension experiment: single-tree vs multiple-tree delivery.

The paper's future-work claim is that its techniques carry over to
multiple-tree delivery.  This experiment runs ROST-maintained stripe
trees for K in {1, 2, 4} on the same workload and compares:

* blackouts (all stripes down at once — the single-tree "disruption"
  equivalent) per member lifetime,
* stripe-level interruptions per member lifetime,
* mean delivered stream quality, and
* effective (slowest-stripe) service delay.

Interior-disjointness should make blackouts collapse as K grows, at the
cost of more (but 1/K-sized) stripe interruptions and a modest delay
increase.
"""

from __future__ import annotations

from ..metrics.report import render_table
from ..multitree.driver import MultiTreeSimulation
from ..protocols import PROTOCOLS
from .common import DEFAULT_SINGLE_SIZE, Instruments, SweepSettings
from .registry import ExperimentResult, register

TREE_COUNTS = (1, 2, 4)


@register(
    "ext-multitree",
    "Single-tree vs multiple-tree (SplitStream-style) delivery",
    "Extension",
)
def run(
    scale: float = 1.0,
    seed: int = 42,
    population: int = DEFAULT_SINGLE_SIZE,
    tree_counts=TREE_COUNTS,
    **_,
) -> ExperimentResult:
    settings = SweepSettings(scale=scale, seed=seed)
    config = settings.config(population)
    rows = []
    data = {}
    topology = oracle = None
    for num_trees in tree_counts:
        instruments = Instruments()
        sim = MultiTreeSimulation(
            config,
            PROTOCOLS["rost"],
            num_trees=num_trees,
            topology=topology,
            oracle=oracle,
            check_invariants=instruments.checker,
        )
        topology, oracle = sim.topology, sim.oracle
        for stripe, meta in sim.stripes():
            instruments.observe(stripe, meta)
        result = sim.run()
        instruments.emit()
        rows.append(
            [
                num_trees,
                result.blackouts_per_node,
                result.stripe_disruptions_per_node,
                100.0 * result.mean_delivered_quality,
                result.effective_delay_ms,
            ]
        )
        data[str(num_trees)] = {
            "blackouts": result.blackouts_per_node,
            "stripe_disruptions": result.stripe_disruptions_per_node,
            "quality_pct": 100.0 * result.mean_delivered_quality,
            "effective_delay_ms": result.effective_delay_ms,
        }
    table = render_table(
        f"Multi-tree extension — ROST stripes "
        f"(population {population}, scale {scale:g})",
        ["trees", "blackouts/node", "stripe disr/node", "quality %",
         "slowest-stripe delay ms"],
        rows,
    )
    return ExperimentResult(
        experiment_id="ext-multitree",
        title="Single-tree vs multiple-tree delivery",
        table=table,
        data=data,
    )
