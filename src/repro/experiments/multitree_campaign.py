"""Registered experiments around the multi-tree resilience subsystem.

``multitree_scenario`` runs one (scenario, protocol, K, seed) unit — the
picklable job the campaign fans out over worker processes, also for the
dedicated ``python -m repro.experiments multitree_campaign`` subcommand.
``multitree_resilience`` runs a whole campaign spec (the built-in K-tree
grid by default) and reports the seed-averaged summary; it is the
surface the ``multitree.json`` golden baseline gates (blackout rate
decreasing in K under the crash scenario).
"""

from __future__ import annotations

from typing import Optional

from ..metrics.report import render_table
from ..multitree.campaign import (
    MultiTreeCampaignSpec,
    gate_data,
    resolve_multitree_campaign,
    run_scenario,
)
from .faults_campaign import register_campaign
from .registry import ExperimentResult, register


@register(
    "multitree_scenario",
    "One K-tree scenario run (scenario x protocol x K x seed unit)",
    "Extension",
)
def run_multitree_scenario(
    scale: float = 1.0,
    seed: int = 42,
    spec=None,
    scenario: Optional[str] = None,
    protocol: Optional[str] = None,
    trees: Optional[int] = None,
    **_,
) -> ExperimentResult:
    campaign = resolve_multitree_campaign(spec)
    scenario_name = scenario if scenario is not None else campaign.scenarios[0].name
    protocol_name = protocol if protocol is not None else campaign.protocols[0]
    num_trees = trees if trees is not None else campaign.tree_counts[0]
    data = run_scenario(
        campaign,
        scenario_name,
        protocol_name,
        num_trees=num_trees,
        seed=seed,
        scale=scale,
    )
    table = render_table(
        f"K-tree scenario {scenario_name!r} "
        f"({protocol_name}, K={num_trees}, seed {seed})",
        ["blackout rate", "outage rate", "quality %", "blackouts/node"],
        [
            [
                data["blackout_rate"],
                data["stripe_outage_rate"],
                100.0 * data["mean_delivered_quality"],
                data["blackouts_per_node"],
            ]
        ],
    )
    return ExperimentResult(
        experiment_id="multitree_scenario",
        title=f"K-tree scenario {scenario_name!r}",
        table=table,
        data=data,
    )


register_campaign(
    "multitree_resilience",
    "Multi-tree resilience campaign: blackout/quality vs stripe count K",
    MultiTreeCampaignSpec,
    # The gated data is the seed-averaged summary only: per-run records
    # carry seed-shaped leaves (fault victim lists, possibly-NaN
    # diagnostics) that would make baseline paths ragged.  The full
    # per-run dump is available via the ``multitree_campaign``
    # subcommand's --json.
    data=gate_data,
)
