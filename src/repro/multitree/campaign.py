"""Multi-tree resilience campaigns: (scenario x protocol x K x seed).

A campaign spec names a set of fault *scenarios*, the protocols to run in
every stripe, and the stripe counts K to sweep.  The fields, round trip,
fan-out and report skeleton are the fault campaign's
(:class:`~repro.faults.campaign.BaseCampaignSpec`,
:func:`~repro.faults.campaign.run_campaign`); this module adds the K
axis, the per-stripe repair pricing, the per-run K-tree record and the
report rows: blackout rate, stripe-outage rate and delivered quality
(fraction of stripes) per (scenario, protocol, K) cell, each with its
time-binned series.

The qualitative claim the ``multitree_resilience`` validate gate
freezes: under the correlated-crash scenario the blackout rate is
decreasing in K — interior-disjointness converts full blackouts into
1/K-quality stripe outages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Tuple

from ..errors import FaultError
from ..faults.campaign import (
    BaseCampaignSpec,
    _nanmean,
    _require_unique,
    fault_log_records,
    invariants_block,
)
from ..faults.schedule import FaultSchedule
from ..recovery.schemes import cer_scheme
from .driver import MultiTreeSimulation

#: The built-in campaign: K in {1, 2, 4, 8} ROST stripe trees under no
#: faults, correlated node crashes, and a stub-domain outage.  The small
#: root fan-out keeps stripe trees deep (the per-stripe root cap is
#: K-invariant: int((root_bw/K) / (rate/K)) == int(root_bw/rate)), so
#: upstream failures actually orphan subtrees at smoke scales.
DEFAULT_MULTITREE_SPEC: dict = {
    "name": "ktree-resilience",
    "description": (
        "Blackout, stripe-outage and delivered-quality vs stripe count K "
        "under correlated faults"
    ),
    "population": 500,
    "protocols": ["rost"],
    "tree_counts": [1, 2, 4, 8],
    "root_bandwidth": 4.0,
    "scenarios": [
        {"name": "baseline", "faults": []},
        {
            "name": "crash",
            "faults": [
                {"kind": "node-crash", "count": 8, "at_frac": 0.45},
                {"kind": "node-crash", "count": 8, "at_frac": 0.7},
            ],
        },
        {
            "name": "outage",
            "faults": [
                {"kind": "stub-domain-outage", "domains": 2, "at_frac": 0.55}
            ],
        },
    ],
}


@dataclass(frozen=True)
class MultiTreeCampaignSpec(BaseCampaignSpec):
    """A K-tree campaign: scenarios x protocols x tree counts x seeds."""

    DEFAULT: ClassVar[dict] = DEFAULT_MULTITREE_SPEC
    UNIT_EXPERIMENT: ClassVar[str] = "multitree_scenario"
    TITLE: ClassVar[str] = "Multi-tree campaign"
    DERIVED_SEEDS: ClassVar[int] = 1
    MIN_GROUP_SIZE: ClassVar[int] = 0

    # Shared fields whose K-tree default differs from the fault campaign's.
    population: int = 500
    root_bandwidth: Optional[float] = 4.0
    #: CER/MLC group size per stripe; 0 disables repair-scheme pricing.
    group_size: int = 0
    tree_counts: Tuple[int, ...] = (1, 2, 4, 8)
    #: Per-stripe BTP switching interval; ``None`` disables switching.
    switch_interval_s: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.tree_counts:
            raise FaultError("campaign needs at least one tree count")
        for count in self.tree_counts:
            if count < 1:
                raise FaultError(f"tree counts must be >= 1, got {count}")
        _require_unique("tree counts", self.tree_counts)
        object.__setattr__(
            self, "tree_counts", tuple(int(k) for k in self.tree_counts)
        )

    def scheme_list(self) -> list:
        """The per-stripe repair schemes (empty when repair is disabled)."""
        if self.group_size < 1:
            return []
        return [cer_scheme(self.group_size, self.buffer_s)]

    def cells(self) -> list:
        return [
            (
                (s.name, protocol, f"K{k}"),
                {"scenario": s.name, "protocol": protocol, "trees": k},
            )
            for s in self.scenarios
            for protocol in self.protocols
            for k in self.tree_counts
        ]

    def report_axes(self) -> dict:
        return {
            "protocols": list(self.protocols),
            "tree_counts": list(self.tree_counts),
            "scenarios": [s.name for s in self.scenarios],
        }

    def report_header(self) -> list:
        return [
            "scenario",
            "protocol",
            "K",
            "blackout rate",
            "outage rate",
            "quality %",
            "blackouts/node",
        ]

    def summarize(self, runs: List[dict]) -> Tuple[dict, list]:
        entry: dict = {
            key: _nanmean([r[key] for r in runs])
            for key in (
                "blackout_rate",
                "stripe_outage_rate",
                "mean_delivered_quality",
                "blackouts_per_node",
                "stripe_outages_per_node",
                "members_measured",
            )
        }
        entry["series"] = {
            key: _mean_series(runs, key)
            for key in ("blackout_rate", "stripe_outage_rate", "delivered_quality")
        }
        row = [
            entry["blackout_rate"],
            entry["stripe_outage_rate"],
            100.0 * entry["mean_delivered_quality"],
            entry["blackouts_per_node"],
        ]
        return entry, row


resolve_multitree_campaign = MultiTreeCampaignSpec.resolve


def _mean_series(group: List[dict], series_key: str) -> List[float]:
    """Element-wise seed mean of one per-run resilience series."""
    rows = [r["resilience"]["series"][series_key] for r in group]
    if not rows:
        return []
    length = min(len(row) for row in rows)
    return [_nanmean([row[i] for row in rows]) for i in range(length)]


# -- one (scenario, protocol, K, seed) unit ----------------------------------------


def run_scenario(
    spec: MultiTreeCampaignSpec,
    scenario_name: str,
    protocol_name: str,
    num_trees: int,
    seed: int,
    scale: float = 1.0,
) -> dict:
    """Run one K-tree scenario unit; returns the JSON-ready per-run record.

    The run flags decide each stripe's checker and obs channels
    (:class:`~repro.experiments.common.Instruments`); a checked run's
    findings over all stripes land in the record's ``invariants`` block.
    """
    from ..experiments.common import Instruments, shared_topology

    scenario = spec.scenario(scenario_name)
    config = spec.config(seed, scale)
    topology, oracle = shared_topology(config)
    instruments = Instruments(reporting=True)
    schedule = (
        FaultSchedule(seed=seed, faults=scenario.faults)
        if scenario.faults
        else None
    )
    sim = MultiTreeSimulation(
        config,
        num_trees=num_trees,
        topology=topology,
        oracle=oracle,
        stripe_protocols=[protocol_name],
        switch_interval_s=spec.switch_interval_s,
        schemes=spec.scheme_list() or None,
        faults=schedule,
        check_invariants=instruments.checker,
    )
    for stripe, meta in sim.stripes():
        instruments.observe(
            stripe, {"scenario": scenario.name, "scale": scale, **meta}
        )
    result = sim.run()
    instruments.emit()

    churn_result = getattr(result.per_tree[0], "churn", result.per_tree[0])
    record: dict = {
        "scenario": scenario.name,
        "protocol": protocol_name,
        "trees": num_trees,
        "seed": seed,
        "mean_population": churn_result.metrics.mean_population,
        "fault_log": fault_log_records(result.fault_log),
        "blackout_rate": result.blackout_rate,
        "stripe_outage_rate": result.stripe_outage_rate,
        "mean_delivered_quality": result.mean_delivered_quality,
        "blackouts_per_node": result.blackouts_per_node,
        "stripe_outages_per_node": result.stripe_disruptions_per_node,
        "members_measured": result.members_measured,
        "effective_delay_ms": result.effective_delay_ms,
        "resilience": result.resilience,
    }
    if spec.group_size >= 1:
        schemes: Dict[str, dict] = {}
        for stripe_result in result.per_tree:
            for name in sorted(stripe_result.schemes):
                scheme_result = stripe_result.schemes[name]
                entry = schemes.setdefault(
                    name,
                    {"starving_ratios": [], "success_rates": [], "episodes": 0},
                )
                entry["starving_ratios"].append(
                    scheme_result.avg_starving_ratio_pct
                )
                entry["success_rates"].append(scheme_result.repair_success_rate)
                entry["episodes"] += scheme_result.episodes
        record["schemes"] = {
            name: {
                "starving_ratio_pct": _nanmean(entry["starving_ratios"]),
                "repair_success_rate": _nanmean(entry["success_rates"]),
                "episodes": entry["episodes"],
            }
            for name, entry in schemes.items()
        }
    if instruments.checkers:
        record["invariants"] = invariants_block(instruments.checkers)
    return record


def gate_data(report_data: dict) -> dict:
    """The NaN-free subset of a campaign report the validate gate freezes.

    Per-run records carry diagnostic leaves that may legitimately be NaN
    at tiny scales (e.g. ``effective_delay_ms`` when no member holds all
    K stripes at the end state); the gated surface is the seed-averaged
    summary, whose rates and series are finite by construction.  A
    checked campaign's ``invariant_violations`` count is no gate metric.
    """
    return {
        key: report_data[key]
        for key in (
            "schema_version",
            "campaign",
            "scale",
            "seeds",
            "protocols",
            "tree_counts",
            "scenarios",
            "summary",
        )
    }
