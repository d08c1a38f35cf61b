"""Fault-injection campaign subsystem for correlated-failure stress tests.

The paper's evaluation covers independent member churn; this package adds
the correlated-failure axis: typed fault primitives (:mod:`.model`),
seed-deterministic composable schedules (:mod:`.schedule`), an
engine-level injector that replays them into an unmodified
:class:`~repro.simulation.churn.ChurnSimulation` (:mod:`.injector`), and
a campaign runner fanning (scenario x protocol x seed) grids over worker
processes into one resilience report (:mod:`.campaign`).

See ``docs/faults.md`` for the campaign spec format and semantics.
"""

from .model import (
    FAULT_KINDS,
    ChurnSurge,
    Fault,
    FlashCrowd,
    LinkDegradation,
    NodeCrash,
    StubDomainOutage,
    fault_from_spec,
)
from .schedule import FaultSchedule, load_schedule
from .injector import DegradedOracle, FaultInjector, wire_resilience
from .campaign import (
    DEFAULT_CAMPAIGN_SPEC,
    CampaignReport,
    CampaignSpec,
    ScenarioSpec,
    load_campaign,
    resolve_campaign,
    run_campaign,
    run_scenario,
)

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "NodeCrash",
    "StubDomainOutage",
    "LinkDegradation",
    "FlashCrowd",
    "ChurnSurge",
    "fault_from_spec",
    "FaultSchedule",
    "load_schedule",
    "FaultInjector",
    "DegradedOracle",
    "wire_resilience",
    "CampaignSpec",
    "ScenarioSpec",
    "CampaignReport",
    "DEFAULT_CAMPAIGN_SPEC",
    "load_campaign",
    "resolve_campaign",
    "run_campaign",
    "run_scenario",
]
