"""Registered experiments around the fault-injection campaign subsystem.

``faults_scenario`` runs one (scenario, protocol, seed) unit — it is the
picklable job the campaign fans out over worker processes, also for the
dedicated ``python -m repro.experiments faults_campaign`` subcommand.
``faults_campaign`` runs a whole campaign spec (the built-in example by
default) and emits the merged resilience report.  :func:`register_campaign`
builds it, and the K-tree ``multitree_resilience``, from one body.
"""

from __future__ import annotations

from typing import Optional

from ..faults.campaign import (
    CampaignSpec,
    resolve_campaign,
    run_campaign,
    run_scenario,
)
from ..metrics.report import render_table
from .registry import ExperimentResult, register


@register(
    "faults_scenario",
    "One fault-injection scenario run (scenario x protocol x seed unit)",
    "Extension",
)
def run_faults_scenario(
    scale: float = 1.0,
    seed: int = 42,
    spec=None,
    scenario: Optional[str] = None,
    protocol: Optional[str] = None,
    **_,
) -> ExperimentResult:
    campaign = resolve_campaign(spec)
    scenario_name = scenario if scenario is not None else campaign.scenarios[0].name
    protocol_name = protocol if protocol is not None else campaign.protocols[0]
    data = run_scenario(
        campaign, scenario_name, protocol_name, seed=seed, scale=scale
    )
    scheme_names = sorted(data["schemes"])
    table = render_table(
        f"Fault scenario {scenario_name!r} ({protocol_name}, seed {seed})",
        [
            "fault events",
            "MTTR s",
            "delivered",
            *[f"{name} success" for name in scheme_names],
        ],
        [
            [
                data["fault_disruption_events"],
                data["mttr_s"],
                data["delivered_data_ratio"],
                *[
                    data["schemes"][name]["repair_success_rate"]
                    for name in scheme_names
                ],
            ]
        ],
    )
    return ExperimentResult(
        experiment_id="faults_scenario",
        title=f"Fault scenario {scenario_name!r}",
        table=table,
        data=data,
    )


def register_campaign(experiment_id: str, title: str, spec_class, data=None):
    """Register ``experiment_id``: one whole campaign of ``spec_class``
    (the built-in default unless a ``spec`` is given), reported by
    :func:`~repro.faults.campaign.run_campaign`.  ``data`` narrows the
    report data the experiment returns."""

    @register(experiment_id, title, "Extension")
    def run(
        scale: float = 1.0,
        seed: int = 42,
        spec=None,
        jobs: Optional[int] = 1,
        job_timeout: Optional[float] = None,
        **_,
    ) -> ExperimentResult:
        campaign = spec_class.resolve(spec)
        report = run_campaign(
            campaign, scale=scale, seed=seed, jobs=jobs, timeout_s=job_timeout
        )
        return ExperimentResult(
            experiment_id=experiment_id,
            title=f"{campaign.TITLE} {campaign.name!r}",
            table=report.table,
            data=report.data if data is None else data(report.data),
            # The campaign fans its own jobs out (each under a nested
            # capture), so the merged artifacts ride the report, not the
            # ambient capture — forward them onto the experiment result.
            artifacts=dict(report.artifacts),
        )

    return run


register_campaign(
    "faults_campaign",
    "Fault-injection campaign: correlated-failure resilience report",
    CampaignSpec,
)
