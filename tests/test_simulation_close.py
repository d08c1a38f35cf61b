"""The harness closes every simulation it finishes.

A finished run is one large reference cycle (parent and child links,
pending events whose closures hold the driver, listener tables of bound
methods).  :meth:`repro.experiments.common.Instruments.finish` closes
each simulation it observed, so reference counting frees the run the
moment its caller returns, with no cyclic collection.  These tests run
every seam caller with automatic GC off and count what stays alive.
"""

import gc
from pathlib import Path

import pytest

from repro.experiments import common, multitree_ext, rescue_ext, units
from repro.experiments.common import PROTOCOL_ORDER, SweepSettings, exported_env
from repro.faults import campaign as faults_campaign
from repro.invariants import ENV_CHECK_INVARIANTS
from repro.multitree import campaign as multitree_campaign
from repro.obs.capture import ENV_TRACE, job_capture
from repro.overlay.node import OverlayNode
from repro.recovery.schemes import cer_scheme
from repro.sim.events import Event

CAMPAIGNS = Path(__file__).resolve().parents[1] / "examples" / "campaigns"
SETTINGS = SweepSettings(scale=0.02, seed=3)


def _fault_cell():
    spec = faults_campaign.CampaignSpec.load(str(CAMPAIGNS / "stub_outage.json"))
    return faults_campaign.run_scenario(spec, "stub-outage", "rost", 1, scale=0.05)


def _k_tree_cell():
    spec = multitree_campaign.MultiTreeCampaignSpec.load(
        str(CAMPAIGNS / "multitree_smoke.json")
    )
    return multitree_campaign.run_scenario(spec, "crash", "rost", 2, 1, scale=0.1)


CALLERS = {
    **{
        f"churn-unit-{name}": (
            lambda name=name: units.run_unit(units.ChurnUnit(name, 2000, SETTINGS))
        )
        for name in PROTOCOL_ORDER
    },
    "recovery-unit": lambda: units.run_unit(
        units.RecoveryUnit(
            "rost", 8000, SETTINGS, tuple(cer_scheme(k) for k in (1, 3))
        )
    ),
    "fault-cell": _fault_cell,
    "k-tree-cell": _k_tree_cell,
    "ext-rescue": lambda: rescue_ext.run(scale=0.02, seed=3),
    "ext-multitree": lambda: multitree_ext.run(scale=0.02, seed=3),
}

MODES = {
    "unchecked": {ENV_CHECK_INVARIANTS: None, ENV_TRACE: None},
    "checked-traced": {ENV_CHECK_INVARIANTS: "1", ENV_TRACE: "1"},
}


def _alive(kind) -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is kind)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_seam_callers_leave_nothing_for_the_collector(caller, mode):
    common.clear_caches()
    gc.collect()
    before = _alive(OverlayNode), _alive(Event)
    gc.disable()
    try:
        with exported_env(MODES[mode]), job_capture():
            CALLERS[caller]()
        after = _alive(OverlayNode), _alive(Event)
    finally:
        gc.enable()
        common.clear_caches()
    assert after == before


def test_shared_underlay_oracle_and_workload_serve_the_next_unit():
    """Closing a unit leaves what the next unit shares untouched: a unit
    run after another one over the same underlay, oracle and workload
    reads exactly what it reads from cold caches."""
    first = units.ChurnUnit("rost", 2000, SETTINGS)
    second = units.ChurnUnit("min-depth", 2000, SETTINGS)
    common.clear_caches()
    cold = units.run_unit(second).to_payload()
    common.clear_caches()
    units.run_unit(first)
    config = SETTINGS.config(2000)
    shared = common.shared_topology(config), common.shared_workload(config)
    warm = units.run_unit(second).to_payload()
    assert (common.shared_topology(config), common.shared_workload(config)) == shared
    assert warm == cold
    common.clear_caches()
