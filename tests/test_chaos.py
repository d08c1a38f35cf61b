"""Failure injection and adversarial workloads.

These scenarios stress the drivers well outside the paper's nominal
operating point: mass simultaneous failures, capacity famine, flash
joins at a single instant.  The invariants must hold throughout and the
overlay must re-converge.

The injected-failure scenarios (mass failure, flash join, decapitation)
drive the engine through :mod:`repro.faults` primitives; the remaining
ones hand-roll workloads because their stress is the *workload shape*
itself (famine, wedges, storms), not an injected event.
"""

import dataclasses

import pytest

from repro.faults import FaultInjector, FaultSchedule, FlashCrowd, NodeCrash
from repro.invariants import check_tree
from repro.metrics.collectors import ResilienceMetrics
from repro.protocols import PROTOCOLS
from repro.simulation.churn import ChurnSimulation
from repro.workload.generator import ChurnWorkload
from repro.workload.session import RootSpec, Session
from tests.conftest import small_sim_config

pytestmark = pytest.mark.chaos


def build_workload(config, sessions, horizon):
    return ChurnWorkload(
        config=config.workload,
        root=RootSpec(bandwidth=config.workload.root_bandwidth, underlay_node=6),
        sessions=sorted(sessions, key=lambda s: s.arrival_s),
        horizon_s=horizon,
    )


def make_sessions(count, arrival, lifetime, bandwidth, start_id=1, node=6):
    return [
        Session(
            member_id=start_id + i,
            arrival_s=arrival,
            lifetime_s=lifetime,
            bandwidth=bandwidth,
            underlay_node=node + i % 48,
        )
        for i in range(count)
    ]


@pytest.mark.parametrize("protocol_name", ["min-depth", "rost", "relaxed-bo"])
def test_mass_simultaneous_failure(protocol_name):
    """Half the population is killed at the same instant."""
    cfg = small_sim_config(population=100, seed=3)
    members = make_sessions(120, arrival=0.0, lifetime=5000.0, bandwidth=3.0)
    workload = build_workload(cfg, members, horizon=3000.0)
    sim = ChurnSimulation(
        cfg, PROTOCOLS[protocol_name], workload=workload, check_invariants=True
    )
    injector = FaultInjector(
        FaultSchedule(seed=3, faults=(NodeCrash(at_s=1000.0, count=60),))
    ).bind(sim)
    sim.run()
    assert injector.log[0][1] == "node-crash"
    assert len(injector.log[0][2]["killed"]) == 60
    # every surviving member is attached again by the end
    assert sim.tree.num_attached == 61  # 60 survivors + root
    check_tree(sim.tree)


def test_capacity_famine_rejects_gracefully():
    """Only the root can forward; everyone else is a free-rider."""
    cfg = small_sim_config(population=150, seed=4)
    riders = make_sessions(150, arrival=10.0, lifetime=4000.0, bandwidth=0.5)
    workload = build_workload(cfg, riders, horizon=3000.0)
    sim = ChurnSimulation(
        cfg, PROTOCOLS["min-depth"], workload=workload, check_invariants=True
    )
    result = sim.run()
    # the root's 100 slots fill; the other 50 keep retrying, never attach
    assert sim.tree.num_attached == 101
    assert result.metrics.join_retries > 0


def test_flash_join_single_instant():
    """Hundreds of members join in the same simulated second."""
    cfg = small_sim_config(population=200, seed=5)
    stable = make_sessions(5, arrival=0.0, lifetime=4000.0, bandwidth=2.0)
    # a short horizon measures right after the surge, before the burst's
    # heavy-tailed (median ~245 s) lifetimes drain the crowd away again
    horizon = 300.0
    workload = build_workload(cfg, stable, horizon=horizon)
    sim = ChurnSimulation(
        cfg, PROTOCOLS["rost"], workload=workload, check_invariants=True
    )
    injector = FaultInjector(
        FaultSchedule(
            seed=5,
            faults=(FlashCrowd(at_s=1.0, size=300, spread_s=0.0, bandwidth=2.0),),
        )
    ).bind(sim)
    sim.run()
    assert injector.log[0][2] == {"arrivals": 300}
    # nobody is capacity-rejected (everyone can forward), so attachment is
    # session arithmetic: the stable members plus the burst members whose
    # distribution-drawn lifetimes outlast the horizon
    burst = [s for mid, s in injector._sessions.items() if mid > 5]
    alive = sum(1 for s in burst if s.departure_s > horizon)
    assert sim.tree.num_attached == 1 + 5 + alive
    assert sim.tree.num_attached > 100  # the crowd genuinely joined
    check_tree(sim.tree)


def test_repeated_decapitation():
    """The members directly under the root die over and over."""
    cfg = small_sim_config(population=100, seed=6)
    # a narrow-ish root (20 slots) forces a deep tree, so the dying waves
    # have descendants to disrupt, while keeping enough headroom that the
    # forwarding-capable members can always re-attach (see
    # test_capacity_wedge below for the degenerate case)
    cfg = dataclasses.replace(
        cfg, workload=dataclasses.replace(cfg.workload, root_bandwidth=20.0)
    )
    # long-lived members that can each forward one stream: capacity never
    # collapses, so the waves always have descendants to disrupt
    horizon = 2000.0
    sessions = make_sessions(80, arrival=5.0, lifetime=6000.0, bandwidth=1.2)
    workload = build_workload(cfg, sessions, horizon=horizon)
    sim = ChurnSimulation(
        cfg, PROTOCOLS["rost"], workload=workload, check_invariants=True
    )
    waves = tuple(
        NodeCrash(at_s=100.0 + 200.0 * wave, selector="root-children", count=5)
        for wave in range(8)
    )
    resilience = ResilienceMetrics(0.0, horizon)
    injector = FaultInjector(FaultSchedule(seed=6, faults=waves)).bind(
        sim, resilience=resilience
    )
    sim.run()
    resilience.finish(horizon)
    check_tree(sim.tree)
    assert len(injector.log) == 8  # every wave fired
    assert sum(len(d["killed"]) for _, _, d in injector.log) == 40
    assert resilience.disruption_events["fault:node-crash"] > 0
    # the decapitated subtrees re-attached and their repairs were timed
    assert resilience.repair_times.get("fault:node-crash")


def test_capacity_wedge_is_survived_not_solved():
    """A documented liveness limitation of the protocol family.

    If the root is tiny and zero-degree members capture all of its slots
    at the wrong moment, total spare capacity drops to zero and everyone
    else retries forever: no ROST mechanism can displace a childless
    member (switches are child-initiated).  The simulation must survive
    the famine — retrying indefinitely, keeping invariants — even though
    the overlay cannot recover without an eviction mechanism the paper's
    protocols do not have.
    """
    cfg = small_sim_config(population=100, seed=6)
    cfg = dataclasses.replace(
        cfg, workload=dataclasses.replace(cfg.workload, root_bandwidth=4.0)
    )
    sessions = []
    next_id = 1
    for wave in range(8):
        for i in range(10):
            sessions.append(
                Session(
                    member_id=next_id,
                    arrival_s=1.0 + 200.0 * wave,
                    lifetime_s=250.0,
                    bandwidth=10.0,
                    underlay_node=6 + next_id % 48,
                )
            )
            next_id += 1
    sessions += make_sessions(
        80, arrival=5.0, lifetime=6000.0, bandwidth=0.5, start_id=5000
    )
    workload = build_workload(cfg, sessions, horizon=2000.0)
    sim = ChurnSimulation(
        cfg, PROTOCOLS["rost"], workload=workload, check_invariants=True
    )
    result = sim.run()
    check_tree(sim.tree)
    # the system survives; whether it wedges depends on who wins the race
    # for the 4 root slots, and with this seed the free-riders do
    assert sim.tree.num_attached < 20
    assert result.metrics.join_retries > 0


def test_graceful_mass_exit_zero_disruptions():
    cfg = small_sim_config(population=100, seed=7)
    members = make_sessions(120, arrival=0.0, lifetime=1000.0, bandwidth=2.0)
    workload = build_workload(cfg, members, horizon=2500.0)
    sim = ChurnSimulation(
        cfg,
        PROTOCOLS["min-depth"],
        workload=workload,
        graceful_departure_fraction=1.0,
        check_invariants=True,
    )
    result = sim.run()
    assert result.metrics.disruption_events == 0
    assert sim.tree.num_attached == 1  # everyone left; only the root remains


def test_churn_storm_many_short_sessions():
    """Sessions far shorter than the recovery window."""
    cfg = small_sim_config(population=100, seed=8)
    storm = []
    for i in range(400):
        storm.append(
            Session(
                member_id=i + 1,
                arrival_s=1.0 + i * 2.0,
                lifetime_s=8.0,  # dies before any rejoin completes
                bandwidth=2.0,
                underlay_node=6 + i % 48,
            )
        )
    workload = build_workload(cfg, storm, horizon=1200.0)
    sim = ChurnSimulation(
        cfg, PROTOCOLS["rost"], workload=workload, check_invariants=True
    )
    sim.run()
    check_tree(sim.tree)
    assert sim.tree.num_attached == 1
