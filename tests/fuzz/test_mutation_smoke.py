"""Mutation smoke tests: every invariant checker must catch a seeded bug.

Each test plants one deliberate defect — in the event kernel, the tree
maintenance, the ROST switch machinery, the recovery pricing or the
fault injector — runs a small simulation under a non-strict
:class:`~repro.invariants.InvariantChecker`, and asserts the matching
invariant fired.  Together they demonstrate the checker is a live
tripwire at every layer, not a formality that never triggers.

These are plain tier-1 tests (no hypothesis involved); the generative
counterparts live in ``test_protocol_fuzz.py``.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import repro.protocols.rost.protocol as rost_protocol_module
import repro.recovery.episode as episode_module
import repro.simulation.streaming as streaming_module
from repro.faults import FaultInjector, FaultSchedule, NodeCrash
from repro.invariants import InvariantChecker
from repro.overlay.node import OverlayNode
from repro.overlay.tree import MulticastTree
from repro.protocols import PROTOCOLS
from repro.protocols.rost.protocol import RostProtocol
from repro.recovery.episode import BackfillSpec, RepairSource
from repro.recovery.schemes import cer_scheme
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue
from repro.simulation.churn import ChurnSimulation
from repro.simulation.streaming import RecoverySimulation
from repro.workload.generator import ChurnWorkload
from repro.workload.session import RootSpec, Session
from tests.conftest import make_node, small_sim_config


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


def narrow_root(cfg, bandwidth=4.0):
    """Cap the root's out-degree so trees grow deep instead of flat."""
    return dataclasses.replace(
        cfg, workload=dataclasses.replace(cfg.workload, root_bandwidth=bandwidth)
    )


def kernel_checker(**checker_kwargs):
    """A bare Simulator + empty tree wrapped for checker attachment."""
    sim = Simulator()
    tree = MulticastTree(make_node(0, bandwidth=10.0, cap=10, is_root=True))
    checker = InvariantChecker(strict=False, **checker_kwargs)
    checker.attach(SimpleNamespace(sim=sim, tree=tree))
    return sim, checker


def always_swap(self, node):
    """Mutant _switch_action: swap whenever structurally possible,
    ignoring the BTP comparison entirely."""
    parent = node.parent
    if not node.attached or parent is None or parent.is_root or parent.parent is None:
        return "none"
    if node.out_degree_cap < len(parent.children):
        return "none"
    return "swap"


# -- sim layer -----------------------------------------------------------------


def test_cancelled_event_firing_is_detected(monkeypatch):
    """Break the queue's cancelled-head filtering: a cancelled timer fires."""
    monkeypatch.setattr(EventQueue, "_drop_cancelled_head", lambda self: None)
    sim, checker = kernel_checker(interval_events=10_000)
    victim = sim.schedule_at(60.0, lambda: None, label="victim")
    sim.schedule_at(50.0, victim.cancel)
    sim.run_until(100.0)
    assert "sim-no-fire-after-cancel" in checker.violation_names


def test_time_travel_scheduling_is_detected():
    """Bypass schedule_at's past-guard (as a buggy caller could, going
    through the raw queue): the clock runs backwards."""
    sim, checker = kernel_checker(interval_events=10_000)
    sim.schedule_at(
        300.0,
        lambda: sim._queue.schedule(100.0, lambda: None, 0, "time-travel-bug"),
    )
    sim.run_until(400.0)
    assert "sim-clock-monotonic" in checker.violation_names


# -- tree layer ----------------------------------------------------------------


def test_degree_cap_overflow_is_detected(monkeypatch):
    """An off-by-one spare_degree lets every member over-admit children."""
    monkeypatch.setattr(
        OverlayNode,
        "spare_degree",
        property(lambda self: self.out_degree_cap - len(self.children) + 1),
    )
    cfg = narrow_root(small_sim_config(population=40, seed=3))
    sessions = make_sessions(30, arrival=1.0, lifetime=5000.0, bandwidth=2.0)
    workload = build_workload(cfg, sessions, horizon=300.0)
    checker = InvariantChecker(strict=False, interval_events=16)
    ChurnSimulation(
        cfg, PROTOCOLS["min-depth"], workload=workload, check_invariants=checker
    ).run()
    assert "tree-degree-cap" in checker.violation_names


def test_lost_rejoin_timer_is_detected():
    """A departure handler that forgets its orphans' rejoin timers leaves
    ever-attached members detached with no recovery in flight."""
    cfg = narrow_root(small_sim_config(population=40, seed=4))
    early = make_sessions(8, arrival=0.0, lifetime=300.0, bandwidth=2.0)
    late = make_sessions(24, arrival=10.0, lifetime=5000.0, bandwidth=2.0, start_id=100)
    workload = build_workload(cfg, early + late, horizon=600.0)
    checker = InvariantChecker(strict=False, interval_events=64)
    sim = ChurnSimulation(
        cfg, PROTOCOLS["min-depth"], workload=workload, check_invariants=checker
    )
    orig_departure = sim._on_departure

    def forgetful_departure(node, cause="churn", co_failed_ids=frozenset()):
        orig_departure(node, cause=cause, co_failed_ids=co_failed_ids)
        for timer in sim._pending_rejoins.values():
            timer.cancel()
        sim._pending_rejoins.clear()

    sim._on_departure = forgetful_departure
    sim.run()
    assert "tree-orphan-recovery" in checker.violation_names


# -- rost layer ----------------------------------------------------------------


def test_btp_inversion_is_detected(monkeypatch):
    """A switch rule that ignores BTP promotes young members over old ones."""
    monkeypatch.setattr(RostProtocol, "_switch_action", always_swap)
    cfg = narrow_root(small_sim_config(population=40, seed=5, switch_interval_s=20.0))
    old = make_sessions(12, arrival=0.0, lifetime=5000.0, bandwidth=2.0)
    young = make_sessions(20, arrival=60.0, lifetime=5000.0, bandwidth=2.0, start_id=100)
    workload = build_workload(cfg, old + young, horizon=400.0)
    checker = InvariantChecker(strict=False, interval_events=64)
    ChurnSimulation(
        cfg, PROTOCOLS["rost"], workload=workload, check_invariants=checker
    ).run()
    assert "rost-switch-btp-order" in checker.violation_names


def test_phantom_lock_grants_are_detected(monkeypatch):
    """A lock service that grants everything lets one member switch twice
    inside a single lock-hold window."""
    monkeypatch.setattr(
        rost_protocol_module, "try_lock_all", lambda involved, now, until: True
    )
    monkeypatch.setattr(RostProtocol, "_switch_action", always_swap)
    cfg = narrow_root(small_sim_config(population=40, seed=6, switch_interval_s=1.0))
    sessions = make_sessions(30, arrival=0.0, lifetime=5000.0, bandwidth=2.0)
    workload = build_workload(cfg, sessions, horizon=120.0)
    checker = InvariantChecker(strict=False, interval_events=64)
    ChurnSimulation(
        cfg, PROTOCOLS["rost"], workload=workload, check_invariants=checker
    ).run()
    assert "rost-lock-no-double-grant" in checker.violation_names


# -- recovery layer ------------------------------------------------------------


def recovery_fixture():
    """A RecoverySimulation wired to a non-strict checker (not run: the
    tests price episodes directly through the wrapped observer)."""
    scheme = cer_scheme(group_size=3)
    checker = InvariantChecker(strict=False, interval_events=64)
    rsim = RecoverySimulation(
        small_sim_config(population=30, seed=7),
        PROTOCOLS["min-depth"],
        [scheme],
        check_invariants=checker,
    )
    return rsim, scheme, checker


def test_broken_striping_is_detected(monkeypatch):
    """Striping that skips the first source under-covers the stream rate."""
    orig = episode_module._striped_arrivals

    def skips_first_source(arrivals, rate, detect, hop, sources):
        return orig(arrivals, rate, detect, hop, list(sources)[1:])

    monkeypatch.setattr(episode_module, "_striped_arrivals", skips_first_source)
    rsim, scheme, checker = recovery_fixture()
    rate = rsim.observer.recovery_config.packet_rate_pps
    sources = [
        RepairSource(member_id=900 + i, rate_pps=0.7 * rate, has_data=True,
                     delay_ms=5.0 * i)
        for i in range(2)
    ]
    rsim.observer._apply_episode(
        scheme, 100.0, [make_node(500, join_time=0.0)], sources, 50, None
    )
    assert "recovery-residual-covers-rate" in checker.violation_names


def test_out_of_window_backfill_is_detected(monkeypatch):
    """Backfill that ignores the buffer cutoff replays the whole gap."""
    orig = episode_module._backfill_arrivals

    def ignores_cutoff(arrivals, deadlines, backfill):
        unbounded = BackfillSpec(
            start_s=backfill.start_s, rate_pps=backfill.rate_pps, cutoff_seq=0
        )
        return orig(arrivals, deadlines, unbounded)

    monkeypatch.setattr(episode_module, "_backfill_arrivals", ignores_cutoff)
    rsim, scheme, checker = recovery_fixture()
    backfill = BackfillSpec(start_s=1.0, rate_pps=1e6, cutoff_seq=40)
    rsim.observer._apply_episode(
        scheme, 100.0, [make_node(501, join_time=0.0)], [], 50, backfill
    )
    assert "recovery-backfill-window" in checker.violation_names


def test_inflated_repair_accounting_is_detected(monkeypatch):
    """Pricing that claims more repairs than the gap held breaks packet
    conservation."""
    orig = streaming_module.starvation_episode

    def inflated(**kwargs):
        outcome = orig(**kwargs)
        return dataclasses.replace(
            outcome, repaired_in_time=outcome.gap_packets + 7
        )

    monkeypatch.setattr(streaming_module, "starvation_episode", inflated)
    rsim, scheme, checker = recovery_fixture()
    rate = rsim.observer.recovery_config.packet_rate_pps
    sources = [RepairSource(member_id=900, rate_pps=1.5 * rate, has_data=True)]
    rsim.observer._apply_episode(
        scheme, 100.0, [make_node(502, join_time=0.0)], sources, 50, None
    )
    assert "recovery-episode-conservation" in checker.violation_names


# -- faults layer --------------------------------------------------------------


def test_non_atomic_cofailure_is_detected(monkeypatch):
    """An injector that staggers a correlated kill leaves half the victims
    alive past the event instant."""

    def lazy_kill(self, victims, cause):
        victims = sorted(
            (v for v in victims if not v.is_root), key=lambda n: n.member_id
        )
        co_failed = frozenset(v.member_id for v in victims)
        half = len(victims) // 2
        killed = []
        for victim in victims[:half]:
            if self.churn.fail_member(victim, cause=cause, co_failed_ids=co_failed):
                killed.append(victim.member_id)
        for victim in victims[half:]:
            self.churn.sim.schedule_in(
                30.0,
                lambda v=victim: self.churn.fail_member(
                    v, cause=cause, co_failed_ids=co_failed
                ),
            )
        return killed

    monkeypatch.setattr(FaultInjector, "kill", lazy_kill)
    cfg = narrow_root(small_sim_config(population=40, seed=9))
    sessions = make_sessions(30, arrival=0.0, lifetime=5000.0, bandwidth=2.0)
    workload = build_workload(cfg, sessions, horizon=400.0)
    checker = InvariantChecker(strict=False, interval_events=1)
    sim = ChurnSimulation(
        cfg, PROTOCOLS["min-depth"], workload=workload, check_invariants=checker
    )
    FaultInjector(
        FaultSchedule(seed=9, faults=(NodeCrash(at_s=100.0, count=10),))
    ).bind(sim)
    sim.run()
    assert "fault-atomic-cofail" in checker.violation_names
