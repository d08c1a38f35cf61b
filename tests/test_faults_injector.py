"""Engine-level fault injection into live churn simulations."""

import dataclasses

import numpy as np
import pytest

from repro.errors import FaultError
from repro.faults import (
    ChurnSurge,
    DegradedOracle,
    FaultInjector,
    FaultSchedule,
    FlashCrowd,
    LinkDegradation,
    NodeCrash,
    StubDomainOutage,
)
from repro.invariants import check_tree
from repro.metrics.collectors import ResilienceMetrics
from repro.protocols import PROTOCOLS
from repro.simulation.churn import ChurnSimulation
from repro.workload.generator import ChurnWorkload
from repro.workload.session import RootSpec, Session
from tests.conftest import small_sim_config


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


def run_faulted(
    faults,
    sessions,
    *,
    seed=9,
    horizon=3000.0,
    root_bandwidth=None,
    protocol="min-depth",
    schedule_seed=1,
):
    cfg = small_sim_config(population=100, seed=seed)
    if root_bandwidth is not None:
        cfg = dataclasses.replace(
            cfg,
            workload=dataclasses.replace(
                cfg.workload, root_bandwidth=root_bandwidth
            ),
        )
    workload = build_workload(cfg, sessions, horizon)
    sim = ChurnSimulation(
        cfg, PROTOCOLS[protocol], workload=workload, check_invariants=True
    )
    resilience = ResilienceMetrics(0.0, horizon)
    injector = FaultInjector(
        FaultSchedule(seed=schedule_seed, faults=tuple(faults))
    ).bind(sim, resilience=resilience)
    sim.run()
    resilience.finish(horizon)
    return sim, injector, resilience


def test_node_crash_kills_count():
    members = make_sessions(30, arrival=0.0, lifetime=5000.0, bandwidth=2.0)
    sim, injector, res = run_faulted(
        [NodeCrash(at_s=500.0, count=5)], members, root_bandwidth=4.0
    )
    assert len(injector.log) == 1
    t, kind, detail = injector.log[0]
    assert t == 500.0
    assert kind == "node-crash"
    assert detail["selector"] == "random"
    assert len(detail["killed"]) == 5
    # killed members are gone for good; everyone else is re-attached
    assert sim.tree.num_attached == 26  # 30 - 5 victims + root
    assert "fault:node-crash" in res.disruption_events
    assert res.faults_fired == [(500.0, "node-crash", detail)]
    check_tree(sim.tree)


def test_node_crash_explicit_member_ids():
    members = make_sessions(20, arrival=0.0, lifetime=5000.0, bandwidth=2.0)
    sim, injector, _ = run_faulted(
        [NodeCrash(at_s=300.0, member_ids=(3, 7, 11))], members
    )
    assert injector.log[0][2]["killed"] == [3, 7, 11]
    assert sim.tree.num_attached == 18  # 20 - 3 + root


def test_stale_natural_departures_noop_after_kill():
    # victims' original departure events fire later and must be ignored
    members = make_sessions(20, arrival=0.0, lifetime=1000.0, bandwidth=2.0)
    sim, injector, _ = run_faulted(
        [NodeCrash(at_s=500.0, count=5)], members, horizon=2000.0
    )
    assert len(injector.log[0][2]["killed"]) == 5
    assert sim.tree.num_attached == 1  # everyone is gone, nothing crashed
    check_tree(sim.tree)


def test_injected_kill_beats_same_instant_departure():
    # the fault timer runs at higher priority than the natural departure,
    # so member 1's disruption is attributed to the fault, not to churn
    members = make_sessions(10, arrival=0.0, lifetime=500.0, bandwidth=2.0)
    _, injector, res = run_faulted(
        [NodeCrash(at_s=500.0, member_ids=(1,))], members, horizon=1500.0
    )
    assert injector.log[0][2]["killed"] == [1]
    assert res.disruption_events["fault:node-crash"] == 1
    assert res.disruption_events.get("churn", 0) == 9


def test_node_crash_mttr_recorded_on_deep_tree():
    members = make_sessions(30, arrival=0.0, lifetime=5000.0, bandwidth=2.0)
    _, injector, res = run_faulted(
        [NodeCrash(at_s=800.0, selector="root-children", count=2)],
        members,
        root_bandwidth=4.0,
    )
    assert injector.log[0][2]["selector"] == "root-children"
    # the root's children have descendants: their orphans repaired, timed
    samples = res.repair_times.get("fault:node-crash")
    assert samples, "expected repair-time samples for the injected crash"
    assert all(t > 0 for t in samples)
    assert res.mttr_s("fault:node-crash") > 0
    assert res.detached_seconds > 0


def test_stub_domain_outage_kills_whole_domains():
    members = make_sessions(40, arrival=0.0, lifetime=5000.0, bandwidth=2.0)
    sim, injector, res = run_faulted(
        [StubDomainOutage(at_s=600.0, domain_ids=(2,))], members
    )
    node_domain = sim.topology.node_domain
    expected = sorted(
        s.member_id
        for s in sim.workload.sessions
        if int(node_domain[s.underlay_node]) == 2
    )
    detail = injector.log[0][2]
    assert detail["domains"] == [2]
    assert expected, "test workload must place members in domain 2"
    assert detail["killed"] == expected
    assert res.disruption_events["fault:stub-domain-outage"] == len(expected)


def test_stub_domain_outage_picks_most_populated():
    members = make_sessions(40, arrival=0.0, lifetime=5000.0, bandwidth=2.0)
    sim, injector, _ = run_faulted(
        [StubDomainOutage(at_s=600.0, domains=2)], members
    )
    node_domain = sim.topology.node_domain
    population = {}
    for s in sim.workload.sessions:
        domain = int(node_domain[s.underlay_node])
        population[domain] = population.get(domain, 0) + 1
    ranked = sorted(population, key=lambda d: (-population[d], d))
    assert injector.log[0][2]["domains"] == ranked[:2]


def test_flash_crowd_spawns_fresh_members():
    stable = make_sessions(5, arrival=0.0, lifetime=5000.0, bandwidth=2.0)
    horizon = 1000.0
    sim, injector, _ = run_faulted(
        [FlashCrowd(at_s=1.0, size=50, spread_s=0.0, bandwidth=2.0)],
        stable,
        horizon=horizon,
    )
    assert injector.log[0][2] == {"arrivals": 50}
    burst = [s for mid, s in injector._sessions.items() if mid > 5]
    assert len(burst) == 50
    assert all(s.bandwidth == 2.0 for s in burst)
    assert min(s.member_id for s in burst) == 6  # fresh ids after the workload's
    # everyone sits under the 100-slot root, so attachment is pure session
    # arithmetic: stable members + burst members still alive at the horizon
    alive = sum(1 for s in burst if s.departure_s > horizon)
    assert sim.tree.num_attached == 1 + 5 + alive
    check_tree(sim.tree)


def test_churn_surge_compresses_departures():
    members = make_sessions(30, arrival=0.0, lifetime=2600.0, bandwidth=2.0)
    sim, injector, res = run_faulted(
        [ChurnSurge(at_s=500.0, lifetime_factor=0.1)], members, horizon=2000.0
    )
    # remaining 2100 s compress to 210 s: everyone dies at t=710 < horizon,
    # long before their original t=2600 departures (which then no-op)
    assert injector.log[0][2]["compressed"] == 30
    assert sim.tree.num_attached == 1
    assert res.disruption_events["fault:churn-surge"] == 30
    assert "churn" not in res.disruption_events


def test_churn_surge_fraction_spares_some():
    members = make_sessions(30, arrival=0.0, lifetime=2600.0, bandwidth=2.0)
    sim, injector, _ = run_faulted(
        [ChurnSurge(at_s=500.0, lifetime_factor=0.1, fraction=0.5)],
        members,
        horizon=2000.0,
    )
    compressed = injector.log[0][2]["compressed"]
    assert 0 < compressed < 30
    # the spared members' original departures (t=2600) are past the horizon
    assert sim.tree.num_attached == 31 - compressed


def test_link_degradation_window_and_stream_loss():
    members = make_sessions(30, arrival=0.0, lifetime=5000.0, bandwidth=2.0)
    sim, injector, res = run_faulted(
        [
            LinkDegradation(
                at_s=400.0, duration_s=100.0, delay_factor=4.0, loss_rate=0.5
            )
        ],
        members,
        horizon=2000.0,
    )
    detail = injector.log[0][2]
    assert detail["affected_members"] == 30  # global window hits everyone
    assert isinstance(sim.oracle, DegradedOracle)
    assert sim.ctx.oracle is sim.oracle
    assert sim.oracle.active_windows == 0  # the window closed after 100 s
    assert res.stream_loss_seconds == pytest.approx(100.0 * 30 * 0.5)
    ratio = res.delivered_data_ratio(30 * 2000.0)
    assert 0.9 < ratio < 1.0


def test_degraded_oracle_scopes_and_stacks():
    cfg = small_sim_config()
    workload = build_workload(
        cfg, make_sessions(1, arrival=0.0, lifetime=100.0, bandwidth=2.0), 200.0
    )
    sim = ChurnSimulation(cfg, PROTOCOLS["min-depth"], workload=workload)
    topology, oracle = sim.topology, sim.oracle
    stubs = list(topology.stub_nodes)
    u = stubs[0]
    du = int(topology.node_domain[u])
    v = next(s for s in stubs if int(topology.node_domain[s]) != du)
    x, y = [
        s
        for s in stubs
        if int(topology.node_domain[s]) not in (du, int(topology.node_domain[v]))
    ][:2]

    proxy = DegradedOracle(oracle, topology)
    base_uv = oracle.delay_ms(u, v)
    base_xy = oracle.delay_ms(x, y)
    assert proxy.delay_ms(u, v) == base_uv

    window = proxy.activate({du}, 3.0)
    assert proxy.delay_ms(u, v) == pytest.approx(3.0 * base_uv)
    assert proxy.delay_ms(x, y) == pytest.approx(base_xy)  # untouched path

    global_window = proxy.activate(None, 2.0)  # factors stack
    assert proxy.delay_ms(u, v) == pytest.approx(6.0 * base_uv)
    assert proxy.delay_ms(x, y) == pytest.approx(2.0 * base_xy)

    proxy.deactivate(window)
    proxy.deactivate(global_window)
    assert proxy.active_windows == 0
    assert proxy.delay_ms(u, v) == base_uv
    # the wrapped oracle itself was never touched
    assert oracle.delay_ms(u, v) == base_uv


def test_degraded_batch_delays_equal_scalar_bit_for_bit():
    """Under a domain window stacked with a global one, ``delays_from``
    returns exactly the doubles ``delay_ms`` gives target by target."""
    cfg = small_sim_config()
    workload = build_workload(
        cfg, make_sessions(1, arrival=0.0, lifetime=100.0, bandwidth=2.0), 200.0
    )
    sim = ChurnSimulation(cfg, PROTOCOLS["min-depth"], workload=workload)
    topology = sim.topology
    proxy = DegradedOracle(sim.oracle, topology)
    stubs = [int(s) for s in topology.stub_nodes]
    inside = stubs[0]
    domain = int(topology.node_domain[inside])
    outside = next(s for s in stubs if int(topology.node_domain[s]) != domain)
    targets = stubs + [inside, outside] + list(range(3))

    proxy.activate({domain}, 1.1)
    proxy.activate(None, 3.7)
    for source in (inside, outside):
        batch = proxy.delays_from(source, targets)
        assert batch.dtype == np.float64
        scalar = [proxy.delay_ms(source, t) for t in targets]
        assert batch.tolist() == scalar
        assert batch.tobytes() == np.array(scalar, dtype=np.float64).tobytes()
    # Paths into the domain pay both factors, other paths the global one.
    other = next(
        s for s in stubs if int(topology.node_domain[s]) != domain and s != outside
    )
    oracle = sim.oracle
    assert proxy.delay_ms(outside, inside) == oracle.delay_ms(outside, inside) * (
        1.1 * 3.7
    )
    assert proxy.delay_ms(outside, other) == oracle.delay_ms(outside, other) * 3.7


def test_injection_is_deterministic():
    def run_once():
        members = make_sessions(40, arrival=0.0, lifetime=4000.0, bandwidth=2.0)
        return run_faulted(
            [
                NodeCrash(at_s=600.0, count=8),
                ChurnSurge(at_s=900.0, lifetime_factor=0.5, fraction=0.5),
            ],
            members,
            horizon=2500.0,
            root_bandwidth=6.0,
        )

    _, injector_a, res_a = run_once()
    _, injector_b, res_b = run_once()
    assert injector_a.log == injector_b.log
    assert res_a.as_dict() == res_b.as_dict()


def test_bind_twice_raises():
    cfg = small_sim_config()
    workload = build_workload(
        cfg, make_sessions(1, arrival=0.0, lifetime=100.0, bandwidth=2.0), 200.0
    )
    sim = ChurnSimulation(cfg, PROTOCOLS["min-depth"], workload=workload)
    injector = FaultInjector(FaultSchedule())
    injector.bind(sim)
    with pytest.raises(FaultError):
        injector.bind(sim)
