"""End-to-end churn simulation runs (small populations)."""

from types import SimpleNamespace

import pytest

from repro.errors import SimulationError
from repro.protocols import PROTOCOLS
from repro.simulation.churn import ChurnSimulation
from repro.simulation.probe import PROBE_MEMBER_ID, make_probe_session
from tests.conftest import small_sim_config


@pytest.fixture(scope="module")
def shared_infra():
    """One topology+oracle shared by every churn test in this module."""
    sim = ChurnSimulation(small_sim_config(), PROTOCOLS["min-depth"])
    return sim.topology, sim.oracle


def run(protocol_name, config=None, **kwargs):
    cfg = config or small_sim_config()
    sim = ChurnSimulation(
        cfg,
        PROTOCOLS[protocol_name],
        check_invariants=True,
        **kwargs,
    )
    return sim, sim.run()


@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
def test_runs_green_with_invariants(shared_infra, protocol_name):
    topo, oracle = shared_infra
    cfg = small_sim_config()
    sim = ChurnSimulation(
        cfg, PROTOCOLS[protocol_name], topology=topo, oracle=oracle,
        check_invariants=True,
    )
    result = sim.run()
    assert result.protocol_name == protocol_name
    assert result.sessions_total > 0
    assert result.metrics.mean_population > 0
    assert result.metrics.node_seconds > 0


def test_population_tracks_target(shared_infra):
    topo, oracle = shared_infra
    cfg = small_sim_config(population=80)
    sim = ChurnSimulation(cfg, PROTOCOLS["min-depth"], topology=topo, oracle=oracle)
    result = sim.run()
    assert 0.5 * 80 <= result.metrics.mean_population <= 1.3 * 80


def test_deterministic_same_seed(shared_infra):
    topo, oracle = shared_infra
    results = []
    for _ in range(2):
        sim = ChurnSimulation(
            small_sim_config(seed=77), PROTOCOLS["rost"], topology=topo, oracle=oracle
        )
        results.append(sim.run())
    a, b = results
    assert a.metrics.disruption_events == b.metrics.disruption_events
    assert a.metrics.node_seconds == pytest.approx(b.metrics.node_seconds)
    assert a.extras["switches"] == b.extras["switches"]


def test_different_seeds_differ(shared_infra):
    topo, oracle = shared_infra
    a = ChurnSimulation(
        small_sim_config(seed=1), PROTOCOLS["min-depth"], topology=topo, oracle=oracle
    ).run()
    b = ChurnSimulation(
        small_sim_config(seed=2), PROTOCOLS["min-depth"], topology=topo, oracle=oracle
    ).run()
    assert a.metrics.node_seconds != pytest.approx(b.metrics.node_seconds)


def test_single_run_per_instance(shared_infra):
    topo, oracle = shared_infra
    sim = ChurnSimulation(
        small_sim_config(), PROTOCOLS["min-depth"], topology=topo, oracle=oracle
    )
    sim.run()
    with pytest.raises(SimulationError):
        sim.run()


def test_probe_series_recorded(shared_infra):
    topo, oracle = shared_infra
    cfg = small_sim_config(population=60, seed=5)
    probe = make_probe_session(
        arrival_s=cfg.warmup_s,
        lifetime_s=cfg.measure_s,
        bandwidth=2.0,
        underlay_node=topo.stub_nodes[0],
    )
    sim = ChurnSimulation(
        cfg, PROTOCOLS["min-depth"], topology=topo, oracle=oracle, probe=probe,
        probe_sample_interval_s=30.0,
    )
    result = sim.run()
    assert result.probe_disruptions is not None
    assert len(result.probe_disruptions) >= 1  # the initial zero point
    assert result.probe_delay_ms is not None
    assert len(result.probe_delay_ms) > 3
    assert all(v > 0 for v in result.probe_delay_ms.values)


def test_disruption_observer_sees_prefailure_state(shared_infra):
    topo, oracle = shared_infra
    observed = []

    def observer(event):
        # the failed member must still be wired into the tree
        observed.append((event.failed.attached, len(event.failed.children)))
        assert event.cause == "churn"
        assert event.subtree_size == 1 + len(event.failed.descendants())

    sim = ChurnSimulation(
        small_sim_config(population=80, seed=11),
        PROTOCOLS["min-depth"],
        topology=topo,
        oracle=oracle,
        listeners=[SimpleNamespace(on_disruption=observer)],
    )
    sim.run()
    assert observed, "expected at least one attached failure"
    assert all(attached for attached, _ in observed)


def test_departure_observer_called_for_each_departure(shared_infra):
    topo, oracle = shared_infra
    departed = []
    sim = ChurnSimulation(
        small_sim_config(population=40, seed=11),
        PROTOCOLS["min-depth"],
        topology=topo,
        oracle=oracle,
        listeners=[
            SimpleNamespace(
                on_departure=lambda now, node: departed.append(node.member_id)
            )
        ],
    )
    result = sim.run()
    assert len(departed) > 0
    assert len(set(departed)) == len(departed)


def test_metrics_sanity_ranges(shared_infra):
    topo, oracle = shared_infra
    sim = ChurnSimulation(
        small_sim_config(population=80, seed=3),
        PROTOCOLS["rost"],
        topology=topo,
        oracle=oracle,
    )
    result = sim.run()
    m = result.metrics
    assert m.avg_service_delay_ms > 0
    assert m.avg_stretch >= 1.0
    assert m.avg_disruptions_per_node >= 0.0
    assert result.messages.total > 0
