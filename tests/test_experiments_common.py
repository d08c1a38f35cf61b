"""Experiment infrastructure: settings, caches, factories."""

import pytest

from repro.experiments import common
from repro.experiments.common import (
    SweepSettings,
    default_probe,
    protocol_factory,
    shared_topology,
    shared_workload,
)
from repro.experiments.units import ChurnUnit, run_unit
from repro.protocols.rost import RostProtocol


@pytest.fixture(autouse=True)
def fresh_caches():
    common.clear_caches()
    yield
    common.clear_caches()


TINY = SweepSettings(scale=0.02, seed=3)


def test_settings_build_scaled_configs():
    config = TINY.config(2000)
    assert config.workload.target_population == 40
    assert config.topology.total_nodes < 15600


def test_shared_topology_cached():
    config = TINY.config(2000)
    first = shared_topology(config)
    second = shared_topology(config)
    assert first[0] is second[0]
    assert first[1] is second[1]


def test_shared_workload_cached_and_probe_keyed():
    config = TINY.config(2000)
    base1 = shared_workload(config)
    base2 = shared_workload(config)
    assert base1 is base2
    probe = default_probe(TINY, 2000)
    probed = shared_workload(config, probe=probe)
    assert probed is not base1
    assert any(s.member_id == probe.member_id for s in probed.sessions)


def test_shared_workload_keyed_by_topology():
    # scale 0.02 x size 5000 and scale 0.05 x size 2000 coincide on every
    # workload field (100 members, same derived seed) but their underlays
    # differ — the cache must not hand one's attach nodes to the other.
    small = SweepSettings(scale=0.02, seed=3).config(5000)
    large = SweepSettings(scale=0.05, seed=3).config(2000)
    assert small.workload == large.workload
    assert small.topology != large.topology
    w_small = shared_workload(small)
    w_large = shared_workload(large)
    assert w_small is not w_large
    stub_ids = set(shared_topology(large)[0].stub_nodes)
    assert all(s.underlay_node in stub_ids for s in w_large.sessions)


def test_churn_run_cached_by_full_key():
    a = run_unit(ChurnUnit("min-depth", 2000, TINY))
    b = run_unit(ChurnUnit("min-depth", 2000, TINY))
    assert a is b
    c = run_unit(ChurnUnit("min-depth", 2000, TINY, switch_interval_s=480.0))
    assert c is not a


def test_protocol_factory_plain():
    from repro.protocols import PROTOCOLS

    assert protocol_factory("min-depth") is PROTOCOLS["min-depth"]


def test_protocol_factory_rost_flags(tiny_topology, tiny_oracle):
    from tests.protocol_harness import Harness

    factory = protocol_factory("rost", bandwidth_guard=False)
    harness = Harness(tiny_topology, tiny_oracle)
    proto = factory(harness.ctx)
    assert isinstance(proto, RostProtocol)
    assert proto.bandwidth_guard is False


def test_protocol_factory_rejects_flags_on_baselines():
    with pytest.raises(ValueError):
        protocol_factory("min-depth", bandwidth_guard=False)


def test_rost_flag_runs_not_conflated_in_cache():
    default = run_unit(ChurnUnit("rost", 2000, TINY))
    ablated = run_unit(
        ChurnUnit("rost", 2000, TINY, rost_flags=(("promote_into_spare", False),))
    )
    assert default is not ablated
