"""Shared fixtures: tiny topologies/configs reused across the suite.

Building a transit-stub underlay plus its delay oracle dominates test
setup cost, so session-scoped fixtures build one small instance that any
test may share read-only.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # hypothesis is an optional test dependency
    pass
else:
    # Select with HYPOTHESIS_PROFILE=ci|dev|thorough (default: dev).  The
    # "ci" profile is derandomized so a fuzz-smoke job cannot flake; run
    # "thorough" locally before touching protocol or kernel code.
    settings.register_profile("dev", max_examples=20, deadline=None)
    settings.register_profile(
        "ci", max_examples=25, derandomize=True, deadline=None
    )
    settings.register_profile("thorough", max_examples=300, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

from repro.config import (
    ProtocolConfig,
    SimulationConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.topology.routing import DelayOracle
from repro.topology.transit_stub import generate_transit_stub


TINY_TOPOLOGY = TopologyConfig(
    transit_domains=2,
    transit_nodes_per_domain=3,
    stub_domains_per_transit=2,
    stub_nodes_per_domain=4,
    seed=11,
)


@pytest.fixture(scope="session")
def tiny_topology():
    """A 54-node transit-stub underlay (6 transit + 48 stub)."""
    return generate_transit_stub(TINY_TOPOLOGY)


@pytest.fixture(scope="session")
def tiny_oracle(tiny_topology):
    return DelayOracle(tiny_topology)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def small_sim_config(
    population: int = 60,
    seed: int = 5,
    warmup_lifetimes: float = 0.5,
    measure_lifetimes: float = 0.5,
    **protocol_overrides,
) -> SimulationConfig:
    """A simulation config small enough for sub-second end-to-end runs."""
    protocol = ProtocolConfig(**protocol_overrides) if protocol_overrides else ProtocolConfig()
    cfg = SimulationConfig(
        topology=TINY_TOPOLOGY,
        workload=WorkloadConfig(target_population=population),
        protocol=protocol,
        warmup_lifetimes=warmup_lifetimes,
        measure_lifetimes=measure_lifetimes,
    )
    return cfg.with_seed(seed)


@pytest.fixture()
def sim_config():
    return small_sim_config()


def make_node(member_id, bandwidth=2.0, cap=None, join_time=0.0, underlay=0, is_root=False):
    """Concise OverlayNode factory for structural tests."""
    from repro.overlay.node import OverlayNode

    if cap is None:
        cap = int(bandwidth)
    return OverlayNode(
        member_id=member_id,
        underlay_node=underlay,
        bandwidth=bandwidth,
        out_degree_cap=cap,
        join_time=join_time,
        is_root=is_root,
    )


@pytest.fixture()
def node_factory():
    return make_node


def repair_end_approx(simulated):
    """``pytest.approx`` of a packet-simulated ``repair_end_s``, at the
    tolerance the closed-form model must meet.

    The packet simulator reaches each group-repair arrival through
    chained ``1 / rate`` steps: at most ``gap`` additions, each rounding
    by up to 2**-53 of the running time.  The closed form rounds
    ``start + order / rate`` twice.  So the models may drift apart by
    about (gap + 2) * 2**-53 <= (gap + 1) * 2**-52 relative, which only
    exceeds abs=1e-6 past about 1e7 s.  Backfill adds no drift: both
    models end it at ``start_s + count / rate_pps``, the same two
    roundings.
    """
    rel = (simulated.gap_packets + 1) * 2.0**-52
    return pytest.approx(simulated.repair_end_s, rel=rel, abs=1e-6)
