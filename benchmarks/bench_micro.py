"""Micro-benchmarks of the library's hot paths.

These time the primitives the figure experiments spend their cycles in:
member sampling, delay-oracle queries, tree restructures, the join rule,
ROST's switch check, recovery-view construction, MLC group selection and
loss correlation, and the packet-level episode pricing.
The sampling, ``delays_from`` and group-correlation cases run at the
sizes the simulation issues, where scalar code beats a numpy call, plus
a longer list or query, so the per-call costs docs/performance.md quotes
can be re-measured.
"""

import numpy as np
import pytest

from repro.config import ProtocolConfig, TopologyConfig
from repro.invariants import check_tree
from repro.overlay.membership import MembershipService
from repro.overlay.node import OverlayNode
from repro.overlay.tree import MulticastTree
from repro.protocols.base import ProtocolContext
from repro.protocols.minimum_depth import MinimumDepthProtocol
from repro.protocols.rost import RostProtocol
from repro.recovery.episode import RepairSource, starvation_episode
from repro.recovery.mlc import (
    PartialTreeView,
    group_loss_correlation,
    select_mlc_group,
)
from repro.sim.engine import Simulator
from repro.topology.routing import DelayOracle
from repro.topology.transit_stub import generate_transit_stub


@pytest.fixture(scope="module")
def topo_oracle():
    cfg = TopologyConfig(
        transit_domains=4,
        transit_nodes_per_domain=6,
        stub_domains_per_transit=3,
        stub_nodes_per_domain=8,
        seed=5,
    )
    topo = generate_transit_stub(cfg)
    return topo, DelayOracle(topo)


def test_oracle_delay_queries(benchmark, topo_oracle):
    topo, oracle = topo_oracle
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, topo.num_nodes, size=(1000, 2))

    def query_block():
        total = 0.0
        for a, b in pairs:
            total += oracle.delay_ms(int(a), int(b))
        return total

    assert benchmark(query_block) > 0


@pytest.mark.parametrize("num_targets", (4, 64))
def test_oracle_delays_from(benchmark, topo_oracle, num_targets):
    """4 targets: a join tie-break or recovery group; 64: a long list
    such as a tree sample."""
    topo, oracle = topo_oracle
    rng = np.random.default_rng(num_targets)
    stubs = list(topo.stub_nodes)
    targets = [stubs[int(i)] for i in rng.integers(0, len(stubs), size=num_targets)]
    delays = benchmark(lambda: oracle.delays_from(stubs[0], targets))
    assert len(delays) == num_targets


@pytest.mark.parametrize(
    "k, population", ((1, 2000), (2, 2000), (100, 2000), (100, 200))
)
def test_membership_sample(benchmark, k, population):
    """k = 1, 2: referee picks; k = 100: a paper-scale join query.  At
    200 members (3k >= population) it is the filtered fallback that every
    join and view query of the benchmark workloads takes."""
    service = MembershipService(np.random.default_rng(3))
    members = []
    for member_id in range(population):
        node = OverlayNode(member_id, member_id, 2.0, 2, 0.0)
        node.attached = member_id % 10 != 0
        service.register(node)
        members.append(node)
    picked = benchmark(lambda: service.sample(k, exclude=[members[0]]))
    assert len(picked) == k


def test_topology_generation(benchmark):
    cfg = TopologyConfig(
        transit_domains=3,
        transit_nodes_per_domain=5,
        stub_domains_per_transit=2,
        stub_nodes_per_domain=8,
        seed=11,
    )
    topo = benchmark(lambda: generate_transit_stub(cfg))
    assert topo.num_nodes == cfg.total_nodes


def _build_tree(num_members=500):
    root = OverlayNode(0, 0, 100.0, 100, 0.0, is_root=True)
    tree = MulticastTree(root)
    rng = np.random.default_rng(1)
    for member_id in range(1, num_members + 1):
        node = OverlayNode(member_id, member_id, 3.0, 3, 0.0)
        tree.add_member(node)
        parents = [n for n in tree.attached_nodes() if n.spare_degree > 0]
        tree.attach(node, parents[int(rng.integers(0, len(parents)))])
    return tree


def test_tree_attach_detach_cycle(benchmark):
    tree = _build_tree(300)
    victims = [n for n in tree.attached_nodes() if not n.is_root and n.children][:20]

    def churn_cycle():
        for victim in victims:
            parent = victim.parent
            tree.detach(victim)
            tree.attach(victim, parent)

    benchmark(churn_cycle)
    check_tree(tree)


def _protocol_context(topo, oracle, root_cap):
    """A protocol context over an empty tree whose root has ``root_cap``
    child slots; every member added through ``add`` is registered for
    sampling and gets an underlay stub node round-robin."""
    sim = Simulator()
    stubs = list(topo.stub_nodes)
    root = OverlayNode(0, stubs[0], float(root_cap), root_cap, 0.0, is_root=True)
    tree = MulticastTree(root)
    membership = MembershipService(np.random.default_rng(6))
    membership.register(root)
    ctx = ProtocolContext(
        sim=sim,
        tree=tree,
        membership=membership,
        oracle=oracle,
        config=ProtocolConfig(),
        stream_rate=1.0,
        rng=np.random.default_rng(7),
    )

    def add(parent, bandwidth, cap, join_time=0.0):
        member_id = len(tree.members)
        node = OverlayNode(
            member_id, stubs[member_id % len(stubs)], bandwidth, cap, join_time
        )
        tree.add_member(node)
        membership.register(node)
        tree.attach(node, parent)
        return node

    return ctx, add


def test_select_min_depth(benchmark, topo_oracle):
    """One join decision over 100 candidates on layers 1-3: layer 1 is
    full, six layer-2 members have a spare slot, layer 3 is all leaves."""
    ctx, add = _protocol_context(*topo_oracle, root_cap=4)
    layer1 = [add(ctx.tree.root, 6.0, 6) for _ in range(4)]
    layer2 = [add(layer1[i % 4], 4.0, 4 if i < 18 else 2) for i in range(24)]
    layer3 = [add(layer2[i // 4], 2.0, 2) for i in range(72)]
    candidates = layer1 + layer2 + layer3
    np.random.default_rng(8).shuffle(candidates)
    joiner = OverlayNode(999, topo_oracle[0].stub_nodes[1], 2.0, 2, 0.0)
    proto = MinimumDepthProtocol(ctx)
    parent = benchmark(lambda: proto.select_min_depth(joiner, candidates))
    assert parent.layer == 2 and parent.spare_degree > 0


def test_rost_switch_check(benchmark, topo_oracle):
    """One ROST switch decision whose grandparent (the root) has 100
    children and a spare slot, so the promotion test values every uncle
    through the referees."""
    ctx, add = _protocol_context(*topo_oracle, root_cap=101)
    proto = RostProtocol(ctx)
    uncles = [add(ctx.tree.root, 2.0, 2, join_time=-float(i)) for i in range(100)]
    node = add(uncles[0], 3.0, 3, join_time=-50.0)
    for member in uncles + [node]:
        proto.referees.register(member, 0.0)
    ctx.sim.run_until(100.0)
    assert benchmark(lambda: proto._switch_action(node)) in ("swap", "promote")


def test_partial_view_from_members(benchmark):
    """One recovery view: 100 known members of a 400-node tree."""
    tree = _build_tree(400)
    rng = np.random.default_rng(4)
    attached = [n for n in tree.attached_nodes() if not n.is_root]
    known = [attached[int(i)] for i in rng.choice(len(attached), 100, replace=False)]
    view = benchmark(lambda: PartialTreeView.from_members(known))
    assert len(view) > 100


def test_mlc_group_selection(benchmark):
    tree = _build_tree(400)
    members = [n for n in tree.attached_nodes() if not n.is_root][:100]
    view = PartialTreeView.from_members(members)
    rng = np.random.default_rng(2)
    group = benchmark(lambda: select_mlc_group(view, 3, rng))
    assert 0 < len(group) <= 3


def test_group_loss_correlation(benchmark):
    tree = _build_tree(400)
    deep = sorted(tree.attached_nodes(), key=lambda n: -n.layer)
    group = deep[:3]
    assert benchmark(lambda: group_loss_correlation(group)) >= 0


def test_starvation_episode_pricing(benchmark):
    sources = [
        RepairSource(member_id=i, rate_pps=3.0, has_data=True, delay_ms=10.0 * i)
        for i in range(1, 5)
    ]
    outcome = benchmark(
        lambda: starvation_episode(
            gap_packets=150,
            packet_rate_pps=10.0,
            buffer_ahead_s=5.0,
            detect_s=0.5,
            request_hop_s=0.5,
            sources=sources,
            striped=True,
        )
    )
    assert outcome.gap_packets == 150


def test_event_queue_throughput(benchmark):
    def pump():
        sim = Simulator()
        counter = [0]

        def tick():
            counter[0] += 1
            if counter[0] < 5000:
                sim.schedule_in(1.0, tick)

        sim.schedule_in(1.0, tick)
        sim.run()
        return counter[0]

    assert benchmark(pump) == 5000


def test_event_queue_throughput_concurrent(benchmark):
    """Throughput with a deep heap — the shape real simulations have.

    Thousands of timers pending at once (per-member detection, switching
    and gossip timers) make heap sift comparisons the dominant cost, which
    a chain-shaped bench with a near-empty heap never exercises.
    """

    def pump(timers=1000, total=20000):
        sim = Simulator()
        fired = [0]

        def tick(i):
            fired[0] += 1
            if fired[0] < total:
                sim.schedule_in(1.0 + (i % 7) * 0.1, lambda: tick(i))

        for i in range(timers):
            sim.schedule_in(1.0 + (i % 7) * 0.1, lambda i=i: tick(i))
        sim.run()
        return fired[0]

    # When the cap is reached the 999 other timers still pending in the
    # heap drain (firing once each without rescheduling), so the total
    # fired count is total + timers - 1.
    assert benchmark(pump) == 20000 + 1000 - 1
