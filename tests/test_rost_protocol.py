"""ROST switching, promotion, succession and guards."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import ProtocolConfig
from repro.invariants import check_tree
from repro.protocols.rost import RostProtocol
from tests.protocol_harness import Harness


@pytest.fixture()
def harness(tiny_topology, tiny_oracle):
    return Harness(
        tiny_topology,
        tiny_oracle,
        protocol_config=ProtocolConfig(switch_interval_s=100.0),
        root_cap=2,
    )


def build_chain(harness, proto):
    """root -> a (bw 2, old) -> b (bw 3, younger): b will out-BTP a."""
    a = harness.new_member(bandwidth=2.0, join_time=0.0)
    b = harness.new_member(bandwidth=3.0, join_time=0.0)
    assert proto.place(a, rejoin=False)
    # force b under a regardless of sampling
    harness.tree.attach(b, a)
    if b.member_id not in proto._switch_processes:
        proto._start_switching(b)
        if proto.referees is not None:
            proto.referees.register(b, harness.sim.now)
    return a, b


class TestSwitching:
    def test_higher_btp_child_swaps_with_parent(self, harness):
        proto = RostProtocol(harness.ctx, promote_into_spare=False)
        a, b = build_chain(harness, proto)
        # b's BTP (3t) exceeds a's (2t) immediately for t > 0 and bw guard holds
        harness.sim.run_until(500.0)
        assert b.parent is harness.tree.root
        assert a.parent is b
        assert proto.switches >= 1
        check_tree(harness.tree)

    def test_bandwidth_guard_blocks_small_bw(self, harness):
        proto = RostProtocol(harness.ctx, promote_into_spare=False)
        # a young with bw 5; b older with bw 2: b's BTP wins but guard blocks
        a = harness.new_member(bandwidth=5.0, join_time=0.0)
        assert proto.place(a, rejoin=False)
        harness.sim.run_until(200.0)
        b = harness.new_member(bandwidth=2.0, join_time=-1000.0)
        harness.tree.attach(b, a)
        proto._start_switching(b)
        if proto.referees is not None:
            proto.referees.register(b, harness.sim.now)
        harness.sim.run_until(1000.0)
        assert b.parent is a  # still below: guard held

    def test_guard_ablation_allows_swap(self, harness):
        proto = RostProtocol(
            harness.ctx, bandwidth_guard=False, promote_into_spare=False
        )
        a = harness.new_member(bandwidth=5.0, cap=5, join_time=0.0)
        assert proto.place(a, rejoin=False)
        harness.sim.run_until(200.0)
        b = harness.new_member(bandwidth=2.0, cap=2, join_time=-10000.0)
        harness.tree.attach(b, a)
        proto._start_switching(b)
        if proto.referees is not None:
            proto.referees.register(b, harness.sim.now)
        harness.sim.run_until(1000.0)
        assert b.parent is harness.tree.root
        assert a.parent is b
        check_tree(harness.tree)

    def test_overhead_counted_per_affected_member(self, harness):
        counts = []
        proto = RostProtocol(harness.ctx, promote_into_spare=False)
        harness.sim.subscribe(SimpleNamespace(on_overhead=counts.append))
        a, b = build_chain(harness, proto)
        harness.sim.run_until(500.0)
        # a swap touches at least the two principals
        assert sum(counts) >= 2
        assert a.optimization_reconnections >= 1
        assert b.optimization_reconnections >= 1

    def test_lock_blocks_and_retries(self, harness):
        proto = RostProtocol(harness.ctx, promote_into_spare=False)
        a, b = build_chain(harness, proto)
        # lock the parent across the first few switch rounds
        a.lock(until=250.0)
        harness.sim.run_until(220.0)
        assert b.parent is a
        assert proto.lock_failures >= 1
        harness.sim.run_until(800.0)  # retry succeeds after the lock expires
        assert b.parent is harness.tree.root

    def test_never_swaps_with_root(self, harness):
        proto = RostProtocol(harness.ctx)
        a = harness.new_member(bandwidth=5.0, join_time=0.0)
        assert proto.place(a, rejoin=False)
        harness.sim.run_until(1000.0)
        assert a.parent is harness.tree.root
        assert proto.switches == 0


class TestPromotion:
    def test_promotes_into_grandparent_spare(self, harness):
        proto = RostProtocol(harness.ctx)
        a = harness.new_member(bandwidth=2.0, join_time=0.0)
        assert proto.place(a, rejoin=False)
        # root has a second spare slot; b under a with a large BTP
        b = harness.new_member(bandwidth=3.0, join_time=-500.0)
        harness.tree.attach(b, a)
        proto._start_switching(b)
        if proto.referees is not None:
            proto.referees.register(b, harness.sim.now)
        harness.sim.run_until(300.0)
        assert b.parent is harness.tree.root
        assert a.parent is harness.tree.root  # nobody was demoted
        assert proto.promotions >= 1
        check_tree(harness.tree)

    def test_free_riders_never_promote(self, harness):
        proto = RostProtocol(harness.ctx)
        a = harness.new_member(bandwidth=2.0, join_time=0.0)
        assert proto.place(a, rejoin=False)
        rider = harness.new_member(bandwidth=0.6, cap=0, join_time=-100000.0)
        harness.tree.attach(rider, a)
        proto._start_switching(rider)
        if proto.referees is not None:
            proto.referees.register(rider, harness.sim.now)
        harness.sim.run_until(1000.0)
        assert rider.parent is a
        assert proto.promotions == 0


class TestSuccession:
    def test_orphan_takes_grandparent_slot(self, harness):
        proto = RostProtocol(harness.ctx)
        a = harness.new_member(bandwidth=2.0, join_time=0.0)
        assert proto.place(a, rejoin=False)
        b = harness.new_member(bandwidth=2.0, join_time=0.0)
        harness.tree.attach(b, a)
        orphans = harness.depart(a)
        assert orphans == [b]
        b.rejoin_hint = harness.tree.root
        assert proto.place(b, rejoin=True)
        assert b.parent is harness.tree.root

    def test_free_rider_orphan_falls_back(self, harness):
        proto = RostProtocol(harness.ctx)
        a = harness.new_member(bandwidth=2.0, join_time=0.0)
        other = harness.new_member(bandwidth=2.0, join_time=0.0)
        assert proto.place(a, rejoin=False)
        assert proto.place(other, rejoin=False)
        rider = harness.new_member(bandwidth=0.5, cap=0)
        harness.tree.attach(rider, a)
        harness.depart(a)
        rider.rejoin_hint = harness.tree.root
        assert proto.place(rider, rejoin=True)
        # succession refused (cannot forward); attached via normal join
        assert rider.parent is not harness.tree.root or rider.attached

    def test_stale_hint_ignored(self, harness):
        proto = RostProtocol(harness.ctx)
        a = harness.new_member(bandwidth=2.0)
        b = harness.new_member(bandwidth=2.0)
        c = harness.new_member(bandwidth=2.0)
        assert proto.place(a, rejoin=False)
        harness.tree.attach(b, a)
        harness.tree.attach(c, b)
        orphans = harness.depart(b)
        assert orphans == [c]
        harness.depart(a)  # the hinted grandparent departs too
        c.rejoin_hint = a
        assert proto.place(c, rejoin=True)
        assert c.attached
        assert c.parent is not a


class TestLifecycle:
    def test_departure_stops_switch_process(self, harness):
        proto = RostProtocol(harness.ctx)
        a = harness.new_member(bandwidth=2.0)
        assert proto.place(a, rejoin=False)
        assert a.member_id in proto._switch_processes
        proto.on_departure(a)
        assert a.member_id not in proto._switch_processes

    def test_rejoin_does_not_duplicate_processes(self, harness):
        proto = RostProtocol(harness.ctx)
        a = harness.new_member(bandwidth=2.0)
        assert proto.place(a, rejoin=False)
        harness.tree.detach(a)
        assert proto.place(a, rejoin=True)
        assert len([p for p in proto._switch_processes if p == a.member_id]) == 1


def test_switching_phase_draw_matches_uniform(harness):
    """``interval * random()`` is the double ``uniform(0.0, interval)``
    returns, from the same generator step."""
    proto = RostProtocol(harness.ctx)
    interval = harness.ctx.config.switch_interval_s
    reference = np.random.default_rng()
    reference.bit_generator.state = harness.ctx.rng.bit_generator.state
    harness.sim.run_until(37.5)
    for _ in range(64):
        node = harness.new_member(bandwidth=2.0)
        proto._start_switching(node)
        phase = float(reference.uniform(0.0, interval))
        assert proto._switch_processes[node.member_id]._epoch == 37.5 + phase
        assert harness.ctx.rng.bit_generator.state == reference.bit_generator.state
    for interval in (0.1, 1.0, 30.0, 1e9):
        for _ in range(256):
            expected = float(reference.uniform(0.0, interval))
            assert interval * harness.ctx.rng.random() == expected
        assert harness.ctx.rng.bit_generator.state == reference.bit_generator.state
