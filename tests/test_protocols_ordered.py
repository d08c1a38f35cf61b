"""Centralized relaxed bandwidth-/time-ordered protocols."""

from types import SimpleNamespace

import pytest

from repro.invariants import check_tree
from repro.protocols.relaxed_bo import RelaxedBandwidthOrderedProtocol
from repro.protocols.relaxed_to import RelaxedTimeOrderedProtocol
from tests.protocol_harness import Harness


@pytest.fixture()
def harness(tiny_topology, tiny_oracle):
    return Harness(tiny_topology, tiny_oracle, root_cap=2)


class TestRelaxedBandwidthOrdered:
    def test_fresh_join_uses_global_spare(self, harness):
        proto = RelaxedBandwidthOrderedProtocol(harness.ctx)
        node = harness.new_member(bandwidth=1.0)
        assert proto.place(node, rejoin=False)
        assert node.parent is harness.tree.root

    def test_high_bw_joiner_evicts_smaller(self, harness):
        proto = RelaxedBandwidthOrderedProtocol(harness.ctx)
        weak_a = harness.new_member(bandwidth=1.0)
        weak_b = harness.new_member(bandwidth=1.2)
        assert proto.place(weak_a, rejoin=False)
        assert proto.place(weak_b, rejoin=False)
        assert weak_a.layer == weak_b.layer == 1  # root full now
        strong = harness.new_member(bandwidth=9.0)
        assert proto.place(strong, rejoin=False)
        # the stronger member took a layer-1 slot; a weaker one was displaced
        assert strong.layer == 1
        displaced = [n for n in (weak_a, weak_b) if not n.attached]
        assert len(displaced) == 1
        assert displaced[0].optimization_reconnections == 1
        # the displaced member re-places itself after the rejoin delay
        harness.sim.run_until(60.0)
        assert displaced[0].attached

    def test_eviction_adopts_children(self, harness):
        proto = RelaxedBandwidthOrderedProtocol(harness.ctx)
        weak = harness.new_member(bandwidth=2.0)
        filler = harness.new_member(bandwidth=8.0)
        assert proto.place(weak, rejoin=False)
        assert proto.place(filler, rejoin=False)
        child = harness.new_member(bandwidth=0.5, cap=0)
        assert proto.place(child, rejoin=False)
        assert child.parent is weak
        strong = harness.new_member(bandwidth=9.0)
        assert proto.place(strong, rejoin=False)
        assert strong.layer == 1
        # weak was evicted; its child is adopted by strong immediately
        assert child.parent is strong
        assert child.attached

    def test_no_eviction_when_free_slot_higher(self, harness):
        proto = RelaxedBandwidthOrderedProtocol(harness.ctx)
        weak = harness.new_member(bandwidth=1.0)
        assert proto.place(weak, rejoin=False)
        strong = harness.new_member(bandwidth=9.0)
        assert proto.place(strong, rejoin=False)
        # root still had a spare slot at the same layer: no eviction
        assert weak.attached
        assert strong.parent is harness.tree.root

    def test_overhead_callback_routed(self, harness):
        counted = []
        proto = RelaxedBandwidthOrderedProtocol(harness.ctx)
        harness.sim.subscribe(SimpleNamespace(on_overhead=counted.append))
        a = harness.new_member(bandwidth=1.0)
        b = harness.new_member(bandwidth=1.5)
        strong = harness.new_member(bandwidth=9.0)
        proto.place(a, rejoin=False)
        proto.place(b, rejoin=False)
        proto.place(strong, rejoin=False)
        assert sum(counted) >= 1


class TestRelaxedTimeOrdered:
    def test_fresh_members_never_evict(self, harness):
        proto = RelaxedTimeOrderedProtocol(harness.ctx)
        harness.sim.run_until(50.0)
        a = harness.new_member(join_time=50.0)
        b = harness.new_member(join_time=50.0)
        assert proto.place(a, rejoin=False)
        assert proto.place(b, rejoin=False)
        harness.sim.run_until(100.0)
        fresh = harness.new_member(join_time=100.0)
        assert proto.place(fresh, rejoin=False)
        assert a.attached and b.attached
        assert fresh.layer == 2

    def test_older_rejoiner_evicts_youngest(self, harness):
        proto = RelaxedTimeOrderedProtocol(harness.ctx)
        young_a = harness.new_member(join_time=80.0, bandwidth=2.0)
        young_b = harness.new_member(join_time=90.0, bandwidth=2.0)
        harness.sim.run_until(100.0)
        assert proto.place(young_a, rejoin=False)
        assert proto.place(young_b, rejoin=False)
        assert young_a.layer == young_b.layer == 1
        elder = harness.new_member(join_time=0.0, bandwidth=2.0)
        assert proto.place(elder, rejoin=True)
        assert elder.layer == 1
        # the *youngest* layer-1 member is the one displaced
        assert not young_b.attached
        assert young_a.attached

    def test_cascade_settles_via_clock(self, harness):
        proto = RelaxedTimeOrderedProtocol(harness.ctx)
        members = []
        harness.sim.run_until(100.0)
        for i, jt in enumerate([60.0, 70.0, 80.0, 90.0]):
            node = harness.new_member(join_time=jt, bandwidth=2.0)
            members.append(node)
            assert proto.place(node, rejoin=False)
        elder = harness.new_member(join_time=0.0, bandwidth=2.0)
        assert proto.place(elder, rejoin=True)
        harness.sim.run_until(200.0)
        # everybody ends up attached somewhere
        assert all(m.attached for m in members)
        assert elder.attached
        check_tree(harness.tree)
