"""Membership service sampling properties."""

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.overlay.membership import MembershipService
from tests.conftest import make_node


@pytest.fixture()
def service(rng):
    return MembershipService(rng)


def register_many(service, count, attached=True):
    nodes = []
    for i in range(count):
        node = make_node(i + 1)
        node.attached = attached
        service.register(node)
        nodes.append(node)
    return nodes


def test_register_unregister_roundtrip(service):
    node = make_node(1)
    service.register(node)
    assert node in service and len(service) == 1
    service.unregister(node)
    assert node not in service and len(service) == 0


def test_duplicate_registration_rejected(service):
    node = make_node(1)
    service.register(node)
    with pytest.raises(ProtocolError):
        service.register(node)


def test_unknown_unregister_rejected(service):
    with pytest.raises(ProtocolError):
        service.unregister(make_node(1))


def test_sample_distinct_members(service):
    register_many(service, 50)
    picked = service.sample(20)
    assert len(picked) == 20
    assert len({n.member_id for n in picked}) == 20


def test_sample_whole_population_when_small(service):
    nodes = register_many(service, 5)
    assert set(service.sample(50)) == set(nodes)


def test_sample_excludes(service):
    nodes = register_many(service, 10)
    picked = service.sample(10, exclude=[nodes[0], nodes[1]])
    ids = {n.member_id for n in picked}
    assert nodes[0].member_id not in ids
    assert nodes[1].member_id not in ids


def test_attached_only_filter(service):
    attached = register_many(service, 10, attached=True)
    detached = make_node(99)
    detached.attached = False
    service.register(detached)
    picked = service.sample(11)
    assert detached not in picked
    picked_all = service.sample(11, attached_only=False)
    assert len(picked_all) == 11


def test_sample_zero_and_empty(service):
    assert service.sample(0) == []
    assert service.sample(5) == []  # empty population
    assert service.random_member() is None


def test_negative_sample_rejected(service):
    with pytest.raises(ProtocolError):
        service.sample(-1)


def test_sampling_is_roughly_uniform(rng):
    service = MembershipService(rng)
    nodes = register_many(service, 100)
    counts = {n.member_id: 0 for n in nodes}
    for _ in range(2000):
        for node in service.sample(5):
            counts[node.member_id] += 1
    values = np.array(list(counts.values()))
    # each member expects 100 hits; a uniform sampler stays well within 3x
    assert values.min() > 30
    assert values.max() < 300


def test_unregister_swap_pop_keeps_index_consistent(service):
    nodes = register_many(service, 10)
    service.unregister(nodes[0])  # forces swap with the last element
    remaining = service.sample(9)
    assert nodes[0] not in remaining
    assert len(remaining) == 9


def reference_sample(nodes, rng, k, exclude=(), attached_only=True):
    """The scalar rejection loop ``MembershipService.sample`` replaced.

    One ``integers(0, population)`` call per attempt; the service must
    return the same members in the same order and leave the generator in
    the same state.
    """
    excluded = {n.member_id for n in exclude}

    def eligible(node):
        if node.member_id in excluded:
            return False
        return node.attached or not attached_only

    population = len(nodes)
    if population == 0 or k == 0:
        return []
    if k * 3 < population:
        picked = []
        seen = set()
        attempts = 0
        max_attempts = 8 * k + 32
        while len(picked) < k and attempts < max_attempts:
            attempts += 1
            node = nodes[int(rng.integers(0, population))]
            if node.member_id in seen:
                continue
            seen.add(node.member_id)
            if eligible(node):
                picked.append(node)
        if len(picked) == k:
            return picked
    candidates = [n for n in nodes if eligible(n)]
    if len(candidates) <= k:
        return candidates
    indices = rng.choice(len(candidates), size=k, replace=False)
    return [candidates[int(i)] for i in indices]


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # hypothesis is an optional test dependency

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_sample_matches_scalar_reference():
        pass

else:

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        k=st.sampled_from((1, 2, 3, 16, 100)),
        seed=st.integers(0, 2**32 - 1),
        # Up to all-detached, so the rejection loop also runs out of
        # attempts and falls back to the filtered pass.
        detached_permille=st.sampled_from((0, 100, 500, 900, 990, 1000)),
        attached_only=st.booleans(),
        pending_half=st.booleans(),
    )
    def test_sample_matches_scalar_reference(
        data, k, seed, detached_permille, attached_only, pending_half
    ):
        # Populations on both sides of the rejection threshold 3k.
        population = data.draw(st.integers(0, 4 * k + 8), label="population")
        layout = np.random.default_rng(seed ^ 0x5A5A)
        nodes = [make_node(i + 1) for i in range(population)]
        for node in nodes:
            node.attached = bool(layout.integers(0, 1000) >= detached_permille)

        service = MembershipService(np.random.default_rng(seed))
        for node in nodes:
            service.register(node)
        # Swap-pop removals reorder the registry, and ``exclude`` may name
        # members that are no longer registered.
        for node in nodes:
            if layout.integers(0, 6) == 0:
                service.unregister(node)
        excluded = [n for n in nodes if layout.integers(0, 8) == 0]
        registry = list(service._nodes)
        reference_rng = np.random.default_rng(seed)
        if pending_half:
            # One earlier 32-bit draw leaves half a raw output buffered.
            service._rng.integers(0, 1000)
            reference_rng.integers(0, 1000)
        for _ in range(2):
            got = service.sample(k, exclude=excluded, attached_only=attached_only)
            want = reference_sample(
                registry,
                reference_rng,
                k,
                exclude=excluded,
                attached_only=attached_only,
            )
            assert [n.member_id for n in got] == [n.member_id for n in want]
            assert (
                service._rng.bit_generator.state
                == reference_rng.bit_generator.state
            )
