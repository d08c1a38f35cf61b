"""The two-tier topology/oracle cache: fidelity, LRU behavior, disk tier."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.config import TopologyConfig
from repro.topology.cache import (
    ENV_CACHE_DIR,
    TopologyCache,
    topology_cache_key,
)
from repro.topology.routing import DelayOracle
from repro.topology.transit_stub import generate_transit_stub

SMALL = TopologyConfig(
    transit_domains=2,
    transit_nodes_per_domain=3,
    stub_domains_per_transit=2,
    stub_nodes_per_domain=5,
    seed=9,
)


def _assert_identical(topo_a, oracle_a, topo_b, oracle_b):
    assert topo_a.num_nodes == topo_b.num_nodes
    assert topo_a.transit_nodes == topo_b.transit_nodes
    assert len(topo_a.stub_domains) == len(topo_b.stub_domains)
    for da, db in zip(topo_a.stub_domains, topo_b.stub_domains):
        assert da == db
    assert np.array_equal(topo_a.node_domain, topo_b.node_domain)
    # adjacency (including neighbor order) must round-trip exactly
    for node in range(topo_a.num_nodes):
        assert list(topo_a.graph.neighbors(node)) == list(topo_b.graph.neighbors(node))
    rng = np.random.default_rng(1)
    pairs = rng.integers(0, topo_a.num_nodes, size=(200, 2))
    for u, v in pairs:
        assert oracle_a.delay_ms(int(u), int(v)) == oracle_b.delay_ms(int(u), int(v))


def test_key_is_content_addressed():
    assert topology_cache_key(SMALL) == topology_cache_key(SMALL)
    other = TopologyConfig(
        transit_domains=2,
        transit_nodes_per_domain=3,
        stub_domains_per_transit=2,
        stub_nodes_per_domain=5,
        seed=10,
    )
    assert topology_cache_key(SMALL) != topology_cache_key(other)


def test_memory_tier_returns_same_objects():
    cache = TopologyCache(memory_slots=2, disk_dir=None)
    topo1, oracle1 = cache.get(SMALL)
    topo2, oracle2 = cache.get(SMALL)
    assert topo1 is topo2 and oracle1 is oracle2
    assert cache.memory_hits == 1 and cache.misses == 1


def test_memory_lru_evicts_oldest():
    cache = TopologyCache(memory_slots=1, disk_dir=None)
    first = cache.get(SMALL)
    other = TopologyConfig(
        transit_domains=2,
        transit_nodes_per_domain=3,
        stub_domains_per_transit=2,
        stub_nodes_per_domain=5,
        seed=10,
    )
    cache.get(other)
    again = cache.get(SMALL)  # evicted, regenerated
    assert again[0] is not first[0]
    assert cache.misses == 3


def test_disk_tier_roundtrip_is_bit_identical(tmp_path):
    writer = TopologyCache(memory_slots=2, disk_dir=str(tmp_path))
    topo_fresh, oracle_fresh = writer.get(SMALL)
    entries = list(tmp_path.glob("topology-*.npz"))
    assert len(entries) == 1

    reader = TopologyCache(memory_slots=2, disk_dir=str(tmp_path))
    topo_disk, oracle_disk = reader.get(SMALL)
    assert reader.disk_hits == 1 and reader.misses == 0
    assert topo_disk is not topo_fresh
    _assert_identical(topo_fresh, oracle_fresh, topo_disk, oracle_disk)


def test_disk_entry_matches_fresh_generation(tmp_path):
    cache = TopologyCache(memory_slots=1, disk_dir=str(tmp_path))
    topo_cached, oracle_cached = cache.get(SMALL)
    topo_fresh = generate_transit_stub(SMALL)
    oracle_fresh = DelayOracle(topo_fresh)
    _assert_identical(topo_fresh, oracle_fresh, topo_cached, oracle_cached)


def test_corrupt_disk_entry_is_regenerated(tmp_path):
    cache = TopologyCache(memory_slots=1, disk_dir=str(tmp_path))
    cache.get(SMALL)
    (entry,) = tmp_path.glob("topology-*.npz")
    entry.write_bytes(b"not an npz file")

    fresh = TopologyCache(memory_slots=1, disk_dir=str(tmp_path))
    topo, oracle = fresh.get(SMALL)
    assert fresh.misses == 1
    topo_ref = generate_transit_stub(SMALL)
    _assert_identical(topo_ref, DelayOracle(topo_ref), topo, oracle)
    # the corrupt entry was replaced by a valid one
    assert list(tmp_path.glob("topology-*.npz"))


def test_env_var_enables_disk_tier(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
    cache = TopologyCache(memory_slots=1)
    assert cache.disk_dir == str(tmp_path)
    cache.get(SMALL)
    assert list(tmp_path.glob("topology-*.npz"))
    monkeypatch.delenv(ENV_CACHE_DIR)
    assert cache.disk_dir is None


def test_readonly_cache_dir_is_tolerated(tmp_path):
    target = tmp_path / "ro"
    target.mkdir()
    os.chmod(target, 0o500)
    try:
        cache = TopologyCache(memory_slots=1, disk_dir=str(target))
        topo, oracle = cache.get(SMALL)  # must not raise
        assert topo.num_nodes == SMALL.total_nodes
    finally:
        os.chmod(target, 0o700)


def _get_after_barrier(disk_dir, barrier, results):
    cache = TopologyCache(memory_slots=1, disk_dir=disk_dir)
    barrier.wait()
    topology, oracle = cache.get(SMALL)
    matrices = oracle.to_matrices()
    results.put(
        {
            "misses": cache.misses,
            "disk_hits": cache.disk_hits,
            "node_domain": topology.node_domain.tolist(),
            "intra": matrices["intra"].tolist(),
            "core": matrices["core"].tolist(),
        }
    )


def test_concurrent_disk_misses_build_once(tmp_path):
    """Three processes missing one key at once (more than a 2-vCPU host
    has cores) build it once: the others wait on the entry's lock file,
    then load what the first stored."""
    context = multiprocessing.get_context("spawn")
    count = 3
    barrier = context.Barrier(count)
    results = context.Queue()
    workers = [
        context.Process(
            target=_get_after_barrier, args=(str(tmp_path), barrier, results)
        )
        for _ in range(count)
    ]
    for worker in workers:
        worker.start()
    got = [results.get(timeout=120) for _ in workers]
    for worker in workers:
        worker.join(timeout=120)
        assert worker.exitcode == 0
    assert sum(r["misses"] for r in got) == 1
    assert sum(r["disk_hits"] for r in got) == count - 1
    for other in got[1:]:
        for name in ("node_domain", "intra", "core"):
            assert other[name] == got[0][name]
    assert [p.name for p in tmp_path.iterdir()] == [
        f"topology-{topology_cache_key(SMALL)}.npz"
    ]


def test_shared_topology_uses_default_cache():
    from repro.experiments import common

    common.clear_caches()
    config = common.SweepSettings(scale=0.02, seed=3).config(2000)
    pair1 = common.shared_topology(config)
    pair2 = common.shared_topology(config)
    assert pair1[0] is pair2[0]
    common.clear_caches()


def test_truncated_disk_entry_falls_back_to_regeneration(tmp_path):
    """A half-written (truncated) .npz is a miss, not a crash."""
    cache = TopologyCache(memory_slots=1, disk_dir=str(tmp_path))
    cache.get(SMALL)
    (entry,) = tmp_path.glob("topology-*.npz")
    payload = entry.read_bytes()
    entry.write_bytes(payload[: len(payload) // 2])

    fresh = TopologyCache(memory_slots=1, disk_dir=str(tmp_path))
    topo, oracle = fresh.get(SMALL)
    assert fresh.misses == 1 and fresh.disk_hits == 0
    topo_ref = generate_transit_stub(SMALL)
    _assert_identical(topo_ref, DelayOracle(topo_ref), topo, oracle)


def test_empty_disk_entry_falls_back_to_regeneration(tmp_path):
    cache = TopologyCache(memory_slots=1, disk_dir=str(tmp_path))
    cache.get(SMALL)
    (entry,) = tmp_path.glob("topology-*.npz")
    entry.write_bytes(b"")

    fresh = TopologyCache(memory_slots=1, disk_dir=str(tmp_path))
    topo, _ = fresh.get(SMALL)
    assert fresh.misses == 1
    assert topo.num_nodes == SMALL.total_nodes


def test_corrupt_disk_entry_is_evicted_once(tmp_path):
    """Load failure evicts the bad file; the regenerated entry then hits."""
    cache = TopologyCache(memory_slots=1, disk_dir=str(tmp_path))
    cache.get(SMALL)
    (entry,) = tmp_path.glob("topology-*.npz")
    good = entry.read_bytes()
    entry.write_bytes(good[: len(good) // 3])

    fresh = TopologyCache(memory_slots=1, disk_dir=str(tmp_path))
    fresh.get(SMALL)
    assert fresh.misses == 1
    # the eviction replaced the truncated file with a valid entry...
    (entry,) = tmp_path.glob("topology-*.npz")
    assert len(entry.read_bytes()) == len(good)
    # ...which a third process-equivalent loads as a plain disk hit
    third = TopologyCache(memory_slots=1, disk_dir=str(tmp_path))
    third.get(SMALL)
    assert third.disk_hits == 1 and third.misses == 0


def test_truncated_entry_missing_oracle_arrays_is_evicted(tmp_path):
    """An .npz that parses but lacks the oracle matrices is also a miss."""
    import numpy as _np

    cache = TopologyCache(memory_slots=1, disk_dir=str(tmp_path))
    cache.get(SMALL)
    (entry,) = tmp_path.glob("topology-*.npz")
    with _np.load(entry) as data:
        arrays = {k: data[k] for k in data.files if not k.startswith("oracle_")}
    with open(entry, "wb") as handle:
        _np.savez(handle, **arrays)

    fresh = TopologyCache(memory_slots=1, disk_dir=str(tmp_path))
    topo, oracle = fresh.get(SMALL)
    assert fresh.misses == 1
    topo_ref = generate_transit_stub(SMALL)
    _assert_identical(topo_ref, DelayOracle(topo_ref), topo, oracle)
