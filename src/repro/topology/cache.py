"""Two-tier cache for generated underlays and their delay oracles.

Every experiment run over the same topology parameters regenerates an
identical transit-stub underlay and repeats the Floyd-Warshall/Dijkstra
precompute of :class:`~repro.topology.routing.DelayOracle`.  At paper
scale that is seconds of pure recomputation per run — and a parallel
sweep multiplies it by the worker count.  This module makes the artefact
content-addressed instead:

* **memory tier** — an LRU of ``(topology, oracle)`` pairs keyed by a
  hash of the full :class:`~repro.config.TopologyConfig` (parameters and
  seed), so repeat runs inside one process pay nothing;
* **disk tier** (optional) — one ``.npz`` file per key holding the flat
  graph, the hierarchy metadata and the oracle's distance matrices, so
  *other* processes — pool workers, repeat CLI invocations — load the
  matrices instead of recomputing or repickling oracles.  Enabled by
  setting the ``REPRO_CACHE_DIR`` environment variable.  The experiment
  pool sets it for its workers, and this is how they share underlays:
  the first worker to need one builds and stores it, the others load it.
  A disk-tier miss builds under a lock file beside the entry
  (:class:`repro.fileio.FileLock`, removed once the entry is published)
  and reads the disk again once it holds the lock, so workers that miss
  the same key at once build it once.

Disk writes are atomic (:func:`repro.fileio.publish`: a fsynced temp
file, then ``os.replace``), so a killed run can never leave a truncated
cache entry; a corrupt or unreadable entry is treated as a miss and
regenerated.  Loaded artefacts are bit-identical to freshly generated
ones — the test suite locks this.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import os
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..config import TopologyConfig
from ..fileio import FileLock, publish
from .graph import Graph
from .routing import DelayOracle
from .transit_stub import StubDomain, TransitStubTopology, generate_transit_stub

#: Environment variable naming the on-disk cache directory (unset = no disk tier).
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
#: Default number of (topology, oracle) pairs kept in memory.
DEFAULT_MEMORY_SLOTS = 8
#: Bumped whenever the on-disk layout changes; stale files are ignored.
FORMAT_VERSION = 1
#: The lock file a disk-tier build holds sits beside its entry.
_LOCK_SUFFIX = ".lock"


def topology_cache_key(config: TopologyConfig) -> str:
    """Content key: a hash over every generator parameter plus the seed."""
    payload = repr(
        (FORMAT_VERSION, sorted(dataclasses.asdict(config).items()))
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:24]


def _topology_to_arrays(topology: TransitStubTopology) -> Dict[str, np.ndarray]:
    domains = topology.stub_domains
    arrays = dict(topology.graph.to_arrays())
    arrays.update(
        node_domain=topology.node_domain,
        num_transit=np.int64(len(topology.transit_nodes)),
        domain_nodes=np.array([d.nodes for d in domains], dtype=np.int64),
        domain_gateways=np.array([d.gateway for d in domains], dtype=np.int64),
        domain_transits=np.array([d.transit_node for d in domains], dtype=np.int64),
        domain_access=np.array([d.access_delay_ms for d in domains], dtype=np.float64),
    )
    return arrays


def _topology_from_arrays(
    config: TopologyConfig, arrays: Dict[str, np.ndarray]
) -> TransitStubTopology:
    graph = Graph.from_arrays(arrays)
    domain_nodes = arrays["domain_nodes"]
    domains = tuple(
        StubDomain(
            domain_id=i,
            nodes=tuple(int(n) for n in domain_nodes[i]),
            gateway=int(arrays["domain_gateways"][i]),
            transit_node=int(arrays["domain_transits"][i]),
            access_delay_ms=float(arrays["domain_access"][i]),
        )
        for i in range(len(domain_nodes))
    )
    return TransitStubTopology(
        config=config,
        graph=graph,
        transit_nodes=tuple(range(int(arrays["num_transit"]))),
        stub_domains=domains,
        node_domain=np.array(arrays["node_domain"], dtype=np.int32),
    )


class TopologyCache:
    """Content-keyed LRU of underlays, with an optional ``.npz`` disk tier."""

    def __init__(
        self,
        memory_slots: int = DEFAULT_MEMORY_SLOTS,
        disk_dir: Optional[str] = None,
    ):
        self._memory_slots = max(1, memory_slots)
        #: Explicit directory; None means "follow REPRO_CACHE_DIR per call".
        self._disk_dir = disk_dir
        self._memory: "OrderedDict[str, Tuple[TransitStubTopology, DelayOracle]]" = (
            OrderedDict()
        )
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0

    # -- tiers ---------------------------------------------------------------

    @property
    def disk_dir(self) -> Optional[str]:
        """The active disk-tier directory, or None when disabled."""
        if self._disk_dir is not None:
            return self._disk_dir
        return os.environ.get(ENV_CACHE_DIR) or None

    def _entry_path(self, key: str) -> Optional[str]:
        directory = self.disk_dir
        if not directory:
            return None
        return os.path.join(directory, f"topology-{key}.npz")

    # -- the lookup ----------------------------------------------------------

    def get(
        self, config: TopologyConfig
    ) -> Tuple[TransitStubTopology, DelayOracle]:
        """The (topology, oracle) pair for ``config``, computed at most once.

        Lookup order: memory LRU, then the disk tier, then a full
        generate + precompute (which populates both tiers).  A disk-tier
        miss takes the entry's lock file and reads the disk again before
        it builds: another process may have built the entry meanwhile.
        Memory hits and runs without a disk tier never touch the lock.
        """
        key = topology_cache_key(config)
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.memory_hits += 1
            return cached

        path = self._entry_path(key)
        pair = self._load_from_disk(path, config)
        if pair is None and path is not None:
            with _build_lock(path):
                pair = self._load_from_disk(path, config)
                if pair is None:
                    pair = self._generate(config)
                    self._store_to_disk(path, pair)
        elif pair is None:
            pair = self._generate(config)

        self._memory[key] = pair
        while len(self._memory) > self._memory_slots:
            self._memory.popitem(last=False)
        return pair

    def _generate(
        self, config: TopologyConfig
    ) -> Tuple[TransitStubTopology, DelayOracle]:
        self.misses += 1
        topology = generate_transit_stub(config)
        return topology, DelayOracle(topology)

    # -- disk tier -----------------------------------------------------------

    def _load_from_disk(
        self, path: Optional[str], config: TopologyConfig
    ) -> Optional[Tuple[TransitStubTopology, DelayOracle]]:
        if path is None or not os.path.exists(path):
            return None
        try:
            with np.load(path) as data:
                arrays = {name: data[name] for name in data.files}
            topology = _topology_from_arrays(config, arrays)
            oracle = DelayOracle.from_matrices(
                topology, {"intra": arrays["oracle_intra"], "core": arrays["oracle_core"]}
            )
            self.disk_hits += 1
            return topology, oracle
        except Exception:
            # Corrupt/truncated/stale entry: regenerate rather than fail.
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def _store_to_disk(
        self, path: str, pair: Tuple[TransitStubTopology, DelayOracle]
    ) -> None:
        topology, oracle = pair
        arrays = _topology_to_arrays(topology)
        matrices = oracle.to_matrices()
        arrays["oracle_intra"] = matrices["intra"]
        arrays["oracle_core"] = matrices["core"]
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        try:
            publish(path, buffer.getvalue())
            # The lock file has done its job: later arrivals find the
            # entry before they reach for it, and a process already
            # waiting on it reads the disk again once it holds it.
            os.remove(path + _LOCK_SUFFIX)
        except OSError:
            # A read-only or full cache directory must never fail the run.
            pass


@contextmanager
def _build_lock(entry_path: str) -> Iterator[None]:
    """Hold the lock file beside ``entry_path`` for the block, or run it
    unlocked when the lock file cannot be opened (a read-only cache
    directory must never fail the run)."""
    lock = FileLock(entry_path + _LOCK_SUFFIX)
    try:
        lock.acquire()
    except OSError:
        yield
        return
    try:
        yield
    finally:
        lock.release()


#: Process-wide cache shared by the experiment harness.
_default_cache: Optional[TopologyCache] = None


def default_cache() -> TopologyCache:
    """The process-wide :class:`TopologyCache` (created on first use)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = TopologyCache()
    return _default_cache


def clear_default_cache() -> None:
    """Reset the process-wide cache's memory tier and statistics."""
    global _default_cache
    _default_cache = None
