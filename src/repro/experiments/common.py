"""Shared machinery for the experiment modules.

The expensive artefacts — topologies/oracles, workloads and whole churn
runs — are cached in-process and keyed by their full parameter tuples, so
experiments that share sweeps (Figs 4/7/8/10; Figs 6/9) pay for them
once.  All protocols within one sweep run against a byte-identical
workload over a shared underlay, mirroring the paper's methodology.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..config import SimulationConfig, paper_config
from ..obs.capture import ObsUnit, emit_unit, obs_fingerprint
from ..protocols import PROTOCOLS
from ..protocols.rost import RostProtocol
from ..sim.rng import RngRegistry
from ..simulation.churn import ChurnRunResult, ChurnSimulation
from ..simulation.probe import make_probe_session
from ..simulation.streaming import RecoveryRunResult, RecoverySimulation
from ..topology.cache import clear_default_cache, default_cache
from ..workload.generator import generate_workload
from ..workload.session import Session

#: The x-axis of the paper's size sweeps (Figs 4, 7, 8, 10, 12).
PAPER_SIZES: Tuple[int, ...] = (2000, 5000, 8000, 11000, 14000)
#: Row order used in every multi-protocol figure.
PROTOCOL_ORDER: Tuple[str, ...] = (
    "min-depth",
    "longest-first",
    "relaxed-bo",
    "relaxed-to",
    "rost",
)
#: The network the single-size figures (5, 6, 9, 11, 13, 14) use.
DEFAULT_SINGLE_SIZE = 8000

_workload_cache: Dict[tuple, object] = {}
_churn_cache: Dict[tuple, ChurnRunResult] = {}
_recovery_cache: Dict[tuple, RecoveryRunResult] = {}
# Observability units captured alongside cached runs, same keys as the
# run caches.  A cache hit must *re-emit* the stored unit: with --jobs 1
# a run shared between figures executes once, while with --jobs 4 each
# figure's unit is simulated once and replayed per consumer — re-emitting
# the unit keeps the merged trace/metrics byte-identical across the two.
_churn_obs: Dict[tuple, ObsUnit] = {}
_recovery_obs: Dict[tuple, ObsUnit] = {}

#: Run-cache hit/miss counters since the last :func:`clear_caches`.
#: ``benchmarks/report.py`` snapshots these around each figure so the
#: bench meta records how much cross-figure sharing the sweep-unit
#: scheduler can exploit.
_cache_stats: Dict[str, int] = {
    "churn_hits": 0,
    "churn_misses": 0,
    "recovery_hits": 0,
    "recovery_misses": 0,
}


def cache_stats() -> Dict[str, int]:
    """A snapshot of the run-cache hit/miss counters."""
    return dict(_cache_stats)


def clear_caches() -> None:
    """Drop all cached runs (tests use this to force fresh sweeps).

    Clears the in-memory tiers only; an on-disk topology cache configured
    via ``REPRO_CACHE_DIR`` survives (its entries are content-addressed,
    so staleness is not a concern).
    """
    clear_default_cache()
    _workload_cache.clear()
    _churn_cache.clear()
    _recovery_cache.clear()
    _churn_obs.clear()
    _recovery_obs.clear()
    for name in _cache_stats:
        _cache_stats[name] = 0


@dataclass(frozen=True)
class SweepSettings:
    """Knobs common to every experiment invocation."""

    scale: float = 1.0
    seed: int = 42
    warmup_lifetimes: float = 2.0
    measure_lifetimes: float = 2.0

    def config(self, population: int) -> SimulationConfig:
        cfg = paper_config(population=population, seed=self.seed, scale=self.scale)
        return dataclasses.replace(
            cfg,
            warmup_lifetimes=self.warmup_lifetimes,
            measure_lifetimes=self.measure_lifetimes,
        )


def shared_topology(config: SimulationConfig):
    """Topology + oracle via the two-tier content-keyed cache.

    Repeat calls in one process hit the memory LRU; with ``REPRO_CACHE_DIR``
    set, pool workers and repeat CLI invocations additionally share the
    precomputed matrices through the disk tier.
    """
    return default_cache().get(config.topology)


def shared_workload(
    config: SimulationConfig, probe: Optional[Session] = None, salt: int = 0
):
    """One workload per (topology config, workload config, horizon, probe,
    salt) — identical across the protocols of a sweep."""
    topology, _ = shared_topology(config)
    probe_key = None
    if probe is not None:
        probe_key = (probe.arrival_s, probe.lifetime_s, probe.bandwidth)
    # The topology config belongs in the key: attach nodes come from the
    # underlay, and two scales can coincide on every workload field (e.g.
    # scale 0.02 x size 5000 and scale 0.05 x size 2000 both target 100
    # members with the same derived seed) while their underlays differ.
    key = (config.topology, config.workload, round(config.horizon_s, 6), probe_key, salt)
    workload = _workload_cache.get(key)
    if workload is None:
        rngs = RngRegistry(config.seed)
        workload = generate_workload(
            config.workload,
            horizon_s=config.horizon_s,
            attach_nodes=topology.stub_nodes,
            rng=rngs.stream("workload"),
            probe=probe,
        )
        _workload_cache[key] = workload
    return workload


def _invariants_enabled() -> bool:
    """The CLI's ``--check-invariants`` travels via the environment (it
    must reach pool workers and the cached run helpers alike)."""
    return os.environ.get("REPRO_CHECK_INVARIANTS", "") not in ("", "0")


def protocol_factory(name: str, **kwargs) -> Callable:
    """A factory for ``name``, optionally overriding ROST's feature flags."""
    cls = PROTOCOLS[name]
    if kwargs:
        if cls is not RostProtocol:
            raise ValueError(f"feature flags only apply to rost, not {name}")
        return lambda ctx: RostProtocol(ctx, **kwargs)
    return cls


def churn_key(
    protocol_name: str,
    population: int,
    settings: SweepSettings,
    probe_lifetime_s: Optional[float] = None,
    switch_interval_s: Optional[float] = None,
    rost_flags: Optional[dict] = None,
) -> tuple:
    """The ``_churn_cache`` key for one run's parameters.

    Shared between :func:`churn_run` and the sweep-unit scheduler
    (:mod:`repro.experiments.units`), which seeds the cache with
    worker-executed results: both sides must fold the invariant-checking
    flag and the obs fingerprint identically or seeded entries would
    never be found (or worse, be replayed under the wrong channel set).
    """
    return (
        "churn",
        protocol_name,
        population,
        settings,
        probe_lifetime_s,
        switch_interval_s,
        tuple(sorted((rost_flags or {}).items())),
        _invariants_enabled(),
        obs_fingerprint(),
    )


def churn_run(
    protocol_name: str,
    population: int,
    settings: SweepSettings,
    probe: Optional[Session] = None,
    switch_interval_s: Optional[float] = None,
    rost_flags: Optional[dict] = None,
) -> ChurnRunResult:
    """One (cached) churn run."""
    checked = _invariants_enabled()
    obs_fp = obs_fingerprint()
    key = churn_key(
        protocol_name,
        population,
        settings,
        probe_lifetime_s=probe.lifetime_s if probe is not None else None,
        switch_interval_s=switch_interval_s,
        rost_flags=rost_flags,
    )
    cached = _churn_cache.get(key)
    if cached is not None:
        _cache_stats["churn_hits"] += 1
        unit = _churn_obs.get(key)
        if unit is not None:
            emit_unit(unit)
        return cached
    _cache_stats["churn_misses"] += 1
    config = settings.config(population)
    if switch_interval_s is not None:
        config = config.with_switch_interval(switch_interval_s)
    topology, oracle = shared_topology(config)
    workload = shared_workload(config, probe=probe)
    sim = ChurnSimulation(
        config,
        protocol_factory(protocol_name, **(rost_flags or {})),
        topology=topology,
        oracle=oracle,
        workload=workload,
        probe=probe,
        check_invariants=checked,
    )
    attachment = None
    if any(obs_fp):
        from ..obs.attach import ObsAttachment

        attachment = ObsAttachment(
            meta={
                "kind": "churn",
                "protocol": protocol_name,
                "population": population,
                "seed": settings.seed,
                "scale": settings.scale,
                "switch_interval_s": switch_interval_s,
            }
        ).attach(sim)
    result = sim.run()
    _churn_cache[key] = result
    if attachment is not None:
        unit = attachment.finalize(result)
        _churn_obs[key] = unit
        emit_unit(unit)
    return result


def recovery_key(
    protocol_name: str,
    population: int,
    settings: SweepSettings,
    scheme_names: Sequence[str],
    replica: int = 0,
) -> tuple:
    """The ``_recovery_cache`` key (see :func:`churn_key` for the
    contract with the sweep-unit scheduler)."""
    return (
        "recovery",
        protocol_name,
        population,
        settings,
        tuple(scheme_names),
        replica,
        _invariants_enabled(),
        obs_fingerprint(),
    )


def recovery_run(
    protocol_name: str,
    population: int,
    settings: SweepSettings,
    schemes: Sequence,
    replica: int = 0,
) -> RecoveryRunResult:
    """One (cached) recovery run evaluating a grid of schemes."""
    checked = _invariants_enabled()
    obs_fp = obs_fingerprint()
    key = recovery_key(
        protocol_name,
        population,
        settings,
        [s.name for s in schemes],
        replica=replica,
    )
    cached = _recovery_cache.get(key)
    if cached is not None:
        _cache_stats["recovery_hits"] += 1
        unit = _recovery_obs.get(key)
        if unit is not None:
            emit_unit(unit)
        return cached
    _cache_stats["recovery_misses"] += 1
    config = settings.config(population)
    if replica:
        config = config.with_seed(settings.seed + 1000 * replica)
    topology, oracle = shared_topology(config)
    sim = RecoverySimulation(
        config,
        protocol_factory(protocol_name),
        schemes,
        topology=topology,
        oracle=oracle,
        check_invariants=checked,
    )
    attachment = None
    if any(obs_fp):
        from ..obs.attach import ObsAttachment

        attachment = ObsAttachment(
            meta={
                "kind": "recovery",
                "protocol": protocol_name,
                "population": population,
                "seed": config.seed,
                "scale": settings.scale,
                "replica": replica,
            }
        ).attach(sim)
    result = sim.run()
    _recovery_cache[key] = result
    if attachment is not None:
        unit = attachment.finalize(result)
        _recovery_obs[key] = unit
        emit_unit(unit)
    return result


#: Lifetime of the Fig. 6/9 probe member.  A module constant because the
#: sweep-unit scheduler must compute a probe run's cache key *without*
#: materialising the probe session (which requires the topology).
DEFAULT_PROBE_LIFETIME_S = 300 * 60.0


def default_probe(settings: SweepSettings, population: int) -> Session:
    """The "typical member" of Figs 6 and 9: moderate bandwidth, a long
    (300-minute) life, joining once the network is in steady state."""
    config = settings.config(population)
    topology, _ = shared_topology(config)
    return make_probe_session(
        arrival_s=config.warmup_s,
        lifetime_s=DEFAULT_PROBE_LIFETIME_S,
        bandwidth=2.0,
        underlay_node=topology.stub_nodes[len(topology.stub_nodes) // 2],
    )


# -- sweep-unit scheduler hooks -----------------------------------------------------
#
# The two-phase pool plan (see ``pool.py``) executes each deduplicated
# simulation unit once in a worker, ships the exact payload back, and
# seeds the parent's run caches below before re-running the consuming
# figures in-process.  From the figures' perspective every churn_run /
# recovery_run call is then an ordinary cache hit — including the ObsUnit
# re-emission — which is what keeps merged artifacts byte-identical to a
# serial run.


def seed_churn_result(
    key: tuple, result: ChurnRunResult, obs_unit: Optional[ObsUnit] = None
) -> None:
    """Install a deserialized churn run under its cache key."""
    _churn_cache[key] = result
    if obs_unit is not None:
        _churn_obs[key] = obs_unit


def seed_recovery_result(
    key: tuple, result: RecoveryRunResult, obs_unit: Optional[ObsUnit] = None
) -> None:
    """Install a deserialized recovery run under its cache key."""
    _recovery_cache[key] = result
    if obs_unit is not None:
        _recovery_obs[key] = obs_unit


def captured_churn_obs(key: tuple) -> Optional[ObsUnit]:
    """The ObsUnit captured for a cached churn run (worker side)."""
    return _churn_obs.get(key)


def captured_recovery_obs(key: tuple) -> Optional[ObsUnit]:
    """The ObsUnit captured for a cached recovery run (worker side)."""
    return _recovery_obs.get(key)
