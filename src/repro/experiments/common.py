"""Shared machinery for the experiment modules.

The expensive artefacts — topologies/oracles, workloads and whole
simulation runs — are cached in-process.  Runs are keyed by the
simulation unit that names them (:mod:`~repro.experiments.units`), so
figures that read the same simulations (Figs 4/7/8/10; Figs 6/9) pay for
them once.  All protocols within one sweep run against a byte-identical
workload over a shared underlay, mirroring the paper's methodology.

The run flags travel as environment variables (:func:`exported_env`);
:class:`Instruments` turns them into each simulation's instruments.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from ..config import SimulationConfig, paper_config
from ..invariants import InvariantChecker, checking_enabled
from ..obs.capture import ObsUnit, emit_unit, obs_active
from ..protocols import PROTOCOLS
from ..protocols.rost import RostProtocol
from ..sim.rng import RngRegistry
from ..simulation.probe import make_probe_session
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
#: Simulation runs by ``unit.cache_key()``: ``(result, ObsUnit or None)``.
#: :func:`~repro.experiments.units.run_unit` fills it, and the pool seeds
#: it with worker payloads (:func:`~repro.experiments.units.seed_unit`).
#: A hit re-emits the captured ObsUnit: with --jobs 1 a run shared between
#: figures executes once, while with --jobs N each unit is simulated in a
#: worker and replayed per consumer, so re-emitting keeps the merged
#: trace/metrics byte-identical across the two.
_run_cache: Dict[tuple, Tuple[object, Optional[ObsUnit]]] = {}

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
    _run_cache.clear()
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


def shared_workload(config: SimulationConfig, probe: Optional[Session] = None):
    """One workload per (topology config, workload config, horizon, probe)
    — identical across the protocols of a sweep."""
    topology, _ = shared_topology(config)
    probe_key = None
    if probe is not None:
        probe_key = (probe.arrival_s, probe.lifetime_s, probe.bandwidth)
    # The topology config belongs in the key: attach nodes come from the
    # underlay, and two scales can coincide on every workload field (e.g.
    # scale 0.02 x size 5000 and scale 0.05 x size 2000 both target 100
    # members with the same derived seed) while their underlays differ.
    key = (config.topology, config.workload, round(config.horizon_s, 6), probe_key)
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


def protocol_factory(name: str, **kwargs) -> Callable:
    """A factory for ``name``, optionally overriding ROST's feature flags."""
    cls = PROTOCOLS[name]
    if kwargs:
        if cls is not RostProtocol:
            raise ValueError(f"feature flags only apply to rost, not {name}")
        return lambda ctx: RostProtocol(ctx, **kwargs)
    return cls


def default_probe(settings: SweepSettings, population: int) -> Session:
    """The "typical member" of Figs 6 and 9: moderate bandwidth, a long
    (300-minute) life, joining once the network is in steady state.

    The figures read its join time back off the result, as
    ``result.config.warmup_s``, so their views need no underlay.
    """
    config = settings.config(population)
    topology, _ = shared_topology(config)
    return make_probe_session(
        arrival_s=config.warmup_s,
        lifetime_s=300 * 60.0,
        bandwidth=2.0,
        underlay_node=topology.stub_nodes[len(topology.stub_nodes) // 2],
    )


@contextmanager
def exported_env(values: Mapping[str, Optional[str]]) -> Iterator[None]:
    """Set environment variables for the block (``None`` unsets one), then
    restore them.  The run flags travel this way: the environment reaches
    pool workers, forked or spawned, and this process alike."""
    saved = {name: os.environ.get(name) for name in values}
    _set_env(values)
    try:
        yield
    finally:
        _set_env(saved)


def _set_env(values: Mapping[str, Optional[str]]) -> None:
    for name, value in values.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


class Instruments:
    """The invariant checker and the obs attachments riding one run.

    The one place that decides them, from the run flags alone, for every
    simulation the harness builds: sweep units, campaign cells and the
    extensions' runs.  It also closes what it observed: after
    :meth:`finish` (or :meth:`emit`), read results, not simulations.
    """

    def __init__(self, reporting: bool = False) -> None:
        """``reporting`` is for callers with an ``invariants`` block to
        fill (the campaign cells): only they get reporting checkers under
        :data:`~repro.invariants.CHECK_REPORT`.  Everyone else checks
        strictly, so no finding can go unread."""
        mode = checking_enabled()
        self._mode = mode
        self._strict = mode is True or not reporting
        self._observed = obs_active()
        #: Every checker :meth:`checker` made, in order.
        self.checkers: List[InvariantChecker] = []
        self._attachments: list = []
        self._simulations: list = []

    def checker(self):
        """A fresh checker for one simulation — strict, or reporting for
        a ``reporting`` caller under :data:`~repro.invariants.CHECK_REPORT`
        — or ``False`` when the run is unchecked."""
        if not self._mode:
            return False
        checker = InvariantChecker(strict=self._strict)
        self.checkers.append(checker)
        return checker

    def observe(self, sim, meta: Dict[str, object]) -> None:
        """Take ``sim`` for :meth:`finish` to close, and attach an
        :class:`~repro.obs.attach.ObsAttachment` to it when an obs channel
        is on; ``meta`` names the run in its ObsUnit."""
        self._simulations.append(sim)
        if self._observed:
            from ..obs.attach import ObsAttachment

            self._attachments.append(ObsAttachment(meta=meta).attach(sim))

    def finish(self) -> List[ObsUnit]:
        """The observed runs' finalized ObsUnits, in attach order.

        Then every observed simulation is closed (``sim.close()``), so a
        finished run is freed by reference counting instead of waiting
        for a cyclic collection.
        """
        obs_units = [attachment.finalize() for attachment in self._attachments]
        for sim in self._simulations:
            sim.close()
        return obs_units

    def emit(self) -> None:
        """Hand :meth:`finish`'s ObsUnits to the ambient job capture."""
        for obs_unit in self.finish():
            emit_unit(obs_unit)
