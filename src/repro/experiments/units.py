"""First-class simulation units for the sweep-unit scheduler.

The paper's figures are *views* over a much smaller set of simulations:
Figs 4/7/8/10 read different metrics off the same five-protocol size
sweep, Fig 5 and the message accounting share its 8000-member column,
and Figs 6/9 share the probe runs.  This module makes those simulations
schedulable objects:

* :class:`ChurnUnit` / :class:`RecoveryUnit` name one simulation and
  build it; :func:`run_unit` serves a unit from the in-process run cache
  (:mod:`~repro.experiments.common`), keyed by ``unit.cache_key()``, or
  simulates and caches it;
* an experiment registers its unit declarer next to its view
  (``register(..., units=declarer)``, see
  :mod:`~repro.experiments.registry`): the view receives the results of
  the declared units in declaration order, and the pool plans over
  :func:`units_for`, dedups across figures, executes each unit once and
  seeds the parent's run cache before the views run
  (see :meth:`~repro.experiments.pool.ExperimentPool.run`);
* payloads cross process boundaries as canonical JSON built from the
  exact serializers on :class:`~repro.simulation.churn.ChurnRunResult` /
  :class:`~repro.simulation.streaming.RecoveryRunResult`, so floats are
  bit-identical on both sides and captured :class:`ObsUnit` traces
  replay byte-for-byte;
* with the durable store active, executed units are recorded under
  ``sim:churn`` / ``sim:recovery`` ledger ids and ``--resume`` replays
  them instead of re-simulating (:func:`run_unit`, at any ``--jobs``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..invariants import checking_enabled
from ..obs.capture import ObsUnit, emit_unit, obs_fingerprint
from ..recovery.schemes import RecoveryScheme
from ..simulation.churn import ChurnRunResult, ChurnSimulation
from ..simulation.streaming import RecoveryRunResult, RecoverySimulation
from ..store.keys import unit_key
from ..store.runstore import active_store, resume_enabled
from . import common
from .common import SweepSettings

#: Schema tag embedded in every unit payload (bump on layout changes so
#: a stale store entry can never be deserialized into the wrong shape).
PAYLOAD_VERSION = 1

#: Marker carried by probe units instead of a :class:`Session`: the
#: Fig. 6/9 probe is a deterministic function of (settings, population),
#: so the unit stays a small frozen value and the session is rebuilt
#: where the unit executes.
DEFAULT_PROBE = "default"


class _Unit:
    """What both unit kinds share: the run-cache key."""

    def cache_key(self) -> tuple:
        """The run-cache key: the unit, the checking mode and the obs
        fingerprint, read from the environment at call time (a run
        checked or observed under one setting is never served under
        another)."""
        return (self, checking_enabled(), obs_fingerprint())


@dataclass(frozen=True)
class ChurnUnit(_Unit):
    """One churn simulation: (protocol, population, settings, variant)."""

    protocol: str
    population: int
    settings: SweepSettings
    probe: Optional[str] = None
    switch_interval_s: Optional[float] = None
    #: Sorted (name, value) pairs — hashable form of the rost_flags dict.
    rost_flags: Tuple[Tuple[str, bool], ...] = ()

    kind = "churn"
    result_type = ChurnRunResult

    def store_doc(self) -> dict:
        """Canonical JSON-able identity for the durable store's ledger."""
        return {
            "unit": "churn",
            "version": PAYLOAD_VERSION,
            "protocol": self.protocol,
            "population": self.population,
            "settings": dataclasses.asdict(self.settings),
            "probe": self.probe,
            "switch_interval_s": self.switch_interval_s,
            "rost_flags": [list(pair) for pair in self.rost_flags],
            "checked": checking_enabled(),
        }

    def build(self, check_invariants) -> Tuple[ChurnSimulation, dict]:
        """This unit's simulation and the meta of its ObsUnit."""
        probe = None
        if self.probe == DEFAULT_PROBE:
            probe = common.default_probe(self.settings, self.population)
        config = self.settings.config(self.population)
        if self.switch_interval_s is not None:
            config = config.with_switch_interval(self.switch_interval_s)
        topology, oracle = common.shared_topology(config)
        sim = ChurnSimulation(
            config,
            common.protocol_factory(self.protocol, **dict(self.rost_flags)),
            topology=topology,
            oracle=oracle,
            workload=common.shared_workload(config, probe=probe),
            probe=probe,
            check_invariants=check_invariants,
        )
        meta = {
            "kind": "churn",
            "protocol": self.protocol,
            "population": self.population,
            "seed": self.settings.seed,
            "scale": self.settings.scale,
            "switch_interval_s": self.switch_interval_s,
        }
        return sim, meta


@dataclass(frozen=True)
class RecoveryUnit(_Unit):
    """One recovery simulation: a scheme grid over one churn pass."""

    protocol: str
    population: int
    settings: SweepSettings
    schemes: Tuple[RecoveryScheme, ...]
    replica: int = 0

    kind = "recovery"
    result_type = RecoveryRunResult

    def store_doc(self) -> dict:
        return {
            "unit": "recovery",
            "version": PAYLOAD_VERSION,
            "protocol": self.protocol,
            "population": self.population,
            "settings": dataclasses.asdict(self.settings),
            "schemes": [dataclasses.asdict(s) for s in self.schemes],
            "replica": self.replica,
            "checked": checking_enabled(),
        }

    def build(self, check_invariants) -> Tuple[RecoverySimulation, dict]:
        config = self.settings.config(self.population)
        if self.replica:
            config = config.with_seed(self.settings.seed + 1000 * self.replica)
        topology, oracle = common.shared_topology(config)
        sim = RecoverySimulation(
            config,
            common.protocol_factory(self.protocol),
            list(self.schemes),
            topology=topology,
            oracle=oracle,
            check_invariants=check_invariants,
        )
        meta = {
            "kind": "recovery",
            "protocol": self.protocol,
            "population": self.population,
            "seed": config.seed,
            "scale": self.settings.scale,
            "replica": self.replica,
        }
        return sim, meta


SimulationUnit = Union[ChurnUnit, RecoveryUnit]


def run_unit(unit: SimulationUnit):
    """One unit's result, the path every unit takes at any ``--jobs``.

    A run-cache hit re-emits the captured ObsUnit and never touches the
    store; a miss fills the cache (:func:`_replay_or_simulate`).
    """
    key = unit.cache_key()
    cached = common._run_cache.get(key)
    if cached is None:
        common._cache_stats[unit.kind + "_misses"] += 1
        _replay_or_simulate(unit, key)
        cached = common._run_cache[key]
    else:
        common._cache_stats[unit.kind + "_hits"] += 1
    result, obs_unit = cached
    if obs_unit is not None:
        emit_unit(obs_unit)
    return result


def _replay_or_simulate(unit: SimulationUnit, key: tuple) -> None:
    """Put ``unit``'s result in the run cache under ``key``.

    With the durable store active, ``--resume`` replays a stored unit
    instead of simulating it, and a simulated unit is recorded, so a run
    killed mid-figure resumes at unit, not figure, granularity.
    """
    store = active_store()
    store_key = sim_unit_store_key(unit) if store is not None else None
    if store is not None and resume_enabled():
        stored = store.replay_sim_unit(store_key)
        if stored is not None:
            if json.loads(stored).get("version") == PAYLOAD_VERSION:
                seed_unit(unit, stored)
                return
            store.ledger.forget_unit(store_key)
    instruments = common.Instruments()
    sim, meta = unit.build(instruments.checker())
    instruments.observe(sim, meta)
    result = sim.run()
    obs_unit = next(iter(instruments.finish()), None)
    if store is not None:
        store.record_sim_unit(store_key, unit, _payload_json(unit, result, obs_unit))
    common._run_cache[key] = (result, obs_unit)


def _payload_json(unit: SimulationUnit, result, obs_unit: Optional[ObsUnit]) -> str:
    """The unit's canonical payload JSON."""
    payload = {
        "version": PAYLOAD_VERSION,
        "kind": unit.kind,
        "result": result.to_payload(),
        "obs": dataclasses.asdict(obs_unit) if obs_unit is not None else None,
    }
    return json.dumps(payload, separators=(",", ":"))


def _obs_from(payload: dict) -> Optional[ObsUnit]:
    data = payload.get("obs")
    if data is None:
        return None
    return ObsUnit(
        meta=data["meta"],
        trace_lines=data["trace_lines"],
        metrics=data["metrics"],
        profile=data["profile"],
    )


def sim_unit_store_key(unit: SimulationUnit) -> str:
    """The durable-store ledger key for one simulation unit.

    Reuses the canonical-JSON key folding of :mod:`repro.store.keys`;
    the obs fingerprint is folded in for the same reason figure-level
    job keys fold it (traced and untraced captures must never
    cross-replay).
    """
    doc = unit.store_doc()
    return unit_key(
        f"sim:{doc['unit']}",
        unit.settings.scale,
        unit.settings.seed,
        sorted(doc.items()),
        obs_fingerprint(),
    )


def run_unit_task(unit: SimulationUnit) -> str:
    """Execute one unit (worker entry point); returns the payload JSON.

    Shipping the canonical JSON string (not the dict) across the process
    boundary makes the byte-exactness of the payload independent of
    pickle's float handling.
    """
    result = run_unit(unit)
    _, obs_unit = common._run_cache[unit.cache_key()]
    return _payload_json(unit, result, obs_unit)


def seed_unit(unit: SimulationUnit, payload_json: str) -> None:
    """Install a worker-produced payload into this process's run cache."""
    payload = json.loads(payload_json)
    result = unit.result_type.from_payload(payload["result"])
    common._run_cache[unit.cache_key()] = (result, _obs_from(payload))


def units_for(
    experiment_id: str, scale: float, seed: int, **kwargs
) -> Optional[List[SimulationUnit]]:
    """The units one job's view reads, or ``None`` for an experiment
    registered without a declarer (campaign drivers and the direct-sim
    extensions, which the pool runs as whole jobs)."""
    from .registry import REGISTRY

    experiment = REGISTRY.get(experiment_id)
    if experiment is None or experiment.units is None:
        return None
    return experiment.units(scale=scale, seed=seed, **kwargs)
