"""Sweep-unit scheduling of (experiment × seed) jobs over worker processes.

The paper's figures are views over a much smaller set of simulations
(Figs 4/7/8/10 read different metrics off one five-protocol size sweep,
Fig 5 shares its 8000-member column, Figs 6/9 share the probe runs), so
the pool schedules **simulation units**, not figures:

1. *Plan* — every job whose experiment was registered with a unit
   declarer reports the simulations its view reads
   (:func:`~repro.experiments.units.units_for`); the pool dedups them
   across all requested figures.
2. *Execute* — each distinct unit runs **exactly once** across the
   workers; its exact result payload (bit-identical floats, captured obs
   artifacts) ships back as canonical JSON.  Jobs without declarers
   (campaign drivers, direct-sim extensions) run as whole jobs alongside.
3. *Demux* — the parent seeds the payloads into its run cache, keyed by
   ``unit.cache_key()``, and runs each figure's view locally; every unit
   the view reads is a cache hit, so extraction costs milliseconds,
   needs no underlay, and flows through the same :func:`execute_job`
   chokepoint as a serial run (obs capture, durable store recording).

Because the views read the very cache entries a ``--jobs 1`` run would
populate, merged tables, ``--json`` payloads and obs traces are
**byte-identical to a serial run at any** ``--jobs``.

Robustness model:

* ``jobs=1``, or a plan with at most one work item (one unit or one
  whole job), short-circuits to plain in-process execution — no
  executor, no subprocesses — so ``pdb``, profilers and coverage keep
  working and there is zero overhead for small runs.  A single figure
  whose plan holds several units still fans them out.
* A unit or job whose worker crashes (``BrokenProcessPool``) or exceeds
  the per-job ``timeout_s`` is retried **once, in-process**; the retry
  is deterministic, so a flaky worker cannot change results.  A second
  failure propagates.
* Workers share the expensive underlay precompute through the on-disk
  topology cache (:mod:`repro.topology.cache`): if ``REPRO_CACHE_DIR``
  is not set, the pool provisions a temporary shared cache directory for
  the duration of the run, so N workers pay for each distinct underlay
  once instead of N times — and nothing needs to pickle oracles across
  the process boundary.
* Workers are forked wherever the platform can fork, whatever the
  default start method: they must inherit state that exists only in the
  parent's memory (see :meth:`ExperimentPool._run_parallel`).  The obs,
  store and invariant flags reach them through the environment, which
  forked and spawned workers both inherit; the initializer only points
  ``REPRO_CACHE_DIR`` at the shared topology cache.
* Worker processes are capped at the machine's core count: the sims are
  CPU-bound, so extra processes only add contention.  ``--jobs`` remains
  the requested ceiling and has no effect on results.
* With the durable store active, units are recorded/replayed under
  ``sim:churn`` / ``sim:recovery`` ledger ids, so ``--resume`` composes
  at unit granularity at any ``--jobs`` (see
  :func:`~repro.experiments.units.run_unit`).
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..obs.capture import job_capture
from ..obs.profile import record_stage, stage_timer
from ..store.runstore import active_store, resume_enabled
from ..topology.cache import ENV_CACHE_DIR
from . import units as units_mod
from .registry import ExperimentResult, run_experiment


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None -> $REPRO_JOBS or cpu count."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        jobs = int(env) if env else (os.cpu_count() or 1)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True)
class ExperimentJob:
    """One (experiment, seed, scale, extra-kwargs) unit of work.

    ``kwargs`` is a sorted tuple of pairs rather than a dict so jobs are
    hashable and their pickled form is canonical.
    """

    experiment_id: str
    scale: float = 1.0
    seed: int = 42
    kwargs: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(
        cls, experiment_id: str, scale: float = 1.0, seed: int = 42, **kwargs
    ) -> "ExperimentJob":
        return cls(experiment_id, scale, seed, tuple(sorted(kwargs.items())))


def execute_job(job: ExperimentJob) -> ExperimentResult:
    """Run one job in the current process (also the worker entry point).

    This is the single chokepoint both the worker path and the
    in-process path go through, so observability artifacts (trace lines,
    metrics/profile units — see :mod:`repro.obs.capture`) are captured
    here and attached to the result regardless of where the job ran.

    It is also where the durable run store (:mod:`repro.store`) hooks
    in: with ``REPRO_STORE_DIR`` set, every completed unit commits its
    result payload to the ledger, and with ``REPRO_STORE_RESUME`` a unit
    the ledger already has is *replayed* — execution skipped, the stored
    table/data/artifacts returned verbatim — which is what makes
    ``--resume`` after a crash byte-identical to an uninterrupted run.
    """
    store = active_store()
    key = store.job_key(job) if store is not None else None
    if store is not None and resume_enabled():
        replayed = store.replay(key)
        if replayed is not None:
            return replayed
    with job_capture() as capture:
        result = run_experiment(
            job.experiment_id, scale=job.scale, seed=job.seed, **dict(job.kwargs)
        )
    if capture is not None:
        artifacts = capture.artifacts()
        if artifacts:
            result.artifacts.update(artifacts)
    if store is not None:
        store.record_result(key, job, result)
    return result


def _worker_init(cache_dir: str) -> None:
    os.environ[ENV_CACHE_DIR] = cache_dir


class ExperimentPool:
    """Runs batches of :class:`ExperimentJob` with deterministic ordering."""

    def __init__(self, jobs: Optional[int] = None, timeout_s: Optional[float] = None):
        self.jobs = resolve_jobs(jobs)
        #: Per-job wall-clock limit when running in worker processes
        #: (None = no limit).  Ignored on the in-process path.
        self.timeout_s = timeout_s
        self.retried_jobs = 0

    def run(self, jobs: Sequence[ExperimentJob]) -> List[ExperimentResult]:
        """Execute ``jobs``; results are returned in submission order.

        Runs in-process when ``jobs == 1`` or when the plan holds at most
        one work item (a distinct unit or a whole job); otherwise the
        work items fan out over worker processes.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        if self.jobs > 1:
            clock = stage_timer()
            units_by_job, unique_units = self._plan_units(jobs)
            record_stage("pool.plan", clock())
            work_items = len(unique_units) + units_by_job.count(None)
            if work_items > 1:
                return self._run_parallel(jobs, units_by_job, unique_units, work_items)
        clock = stage_timer()
        results = [execute_job(job) for job in jobs]
        record_stage("pool.serial", clock())
        return results

    def _retry_in_process(self, job: ExperimentJob) -> ExperimentResult:
        """Retry a crashed or wedged job in the parent process.

        The retry re-runs the job from scratch under a fresh artifact
        capture (via :func:`execute_job`), so any trace/metrics artifacts
        the dead worker produced — and which died with it — are re-emitted
        in full on the retried result.  The merged trace is therefore
        byte-identical to a run in which the worker never crashed.
        """
        self.retried_jobs += 1
        clock = stage_timer()
        try:
            return execute_job(job)
        finally:
            record_stage("pool.retry", clock())

    def _plan_units(self, jobs: List[ExperimentJob]):
        """Phase 1 of the sweep-unit plan: what does each job simulate?

        Returns ``(units_by_job, unique_units)``.  ``units_by_job[i]`` is
        the unit list job ``i`` declared, or ``None`` for legacy jobs
        (whole campaigns, direct-sim extensions) which keep the whole-job
        path; a declarer that raises fails the plan.  ``unique_units``
        holds each distinct unit once, in first-appearance
        order — the cross-figure dedup that makes ``all --jobs N`` simulate
        each (protocol, size, seed) run exactly once.

        With ``--resume`` and a populated store, a job whose *figure-level*
        result is already in the ledger contributes no units (it will be
        replayed wholesale by :func:`execute_job`); the membership probe
        uses :meth:`~repro.store.runstore.RunStore.has_unit`, which never
        bumps replay counters.
        """
        store = active_store()
        skip_stored = store is not None and resume_enabled()
        units_by_job: List[Optional[list]] = []
        unique_units: List[units_mod.SimulationUnit] = []
        seen = set()
        for job in jobs:
            declared = units_mod.units_for(
                job.experiment_id, job.scale, job.seed, **dict(job.kwargs)
            )
            if declared is None:
                units_by_job.append(None)
                continue
            if skip_stored and store.has_unit(store.job_key(job)):
                units_by_job.append([])
                continue
            units_by_job.append(declared)
            for unit in declared:
                key = unit.cache_key()
                if key not in seen:
                    seen.add(key)
                    unique_units.append(unit)
        return units_by_job, unique_units

    def _run_parallel(
        self,
        jobs: List[ExperimentJob],
        units_by_job: List[Optional[list]],
        unique_units: List[units_mod.SimulationUnit],
        work_items: int,
    ) -> List[ExperimentResult]:
        cache_dir = os.environ.get(ENV_CACHE_DIR) or None
        temp_cache = None
        if cache_dir is None:
            temp_cache = tempfile.mkdtemp(prefix="repro-topo-cache-")
            cache_dir = temp_cache
        # Never oversubscribe the machine: the sims are CPU-bound, so
        # workers beyond the core count only add contention and
        # duplicated per-process cache state.  ``--jobs`` stays the
        # requested ceiling (and the dedup plan is identical at any
        # value); the executor just won't start more processes than can
        # actually run.
        worker_slots = min(self.jobs, work_items, max(1, os.cpu_count() or 1))
        # Fork wherever the platform can, whatever its default (Python
        # 3.14 makes forkserver the Linux default): workers must inherit
        # what exists only in this process's memory — experiments
        # registered at runtime and wrappers installed on module
        # attributes, such as perfbench's tracer.  Spawn and forkserver
        # workers re-import the package and lose both.
        context = (
            multiprocessing.get_context("fork")
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        executor = None
        try:
            executor = ProcessPoolExecutor(
                max_workers=worker_slots,
                mp_context=context,
                initializer=_worker_init,
                initargs=(cache_dir,),
            )
            # Phase 2: execute each deduplicated simulation unit once,
            # alongside the legacy whole jobs (they share the worker
            # pool, so unit work and campaign work overlap freely).
            clock = stage_timer()
            unit_futures = [
                executor.submit(units_mod.run_unit_task, unit)
                for unit in unique_units
            ]
            job_futures = {
                i: executor.submit(execute_job, job)
                for i, job in enumerate(jobs)
                if units_by_job[i] is None
            }
            record_stage("pool.submit", clock())
            clock = stage_timer()
            for unit, future in zip(unique_units, unit_futures):
                try:
                    payload = future.result(timeout=self.timeout_s)
                except (BrokenExecutor, FutureTimeoutError, OSError):
                    # Crashed or wedged worker: retry once, in-process.
                    future.cancel()
                    self.retried_jobs += 1
                    payload = units_mod.run_unit_task(unit)
                units_mod.seed_unit(unit, payload)
            record_stage("pool.units", clock())
            # Phase 3: gather legacy jobs in submission order and demux
            # unit-backed figures in-process — every simulation they
            # consume is now a cache hit, so extraction costs milliseconds
            # and still flows through the execute_job chokepoint (obs
            # capture + store recording).
            clock = stage_timer()
            results: List[ExperimentResult] = []
            for i, job in enumerate(jobs):
                if units_by_job[i] is not None:
                    results.append(execute_job(job))
                    continue
                future = job_futures[i]
                try:
                    results.append(future.result(timeout=self.timeout_s))
                except (BrokenExecutor, FutureTimeoutError, OSError):
                    future.cancel()
                    results.append(self._retry_in_process(job))
            record_stage("pool.gather", clock())
            return results
        finally:
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
            if temp_cache is not None:
                shutil.rmtree(temp_cache, ignore_errors=True)


def run_jobs(
    jobs: Sequence[ExperimentJob],
    parallel_jobs: Optional[int] = None,
    timeout_s: Optional[float] = None,
) -> List[ExperimentResult]:
    """One-shot convenience wrapper around :class:`ExperimentPool`."""
    return ExperimentPool(jobs=parallel_jobs, timeout_s=timeout_s).run(jobs)
