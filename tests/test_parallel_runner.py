"""Cross-process determinism and robustness of the parallel experiment pool.

The contract under test: fanning (experiment × seed) jobs out over worker
processes must produce byte-identical tables and JSON to a fully serial
``--jobs 1`` run, and a crashed or wedged worker must not change results
(its job is retried once in-process).
"""

import json
import multiprocessing
import os
import re
import tempfile

import numpy as np
import pytest

from repro.config import TopologyConfig
from repro.experiments import common
from repro.experiments.pool import (
    ExperimentJob,
    ExperimentPool,
    execute_job,
    resolve_jobs,
)
from repro.experiments.registry import REGISTRY, ExperimentResult, register
from repro.experiments.runner import main
from repro.topology.cache import ENV_CACHE_DIR, default_cache

TIMING_LINE = re.compile(r" in [0-9.]+s\]")


@pytest.fixture(autouse=True)
def fresh_caches():
    common.clear_caches()
    yield
    common.clear_caches()


def _normalize(text: str) -> str:
    """Strip wall-clock timings, the only legitimately nondeterministic bytes."""
    return TIMING_LINE.sub("]", text)


def test_resolve_jobs_defaults_and_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs(None) == 3
    assert resolve_jobs(2) == 2
    with pytest.raises(ValueError):
        resolve_jobs(0)


def test_jobs_canonical_form():
    a = ExperimentJob.make("fig04", scale=0.1, seed=3, sizes=(2000,), b=1)
    b = ExperimentJob.make("fig04", scale=0.1, b=1, seed=3, sizes=(2000,))
    assert a == b and hash(a) == hash(b)


def test_pool_preserves_submission_order():
    jobs = [
        ExperimentJob.make("fig05", scale=0.02, seed=seed) for seed in (5, 3, 4)
    ]
    serial = ExperimentPool(jobs=1).run(jobs)
    common.clear_caches()
    parallel = ExperimentPool(jobs=3).run(jobs)
    assert [r.table for r in serial] == [r.table for r in parallel]
    assert [r.data for r in serial] == [r.data for r in parallel]


def test_cli_parallel_replicas_byte_identical(tmp_path):
    """`run fig04 --replicas 4 --jobs 4` == `--jobs 1`, byte for byte."""
    outputs = {}
    for jobs in ("1", "4"):
        out = tmp_path / f"tables-{jobs}.txt"
        dump = tmp_path / f"data-{jobs}.json"
        common.clear_caches()
        code = main([
            "run", "fig04",
            "--scale", "0.02",
            "--seed", "3",
            "--replicas", "4",
            "--jobs", jobs,
            "--out", str(out),
            "--json", str(dump),
        ])
        assert code == 0
        outputs[jobs] = (_normalize(out.read_text()), dump.read_text())
    assert outputs["1"][0] == outputs["4"][0]
    assert outputs["1"][1] == outputs["4"][1]
    data = json.loads(outputs["4"][1])
    assert data["fig04"]["seeds"] == [3, 4, 5, 6]


def _register_flaky(experiment_id: str, run):
    register(experiment_id, f"test helper {experiment_id}", "test")(run)


def test_worker_crash_is_retried_in_process():
    """A job that kills its worker is re-run (successfully) in-process.

    The helper experiment crashes only when the worker-pool initializer
    has set the shared cache directory, so the in-process retry succeeds.
    """
    experiment_id = "testcrash"

    def run(scale=1.0, seed=42, **_):
        if os.environ.get(ENV_CACHE_DIR):
            os._exit(17)
        return ExperimentResult(experiment_id, "crashy", table=f"ok seed={seed}")

    _register_flaky(experiment_id, run)
    try:
        assert ENV_CACHE_DIR not in os.environ
        pool = ExperimentPool(jobs=2)
        jobs = [ExperimentJob.make(experiment_id, seed=s) for s in (1, 2)]
        results = pool.run(jobs)
        assert [r.table for r in results] == ["ok seed=1", "ok seed=2"]
        assert pool.retried_jobs >= 1
    finally:
        REGISTRY.pop(experiment_id, None)


def test_wedged_worker_times_out_and_retries():
    experiment_id = "testslow"

    def run(scale=1.0, seed=42, **_):
        if os.environ.get(ENV_CACHE_DIR):
            import time

            time.sleep(3.0)
        return ExperimentResult(experiment_id, "slow", table=f"done seed={seed}")

    _register_flaky(experiment_id, run)
    try:
        assert ENV_CACHE_DIR not in os.environ
        pool = ExperimentPool(jobs=2, timeout_s=0.25)
        results = pool.run([ExperimentJob.make(experiment_id, seed=s) for s in (1, 2)])
        assert [r.table for r in results] == ["done seed=1", "done seed=2"]
        assert pool.retried_jobs >= 1
    finally:
        REGISTRY.pop(experiment_id, None)


def _topology_cache_dirs():
    return {
        name
        for name in os.listdir(tempfile.gettempdir())
        if name.startswith("repro-topo-cache-")
    }


def test_crash_retry_with_cached_underlay_matches_serial():
    """Jobs that read the underlay through the topology cache match the
    serial run byte for byte even when a worker crashes and its job is
    retried in-process; the pool's temporary cache directory is removed
    and its variable does not leak into the parent."""
    experiment_id = "testcachecrash"
    config = TopologyConfig(
        transit_domains=2,
        transit_nodes_per_domain=3,
        stub_domains_per_transit=2,
        stub_nodes_per_domain=5,
        seed=9,
    )

    def run(scale=1.0, seed=42, **_):
        # Crash the seed-1 job whenever it runs inside a worker (only
        # workers get REPRO_CACHE_DIR from the pool initializer); the
        # in-process retry in the parent then succeeds.
        if seed == 1 and os.environ.get(ENV_CACHE_DIR):
            os._exit(23)
        topo, oracle = default_cache().get(config)
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, topo.num_nodes, size=(50, 2))
        total = sum(oracle.delay_ms(int(u), int(v)) for u, v in pairs)
        return ExperimentResult(
            experiment_id, "cache crash", table=f"seed={seed} total={total!r}"
        )

    _register_flaky(experiment_id, run)
    try:
        jobs = [ExperimentJob.make(experiment_id, seed=s) for s in (1, 2, 3)]
        serial = ExperimentPool(jobs=1).run(jobs)

        common.clear_caches()
        assert ENV_CACHE_DIR not in os.environ
        before = _topology_cache_dirs()
        pool = ExperimentPool(jobs=2)
        parallel = pool.run(jobs)

        assert pool.retried_jobs >= 1
        assert [r.table for r in serial] == [r.table for r in parallel]
        assert _topology_cache_dirs() <= before
        assert ENV_CACHE_DIR not in os.environ
    finally:
        REGISTRY.pop(experiment_id, None)


def test_workers_fork_whatever_the_default_start_method():
    """Spawn and forkserver workers re-import the package, so they would
    not know an experiment registered at runtime; the pool forks."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("this platform cannot fork")
    experiment_id = "testforked"

    def run(scale=1.0, seed=42, **_):
        return ExperimentResult(experiment_id, "pid", table=str(os.getpid()))

    _register_flaky(experiment_id, run)
    prior = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        pool = ExperimentPool(jobs=2)
        results = pool.run(
            [ExperimentJob.make(experiment_id, seed=s) for s in (1, 2)]
        )
        assert pool.retried_jobs == 0
        assert len(results) == 2
        assert str(os.getpid()) not in {r.table for r in results}
    finally:
        multiprocessing.set_start_method(prior, force=True)
        REGISTRY.pop(experiment_id, None)


def test_single_job_fans_its_units_out():
    """One figure job whose plan holds several units runs them in
    workers: the parent only demuxes, and the result equals the serial
    one."""
    job = ExperimentJob.make("fig05", scale=0.02, seed=3)
    (serial,) = ExperimentPool(jobs=1).run([job])
    common.clear_caches()
    (parallel,) = ExperimentPool(jobs=2).run([job])
    stats = common.cache_stats()
    assert stats["churn_misses"] == 0
    assert stats["churn_hits"] > 0
    assert parallel.table == serial.table
    assert parallel.data == serial.data


def test_jobs_one_is_fully_in_process():
    """The serial path must not spawn workers (pdb/coverage support)."""
    experiment_id = "testpid"

    def run(scale=1.0, seed=42, **_):
        return ExperimentResult(experiment_id, "pid", table=str(os.getpid()))

    _register_flaky(experiment_id, run)
    try:
        results = ExperimentPool(jobs=1).run(
            [ExperimentJob.make(experiment_id, seed=s) for s in (1, 2, 3)]
        )
        assert {r.table for r in results} == {str(os.getpid())}
    finally:
        REGISTRY.pop(experiment_id, None)


def test_execute_job_round_trips_kwargs():
    result = execute_job(
        ExperimentJob.make("fig04", scale=0.02, seed=3, sizes=(2000,))
    )
    assert result.data["sizes"] == [2000]


def test_atomic_out_preserves_append_semantics(tmp_path):
    out = tmp_path / "tables.txt"
    out.write_text("previous run\n")
    code = main([
        "run", "fig05", "--scale", "0.02", "--seed", "3",
        "--jobs", "1", "--out", str(out),
    ])
    assert code == 0
    content = out.read_text()
    assert content.startswith("previous run\n")
    assert "Fig. 5" in content
    # no temp droppings left behind
    assert [p.name for p in tmp_path.iterdir()] == ["tables.txt"]
