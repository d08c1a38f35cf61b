"""Sweep-unit scheduler: dedup plan, exact payloads, byte-identity.

The contracts under test (see ``docs/performance.md``):

* figures declare exactly the simulation units their extraction consumes,
  and the pool's plan dedups them across figures — each distinct
  (protocol, size, seed, variant) simulation runs once per campaign;
* a :class:`ChurnRunResult` / :class:`RecoveryRunResult` round-trips
  through its JSON payload *byte-exactly* (floats bit-for-bit, int/float
  distinction preserved), which is what makes worker-produced results
  indistinguishable from locally-computed ones;
* a unit-scheduled run at any ``--jobs`` produces tables, data and merged
  obs traces byte-identical to the serial run;
* with the durable store active, each deduped unit's ledger row shows
  ``executions == 1`` after a parallel campaign, and a killed campaign
  resumes at unit granularity.
"""

import dataclasses
import json
import math
import os
import re
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import common, registry
from repro.experiments.common import SweepSettings
from repro.experiments.pool import (
    ExperimentJob,
    ExperimentPool,
    execute_job,
    run_jobs,
)
from repro.experiments.units import (
    DEFAULT_PROBE,
    ChurnUnit,
    RecoveryUnit,
    run_unit,
    run_unit_task,
    seed_unit,
    units_for,
)
from repro.metrics.collectors import ChurnMetrics, TimeSeries
from repro.overlay.messages import MessageStats, MessageType
from repro.recovery.schemes import RecoveryScheme
from repro.simulation.churn import ChurnRunResult
from repro.simulation.streaming import RecoveryRunResult, SchemeResult

TIMING_LINE = re.compile(r" in [0-9.]+s\]")

SETTINGS = SweepSettings(scale=0.02, seed=3)


@pytest.fixture(autouse=True)
def fresh_caches():
    common.clear_caches()
    yield
    common.clear_caches()


# -- the dedup plan ---------------------------------------------------------------


def test_sweep_figures_share_units():
    """Figs 4/7/8/10 declare the same sweep; fig05 is its 8000 column."""
    sweep_keys = {u.cache_key() for u in units_for("fig04", 0.02, 3)}
    for other in ("fig07", "fig08", "fig10"):
        assert {u.cache_key() for u in units_for(other, 0.02, 3)} == sweep_keys
    fig05_keys = {u.cache_key() for u in units_for("fig05", 0.02, 3)}
    assert fig05_keys < sweep_keys
    assert {u.cache_key() for u in units_for("control-messages", 0.02, 3)} == fig05_keys


def test_probe_figures_share_units():
    keys06 = {u.cache_key() for u in units_for("fig06", 0.02, 3)}
    keys09 = {u.cache_key() for u in units_for("fig09", 0.02, 3)}
    assert keys06 == keys09
    assert all(u.probe == DEFAULT_PROBE for u in units_for("fig06", 0.02, 3))


def test_full_rost_variant_dedups_against_sweep():
    """The identity ablation variant is literally the sweep's rost run."""
    sweep_keys = {u.cache_key() for u in units_for("fig04", 0.02, 3)}
    ablation = units_for("ablation-rost", 0.02, 3)
    assert sum(1 for u in ablation if u.cache_key() in sweep_keys) == 1


def test_plan_dedups_across_figures():
    jobs = [
        ExperimentJob.make(fid, scale=0.02, seed=3)
        for fid in ("fig04", "fig07", "fig05", "fig06", "fig09")
    ]
    pool = ExperimentPool(jobs=4)
    units_by_job, unique_units = pool._plan_units(jobs)
    assert all(declared is not None for declared in units_by_job)
    declared_total = sum(len(declared) for declared in units_by_job)
    # 25 sweep + 5 probe units; everything else is a duplicate view.
    assert len(unique_units) == 30
    assert declared_total > len(unique_units)
    keys = [u.cache_key() for u in unique_units]
    assert len(keys) == len(set(keys))


def test_undeclared_experiment_falls_back_to_whole_job():
    assert units_for("faults_scenario", 0.02, 3) is None


def test_declarer_error_fails_the_plan(monkeypatch):
    """A declarer bug surfaces at plan time instead of silently sending
    the figure down the whole-job path, which re-simulates it."""

    def broken(**_):
        raise TypeError("declarer bug")

    monkeypatch.setitem(
        registry.REGISTRY,
        "fig04",
        dataclasses.replace(registry.REGISTRY["fig04"], units=broken),
    )
    with pytest.raises(TypeError, match="declarer bug"):
        run_jobs([ExperimentJob.make("fig04", scale=0.02, seed=3)], parallel_jobs=2)


# -- exact payload round-trips -----------------------------------------------------

finite_or_special = st.floats(allow_nan=True, allow_infinity=True, width=64)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
counts = st.integers(min_value=0, max_value=2**31)


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _churn_result(draw_floats, draw_counts, series_values) -> ChurnRunResult:
    metrics = ChurnMetrics(0.0, 100.0, mean_lifetime_s=draw_floats[0])
    metrics.disruption_events = draw_counts[0]
    metrics.disruptions_per_departed = list(draw_counts[:4])
    metrics.node_seconds = draw_floats[1]
    metrics.delay_samples_ms = list(draw_floats[2:5])
    metrics.stretch_samples = list(draw_floats[5:7])
    messages = MessageStats()
    messages.counts[MessageType.JOIN] = draw_counts[1]
    probe = TimeSeries()
    for i, value in enumerate(series_values):
        probe.append(float(i), value)
    return ChurnRunResult(
        protocol_name="rost",
        config=SETTINGS.config(2000),
        metrics=metrics,
        messages=messages,
        sessions_total=draw_counts[2],
        sessions_rejected=draw_counts[3],
        probe_disruptions=probe,
        probe_delay_ms=None,
        extras={"events_processed": draw_floats[7], "switches": draw_counts[0]},
    )


@settings(max_examples=25, deadline=None)
@given(
    draw_floats=st.lists(finite_or_special, min_size=8, max_size=8),
    draw_counts=st.lists(counts, min_size=4, max_size=4),
    series_values=st.lists(st.one_of(counts, finite), max_size=6),
)
def test_churn_result_payload_round_trips_exactly(
    draw_floats, draw_counts, series_values
):
    result = _churn_result(draw_floats, draw_counts, series_values)
    payload = result.to_payload()
    blob = json.dumps(payload, separators=(",", ":"))
    rebuilt = ChurnRunResult.from_payload(json.loads(blob))
    assert _canonical(rebuilt.to_payload()) == _canonical(payload)
    # The int/float distinction survives: a probe count of 0 must not
    # come back as 0.0 (it would leak into --json as a trailing ".0").
    rebuilt_values = rebuilt.probe_disruptions.values
    assert [type(v) for v in rebuilt_values] == [type(v) for v in series_values]


@settings(max_examples=25, deadline=None)
@given(
    ratios=st.lists(finite_or_special, max_size=6),
    tallies=st.lists(counts, min_size=5, max_size=5),
    span=finite,
)
def test_recovery_result_payload_round_trips_exactly(ratios, tallies, span):
    scheme = RecoveryScheme(
        name="cer-k3", group_size=3, use_mlc=True, striped=True, buffer_s=15.0
    )
    scheme_result = SchemeResult(scheme=scheme)
    scheme_result.ratios = list(ratios)
    scheme_result.total_starving_s = span
    scheme_result.episodes = tallies[0]
    scheme_result.gap_packets_total = tallies[1]
    scheme_result.repaired_packets_total = tallies[2]
    scheme_result.group_tree_correlation_sum = tallies[3]
    scheme_result.groups_selected = tallies[4]
    result = RecoveryRunResult(
        churn=_churn_result([1.5] * 8, [2] * 4, []),
        schemes={"cer-k3": scheme_result},
    )
    payload = result.to_payload()
    blob = json.dumps(payload, separators=(",", ":"))
    rebuilt = RecoveryRunResult.from_payload(json.loads(blob))
    assert _canonical(rebuilt.to_payload()) == _canonical(payload)
    assert dataclasses.asdict(rebuilt.schemes["cer-k3"].scheme) == dataclasses.asdict(
        scheme
    )


def test_executed_unit_payload_seeds_an_identical_cache_entry():
    """run_unit_task -> seed_unit reproduces the local cache entry exactly."""
    unit = ChurnUnit("min-depth", 2000, SETTINGS)
    blob = run_unit_task(unit)
    direct = run_unit(ChurnUnit("min-depth", 2000, SETTINGS))
    common.clear_caches()
    seed_unit(unit, blob)
    seeded = run_unit(ChurnUnit("min-depth", 2000, SETTINGS))
    assert common.cache_stats()["churn_hits"] == 1
    assert _canonical(seeded.to_payload()) == _canonical(direct.to_payload())


@pytest.mark.parametrize("experiment_id", ["fig06", "fig09"])
def test_probe_figure_demuxes_without_an_underlay(experiment_id, monkeypatch):
    """A probe figure's view reads the probe's join time off its results,
    so demuxing seeded units builds no underlay."""
    job = ExperimentJob.make(experiment_id, scale=0.02, seed=3)
    serial = execute_job(job)
    payloads = [(unit, run_unit_task(unit)) for unit in units_for(experiment_id, 0.02, 3)]
    common.clear_caches()
    for unit, blob in payloads:
        seed_unit(unit, blob)

    def no_underlay(config):
        raise AssertionError("demux built an underlay")

    monkeypatch.setattr(common, "shared_topology", no_underlay)
    demuxed = execute_job(job)
    assert demuxed.table == serial.table
    assert json.dumps(demuxed.data, sort_keys=True) == json.dumps(
        serial.data, sort_keys=True
    )


# -- byte-identity: unit-scheduled vs serial ---------------------------------------

BATCH_IDS = ("fig05", "control-messages", "fig13")


def _snapshot(results):
    return json.dumps(
        [
            {
                "table": r.table,
                "data": r.data,
                "artifacts": {
                    k: v for k, v in (r.artifacts or {}).items() if k != "profile"
                },
            }
            for r in results
        ],
        default=str,
        sort_keys=True,
    )


def _run_batch(jobs_n):
    common.clear_caches()
    batch = [ExperimentJob.make(fid, scale=0.02, seed=3) for fid in BATCH_IDS]
    return run_jobs(batch, parallel_jobs=jobs_n)


def test_unit_scheduled_matches_serial_including_obs_traces(monkeypatch):
    monkeypatch.setenv("REPRO_OBS_TRACE", "1")
    serial = _snapshot(_run_batch(1))
    parallel = _snapshot(_run_batch(4))
    assert parallel == serial
    # Every simulation the parallel run's figures consumed was seeded
    # from a worker payload — none re-simulated in the parent.
    stats = common.cache_stats()
    assert stats["churn_misses"] == 0
    assert stats["recovery_misses"] == 0
    assert stats["churn_hits"] > 0


def test_parallel_campaign_executes_each_unit_once(tmp_path, monkeypatch):
    store_root = tmp_path / "runstore"
    monkeypatch.setenv("REPRO_STORE_DIR", str(store_root))
    first = _snapshot(_run_batch(4))
    with sqlite3.connect(store_root / "ledger.sqlite") as conn:
        rows = conn.execute(
            "select experiment_id, executions, hits from units "
            "where experiment_id like 'sim:%'"
        ).fetchall()
    assert rows, "parallel campaign should record simulation units"
    assert all(executions == 1 for _, executions, _ in rows)
    assert all(hits == 0 for _, _, hits in rows)

    # Resume: completed units replay from the store, executions stay 1.
    monkeypatch.setenv("REPRO_STORE_RESUME", "1")
    with sqlite3.connect(store_root / "ledger.sqlite") as conn:
        conn.execute("delete from units where experiment_id not like 'sim:%'")
        conn.commit()
    resumed = _snapshot(_run_batch(4))
    assert resumed == first
    with sqlite3.connect(store_root / "ledger.sqlite") as conn:
        rows = conn.execute(
            "select executions, hits from units where experiment_id like 'sim:%'"
        ).fetchall()
    assert all(executions == 1 for executions, _ in rows)
    assert all(hits >= 1 for _, hits in rows)


# -- SIGKILL mid-sweep, resume at unit granularity ---------------------------------

_SWEEP_SCRIPT = """
import json, sys
sys.path.insert(0, "src")
from repro.experiments import common
from repro.experiments.pool import ExperimentJob, run_jobs

out_path, jobs_n = sys.argv[1], int(sys.argv[2])
batch = [
    ExperimentJob.make(fid, scale=0.02, seed=3)
    for fid in ("fig05", "control-messages", "fig13")
]
results = run_jobs(batch, parallel_jobs=jobs_n)
snap = [{"table": r.table, "data": r.data} for r in results]
with open(out_path, "w") as handle:
    json.dump(snap, handle, sort_keys=True, default=str)
"""


@pytest.mark.slow
def test_sigkill_mid_sweep_resumes_at_unit_granularity(tmp_path):
    repo = str(Path(__file__).resolve().parents[1])
    script = tmp_path / "sweep.py"
    script.write_text(_SWEEP_SCRIPT)
    env = dict(os.environ, PYTHONPATH="src")

    def run(out, extra_env):
        subprocess.run(
            [sys.executable, str(script), str(out), "4"],
            cwd=repo,
            env=dict(env, **extra_env),
            check=True,
        )

    run(tmp_path / "base.json", {})

    store_root = tmp_path / "killed.runstore"
    ledger = store_root / "ledger.sqlite"
    proc = subprocess.Popen(
        [sys.executable, str(script), str(tmp_path / "dead.json"), "4"],
        cwd=repo,
        env=dict(env, REPRO_STORE_DIR=str(store_root)),
        start_new_session=True,
    )
    try:
        deadline = time.time() + 120
        committed = 0
        while time.time() < deadline:
            if ledger.exists():
                try:
                    with sqlite3.connect(ledger) as conn:
                        committed = conn.execute(
                            "select count(*) from units "
                            "where experiment_id like 'sim:%'"
                        ).fetchone()[0]
                except sqlite3.OperationalError:
                    committed = 0
            if committed >= 1 or proc.poll() is not None:
                break
            time.sleep(0.05)
        assert committed >= 1 or proc.poll() is not None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)

    run(
        tmp_path / "resumed.json",
        {"REPRO_STORE_DIR": str(store_root), "REPRO_STORE_RESUME": "1"},
    )
    assert (tmp_path / "resumed.json").read_bytes() == (
        tmp_path / "base.json"
    ).read_bytes()
    with sqlite3.connect(ledger) as conn:
        rows = conn.execute(
            "select executions from units where experiment_id like 'sim:%'"
        ).fetchall()
    assert rows
    assert all(executions == 1 for (executions,) in rows)
