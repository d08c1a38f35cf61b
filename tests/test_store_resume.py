"""Checkpointed campaigns: ``--store`` / ``--resume`` end-to-end.

The contract under test: a run interrupted at any point and restarted
with ``--resume`` produces ``--out``/``--json`` files *byte-identical*
to an uninterrupted run, at any ``--jobs`` value, and the completed
units are verifiably replayed (ledger ``executions`` stays 1, ``hits``
increments) rather than re-executed.
"""

import json
import os
import shutil
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import common
from repro.experiments.runner import main
from repro.store import RunStore

SPEC = {
    "name": "resume-small",
    "population": 400,
    "warmup_lifetimes": 0.25,
    "measure_lifetimes": 0.5,
    "protocols": ["min-depth"],
    "seeds": [1],
    "group_size": 2,
    "root_bandwidth": 6.0,
    "scenarios": [
        {"name": "baseline", "faults": []},
        {
            "name": "outage",
            "faults": [
                {"kind": "stub-domain-outage", "domains": 2, "at_frac": 0.6}
            ],
        },
    ],
}
SCALE = "0.1"


@pytest.fixture(autouse=True)
def fresh_caches():
    common.clear_caches()
    yield
    common.clear_caches()


def _campaign_args(spec_path, out, json_path, *extra):
    return [
        "faults_campaign",
        str(spec_path),
        "--scale",
        SCALE,
        "--jobs",
        "1",
        "--out",
        str(out),
        "--json",
        str(json_path),
        *extra,
    ]


@pytest.fixture(scope="module")
def seeded_campaign(tmp_path_factory):
    """Baseline output bytes plus a fully-populated store to clone from."""
    base = tmp_path_factory.mktemp("campaign")
    spec_path = base / "spec.json"
    spec_path.write_text(json.dumps(SPEC))

    common.clear_caches()
    assert main(_campaign_args(spec_path, base / "base.txt", base / "base.json")) == 0

    store_root = base / "full.runstore"
    common.clear_caches()
    code = main(
        _campaign_args(
            spec_path,
            base / "stored.txt",
            base / "stored.json",
            "--store",
            str(store_root),
        )
    )
    assert code == 0
    # A store-recording run changes nothing observable.
    assert (base / "stored.txt").read_bytes() == (base / "base.txt").read_bytes()
    assert (base / "stored.json").read_bytes() == (base / "base.json").read_bytes()
    return {
        "spec_path": spec_path,
        "out": (base / "base.txt").read_bytes(),
        "json": (base / "base.json").read_bytes(),
        "store": store_root,
    }


def _interrupt(store_root: Path) -> str:
    """Simulate a mid-run crash: forget one completed unit.

    Equivalent to a kill landing after the first per-unit transaction
    committed — the remaining rows are exactly what a restarted process
    finds.  Returns the forgotten unit's key.
    """
    conn = sqlite3.connect(str(store_root / "ledger.sqlite"))
    victim = conn.execute(
        "SELECT unit_key FROM units ORDER BY unit_key LIMIT 1"
    ).fetchone()[0]
    with conn:
        conn.execute("DELETE FROM units WHERE unit_key = ?", (victim,))
    conn.close()
    return victim


@pytest.mark.parametrize("jobs", [1, 4])
def test_resume_is_byte_identical_and_skips_completed_units(
    seeded_campaign, tmp_path, jobs
):
    store_root = tmp_path / "interrupted.runstore"
    shutil.copytree(seeded_campaign["store"], store_root)
    victim = _interrupt(store_root)

    args = _campaign_args(
        seeded_campaign["spec_path"],
        tmp_path / "resumed.txt",
        tmp_path / "resumed.json",
        "--store",
        str(store_root),
        "--resume",
    )
    args[args.index("--jobs") + 1] = str(jobs)
    assert main(args) == 0

    assert (tmp_path / "resumed.txt").read_bytes() == seeded_campaign["out"]
    assert (tmp_path / "resumed.json").read_bytes() == seeded_campaign["json"]

    store = RunStore(str(store_root))
    rows = store.ledger.units()
    assert len(rows) == 2  # the forgotten unit was re-executed and re-recorded
    for row in rows:
        assert row["executions"] == 1  # completed units never re-ran
        if row["unit_key"] == victim:
            assert row["hits"] == 0  # fresh execution, not a replay
        else:
            assert row["hits"] == 1  # replayed from the store
    run = store.ledger.runs()[-1]
    assert run["units_total"] == 2
    assert run["units_replayed"] == 1


def test_full_store_resume_replays_everything(seeded_campaign, tmp_path):
    """Resuming a *finished* run executes nothing and is still identical."""
    store_root = tmp_path / "finished.runstore"
    shutil.copytree(seeded_campaign["store"], store_root)

    args = _campaign_args(
        seeded_campaign["spec_path"],
        tmp_path / "resumed.txt",
        tmp_path / "resumed.json",
        "--store",
        str(store_root),
        "--resume",
    )
    assert main(args) == 0
    assert (tmp_path / "resumed.txt").read_bytes() == seeded_campaign["out"]
    assert (tmp_path / "resumed.json").read_bytes() == seeded_campaign["json"]

    store = RunStore(str(store_root))
    assert all(row["executions"] == 1 for row in store.ledger.units())
    run = store.ledger.runs()[-1]
    assert run["units_replayed"] == run["units_total"] == 2


def _fig05_args(store_root: Path, jobs: int, *extra: str) -> list:
    return [
        "run", "fig05", "--scale", "0.02", "--seed", "3",
        "--jobs", str(jobs), "--store", str(store_root), *extra,
    ]


def test_serial_run_checkpoints_units_like_a_parallel_run(tmp_path):
    """``--jobs 1`` records the same simulation units as ``--jobs 2``, so
    a serial run killed mid-figure resumes at unit granularity too."""
    sim_keys = {}
    for jobs in (1, 2):
        store_root = tmp_path / f"jobs{jobs}.runstore"
        common.clear_caches()
        assert main(_fig05_args(store_root, jobs)) == 0
        rows = RunStore(str(store_root)).ledger.units()
        assert sorted(row["experiment_id"] for row in rows) == [
            "fig05", *["sim:churn"] * 5
        ]
        sim_keys[jobs] = {
            row["unit_key"] for row in rows if row["experiment_id"] == "sim:churn"
        }
    assert sim_keys[1] == sim_keys[2]

    # A crash after four of the five units: the figure row and one unit
    # row are missing, and the serial resume simulates that unit only.
    store_root = tmp_path / "jobs1.runstore"
    store = RunStore(str(store_root))
    victim = sorted(sim_keys[1])[0]
    for row in store.ledger.units("fig05"):
        store.ledger.forget_unit(row["unit_key"])
    store.ledger.forget_unit(victim)
    common.clear_caches()
    assert main(_fig05_args(store_root, 1, "--resume")) == 0
    rows = store.ledger.units("sim:churn")
    assert {row["unit_key"] for row in rows} == sim_keys[1]
    assert all(row["executions"] == 1 for row in rows)
    assert [row["unit_key"] for row in rows if row["hits"] == 0] == [victim]


def test_checked_resume_does_not_replay_unchecked_rows(tmp_path):
    """``--resume --check-invariants`` over a store an unchecked run
    filled must simulate under the checker, not replay the figure row."""
    store_root = tmp_path / "fig05.runstore"
    assert main(_fig05_args(store_root, 1)) == 0
    common.clear_caches()
    assert main(_fig05_args(store_root, 1, "--resume", "--check-invariants")) == 0
    store = RunStore(str(store_root))
    assert store.ledger.runs()[-1]["units_replayed"] == 0
    checked = [
        row
        for row in store.ledger.units("sim:churn")
        if json.loads(row["params_json"])["checked"]
    ]
    assert len(checked) == 5
    assert all(row["executions"] == 1 for row in checked)


def test_resume_without_store_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "fig04", "--scale", "0.02", "--resume"])
    assert excinfo.value.code == 2
    assert "--resume requires --store" in capsys.readouterr().err


def test_store_stats_go_to_stderr_not_stdout(seeded_campaign, tmp_path, capsys):
    """The byte-identity contract lives or dies on this routing."""
    store_root = tmp_path / "stats.runstore"
    shutil.copytree(seeded_campaign["store"], store_root)
    args = _campaign_args(
        seeded_campaign["spec_path"],
        tmp_path / "resumed.txt",
        tmp_path / "resumed.json",
        "--store",
        str(store_root),
        "--resume",
    )
    assert main(args) == 0
    captured = capsys.readouterr()
    assert "[store]" in captured.err
    assert "[store]" not in captured.out


@pytest.mark.slow
def test_sigkill_resume_byte_identity(tmp_path):
    """The real thing: SIGKILL a campaign mid-run, resume, compare bytes.

    Mirrors the CI ``store-smoke`` job but stays self-contained so it
    can run anywhere with ``-m slow``.
    """
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    env = dict(os.environ, PYTHONPATH="src")
    repo = str(Path(__file__).resolve().parents[1])

    def run(*extra, out, json_path):
        cmd = [
            sys.executable,
            "-m",
            "repro.experiments",
            *_campaign_args(spec_path, out, json_path, *extra),
        ]
        subprocess.run(cmd, cwd=repo, env=env, check=True)

    run(out=tmp_path / "base.txt", json_path=tmp_path / "base.json")

    store_root = tmp_path / "killed.runstore"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments",
            *_campaign_args(
                spec_path,
                tmp_path / "dead.txt",
                tmp_path / "dead.json",
                "--store",
                str(store_root),
            ),
        ],
        cwd=repo,
        env=env,
        start_new_session=True,
    )
    ledger_path = store_root / "ledger.sqlite"
    deadline = time.monotonic() + 300.0
    committed = 0
    try:
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break  # finished before we could kill it: still a valid resume
            if ledger_path.exists():
                try:
                    conn = sqlite3.connect(str(ledger_path), timeout=5.0)
                    committed = conn.execute(
                        "SELECT COUNT(*) FROM units"
                    ).fetchone()[0]
                    conn.close()
                except sqlite3.Error:
                    committed = 0
            if committed >= 1:
                break
            time.sleep(0.05)
        assert committed >= 1 or proc.poll() is not None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)

    run(
        "--store",
        str(store_root),
        "--resume",
        out=tmp_path / "resumed.txt",
        json_path=tmp_path / "resumed.json",
    )
    assert (tmp_path / "resumed.txt").read_bytes() == (
        tmp_path / "base.txt"
    ).read_bytes()
    assert (tmp_path / "resumed.json").read_bytes() == (
        tmp_path / "base.json"
    ).read_bytes()

    store = RunStore(str(store_root))
    rows = store.ledger.units()
    assert len(rows) == 2
    assert all(row["executions"] == 1 for row in rows)
