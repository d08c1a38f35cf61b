"""One seam instruments every harness simulation.

:class:`repro.experiments.common.Instruments` decides, from the run
flags alone, which invariant checker and which obs channels ride a
simulation: sweep units, campaign cells, ext-rescue and ext-multitree
alike.  ``--check-invariants`` travels only in ``REPRO_CHECK_INVARIANTS``
(strict under ``run``/``all``, reporting under the campaign
subcommands), and the simulation drivers read no run flag.
"""

import json
import os
from pathlib import Path

import pytest

from repro.errors import InvariantError
from repro.experiments import runner
from repro.experiments.common import Instruments, SweepSettings, exported_env
from repro.experiments.pool import ExperimentJob
from repro.experiments.units import ChurnUnit, sim_unit_store_key
from repro.invariants import (
    CHECK_REPORT,
    ENV_CHECK_INVARIANTS,
    REGISTRY,
    Invariant,
    InvariantChecker,
    register_invariant,
)
from repro.multitree import MultiTreeSimulation
from repro.obs.capture import ENV_TRACE, job_capture
from repro.obs.schema import validate_trace_lines
from repro.protocols import PROTOCOLS
from repro.store.runstore import RunStore

from .conftest import small_sim_config

SMOKE_SPEC = str(
    Path(__file__).resolve().parents[1] / "examples" / "campaigns" / "smoke.json"
)


@pytest.fixture
def planted_violation():
    """An always-firing registered invariant: every checked run violates it."""
    name = "planted-always-fires"
    register_invariant(
        Invariant(
            name=name,
            layer="sim",
            description="test plant: fires at every quiescent sweep",
            check=lambda ctx: iter([{"message": "planted violation"}]),
        )
    )
    try:
        yield name
    finally:
        REGISTRY.pop(name)


def test_checker_follows_the_mode():
    with exported_env({ENV_CHECK_INVARIANTS: None}):
        instruments = Instruments()
        assert instruments.checker() is False
        assert instruments.checkers == []
    with exported_env({ENV_CHECK_INVARIANTS: "1"}):
        instruments = Instruments()
        first, second = instruments.checker(), instruments.checker()
    with exported_env({ENV_CHECK_INVARIANTS: CHECK_REPORT}):
        reporting = Instruments().checker()
    assert isinstance(first, InvariantChecker) and first.strict
    assert first is not second
    assert instruments.checkers == [first, second]
    assert isinstance(reporting, InvariantChecker) and not reporting.strict


def test_ext_rescue_is_traced(tmp_path, capsys):
    trace = tmp_path / "rescue.trace.jsonl"
    code = runner.main([
        "run", "ext-rescue",
        "--scale", "0.02",
        "--seed", "3",
        "--jobs", "1",
        "--trace", str(trace),
        "--metrics",
    ])
    assert code == 0
    lines = trace.read_text().splitlines()
    assert validate_trace_lines(lines) == len(lines) > 0
    assert "== metrics (2 runs) ==" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "ext-multitree", "--scale", "0.02"],
        ["run", "ext-rescue", "--scale", "0.02"],
        ["run", "faults_campaign", "--scale", "0.05"],
    ],
    ids=["ext-multitree", "ext-rescue", "faults_campaign"],
)
def test_run_check_invariants_is_strict_everywhere(planted_violation, argv):
    with pytest.raises(InvariantError, match=planted_violation):
        runner.main([*argv, "--seed", "3", "--jobs", "1", "--check-invariants"])
    assert ENV_CHECK_INVARIANTS not in os.environ


def test_campaign_subcommand_reports_and_exits_1(
    planted_violation, tmp_path, capsys
):
    report = tmp_path / "report.json"
    code = runner.main([
        "faults_campaign", SMOKE_SPEC,
        "--scale", "0.05",
        "--jobs", "1",
        "--check-invariants",
        "--json", str(report),
    ])
    assert code == 1
    data = json.loads(report.read_text())
    runs = data["runs"]
    assert data["invariant_violations"] == sum(
        run["invariants"]["violations"] for run in runs
    )
    for run in runs:
        assert run["invariants"]["checked"]
        assert run["invariants"]["violations"] > 0
        assert run["invariants"]["reports"][0]["invariant"] == planted_violation
    out = capsys.readouterr().out
    assert (
        f"invariants: {data['invariant_violations']} violation(s) across "
        f"{len(runs)} checked run(s)" in out
    )


def test_bare_multitree_run_reads_no_run_flag():
    """The driver attaches nothing itself: a traced environment and an
    open job capture see no unit from a bare K-tree run."""
    with exported_env({ENV_TRACE: "1", ENV_CHECK_INVARIANTS: "1"}):
        with job_capture() as capture:
            sim = MultiTreeSimulation(
                small_sim_config(population=40, seed=9),
                PROTOCOLS["min-depth"],
                num_trees=2,
            )
            sim.run()
    assert capture is not None and capture.units == []
    assert all(churn.invariant_checker is None for churn in sim._churns)


#: Keys the store computed before the checking mode entered them; the
#: unchecked and strict ones must never move.
_JOB = ExperimentJob.make(
    "faults_scenario", scale=0.05, seed=3, scenario="outage", protocol="rost"
)
_UNIT = ChurnUnit("rost", 2000, SweepSettings(scale=0.05, seed=3))
_PINNED_KEYS = {
    None: (
        "4263dbdc1e26ffe76c2730ec09b7e03c8922703cf67b8f2ececd571d37551df5",
        "160b7860192a62e6c59f955c733e934565c5dc3517126e07ce7af8005df2746b",
    ),
    "1": (
        "43ae50b91c47dc5f83c1be7d7e0fe96ee7f1439b9782407a704f55907edfbb1e",
        "2ffe3ecfad5a757e14b5e5b4663d7eeb7b04fa12b75acb764f8da4ecd6dc5e94",
    ),
}


def _keys(store: RunStore, mode):
    with exported_env({ENV_CHECK_INVARIANTS: mode}):
        return store.job_key(_JOB), sim_unit_store_key(_UNIT)


def test_store_keys_carry_the_checking_mode(tmp_path):
    store = RunStore(str(tmp_path / "keys.runstore"))
    for mode, pinned in _PINNED_KEYS.items():
        assert _keys(store, mode) == pinned
    reporting = _keys(store, CHECK_REPORT)
    for pinned in _PINNED_KEYS.values():
        assert reporting[0] != pinned[0]
        assert reporting[1] != pinned[1]
