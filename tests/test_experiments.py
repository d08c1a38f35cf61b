"""Experiment registry and tiny-scale experiment runs.

Every registered experiment must run end-to-end at a tiny scale and
produce a well-formed table plus raw data.  These are integration tests
of the whole stack (topology -> workload -> protocols -> metrics ->
reporting).
"""

import pytest

from repro.experiments import common, get_experiment, list_experiments
from repro.experiments.registry import REGISTRY

TINY = dict(scale=0.02, seed=5)

FIGURE_IDS = [
    "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
    "fig10", "fig11", "fig12", "fig13", "fig14",
]
ALL_IDS = [
    "ablation-recovery",
    "ablation-rost",
    "control-messages",
    "ext-multitree",
    "ext-rescue",
    "faults_campaign",
    "faults_scenario",
] + FIGURE_IDS + [
    "multitree_resilience",
    "multitree_scenario",
]


@pytest.fixture(scope="module", autouse=True)
def fresh_caches():
    common.clear_caches()
    yield
    common.clear_caches()


def test_registry_complete():
    assert sorted(REGISTRY) == ALL_IDS
    for experiment in list_experiments():
        assert experiment.title
        if experiment.experiment_id in FIGURE_IDS:
            assert experiment.paper_artifact.startswith("Figure")
        else:
            assert experiment.paper_artifact == "Extension"


def test_unknown_experiment_raises():
    with pytest.raises(KeyError):
        get_experiment("fig99")


def test_duplicate_registration_rejected():
    from repro.experiments.registry import register

    with pytest.raises(ValueError):
        register("fig04", "dup", "Figure 4")(lambda **kw: None)


@pytest.mark.parametrize("experiment_id", ["fig04", "fig07", "fig08", "fig10"])
def test_size_sweep_experiments(experiment_id):
    result = get_experiment(experiment_id).run(sizes=(2000, 5000), **TINY)
    assert result.experiment_id == experiment_id
    assert result.table.strip()
    assert set(result.data["series"]) == {
        "min-depth", "longest-first", "relaxed-bo", "relaxed-to", "rost",
    }
    for values in result.data["series"].values():
        assert len(values) == 2


def test_fig05_cdf_rows_monotone():
    result = get_experiment("fig05").run(population=2000, **TINY)
    for name, fractions in result.data["series"].items():
        assert all(a <= b + 1e-9 for a, b in zip(fractions, fractions[1:])), name
        assert fractions[-1] == pytest.approx(100.0)


def test_fig06_cumulative_series():
    result = get_experiment("fig06").run(population=2000, **TINY)
    for name, values in result.data["series"].items():
        assert all(a <= b for a, b in zip(values, values[1:])), name


def test_fig09_delay_series_positive():
    import math

    result = get_experiment("fig09").run(population=2000, **TINY)
    for name, values in result.data["series"].items():
        finite = [v for v in values if not math.isnan(v)]
        assert finite and all(v > 0 for v in finite), name


def test_fig11_interval_sweep():
    result = get_experiment("fig11").run(
        population=2000, intervals=(480.0, 1800.0), **TINY
    )
    series = result.data["series"]
    assert len(series["disruptions/node"]) == 2
    assert all(v >= 0 for v in series["reconnections/node"])


def test_fig12_recovery_sweep():
    result = get_experiment("fig12").run(sizes=(2000, 5000), **TINY)
    series = result.data["series"]
    assert set(series) == {"1", "2", "3", "4"}
    assert all(0 <= v <= 100 for vs in series.values() for v in vs)


def test_fig13_buffer_sweep():
    result = get_experiment("fig13").run(population=2000, **TINY)
    assert set(result.data["series"]) == {"group=1", "group=2", "group=3"}
    assert "starving time ratio % vs buffer" in result.table


def test_fig14_combined_comparison():
    result = get_experiment("fig14").run(population=2000, replicas=2, **TINY)
    for k, row in result.data.items():
        assert row["rost_cer"][0] >= 0
        assert row["mindepth_ss"][0] >= 0


def test_ablation_rost_runs():
    result = get_experiment("ablation-rost").run(population=2000, **TINY)
    assert set(result.data) == {
        "full-rost", "no-promotion", "no-succession", "no-bw-guard",
        "no-referees", "swaps-only",
    }
    assert all(v["disruptions"] >= 0 for v in result.data.values())


def test_ablation_recovery_runs():
    result = get_experiment("ablation-recovery").run(population=2000, **TINY)
    assert "cer-k3-b5" in result.data
    assert "ss-k3-b5" in result.data
    assert all(0 <= v["starving_pct"] <= 100 for v in result.data.values())


def test_ext_multitree_runs():
    result = get_experiment("ext-multitree").run(
        population=2000, tree_counts=(1, 2), **TINY
    )
    assert set(result.data) == {"1", "2"}
    one, two = result.data["1"], result.data["2"]
    # with one tree every disruption is a blackout; with two, blackouts
    # can only shrink
    assert two["blackouts"] <= one["blackouts"] + 1e-9
    assert 0 <= two["quality_pct"] <= 100


def test_ext_rescue_runs():
    result = get_experiment("ext-rescue").run(population=2000, **TINY)
    assert set(result.data) == {"baseline", "rescue"}
    assert "starving time ratio % by CER group size" in result.table
    for k in ("1", "2", "3"):
        assert result.data["rescue"][k] <= result.data["baseline"][k] + 0.05


def test_control_messages_runs():
    result = get_experiment("control-messages").run(population=2000, **TINY)
    assert set(result.data) == {
        "min-depth", "longest-first", "relaxed-bo", "relaxed-to", "rost",
    }
    # only ROST generates referee traffic (and BTP queries, when the tiny
    # tree is deep enough to have non-root parents at all)
    assert result.data["rost"]["referee_assign"] > 0
    assert result.data["min-depth"]["btp_query"] == 0
    assert result.data["min-depth"]["referee_assign"] == 0
    for row in result.data.values():
        assert row["total"] > 0


def test_shared_sweeps_are_cached():
    """fig07 after fig04 must reuse the cached churn runs."""
    common.clear_caches()
    get_experiment("fig04").run(sizes=(2000,), **TINY)
    cached_before = dict(common._run_cache)
    get_experiment("fig07").run(sizes=(2000,), **TINY)
    # no new churn runs were needed
    assert set(common._run_cache) == set(cached_before)
