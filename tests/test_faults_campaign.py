"""Campaign specs, fan-out determinism, and the resilience report schema.

The spec tests run over both campaign stacks: the fault campaign and the
K-tree campaign share one base spec, validator and fan-out.
"""

import json
from pathlib import Path

import pytest

from repro.errors import FaultError
from repro.experiments import pool
from repro.experiments.common import exported_env
from repro.faults import (
    DEFAULT_CAMPAIGN_SPEC,
    CampaignSpec,
    load_campaign,
    resolve_campaign,
    run_campaign,
)
from repro.faults.campaign import REPORT_SCHEMA_VERSION
from repro.faults.schedule import dump_spec_file
from repro.invariants import CHECK_REPORT, ENV_CHECK_INVARIANTS
from repro.multitree.campaign import (
    DEFAULT_MULTITREE_SPEC,
    MultiTreeCampaignSpec,
    resolve_multitree_campaign,
)

SMALL_SPEC = {
    "name": "unit-small",
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
SCALE = 0.1  # population 40 under a 6-slot root: deep trees, fast runs

#: (spec class, its module-level resolver, built-in default, small spec).
STACKS = [
    pytest.param(
        CampaignSpec, resolve_campaign, DEFAULT_CAMPAIGN_SPEC, SMALL_SPEC,
        id="faults",
    ),
    pytest.param(
        MultiTreeCampaignSpec,
        resolve_multitree_campaign,
        DEFAULT_MULTITREE_SPEC,
        {**SMALL_SPEC, "tree_counts": [1, 2]},
        id="multitree",
    ),
]


@pytest.fixture(scope="module")
def small_reports():
    spec = CampaignSpec.from_spec(SMALL_SPEC)
    serial = run_campaign(spec, scale=SCALE, jobs=1)
    fanned = run_campaign(spec, scale=SCALE, jobs=2)
    return serial, fanned


@pytest.mark.parametrize("cls, resolve, default, small", STACKS)
def test_default_spec_round_trip(cls, resolve, default, small):
    spec = resolve(None)
    assert type(spec) is cls
    assert spec.name == default["name"]
    assert resolve(spec) is spec
    assert resolve(spec.canonical_json()) == spec
    assert cls.from_spec(spec.to_spec()) == spec
    assert cls.from_spec(small).to_spec() == small


@pytest.mark.parametrize("cls, resolve, default, small", STACKS)
def test_resolve_accepts_every_spec_form(cls, resolve, default, small, tmp_path):
    expected = cls.from_spec(small)
    assert resolve(None) == cls.from_spec(default)
    assert resolve(dict(small)) == expected
    assert resolve(json.dumps(small)) == expected
    assert resolve("  " + json.dumps(small)) == expected
    for suffix in (".json", ".toml"):
        path = str(tmp_path / f"spec{suffix}")
        dump_spec_file(path, small)
        assert resolve(path) == expected
        assert cls.load(path) == expected
    with pytest.raises(FaultError, match="cannot resolve"):
        resolve(3.5)
    with pytest.raises(FaultError, match="cannot resolve"):
        resolve(["not", "a", "spec"])
    with pytest.raises(FaultError, match="must be a mapping"):
        cls.from_spec([small])


@pytest.mark.parametrize("cls, resolve, default, small", STACKS)
def test_campaign_validation(cls, resolve, default, small):
    with pytest.raises(FaultError):
        cls.from_spec({**small, "bogus_key": 1})
    with pytest.raises(FaultError):
        cls.from_spec({**small, "scenarios": []})
    with pytest.raises(FaultError):
        cls.from_spec(
            {
                **small,
                "scenarios": [
                    {"name": "dup", "faults": []},
                    {"name": "dup", "faults": []},
                ],
            }
        )
    with pytest.raises(FaultError):
        cls.from_spec({**small, "seeds": [-3]})
    with pytest.raises(FaultError):
        cls.from_spec({**small, "root_bandwidth": 0.5})
    with pytest.raises(FaultError):
        resolve(3.5)


#: Specs both stacks must reject at load (each once loaded, then failed
#: mid-run or doubled the work).
SHARED_BAD_SPECS = {
    "root-bandwidth-below-stream-rate": (
        {"root_bandwidth": 0.5}, "root_bandwidth must be >= 1"
    ),
    "unknown-protocol": ({"protocols": ["bogus"]}, "unknown protocols"),
    "duplicate-protocols": (
        {"protocols": ["rost", "rost"]}, "duplicate protocols"
    ),
    "no-protocols": ({"protocols": []}, "at least one protocol"),
    "empty-name": ({"name": ""}, "name must be non-empty"),
    "empty-population": ({"population": 0}, "population must be >= 1"),
    "negative-warmup": ({"warmup_lifetimes": -1}, "warmup_lifetimes must be >= 0"),
    "empty-measurement": ({"measure_lifetimes": 0}, "measure_lifetimes must be > 0"),
    "no-buffer": ({"buffer_s": 0}, "buffer_s must be > 0"),
}


@pytest.mark.parametrize("cls, resolve, default, small", STACKS)
@pytest.mark.parametrize("case", sorted(SHARED_BAD_SPECS))
def test_shared_rules_reject_at_load(cls, resolve, default, small, case):
    override, message = SHARED_BAD_SPECS[case]
    with pytest.raises(FaultError, match=message):
        cls.from_spec({**small, **override})
    with pytest.raises(FaultError, match=message):
        resolve(json.dumps({**small, **override}))


@pytest.mark.parametrize(
    "cls, override, message",
    [
        pytest.param(
            CampaignSpec, {"group_size": 0}, "group_size must be >= 1",
            id="faults-group-size-0",
        ),
        pytest.param(
            MultiTreeCampaignSpec, {"group_size": -1}, "group_size must be >= 0",
            id="multitree-negative-group-size",
        ),
        pytest.param(
            MultiTreeCampaignSpec, {"tree_counts": []}, "at least one tree count",
            id="multitree-no-tree-counts",
        ),
        pytest.param(
            MultiTreeCampaignSpec, {"tree_counts": [0, 2]},
            "tree counts must be >= 1", id="multitree-zero-tree-count",
        ),
        pytest.param(
            MultiTreeCampaignSpec, {"tree_counts": [2, 2]},
            "duplicate tree counts", id="multitree-duplicate-tree-counts",
        ),
        pytest.param(
            CampaignSpec, {"tree_counts": [1, 2]}, "unknown campaign spec keys",
            id="faults-has-no-tree-counts",
        ),
        pytest.param(
            MultiTreeCampaignSpec, {"domain_aware": False},
            "unknown campaign spec keys", id="multitree-has-no-domain-aware",
        ),
    ],
)
def test_per_stack_rules_reject_at_load(cls, override, message):
    with pytest.raises(FaultError, match=message):
        cls.from_spec({**SMALL_SPEC, **override})


def test_multitree_group_size_zero_disables_repair_pricing():
    spec = MultiTreeCampaignSpec.from_spec({**SMALL_SPEC, "group_size": 0})
    assert spec.scheme_list() == []
    assert resolve_multitree_campaign(None).group_size == 0


@pytest.mark.parametrize(
    "resolve, derived",
    [
        pytest.param(resolve_campaign, (7, 8), id="faults"),
        pytest.param(resolve_multitree_campaign, (7,), id="multitree"),
    ],
)
def test_derived_seeds_feed_the_fan_out(monkeypatch, resolve, derived):
    """A spec without seeds runs ``derived`` from --seed 7; pinned seeds
    win.  The fan-out goes through the ``pool.run_jobs`` module attribute
    (a profiler that wraps it sees the nested jobs)."""
    spec = resolve(None)
    assert spec.run_seeds(7) == derived
    assert resolve({**spec.to_spec(), "seeds": [3]}).run_seeds(7) == (3,)

    batches = []

    class Planned(Exception):
        pass

    def capture(batch, parallel_jobs=None, timeout_s=None):
        batches.append(list(batch))
        raise Planned  # stop before anything simulates

    monkeypatch.setattr(pool, "run_jobs", capture)
    with pytest.raises(Planned):
        run_campaign(spec, scale=0.05, seed=7)
    (batch,) = batches
    assert len(batch) == len(spec.cells()) * len(derived)
    assert {job.experiment_id for job in batch} == {spec.UNIT_EXPERIMENT}
    assert [job.seed for job in batch] == list(derived) * len(spec.cells())


def test_scheme_list_includes_domain_aware_variant():
    spec = CampaignSpec.from_spec({**SMALL_SPEC, "domain_aware": True})
    names = [s.name for s in spec.scheme_list()]
    assert len(names) == 3
    assert sum(name.endswith("-da") for name in names) == 1
    plain = CampaignSpec.from_spec({**SMALL_SPEC, "domain_aware": False})
    assert len(plain.scheme_list()) == 2


def test_report_byte_identical_at_any_jobs(small_reports):
    serial, fanned = small_reports
    dump = lambda r: json.dumps(r.data, sort_keys=True, default=str)  # noqa: E731
    assert dump(serial) == dump(fanned)
    assert serial.table == fanned.table


def test_report_schema(small_reports):
    report, _ = small_reports
    data = report.data
    assert data["schema_version"] == REPORT_SCHEMA_VERSION
    assert data["campaign"] == "unit-small"
    assert data["scale"] == SCALE
    assert data["seeds"] == [1]
    assert data["protocols"] == ["min-depth"]
    assert data["scenarios"] == ["baseline", "outage"]
    assert len(data["runs"]) == 2  # 2 scenarios x 1 protocol x 1 seed
    for scenario in data["scenarios"]:
        entry = data["summary"][scenario]["min-depth"]
        for key in (
            "fault_disruption_events",
            "mttr_s",
            "mttr_churn_s",
            "delivered_data_ratio",
            "repair_success_rate",
            "mean_group_domain_correlation",
        ):
            assert key in entry
        assert set(entry["repair_success_rate"]) == set(data["schemes"])
    for run in data["runs"]:
        assert set(run) >= {
            "scenario",
            "protocol",
            "seed",
            "fault_log",
            "fault_disruption_events",
            "mttr_s",
            "delivered_data_ratio",
            "resilience",
            "schemes",
        }
        assert "disruption_events" in run["resilience"]
    baseline, outage = data["runs"]
    assert baseline["fault_disruption_events"] == 0
    assert outage["fault_disruption_events"] >= 1
    assert outage["fault_log"][0]["kind"] == "stub-domain-outage"


@pytest.mark.slow
def test_checked_report_byte_identical_across_jobs_and_seeds():
    """--jobs {1,2,4} x 3 seeds with invariant checking on: reports must
    be byte-identical and every run must come back checked and clean."""
    spec = CampaignSpec.from_spec({**SMALL_SPEC, "seeds": [1, 2, 3]})
    dumps = []
    for jobs in (1, 2, 4):
        with exported_env({ENV_CHECK_INVARIANTS: CHECK_REPORT}):
            report = run_campaign(spec, scale=SCALE, jobs=jobs)
        dumps.append(json.dumps(report.data, sort_keys=True, default=str))
        assert report.data["invariant_violations"] == 0
        runs = report.data["runs"]
        assert len(runs) == 6  # 2 scenarios x 1 protocol x 3 seeds
        for run in runs:
            assert run["invariants"]["checked"]
            assert run["invariants"]["sweeps"] > 0
            assert run["invariants"]["violations"] == 0
    assert dumps[0] == dumps[1] == dumps[2]


def test_example_campaign_specs_load():
    campaigns = Path(__file__).resolve().parents[1] / "examples" / "campaigns"
    mirror = load_campaign(str(campaigns / "stub_outage.json"))
    assert mirror == CampaignSpec.from_spec(DEFAULT_CAMPAIGN_SPEC)
    smoke = load_campaign(str(campaigns / "smoke.json"))
    assert smoke.root_bandwidth is not None  # deep trees even at tiny scale
    assert smoke.seeds  # pinned seeds: CI runs are reproducible
    assert any(
        fault.kind == "stub-domain-outage"
        for scenario in smoke.scenarios
        for fault in scenario.faults
    )


def test_experiments_registered():
    from repro.experiments import REGISTRY

    assert "faults_scenario" in REGISTRY
    assert "faults_campaign" in REGISTRY
