"""Differential oracles agree on a clean checkout, and their plumbing works."""

import pytest

from repro.errors import ValidationError
from repro.validate.differential import ORACLES, run_oracle, run_oracles
from repro.validate.report import REPORT_SCHEMA_VERSION


def _assert_clean(outcome):
    assert outcome.equal, [
        f"{d['path']}: {d['detail']}" for d in outcome.differences[:5]
    ]
    assert outcome.meta["comparisons"] > 0


class TestKernelOracles:
    def test_mlc_kernels_agree_after_faults(self):
        outcome = run_oracle("mlc_kernels", seed=0)
        _assert_clean(outcome)
        assert outcome.meta["members"] > 1
        assert outcome.meta["faults"] >= 1

    def test_join_selectors_and_valuations_agree(self):
        outcome = run_oracle("join_selection", seed=0)
        _assert_clean(outcome)
        assert outcome.meta["members"] > 1

    def test_delay_oracle_scalar_vs_batch(self):
        _assert_clean(run_oracle("delay_oracle", seed=0))

    def test_episode_pricing_closed_form_vs_packet_sim(self):
        _assert_clean(run_oracle("episode_pricing", seed=0))

    def test_different_seeds_replay_different_inputs(self):
        a = run_oracle("delay_oracle", seed=1)
        b = run_oracle("delay_oracle", seed=2)
        assert a.equal and b.equal
        assert a.meta["seed"] != b.meta["seed"]


class TestExecutionOracles:
    def test_resume_equals_uninterrupted(self):
        _assert_clean(run_oracle("resume"))

    def test_obs_on_equals_obs_off(self):
        _assert_clean(run_oracle("obs"))

    @pytest.mark.slow
    def test_serial_equals_parallel_workers(self):
        _assert_clean(run_oracle("jobs"))


class TestRegistry:
    def test_unknown_oracle(self):
        with pytest.raises(ValidationError, match="unknown differential"):
            run_oracle("nope")

    def test_run_oracles_subset_and_report_shape(self):
        report = run_oracles(["delay_oracle", "episode_pricing"], seed=3)
        assert [o.oracle for o in report.outcomes] == [
            "delay_oracle",
            "episode_pricing",
        ]
        assert report.passed
        payload = report.to_payload()
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        assert payload["kind"] == "differential"
        assert all(o["passed"] for o in payload["oracles"])

    def test_all_advertised_oracles_are_callable(self):
        assert set(ORACLES) == {
            "mlc_kernels",
            "join_selection",
            "delay_oracle",
            "episode_pricing",
            "jobs",
            "resume",
            "obs",
        }
