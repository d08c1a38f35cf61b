"""Mutation smoke tests: every deliberately-injected bug must be caught.

Each test plants one plausible regression — a metric skew, a kernel
off-by-one, a dropped repair path, a corrupted replay — and asserts that
a baseline gate or a differential oracle rejects it with a structured
failure report.  Together they demonstrate the validation subsystem has
teeth: a change that silently alters paper-relevant behavior cannot pass.

The in-process experiment caches are keyed by settings only (not by
monkeypatched code!), so every arm clears them — otherwise a mutated run
would happily replay the unmutated cached result and the mutation would
be invisible.
"""

import json

import numpy as np
import pytest

from repro.experiments.common import clear_caches
from repro.validate.baseline import Baseline, build_baseline, collect_samples
from repro.validate.differential import run_oracle
from repro.validate.gate import run_gate

#: Tiny per-figure operating points (2 seeds, reduced axes) so each
#: mutation round-trip (clean baseline + mutated re-run) stays around a
#: second.
OPERATING_POINTS = {
    "fig04": {"scale": 0.05, "seeds": [1, 2], "kwargs": {"sizes": [2000]}},
    "fig07": {"scale": 0.05, "seeds": [1, 2], "kwargs": {"sizes": [2000]}},
    "fig08": {"scale": 0.05, "seeds": [1, 2], "kwargs": {"sizes": [2000]}},
    "fig14": {
        "scale": 0.05,
        "seeds": [1, 2],
        "kwargs": {"population": 2000, "replicas": 2},
    },
}


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _gate_against_clean_baseline(experiment_id: str) -> "Baseline":
    point = OPERATING_POINTS[experiment_id]
    return build_baseline(
        experiment_id,
        scale=point["scale"],
        seeds=point["seeds"],
        kwargs=point["kwargs"],
    )


def _mutated_outcome(baseline: Baseline):
    """Re-run the baseline's experiment (mutation active) and gate it."""
    clear_caches()
    samples = collect_samples(
        baseline.experiment_id, baseline.scale, baseline.seeds, baseline.kwargs
    )
    return run_gate(baseline, samples=samples)


def _assert_structured_failure(payload: dict) -> None:
    """Any rejection must be a machine-readable report, not just an exit."""
    json.dumps(payload)  # serializable
    assert payload["passed"] is False
    if "metric_failures" in payload:
        failures = payload["metric_failures"] + [
            t for t in payload["trends"] if not t["passed"]
        ]
        assert failures
        assert all(f["detail"] for f in failures)
    else:
        assert payload["differences"]
        assert all(d["path"] and d["detail"] for d in payload["differences"])


# -- gate-caught mutations ---------------------------------------------------------


def test_delay_skew_caught_by_fig07_gate(monkeypatch):
    """Bug: service delays reported 1.5x too high (unit mix-up)."""
    from repro.metrics import collectors

    baseline = _gate_against_clean_baseline("fig07")
    original = collectors.ChurnMetrics.avg_service_delay_ms
    monkeypatch.setattr(
        collectors.ChurnMetrics,
        "avg_service_delay_ms",
        property(lambda self: original.fget(self) * 1.5),
    )
    outcome = _mutated_outcome(baseline)
    assert not outcome.passed
    assert any("series" in v.path for v in outcome.metric_failures)
    _assert_structured_failure(outcome.to_payload())


def test_disruption_undercount_caught_by_fig04_gate(monkeypatch):
    """Bug: half of all streaming disruptions go unrecorded."""
    from repro.metrics import collectors

    baseline = _gate_against_clean_baseline("fig04")
    original = collectors.ChurnMetrics.record_disruptions
    monkeypatch.setattr(
        collectors.ChurnMetrics,
        "record_disruptions",
        lambda self, t, affected: original(self, t, affected // 2),
    )
    outcome = _mutated_outcome(baseline)
    assert not outcome.passed
    _assert_structured_failure(outcome.to_payload())


def test_stretch_corruption_caught_by_fig08_gate(monkeypatch):
    """Bug: a constant additive error creeps into the stretch metric."""
    from repro.metrics import collectors

    baseline = _gate_against_clean_baseline("fig08")
    original = collectors.ChurnMetrics.avg_stretch
    monkeypatch.setattr(
        collectors.ChurnMetrics,
        "avg_stretch",
        property(lambda self: original.fget(self) + 0.5),
    )
    outcome = _mutated_outcome(baseline)
    assert not outcome.passed
    _assert_structured_failure(outcome.to_payload())


def test_dropped_repair_paths_caught_by_fig14_gate(monkeypatch):
    """Bug: MLC group selection silently returns one member, not k."""
    from repro.simulation import streaming

    baseline = _gate_against_clean_baseline("fig14")
    original = streaming.select_mlc_group
    monkeypatch.setattr(
        streaming,
        "select_mlc_group",
        lambda *args, **kwargs: original(*args, **kwargs)[:1],
    )
    outcome = _mutated_outcome(baseline)
    assert not outcome.passed
    _assert_structured_failure(outcome.to_payload())


# -- oracle-caught mutations -------------------------------------------------------


def test_stripe_timing_skew_caught_by_episode_oracle(monkeypatch):
    """Bug: striped repair arrivals shifted by a constant (an extra hop)."""
    from repro.recovery import episode

    original = episode._striped_arrivals

    def skewed(arrivals, packet_rate_pps, detect_s, request_hop_s, sources):
        outcome = original(
            arrivals, packet_rate_pps, detect_s, request_hop_s, sources
        )
        arrivals += 0.05
        return outcome

    monkeypatch.setattr(episode, "_striped_arrivals", skewed)
    outcome = run_oracle("episode_pricing", seed=0)
    assert not outcome.equal
    _assert_structured_failure(outcome.to_payload())


def test_view_builder_ignoring_exclude_caught_by_kernel_oracle(monkeypatch):
    """Bug: the one-pass view builder keeps excluded subtrees in the view."""
    from repro.recovery import mlc

    original = mlc.PartialTreeView.from_members.__func__
    monkeypatch.setattr(
        mlc.PartialTreeView,
        "from_members",
        classmethod(lambda cls, known, exclude=(): original(cls, known)),
    )
    outcome = run_oracle("mlc_kernels", seed=0)
    assert not outcome.equal
    assert any("from_members" in d["path"] for d in outcome.differences)
    _assert_structured_failure(outcome.to_payload())


def test_batch_delay_bias_caught_by_delay_oracle(monkeypatch):
    """Bug: the batch delay path gains a tiny constant bias."""
    from repro.topology import routing

    original = routing.DelayOracle.delays_from
    monkeypatch.setattr(
        routing.DelayOracle,
        "delays_from",
        lambda self, source, targets: original(self, source, targets) + 0.01,
    )
    outcome = run_oracle("delay_oracle", seed=0)
    assert not outcome.equal
    _assert_structured_failure(outcome.to_payload())


def test_corrupted_replay_caught_by_resume_oracle(monkeypatch):
    """Bug: store replay returns a subtly perturbed result payload."""
    from repro.store import runstore

    def _bump_first_float(data):
        if isinstance(data, dict):
            for key in sorted(data, key=str):
                if _bump_first_float(data[key]):
                    return True
                if isinstance(data[key], float) and np.isfinite(data[key]):
                    data[key] = data[key] * 1.01 + 0.01
                    return True
        elif isinstance(data, list):
            for index, item in enumerate(data):
                if _bump_first_float(item):
                    return True
                if isinstance(item, float) and np.isfinite(item):
                    data[index] = item * 1.01 + 0.01
                    return True
        return False

    original = runstore.RunStore.replay

    def corrupted(self, key):
        result = original(self, key)
        if result is not None:
            assert _bump_first_float(result.data), "no float leaf to corrupt"
        return result

    monkeypatch.setattr(runstore.RunStore, "replay", corrupted)
    outcome = run_oracle("resume", seed=0)
    assert not outcome.equal
    _assert_structured_failure(outcome.to_payload())


def test_selector_dropping_later_ties_caught_by_join_oracle(monkeypatch):
    """Bug: the min-depth pre-filter skips equal layers too (``>=``), so
    only the first candidate of the best layer survives and the delay
    tie-break never runs."""
    from repro.protocols import base

    def first_of_best_layer(self, node, candidates):
        best = None
        for candidate in candidates:
            if best is not None and candidate.layer >= best.layer:
                continue
            if candidate.spare_degree <= 0 or not candidate.attached:
                continue
            best = candidate
        return best

    monkeypatch.setattr(base.TreeProtocol, "select_min_depth", first_of_best_layer)
    outcome = run_oracle("join_selection", seed=0)
    assert not outcome.equal
    assert all("select_min_depth" in d["path"] for d in outcome.differences)
    _assert_structured_failure(outcome.to_payload())
