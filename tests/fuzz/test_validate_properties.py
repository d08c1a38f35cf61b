"""Property-based tests for the validation subsystem's statistics and
its flagship differential: cached-vs-naive kernels under *random*
fault schedules.

Run explicitly with ``pytest -m fuzz`` (excluded from tier-1 by the
default marker expression in pyproject.toml).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.metrics.stats import bootstrap_ci_95, mean_and_ci, within_tolerance
from repro.validate.baseline import flatten_numeric

pytestmark = pytest.mark.fuzz

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


class TestBootstrapCI:
    @given(values=st.lists(finite, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_bounds_are_ordered_and_inside_the_sample_range(self, values):
        lo, hi = bootstrap_ci_95(values)
        assert lo <= hi
        # Resampled means carry ~1-ulp summation noise; allow exactly that.
        slack = 4 * np.spacing(max(abs(min(values)), abs(max(values))))
        assert min(values) - slack <= lo and hi <= max(values) + slack

    @given(values=st.lists(finite, min_size=2, max_size=40), seed=st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_deterministic_for_a_given_seed(self, values, seed):
        assert bootstrap_ci_95(values, seed=seed) == bootstrap_ci_95(
            values, seed=seed
        )

    @given(value=finite, n=st.integers(1, 10))
    @settings(max_examples=100, deadline=None)
    def test_degenerate_sample_collapses_to_a_point(self, value, n):
        lo, hi = bootstrap_ci_95([value] * n)
        assert lo == hi == value

    @given(values=st.lists(finite, min_size=3, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_interval_brackets_the_sample_mean(self, values):
        lo, hi = bootstrap_ci_95(values, n_resamples=4000)
        mean, _ = mean_and_ci(values)
        # The percentile bootstrap of the mean must cover the point
        # estimate itself (up to resampling granularity on tiny samples).
        span = max(hi - lo, 1e-9 * max(1.0, abs(mean)))
        assert lo - span <= mean <= hi + span


class TestWithinTolerance:
    @given(a=finite, b=finite, rtol=st.floats(0, 1), atol=st.floats(0, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_symmetry(self, a, b, rtol, atol):
        assert within_tolerance(a, b, rtol=rtol, atol=atol) == within_tolerance(
            b, a, rtol=rtol, atol=atol
        )

    @given(a=finite, rtol=st.floats(0, 1), atol=st.floats(0, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_reflexivity_and_nan_laws(self, a, rtol, atol):
        assert within_tolerance(a, a, rtol=rtol, atol=atol)
        # NaN matches NaN and nothing else, whatever the tolerances.
        assert within_tolerance(math.nan, math.nan, rtol=rtol, atol=atol)
        assert not within_tolerance(a, math.nan, rtol=rtol, atol=atol)
        assert not within_tolerance(math.nan, a, rtol=rtol, atol=atol)

    @given(
        a=finite,
        b=finite,
        rtol=st.floats(0, 0.5),
        atol=st.floats(0, 1e3),
        widen=st.floats(1e-6, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_both_tolerances(self, a, b, rtol, atol, widen):
        if within_tolerance(a, b, rtol=rtol, atol=atol):
            assert within_tolerance(a, b, rtol=rtol + widen, atol=atol)
            assert within_tolerance(a, b, rtol=rtol, atol=atol + widen)


class TestFlattenNumeric:
    @given(
        data=st.recursive(
            st.one_of(finite, st.booleans(), st.text(max_size=5)),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(st.text(max_size=5), children, max_size=4),
            ),
            max_leaves=20,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_paths_are_unique_and_values_numeric(self, data):
        flat = flatten_numeric(data)
        assert all(isinstance(v, float) for v in flat.values())
        assert all(not isinstance(v, bool) for v in flat.values())
        # Flattening is deterministic.
        assert flat == flatten_numeric(data)


class TestKernelDifferentialUnderRandomFaults:
    """The tentpole property: for ANY small fault schedule, the
    cached MLC kernels agree exactly with the naive
    walk-the-tree references on the post-fault overlay."""

    @given(
        seed=st.integers(0, 2**16),
        crash_counts=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        crash_times=st.lists(
            st.floats(10.0, 500.0, allow_nan=False), min_size=3, max_size=3
        ),
        selector=st.sampled_from(["random", "root-children", "high-degree"]),
        outage=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_vectorized_equals_naive_after_random_schedule(
        self, seed, crash_counts, crash_times, selector, outage
    ):
        from repro.faults import FaultSchedule, NodeCrash, StubDomainOutage
        from repro.validate.differential import run_mlc_kernel_differential

        faults = [
            NodeCrash(at_s=crash_times[i], count=count, selector=selector)
            for i, count in enumerate(crash_counts)
        ]
        if outage:
            faults.append(StubDomainOutage(at_s=crash_times[-1], domains=1))
        schedule = FaultSchedule(seed=seed % 1000, faults=tuple(faults))
        outcome = run_mlc_kernel_differential(seed=seed, schedule=schedule)
        assert outcome.equal, outcome.differences[:5]
        assert outcome.meta["comparisons"] > 0
