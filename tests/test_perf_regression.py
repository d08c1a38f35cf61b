"""Perf-regression gates for the event-loop hot path (run with -m slow).

Two guarantees:

* The kernel must stay within 30% of the PR-1 baseline recorded in
  ``BENCH_PR1.json`` (``kernel.chain_events_per_sec``).
* The observability layer, when **disabled**, must cost the hot loop
  less than 3% — enforced both structurally (no hooks installed at all)
  and by measurement.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs.attach import ObsAttachment
from repro.sim.engine import Simulator

pytestmark = pytest.mark.slow

REPO_ROOT = Path(__file__).parent.parent
BASELINE = json.loads((REPO_ROOT / "BENCH_PR1.json").read_text())

#: A >30% drop against the checked-in baseline fails the gate.  The
#: baseline machine and CI runners differ, so this is deliberately a
#: coarse tripwire for algorithmic regressions (an accidental O(n log n)
#: -> O(n^2) slip, a hook left enabled), not a microbenchmark.
BASELINE_FLOOR = 0.70
#: Budget for the disabled-observability overhead on the same machine,
#: same process, interleaved best-of runs.
DISABLED_OVERHEAD = 0.03


def _load_bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_report", REPO_ROOT / "benchmarks" / "report.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _load_bench_module()


def test_chain_throughput_vs_pr1_baseline(bench):
    baseline = BASELINE["kernel"]["chain_events_per_sec"]
    best = max(bench.bench_kernel_chain(total=200_000) for _ in range(3))
    assert best >= BASELINE_FLOOR * baseline, (
        f"kernel chain throughput {best:,.0f} ev/s fell below "
        f"{BASELINE_FLOOR:.0%} of the PR-1 baseline {baseline:,} ev/s"
    )


def test_disabled_attachment_installs_no_hooks(monkeypatch):
    """The <3% budget is enforced structurally first: with every channel
    off, attach_engine must leave the engine's fast path untouched (no
    listener subscribed, no profile hook)."""
    for name in (
        "REPRO_OBS_TRACE",
        "REPRO_OBS_TRACE_EVENTS",
        "REPRO_OBS_METRICS",
        "REPRO_OBS_PROFILE",
    ):
        monkeypatch.delenv(name, raising=False)
    sim = Simulator()
    ObsAttachment().attach_engine(sim)
    assert sim.listeners == ()
    assert sim.handlers("event_pre") == ()
    assert sim.handlers("event_post") == ()
    assert sim.profile is None


def test_disabled_observability_overhead_under_budget(bench, monkeypatch):
    for name in (
        "REPRO_OBS_TRACE",
        "REPRO_OBS_TRACE_EVENTS",
        "REPRO_OBS_METRICS",
        "REPRO_OBS_PROFILE",
    ):
        monkeypatch.delenv(name, raising=False)

    # Interleave the two variants so thermal/noise drift hits both, use
    # long runs, and take the best of each: that measures the floor of
    # the code path, not the container's scheduler.
    total = 400_000
    plain = []
    attached = []
    for _ in range(7):
        plain.append(bench.bench_kernel_chain(total=total))
        attached.append(_attached_chain_rate(bench, total))

    overhead = 1.0 - max(attached) / max(plain)
    assert overhead < DISABLED_OVERHEAD, (
        f"disabled observability costs {overhead:.1%} on the event hot "
        f"loop (budget {DISABLED_OVERHEAD:.0%})"
    )


def _attached_chain_rate(bench, total):
    """bench_kernel_chain's ping-pong loop, with a disabled attachment."""
    from time import perf_counter

    sim = Simulator()
    ObsAttachment(trace=False, trace_events=False, metrics=False, profile=False
                  ).attach_engine(sim)
    remaining = [total]

    def ping():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule_in(1.0, ping)

    sim.schedule_in(1.0, ping)
    started = perf_counter()
    sim.run()
    elapsed = perf_counter() - started
    return total / elapsed
