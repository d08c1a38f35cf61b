"""Paper-scale pins: the two 8,000-member units behind EXPERIMENTS.md's
verification cells.

Every other byte-identity check runs at smoke or benchmark scale, with
populations of 1,400 or fewer.  These pins run the ROST churn unit that
Figs 4, 7 and 10 read and the min-depth CER recovery unit that Fig. 12
reads at ``--scale 1.0 --seed 42``, on the full underlay and through the
rejection-sampling membership path, and pin:

* the SHA-256 of each unit's payload JSON, as a pool worker ships it;
* the EXPERIMENTS.md cells those results give, rounded as printed there.

A change that moves either pin changes results at paper scale; it must
say so, re-pin here and update EXPERIMENTS.md.  The two units take
about 15 s and 55-65 s.
"""

import hashlib
import json

import pytest

from repro.experiments import common
from repro.experiments.common import SweepSettings
from repro.experiments.units import ChurnUnit, RecoveryUnit, run_unit_task
from repro.recovery.schemes import cer_scheme
from repro.simulation.churn import ChurnRunResult
from repro.simulation.streaming import RecoveryRunResult

pytestmark = pytest.mark.slow

PAPER = SweepSettings(scale=1.0, seed=42)
GROUP_SIZES = (1, 2, 3, 4)


@pytest.fixture(autouse=True)
def plain_environment(monkeypatch):
    """Payloads depend on the obs and invariant flags; pin the plain run."""
    for name in (
        "REPRO_OBS_TRACE",
        "REPRO_OBS_TRACE_EVENTS",
        "REPRO_OBS_METRICS",
        "REPRO_OBS_PROFILE",
        "REPRO_CHECK_INVARIANTS",
        "REPRO_STORE_DIR",
    ):
        monkeypatch.delenv(name, raising=False)
    common.clear_caches()
    yield
    common.clear_caches()


def _run(unit):
    blob = run_unit_task(unit)
    payload = json.loads(blob)["result"]
    return hashlib.sha256(blob.encode("utf-8")).hexdigest(), payload


def test_rost_8000_unit_is_pinned():
    digest, payload = _run(ChurnUnit("rost", 8000, PAPER))
    assert digest == (
        "a2eec0bd5fd49a4ab4d0a2678e5f332dd783bcd02cca3c1172acc52145209372"
    )
    result = ChurnRunResult.from_payload(payload)
    assert round(result.avg_disruptions_per_node, 3) == 0.645  # Fig. 4
    assert round(result.avg_service_delay_ms, 1) == 362.9  # Fig. 7
    assert round(result.avg_optimization_reconnections, 3) == 0.266  # Fig. 10


def test_fig12_8000_unit_is_pinned():
    schemes = tuple(cer_scheme(k) for k in GROUP_SIZES)
    digest, payload = _run(RecoveryUnit("min-depth", 8000, PAPER, schemes))
    assert digest == (
        "f1925ef33b92b5172a975571f69b9cd2850ce36a24bb8aa8fb34aad526e2d527"
    )
    result = RecoveryRunResult.from_payload(payload)
    ratios = [round(result.ratio_pct(s.name), 3) for s in schemes]
    assert ratios == [2.049, 0.983, 0.493, 0.424]
