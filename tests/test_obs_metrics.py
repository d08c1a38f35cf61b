"""Per-run metrics snapshots and cross-unit aggregation."""

import json
from types import SimpleNamespace

from repro.obs.attach import ObsAttachment
from repro.obs.metrics import aggregate_units, render_metrics_section
from repro.protocols import PROTOCOLS
from repro.simulation.churn import ChurnSimulation

from .conftest import small_sim_config


def _rost_attachment():
    """A metrics-only attachment on a small ROST churn simulation."""
    sim = ChurnSimulation(small_sim_config(), PROTOCOLS["rost"])
    attachment = ObsAttachment(trace=False, metrics=True, profile=False)
    return sim, attachment.attach(sim)


def test_counter_gauge_histogram_roundtrip():
    sim, attachment = _rost_attachment()
    for _ in range(42):
        attachment.on_event_post(None)
    for subtree_size in (1, 5, 2):
        attachment.on_disruption(
            SimpleNamespace(in_window=True, subtree_size=subtree_size)
        )

    snap = attachment.finalize().metrics
    counters = snap["counters"]
    assert counters["sim.events_processed"] == 42
    assert counters["overlay.disruption_failures"] == 3
    assert counters["overlay.disruption_events"] == 0 + 4 + 1
    assert snap["gauges"]["overlay.final_attached"] == float(sim.tree.num_attached)
    hist = snap["histograms"]["overlay.disruption_subtree_size"]
    assert hist == {"count": 3, "total": 8, "min": 1, "max": 5}
    assert all(type(value) is int for value in counters.values())
    assert all(type(value) is float for value in snap["gauges"].values())
    assert json.loads(json.dumps(snap)) == snap


def test_snapshot_keys_are_sorted():
    sim, attachment = _rost_attachment()
    sim.run()
    # Two recovery schemes, tallied out of name order.
    observer = SimpleNamespace(
        results={
            name: SimpleNamespace(repaired_packets_total=0)
            for name in ("mlc-3", "cer-1")
        }
    )
    for name in ("mlc-3", "cer-1"):
        scheme = SimpleNamespace(name=name)
        attachment.on_episode_pre(observer, scheme)
        attachment.on_episode_post(observer, scheme, 0.0, [1], [], 150, None)

    snap = attachment.finalize().metrics
    assert list(snap["counters"]) == [
        "faults.activations",
        "overlay.control_messages",
        "overlay.disruption_events",
        "overlay.disruption_failures",
        "overlay.failure_reconnections",
        "overlay.optimization_reconnections",
        "overlay.tree_promotions",
        "overlay.tree_switch_ops",
        "recovery.episodes.cer-1",
        "recovery.episodes.mlc-3",
        "recovery.gap_packets.cer-1",
        "recovery.gap_packets.mlc-3",
        "recovery.repaired_packets.cer-1",
        "recovery.repaired_packets.mlc-3",
        "rost.lock_failures",
        "rost.promotions",
        "rost.switches",
        "sim.events_processed",
    ]
    assert list(snap["gauges"]) == [
        "overlay.final_attached",
        "sim.pending_events_final",
    ]
    assert list(snap["histograms"]) == ["overlay.disruption_subtree_size"]


def _unit(counters=None, histograms=None):
    # Shape of one entry in an ``artifacts["metrics"]`` list: the unit's
    # meta merged with its metrics snapshot.
    return {
        "meta": {"kind": "churn"},
        "counters": counters or {},
        "gauges": {},
        "histograms": histograms or {},
    }


def test_aggregate_units_sums_counters_and_merges_histograms():
    units = [
        _unit(
            counters={"sim.events_processed": 10, "rost.switches": 2},
            histograms={
                "overlay.disruption_subtree_size": {
                    "count": 2,
                    "total": 4,
                    "min": 1,
                    "max": 3,
                }
            },
        ),
        _unit(
            counters={"sim.events_processed": 5},
            histograms={
                "overlay.disruption_subtree_size": {
                    "count": 1,
                    "total": 7,
                    "min": 7,
                    "max": 7,
                }
            },
        ),
    ]
    totals = aggregate_units(units)
    assert totals["units"] == 2
    assert totals["counters"] == {"sim.events_processed": 15, "rost.switches": 2}
    assert totals["histograms"]["overlay.disruption_subtree_size"] == {
        "count": 3,
        "total": 11,
        "min": 1,
        "max": 7,
    }


def test_aggregate_units_tolerates_bare_units():
    bare = {"meta": {"kind": "churn"}}
    totals = aggregate_units([bare, _unit(counters={"sim.events_processed": 1})])
    assert totals["units"] == 2
    assert totals["counters"] == {"sim.events_processed": 1}


def test_render_metrics_section_smoke():
    totals = aggregate_units([_unit(counters={"sim.events_processed": 7})])
    text = render_metrics_section(totals)
    assert "== metrics (1 runs) ==" in text
    assert "sim.events_processed" in text
    assert "7" in text
