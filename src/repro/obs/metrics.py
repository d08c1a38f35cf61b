"""The metrics channel: the subtree-size tally, cross-run aggregation
and the runner's metrics section.

Each observed run's metrics are one snapshot that
:meth:`~repro.obs.attach.ObsAttachment.finalize` builds from its plain
integer tallies: ``counters`` (``<subsystem>.<name>`` -> int),
``gauges`` (-> float) and ``histograms`` (-> count/total/min/max), each
with sorted keys so serialized reports are byte-stable.  Snapshots carry
only simulation-derived quantities (counts, virtual-time totals);
wall-clock data lives in the separate profile channel.  See
``docs/observability.md`` for the keys.
"""

from __future__ import annotations

from typing import Dict, Iterable, List


class Histogram:
    """Streaming summary: count / total / min / max.

    Full quantile sketches are overkill for run-level reporting and
    would bloat JSON reports; count+total+extrema reconcile exactly and
    merge losslessly across units.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        if self.count == 0:
            self.min = value
            self.max = value
        elif value < self.min:
            self.min = value
        elif value > self.max:
            self.max = value
        self.count += 1
        self.total += value

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


def aggregate_units(units: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Merge per-run metric units into campaign/runner-level totals.

    Counters sum; histograms merge count/total and widen extrema; gauges
    are per-run snapshots and do not aggregate meaningfully, so only
    their count of contributing units is reported.
    """
    counters: Dict[str, int] = {}
    histograms: Dict[str, Dict[str, float]] = {}
    n_units = 0
    for unit in units:
        n_units += 1
        for key, value in unit.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + int(value)
        for key, hist in unit.get("histograms", {}).items():
            merged = histograms.get(key)
            if merged is None:
                histograms[key] = dict(hist)
            elif hist["count"]:
                if not merged["count"] or hist["min"] < merged["min"]:
                    merged["min"] = hist["min"]
                if not merged["count"] or hist["max"] > merged["max"]:
                    merged["max"] = hist["max"]
                merged["count"] += hist["count"]
                merged["total"] += hist["total"]
    return {
        "units": n_units,
        "counters": dict(sorted(counters.items())),
        "histograms": dict(sorted(histograms.items())),
    }


def render_metrics_section(totals: Dict[str, object]) -> str:
    """Human-readable metrics block for the runner's table output."""
    lines: List[str] = [f"== metrics ({totals['units']} runs) =="]
    counters = totals.get("counters", {})
    if counters:
        width = max(len(key) for key in counters)
        for key, value in counters.items():
            lines.append(f"  {key.ljust(width)}  {value}")
    for key, hist in totals.get("histograms", {}).items():
        mean = hist["total"] / hist["count"] if hist["count"] else 0.0
        lines.append(
            f"  {key}  count={hist['count']} mean={mean:.2f} "
            f"min={hist['min']:g} max={hist['max']:g}"
        )
    return "\n".join(lines)
