"""Per-subsystem metrics registry: counters, gauges, histograms.

Design constraints (see ISSUE 4 / docs/observability.md):

* **Near-zero cost when disabled.**  Call sites that cannot know at
  attach time whether metrics are on hold :data:`NULL_INSTRUMENT` — a
  module-level null sink whose methods are no-ops — instead of branching
  or looking the instrument up per call.  The event hot loop itself goes
  further: :class:`~repro.obs.attach.ObsAttachment` subscribes *nothing*
  when every channel is off, so the engine keeps its no-listener fast
  path.
* **No dict lookups in the hot loop.**  Instruments are resolved once at
  attach/registration time and bound to locals or attributes; ``inc`` /
  ``observe`` touch only slots.
* **Deterministic snapshots.**  Snapshots carry only simulation-derived
  quantities (counts, virtual-time totals); wall-clock data lives in the
  separate profile channel.  Snapshot keys are sorted so serialized
  reports are byte-stable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

#: The subsystems an instrument may register under.  New subsystems must
#: add themselves here and document their metrics in
#: ``docs/observability.md`` (see CONTRIBUTING.md).
SUBSYSTEMS = ("sim", "overlay", "rost", "recovery", "faults", "experiments")


class Counter:
    """Monotonic integer counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-write-wins numeric value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


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


class _NullInstrument:
    """No-op sink standing in for any instrument when metrics are off."""

    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


#: Shared module-level null sink; safe to bind anywhere an instrument is
#: expected.  All mutating methods are no-ops and ``value`` reads as 0.
NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Namespaced instrument factory for one observed run."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, str], Counter] = {}
        self._gauges: Dict[Tuple[str, str], Gauge] = {}
        self._histograms: Dict[Tuple[str, str], Histogram] = {}

    @staticmethod
    def _key(subsystem: str, name: str) -> Tuple[str, str]:
        if subsystem not in SUBSYSTEMS:
            raise ValueError(
                f"unknown subsystem {subsystem!r}; register it in "
                f"repro.obs.metrics.SUBSYSTEMS (one of {SUBSYSTEMS})"
            )
        if not name:
            raise ValueError("metric name must be non-empty")
        return (subsystem, name)

    def counter(self, subsystem: str, name: str) -> Counter:
        key = self._key(subsystem, name)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, subsystem: str, name: str) -> Gauge:
        key = self._key(subsystem, name)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, subsystem: str, name: str) -> Histogram:
        key = self._key(subsystem, name)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Sorted, JSON-ready view of every registered instrument."""
        return {
            "counters": {
                f"{sub}.{name}": int(c.value)
                for (sub, name), c in sorted(self._counters.items())
            },
            "gauges": {
                f"{sub}.{name}": g.value
                for (sub, name), g in sorted(self._gauges.items())
            },
            "histograms": {
                f"{sub}.{name}": h.as_dict()
                for (sub, name), h in sorted(self._histograms.items())
            },
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
