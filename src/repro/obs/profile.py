"""Wall-clock attribution: per-event-type and per-pool-stage timing.

This is the one observability channel that is *allowed* to be
nondeterministic.  Profile data never enters the trace file or the
``--json`` report; it surfaces only in the ``--profile`` stdout section,
so traced runs stay byte-identical while still telling you which event
type or pool stage is eating the wall clock.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterable, List, Optional

from .capture import profile_enabled

#: Event types the ``--profile`` section lists, hottest first.
PROFILE_TOP = 25


class Profiler:
    """Accumulates (calls, wall seconds) per event key.

    The engine's ``profile`` hook calls :meth:`record` once per
    dispatched event; the key is the event label (or the action's
    qualname for unlabeled events), so cost lands on the subsystem that
    scheduled the work.
    """

    __slots__ = ("_acc",)

    def __init__(self) -> None:
        self._acc: Dict[str, List[float]] = {}

    def record(self, key: str, wall_s: float) -> None:
        entry = self._acc.get(key)
        if entry is None:
            self._acc[key] = [1, wall_s]
        else:
            entry[0] += 1
            entry[1] += wall_s

    def as_dict(self) -> Dict[str, object]:
        return {
            "by_key": {
                key: {"calls": int(calls), "wall_s": round(wall, 6)}
                for key, (calls, wall) in sorted(self._acc.items())
            }
        }


# Coarse pipeline-stage accounting (submit/gather/retry in the pool).
# Module-level because the pool has no per-run attachment to hang state
# on; record_stage() is a no-op unless REPRO_OBS_PROFILE is set.
_stages: Dict[str, List[float]] = {}


def record_stage(name: str, wall_s: float) -> None:
    if not profile_enabled():
        return
    entry = _stages.get(name)
    if entry is None:
        _stages[name] = [1, wall_s]
    else:
        entry[0] += 1
        entry[1] += wall_s


def stage_timer():
    """Start a stage clock; pairs with record_stage(name, clock())."""
    started = perf_counter()
    return lambda: perf_counter() - started


def drain_stages() -> Dict[str, Dict[str, float]]:
    """Return and clear accumulated stage timings."""
    out = {
        name: {"calls": int(calls), "wall_s": round(wall, 6)}
        for name, (calls, wall) in sorted(_stages.items())
    }
    _stages.clear()
    return out


def render_profile_section(
    profile_units: Iterable[Dict[str, object]],
    stages: Optional[Dict[str, Dict[str, float]]] = None,
) -> str:
    """Human-readable ``--profile`` block: hottest event types + stages."""
    merged: Dict[str, List[float]] = {}
    n_units = 0
    for unit in profile_units:
        n_units += 1
        for key, entry in unit.get("by_key", {}).items():
            acc = merged.get(key)
            if acc is None:
                merged[key] = [entry["calls"], entry["wall_s"]]
            else:
                acc[0] += entry["calls"]
                acc[1] += entry["wall_s"]
    lines = [f"== profile ({n_units} runs) =="]
    ranked = sorted(merged.items(), key=lambda kv: (-kv[1][1], kv[0]))
    dropped = len(ranked) - PROFILE_TOP
    for key, (calls, wall) in ranked[:PROFILE_TOP]:
        per_call = wall / calls * 1e6 if calls else 0.0
        lines.append(
            f"  {key:<40} calls={int(calls):>8}  wall={wall:9.4f}s"
            f"  {per_call:8.1f}us/call"
        )
    if dropped > 0:
        lines.append(f"  ... {dropped} more event types")
    if stages:
        lines.append("  -- pool stages --")
        for name, entry in stages.items():
            lines.append(
                f"  {name:<40} calls={entry['calls']:>8}"
                f"  wall={entry['wall_s']:9.4f}s"
            )
    return "\n".join(lines)
