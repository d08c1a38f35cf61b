"""Observer-driven runtime invariant checking for churn simulations.

:class:`InvariantChecker` attaches to a :class:`ChurnSimulation` (or
anything carrying one, e.g. a ``RecoverySimulation``) as one listener on
its simulator (:meth:`~repro.sim.engine.Simulator.subscribe`): the
engine's ``event_pre``/``event_post``, the churn run's ``disruption``,
ROST's ``switch_pre``/``switch_post`` and the recovery observer's
``episode_pre``/``episode_post`` topics.  Protocol code is never
modified, so the checker composes with fault injection, every protocol,
and any workload.

Violations become structured
:class:`~repro.invariants.registry.InvariantViolation` records; with
``strict=True`` (the default) the first one raises
:class:`~repro.errors.InvariantError`, with ``strict=False`` they
accumulate in :attr:`InvariantChecker.violations` for reporting (the
fault-campaign ``--check-invariants`` mode).
"""

from __future__ import annotations

import math
import os
from typing import Dict, FrozenSet, List, Optional, Sequence, Union

from ..errors import InvariantError, SimulationError
from .registry import (
    CheckContext,
    Invariant,
    InvariantViolation,
    invariants_for,
)

# Import for the registration side effect: the built-in suite must be in
# the registry before invariants_for() resolves a checker's layer set.
from . import checks as _checks  # noqa: F401

#: Slack for floating-point comparisons on virtual times and BTP values.
_EPS = 1e-9

#: ``--check-invariants`` travels in this variable, so it reaches pool
#: workers and in-process runs alike.
ENV_CHECK_INVARIANTS = "REPRO_CHECK_INVARIANTS"
#: Its value for reporting checkers; any other but ``""`` and ``"0"`` is strict.
CHECK_REPORT = "report"


def checking_enabled() -> Union[bool, str]:
    """The checking mode :data:`ENV_CHECK_INVARIANTS` asks for: ``False``,
    ``True`` (strict) or :data:`CHECK_REPORT`; keys embed it as is."""
    value = os.environ.get(ENV_CHECK_INVARIANTS, "")
    if value in ("", "0"):
        return False
    return CHECK_REPORT if value == CHECK_REPORT else True


class InvariantChecker:
    """Checks the registered invariant suite against one simulation run.

    Parameters:

    * ``strict`` — raise :class:`InvariantError` on the first violation
      (tests / debugging) or accumulate silently (campaign reporting);
    * ``interval_events`` — run the quiescent sweep every N fired events
      (the instrumented invariants are always enforced inline);
    * ``layers`` — restrict to a subset of
      :data:`~repro.invariants.registry.LAYERS` (None = everything).
    """

    def __init__(
        self,
        strict: bool = True,
        interval_events: int = 256,
        layers: Optional[Sequence[str]] = None,
    ):
        if interval_events < 1:
            raise SimulationError(
                f"interval_events must be >= 1, got {interval_events}"
            )
        self.strict = strict
        self.interval_events = interval_events
        self.invariants: tuple = invariants_for(layers)
        self._enabled = {inv.name: inv for inv in self.invariants}
        self._quiescent = [inv for inv in self.invariants if inv.check is not None]
        self.violations: List[InvariantViolation] = []
        #: Completed quiescent sweeps (fuzz tests assert this advanced).
        self.sweeps = 0
        self.events_seen = 0
        self.churn = None
        self.sim = None
        self.tree = None
        self._last_event_time = -math.inf
        #: Shadow lock ledger: member id -> end of its current lock-hold
        #: window, maintained independently of the nodes' own lock state.
        self._lock_windows: Dict[int, float] = {}
        #: Correlated-failure sets awaiting the atomicity check.
        self._cofail_pending: Dict[FrozenSet[int], float] = {}
        self._lock_hold_s = 0.0
        self._protocol = None
        #: (involved members, pre-switch parent) of the switch in flight.
        self._switch: tuple = ((), None)
        #: Result totals and buffer depths before the episode in flight.
        self._episode: tuple = ()
        self._attached = False
        self._finalized = False

    # -- attachment -----------------------------------------------------------------

    def attach(self, target) -> "InvariantChecker":
        """Subscribe to ``target``'s simulator (a ChurnSimulation, or
        anything with a ``.churn`` attribute holding one).  Must run
        before the sim does."""
        churn = getattr(target, "churn", None)
        if churn is None or not hasattr(churn, "sim"):
            churn = target
        if not hasattr(churn, "sim") or not hasattr(churn, "tree"):
            raise SimulationError(
                f"cannot attach an InvariantChecker to {type(target).__name__}"
            )
        if self._attached:
            raise SimulationError("an InvariantChecker attaches to one simulation")
        self._attached = True
        self.churn = churn
        self.sim = churn.sim
        self.tree = churn.tree
        # Only the ROST family publishes the switch topics, which carry its
        # lock discipline and BTP ordering.
        self._protocol = getattr(churn, "protocol", None)
        self._lock_hold_s = float(getattr(self._protocol, "lock_hold_s", 0.0))
        self.sim.subscribe(self)
        return self

    # -- topics ------------------------------------------------------------------------

    def on_disruption(self, event) -> None:
        if len(event.co_failed_ids) > 1 and self._want("fault-atomic-cofail"):
            self._cofail_pending.setdefault(event.co_failed_ids, event.time)

    def on_switch_pre(self, op: str, node) -> None:
        """ROST is about to swap ``node`` with its parent (``"swap"``) or
        move it into a spare slot of its grandparent (``"promote"``)."""
        parent = node.parent
        involved = [node]
        if parent is not None:
            involved.append(parent)
            if parent.parent is not None:
                involved.append(parent.parent)
            if op == "swap":
                involved.extend(c for c in parent.children if c is not node)
        if op == "swap":
            involved.extend(node.children)
        self._check_lock_windows(
            involved,
            self.sim.now,
            operation="switch" if op == "swap" else "promotion",
        )
        self._switch = (involved, parent)

    def on_switch_post(self, op: str, node) -> None:
        involved, parent = self._switch
        now = self.sim.now
        if op == "swap" and parent is not None and self._want(
            "rost-switch-btp-order"
        ):
            # An unpriced read: checking a run must not add to its
            # message counts.
            (_, child_btp), (_, parent_btp) = self._protocol._values(
                (node, parent), account=False
            )
            if child_btp < parent_btp - _EPS:
                self._record(
                    "rost-switch-btp-order",
                    now,
                    f"switch promoted member {node.member_id} (BTP "
                    f"{child_btp:.3f}) above member {parent.member_id} "
                    f"(BTP {parent_btp:.3f})",
                    node_ids=(node.member_id, parent.member_id),
                    snapshot={
                        "child_btp": child_btp,
                        "parent_btp": parent_btp,
                    },
                )
        self._note_lock_windows(involved, now)

    def on_episode_pre(
        self, observer, scheme, now, members, sources, gap_packets, backfill
    ) -> None:
        """A :class:`RecoveryObserver` is about to price an episode."""
        result = observer.results[scheme.name]
        self._episode = (
            result.episodes,
            result.coverage_sum,
            result.gap_packets_total,
            result.repaired_packets_total,
            # Pricing mutates the playback buffers; capture them first.
            [observer._state_for(scheme, m).buffer_ahead_at(now) for m in members],
        )

    def on_episode_post(
        self, observer, scheme, now, members, sources, gap_packets, backfill
    ) -> None:
        pre_episodes, pre_coverage, pre_gap, pre_repaired, buffers = self._episode
        result = observer.results[scheme.name]
        d_episodes = result.episodes - pre_episodes
        d_coverage = result.coverage_sum - pre_coverage
        d_gap = result.gap_packets_total - pre_gap
        d_repaired = result.repaired_packets_total - pre_repaired
        recovery_cfg = observer.recovery_config
        self._check_episode_conservation(
            scheme, now, members, gap_packets, d_episodes, d_gap, d_repaired
        )
        self._check_residual_coverage(
            scheme, now, members, sources, gap_packets,
            recovery_cfg.packet_rate_pps, d_episodes, d_coverage,
        )
        self._check_backfill_window(
            scheme, now, members, sources, gap_packets, backfill,
            recovery_cfg, buffers, d_repaired,
        )

    def _check_episode_conservation(
        self, scheme, now, members, gap_packets, d_episodes, d_gap, d_repaired
    ) -> None:
        if not self._want("recovery-episode-conservation"):
            return
        expected_gap = gap_packets * d_episodes
        if (
            d_episodes != len(members)
            or d_gap != expected_gap
            or not 0 <= d_repaired <= d_gap
        ):
            self._record(
                "recovery-episode-conservation",
                now,
                f"scheme {scheme.name!r} priced {len(members)} members as "
                f"{d_episodes} episodes, gap {d_gap} (expected "
                f"{expected_gap}), repaired {d_repaired}",
                node_ids=tuple(m.member_id for m in members),
                snapshot={
                    "scheme": scheme.name,
                    "episodes": d_episodes,
                    "gap": d_gap,
                    "repaired": d_repaired,
                },
            )

    def _check_residual_coverage(
        self, scheme, now, members, sources, gap_packets,
        packet_rate_pps, d_episodes, d_coverage,
    ) -> None:
        if not self._want("recovery-residual-covers-rate"):
            return
        if not scheme.striped or gap_packets <= 0 or d_episodes <= 0:
            return
        live_rate = sum(
            s.rate_pps for s in sources if s.has_data and s.rate_pps > _EPS
        )
        if live_rate < packet_rate_pps * (1.0 + _EPS):
            return
        if d_coverage < d_episodes - 1e-6:
            self._record(
                "recovery-residual-covers-rate",
                now,
                f"scheme {scheme.name!r}: live residual {live_rate:.3f} pps "
                f">= stream rate {packet_rate_pps:.3f} pps but coverage "
                f"summed to {d_coverage:.6f} over {d_episodes} episodes",
                node_ids=tuple(m.member_id for m in members),
                snapshot={
                    "scheme": scheme.name,
                    "live_rate_pps": live_rate,
                    "packet_rate_pps": packet_rate_pps,
                    "coverage_sum": d_coverage,
                    "episodes": d_episodes,
                },
            )

    def _check_backfill_window(
        self, scheme, now, members, sources, gap_packets, backfill,
        recovery_cfg, buffers, d_repaired,
    ) -> None:
        if not self._want("recovery-backfill-window"):
            return
        if backfill is None or gap_packets <= 0:
            return
        if backfill.rate_pps <= _EPS:
            return
        from ..recovery.episode import starvation_episode

        # Repairs the group alone would have achieved (recomputed without
        # backfill; cached per distinct buffer depth like the pricing is).
        cache: Dict[float, int] = {}
        group_only = 0
        for buffer_ahead in buffers:
            key = round(buffer_ahead, 6)
            repaired = cache.get(key)
            if repaired is None:
                repaired = starvation_episode(
                    gap_packets=gap_packets,
                    packet_rate_pps=recovery_cfg.packet_rate_pps,
                    buffer_ahead_s=buffer_ahead,
                    detect_s=recovery_cfg.repair_detect_s,
                    request_hop_s=recovery_cfg.request_hop_s,
                    sources=sources,
                    striped=scheme.striped,
                    backfill=None,
                ).repaired_in_time
                cache[key] = repaired
            group_only += repaired
        in_window = max(0, gap_packets - backfill.cutoff_seq)
        upper = group_only + len(members) * in_window
        if d_repaired > upper or d_repaired < group_only:
            self._record(
                "recovery-backfill-window",
                now,
                f"scheme {scheme.name!r} repaired {d_repaired} packets; the "
                f"group alone accounts for {group_only} and the backfill "
                f"window holds only {in_window} per member "
                f"(cutoff_seq {backfill.cutoff_seq} of {gap_packets})",
                node_ids=tuple(m.member_id for m in members),
                snapshot={
                    "scheme": scheme.name,
                    "repaired": d_repaired,
                    "group_only": group_only,
                    "cutoff_seq": backfill.cutoff_seq,
                    "gap_packets": gap_packets,
                },
            )

    # -- event tracing ----------------------------------------------------------------

    def on_event_pre(self, event) -> None:
        if self._want("sim-clock-monotonic"):
            if event.time < self._last_event_time - _EPS:
                self._record(
                    "sim-clock-monotonic",
                    event.time,
                    f"event {event.label or event.seq!r} fired at "
                    f"t={event.time} after an event at "
                    f"t={self._last_event_time}",
                    snapshot={
                        "event_time": event.time,
                        "previous_time": self._last_event_time,
                        "label": event.label,
                    },
                )
            if abs(event.time - self.sim.now) > _EPS:
                self._record(
                    "sim-clock-monotonic",
                    self.sim.now,
                    f"clock t={self.sim.now} disagrees with firing event "
                    f"time t={event.time}",
                    snapshot={"event_time": event.time, "now": self.sim.now},
                )
        self._last_event_time = max(self._last_event_time, event.time)
        if self._want("sim-no-fire-after-cancel") and event.cancelled:
            self._record(
                "sim-no-fire-after-cancel",
                event.time,
                f"cancelled event {event.label or event.seq!r} "
                f"(seq {event.seq}) fired",
                snapshot={"seq": event.seq, "label": event.label},
            )

    def on_event_post(self, event) -> None:
        self.events_seen += 1
        if self.events_seen % self.interval_events == 0:
            self._sweep()

    # -- quiescent sweeps ----------------------------------------------------------------

    def _sweep(self) -> None:
        ctx = CheckContext(
            checker=self,
            sim=self.sim,
            tree=self.tree,
            churn=self.churn,
            now=self.sim.now,
        )
        for inv in self._quiescent:
            for found in inv.check(ctx):
                self._record(
                    inv.name,
                    ctx.now,
                    found["message"],
                    node_ids=tuple(found.get("node_ids", ())),
                    snapshot=found.get("snapshot", {}),
                )
        self.sweeps += 1

    def finalize(self) -> List[InvariantViolation]:
        """One last full sweep at end of run; returns all violations."""
        if self._attached and not self._finalized:
            self._finalized = True
            self._sweep()
        return self.violations

    # -- shared plumbing ---------------------------------------------------------------

    def _want(self, name: str) -> bool:
        return name in self._enabled

    def _check_lock_windows(
        self, involved, now: float, operation: str
    ) -> None:
        if not self._want("rost-lock-no-double-grant"):
            return
        busy = [
            node.member_id
            for node in involved
            if now < self._lock_windows.get(node.member_id, -math.inf) - _EPS
        ]
        if busy:
            self._record(
                "rost-lock-no-double-grant",
                now,
                f"{operation} granted while {len(busy)} involved members "
                f"still hold a previous switch lock",
                node_ids=tuple(sorted(busy)),
                snapshot={
                    "operation": operation,
                    "held_until": {
                        m: self._lock_windows[m] for m in sorted(busy)
                    },
                },
            )

    def _note_lock_windows(self, involved, now: float) -> None:
        end = now + self._lock_hold_s
        windows = self._lock_windows
        for node in involved:
            prev = windows.get(node.member_id, -math.inf)
            if end > prev:
                windows[node.member_id] = end

    def _record(
        self,
        name: str,
        time: float,
        message: str,
        node_ids: tuple = (),
        snapshot: Optional[dict] = None,
    ) -> None:
        inv: Invariant = self._enabled[name]
        violation = InvariantViolation(
            invariant=inv.name,
            layer=inv.layer,
            time=time,
            message=message,
            node_ids=tuple(node_ids),
            snapshot=snapshot or {},
        )
        self.violations.append(violation)
        if self.strict:
            raise InvariantError(violation)

    @property
    def violation_names(self) -> List[str]:
        """Distinct violated invariant names, first-seen order."""
        seen: List[str] = []
        for violation in self.violations:
            if violation.invariant not in seen:
                seen.append(violation.invariant)
        return seen
