"""Explicit Loss Notification (Section 4.2).

When a member detects a missing packet it must decide whether the loss
originated at its own parent (then it must rejoin) or further upstream
(then its parent will forward repaired data and the member must *not*
duplicate the recovery or rejoin).  The paper's mechanism: a member that
detects a loss sends a notification packet carrying just the missed
sequence number to its children, which propagate it downstream; a member
that keeps receiving ELNs knows its parent is alive.  A member that sees
a sequence gap larger than a threshold with *neither* data nor ELN
packets concludes its parent (or the link to it) failed and rejoins.

:class:`ElnTracker` is the per-member decision state machine, exercised
by the unit tests only: the recovery simulation models ELN through the
``RecoveryScheme.eln`` flag (:mod:`repro.simulation.streaming`).  With
it on, each child of a failed member selects one recovery group and its
whole subtree is priced against it; with it off (the ablation), every
affected member selects its own group and is priced on its own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Set

from ..errors import RecoveryError


class LossOrigin(enum.Enum):
    """What a member concludes about a detected loss."""

    NONE = "none"  # stream healthy
    UPSTREAM = "upstream"  # ancestor failure — wait for upstream recovery
    PARENT = "parent"  # parent failure/congestion — rejoin


@dataclass
class ElnTracker:
    """Per-member ELN state machine.

    Feed it packet arrivals (:meth:`on_data`) and loss notifications from
    the parent (:meth:`on_eln`); query :meth:`origin` to learn what the
    member should do.  ``gap_threshold`` is the paper's "sequence gap > 3"
    rule.
    """

    gap_threshold: int = 3
    _highest_seen: int = -1
    _eln_sequences: Set[int] = field(default_factory=set)
    _data_sequences: Set[int] = field(default_factory=set)

    def on_data(self, sequence: int) -> None:
        """A stream (or repaired) packet arrived from the parent."""
        if sequence < 0:
            raise RecoveryError(f"negative sequence {sequence}")
        self._data_sequences.add(sequence)
        if sequence > self._highest_seen:
            self._highest_seen = sequence

    def on_eln(self, sequence: int) -> None:
        """The parent notified us it is missing ``sequence`` itself.

        The loss therefore does not originate at the parent; the member
        relays the notification downstream and waits for upstream repair.
        """
        if sequence < 0:
            raise RecoveryError(f"negative sequence {sequence}")
        self._eln_sequences.add(sequence)
        if sequence > self._highest_seen:
            self._highest_seen = sequence

    def missing_below(self, sequence: int) -> List[int]:
        """Sequences below ``sequence`` seen neither as data nor as ELN."""
        return [
            s
            for s in range(sequence)
            if s not in self._data_sequences and s not in self._eln_sequences
        ]

    def origin(self, next_expected: int) -> LossOrigin:
        """Classify the stream state given the next sequence the member
        expects to consume.

        * every sequence accounted for (data or ELN) -> NONE / UPSTREAM;
        * a contiguous silent gap larger than ``gap_threshold`` (no data
          *and* no ELN) -> PARENT failure: launch the rejoin.
        """
        silent_gap = 0
        upstream = False
        for sequence in range(next_expected, self._highest_seen + 1):
            if sequence in self._data_sequences:
                silent_gap = 0
            elif sequence in self._eln_sequences:
                upstream = True
                silent_gap = 0
            else:
                silent_gap += 1
                if silent_gap > self.gap_threshold:
                    return LossOrigin.PARENT
        # A totally silent parent (nothing at all for > threshold packets)
        # also indicates parent failure; callers express that by passing a
        # next_expected beyond the highest sequence seen.
        if next_expected > self._highest_seen + self.gap_threshold:
            return LossOrigin.PARENT
        return LossOrigin.UPSTREAM if upstream else LossOrigin.NONE
