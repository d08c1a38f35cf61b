"""Cross-stripe resilience accounting for K-tree delivery.

Each stripe tree runs its own :class:`~repro.metrics.collectors.
ResilienceMetrics`, which records accurate per-member outage intervals
(detach -> reattach/departure).  This module combines the K per-stripe
timelines of every measured member into the multi-tree quality metrics:

* **stripe outage** — some stripe is down: quality degrades by 1/K;
* **blackout** — *all* K stripes are down at the same instant (the
  single-tree "streaming disruption" equivalent, which SplitStream-style
  interior-disjointness is designed to make rare);
* **delivered quality** — the fraction-of-stripes measure
  ``1 - lost stripe-time / (K x view time)``.

Besides run-level means, the aggregator bins the measurement window into
a fixed number of equal slots and accumulates per-bin view/outage/
blackout time, yielding the blackout-rate, stripe-outage and
delivered-quality *series* the ``multitree_resilience`` experiment
reports (and the validate gate freezes).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from .intervals import clip_intervals, intersect_many, total_length

Interval = Tuple[float, float]

#: Number of equal-width series bins over the measurement window.  Small
#: on purpose: per-bin rates must stay statistically meaningful at the
#: smoke scales the golden baseline freezes.
DEFAULT_SERIES_BINS = 6


def blackout_intervals(
    per_stripe: Sequence[Sequence[Interval]], low: float, high: float
) -> List[Interval]:
    """Instants inside ``[low, high]`` where *every* stripe is down."""
    clipped = [clip_intervals(stripe, low, high) for stripe in per_stripe]
    return intersect_many(clipped)


class MultiTreeResilienceMetrics:
    """Combine per-member, per-stripe outage timelines into K-tree metrics.

    The driver feeds one :meth:`observe_member` call per measured member
    (a member that departed inside the measurement window), carrying its
    view window and its K per-stripe outage-interval lists.  All derived
    quantities are plain arithmetic over those calls — deterministic and
    independent of observation order except for float summation order,
    which the driver keeps fixed by iterating members in insertion order.
    """

    def __init__(self, num_trees: int, window_start: float, window_end: float):
        if num_trees < 1:
            raise ValueError(f"num_trees must be >= 1, got {num_trees}")
        if window_end <= window_start:
            raise ValueError("window_end must be > window_start")
        self.num_trees = num_trees
        self.window_start = window_start
        self.window_end = window_end
        self.members_measured = 0
        #: Per-member counts (means over departed members).
        self._stripe_outage_counts: List[int] = []
        self._blackout_counts: List[int] = []
        self._qualities: List[float] = []
        #: Time integrals over all measured members.
        self.view_seconds = 0.0
        self.stripe_outage_seconds = 0.0
        self.blackout_seconds = 0.0
        #: Per-bin integrals: member view-time, summed stripe outage time,
        #: blackout time.
        self._bin_view = [0.0] * DEFAULT_SERIES_BINS
        self._bin_outage = [0.0] * DEFAULT_SERIES_BINS
        self._bin_blackout = [0.0] * DEFAULT_SERIES_BINS

    # -- recording -------------------------------------------------------------

    def observe_member(
        self,
        member_id: int,
        join_s: float,
        departure_s: float,
        per_stripe: Sequence[Sequence[Interval]],
    ) -> None:
        """Fold one measured member's K stripe timelines into the totals."""
        if len(per_stripe) != self.num_trees:
            raise ValueError(
                f"expected {self.num_trees} stripe timelines, "
                f"got {len(per_stripe)}"
            )
        view = departure_s - join_s
        if view <= 0 or departure_s != departure_s:
            return
        low, high = join_s, departure_s
        clipped = [clip_intervals(stripe, low, high) for stripe in per_stripe]
        blackouts = blackout_intervals(per_stripe, low, high)
        lost = sum(total_length(c) for c in clipped)
        blackout_time = total_length(blackouts)

        self.members_measured += 1
        self._stripe_outage_counts.append(sum(len(c) for c in clipped))
        self._blackout_counts.append(len(blackouts))
        self._qualities.append(
            max(0.0, 1.0 - lost / (self.num_trees * view))
        )
        self.view_seconds += view
        self.stripe_outage_seconds += lost
        self.blackout_seconds += blackout_time

        self._bin_add(self._bin_view, [(low, high)])
        for stripe in clipped:
            self._bin_add(self._bin_outage, stripe)
        self._bin_add(self._bin_blackout, blackouts)

    def _bin_add(self, bins: List[float], intervals: Sequence[Interval]) -> None:
        """Distribute interval time over the window's equal-width bins."""
        span = self.window_end - self.window_start
        width = span / DEFAULT_SERIES_BINS
        for start, end in intervals:
            lo = max(start, self.window_start)
            hi = min(end, self.window_end)
            if hi <= lo:
                continue
            first = min(int((lo - self.window_start) / width), DEFAULT_SERIES_BINS - 1)
            last = min(int((hi - self.window_start) / width), DEFAULT_SERIES_BINS - 1)
            for index in range(first, last + 1):
                bin_lo = self.window_start + index * width
                bin_hi = bin_lo + width
                overlap = min(hi, bin_hi) - max(lo, bin_lo)
                if overlap > 0:
                    bins[index] += overlap

    # -- derived metrics ----------------------------------------------------------

    @property
    def stripe_outages_per_node(self) -> float:
        return _mean(self._stripe_outage_counts, 0.0)

    @property
    def blackouts_per_node(self) -> float:
        return _mean(self._blackout_counts, 0.0)

    @property
    def mean_delivered_quality(self) -> float:
        return _mean(self._qualities, 1.0)

    @property
    def blackout_rate(self) -> float:
        """Fraction of member view-time spent in total blackout."""
        if self.view_seconds <= 0:
            return 0.0
        return self.blackout_seconds / self.view_seconds

    @property
    def stripe_outage_rate(self) -> float:
        """Fraction of member stripe-time (K x view) lost to outages."""
        if self.view_seconds <= 0:
            return 0.0
        return self.stripe_outage_seconds / (self.num_trees * self.view_seconds)

    def series(self) -> Dict[str, List[float]]:
        """Per-bin blackout-rate / stripe-outage / delivered-quality series.

        Bins without any member view-time report 0 blackout, 0 outage and
        quality 1 (nothing was watched, nothing was lost) so the series
        stay NaN-free for the validate gate's flattened paths.
        """
        span = self.window_end - self.window_start
        width = span / DEFAULT_SERIES_BINS
        t, blackout, outage, quality = [], [], [], []
        for index in range(DEFAULT_SERIES_BINS):
            view = self._bin_view[index]
            t.append(self.window_start + (index + 0.5) * width)
            if view <= 0:
                blackout.append(0.0)
                outage.append(0.0)
                quality.append(1.0)
                continue
            blackout.append(self._bin_blackout[index] / view)
            stripe_time = self.num_trees * view
            outage.append(self._bin_outage[index] / stripe_time)
            quality.append(
                max(0.0, 1.0 - self._bin_outage[index] / stripe_time)
            )
        return {
            "t": t,
            "blackout_rate": blackout,
            "stripe_outage_rate": outage,
            "delivered_quality": quality,
        }

    def as_dict(self) -> dict:
        """JSON-ready summary (the campaign report's per-run block)."""
        return {
            "num_trees": self.num_trees,
            "members_measured": self.members_measured,
            "stripe_outages_per_node": self.stripe_outages_per_node,
            "blackouts_per_node": self.blackouts_per_node,
            "blackout_rate": self.blackout_rate,
            "stripe_outage_rate": self.stripe_outage_rate,
            "mean_delivered_quality": self.mean_delivered_quality,
            "view_seconds": self.view_seconds,
            "stripe_outage_seconds": self.stripe_outage_seconds,
            "blackout_seconds": self.blackout_seconds,
            "series": self.series(),
        }


def _mean(values: Sequence[float], empty: float) -> float:
    if not values:
        return empty
    result = sum(values) / len(values)
    return result if result == result else math.nan
