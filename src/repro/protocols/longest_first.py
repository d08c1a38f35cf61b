"""The longest-first join algorithm (Section 2.1, from Sripanidkulchai et
al.).

A joining member attaches under the *oldest* known member with spare
capacity, exploiting the long-tailed lifetime distribution: old members
are likely to stay longer.  The paper notes (and Fig. 4/7 confirm) that
the resulting tree is tall, which ultimately hurts both reliability and
service delay.
"""

from __future__ import annotations

import math
from typing import Optional

from ..overlay.node import OverlayNode
from .base import TreeProtocol


class LongestFirstProtocol(TreeProtocol):
    """Attach under the longest-lived candidate; no proactive maintenance."""

    name = "longest-first"
    centralized = False

    def place(self, node: OverlayNode, rejoin: bool) -> bool:
        candidates = self.sample_candidates(node, mature_view=rejoin)
        parent = self._select_oldest(node, candidates)
        if parent is None:
            return False
        self.attach(node, parent)
        return True

    def _select_oldest(self, node, candidates) -> Optional[OverlayNode]:
        # Oldest = smallest join time; the root has join time 0 and in
        # the paper always has spare slots early on.  Ties break toward
        # network proximity, as in the join rule.  Two-phase like
        # select_min_depth: delays are computed (batched) only for the
        # candidates tied on join time, and a candidate younger than the
        # best so far is skipped before its capacity is read.
        # naive_select_min ranked by "join_time" is the full scan this
        # must agree with.
        tied = []
        best_time = math.inf
        for candidate in candidates:
            t = candidate.join_time
            if t > best_time:
                continue
            if candidate.spare_degree <= 0 or not candidate.attached:
                continue
            if t < best_time:
                best_time = t
                tied = [candidate]
            else:
                tied.append(candidate)
        if not tied:
            return None
        if len(tied) == 1:
            return tied[0]
        delays = self.ctx.oracle.delays_from(
            node.underlay_node, [c.underlay_node for c in tied]
        )
        return tied[int(delays.argmin())]
