"""The built-in invariant suite, one registration per guarantee.

Quiescent checks (functions below) run between events over the whole
simulation state; instrumented invariants (declared at the bottom) are
enforced inline by :class:`~repro.invariants.checker.InvariantChecker`
topic methods where the transient state they guard is visible — see
``docs/invariants.md`` for the full catalogue.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from ..errors import InvariantError
from .registry import (
    REGISTRY,
    CheckContext,
    InvariantViolation,
    declare_invariant,
    invariant,
)

#: Event labels that legitimately leave an ever-attached member detached
#: without a pending recovery rejoin: ROST switch-overflow rejoins and the
#: centralized protocols' eviction re-placements.
_DETACHED_RETRY_LABELS = frozenset(
    {"rost-overflow-retry", "ordered-eviction-rejoin"}
)


def _root_reach(ctx: CheckContext) -> dict:
    """BFS from the root, cached per sweep and shared by the tree checks.

    Returns ``{"order": [(node, depth)...], "seen": {id...},
    "revisits": [id...]}`` — ``revisits`` non-empty means a node was
    reachable twice (a cycle or a duplicated child link), in which case
    the traversal still terminates because each id expands once.
    """
    memo = ctx.cache.get("root-reach")
    if memo is None:
        order = []
        seen = set()
        revisits = []
        queue = deque([(ctx.tree.root, 0)])
        while queue:
            node, depth = queue.popleft()
            if node.member_id in seen:
                revisits.append(node.member_id)
                continue
            seen.add(node.member_id)
            order.append((node, depth))
            queue.extend((child, depth + 1) for child in node.children)
        memo = {"order": order, "seen": seen, "revisits": revisits}
        ctx.cache["root-reach"] = memo
    return memo


@invariant(
    "tree-acyclicity",
    "tree",
    "No member's parent chain revisits a member (the overlay is a forest).",
)
def check_tree_acyclicity(ctx: CheckContext) -> Iterator[dict]:
    members = ctx.tree.members
    terminates: set = set()
    reported: set = set()
    for start in members.values():
        path = []
        path_ids: set = set()
        cur = start
        cycle_id = None
        while cur is not None:
            cid = cur.member_id
            if cid in terminates:
                break
            if cid in path_ids:
                cycle_id = cid
                break
            path.append(cid)
            path_ids.add(cid)
            cur = cur.parent
        # Either way, never rescan these members from another start: a
        # chain into a cycle is reported once, for the cycle itself.
        terminates.update(path_ids)
        if cycle_id is not None and cycle_id not in reported:
            cycle = tuple(path[path.index(cycle_id):])
            reported.update(cycle)
            yield {
                "message": (
                    f"parent chain from member {start.member_id} revisits "
                    f"member {cycle_id}"
                ),
                "node_ids": cycle,
            }


@invariant(
    "tree-single-parent",
    "tree",
    "Every member appears in exactly its parent's children list, with a "
    "consistent backlink.",
)
def check_single_parent(ctx: CheckContext) -> Iterator[dict]:
    members = ctx.tree.members
    listed_in: dict = {}
    for node in members.values():
        for child in node.children:
            listed_in[child.member_id] = listed_in.get(child.member_id, 0) + 1
            if child.parent is not node:
                other = child.parent.member_id if child.parent else None
                yield {
                    "message": (
                        f"member {child.member_id} is a child of "
                        f"{node.member_id} but points at parent {other}"
                    ),
                    "node_ids": (child.member_id, node.member_id),
                }
    for node in members.values():
        count = listed_in.get(node.member_id, 0)
        expected = 0 if node.parent is None else 1
        if count != expected:
            yield {
                "message": (
                    f"member {node.member_id} appears in {count} children "
                    f"lists (expected {expected})"
                ),
                "node_ids": (node.member_id,),
                "snapshot": {"listed_in": count, "has_parent": expected == 1},
            }


@invariant(
    "tree-degree-cap",
    "tree",
    "No member forwards to more children than its bandwidth-derived "
    "out-degree cap allows.",
)
def check_degree_cap(ctx: CheckContext) -> Iterator[dict]:
    for node in ctx.tree.members.values():
        if len(node.children) > node.out_degree_cap:
            yield {
                "message": (
                    f"member {node.member_id} has {len(node.children)} "
                    f"children, cap {node.out_degree_cap}"
                ),
                "node_ids": (node.member_id,),
                "snapshot": {
                    "children": len(node.children),
                    "out_degree_cap": node.out_degree_cap,
                    "bandwidth": node.bandwidth,
                },
            }


@invariant(
    "tree-attachment",
    "tree",
    "Attached flags, layer numbers and the attached-count match "
    "reachability from the root.",
)
def check_attachment(ctx: CheckContext) -> Iterator[dict]:
    tree = ctx.tree
    reach = _root_reach(ctx)
    for node, depth in reach["order"]:
        if tree.members.get(node.member_id) is not node:
            yield {
                "message": f"member {node.member_id} reachable but not registered",
                "node_ids": (node.member_id,),
            }
        if not node.attached:
            yield {
                "message": f"member {node.member_id} reachable but flagged detached",
                "node_ids": (node.member_id,),
            }
        if node.layer != depth:
            yield {
                "message": (
                    f"member {node.member_id} at depth {depth} carries "
                    f"layer {node.layer}"
                ),
                "node_ids": (node.member_id,),
                "snapshot": {"depth": depth, "layer": node.layer},
            }
    seen = reach["seen"]
    if tree.num_attached != len(seen):
        yield {
            "message": (
                f"attached-count drift: counter {tree.num_attached}, "
                f"reachable {len(seen)}"
            ),
            "snapshot": {"counter": tree.num_attached, "reachable": len(seen)},
        }
    for member_id, node in tree.members.items():
        if node.attached and member_id not in seen:
            yield {
                "message": f"member {member_id} flagged attached but unreachable",
                "node_ids": (member_id,),
            }
        if not node.attached and node.layer != -1:
            yield {
                "message": (
                    f"detached member {member_id} carries layer {node.layer}"
                ),
                "node_ids": (member_id,),
            }


#: The registered checks that read nothing but the tree.
TREE_SHAPE_CHECKS = (
    "tree-acyclicity",
    "tree-single-parent",
    "tree-degree-cap",
    "tree-attachment",
)


def check_tree(tree) -> None:
    """Run :data:`TREE_SHAPE_CHECKS` on a bare tree; raise
    :class:`~repro.errors.InvariantError` on the first violation.

    ``tree-orphan-recovery`` stays out: it reads the churn driver and the
    event queue."""
    ctx = CheckContext(tree=tree)
    for name in TREE_SHAPE_CHECKS:
        inv = REGISTRY[name]
        for found in inv.check(ctx):
            raise InvariantError(
                InvariantViolation(
                    invariant=inv.name,
                    layer=inv.layer,
                    time=ctx.now,
                    message=found["message"],
                    node_ids=tuple(found.get("node_ids", ())),
                    snapshot=found.get("snapshot", {}),
                )
            )


@invariant(
    "tree-orphan-recovery",
    "tree",
    "Every detached ever-attached subtree root is inside an active "
    "recovery: a pending rejoin timer or a protocol re-placement retry.",
)
def check_orphan_recovery(ctx: CheckContext) -> Iterator[dict]:
    pending = getattr(ctx.churn, "_pending_rejoins", {})
    unaccounted = []
    for node in ctx.tree.members.values():
        if node.attached or node.is_root or node.parent is not None:
            continue
        if not node.ever_attached:
            continue  # still joining; the join-retry loop owns it
        timer = pending.get(node.member_id)
        if timer is not None and not timer.cancelled:
            continue
        unaccounted.append(node.member_id)
    if not unaccounted:
        return
    # Protocol-level re-placements (switch overflow, eviction rejoins)
    # track their member only through the closure of a labeled retry
    # event, so they are accounted in aggregate.
    allowance = sum(
        1
        for event in ctx.sim.event_queue.live_events()
        if event.label in _DETACHED_RETRY_LABELS
    )
    if len(unaccounted) > allowance:
        yield {
            "message": (
                f"{len(unaccounted)} detached ever-attached subtree roots "
                f"but only {allowance} pending re-placement retries"
            ),
            "node_ids": tuple(sorted(unaccounted)),
            "snapshot": {"allowance": allowance},
        }


@invariant(
    "sim-queue-accounting",
    "sim",
    "The event queue's live counter equals its actual number of pending "
    "non-cancelled events.",
)
def check_queue_accounting(ctx: CheckContext) -> Iterator[dict]:
    queue = ctx.sim.event_queue
    live = sum(1 for _ in queue.live_events())
    if live != len(queue):
        yield {
            "message": (
                f"event-queue accounting drift: counter {len(queue)}, "
                f"live entries {live}"
            ),
            "snapshot": {"counter": len(queue), "live": live},
        }


@invariant(
    "fault-atomic-cofail",
    "faults",
    "Members named in one correlated fault event all departed at the same "
    "virtual instant (no survivor lingers past the event).",
)
def check_atomic_cofail(ctx: CheckContext) -> Iterator[dict]:
    pending = getattr(ctx.checker, "_cofail_pending", None)
    if not pending:
        return
    members = ctx.tree.members
    done = []
    for ids, when in pending.items():
        if ctx.now <= when:
            continue  # same-instant events may still be draining
        done.append(ids)
        survivors = sorted(i for i in ids if i in members)
        if survivors:
            yield {
                "message": (
                    f"co-failure at t={when:.3f} left {len(survivors)} of "
                    f"{len(ids)} victims alive"
                ),
                "node_ids": tuple(survivors),
                "snapshot": {"failed_at": when, "co_failed": sorted(ids)},
            }
    for ids in done:
        del pending[ids]


# -- instrumented invariants (enforced by InvariantChecker topic methods) -----------

declare_invariant(
    "sim-clock-monotonic",
    "sim",
    "Virtual time never moves backwards: every fired event's timestamp is "
    ">= the previous event's and equals the simulator clock.",
)
declare_invariant(
    "sim-no-fire-after-cancel",
    "sim",
    "A cancelled event never fires.",
)
declare_invariant(
    "rost-switch-btp-order",
    "rost",
    "A completed ROST switch never decreases the BTP ordering: the "
    "promoted member's (verified) BTP is >= its demoted ex-parent's.",
)
declare_invariant(
    "rost-lock-no-double-grant",
    "rost",
    "The switch-locking protocol never grants overlapping locks: no "
    "member participates in two switch/promote operations within one "
    "lock-hold window.",
)
declare_invariant(
    "recovery-episode-conservation",
    "recovery",
    "Episode accounting conserves packets: each priced member adds "
    "exactly the episode's gap, and 0 <= repaired <= gap.",
)
declare_invariant(
    "recovery-residual-covers-rate",
    "recovery",
    "When a striped (CER) recovery group's live residual bandwidth sums "
    "to at least the stream rate, the episode's repair coverage is full.",
)
declare_invariant(
    "recovery-backfill-window",
    "recovery",
    "Post-rejoin backfill never delivers sequence numbers outside the new "
    "parent's buffer window (no duplicate / out-of-window delivery).",
)
