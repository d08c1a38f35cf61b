"""Unit tests for the invariant registry and the InvariantChecker.

The end-to-end "a seeded bug trips its checker" demonstrations live in
``tests/fuzz/test_mutation_smoke.py``; this module covers the registry
contract, checker lifecycle/configuration, and the pure-structure
invariants that can be exercised by corrupting a tree directly (through
the checker, and through :func:`check_tree` on a bare tree).
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from repro.errors import InvariantError, SimulationError
from repro.invariants import (
    LAYERS,
    REGISTRY,
    Invariant,
    InvariantChecker,
    InvariantViolation,
    all_invariants,
    check_tree,
    get_invariant,
    invariants_for,
    register_invariant,
)
from repro.overlay.tree import MulticastTree
from repro.protocols import PROTOCOLS
from repro.sim.engine import Simulator
from repro.simulation.churn import ChurnSimulation
from tests.conftest import make_node, small_sim_config

EXPECTED_INVARIANTS = {
    "sim-clock-monotonic",
    "sim-no-fire-after-cancel",
    "sim-queue-accounting",
    "tree-acyclicity",
    "tree-single-parent",
    "tree-degree-cap",
    "tree-attachment",
    "tree-orphan-recovery",
    "rost-switch-btp-order",
    "rost-lock-no-double-grant",
    "recovery-episode-conservation",
    "recovery-residual-covers-rate",
    "recovery-backfill-window",
    "fault-atomic-cofail",
}


# -- registry ------------------------------------------------------------------


def test_builtin_suite_is_registered():
    assert set(REGISTRY) == EXPECTED_INVARIANTS
    for inv in all_invariants():
        assert inv.layer in LAYERS
        assert inv.description


def test_suite_spans_every_layer_with_both_kinds():
    layers = {inv.layer for inv in all_invariants()}
    assert layers == set(LAYERS)
    instrumented = {inv.name for inv in all_invariants() if inv.instrumented}
    quiescent = {inv.name for inv in all_invariants() if not inv.instrumented}
    assert "sim-clock-monotonic" in instrumented
    assert "tree-acyclicity" in quiescent
    assert instrumented | quiescent == EXPECTED_INVARIANTS


def test_invariants_for_filters_by_layer():
    tree_only = invariants_for(["tree"])
    assert {inv.layer for inv in tree_only} == {"tree"}
    assert {inv.name for inv in tree_only} == {
        name for name in EXPECTED_INVARIANTS if name.startswith("tree-")
    }
    assert invariants_for(None) == all_invariants()
    with pytest.raises(ValueError, match="unknown invariant layers"):
        invariants_for(["tree", "nonsense"])


def test_get_invariant_unknown_name():
    assert get_invariant("tree-acyclicity").layer == "tree"
    with pytest.raises(KeyError, match="unknown invariant"):
        get_invariant("no-such-invariant")


def test_duplicate_and_invalid_registrations_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        register_invariant(
            Invariant(name="tree-acyclicity", layer="tree", description="dup")
        )
    with pytest.raises(ValueError, match="unknown invariant layer"):
        register_invariant(
            Invariant(name="x-fresh", layer="kernel", description="bad layer")
        )
    with pytest.raises(ValueError, match="non-empty"):
        register_invariant(Invariant(name="", layer="sim", description="unnamed"))
    assert "x-fresh" not in REGISTRY


def test_violation_str_and_as_dict():
    violation = InvariantViolation(
        invariant="tree-degree-cap",
        layer="tree",
        time=12.5,
        message="member 7 has 3 children, cap 2",
        node_ids=(7,),
        snapshot={"children": 3, "out_degree_cap": 2},
    )
    text = str(violation)
    assert "[tree] tree-degree-cap violated at t=12.500" in text
    assert "members=[7]" in text
    as_dict = violation.as_dict()
    assert as_dict["node_ids"] == [7]
    assert as_dict["snapshot"]["children"] == 3
    import json

    json.dumps(as_dict)  # must be JSON-serializable as-is


# -- checker lifecycle ---------------------------------------------------------


def bare_target():
    sim = Simulator()
    tree = MulticastTree(make_node(0, bandwidth=10.0, cap=10, is_root=True))
    return SimpleNamespace(sim=sim, tree=tree)


def test_checker_rejects_bad_configuration():
    with pytest.raises(SimulationError, match="interval_events"):
        InvariantChecker(interval_events=0)
    with pytest.raises(SimulationError, match="cannot attach"):
        InvariantChecker().attach(object())
    checker = InvariantChecker()
    checker.attach(bare_target())
    with pytest.raises(SimulationError, match="one simulation"):
        checker.attach(bare_target())


def test_layer_restriction_limits_the_suite():
    checker = InvariantChecker(layers=["sim", "tree"])
    names = {inv.name for inv in checker.invariants}
    assert names == {
        n
        for n in EXPECTED_INVARIANTS
        if n.startswith("sim-") or n.startswith("tree-")
    }


def test_strict_checker_raises_with_structured_violation():
    checker = InvariantChecker()
    target = bare_target()
    checker.attach(target)
    orphan = make_node(1)
    orphan.ever_attached = True
    target.tree.add_member(orphan)
    with pytest.raises(InvariantError) as excinfo:
        checker.finalize()
    assert excinfo.value.violation.invariant == "tree-orphan-recovery"
    assert excinfo.value.violation.node_ids == (1,)


def test_violation_names_deduplicates_in_first_seen_order():
    checker = InvariantChecker(strict=False)
    checker.attach(bare_target())
    checker._record("tree-degree-cap", 1.0, "first")
    checker._record("sim-queue-accounting", 2.0, "second")
    checker._record("tree-degree-cap", 3.0, "repeat")
    assert checker.violation_names == ["tree-degree-cap", "sim-queue-accounting"]
    assert len(checker.violations) == 3


def test_clean_churn_run_has_zero_violations():
    cfg = small_sim_config(population=50, seed=21)
    checker = InvariantChecker(strict=False, interval_events=32)
    sim = ChurnSimulation(cfg, PROTOCOLS["rost"], check_invariants=checker)
    assert sim.invariant_checker is checker  # instance used as-is
    sim.run()
    assert checker.violations == []
    assert checker.sweeps > 0
    assert checker.events_seen > 0


def test_checking_a_rost_run_leaves_its_result_unchanged():
    """The checker values switches through an unpriced read, so a checked
    run reports the same messages (and everything else) as an unchecked
    one."""
    cfg = small_sim_config(population=100, seed=12)
    cfg = dataclasses.replace(
        cfg, workload=dataclasses.replace(cfg.workload, root_bandwidth=10.0)
    )
    plain = ChurnSimulation(cfg, PROTOCOLS["rost"]).run()
    checker = InvariantChecker(strict=False)
    checked = ChurnSimulation(cfg, PROTOCOLS["rost"], check_invariants=checker).run()
    assert plain.extras["switches"] > 0
    assert checker.violations == []
    assert checked.to_payload() == plain.to_payload()


def test_check_invariants_true_attaches_strict_checker():
    cfg = small_sim_config(population=40, seed=22)
    sim = ChurnSimulation(cfg, PROTOCOLS["min-depth"], check_invariants=True)
    assert sim.invariant_checker is not None
    assert sim.invariant_checker.strict
    sim.run()  # a clean run must not raise
    assert sim.invariant_checker.violations == []


# -- pure-structure invariants via direct corruption ---------------------------


def test_parent_cycle_is_detected():
    checker = InvariantChecker(strict=False)
    target = bare_target()
    checker.attach(target)
    tree = target.tree
    a, b = make_node(1), make_node(2)
    tree.add_member(a)
    tree.add_member(b)
    tree.attach(a, tree.root)
    tree.attach(b, a)
    # A buggy splice points a's parent link back down at its child.
    b.children.append(a)
    a.parent = b
    checker.finalize()
    names = checker.violation_names
    assert "tree-acyclicity" in names
    assert "tree-single-parent" in names


def test_attachment_flag_drift_is_detected():
    checker = InvariantChecker(strict=False)
    target = bare_target()
    checker.attach(target)
    tree = target.tree
    a = make_node(1)
    tree.add_member(a)
    tree.attach(a, tree.root)
    a.attached = False  # reachable from the root yet flagged detached
    checker.finalize()
    assert "tree-attachment" in checker.violation_names


def test_queue_accounting_drift_is_detected():
    checker = InvariantChecker(strict=False)
    target = bare_target()
    checker.attach(target)
    target.sim.schedule_at(10.0, lambda: None)
    target.sim.event_queue._live += 1  # seeded bookkeeping bug
    checker.finalize()
    assert "sim-queue-accounting" in checker.violation_names


# -- check_tree: the tree-shape checks on a bare tree ---------------------------


def _sound_tree():
    """root -> a -> c and root -> b, plus d registered but detached."""
    tree = MulticastTree(make_node(0, bandwidth=3.0, cap=3, is_root=True))
    nodes = {name: make_node(i, cap=2) for i, name in enumerate("abcd", start=1)}
    for node in nodes.values():
        tree.add_member(node)
    tree.attach(nodes["a"], tree.root)
    tree.attach(nodes["b"], tree.root)
    tree.attach(nodes["c"], nodes["a"])
    return tree, nodes


def _parent_chain_cycle(tree, n):
    n["c"].children.append(n["a"])
    n["a"].parent = n["c"]


def _attached_count_drift(tree, n):
    tree._attached_count += 1


@pytest.mark.parametrize(
    "corrupt, caught_by",
    [
        pytest.param(_parent_chain_cycle, "tree-acyclicity", id="cycle"),
        pytest.param(
            lambda tree, n: setattr(n["c"], "parent", n["b"]),
            "tree-single-parent",
            id="broken-backlink",
        ),
        pytest.param(
            lambda tree, n: setattr(n["c"], "layer", 5),
            "tree-attachment",
            id="layer-mismatch",
        ),
        pytest.param(
            _attached_count_drift, "tree-attachment", id="attached-count-drift"
        ),
        pytest.param(
            lambda tree, n: setattr(n["a"], "out_degree_cap", 0),
            "tree-degree-cap",
            id="over-cap",
        ),
        pytest.param(
            lambda tree, n: setattr(n["c"], "attached", False),
            "tree-attachment",
            id="reachable-flagged-detached",
        ),
        pytest.param(
            lambda tree, n: tree.members.pop(n["c"].member_id),
            "tree-attachment",
            id="reachable-unregistered",
        ),
        pytest.param(
            lambda tree, n: setattr(n["d"], "parent", n["b"]),
            "tree-single-parent",
            id="detached-under-attached",
        ),
        pytest.param(
            lambda tree, n: n["a"].children.append(n["c"]),
            "tree-single-parent",
            id="child-listed-twice",
        ),
    ],
)
def test_check_tree_raises_on_corruption(corrupt, caught_by):
    tree, nodes = _sound_tree()
    check_tree(tree)
    corrupt(tree, nodes)
    with pytest.raises(InvariantError) as excinfo:
        check_tree(tree)
    assert excinfo.value.violation.invariant == caught_by
