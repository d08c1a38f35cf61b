"""Runtime invariant checking for simulation runs.

The declarative registry (:mod:`~repro.invariants.registry`) names every
guarantee the simulator is supposed to uphold, layer by layer — sim
kernel, overlay tree, ROST switching, recovery pricing, fault injection —
and :class:`InvariantChecker` enforces the suite against any
:class:`~repro.simulation.churn.ChurnSimulation` without modifying
protocol code::

    sim = ChurnSimulation(config, factory, check_invariants=True)
    sim.run()   # raises InvariantError on the first violation

or, accumulating for a report (the campaign subcommands'
``--check-invariants``)::

    checker = InvariantChecker(strict=False)
    sim = ChurnSimulation(config, factory, check_invariants=checker)
    sim.run()
    checker.violations   # structured InvariantViolation records

A bare tree is checked without a simulation by :func:`check_tree`, which
runs the registered tree-shape checks and raises on the first violation.

See ``docs/invariants.md`` for the invariant catalogue and how to add
a new checker.
"""

from .checker import (
    CHECK_REPORT,
    ENV_CHECK_INVARIANTS,
    InvariantChecker,
    checking_enabled,
)
from .checks import check_tree
from .registry import (
    LAYERS,
    REGISTRY,
    CheckContext,
    Invariant,
    InvariantViolation,
    all_invariants,
    declare_invariant,
    get_invariant,
    invariant,
    invariants_for,
    register_invariant,
)

# Importing the checker module registers the built-in suite (see
# repro.invariants.checks); nothing else to do here.

__all__ = [
    "CHECK_REPORT",
    "ENV_CHECK_INVARIANTS",
    "LAYERS",
    "REGISTRY",
    "CheckContext",
    "Invariant",
    "InvariantChecker",
    "InvariantViolation",
    "all_invariants",
    "check_tree",
    "checking_enabled",
    "declare_invariant",
    "get_invariant",
    "invariant",
    "invariants_for",
    "register_invariant",
]
