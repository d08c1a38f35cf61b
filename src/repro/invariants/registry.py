"""Declarative registry of runtime invariants.

Every invariant the checker can enforce is registered here under a
stable name and a *layer* tag (``sim``, ``tree``, ``rost``, ``recovery``
or ``faults``), so callers can enable subsets and reports can say
exactly which guarantee broke.

Two kinds of invariants exist:

* **quiescent** invariants carry a ``check(ctx)`` callable, run by the
  checker at quiescent points (between events, when no handler is on the
  stack).  The callable receives a :class:`CheckContext` and yields one
  dict per violation (``message`` plus optional ``node_ids`` /
  ``snapshot``);
* **instrumented** invariants have ``check=None`` — they are enforced
  inline by :class:`~repro.invariants.checker.InvariantChecker`'s topic
  methods (engine events, ROST switches, recovery episode pricing),
  where the transient state they guard is actually visible.

Violations are reported uniformly as :class:`InvariantViolation`
records: virtual time, the invariant name and layer, the implicated
member ids and a small JSON-able snapshot of the relevant state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Tuple

#: The layers an invariant can belong to, bottom-up.
LAYERS: Tuple[str, ...] = ("sim", "tree", "rost", "recovery", "faults")


@dataclass(frozen=True)
class InvariantViolation:
    """One observed violation: what broke, when, and for whom."""

    invariant: str
    layer: str
    #: Virtual time at which the violation was observed.
    time: float
    message: str
    #: Overlay member ids implicated (empty for kernel-level violations).
    node_ids: Tuple[int, ...] = ()
    #: Small JSON-able snapshot of the state that proves the violation.
    snapshot: Mapping = field(default_factory=dict)

    def __str__(self) -> str:
        ids = f" members={list(self.node_ids)}" if self.node_ids else ""
        return (
            f"[{self.layer}] {self.invariant} violated at t={self.time:.3f}:"
            f" {self.message}{ids}"
        )

    def as_dict(self) -> dict:
        """JSON-ready form (campaign run records embed these)."""
        return {
            "invariant": self.invariant,
            "layer": self.layer,
            "time": self.time,
            "message": self.message,
            "node_ids": list(self.node_ids),
            "snapshot": dict(self.snapshot),
        }


@dataclass
class CheckContext:
    """What a quiescent check sees: the simulation under observation
    (:func:`~repro.invariants.checks.check_tree` passes a bare tree)."""

    checker: "object" = None
    sim: "object" = None
    tree: "object" = None
    churn: "object" = None
    now: float = 0.0
    #: Per-sweep scratch space so checks can share traversals.
    cache: dict = field(default_factory=dict)


CheckFn = Callable[[CheckContext], Iterator[dict]]


@dataclass(frozen=True)
class Invariant:
    """One registered invariant."""

    name: str
    layer: str
    description: str
    #: Quiescent-point checker; ``None`` for instrumented invariants.
    check: Optional[CheckFn] = None

    @property
    def instrumented(self) -> bool:
        return self.check is None


#: Name -> invariant.  Populated by :mod:`repro.invariants.checks`.
REGISTRY: Dict[str, Invariant] = {}


def register_invariant(inv: Invariant) -> Invariant:
    """Add ``inv`` to the registry (names and layers are validated)."""
    if not inv.name:
        raise ValueError("invariant name must be non-empty")
    if inv.layer not in LAYERS:
        raise ValueError(
            f"unknown invariant layer {inv.layer!r}; expected one of {LAYERS}"
        )
    if inv.name in REGISTRY:
        raise ValueError(f"duplicate invariant name {inv.name!r}")
    REGISTRY[inv.name] = inv
    return inv


def invariant(name: str, layer: str, description: str):
    """Decorator registering a quiescent check function."""

    def decorate(fn: CheckFn) -> CheckFn:
        register_invariant(
            Invariant(name=name, layer=layer, description=description, check=fn)
        )
        return fn

    return decorate


def declare_invariant(name: str, layer: str, description: str) -> Invariant:
    """Register an instrumented invariant (enforced by the checker's
    topic methods)."""
    return register_invariant(
        Invariant(name=name, layer=layer, description=description, check=None)
    )


def get_invariant(name: str) -> Invariant:
    inv = REGISTRY.get(name)
    if inv is None:
        raise KeyError(
            f"unknown invariant {name!r}; known: {sorted(REGISTRY)}"
        )
    return inv


def all_invariants() -> Tuple[Invariant, ...]:
    """Every registered invariant, sorted by name (deterministic order)."""
    return tuple(REGISTRY[name] for name in sorted(REGISTRY))


def invariants_for(layers: Optional[Iterable[str]] = None) -> Tuple[Invariant, ...]:
    """Registered invariants restricted to ``layers`` (None = all)."""
    if layers is None:
        return all_invariants()
    wanted = set(layers)
    unknown = wanted - set(LAYERS)
    if unknown:
        raise ValueError(f"unknown invariant layers {sorted(unknown)}")
    return tuple(inv for inv in all_invariants() if inv.layer in wanted)
