"""Experiment registry: ids, metadata, and result containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class ExperimentResult:
    """What one experiment run produces."""

    experiment_id: str
    title: str
    #: Formatted text table(s) in the shape of the paper's figure.
    table: str
    #: Raw series keyed by a descriptive name.
    data: Dict[str, object] = field(default_factory=dict)
    #: Observability payloads captured while the experiment ran (keys
    #: ``trace`` / ``metrics`` / ``profile``, see :mod:`repro.obs`).
    #: Populated by the pool chokepoint, merged by the runner in
    #: submission order; empty unless an obs channel is enabled.
    artifacts: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        return self.table

    # -- durable-store round-trip ------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """JSON-ready form stored by :mod:`repro.store` (and replayed by
        ``--resume``).  ``table`` is carried verbatim and ``data`` /
        ``artifacts`` are JSON-clean by convention (the runner's
        ``--json`` output already relies on that), so a replayed result
        renders byte-identically to the original."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "table": self.table,
            "data": self.data,
            "artifacts": self.artifacts,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ExperimentResult":
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            table=payload["table"],
            data=payload.get("data", {}),
            artifacts=payload.get("artifacts", {}),
        )


@dataclass(frozen=True)
class Experiment:
    """A registered, runnable reproduction of one paper artifact.

    An experiment with a ``units`` declarer is a view over the
    simulations it declares: :meth:`run` serves each declared unit from
    the run cache (or simulates it) and calls ``body`` with the results in
    declaration order, followed by the run kwargs.  Without a declarer,
    ``body`` is the whole experiment and receives the kwargs alone.
    """

    experiment_id: str
    title: str
    paper_artifact: str
    body: Callable[..., ExperimentResult]
    #: ``declarer(scale=..., seed=..., **kw)`` -> the simulation units the
    #: view reads (see :mod:`repro.experiments.units`), or None.
    units: Optional[Callable[..., list]] = None

    def run(self, **kwargs) -> ExperimentResult:
        if self.units is None:
            return self.body(**kwargs)
        from .units import run_unit

        return self.body([run_unit(u) for u in self.units(**kwargs)], **kwargs)

    def __call__(self, **kwargs) -> ExperimentResult:
        return self.run(**kwargs)


REGISTRY: Dict[str, Experiment] = {}


def register(
    experiment_id: str,
    title: str,
    paper_artifact: str,
    units: Optional[Callable[..., list]] = None,
):
    """Decorator registering an experiment body.

    Without ``units`` the body is ``run(scale=..., seed=..., **kw)``; with
    a unit declarer it is a view, ``view(results, scale=..., seed=...,
    **kw)``, over the results of ``units(scale=..., seed=..., **kw)``.
    """

    def decorate(func):
        if experiment_id in REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        REGISTRY[experiment_id] = Experiment(
            experiment_id=experiment_id,
            title=title,
            paper_artifact=paper_artifact,
            body=func,
            units=units,
        )
        return func

    return decorate


def get_experiment(experiment_id: str) -> Experiment:
    try:
        return REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(REGISTRY)}"
        ) from None


def list_experiments() -> List[Experiment]:
    return [REGISTRY[k] for k in sorted(REGISTRY)]


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Resolve ``experiment_id`` and run it.

    This is the module-level, picklable entry point worker processes use
    (:mod:`repro.experiments.pool`): a bound ``Experiment.run`` closure
    cannot cross a process boundary, but ``(id, kwargs)`` can.  Importing
    the package populates the registry under spawn-based executors too.
    """
    from . import get_experiment as _get  # noqa: F401  (registers experiments)

    return get_experiment(experiment_id).run(**kwargs)
