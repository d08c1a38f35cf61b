"""Campaigns: a grid of (scenario x protocol x ... x seed) runs and one report.

A campaign spec names a set of *scenarios* (fault lists), the protocols
to subject to them, and the seeds to replicate over.  The runner fans the
grid out through :mod:`repro.experiments.pool` worker processes and
merges the per-run records into one report.

:class:`BaseCampaignSpec` holds what every campaign shares: the common
fields and their validation, the JSON/TOML round trip, the per-run
config, the seeds derived from ``--seed``, the fan-out
(:func:`run_campaign`) and the report skeleton (:class:`CampaignReport`).
A subclass adds its own grid cells, recovery schemes, per-run record and
report rows:

* :class:`CampaignSpec` (this module) — correlated-fault campaigns over
  one tree per run, reporting
  * MTTR (mean time to repair) split by cause — injected vs churn;
  * per-member disruption counts and delivered-data ratio;
  * CER repair success rate under correlated loss (e.g. a stub-domain
    outage) vs the independent-loss baseline scenario, for the plain,
    single-source and domain-aware recovery schemes;
* :class:`~repro.multitree.campaign.MultiTreeCampaignSpec` — the same
  scenarios across K stripe trees.

Results are merged in submission order and every random draw is keyed by
the run seed, so the report is byte-identical for a given seed at any
``--jobs`` value.

Campaigns are also *checkpointable*: each grid unit travels through the
pool chokepoint, so with ``--store DIR`` every completed unit commits
durably to the run-store ledger (:mod:`repro.store`) and a campaign
killed mid-run — even ``kill -9`` — can be restarted with ``--resume`` to
replay the finished units and execute only the missing ones, yielding the
same report bytes as an uninterrupted run.  See ``docs/store.md``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Sequence, Tuple

from ..config import SimulationConfig, paper_config
from ..errors import FaultError
from ..metrics.collectors import ResilienceMetrics
from ..metrics.report import render_table
from ..protocols import PROTOCOLS
from ..recovery.schemes import cer_scheme, single_source_scheme
from ..simulation.streaming import RecoverySimulation
from .injector import FaultInjector
from .model import Fault, fault_from_spec
from .schedule import FaultSchedule, _load_spec_file

#: Version of the JSON report layout (asserted by CI's smoke job).
REPORT_SCHEMA_VERSION = 1

#: Cap on embedded violation reports per run record (keeps a pathological
#: run's JSON bounded; the total count is always exact).
MAX_VIOLATION_REPORTS = 25

#: The built-in example campaign: correlated stub-domain loss and plain
#: node crashes against an undisturbed baseline.  Checked-in mirror:
#: ``examples/campaigns/stub_outage.json``.
DEFAULT_CAMPAIGN_SPEC: dict = {
    "name": "stub-outage-vs-independent",
    "description": (
        "CER repair success and MTTR under a correlated stub-domain "
        "outage vs independent node crashes vs no faults"
    ),
    "population": 600,
    "warmup_lifetimes": 0.5,
    "measure_lifetimes": 1.0,
    "protocols": ["rost"],
    "group_size": 3,
    "buffer_s": 5.0,
    "domain_aware": True,
    "scenarios": [
        {"name": "baseline", "faults": []},
        {
            "name": "node-crashes",
            "faults": [{"kind": "node-crash", "count": 12, "at_frac": 0.55}],
        },
        {
            "name": "stub-outage",
            "faults": [
                {"kind": "stub-domain-outage", "domains": 2, "at_frac": 0.55}
            ],
        },
    ],
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One named fault list within a campaign."""

    name: str
    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise FaultError("scenario name must be non-empty")
        object.__setattr__(self, "faults", tuple(self.faults))

    def to_spec(self) -> dict:
        return {"name": self.name, "faults": [f.to_spec() for f in self.faults]}

    @classmethod
    def from_spec(cls, spec: dict) -> "ScenarioSpec":
        if not isinstance(spec, dict):
            raise FaultError(
                f"scenario spec must be a mapping, got {type(spec).__name__}"
            )
        unknown = sorted(set(spec) - {"name", "faults"})
        if unknown:
            raise FaultError(f"unknown scenario spec keys {unknown}")
        return cls(
            name=spec.get("name", ""),
            faults=tuple(fault_from_spec(f) for f in spec.get("faults", [])),
        )


def _nanmean(values: Sequence[float]) -> float:
    clean = [v for v in values if isinstance(v, (int, float)) and v == v]
    return sum(clean) / len(clean) if clean else math.nan


def _require_unique(what: str, values: Sequence) -> None:
    if len(set(values)) != len(values):
        raise FaultError(f"duplicate {what}: {list(values)}")


@dataclass(frozen=True)
class BaseCampaignSpec:
    """The fields, validation and round trip every campaign shares.

    A subclass sets the class constants below and defines
    ``scheme_list()``, ``cells()`` (the grid cells in submission order,
    each a ``(summary path, unit kwargs)`` pair), ``report_axes()`` (the
    report's axis lists), ``report_header()`` and ``summarize(runs)``
    (one cell's summary entry and table row from its per-seed records).
    """

    #: The built-in spec :meth:`resolve` falls back to.
    DEFAULT: ClassVar[dict]
    #: The registered experiment that runs one grid cell at one seed.
    UNIT_EXPERIMENT: ClassVar[str]
    #: The report title (and the campaign experiment's title) prefix.
    TITLE: ClassVar[str]
    #: How many consecutive seeds, from the CLI ``--seed``, a spec
    #: without ``seeds`` runs.
    DERIVED_SEEDS: ClassVar[int]
    #: The smallest accepted ``group_size``.
    MIN_GROUP_SIZE: ClassVar[int]

    name: str
    description: str = ""
    population: int = 600
    warmup_lifetimes: float = 0.5
    measure_lifetimes: float = 1.0
    protocols: Tuple[str, ...] = ("rost",)
    #: Replication seeds; empty means "derive from the CLI --seed".
    seeds: Tuple[int, ...] = ()
    #: CER/MLC recovery-group size.
    group_size: int = 3
    buffer_s: float = 5.0
    #: Root fan-out override.  ``None`` keeps the paper's 100-slot root;
    #: small smoke campaigns set a low value so trees have depth (and
    #: recovery episodes) even with a dozen members.
    root_bandwidth: Optional[float] = None
    scenarios: Tuple[ScenarioSpec, ...] = ()

    def __post_init__(self) -> None:
        for name in ("protocols", "seeds", "scenarios"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.name:
            raise FaultError("campaign name must be non-empty")
        if self.population < 1:
            raise FaultError(f"population must be >= 1, got {self.population}")
        if self.warmup_lifetimes < 0:
            raise FaultError(
                f"warmup_lifetimes must be >= 0, got {self.warmup_lifetimes}"
            )
        if self.measure_lifetimes <= 0:
            raise FaultError(
                f"measure_lifetimes must be > 0, got {self.measure_lifetimes}"
            )
        if self.buffer_s <= 0:
            raise FaultError(f"buffer_s must be > 0, got {self.buffer_s}")
        if self.root_bandwidth is not None and self.root_bandwidth < 1:
            raise FaultError(
                f"root_bandwidth must be >= 1, got {self.root_bandwidth}"
            )
        if self.group_size < self.MIN_GROUP_SIZE:
            raise FaultError(
                f"group_size must be >= {self.MIN_GROUP_SIZE}, "
                f"got {self.group_size}"
            )
        if not self.protocols:
            raise FaultError("campaign needs at least one protocol")
        unknown = sorted(set(self.protocols) - set(PROTOCOLS))
        if unknown:
            raise FaultError(
                f"unknown protocols {unknown}; known: {sorted(PROTOCOLS)}"
            )
        _require_unique("protocols", self.protocols)
        if not self.scenarios:
            raise FaultError("campaign needs at least one scenario")
        _require_unique("scenario names", [s.name for s in self.scenarios])
        for seed in self.seeds:
            if seed < 0:
                raise FaultError(f"seeds must be >= 0, got {seed}")

    def scenario(self, name: str) -> ScenarioSpec:
        for scenario in self.scenarios:
            if scenario.name == name:
                return scenario
        raise FaultError(
            f"unknown scenario {name!r}; known: {[s.name for s in self.scenarios]}"
        )

    def run_seeds(self, seed: int) -> Tuple[int, ...]:
        """The replication seeds: ``seeds``, else ``DERIVED_SEEDS``
        consecutive seeds starting at ``seed``."""
        return self.seeds or tuple(range(seed, seed + self.DERIVED_SEEDS))

    def config(self, seed: int, scale: float) -> SimulationConfig:
        """The simulation config of one run."""
        config = paper_config(population=self.population, seed=seed, scale=scale)
        config = dataclasses.replace(
            config,
            warmup_lifetimes=self.warmup_lifetimes,
            measure_lifetimes=self.measure_lifetimes,
        )
        if self.root_bandwidth is not None:
            config = dataclasses.replace(
                config,
                workload=dataclasses.replace(
                    config.workload, root_bandwidth=self.root_bandwidth
                ),
            )
        return config

    # -- spec round-trip ---------------------------------------------------------

    def to_spec(self) -> dict:
        spec: dict = {"name": self.name}
        for f in dataclasses.fields(self):
            if f.name in ("name", "scenarios"):
                continue
            value = getattr(self, f.name)
            if value == f.default:
                continue
            spec[f.name] = list(value) if isinstance(value, tuple) else value
        spec["scenarios"] = [s.to_spec() for s in self.scenarios]
        return spec

    def canonical_json(self) -> str:
        """A canonical string form (hashable, picklable job parameter)."""
        return json.dumps(self.to_spec(), sort_keys=True)

    @classmethod
    def from_spec(cls, spec: dict):
        if not isinstance(spec, dict):
            raise FaultError(
                f"campaign spec must be a mapping, got {type(spec).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(spec) - known)
        if unknown:
            raise FaultError(
                f"unknown campaign spec keys {unknown}; known: {sorted(known)}"
            )
        scenarios = [ScenarioSpec.from_spec(s) for s in spec.get("scenarios", [])]
        return cls(**{**spec, "scenarios": scenarios})

    @classmethod
    def load(cls, path: str):
        """Load a campaign spec from a ``.json`` or ``.toml`` file."""
        return cls.from_spec(_load_spec_file(path))

    @classmethod
    def resolve(cls, spec=None):
        """Coerce any accepted spec form into a spec of this class.

        ``None`` -> the built-in default; a dict -> parsed spec; a string ->
        inline JSON (when it looks like an object) or a spec file path.
        """
        if spec is None:
            return cls.from_spec(cls.DEFAULT)
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, dict):
            return cls.from_spec(spec)
        if isinstance(spec, str):
            if spec.lstrip().startswith("{"):
                return cls.from_spec(json.loads(spec))
            return cls.load(spec)
        raise FaultError(f"cannot resolve campaign spec from {type(spec).__name__}")


@dataclass(frozen=True)
class CampaignSpec(BaseCampaignSpec):
    """A fault campaign: scenarios x protocols x seeds, each run priced
    under CER, single-source and (optionally) domain-aware CER repair."""

    DEFAULT: ClassVar[dict] = DEFAULT_CAMPAIGN_SPEC
    UNIT_EXPERIMENT: ClassVar[str] = "faults_scenario"
    TITLE: ClassVar[str] = "Fault campaign"
    DERIVED_SEEDS: ClassVar[int] = 2
    MIN_GROUP_SIZE: ClassVar[int] = 1

    #: Also evaluate the domain-aware CER variant (distinct stub domains
    #: preferred in MLC selection).
    domain_aware: bool = True

    def scheme_list(self):
        """The recovery schemes every run of this campaign evaluates."""
        schemes = [
            cer_scheme(self.group_size, self.buffer_s),
            single_source_scheme(self.group_size, self.buffer_s),
        ]
        if self.domain_aware:
            schemes.append(
                cer_scheme(self.group_size, self.buffer_s, domain_aware=True)
            )
        return schemes

    def cells(self) -> list:
        return [
            ((s.name, protocol), {"scenario": s.name, "protocol": protocol})
            for s in self.scenarios
            for protocol in self.protocols
        ]

    def report_axes(self) -> dict:
        return {
            "protocols": list(self.protocols),
            "scenarios": [s.name for s in self.scenarios],
            "schemes": [s.name for s in self.scheme_list()],
        }

    def report_header(self) -> list:
        return [
            "scenario",
            "protocol",
            "fault events",
            "MTTR s",
            "delivered",
            *[f"{s.name} success" for s in self.scheme_list()],
        ]

    def summarize(self, runs: List[dict]) -> Tuple[dict, list]:
        scheme_names = [s.name for s in self.scheme_list()]
        entry = {
            key: _nanmean([r[key] for r in runs])
            for key in (
                "fault_disruption_events",
                "mttr_s",
                "mttr_churn_s",
                "delivered_data_ratio",
            )
        }
        for key in ("repair_success_rate", "mean_group_domain_correlation"):
            entry[key] = {
                name: _nanmean([r["schemes"][name][key] for r in runs])
                for name in scheme_names
            }
        row = [
            entry["fault_disruption_events"],
            entry["mttr_s"],
            entry["delivered_data_ratio"],
            *[entry["repair_success_rate"][name] for name in scheme_names],
        ]
        return entry, row


load_campaign = CampaignSpec.load
resolve_campaign = CampaignSpec.resolve


# -- what every run record shares ---------------------------------------------------


def fault_log_records(log) -> List[dict]:
    """A run's ``(t, kind, detail)`` fault activations as JSON records."""
    return [{"t": t, "kind": kind, "detail": detail} for t, kind, detail in log]


def invariants_block(checkers) -> dict:
    """A checked run record's ``invariants`` block from its checkers (a
    strict checker's block reads 0 violations: the first one raises)."""
    violations = [v for checker in checkers for v in checker.violations]
    return {
        "checked": True,
        "sweeps": sum(checker.sweeps for checker in checkers),
        "violations": len(violations),
        "reports": [v.as_dict() for v in violations[:MAX_VIOLATION_REPORTS]],
    }


# -- one (scenario, protocol, seed) unit ------------------------------------------


def run_scenario(
    spec: CampaignSpec,
    scenario_name: str,
    protocol_name: str,
    seed: int,
    scale: float = 1.0,
) -> dict:
    """Run one scenario under one protocol and seed; returns the JSON-ready
    per-run resilience record (the campaign report's ``runs`` entries).

    The run flags decide the checker and the obs channels
    (:class:`~repro.experiments.common.Instruments`); a checked run's
    findings land in the record's ``invariants`` block.
    """
    from ..experiments.common import Instruments, protocol_factory, shared_topology

    scenario = spec.scenario(scenario_name)
    config = spec.config(seed, scale)
    topology, oracle = shared_topology(config)
    instruments = Instruments(reporting=True)
    sim = RecoverySimulation(
        config,
        protocol_factory(protocol_name),
        spec.scheme_list(),
        topology=topology,
        oracle=oracle,
        check_invariants=instruments.checker(),
    )
    resilience = ResilienceMetrics(config.warmup_s, config.horizon_s)
    injector = FaultInjector(FaultSchedule(seed=seed, faults=scenario.faults))
    injector.bind(sim.churn, resilience=resilience)
    instruments.observe(
        sim,
        {
            "kind": "recovery",
            "scenario": scenario.name,
            "protocol": protocol_name,
            "population": spec.population,
            "seed": seed,
            "scale": scale,
        },
    )
    result = sim.run()
    resilience.finish(config.horizon_s)
    instruments.emit()

    churn_metrics = result.churn.metrics
    schemes = {}
    for name in sorted(result.schemes):
        scheme_result = result.schemes[name]
        groups = scheme_result.groups_selected
        schemes[name] = {
            "starving_ratio_pct": scheme_result.avg_starving_ratio_pct,
            "repair_success_rate": scheme_result.repair_success_rate,
            "episodes": scheme_result.episodes,
            "gap_packets": scheme_result.gap_packets_total,
            "repaired_packets": scheme_result.repaired_packets_total,
            "mean_group_domain_correlation": (
                scheme_result.mean_group_domain_correlation
            ),
            "mean_group_tree_correlation": (
                scheme_result.group_tree_correlation_sum / groups
                if groups
                else float("nan")
            ),
        }
    fault_events = sum(
        count
        for cause, count in resilience.disruption_events.items()
        if cause.startswith("fault:")
    )
    record: dict = {
        "scenario": scenario.name,
        "protocol": protocol_name,
        "seed": seed,
        "mean_population": churn_metrics.mean_population,
        "fault_log": fault_log_records(injector.log),
        "fault_disruption_events": fault_events,
        "mttr_s": resilience.mttr_s(),
        "mttr_churn_s": resilience.mttr_s("churn"),
        "delivered_data_ratio": resilience.delivered_data_ratio(
            churn_metrics.node_seconds
        ),
        "resilience": resilience.as_dict(),
        "schemes": schemes,
    }
    if instruments.checkers:
        record["invariants"] = invariants_block(instruments.checkers)
    return record


# -- campaign fan-out --------------------------------------------------------------


@dataclass
class CampaignReport:
    """The merged outcome of one campaign."""

    table: str
    data: dict = field(default_factory=dict)
    #: Observability payloads merged from every run in submission order
    #: (keys ``trace`` / ``metrics`` / ``profile``; see :mod:`repro.obs`).
    artifacts: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return self.table


def run_campaign(
    spec: BaseCampaignSpec,
    scale: float = 1.0,
    seed: int = 42,
    jobs: Optional[int] = None,
    timeout_s: Optional[float] = None,
) -> CampaignReport:
    """Fan the campaign's grid cells x seeds out and merge the runs.

    Jobs go through :func:`repro.experiments.pool.run_jobs`, which
    preserves submission order, so the emitted report is byte-identical
    for a given seed at any ``jobs`` value.  Under
    ``REPRO_CHECK_INVARIANTS`` every cell runs checked (see
    :func:`run_scenario`) and the report rolls the violation counts up.

    With a durable run store active (``REPRO_STORE_DIR``), each unit
    commits to the ledger as it completes; under ``REPRO_STORE_RESUME``
    already-completed units are replayed from their stored payloads
    instead of re-executed, and the merge cannot tell the difference —
    the replayed record and artifacts are the original bytes.
    """
    from ..experiments import pool

    seeds = list(spec.run_seeds(seed))
    spec_json = spec.canonical_json()
    cells = spec.cells()
    batch = [
        pool.ExperimentJob.make(
            spec.UNIT_EXPERIMENT,
            scale=scale,
            seed=run_seed,
            spec=spec_json,
            **cell,
        )
        for _, cell in cells
        for run_seed in seeds
    ]
    results = pool.run_jobs(batch, parallel_jobs=jobs, timeout_s=timeout_s)
    runs = [r.data for r in results]
    summary: dict = {}
    rows = []
    for index, (path, cell) in enumerate(cells):
        # Submission order: each cell's runs are its seeds, back to back.
        entry, row = spec.summarize(runs[index * len(seeds) : (index + 1) * len(seeds)])
        node = summary
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = entry
        rows.append([*cell.values(), *row])
    table = render_table(
        f"{spec.TITLE} {spec.name!r} "
        f"(seeds {seeds}, scale {scale:g}, {len(runs)} runs)",
        spec.report_header(),
        rows,
    )
    data = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "campaign": spec.name,
        "description": spec.description,
        "scale": scale,
        "seeds": seeds,
        **spec.report_axes(),
        "summary": summary,
        "runs": runs,
    }
    if any("invariants" in r for r in runs):
        data["invariant_violations"] = sum(
            r.get("invariants", {}).get("violations", 0) for r in runs
        )
    report = CampaignReport(table=table, data=data)
    for result in results:
        for key, payload in result.artifacts.items():
            report.artifacts.setdefault(key, []).extend(payload)
    return report
