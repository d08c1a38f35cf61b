"""Schema-versioned golden baselines: per-figure metric summaries.

A baseline file freezes, for one registered experiment at one (scale,
seeds, kwargs) operating point, every numeric leaf of the experiment's
``data`` dict — flattened to ``series.rost[1]``-style paths — together
with its across-seed summary (mean, Student-t 95% CI, percentile-
bootstrap 95% CI, and the raw per-seed values).  The gate engine
(:mod:`repro.validate.gate`) re-runs the experiment and compares against
these summaries; ``trends`` additionally declare the paper's qualitative
orderings (e.g. ROST's disruptions below longest-first's at every
network size) that must keep holding whatever the absolute numbers do.

Baselines are committed under ``tests/golden/baselines/`` and
regenerated — after an *intentional* behavior change — with::

    REPRO_REGEN_BASELINES=1 PYTHONPATH=src python -m pytest tests/test_validate_gate.py
    # or directly:
    python -m repro.validate baseline regen --baseline tests/golden/baselines
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ValidationError
from ..fileio import publish
from ..metrics.stats import bootstrap_ci_95, mean_and_ci

#: Version of the baseline file shape (bump on incompatible change).
BASELINE_SCHEMA_VERSION = 1

#: Set to regenerate committed baselines instead of gating against them
#: (mirrors the golden-trace workflow's REPRO_REGEN_GOLDEN knob).
ENV_REGEN_BASELINES = "REPRO_REGEN_BASELINES"


def flatten_numeric(data, prefix: str = "") -> Dict[str, float]:
    """Flatten every numeric leaf of ``data`` to ``path -> float``.

    Paths follow the :func:`repro.store.cli.iter_report_diff` convention
    (dict keys joined with ``.``, list indices as ``[i]``) so gate
    failures and store diffs read the same.  Booleans and non-numeric
    leaves are skipped — gates quantify metrics, not flags.
    """
    leaves: Dict[str, float] = {}
    if isinstance(data, dict):
        for key in sorted(data, key=str):
            where = f"{prefix}.{key}" if prefix else str(key)
            leaves.update(flatten_numeric(data[key], where))
    elif isinstance(data, (list, tuple)):
        for index, item in enumerate(data):
            leaves.update(flatten_numeric(item, f"{prefix}[{index}]"))
    elif isinstance(data, (int, float)) and not isinstance(data, bool):
        leaves[prefix] = float(data)
    return leaves


@dataclass(frozen=True)
class Tolerance:
    """Declared per-baseline comparison tolerances.

    ``rtol``/``atol`` bound the paired per-seed comparison (gate run at
    the baseline's own seeds: values must reproduce near-exactly);
    ``ci_scale`` additionally widens the unpaired comparison (gate run
    at different seeds) by that multiple of the two CI half-widths.
    """

    rtol: float = 0.05
    atol: float = 1e-9
    ci_scale: float = 1.0

    def to_payload(self) -> Dict[str, float]:
        return {"rtol": self.rtol, "atol": self.atol, "ci_scale": self.ci_scale}

    @classmethod
    def from_payload(cls, payload: Dict[str, float]) -> "Tolerance":
        return cls(
            rtol=float(payload.get("rtol", cls.rtol)),
            atol=float(payload.get("atol", cls.atol)),
            ci_scale=float(payload.get("ci_scale", cls.ci_scale)),
        )


@dataclass(frozen=True)
class TrendSpec:
    """One qualitative ordering that must hold on seed-averaged values.

    ``kind == "series_order"``: the experiment's ``data["series"]`` maps
    protocol names to per-size value lists; require
    ``mean(series[lower][i]) <= mean(series[upper][i]) * (1 + rel_margin)
    + abs_margin`` at every index ``i``.

    ``kind == "path_order"``: ``lower``/``upper`` are exact flattened
    metric paths; same inequality on their seed means.
    """

    name: str
    kind: str
    lower: str
    upper: str
    abs_margin: float = 0.0
    rel_margin: float = 0.0

    def to_payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "lower": self.lower,
            "upper": self.upper,
            "abs_margin": self.abs_margin,
            "rel_margin": self.rel_margin,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "TrendSpec":
        kind = payload.get("kind")
        if kind not in ("series_order", "path_order"):
            raise ValidationError(f"unknown trend kind {kind!r}")
        return cls(
            name=str(payload["name"]),
            kind=str(kind),
            lower=str(payload["lower"]),
            upper=str(payload["upper"]),
            abs_margin=float(payload.get("abs_margin", 0.0)),
            rel_margin=float(payload.get("rel_margin", 0.0)),
        )


@dataclass(frozen=True)
class MetricBaseline:
    """Across-seed summary of one flattened metric path."""

    mean: float
    ci95: float
    bootstrap_lo: float
    bootstrap_hi: float
    values: Tuple[float, ...]

    def to_payload(self) -> Dict[str, object]:
        return {
            "mean": self.mean,
            "ci95": self.ci95,
            "bootstrap_ci95": [self.bootstrap_lo, self.bootstrap_hi],
            "n": len(self.values),
            "values": list(self.values),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "MetricBaseline":
        lo, hi = payload.get("bootstrap_ci95", (math.nan, math.nan))
        return cls(
            mean=float(payload["mean"]),
            ci95=float(payload["ci95"]),
            bootstrap_lo=float(lo),
            bootstrap_hi=float(hi),
            values=tuple(float(v) for v in payload.get("values", ())),
        )

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "MetricBaseline":
        mean, ci = mean_and_ci(values)
        lo, hi = bootstrap_ci_95(values)
        return cls(
            mean=mean, ci95=ci, bootstrap_lo=lo, bootstrap_hi=hi,
            values=tuple(float(v) for v in values),
        )


@dataclass
class Baseline:
    """One committed golden baseline: operating point + metric summaries."""

    experiment_id: str
    scale: float
    seeds: List[int]
    kwargs: Dict[str, object] = field(default_factory=dict)
    tolerance: Tolerance = field(default_factory=Tolerance)
    trends: List[TrendSpec] = field(default_factory=list)
    metrics: Dict[str, MetricBaseline] = field(default_factory=dict)
    #: File the baseline was loaded from (not serialized).
    source_path: Optional[str] = None

    def to_payload(self) -> Dict[str, object]:
        return {
            "schema_version": BASELINE_SCHEMA_VERSION,
            "experiment_id": self.experiment_id,
            "scale": self.scale,
            "seeds": list(self.seeds),
            "kwargs": dict(self.kwargs),
            "tolerance": self.tolerance.to_payload(),
            "trends": [t.to_payload() for t in self.trends],
            "metrics": {
                path: self.metrics[path].to_payload()
                for path in sorted(self.metrics)
            },
        }

    @classmethod
    def from_payload(
        cls, payload: Dict[str, object], source_path: Optional[str] = None
    ) -> "Baseline":
        version = payload.get("schema_version")
        if version != BASELINE_SCHEMA_VERSION:
            raise ValidationError(
                f"baseline schema version {version!r} is incompatible with "
                f"this release (expected {BASELINE_SCHEMA_VERSION}); "
                f"regenerate with ${ENV_REGEN_BASELINES}=1"
                + (f" [{source_path}]" if source_path else "")
            )
        try:
            return cls(
                experiment_id=str(payload["experiment_id"]),
                scale=float(payload["scale"]),
                seeds=[int(s) for s in payload["seeds"]],
                kwargs=dict(payload.get("kwargs", {})),
                tolerance=Tolerance.from_payload(payload.get("tolerance", {})),
                trends=[
                    TrendSpec.from_payload(t) for t in payload.get("trends", [])
                ],
                metrics={
                    str(path): MetricBaseline.from_payload(summary)
                    for path, summary in payload.get("metrics", {}).items()
                },
                source_path=source_path,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"malformed baseline file"
                + (f" {source_path}" if source_path else "")
                + f": {exc!r}"
            ) from exc


def collect_samples(
    experiment_id: str,
    scale: float,
    seeds: Sequence[int],
    kwargs: Optional[Dict[str, object]] = None,
    jobs: int = 1,
) -> List[Dict[str, float]]:
    """Run the experiment once per seed; return flattened numeric leaves.

    Fans out through :func:`repro.experiments.pool.run_jobs` — i.e. the
    ``execute_job`` chokepoint — so gate/baseline runs compose with the
    durable run store, observability capture and worker-process sharing
    exactly like any other sweep.
    """
    from ..experiments.pool import ExperimentJob, run_jobs

    batch = [
        ExperimentJob.make(
            experiment_id, scale=scale, seed=seed, **(kwargs or {})
        )
        for seed in seeds
    ]
    results = run_jobs(batch, parallel_jobs=jobs)
    return [flatten_numeric(result.data) for result in results]


def summarize_samples(
    samples: Sequence[Dict[str, float]],
) -> Dict[str, MetricBaseline]:
    """Across-seed summaries for the union of all sampled metric paths.

    A path missing from one seed's report (ragged data) contributes NaN,
    which the NaN-aware comparisons then surface instead of hiding.
    """
    paths = sorted(set().union(*samples)) if samples else []
    return {
        path: MetricBaseline.from_values(
            [sample.get(path, math.nan) for sample in samples]
        )
        for path in paths
    }


def build_baseline(
    experiment_id: str,
    scale: float,
    seeds: Sequence[int],
    kwargs: Optional[Dict[str, object]] = None,
    tolerance: Optional[Tolerance] = None,
    trends: Sequence[TrendSpec] = (),
    jobs: int = 1,
) -> Baseline:
    """Run the experiment over ``seeds`` and summarize it into a baseline."""
    samples = collect_samples(experiment_id, scale, seeds, kwargs, jobs=jobs)
    return Baseline(
        experiment_id=experiment_id,
        scale=scale,
        seeds=list(seeds),
        kwargs=dict(kwargs or {}),
        tolerance=tolerance or Tolerance(),
        trends=list(trends),
        metrics=summarize_samples(samples),
    )


def save_baseline(baseline: Baseline, path: str) -> None:
    """Atomically write ``baseline`` as indented JSON."""
    text = json.dumps(baseline.to_payload(), indent=2) + "\n"
    publish(path, text.encode("utf-8"))


def load_baseline(path: str) -> Baseline:
    if not os.path.isfile(path):
        raise ValidationError(f"baseline file does not exist: {path}")
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"baseline {path} is not valid JSON: {exc}") from exc
    return Baseline.from_payload(payload, source_path=path)


def load_baseline_dir(
    directory: str, only: Optional[Sequence[str]] = None
) -> List[Baseline]:
    """Load every ``*.json`` baseline in ``directory`` (sorted by name)."""
    if not os.path.isdir(directory):
        raise ValidationError(f"baseline directory does not exist: {directory}")
    names = sorted(n for n in os.listdir(directory) if n.endswith(".json"))
    baselines = [load_baseline(os.path.join(directory, n)) for n in names]
    if only:
        wanted = set(only)
        baselines = [b for b in baselines if b.experiment_id in wanted]
        missing = wanted - {b.experiment_id for b in baselines}
        if missing:
            raise ValidationError(
                f"no baseline in {directory} for: {sorted(missing)}"
            )
    if not baselines:
        raise ValidationError(f"no baseline files in {directory}")
    return baselines


def _protocol_pair_trends(lower: str, upper: str) -> List[TrendSpec]:
    return [
        TrendSpec(
            name=f"{lower}-beats-{upper}",
            kind="series_order",
            lower=lower,
            upper=upper,
        )
    ]


def _multitree_trends() -> List[TrendSpec]:
    """The K-tree resilience claim: blackout rate decreasing in K.

    Adjacent steps are non-strict with a noise margin (K >= 2 blackout
    rates sit near zero at smoke scale, so exact ordering between e.g.
    K4 and K8 is not meaningful), while the end-to-end K8-vs-K1 step is
    strict: a negative ``abs_margin`` demands a real gap, so a planted
    blackout undercount (all rates collapse to zero) trips the trend
    even before the metric tolerances do.
    """
    path = "summary.crash.rost.K{k}.blackout_rate"
    trends = [
        TrendSpec(
            name=f"crash-blackout-K{hi}-le-K{lo}",
            kind="path_order",
            lower=path.format(k=hi),
            upper=path.format(k=lo),
            abs_margin=1e-3,
            rel_margin=0.10,
        )
        for lo, hi in ((1, 2), (2, 4), (4, 8))
    ]
    trends.append(
        TrendSpec(
            name="crash-blackout-K8-strictly-below-K1",
            kind="path_order",
            lower=path.format(k=8),
            upper=path.format(k=1),
            abs_margin=-5e-3,
        )
    )
    return trends


#: The committed smoke-scale operating points (5 seeds each).  Reduced
#: size axes keep one full regen + gate cycle under a minute while every
#: protocol still shows non-degenerate metrics at scale 0.05.
DEFAULT_SPECS: Dict[str, Dict[str, object]] = {
    "fig04": {
        "scale": 0.05,
        "seeds": [1, 2, 3, 4, 5],
        "kwargs": {"sizes": [2000, 5000]},
        "trends": _protocol_pair_trends("rost", "longest-first"),
    },
    "fig07": {
        "scale": 0.05,
        "seeds": [1, 2, 3, 4, 5],
        "kwargs": {"sizes": [2000, 5000]},
        "trends": _protocol_pair_trends("rost", "longest-first"),
    },
    "fig08": {
        "scale": 0.05,
        "seeds": [1, 2, 3, 4, 5],
        "kwargs": {"sizes": [2000, 5000]},
        "trends": _protocol_pair_trends("rost", "longest-first"),
    },
    "fig14": {
        "scale": 0.05,
        "seeds": [1, 2, 3, 4, 5],
        "kwargs": {"population": 2000, "replicas": 2},
        # The paper's combined-system claim: ROST+CER starves less than
        # MinDepth+SingleSource at every recovery-group size.
        "trends": [
            TrendSpec(
                name=f"rost-cer-beats-mindepth-ss-k{k}",
                kind="path_order",
                lower=f"{k}.rost_cer[0]",
                upper=f"{k}.mindepth_ss[0]",
            )
            for k in (1, 2, 3)
        ],
    },
    "multitree_resilience": {
        "scale": 0.05,
        "seeds": [1, 2, 3, 4, 5],
        "kwargs": {},
        "trends": _multitree_trends(),
    },
}


def default_baseline_specs() -> Dict[str, Dict[str, object]]:
    """A deep-enough copy of :data:`DEFAULT_SPECS` callers may mutate."""
    return {
        experiment_id: {
            "scale": spec["scale"],
            "seeds": list(spec["seeds"]),
            "kwargs": dict(spec["kwargs"]),
            "trends": list(spec["trends"]),
        }
        for experiment_id, spec in DEFAULT_SPECS.items()
    }


def _baseline_path(directory: str, experiment_id: str) -> str:
    """Where ``experiment_id``'s baseline lives in ``directory``.

    Baselines are matched by their ``experiment_id`` payload field, not
    by filename (``multitree.json`` holds ``multitree_resilience``), so
    regeneration scans existing files first and only falls back to the
    conventional ``<experiment_id>.json`` name for brand-new baselines.
    """
    fallback = os.path.join(directory, f"{experiment_id}.json")
    if not os.path.isdir(directory):
        return fallback
    for name in sorted(n for n in os.listdir(directory) if n.endswith(".json")):
        path = os.path.join(directory, name)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(payload, dict) and payload.get("experiment_id") == experiment_id:
            return path
    return fallback


def regen_baselines(
    directory: str,
    only: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> List[str]:
    """(Re)generate baseline files in ``directory``; returns written paths.

    An existing file's operating point (scale/seeds/kwargs), tolerance
    and trend declarations are preserved — only the metric summaries are
    refreshed.  Experiments without an existing file fall back to
    :data:`DEFAULT_SPECS`.
    """
    specs = default_baseline_specs()
    ids = list(only) if only else sorted(specs)
    written: List[str] = []
    for experiment_id in ids:
        path = _baseline_path(directory, experiment_id)
        tolerance = None
        trends: Sequence[TrendSpec] = ()
        if os.path.isfile(path):
            prior = load_baseline(path)
            scale, seeds, kwargs = prior.scale, prior.seeds, prior.kwargs
            tolerance, trends = prior.tolerance, prior.trends
        elif experiment_id in specs:
            spec = specs[experiment_id]
            scale, seeds, kwargs = spec["scale"], spec["seeds"], spec["kwargs"]
            trends = spec["trends"]
        else:
            raise ValidationError(
                f"no existing baseline or default spec for {experiment_id!r}"
            )
        baseline = build_baseline(
            experiment_id,
            scale=scale,
            seeds=seeds,
            kwargs=kwargs,
            tolerance=tolerance,
            trends=trends,
            jobs=jobs,
        )
        save_baseline(baseline, path)
        written.append(path)
    return written
