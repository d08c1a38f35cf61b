"""Structured pass/fail reports for gates and differential oracles.

Both halves of :mod:`repro.validate` — the statistical baseline gates
and the A/B differential oracles — emit their verdicts through the
containers here, so CI jobs, the runner's ``--validate`` flag and the
mutation smoke tests all consume one JSON shape::

    {
      "schema_version": 1,
      "kind": "gate" | "differential",
      "passed": false,
      "gates": [...] / "oracles": [...]
    }

Every failure carries enough context (metric path, baseline vs current
summary, tolerance actually applied) to triage without re-running
anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..fileio import publish

#: Version of the report JSON shape (bump on incompatible change).
REPORT_SCHEMA_VERSION = 1


@dataclass
class MetricVerdict:
    """One metric path compared against its baseline summary."""

    path: str
    passed: bool
    baseline_mean: float
    baseline_ci95: float
    current_mean: float
    current_ci95: float
    #: Human-readable reason; empty for a pass.
    detail: str = ""

    def to_payload(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "passed": self.passed,
            "baseline": {"mean": self.baseline_mean, "ci95": self.baseline_ci95},
            "current": {"mean": self.current_mean, "ci95": self.current_ci95},
            "detail": self.detail,
        }


@dataclass
class TrendVerdict:
    """One qualitative-ordering check (the paper's 'A beats B' claims)."""

    name: str
    kind: str
    passed: bool
    detail: str = ""

    def to_payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass
class GateOutcome:
    """Verdict of one baseline file's gate."""

    experiment_id: str
    baseline_path: str
    scale: float
    seeds: List[int]
    #: "paired" (same seeds/scale as the baseline: per-seed comparison)
    #: or "unpaired" (CI-overlap comparison on the means).
    mode: str
    metrics_checked: int
    metric_failures: List[MetricVerdict] = field(default_factory=list)
    trends: List[TrendVerdict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.metric_failures and all(t.passed for t in self.trends)

    def to_payload(self) -> Dict[str, object]:
        return {
            "experiment_id": self.experiment_id,
            "baseline": self.baseline_path,
            "scale": self.scale,
            "seeds": list(self.seeds),
            "mode": self.mode,
            "passed": self.passed,
            "metrics": {
                "checked": self.metrics_checked,
                "failed": len(self.metric_failures),
            },
            "metric_failures": [v.to_payload() for v in self.metric_failures],
            "trends": [t.to_payload() for t in self.trends],
        }

    def summary_line(self) -> str:
        trends_failed = sum(1 for t in self.trends if not t.passed)
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.experiment_id}: "
            f"{self.metrics_checked - len(self.metric_failures)}"
            f"/{self.metrics_checked} metrics within tolerance, "
            f"{len(self.trends) - trends_failed}/{len(self.trends)} trends hold "
            f"({self.mode}, scale {self.scale:g}, {len(self.seeds)} seeds)"
        )


@dataclass
class GateReport:
    """All gate outcomes of one ``repro.validate gate`` invocation."""

    baseline_dir: str
    outcomes: List[GateOutcome] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def to_payload(self) -> Dict[str, object]:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "kind": "gate",
            "baseline_dir": self.baseline_dir,
            "passed": self.passed,
            "gates": [o.to_payload() for o in self.outcomes],
        }

    def render_text(self) -> str:
        lines = [o.summary_line() for o in self.outcomes]
        for outcome in self.outcomes:
            for verdict in outcome.metric_failures:
                lines.append(
                    f"  {outcome.experiment_id} {verdict.path}: {verdict.detail}"
                )
            for trend in outcome.trends:
                if not trend.passed:
                    lines.append(
                        f"  {outcome.experiment_id} trend {trend.name}: "
                        f"{trend.detail}"
                    )
        lines.append(
            f"gate: {'PASS' if self.passed else 'FAIL'} "
            f"({sum(o.passed for o in self.outcomes)}/{len(self.outcomes)} "
            f"baselines)"
        )
        return "\n".join(lines)


@dataclass
class OracleOutcome:
    """Verdict of one differential (A/B) oracle."""

    oracle: str
    equal: bool
    #: ``[{"path": ..., "detail": ...}]`` — leaf-level disagreements.
    differences: List[Dict[str, str]] = field(default_factory=list)
    #: Oracle-specific context (seeds, populations, comparison counts).
    meta: Dict[str, object] = field(default_factory=dict)

    def to_payload(self) -> Dict[str, object]:
        return {
            "oracle": self.oracle,
            "passed": self.equal,
            "differences": list(self.differences),
            "meta": dict(self.meta),
        }

    def summary_line(self) -> str:
        status = "PASS" if self.equal else "FAIL"
        checks = self.meta.get("comparisons")
        suffix = f" ({checks} comparisons)" if checks is not None else ""
        if self.differences:
            suffix += f", {len(self.differences)} difference(s)"
        return f"{status} {self.oracle}{suffix}"


@dataclass
class DiffReport:
    """All oracle outcomes of one ``repro.validate diff`` invocation."""

    outcomes: List[OracleOutcome] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(o.equal for o in self.outcomes)

    def to_payload(self) -> Dict[str, object]:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "kind": "differential",
            "passed": self.passed,
            "oracles": [o.to_payload() for o in self.outcomes],
        }

    def render_text(self) -> str:
        lines = [o.summary_line() for o in self.outcomes]
        for outcome in self.outcomes:
            for difference in outcome.differences[:20]:
                lines.append(
                    f"  {outcome.oracle} {difference['path']}: "
                    f"{difference['detail']}"
                )
            if len(outcome.differences) > 20:
                lines.append(
                    f"  {outcome.oracle}: ... "
                    f"{len(outcome.differences) - 20} more difference(s)"
                )
        lines.append(f"diff: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def write_report(payload: Dict[str, object], path: str) -> None:
    """Atomically write a report payload as indented JSON."""
    publish(path, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))
