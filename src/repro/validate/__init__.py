"""Statistical paper-fidelity gates and differential validation.

Two complementary defenses against silent fidelity loss:

* **Baseline gates** (:mod:`repro.validate.gate`): re-run the registered
  experiments at a committed smoke-scale operating point and compare
  every metric — and the paper's qualitative orderings — against
  schema-versioned golden baselines under ``tests/golden/baselines/``.
* **Differential oracles** (:mod:`repro.validate.differential`): replay
  identical seeds and schedules through implementation pairs that must
  agree (optimized vs naive kernels, serial vs pooled execution,
  store-resumed vs uninterrupted, observed vs unobserved).

Command-line access: ``python -m repro.validate {gate,diff,baseline}``;
the experiment runner's ``--validate DIR`` flag gates a run in-line.
See ``docs/validation.md``.
"""

from ..errors import ValidationError
from .baseline import (
    BASELINE_SCHEMA_VERSION,
    DEFAULT_SPECS,
    ENV_REGEN_BASELINES,
    Baseline,
    MetricBaseline,
    Tolerance,
    TrendSpec,
    build_baseline,
    collect_samples,
    default_baseline_specs,
    flatten_numeric,
    load_baseline,
    load_baseline_dir,
    regen_baselines,
    save_baseline,
    summarize_samples,
)
from .differential import ORACLES, run_oracle, run_oracles
from .gate import run_gate, run_gates
from .report import (
    REPORT_SCHEMA_VERSION,
    DiffReport,
    GateOutcome,
    GateReport,
    MetricVerdict,
    OracleOutcome,
    TrendVerdict,
    write_report,
)

__all__ = [
    "BASELINE_SCHEMA_VERSION",
    "Baseline",
    "DEFAULT_SPECS",
    "DiffReport",
    "ENV_REGEN_BASELINES",
    "GateOutcome",
    "GateReport",
    "MetricBaseline",
    "MetricVerdict",
    "ORACLES",
    "OracleOutcome",
    "REPORT_SCHEMA_VERSION",
    "Tolerance",
    "TrendSpec",
    "TrendVerdict",
    "ValidationError",
    "build_baseline",
    "collect_samples",
    "default_baseline_specs",
    "flatten_numeric",
    "load_baseline",
    "load_baseline_dir",
    "regen_baselines",
    "run_gate",
    "run_gates",
    "run_oracle",
    "run_oracles",
    "save_baseline",
    "summarize_samples",
    "write_report",
]
