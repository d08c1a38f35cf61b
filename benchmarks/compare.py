"""Diff two ``BENCH_*.json`` baselines and gate on regressions.

Usage::

    PYTHONPATH=src python benchmarks/compare.py BENCH_PR6.json BENCH_PR10.json
    python benchmarks/compare.py OLD.json NEW.json --max-regression 30

Prints a percent-change table for the kernel event rates and every
figure's wall clock / event count, plus the total-suite and sweep
headlines (with the sweep's parent and worker peak RSS, where a report
records them; printed, never gated), then applies a regression gate:

* kernel rates (higher is better) must not drop more than
  ``--max-regression`` percent;
* per-figure wall clock (lower is better) must not grow more than
  ``--max-regression`` percent — figures whose baseline wall is under
  ``--wall-floor`` seconds are reported but never gated (percent noise
  on a 60 ms figure is meaningless);
* the suite total wall is gated like a figure.

Exit-code contract (CI scripts rely on it):

* ``0`` — baselines compared, no gated regression;
* ``1`` — at least one gated regression;
* ``2`` — usage or schema error (missing file, malformed JSON, wrong
  schema version, missing required sections).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

EXPECTED_SCHEMA = 1


class SchemaError(Exception):
    """The baseline file exists but does not look like a bench report."""


def load_report(path: str) -> dict:
    try:
        with open(path) as handle:
            report = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(report, dict):
        raise SchemaError(f"{path}: top level is not an object")
    version = report.get("meta", {}).get("schema_version")
    if version != EXPECTED_SCHEMA:
        raise SchemaError(
            f"{path}: schema_version {version!r}, expected {EXPECTED_SCHEMA}"
        )
    for section in ("kernel", "figures"):
        if not isinstance(report.get(section), dict):
            raise SchemaError(f"{path}: missing '{section}' section")
    return report


def pct_change(old: float, new: float) -> Optional[float]:
    if not old:
        return None
    return (new - old) / old * 100.0


def fmt_pct(change: Optional[float]) -> str:
    if change is None:
        return "     n/a"
    return f"{change:+7.1f}%"


def compare(
    old: dict, new: dict, max_regression: float, wall_floor: float
) -> Tuple[List[str], List[str]]:
    """Returns (table lines, gated regression descriptions)."""
    lines: List[str] = []
    failures: List[str] = []

    lines.append("kernel (events/s, higher is better)")
    for metric in sorted(set(old["kernel"]) | set(new["kernel"])):
        before = old["kernel"].get(metric)
        after = new["kernel"].get(metric)
        if before is None or after is None:
            lines.append(f"  {metric:28s} only in one baseline")
            continue
        change = pct_change(before, after)
        lines.append(
            f"  {metric:28s} {before:12.0f} -> {after:12.0f}  {fmt_pct(change)}"
        )
        if change is not None and change < -max_regression:
            failures.append(f"kernel {metric}: {change:+.1f}%")

    lines.append("figures (wall seconds, lower is better)")
    figure_ids = sorted(set(old["figures"]) | set(new["figures"]))
    for figure_id in figure_ids:
        before = old["figures"].get(figure_id)
        after = new["figures"].get(figure_id)
        if before is None:
            lines.append(f"  {figure_id:16s} new figure "
                         f"({after['wall_s']:.2f}s)")
            continue
        if after is None:
            lines.append(f"  {figure_id:16s} removed "
                         f"(was {before['wall_s']:.2f}s)")
            continue
        change = pct_change(before["wall_s"], after["wall_s"])
        events_delta = after.get("events", 0) - before.get("events", 0)
        gated = before["wall_s"] >= wall_floor
        note = "" if gated else "  (below wall floor, not gated)"
        lines.append(
            f"  {figure_id:16s} {before['wall_s']:8.2f}s -> "
            f"{after['wall_s']:8.2f}s  {fmt_pct(change)}  "
            f"events {events_delta:+d}{note}"
        )
        if gated and change is not None and change > max_regression:
            failures.append(f"figure {figure_id} wall: {change:+.1f}%")

    before_total = old.get("total_figures_wall_s")
    after_total = new.get("total_figures_wall_s")
    if before_total and after_total:
        change = pct_change(before_total, after_total)
        lines.append(
            f"total figures wall   {before_total:8.2f}s -> "
            f"{after_total:8.2f}s  {fmt_pct(change)}"
        )
        if change is not None and change > max_regression:
            failures.append(f"total figures wall: {change:+.1f}%")

    old_sweep = old.get("sweep")
    new_sweep = new.get("sweep")
    if new_sweep:
        lines.append(
            f"sweep (--jobs {new_sweep['jobs']}): {new_sweep['wall_s']:.2f}s, "
            f"{new_sweep['unique_units']} unique units for "
            f"{new_sweep['unit_refs']} refs"
        )
        if old_sweep and old_sweep.get("jobs") == new_sweep.get("jobs"):
            change = pct_change(old_sweep["wall_s"], new_sweep["wall_s"])
            lines.append(
                f"sweep wall           {old_sweep['wall_s']:8.2f}s -> "
                f"{new_sweep['wall_s']:8.2f}s  {fmt_pct(change)}"
            )
            if change is not None and change > max_regression:
                failures.append(f"sweep wall: {change:+.1f}%")
        elif old_sweep:
            lines.append("sweep wall           not comparable "
                         "(different --jobs)")
        for who in ("parent", "workers"):
            key = f"{who}_peak_rss_mb"
            after = new_sweep.get(key)
            if after is None:
                continue
            before = (old_sweep or {}).get(key)
            was = "n/a" if before is None else f"{before:.1f} MB"
            lines.append(
                f"sweep {who} peak RSS".ljust(25)
                + f"{was:>8s} -> {after:.1f} MB  "
                f"{fmt_pct(pct_change(before, after))}  (not gated)"
            )

    return lines, failures


def comparability_warnings(old: dict, new: dict) -> List[str]:
    warnings = []
    for field in ("scale", "seed", "jobs", "obs_enabled", "cpu_count"):
        before = old.get("meta", {}).get(field)
        after = new.get("meta", {}).get(field)
        if before != after:
            warnings.append(
                f"meta.{field} differs ({before!r} vs {after!r}) — "
                "numbers may not be apples-to-apples"
            )
    return warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="baseline BENCH_*.json (the reference)")
    parser.add_argument("new", help="candidate BENCH_*.json (the new numbers)")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=30.0,
        help="percent change beyond which the gate fails (default 30)",
    )
    parser.add_argument(
        "--wall-floor",
        type=float,
        default=0.5,
        help="figures with baseline wall below this many seconds are "
        "reported but not gated (default 0.5)",
    )
    args = parser.parse_args(argv)

    try:
        old = load_report(args.old)
        new = load_report(args.new)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"comparing {args.old} -> {args.new} "
          f"(gate: {args.max_regression:.0f}%)")
    for warning in comparability_warnings(old, new):
        print(f"warning: {warning}")
    lines, failures = compare(old, new, args.max_regression, args.wall_floor)
    for line in lines:
        print(line)
    if failures:
        print(f"REGRESSION ({len(failures)} gated):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("OK: no gated regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
