"""Command-line interface for the experiment harness.

Examples::

    python -m repro.experiments list
    python -m repro.experiments run fig04 --scale 0.1 --seed 7
    python -m repro.experiments all --scale 0.05 --out results.txt
    python -m repro.experiments all --scale 0.1 --replicas 4 --jobs 8

``--jobs N`` fans independent (experiment × seed) simulations out over N
worker processes (default: one per CPU); results are merged in
deterministic order, so the emitted tables are byte-identical to a
``--jobs 1`` run.  Output files (``--out``, ``--json``, ``--trace``) are
written atomically through :func:`repro.fileio.publish` — a crashed or
killed run never leaves a truncated file.

``--store DIR`` additionally checkpoints every completed unit into a
durable run store (``docs/store.md``), and ``--resume`` replays the
units a previous — possibly killed — invocation already finished, so
only the missing work re-executes and the final report/trace is
byte-identical to an uninterrupted run at any ``--jobs`` value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from ..faults.campaign import CampaignSpec, run_campaign
from ..fileio import publish
from ..invariants import CHECK_REPORT, ENV_CHECK_INVARIANTS
from ..multitree.campaign import MultiTreeCampaignSpec
from ..obs.capture import ENV_METRICS, ENV_PROFILE, ENV_TRACE, ENV_TRACE_EVENTS
from ..store.runstore import ENV_STORE_DIR, ENV_STORE_RESUME
from .common import exported_env
from .pool import ExperimentJob, resolve_jobs, run_jobs
from .registry import get_experiment, list_experiments

#: The campaign subcommands: spec class, help, the built-in default spec
#: and the grid it fans out.
_CAMPAIGNS = {
    "faults_campaign": (
        CampaignSpec,
        "run a fault-injection campaign (see docs/faults.md)",
        "the built-in stub-outage example campaign",
        "(scenario x protocol x seed)",
    ),
    "multitree_campaign": (
        MultiTreeCampaignSpec,
        "run a K-tree resilience campaign (see docs/multitree.md)",
        "the built-in K-tree resilience grid",
        "(scenario x protocol x K x seed)",
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures of the DSN'06 ROST/CER paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all registered experiments")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment_id", help="e.g. fig04")
    _add_run_arguments(run)

    everything = sub.add_parser("all", help="run every experiment")
    _add_run_arguments(everything)

    for command, (_, help_text, default, grid) in _CAMPAIGNS.items():
        campaign = sub.add_parser(command, help=help_text)
        campaign.add_argument(
            "spec_path",
            nargs="?",
            default=None,
            metavar="spec",
            help="campaign spec file (.json or .toml) or inline JSON object "
            f"(default: {default})",
        )
        campaign.add_argument(
            "--spec",
            type=str,
            default=None,
            help="alternative to the positional spec argument",
        )
        campaign.add_argument("--scale", type=float, default=1.0)
        campaign.add_argument("--seed", type=int, default=42)
        campaign.add_argument(
            "--check-invariants",
            action="store_true",
            help="run every simulation under the non-strict runtime "
            "invariant checker (see docs/invariants.md); violations are "
            "reported in the summary and make the command exit non-zero",
        )
        campaign.add_argument(
            "--jobs",
            type=int,
            default=None,
            help=f"worker processes for the {grid} grid; reports are "
            "byte-identical at any value",
        )
        campaign.add_argument("--job-timeout", type=float, default=None)
        campaign.add_argument("--out", type=str, default=None)
        campaign.add_argument("--json", type=str, default=None)
        _add_validate_argument(campaign)
        _add_obs_arguments(campaign)
        _add_store_arguments(campaign)
    return parser


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="population/underlay scale factor (1.0 = paper scale)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="run each experiment over this many consecutive seeds and "
        "report mean +/- 95%% CI where the series are mergeable",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for independent (experiment x seed) runs "
        "(default: $REPRO_JOBS or the CPU count; 1 = fully in-process)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="per-job wall-clock limit in seconds when running with worker "
        "processes; a timed-out job is retried once in-process",
    )
    parser.add_argument(
        "--out", type=str, default=None, help="also append tables to this file"
    )
    parser.add_argument(
        "--json", type=str, default=None, help="dump raw data as JSON to this file"
    )
    parser.add_argument(
        "--svg",
        type=str,
        default=None,
        help="directory to write one SVG chart per experiment with series data",
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="run every simulation under the strict runtime invariant "
        "checker (see docs/invariants.md); the first violation aborts",
    )
    _add_validate_argument(parser)
    _add_obs_arguments(parser)
    _add_store_arguments(parser)


def _add_validate_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--validate",
        type=str,
        default=None,
        metavar="BASELINE_DIR",
        help="after the run, gate the registered experiments against the "
        "golden baselines in this directory (see docs/validation.md); a "
        "failing gate makes the command exit non-zero and, with --json, "
        "embeds the structured report under '_validate'",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help="write a JSONL trace of every observed run to PATH "
        "(see docs/observability.md); byte-identical at any --jobs value",
    )
    parser.add_argument(
        "--trace-events",
        action="store_true",
        help="include one trace record per dispatched engine event "
        "(high volume; implies --trace semantics for record content)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect each observed run's metrics snapshot and report their "
        "aggregated totals (also exported under _obs_metrics in --json)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attribute wall time per event type and pool stage; printed "
        "as a report section (never written into the trace or JSON)",
    )


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="DIR",
        help="checkpoint every completed unit into this durable run store "
        "(see docs/store.md); defaults to $REPRO_STORE_DIR when set",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay units the store's ledger already has instead of "
        "re-executing them; the final report is byte-identical to an "
        "uninterrupted run (requires --store or $REPRO_STORE_DIR)",
    )


class _Emitter:
    """Prints to stdout and mirrors the text into ``out_path`` atomically.

    Append semantics are preserved (an existing file's content is kept as
    the prefix), but every flush rewrites the whole file through a
    temp-file + rename, so a crashed run cannot leave a truncated table.
    """

    def __init__(self, out_path: Optional[str]):
        self._path = out_path
        self._content = ""
        #: Text emitted by this invocation only (no pre-existing --out
        #: prefix); the durable run store records it as the run's report.
        self.session_content = ""
        if out_path and os.path.exists(out_path):
            with open(out_path) as handle:
                self._content = handle.read()

    def emit(self, text: str) -> None:
        print(text)
        self.session_content += text + "\n"
        if self._path:
            self._content += text + "\n"
            publish(self._path, self._content.encode("utf-8"))


def _iter_results(batch: List[ExperimentJob], jobs: int, timeout_s):
    """Yield results in submission order.

    With ``jobs == 1`` this lazily executes each job right before yielding
    it, so a long serial run emits tables progressively (and pdb/coverage
    see plain in-process calls); with ``jobs > 1`` the whole batch is
    fanned out first and the completed results replayed in order.
    """
    if jobs == 1:
        for job in batch:
            yield run_jobs([job], parallel_jobs=1)[0]
    else:
        yield from run_jobs(batch, parallel_jobs=jobs, timeout_s=timeout_s)


class _ArtifactCollector:
    """Merges per-result obs artifacts in submission order."""

    def __init__(self) -> None:
        self.trace_lines: List[str] = []
        self.metrics_units: List[dict] = []
        self.profile_units: List[dict] = []

    def collect(self, result) -> None:
        artifacts = getattr(result, "artifacts", None) or {}
        self.trace_lines.extend(artifacts.get("trace", []))
        self.metrics_units.extend(artifacts.get("metrics", []))
        self.profile_units.extend(artifacts.get("profile", []))

    def emit_sections(self, args, emitter: _Emitter, json_data: dict) -> None:
        """Write the trace file and print metrics/profile sections.

        The trace and metrics outputs are deterministic; the profile
        section carries wall times, so it goes to stdout/--out only and
        never into --json or the trace.
        """
        if getattr(args, "trace", None):
            text = "".join(line + "\n" for line in self.trace_lines)
            publish(args.trace, text.encode("utf-8"))
            # stderr, like the [store] line: a traced run's --out must
            # equal an untraced run's byte for byte.
            print(
                f"[trace: {len(self.trace_lines)} records -> {args.trace}]",
                file=sys.stderr,
            )
        if getattr(args, "metrics", False):
            from ..obs.metrics import aggregate_units, render_metrics_section

            totals = aggregate_units(self.metrics_units)
            emitter.emit(render_metrics_section(totals))
            json_data["_obs_metrics"] = totals
        if getattr(args, "profile", False):
            from ..obs.profile import drain_stages, render_profile_section

            emitter.emit(
                render_profile_section(self.profile_units, drain_stages())
            )


class _StoreRunRecorder:
    """Links one CLI invocation to the durable run store (if active).

    Snapshots the ledger's aggregate counters up front so the
    replayed/executed split it reports covers exactly this invocation's
    units — including units recorded by nested campaign fan-out.  The
    summary goes to stderr: stdout and ``--out`` must stay byte-identical
    between resumed and uninterrupted runs.
    """

    def __init__(self) -> None:
        from ..store.runstore import active_store

        self.store = active_store()
        self._before = (
            self.store.ledger.totals() if self.store is not None else None
        )

    def finish(
        self,
        name: str,
        command: str,
        params: dict,
        report_text: Optional[str],
        json_data: Optional[dict],
    ) -> None:
        if self.store is None:
            return
        after = self.store.ledger.totals()
        executed = after["executions"] - self._before["executions"]
        replayed = after["hits"] - self._before["hits"]
        run_id = self.store.record_run(
            name=name,
            command=command,
            params=params,
            report_text=report_text,
            json_data=json_data,
            units_total=executed + replayed,
            units_replayed=replayed,
        )
        print(
            f"[store] run #{run_id}: {replayed} unit(s) replayed, "
            f"{executed} executed -> {self.store.root}",
            file=sys.stderr,
        )


def _run_validation(args, emitter: _Emitter, json_data: dict) -> bool:
    """Gate the run against golden baselines (the ``--validate`` flag).

    Runs through the same ``execute_job`` chokepoint as the experiments
    themselves, so an active run store records (or replays) the gate's
    units too.  Emits the human-readable verdicts, embeds the structured
    report under ``_validate`` in the ``--json`` payload, and returns
    whether every gate passed.
    """
    if not getattr(args, "validate", None):
        return True
    from ..validate.baseline import load_baseline_dir
    from ..validate.gate import run_gates

    report = run_gates(
        load_baseline_dir(args.validate),
        baseline_dir=args.validate,
        jobs=resolve_jobs(getattr(args, "jobs", None)),
    )
    emitter.emit(report.render_text())
    json_data["_validate"] = report.to_payload()
    return report.passed


def _finish_run(
    args,
    emitter: _Emitter,
    collector: _ArtifactCollector,
    json_data: dict,
    recorder: _StoreRunRecorder,
    name: str,
    params: dict,
) -> bool:
    """The end every command shares: the obs sections, ``--validate``,
    the ``--json`` write and the store's run record.  Returns whether the
    ``--validate`` gate passed (True without one)."""
    collector.emit_sections(args, emitter, json_data)
    validated = _run_validation(args, emitter, json_data)
    if args.json:
        text = json.dumps(json_data, indent=2, default=str)
        publish(args.json, text.encode("utf-8"))
    recorder.finish(
        name=name,
        command=f"repro.experiments {args.command}",
        params=params,
        report_text=emitter.session_content,
        json_data=json_data,
    )
    return validated


def _run_ids(ids: List[str], args) -> int:
    jobs = resolve_jobs(args.jobs)
    recorder = _StoreRunRecorder()
    emitter = _Emitter(args.out)
    json_data = {}
    collector = _ArtifactCollector()
    segment_started = time.time()
    if args.replicas > 1:
        from .replication import merge_replicas

        seeds = list(range(args.seed, args.seed + args.replicas))
        batch = [
            ExperimentJob.make(experiment_id, scale=args.scale, seed=seed)
            for experiment_id in ids
            for seed in seeds
        ]
        results = _iter_results(batch, jobs, args.job_timeout)
        for experiment_id in ids:
            replicas = []
            for _ in seeds:
                result = next(results)
                collector.collect(result)
                replicas.append(result)
            replicated = merge_replicas(experiment_id, seeds, replicas)
            emitter.emit(str(replicated))
            json_data[experiment_id] = {
                "seeds": replicated.seeds,
                "summary": replicated.summary,
                "replicas": [r.data for r in replicated.replicas],
            }
            elapsed = time.time() - segment_started
            segment_started = time.time()
            emitter.emit(f"[{experiment_id} finished in {elapsed:.1f}s]\n")
    else:
        batch = [
            ExperimentJob.make(experiment_id, scale=args.scale, seed=args.seed)
            for experiment_id in ids
        ]
        results = _iter_results(batch, jobs, args.job_timeout)
        for experiment_id, result in zip(ids, results):
            collector.collect(result)
            emitter.emit(result.table)
            json_data[experiment_id] = result.data
            if args.svg:
                _write_svg(result, args.svg)
            elapsed = time.time() - segment_started
            segment_started = time.time()
            emitter.emit(f"[{experiment_id} finished in {elapsed:.1f}s]\n")
    validated = _finish_run(
        args,
        emitter,
        collector,
        json_data,
        recorder,
        name=args.command if args.command == "all" else f"run {ids[0]}",
        params={
            "experiments": ids,
            "scale": args.scale,
            "seed": args.seed,
            "replicas": args.replicas,
            "jobs": jobs,
        },
    )
    return 0 if validated else 1


def _write_svg(result, directory: str) -> None:
    from ..metrics.svgplot import experiment_chart

    try:
        chart = experiment_chart(result)
    except ValueError:
        return  # experiment without series data (e.g. fig14)
    path = os.path.join(directory, f"{result.experiment_id}.svg")
    publish(path, chart.encode("utf-8"))


def _exported_flags(args):
    """Export the CLI flags that travel as environment variables for one
    command (:func:`~repro.experiments.common.exported_env`); a flag that
    is off leaves its variable as the caller's environment has it.

    ``--check-invariants`` is strict under ``run``/``all``; the campaign
    subcommands export reporting around their fan-out alone
    (:func:`_run_campaign`).
    """
    switches = {
        ENV_TRACE: getattr(args, "trace", None),
        ENV_TRACE_EVENTS: getattr(args, "trace_events", False),
        ENV_METRICS: getattr(args, "metrics", False),
        ENV_PROFILE: getattr(args, "profile", False),
        ENV_STORE_RESUME: getattr(args, "resume", False),
        ENV_CHECK_INVARIANTS: getattr(args, "check_invariants", False)
        and args.command not in _CAMPAIGNS,
    }
    exported = {name: "1" for name, on in switches.items() if on}
    if getattr(args, "store", None):
        exported[ENV_STORE_DIR] = args.store
    return exported_env(exported)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not (
        getattr(args, "store", None) or os.environ.get(ENV_STORE_DIR)
    ):
        parser.error("--resume requires --store DIR (or $REPRO_STORE_DIR)")
    if getattr(args, "validate", None) and not os.path.isdir(args.validate):
        parser.error(f"--validate: baseline directory not found: {args.validate}")
    if args.command == "list":
        for experiment in list_experiments():
            print(
                f"{experiment.experiment_id:8s} {experiment.paper_artifact:10s} "
                f"{experiment.title}"
            )
        return 0
    with _exported_flags(args):
        if args.command in _CAMPAIGNS:
            return _run_campaign(args)
        if args.command == "run":
            get_experiment(args.experiment_id)  # fail fast on unknown ids
            return _run_ids([args.experiment_id], args)
        return _run_ids([e.experiment_id for e in list_experiments()], args)


def _run_campaign(args) -> int:
    spec_class = _CAMPAIGNS[args.command][0]
    campaign = spec_class.resolve(
        args.spec_path if args.spec_path is not None else args.spec
    )
    recorder = _StoreRunRecorder()
    # Reporting checkers ride the campaign's cells only, whose records
    # carry their findings; a --validate gate afterwards runs unchecked.
    with exported_env(
        {ENV_CHECK_INVARIANTS: CHECK_REPORT if args.check_invariants else None}
    ):
        report = run_campaign(
            campaign,
            scale=args.scale,
            seed=args.seed,
            jobs=args.jobs,
            timeout_s=args.job_timeout,
        )
    emitter = _Emitter(args.out)
    emitter.emit(report.table)
    violations = report.data.get("invariant_violations")
    if args.check_invariants:
        runs = len(report.data.get("runs", []))
        emitter.emit(
            f"invariants: {violations or 0} violation(s) across {runs} "
            f"checked run(s)"
        )
    collector = _ArtifactCollector()
    collector.collect(report)
    validated = _finish_run(
        args,
        emitter,
        collector,
        report.data,
        recorder,
        name=f"{args.command} {campaign.name}",
        params={
            "spec": campaign.to_spec(),
            "scale": args.scale,
            "seed": args.seed,
            "jobs": args.jobs,
            "check_invariants": args.check_invariants,
        },
    )
    return 1 if (violations or not validated) else 0


if __name__ == "__main__":
    sys.exit(main())
