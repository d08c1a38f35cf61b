"""Differential oracles: pairs of implementations that must agree.

The repo deliberately retains slower reference implementations next to
every optimized path (the path-by-path MLC view builder beside the
one-pass one, the per-packet episode simulator beside the closed-form
pricing, the serial runner beside the process pool, plain runs beside
store-replayed ones).
Each oracle here replays *identical seeds and schedules* through one
such A/B pair and diffs the outputs with the NaN-aware numeric walk
borrowed from ``repro.store`` diff — any disagreement is a bug in one
side, found without needing to know which.

Oracles (see :data:`ORACLES`):

``mlc_kernels``
    Drives a fault-schedule-perturbed churn run, then compares the
    one-pass partial-view builder against the path-by-path reference
    over the surviving tree.
``join_selection``
    The join selectors, which skip candidates that cannot win before
    reading their capacity, vs full-scan references; ROST's batched
    referee valuation vs one lookup per member.
``delay_oracle``
    Scalar :meth:`DelayOracle.delay_ms` vs the batch
    :meth:`DelayOracle.delays_from`; the contract is *bit*-identical
    IEEE doubles.
``episode_pricing``
    Closed-form :func:`starvation_episode` vs the event-driven
    per-packet :class:`EpisodeSimulator` over random striped and
    sequential episodes.
``jobs``
    One experiment grid through ``--jobs 1`` vs ``--jobs 2`` worker
    fan-out; merged reports must be identical.
``resume``
    A store-recorded run replayed via ``--resume`` vs the same run
    uninterrupted.
``obs``
    The same run with observability capture enabled vs disabled; the
    experiment data must not depend on being observed.
"""

from __future__ import annotations

import json
import math
import tempfile
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import ValidationError
from .report import DiffReport, OracleOutcome

#: (experiment_id, scale, seeds, kwargs) the execution-path oracles
#: (jobs / resume / obs) replay; tiny but exercises a full sweep.
_EXECUTION_UNIT = ("fig04", 0.05, (1, 2), {"sizes": (2000,)})


def _diff_payloads(a, b) -> List[Dict[str, str]]:
    from ..store.cli import iter_report_diff

    # Compare the canonical JSON form of both sides: experiment payloads
    # use int dict keys (e.g. network sizes) which any persisted leg —
    # the run store, a report file — legitimately round-trips to strings.
    a = json.loads(json.dumps(a))
    b = json.loads(json.dumps(b))
    return [
        {"path": path or "<root>", "detail": detail}
        for path, detail in iter_report_diff(a, b)
    ]


# -- kernel oracles ----------------------------------------------------------------


def _tiny_config(seed: int):
    """A self-contained small simulation config (no test fixtures)."""
    from ..config import SimulationConfig, TopologyConfig, WorkloadConfig

    cfg = SimulationConfig(
        topology=TopologyConfig(
            transit_domains=2,
            transit_nodes_per_domain=3,
            stub_domains_per_transit=2,
            stub_nodes_per_domain=4,
            seed=11,
        ),
        # A root of out-degree 10 under 100 members builds a tree up to
        # six levels deep.  Under the default root every member would sit
        # at depth 1, where root paths, shared prefixes and view suffixes
        # are trivial.
        workload=WorkloadConfig(target_population=100, root_bandwidth=10.0),
        warmup_lifetimes=0.5,
        measure_lifetimes=0.5,
    )
    return cfg.with_seed(seed)


def _random_fault_schedule(seed: int):
    """A seed-deterministic small fault schedule (crashes + an outage)."""
    from ..faults import FaultSchedule, NodeCrash, StubDomainOutage

    rng = np.random.default_rng(seed)
    faults = []
    for _ in range(int(rng.integers(1, 4))):
        faults.append(
            NodeCrash(
                at_s=float(rng.uniform(50.0, 400.0)),
                count=int(rng.integers(1, 6)),
                selector=NodeCrash.SELECTORS[
                    int(rng.integers(0, len(NodeCrash.SELECTORS)))
                ],
            )
        )
    if rng.integers(0, 2):
        faults.append(
            StubDomainOutage(
                at_s=float(rng.uniform(50.0, 400.0)),
                domains=int(rng.integers(1, 3)),
            )
        )
    return FaultSchedule(seed=seed, faults=tuple(faults))


def run_mlc_kernel_differential(
    seed: int = 0, schedule=None
) -> OracleOutcome:
    """One-pass partial-view builder vs the path-by-path reference,
    post-faults.

    Runs a small churn simulation under ``schedule`` (a seed-derived
    random one by default) so crashes, outages and the resulting repairs
    have churned the tree, then builds partial views from random known
    subsets of the surviving attached members, each excluding a random
    member's subtree, with :meth:`PartialTreeView.from_members` and with
    :func:`naive_view_from_members`, and compares member order and every
    child list.
    """
    from ..faults import FaultInjector
    from ..protocols import PROTOCOLS
    from ..recovery.mlc import PartialTreeView, naive_view_from_members
    from ..simulation.churn import ChurnSimulation

    cfg = _tiny_config(seed + 100)
    sim = ChurnSimulation(cfg, PROTOCOLS["rost"])
    if schedule is None:
        schedule = _random_fault_schedule(seed)
    FaultInjector(schedule).bind(sim)
    sim.run()

    nodes = [node for node in sim.tree.members.values() if node.attached]
    differences: List[Dict[str, str]] = []
    comparisons = 0
    rng = np.random.default_rng(seed)
    for trial in range(16):
        size = int(rng.integers(1, len(nodes) + 1))
        known = [
            nodes[int(i)] for i in rng.choice(len(nodes), size=size, replace=False)
        ]
        top = nodes[int(rng.integers(0, len(nodes)))]
        exclude = {top.member_id, *(n.member_id for n in top.descendants())}
        comparisons += 1
        fast_view = PartialTreeView.from_members(known, exclude=exclude)
        slow_view = naive_view_from_members(known, exclude=exclude)
        fast_ids, slow_ids = fast_view.member_ids(), slow_view.member_ids()
        if fast_ids != slow_ids:
            detail = f"member_ids {fast_ids} != naive {slow_ids}"
        else:
            detail = "; ".join(
                f"children_of({m}) {fast_view.children_of(m)} != naive "
                f"{slow_view.children_of(m)}"
                for m in fast_ids
                if fast_view.children_of(m) != slow_view.children_of(m)
            )
        if detail:
            differences.append(
                {
                    "path": f"from_members[trial {trial}]",
                    "detail": f"{detail} (excluding the subtree of "
                    f"{top.member_id})",
                }
            )
    return OracleOutcome(
        oracle="mlc_kernels",
        equal=not differences,
        differences=differences,
        meta={
            "seed": seed,
            "members": len(nodes),
            "faults": len(schedule.faults),
            "comparisons": comparisons,
        },
    )


def run_join_selection_differential(seed: int = 0) -> OracleOutcome:
    """Pruned join selectors vs full scans; batched vs per-member ROST
    valuation.

    Replays a small ROST churn run and, at every join, hands the join's
    candidate list to ``select_min_depth`` and to longest-first's
    ``_select_oldest`` and to their full-scan references (all four are
    pure, so the run itself is unchanged).  Then it draws random
    candidate lists from every member of the final tree (the root,
    attached, full and detached members, with repeats) for random
    joiners.  Members share underlay nodes, so the delay tie-break meets
    equal delays.  Finally it values random member batches through one
    referee lookup and through one lookup per member, and compares the
    values and the messages each records.
    """
    from ..protocols import PROTOCOLS
    from ..protocols.base import naive_select_min
    from ..protocols.longest_first import LongestFirstProtocol
    from ..simulation.churn import ChurnSimulation

    sim = ChurnSimulation(_tiny_config(seed + 200), PROTOCOLS["rost"])
    rost = sim.protocol
    longest_first = LongestFirstProtocol(sim.ctx)
    oracle = sim.ctx.oracle
    select_min_depth = rost.select_min_depth
    differences: List[Dict[str, str]] = []
    comparisons = 0

    def compare(where: str, joiner, candidates):
        nonlocal comparisons
        picked = select_min_depth(joiner, candidates)
        for name, fast, slow in (
            (
                "select_min_depth",
                picked,
                naive_select_min(oracle, joiner, candidates, "layer"),
            ),
            (
                "select_oldest",
                longest_first._select_oldest(joiner, candidates),
                naive_select_min(oracle, joiner, candidates, "join_time"),
            ),
        ):
            comparisons += 1
            if fast is not slow:
                differences.append(
                    {
                        "path": f"{name}[{where}]",
                        "detail": f"picked member "
                        f"{None if fast is None else fast.member_id} != full "
                        f"scan {None if slow is None else slow.member_id} "
                        f"({len(candidates)} candidates, joiner "
                        f"{joiner.member_id})",
                    }
                )
        return picked

    def checked_select(joiner, candidates):
        return compare(f"join at t={sim.sim.now:.3f}", joiner, list(candidates))

    rost.select_min_depth = checked_select
    sim.run()

    members = list(sim.tree.members.values())
    rng = np.random.default_rng(seed)
    for trial in range(32):
        size = int(rng.integers(1, 2 * len(members)))
        candidates = [members[int(i)] for i in rng.integers(0, len(members), size)]
        joiner = members[int(rng.integers(0, len(members)))]
        compare(f"trial {trial}", joiner, candidates)

    messages = sim.ctx.messages
    valued = [m for m in members if not m.is_root]
    for trial in range(16):
        size = int(rng.integers(1, len(valued) + 1))
        batch = [valued[int(i)] for i in rng.integers(0, len(valued), size)]
        before = messages.to_payload()
        batched = rost._values(batch)
        after_batched = messages.to_payload()
        per_member = [rost._values((m,))[0] for m in batch]
        comparisons += 1
        if batched != per_member:
            differences.append(
                {
                    "path": f"rost_values[trial {trial}]",
                    "detail": f"batched {batched} != per-member {per_member}",
                }
            )
        sent = {k: v - before.get(k, 0) for k, v in after_batched.items()}
        sent_per_member = {
            k: v - after_batched.get(k, 0) for k, v in messages.to_payload().items()
        }
        if sent != sent_per_member:
            differences.append(
                {
                    "path": f"rost_values.messages[trial {trial}]",
                    "detail": f"batched sent {sent} != per-member "
                    f"{sent_per_member}",
                }
            )
    return OracleOutcome(
        oracle="join_selection",
        equal=not differences,
        differences=differences,
        meta={"seed": seed, "members": len(members), "comparisons": comparisons},
    )


def run_delay_oracle_differential(seed: int = 0) -> OracleOutcome:
    """Scalar vs batch delay queries: must be bit-identical doubles."""
    from ..topology.routing import DelayOracle
    from ..topology.transit_stub import generate_transit_stub

    cfg = _tiny_config(seed).topology
    topology = generate_transit_stub(cfg)
    oracle = DelayOracle(topology)
    rng = np.random.default_rng(seed)
    nodes = list(topology.stub_nodes) + list(topology.transit_nodes)
    differences: List[Dict[str, str]] = []
    comparisons = 0
    for _ in range(16):
        source = nodes[int(rng.integers(0, len(nodes)))]
        targets = [
            nodes[int(i)]
            for i in rng.choice(len(nodes), size=int(rng.integers(1, 24)))
        ]
        batch = oracle.delays_from(source, targets)
        for target, vectorized in zip(targets, batch):
            comparisons += 1
            scalar = oracle.delay_ms(source, target)
            if scalar != vectorized and not (
                math.isnan(scalar) and math.isnan(float(vectorized))
            ):
                differences.append(
                    {
                        "path": f"delay[{source},{target}]",
                        "detail": f"scalar {scalar!r} != batch "
                        f"{float(vectorized)!r}",
                    }
                )
    return OracleOutcome(
        oracle="delay_oracle",
        equal=not differences,
        differences=differences,
        meta={"seed": seed, "comparisons": comparisons},
    )


def run_episode_pricing_differential(seed: int = 0) -> OracleOutcome:
    """Closed-form episode pricing vs the per-packet event simulator."""
    from ..metrics.stats import within_tolerance
    from ..recovery.episode import BackfillSpec, RepairSource, starvation_episode
    from ..recovery.packet_sim import simulate_episode

    rng = np.random.default_rng(seed)
    differences: List[Dict[str, str]] = []
    comparisons = 0
    for trial in range(24):
        gap = int(rng.integers(0, 120))
        rate = float(rng.uniform(5.0, 60.0))
        sources = [
            RepairSource(
                member_id=i,
                rate_pps=float(rng.uniform(0.0, rate)),
                has_data=bool(rng.integers(0, 4)),
                delay_ms=float(rng.uniform(0.0, 50.0)),
            )
            for i in range(int(rng.integers(1, 5)))
        ]
        backfill = None
        if rng.integers(0, 2):
            backfill = BackfillSpec(
                start_s=float(rng.uniform(0.0, 3.0)),
                rate_pps=float(rng.uniform(1.0, rate)),
                cutoff_seq=int(rng.integers(0, max(1, gap))),
            )
        kwargs = dict(
            gap_packets=gap,
            packet_rate_pps=rate,
            buffer_ahead_s=float(rng.uniform(0.0, 2.0)),
            detect_s=float(rng.uniform(0.0, 1.0)),
            request_hop_s=float(rng.uniform(0.0, 0.2)),
            sources=sources,
            striped=bool(rng.integers(0, 2)),
            backfill=backfill,
        )
        comparisons += 1
        closed = starvation_episode(**kwargs)
        packet = simulate_episode(**kwargs)
        for field in ("gap_packets", "repaired_in_time", "missed_packets"):
            a, b = getattr(closed, field), getattr(packet, field)
            if a != b:
                differences.append(
                    {
                        "path": f"episode[{trial}].{field}",
                        "detail": f"closed-form {a!r} != packet-sim {b!r} "
                        f"(striped={kwargs['striped']}, gap={gap})",
                    }
                )
        # The integer packet counts must match exactly; the derived float
        # fields only to the discretisation the two models share (the
        # existing unit tests pin the same 1e-6 contract).
        for field in ("starving_s", "coverage", "repair_end_s"):
            a, b = getattr(closed, field), getattr(packet, field)
            if not within_tolerance(a, b, rtol=1e-6, atol=1e-6):
                differences.append(
                    {
                        "path": f"episode[{trial}].{field}",
                        "detail": f"closed-form {a!r} != packet-sim {b!r}",
                    }
                )
    return OracleOutcome(
        oracle="episode_pricing",
        equal=not differences,
        differences=differences,
        meta={"seed": seed, "comparisons": comparisons},
    )


# -- execution-path oracles --------------------------------------------------------


def _run_execution_unit(jobs: int):
    """Run the shared small experiment grid; returns per-seed data dicts.

    Fresh in-process caches per call: a differential between two
    execution paths must not let the first leg's cached runs leak into
    the second.
    """
    from ..experiments.common import clear_caches
    from ..experiments.pool import ExperimentJob, run_jobs

    experiment_id, scale, seeds, kwargs = _EXECUTION_UNIT
    clear_caches()
    try:
        batch = [
            ExperimentJob.make(experiment_id, scale=scale, seed=seed, **kwargs)
            for seed in seeds
        ]
        results = run_jobs(batch, parallel_jobs=jobs)
        return [result.data for result in results]
    finally:
        clear_caches()


def run_jobs_differential(seed: int = 0) -> OracleOutcome:
    """Serial in-process execution vs 2-worker process fan-out."""
    serial = _run_execution_unit(jobs=1)
    parallel = _run_execution_unit(jobs=2)
    differences = _diff_payloads(serial, parallel)
    return OracleOutcome(
        oracle="jobs",
        equal=not differences,
        differences=differences,
        meta={"unit": _EXECUTION_UNIT[0], "jobs": [1, 2],
              "comparisons": len(serial)},
    )


def run_resume_differential(seed: int = 0) -> OracleOutcome:
    """Store-recorded + ``--resume``-replayed results vs uninterrupted."""
    from ..experiments.common import exported_env
    from ..store.runstore import ENV_STORE_DIR, ENV_STORE_RESUME

    fresh = _run_execution_unit(jobs=1)
    with tempfile.TemporaryDirectory(prefix="repro-validate-store-") as root:
        with exported_env({ENV_STORE_DIR: root, ENV_STORE_RESUME: None}):
            _run_execution_unit(jobs=1)  # record every unit
            with exported_env({ENV_STORE_RESUME: "1"}):
                replayed = _run_execution_unit(jobs=1)
    differences = _diff_payloads(fresh, replayed)
    return OracleOutcome(
        oracle="resume",
        equal=not differences,
        differences=differences,
        meta={"unit": _EXECUTION_UNIT[0], "comparisons": len(fresh)},
    )


def run_obs_differential(seed: int = 0) -> OracleOutcome:
    """Observability-on vs observability-off: observation must not perturb."""
    from ..experiments.common import exported_env
    from ..obs.capture import ENV_METRICS, ENV_TRACE

    plain = _run_execution_unit(jobs=1)
    # execute_job opens its own job_capture(); setting the flags is all
    # that is needed for the observed leg.
    with exported_env({ENV_TRACE: "1", ENV_METRICS: "1"}):
        observed = _run_execution_unit(jobs=1)
    differences = _diff_payloads(plain, observed)
    return OracleOutcome(
        oracle="obs",
        equal=not differences,
        differences=differences,
        meta={"unit": _EXECUTION_UNIT[0], "comparisons": len(plain)},
    )


#: Registry: oracle name -> callable(seed) -> OracleOutcome.  Pluggable —
#: tests register throwaway oracles to exercise the CLI.
ORACLES: Dict[str, Callable[[int], OracleOutcome]] = {
    "mlc_kernels": run_mlc_kernel_differential,
    "join_selection": run_join_selection_differential,
    "delay_oracle": run_delay_oracle_differential,
    "episode_pricing": run_episode_pricing_differential,
    "jobs": run_jobs_differential,
    "resume": run_resume_differential,
    "obs": run_obs_differential,
}


def run_oracle(name: str, seed: int = 0) -> OracleOutcome:
    try:
        oracle = ORACLES[name]
    except KeyError:
        raise ValidationError(
            f"unknown differential oracle {name!r}; known: {sorted(ORACLES)}"
        ) from None
    return oracle(seed)


def run_oracles(
    names: Optional[Sequence[str]] = None, seed: int = 0
) -> DiffReport:
    """Run the named oracles (default: all) into one report."""
    targets = list(names) if names else sorted(ORACLES)
    return DiffReport(outcomes=[run_oracle(n, seed=seed) for n in targets])
