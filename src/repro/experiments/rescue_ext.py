"""Extension experiment: proactive rescue plans under CER.

Yang & Fei's proactive tree reconstruction (the paper's reference [18])
precomputes a rescue scheme so an orphan skips the 10 s parent
re-finding.  The paper notes this "still remains a general problem" in
dynamic systems — here we quantify how much of CER's work such plans
remove: rescued orphans lose ~6 s of stream (detection + reattach)
instead of 15 s, shrinking the repair gap proportionally.
"""

from __future__ import annotations

import dataclasses

from ..metrics.report import render_table
from ..protocols import PROTOCOLS
from ..recovery.schemes import cer_scheme
from ..simulation.streaming import RecoverySimulation
from .common import DEFAULT_SINGLE_SIZE, Instruments, SweepSettings, shared_topology
from .registry import ExperimentResult, register

GROUP_SIZES = (1, 2, 3)


@register(
    "ext-rescue",
    "Proactive rescue plans vs the 15 s recovery window (CER)",
    "Extension",
)
def run(
    scale: float = 1.0,
    seed: int = 42,
    population: int = DEFAULT_SINGLE_SIZE,
    **_,
) -> ExperimentResult:
    schemes = [cer_scheme(k) for k in GROUP_SIZES]
    rows = []
    data = {}
    for rescue in (False, True):
        settings = SweepSettings(scale=scale, seed=seed)
        base = settings.config(population)
        config = dataclasses.replace(
            base,
            protocol=dataclasses.replace(base.protocol, proactive_rescue=rescue),
        )
        # Run directly (bypassing the run cache, which does not key on the
        # rescue flag) over the shared underlay.
        topology, oracle = shared_topology(config)
        instruments = Instruments()
        sim = RecoverySimulation(
            config,
            PROTOCOLS["min-depth"],
            schemes,
            topology=topology,
            oracle=oracle,
            check_invariants=instruments.checker(),
        )
        instruments.observe(sim, {"kind": "recovery", "scale": scale, "rescue": rescue})
        outcome = sim.run()
        instruments.emit()
        label = "rescue" if rescue else "baseline"
        ratios = [outcome.ratio_pct(s.name) for s in schemes]
        rows.append([label, *ratios])
        data[label] = dict(zip((str(k) for k in GROUP_SIZES), ratios))
    table = render_table(
        f"Proactive rescue — avg starving time ratio % by CER group size "
        f"(population {population}, scale {scale:g})",
        ["variant", *[f"group={k}" for k in GROUP_SIZES]],
        rows,
    )
    return ExperimentResult(
        experiment_id="ext-rescue",
        title="Proactive rescue plans vs the 15 s recovery window",
        table=table,
        data=data,
    )
