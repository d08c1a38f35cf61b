#!/usr/bin/env python
"""Cheat prevention: what the referee mechanism is worth.

A fraction of members are liars: they claim a huge outbound bandwidth and
a fabricated early join time, hoping ROST's BTP ordering will carry them
to the top of the tree (where a malicious departure disrupts the most
viewers).  We run the same workload twice — once trusting claims, once
verifying them through the referee mechanism of Section 3.4 — and compare
where the cheaters end up and how much damage their departures cause.

Usage::

    python examples/cheat_prevention.py [--fast] [--seed N] [--cheaters 0.1]
"""

import argparse

import numpy as np

from repro import ChurnSimulation, paper_config
from repro.protocols.rost import RostProtocol


class CheaterDamage:
    """Listener counting the in-window members disrupted by departing
    cheaters (the churn run's ``disruption`` topic)."""

    def __init__(self, cheater_ids):
        self.cheater_ids = cheater_ids
        self.disrupted = 0

    def on_disruption(self, event):
        if event.in_window and event.failed.member_id in self.cheater_ids:
            self.disrupted += event.subtree_size - 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--cheaters", type=float, default=0.1,
                        help="fraction of members that lie about bw/age")
    args = parser.parse_args()

    scale = 0.1 if args.fast else 0.5
    config = paper_config(population=2000, seed=args.seed, scale=scale)
    cheat_rng = np.random.default_rng(args.seed)
    cheater_ids = set()

    def member_setup(node):
        if cheat_rng.random() < args.cheaters:
            cheater_ids.add(node.member_id)
            node.claimed_bandwidth = 100.0
            node.claimed_join_time = node.join_time - 10**6

    shared = {}
    for label, use_referees in (("claims trusted", False), ("referees on", True)):
        cheater_ids.clear()
        cheat_rng = np.random.default_rng(args.seed)
        damage = CheaterDamage(cheater_ids)
        sim = ChurnSimulation(
            config,
            lambda ctx: RostProtocol(ctx, use_referees=use_referees),
            topology=shared.get("topology"),
            oracle=shared.get("oracle"),
            listeners=[damage],
            member_setup=member_setup,
        )
        shared.setdefault("topology", sim.topology)
        shared.setdefault("oracle", sim.oracle)
        result = sim.run()

        cheaters = [
            n for n in sim.tree.attached_nodes() if n.member_id in cheater_ids
        ]
        honest = [
            n
            for n in sim.tree.attached_nodes()
            if not n.is_root and n.member_id not in cheater_ids
        ]
        mean_layer = np.mean([n.layer for n in cheaters]) if cheaters else float("nan")
        honest_layer = np.mean([n.layer for n in honest]) if honest else float("nan")
        print(
            f"{label:15s} cheater mean layer={mean_layer:5.2f} "
            f"(honest {honest_layer:5.2f})  "
            f"disruptions caused by cheaters={damage.disrupted:5d}  "
            f"overall disruptions/node={result.metrics.avg_disruptions_per_node:5.2f}"
        )

    print(
        "\nWith referees the cheaters' verified BTP is their real one, so they"
        "\nstay at the depth their true contribution earns; trusting claims"
        "\nlets them climb toward the root and multiply the damage of their"
        "\ndepartures."
    )


if __name__ == "__main__":
    main()
