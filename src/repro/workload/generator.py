"""Churn workload generation: Poisson arrivals sized by Little's law.

A :class:`ChurnWorkload` is a fully materialised, sorted list of
:class:`~repro.workload.session.Session` objects plus the root
specification.  Generating the whole trace up front (rather than drawing
lazily inside the simulator) is what allows the five tree protocols to be
compared on *identical* member populations — the comparison methodology
the paper's figures rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..config import WorkloadConfig
from ..errors import ConfigError
from .distributions import BoundedPareto, LogNormalLifetime
from .session import RootSpec, Session


@dataclass(frozen=True)
class ChurnWorkload:
    """A complete, immutable churn trace for one simulation run."""

    config: WorkloadConfig
    root: RootSpec
    #: Sessions sorted by arrival time; member ids are 1..len(sessions)
    #: (id 0 is reserved for the root).
    sessions: List[Session]
    horizon_s: float

    def __len__(self) -> int:
        return len(self.sessions)

    def population_at(self, t: float) -> int:
        """Number of member sessions alive at virtual time ``t``."""
        return sum(1 for s in self.sessions if s.arrival_s <= t < s.departure_s)


def generate_workload(
    config: WorkloadConfig,
    horizon_s: float,
    attach_nodes: Sequence[int],
    rng: np.random.Generator,
    probe: Optional[Session] = None,
    prepopulate: bool = True,
) -> ChurnWorkload:
    """Generate a churn trace covering ``[0, horizon_s]``.

    ``attach_nodes`` is the pool of underlay stub nodes members may sit on
    (sampled uniformly with replacement, like the paper's "a fraction of
    [stub nodes] are randomly selected to participate"); the root sits on
    a uniformly random attach node.  If a ``probe`` session is
    given (the "typical member" of Figs. 6 and 9), it is spliced into the
    trace with the reserved id it carries.

    With ``prepopulate`` (default), the trace starts with
    ``target_population`` members already present at t=0, their (age,
    residual lifetime) pairs drawn from the equilibrium renewal
    distribution — i.e. the system *begins* in the steady state the paper
    measures in.  Heavy-tailed lognormal lifetimes make reaching that
    state by pure arrivals impractically slow (the population integral
    converges over hundreds of mean lifetimes), so stationary
    initialisation is both faster and statistically correct.
    """
    if horizon_s <= 0:
        raise ConfigError(f"horizon must be > 0, got {horizon_s}")
    if not attach_nodes:
        raise ConfigError("attach_nodes must be non-empty")

    bandwidth_dist = BoundedPareto(
        config.pareto_shape, config.pareto_lower, config.pareto_upper
    )
    lifetime_dist = LogNormalLifetime(
        config.lifetime_location, config.lifetime_shape, cap=config.lifetime_cap_s
    )

    rate = config.arrival_rate
    # Expected count plus generous head-room, then trim: vectorised draws
    # are far cheaper than an exponential-gap loop in Python.
    expected = rate * horizon_s
    budget = int(expected + 6.0 * np.sqrt(expected) + 16)
    gaps = rng.exponential(1.0 / rate, size=budget)
    arrivals = np.cumsum(gaps)
    while arrivals[-1] < horizon_s:  # astronomically rare; stay correct anyway
        extra = rng.exponential(1.0 / rate, size=budget)
        arrivals = np.concatenate([arrivals, arrivals[-1] + np.cumsum(extra)])
    arrivals = arrivals[arrivals <= horizon_s]

    count = len(arrivals)
    lifetimes = lifetime_dist.sample(rng, size=count)
    bandwidths = bandwidth_dist.sample(rng, size=count)
    nodes = rng.choice(np.asarray(attach_nodes), size=count, replace=True)

    sessions = [
        Session(
            member_id=i + 1,
            arrival_s=float(arrivals[i]),
            lifetime_s=float(lifetimes[i]),
            bandwidth=float(bandwidths[i]),
            underlay_node=int(nodes[i]),
        )
        for i in range(count)
    ]

    if prepopulate:
        initial = config.target_population
        # A member alive at a random instant has a length-biased total
        # lifetime, split uniformly into (age, residual).
        totals = lifetime_dist.sample_length_biased(rng, size=initial)
        ages = rng.uniform(0.0, 1.0, size=initial) * totals
        residuals = np.maximum(totals - ages, 1e-6)
        # The broadcast has only been running for so long; members cannot
        # be older than the stream itself.
        ages = np.minimum(ages, config.max_initial_age_s)
        initial_bw = bandwidth_dist.sample(rng, size=initial)
        initial_nodes = rng.choice(np.asarray(attach_nodes), size=initial, replace=True)
        for i in range(initial):
            sessions.append(
                Session(
                    member_id=count + i + 1,
                    arrival_s=0.0,
                    lifetime_s=float(residuals[i]),
                    bandwidth=float(initial_bw[i]),
                    underlay_node=int(initial_nodes[i]),
                    initial_age_s=float(ages[i]),
                )
            )

    if probe is not None:
        sessions.append(probe)
    sessions.sort(key=lambda s: s.arrival_s)

    root_node = int(rng.choice(np.asarray(attach_nodes)))
    root = RootSpec(bandwidth=config.root_bandwidth, underlay_node=root_node)

    return ChurnWorkload(
        config=config, root=root, sessions=sessions, horizon_s=horizon_s
    )
