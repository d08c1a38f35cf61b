"""repro — a full reproduction of *Improving the Fault Resilience of
Overlay Multicast for Media Streaming* (Tan, Jarvis & Spooner, DSN 2006).

The package implements, from scratch:

* the **ROST** tree algorithm (distributed BTP-based switching with
  locking and referee-verified claims) and the four comparison protocols
  (minimum-depth, longest-first, relaxed bandwidth-ordered, relaxed
  time-ordered);
* the **CER** cooperative error-recovery protocol (minimum-loss-
  correlation groups, residual-bandwidth striping, ELN) and the
  single-source baseline;
* every substrate the paper's evaluation needs: a discrete-event kernel,
  a GT-ITM-style transit-stub underlay with an exact O(1) delay oracle,
  and the paper's churn workload model (Bounded-Pareto bandwidths,
  lognormal lifetimes, Little's-law arrivals).

Quickstart::

    from repro import paper_config, ChurnSimulation, RostProtocol

    config = paper_config(population=500, seed=1, scale=0.1)
    result = ChurnSimulation(config, RostProtocol).run()
    print(result.avg_disruptions_per_node)

Every figure of the paper's evaluation is regenerated by
``python -m repro.experiments run <fig04..fig14>``.
"""

from .config import (
    ProtocolConfig,
    RecoveryConfig,
    SimulationConfig,
    TopologyConfig,
    WorkloadConfig,
    paper_config,
)
from .errors import (
    CapacityError,
    ConfigError,
    ProtocolError,
    RecoveryError,
    ReproError,
    SimulationError,
    TopologyError,
    TreeError,
)
from .overlay import MembershipService, MulticastTree, OverlayNode
from .protocols import (
    PROTOCOLS,
    LongestFirstProtocol,
    MinimumDepthProtocol,
    RelaxedBandwidthOrderedProtocol,
    RelaxedTimeOrderedProtocol,
    RostProtocol,
    protocol_by_name,
)
from .recovery import RecoveryScheme, cer_scheme, single_source_scheme
from .simulation import (
    ChurnRunResult,
    ChurnSimulation,
    RecoverySimulation,
    make_probe_session,
)
from .topology import DelayOracle, TransitStubTopology, generate_transit_stub
from .workload import ChurnWorkload, generate_workload

__version__ = "1.16.0"

__all__ = [
    "CapacityError",
    "ChurnRunResult",
    "ChurnSimulation",
    "ChurnWorkload",
    "ConfigError",
    "DelayOracle",
    "LongestFirstProtocol",
    "MembershipService",
    "MinimumDepthProtocol",
    "MulticastTree",
    "OverlayNode",
    "PROTOCOLS",
    "ProtocolConfig",
    "ProtocolError",
    "RecoveryConfig",
    "RecoveryError",
    "RecoveryScheme",
    "RecoverySimulation",
    "RelaxedBandwidthOrderedProtocol",
    "RelaxedTimeOrderedProtocol",
    "ReproError",
    "RostProtocol",
    "SimulationConfig",
    "SimulationError",
    "TopologyConfig",
    "TopologyError",
    "TransitStubTopology",
    "TreeError",
    "WorkloadConfig",
    "cer_scheme",
    "generate_transit_stub",
    "generate_workload",
    "make_probe_session",
    "paper_config",
    "protocol_by_name",
    "single_source_scheme",
]
