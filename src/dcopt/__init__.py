"""Distributed constrained convex optimization over delayed networks.

Agents connected by an undirected graph minimize a sum of private convex
objectives under private constraints by running smooth primal-dual dynamics
with phase-lead compensation; a scattering-transformation channel layer
keeps convergence intact under unknown heterogeneous constant delays.

The package exports what a run needs: the benchmark instance and its
oracle, the simulator and its log, and the run diagnostics.  Everything
else lives in the submodules (dcopt.graph, dcopt.problem, dcopt.dynamics,
dcopt.scattering, dcopt.engine, dcopt.matching, dcopt.cli).
"""

from .dynamics import AgentState
from .engine import (
    ReferencePoint,
    SimConfig,
    TrajectoryLog,
    lyapunov_delayed,
    passivity_check,
    simulate,
)
from .graph import ring
from .matching import (
    brute_force_optimal,
    build_distributed_problem,
    extract_assignment,
    generate_instance,
)
from .problem import kkt_residual

__all__ = [
    "ring",
    "generate_instance",
    "build_distributed_problem",
    "brute_force_optimal",
    "extract_assignment",
    "SimConfig",
    "simulate",
    "AgentState",
    "TrajectoryLog",
    "ReferencePoint",
    "kkt_residual",
    "passivity_check",
    "lyapunov_delayed",
]

__version__ = "0.1.0"
