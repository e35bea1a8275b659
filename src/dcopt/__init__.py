"""Distributed constrained convex optimization over delayed networks.

Agents connected by an undirected graph minimize a sum of private convex
objectives under private constraints by running smooth primal-dual dynamics
with phase-lead compensation; a scattering-transformation channel layer
keeps convergence intact under unknown heterogeneous constant delays.
"""

from .dynamics import (
    AgentState,
    CompensatorParams,
    LambdaGuardError,
    compensator_storage,
    derivatives,
    euler_step,
    multiplier_rate_bound,
    multiplier_storage,
    primal_rate_bound,
    storage_step_defects,
)
from .engine import (
    PassivityReport,
    ReferencePoint,
    SimConfig,
    TrajectoryLog,
    converged_reference,
    lyapunov_delayed,
    passivity_check,
    simulate,
)
from .graph import Network, is_connected, laplacian, laplacian_apply, neighbors, ring
from .matching import (
    MatchingInstance,
    assignment_cost,
    brute_force_optimal,
    build_distributed_problem,
    extract_assignment,
    generate_instance,
    load_instance_csv,
    save_instance_csv,
)
from .problem import (
    DistributedProblem,
    KKTResidual,
    LocalProblem,
    ScalarFunction,
    constraint_force,
    generalized_lagrangian,
    kkt_residual,
    make_affine,
    make_linear_nonneg_bound,
    make_quadratic,
)
from .scattering import (
    ChannelEnd,
    CouplingMatrix,
    DelayLine,
    wave_identity_residual,
)

__version__ = "0.1.0"
