"""Robot-target matching as a distributed linear program.

N robots and N targets sit in a square area; robot l measures only its own
distances d_lk to each target and owns the l-th row of the assignment
matrix.  The relaxed problem over doubly stochastic z,

    min sum_lk d_lk z_lk   s.t. rows and columns sum to 1, z >= 0,

always has a permutation among its optimizers; when that permutation is
unique the LP optimum IS the matching, so the consensus simulator and the
brute-force enumeration must agree.

Every agent estimates the full N*N assignment vector (row-major).  Agent l
contributes the row-l cost, the row-l and column-l sum constraints, and
nonnegativity bounds for its own row.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .problem import (
    AffineFunction,
    DistributedProblem,
    LocalProblem,
    make_linear_nonneg_bound,
)

__all__ = [
    "MatchingInstance",
    "generate_instance",
    "build_distributed_problem",
    "brute_force_optimal",
    "assignment_cost",
    "extract_assignment",
]

_MAX_BRUTE_FORCE = 10  # 10! permutations is already ~3.6M
_MIN_GAP = 1e-6  # least cost gap between the best two permutations


@dataclass(frozen=True)
class MatchingInstance:
    """Positions of n robots and n targets; distances are Euclidean.  One
    from generate_instance carries its optimum, for brute_force_optimal."""

    robots: np.ndarray  # (n, 2)
    targets: np.ndarray  # (n, 2)

    def __post_init__(self):
        r = np.array(self.robots, dtype=float)
        t = np.array(self.targets, dtype=float)
        if r.ndim != 2 or r.shape[1] != 2 or t.shape != r.shape:
            raise ValueError("robots and targets must be matching (n, 2) arrays")
        if r.shape[0] < 1:
            raise ValueError("need at least one robot")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "robots", r)
        object.__setattr__(self, "targets", t)

    @property
    def n(self):
        return self.robots.shape[0]

    def distances(self):
        """(n, n) matrix of robot-target distances."""
        diff = self.robots[:, None, :] - self.targets[None, :, :]
        return np.sqrt((diff**2).sum(axis=2))


def generate_instance(seed, n=5, area=100.0):
    """Sample robot/target positions uniformly in [0, area]^2.

    Re-samples (deterministically, by advancing the seed) until the optimal
    permutation is unique with a cost gap of at least _MIN_GAP, so that the
    LP relaxation has a unique vertex optimizer.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    for attempt in range(100):
        rng = np.random.default_rng(int(seed) + attempt)
        inst = MatchingInstance(
            rng.uniform(0.0, area, (n, 2)), rng.uniform(0.0, area, (n, 2))
        )
        perms, costs = _permutation_costs(inst)
        optimum = _best(perms, costs)
        if n == 1 or np.partition(costs, 1)[1] - optimum[1] >= _MIN_GAP:
            object.__setattr__(inst, "_optimum", optimum)
            return inst
    raise RuntimeError("could not sample an instance with a unique optimum")


def build_distributed_problem(inst, network):
    """Distributed LP over the full n*n assignment vector (row-major).

    Agent l owns: objective sum_k d_lk x_(l,k), equalities "row l sums to 1"
    and "column l sums to 1", and bounds x_(l,k) >= 0 for its row.
    """
    n = inst.n
    if network.n_agents != n:
        raise ValueError("network size must equal the number of robots")
    d = inst.distances()
    dim = n * n
    locals_ = []
    for l in range(n):
        c = np.zeros(dim)
        c[l * n : (l + 1) * n] = d[l]
        row = np.zeros(dim)
        row[l * n : (l + 1) * n] = 1.0
        col = np.zeros(dim)
        col[l::n] = 1.0
        locals_.append(
            LocalProblem(
                objective=AffineFunction(c, 0.0),
                inequalities=[
                    make_linear_nonneg_bound(l * n + k, dim) for k in range(n)
                ],
                equalities=[AffineFunction(row, -1.0), AffineFunction(col, -1.0)],
            )
        )
    return DistributedProblem(network, locals_)


def assignment_cost(inst, perm):
    """Total distance of robot l -> target perm[l]."""
    d = inst.distances()
    return float(sum(d[l, perm[l]] for l in range(inst.n)))


def _permutation_costs(inst):
    """All n! permutations in lexicographic order, as an (n!, n) table, and
    the assignment_cost of each.

    Costs are summed robot by robot, left to right, so each equals the
    Python sum in assignment_cost bit for bit.
    """
    n = inst.n
    # block v of the table is v followed by the (n-1)! table mapped onto the
    # values other than v (row v of others): itertools enumerates only the
    # (n-1)! table, and numpy writes the n blocks
    rows = math.factorial(n - 1)
    rest = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n - 1))),
                       np.int8, count=rows * (n - 1)).reshape(rows, n - 1)
    others = np.arange(n - 1, dtype=np.int8) + (np.arange(n - 1) >= np.arange(n)[:, None])
    perms = np.empty((n, rows, n), np.int8)
    perms[:, :, 0] = np.arange(n)[:, None]
    perms[:, :, 1:] = others[:, rest]
    perms = perms.reshape(-1, n)
    d = inst.distances()
    costs = np.zeros(perms.shape[0])
    for l in range(n):
        costs += d[l, perms[:, l]]
    return perms, costs


def brute_force_optimal(inst):
    """Enumerate all permutations; return (permutation, cost).

    Ties resolve to the lexicographically smallest permutation: enumeration
    is in lexicographic order and argmin takes the first minimum.  An
    instance from generate_instance returns the optimum it carries, found
    the same way when its uniqueness was checked.
    """
    if inst.n > _MAX_BRUTE_FORCE:
        raise ValueError(f"brute force limited to n <= {_MAX_BRUTE_FORCE}")
    known = inst.__dict__.get("_optimum")
    return known if known is not None else _best(*_permutation_costs(inst))


def _best(perms, costs):
    """(permutation, cost) of the first least cost."""
    best = costs.argmin()
    return tuple(perms[best].tolist()), float(costs[best])


def extract_assignment(z):
    """Read a permutation off an assignment vector by row-wise argmax.

    Returns the permutation tuple, or None when the rounding is not
    trustworthy: some entry is not finite, some chosen entry < 0.5, or the
    argmax rows collide.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    n = int(round(np.sqrt(z.size)))
    if n * n != z.size:
        raise ValueError("assignment vector length must be a square")
    if not np.isfinite(z).all():
        return None
    zm = z.reshape(n, n)
    # ties resolve to the lowest column index (np.argmax convention)
    perm = tuple(int(np.argmax(zm[l])) for l in range(n))
    if any(zm[l, perm[l]] < 0.5 for l in range(n)):
        return None
    if len(set(perm)) != n:
        return None
    return perm
