"""Robot-target matching as a distributed linear program.

N robots and N targets sit in a square area; robot l measures only its own
distances d_lk to each target and owns the l-th row of the assignment
matrix.  The relaxed problem over doubly stochastic z,

    min sum_lk d_lk z_lk   s.t. rows and columns sum to 1, z >= 0,

always has a permutation among its optimizers; when that permutation is
unique the LP optimum IS the matching, so the consensus simulator and the
exact assignment solver must agree.  The solver (shortest augmenting
paths, O(n^3)) also returns the assignment dual (u, v): d_lk - u_l - v_k
>= 0 everywhere, 0 on the optimal edges, and sum u + sum v is the optimal
cost, which is the LP's dual optimum.

Every agent estimates the full N*N assignment vector (row-major).  Agent l
contributes the row-l cost, the row-l and column-l sum constraints, and
nonnegativity bounds for its own row.
"""

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

_MIN_GAP = 1e-6  # least cost gap between the best two permutations


@dataclass(frozen=True)
class MatchingInstance:
    """Positions of n robots and n targets; distances are Euclidean.  One
    from generate_instance carries the optimum the assignment solver found
    for it, which brute_force_optimal returns without solving again."""

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
    LP relaxation has a unique vertex optimizer.  Both costs are summed as
    assignment_cost sums them.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    for attempt in range(100):
        rng = np.random.default_rng(int(seed) + attempt)
        inst = MatchingInstance(
            rng.uniform(0.0, area, (n, 2)), rng.uniform(0.0, area, (n, 2))
        )
        d = inst.distances().tolist()
        u, v, col_of, row_of = _solve(d)
        cost = _cost(d, col_of)
        if _unique(d, u, v, col_of, row_of, cost):
            object.__setattr__(inst, "_optimum", (tuple(col_of), cost))
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
    return _cost(inst.distances(), perm)


def _cost(d, perm):
    """sum_l d[l][perm[l]], robot by robot, left to right: every cost this
    module compares or reports is summed here."""
    return float(sum(d[l][perm[l]] for l in range(len(perm))))


def brute_force_optimal(inst):
    """The optimal permutation of inst and its cost, as (permutation, cost).

    An instance from generate_instance returns the optimum it carries;
    any other is solved by the assignment solver, and among tied optima it
    returns one of them.  The name is older than the solver: the
    benchmark's tracer wraps it as matching.oracle, and the next change to
    the benchmark renames it.
    """
    known = inst.__dict__.get("_optimum")
    if known is not None:
        return known
    d = inst.distances()
    if not np.isfinite(d).all():
        raise ValueError("robot-target distances must be finite")
    d = d.tolist()
    col_of = _solve(d)[2]
    return tuple(col_of), _cost(d, col_of)


def _solve(d):
    """Least-cost assignment of the square cost table d (a list of rows).

    Returns (u, v, col_of, row_of): a dual with d[i][j] - u[i] - v[j] >= 0
    that is 0 on each optimal edge (i, col_of[i]), and row_of the inverse
    permutation.  u starts at the row minima and v at 0, which is dual
    feasible, and each row whose least column no earlier row took is
    matched to it; the other rows are then matched one by one along
    shortest augmenting paths, O(n^3) in all.
    """
    n = len(d)
    u, v = [min(row) for row in d], [0.0] * n
    col_of, row_of = [-1] * n, [-1] * n
    for i, row in enumerate(d):
        j = row.index(u[i])
        if row_of[j] < 0:
            col_of[i], row_of[j] = j, i
    for i in range(n):
        if col_of[i] < 0:
            _augment(d, u, v, col_of, row_of, i)
    return u, v, col_of, row_of


def _augment(d, u, v, col_of, row_of, start, limit=math.inf):
    """Match the free row start along a shortest path, in the reduced costs
    d - u - v, to a free column, and return True; u and v stay dual
    feasible.  When every path is longer than limit, change nothing and
    return False.

    Dijkstra over the columns: dist[j] is the path length to column j and
    via[j] the row it is entered from.  Each reached column's row is
    scanned next; on a tie the free column wins, which ends the search.
    """
    n = len(d)
    dist = [math.inf] * n
    via = [start] * n
    left = list(range(n))
    rows, cols = [], []
    i, reach = start, 0.0
    while True:
        di, ui, low, j1 = d[i], u[i], math.inf, -1
        for j in left:
            r = reach + di[j] - ui - v[j]
            if r < dist[j]:
                dist[j], via[j] = r, i
            if dist[j] < low or (dist[j] == low and row_of[j] < 0):
                low, j1 = dist[j], j
        if low > limit:
            return False
        reach = low
        cols.append(j1)
        left.remove(j1)
        i = row_of[j1]
        if i < 0:
            break
        rows.append(i)
    u[start] += reach
    for i in rows:
        u[i] += reach - dist[col_of[i]]
    for j in cols:
        v[j] -= reach - dist[j]
    # flip the path: each row on it takes the column it entered
    while True:
        i = via[j1]
        row_of[j1] = i
        col_of[i], j1 = j1, col_of[i]
        if i == start:
            return True


def _unique(d, u, v, col_of, row_of, cost):
    """Whether every permutation other than the optimum col_of costs at
    least _MIN_GAP more than its cost, both summed by _cost.

    Such a permutation leaves out some edge (l, col_of[l]) of the optimum.
    Raising that edge's cost to inf keeps (u, v) dual feasible, so matching
    row l alone again from the optimum, one augmentation of O(n^2), gives
    the least-cost permutation without the edge; the path's length is its
    extra cost.  Only a path up to limit can decide, so a search stops
    there, mostly after its first scan: rounding moves the reduced costs by
    orders of magnitude less than limit's slack of 1e-9 of the cost.  d is
    left as it was.
    """
    limit = _MIN_GAP + 1e-9 * (1.0 + cost)
    for l, b in enumerate(col_of):
        keep, d[l][b] = d[l][b], math.inf
        cols, rows = col_of.copy(), row_of.copy()
        cols[l] = rows[b] = -1
        found = _augment(d, u.copy(), v.copy(), cols, rows, l, limit)
        d[l][b] = keep
        if found and _cost(d, cols) - cost < _MIN_GAP:
            return False
    return True


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
