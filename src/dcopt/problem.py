"""Convex problem data for networked agents.

Each agent owns a private smooth convex objective, convex inequality
constraints g(x) <= 0 and affine equality constraints h(x) = 0, all over a
shared decision vector of dimension n.  A DistributedProblem ties the agents
to a Network; consensus over the network replaces a shared variable.

Only first-order information (value, gradient) is required of any function.
"""

import functools
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .graph import laplacian_apply

__all__ = [
    "ScalarFunction",
    "AffineFunction",
    "QuadraticFunction",
    "make_linear_nonneg_bound",
    "LocalProblem",
    "LocalTerms",
    "DistributedProblem",
    "constraint_force",
    "KKTResidual",
    "kkt_residual",
]


class ScalarFunction:
    """Scalar-valued function of an n-vector exposing value and gradient.

    Attributes
    ----------
    dim : int
        Expected input dimension.
    is_affine : bool
        True when the function is exactly affine.
    declared_convex : bool
        True when the constructor guarantees convexity.
    """

    dim = 0
    is_affine = False
    declared_convex = False

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    def constant_gradient(self):
        """Gradient vector when it is state-independent, else None."""
        return None

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {x.shape}")
        return x


class AffineFunction(ScalarFunction):
    """c^T x + d."""

    is_affine = True
    declared_convex = True

    def __init__(self, c, d=0.0):
        c = np.array(c, dtype=float).reshape(-1)
        if c.size == 0:
            raise ValueError("affine coefficient vector must be nonempty")
        c.setflags(write=False)
        self.c = c
        self.d = float(d)
        self.dim = c.size

    def value(self, x):
        return float(self.c @ self._check(x) + self.d)

    def gradient(self, x):
        self._check(x)
        return self.c.copy()

    def constant_gradient(self):
        return self.c


class QuadraticFunction(ScalarFunction):
    """(1/2) x^T Q x + c^T x + d with Q symmetric positive semidefinite."""

    is_affine = False
    declared_convex = True

    def __init__(self, q, c=None, d=0.0):
        q = np.array(q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("Q must be a square matrix")
        if not np.allclose(q, q.T, rtol=0.0, atol=1e-12):
            raise ValueError("Q must be symmetric")
        scale = max(1.0, float(np.abs(q).max()))
        if np.linalg.eigvalsh(q).min() < -1e-10 * scale:
            raise ValueError("Q must be positive semidefinite")
        c = np.zeros(q.shape[0]) if c is None else np.array(c, dtype=float).reshape(-1)
        if c.size != q.shape[0]:
            raise ValueError("c length must match Q")
        q.setflags(write=False)
        c.setflags(write=False)
        self.q = q
        self.c = c
        self.d = float(d)
        self.dim = c.size

    def value(self, x):
        x = self._check(x)
        return float(0.5 * x @ self.q @ x + self.c @ x + self.d)

    def gradient(self, x):
        x = self._check(x)
        return self.q @ x + self.c


def make_linear_nonneg_bound(k, dim):
    """Inequality -x_k <= 0, i.e. component k constrained nonnegative."""
    if not 0 <= k < dim:
        raise ValueError(f"component {k} out of range for dim {dim}")
    c = np.zeros(dim)
    c[k] = -1.0
    return AffineFunction(c, 0.0)


class LocalProblem:
    """One agent's objective and constraints over the shared n-vector.

    Parameters
    ----------
    objective : ScalarFunction
        Smooth convex objective; must be declared convex.
    inequalities : sequence of ScalarFunction
        Convex constraints g_k(x) <= 0.
    equalities : sequence of ScalarFunction
        Affine constraints h_k(x) = 0.
    """

    def __init__(self, objective, inequalities=(), equalities=()):
        if not objective.declared_convex:
            raise ValueError("objective must be declared convex")
        self.objective = objective
        self.inequalities = tuple(inequalities)
        self.equalities = tuple(equalities)
        self.dim = objective.dim
        for g in self.inequalities:
            if not g.declared_convex:
                raise ValueError("inequality constraints must be declared convex")
            if g.dim != self.dim:
                raise ValueError("inequality dimension mismatch")
        for h in self.equalities:
            if not h.is_affine:
                raise ValueError("equality constraints must be affine")
            if h.dim != self.dim:
                raise ValueError("equality dimension mismatch")
        self.n_ineq = len(self.inequalities)
        self.n_eq = len(self.equalities)

    def ineq_values(self, x):
        """Vector of g_k(x)."""
        return np.array([g.value(x) for g in self.inequalities])

    def eq_values(self, x):
        """Vector of h_k(x)."""
        return np.array([h.value(x) for h in self.equalities])

    def ineq_gradients(self, x):
        """(n_ineq, n) matrix of constraint gradients at x."""
        return np.array([g.gradient(x) for g in self.inequalities]).reshape(-1, self.dim)

    def eq_gradients(self, x):
        """(n_eq, n) matrix of equality gradients at x."""
        return np.array([h.gradient(x) for h in self.equalities]).reshape(-1, self.dim)


class LocalTerms:
    """The agents' first-order local terms at a stacked x (N, n), in the
    multiplier layout of the problem:

    grad (N, n)  objective gradients grad f_i(x_i), and neg_grad = -grad
    g (L,)       inequality values g_k(x_owner)
    h (M,)       equality values
    blocks       (N, R, n) the gradient rows of g and h in DistributedProblem's
                 padded layout, which constraint_force reads
    """

    __slots__ = ("grad", "neg_grad", "g", "h", "blocks")

    def __init__(self, grad, neg_grad, values, blocks, cut):
        self.grad, self.neg_grad, self.blocks = grad, neg_grad, blocks
        self.g, self.h = values[:cut], values[cut:]


class DistributedProblem:
    """Local problems attached to the agents of a network.

    It also fixes the network's multiplier layout: the inequality
    multipliers form one vector lam, the agents' lam_i concatenated in agent
    order, and the equality multipliers one vector mu likewise.
    ineq_owner[k] (eq_owner[k]) is the agent that owns entry k, and
    ineq_slices[i] (eq_slices[i]) selects agent i's entries.
    """

    def __init__(self, network, local_problems):
        locs = tuple(local_problems)
        if len(locs) != network.n_agents:
            raise ValueError("one local problem per agent required")
        dims = {p.dim for p in locs}
        if len(dims) != 1:
            raise ValueError("all agents must share one decision dimension")
        self.network = network
        self.local_problems = locs
        self.dim = locs[0].dim
        self.n_agents = network.n_agents
        self.ineq_owner, self.ineq_slices = _layout([p.n_ineq for p in locs])
        self.eq_owner, self.eq_slices = _layout([p.n_eq for p in locs])

    @functools.cached_property
    def _padded(self):
        """(slot, gather) of the padded layout of the local kernels, made on
        first use: agent i's block of R rows, the largest row count of any
        agent, holds its inequality rows, then its equality rows, then zero
        rows.  slot[k] is the position of entry k of [g; h], gather[i, r]
        (N, R) the entry at row r of block i (L + M for a padding row)."""
        R = max(p.n_ineq + p.n_eq for p in self.local_problems)
        slot = np.array([i * R + k for i, p in enumerate(self.local_problems)
                         for k in range(p.n_ineq)]
                        + [i * R + p.n_ineq + k for i, p in enumerate(self.local_problems)
                           for k in range(p.n_eq)], dtype=np.intp)
        gather = np.full((self.n_agents, R), slot.size, dtype=np.intp)
        gather.flat[slot] = np.arange(slot.size)
        return slot, gather

    @functools.cached_property
    def _affine(self):
        """(C (N, n), -C, the constraint gradient rows in padded blocks
        (N, R, n), offsets [g(0); h(0)]), all read-only and made on first
        use, when every objective and constraint reports a constant
        gradient and every constraint is affine; else None."""
        locs = self.local_problems
        cons = [f for p in locs for f in p.inequalities] + [f for p in locs for f in p.equalities]
        grads = [p.objective.constant_gradient() for p in locs]
        rows = [f.constant_gradient() for f in cons]
        if any(c is None for c in grads + rows) or not all(f.is_affine for f in cons):
            return None
        grad = np.array(grads, dtype=float)
        rows = np.array(rows, dtype=float).reshape(-1, self.dim)
        slot, gather = self._padded
        blocks = np.zeros((gather.size, self.dim))
        blocks[slot] = rows
        stacked = (grad, -grad, blocks.reshape(gather.shape + (self.dim,)),
                   np.array([f.value(np.zeros(self.dim)) for f in cons]))
        for a in stacked:
            a.setflags(write=False)
        return stacked

    def local_terms(self, x):
        """The LocalTerms at x (N, n).

        When every function reports a constant gradient, the terms are
        stacked once, and the constraint values are one einsum of the
        padded blocks with each agent's own x_i (no agent's rows read
        another's x), taken into layout order, with no loop over the
        agents; it sums each row as an einsum over rows gathered by owner
        does.  Otherwise one loop over the local problems asks each
        function for its value and gradient.
        """
        cut, (slot, gather) = self.ineq_owner.size, self._padded
        if self._affine is not None:
            grad, neg_grad, blocks, offsets = self._affine
            values = np.einsum("irn,in->ir", blocks, x).take(slot) + offsets
            return LocalTerms(grad, neg_grad, values, blocks, cut)
        grad = np.empty((self.n_agents, self.dim))
        values = np.empty(slot.size)
        blocks = np.zeros(gather.shape + (self.dim,))
        g, h = values[:cut], values[cut:]  # views to fill
        for i, p in enumerate(self.local_problems):
            grad[i] = p.objective.gradient(x[i])
            g[self.ineq_slices[i]], h[self.eq_slices[i]] = p.ineq_values(x[i]), p.eq_values(x[i])
            blocks[i, :p.n_ineq] = p.ineq_gradients(x[i])
            blocks[i, p.n_ineq:p.n_ineq + p.n_eq] = p.eq_gradients(x[i])
        return LocalTerms(grad, -grad, values, blocks, cut)


def _layout(counts):
    """(owner of each entry, slice of each agent) for per-agent counts."""
    owner = np.repeat(np.arange(len(counts)), counts)
    ends = itertools.accumulate(counts)
    return owner, tuple(slice(e - c, e) for c, e in zip(counts, ends))


def _owner_sums(owner, n_agents, rows, axis=0):
    """Sums of rows by owning agent: rows B + (K,) + W, whose K entries
    along axis belong to the agents owner (K,) (multiplier entries by
    ineq_owner or eq_owner, edges by receiving agent), give B + (N,) + W.
    Entry k adds into agent owner[k] of its own leading row alone, so a
    non-finite entry stays with its own agent and row; each agent's
    entries are added in their order along axis."""
    bins, size, shape = _owner_sum_plan(owner, n_agents, rows.shape, axis)
    return np.bincount(bins, weights=rows.ravel(), minlength=size).reshape(shape)


def _owner_sum_plan(owner, n_agents, shape, axis=0):
    """(bins, bin count, sum shape) of _owner_sums for rows of this shape,
    made once per owner array, shape and axis; a per-step caller takes it
    once per run."""
    return _bins(owner.dtype.str, owner.tobytes(), n_agents, shape, axis % len(shape))


@functools.lru_cache(maxsize=64)
def _bins(dtype, owner, n, shape, axis):
    """_owner_sum_plan, keyed by the owner array's dtype and bytes: entry
    (b, k, w) goes to bin (b n + owner[k]) W + w."""
    owner = np.frombuffer(owner, dtype=dtype)
    head, tail = shape[:axis], shape[axis + 1:]
    b, w = math.prod(head), math.prod(tail)
    bins = (owner[:, None] * w + np.arange(w)).ravel()
    bins = (bins + n * w * np.arange(b)[:, None]).ravel()
    bins.setflags(write=False)
    return bins, b * n * w, head + (n,) + tail


_PAD_WEIGHT = np.zeros(1)  # the weight of a padding row


def constraint_force(prob, terms, lam, mu):
    """zeta_i = sum_k lam_ik^2 grad g_ik(x_i) + sum_k mu_ik grad h_ik(x_i),
    stacked (N, n), from the LocalTerms at x and lam, mu in the multiplier
    layout of prob.  The weights [lam^2; mu] are taken into the padded
    layout (0 on padding rows), and each agent's weight row times its own
    block is one einsum, so a non-finite row or weight stays with its own
    agent.  The einsum adds an agent's weighted rows in layout order, as
    the bincount by owner did."""
    weights = np.concatenate([lam**2, mu, _PAD_WEIGHT]).take(prob._padded[1])
    return np.einsum("ir,irn->in", weights, terms.blocks)


@dataclass
class KKTResidual:
    """Infinity-norm residuals of the optimality conditions."""

    consensus: float
    stationarity: float
    primal_eq: float
    primal_ineq: float
    comp_slack: float

    def max(self):
        """The worst field; NaN when any field is NaN."""
        return float(np.max(list(self.as_dict().values())))

    def as_dict(self):
        return asdict(self)


def _inf_norm(a):
    """max |a|, 0 for an empty a; NaN when a holds a NaN."""
    return float(np.abs(a).max(initial=0.0))


def kkt_residual(prob, x, xi, lam, mu):
    """Residuals of the generalized optimality conditions, all inf-norms.

    consensus   : max | (L x)_i |
    stationarity: max | grad f_i + G_i^T lam_i^2 + H_i^T mu_i
                        + sum_j a_ij (xi_j - xi_i) |
    primal_eq   : max | h_i(x_i) |
    primal_ineq : max ( g_i(x_i) clipped below at 0 )
    comp_slack  : max | lam_ik^2 g_ik(x_i) |

    x and xi are (N, n); lam and mu are the concatenated multiplier vectors
    of prob's layout, and any other shape is a ValueError naming the field.
    Every field is a numpy reduction over the whole network, so a NaN from
    any agent reaches each field it enters.
    """
    x = np.asarray(x, dtype=float).reshape(prob.n_agents, prob.dim)
    xi = np.asarray(xi, dtype=float).reshape(prob.n_agents, prob.dim)
    lam, mu = np.asarray(lam, dtype=float), np.asarray(mu, dtype=float)
    for name, v, owner in (("lam", lam, prob.ineq_owner), ("mu", mu, prob.eq_owner)):
        if v.shape != owner.shape:
            raise ValueError(f"{name}: expected shape {owner.shape}, got {v.shape}")
    terms = prob.local_terms(x)
    lx = laplacian_apply(prob.network, x)
    lxi = laplacian_apply(prob.network, xi)
    # sum_j a_ij (xi_j - xi_i) = -(L xi)_i
    stationarity = terms.grad + constraint_force(prob, terms, lam, mu) - lxi
    return KKTResidual(
        consensus=_inf_norm(lx),
        stationarity=_inf_norm(stationarity),
        primal_eq=_inf_norm(terms.h),
        primal_ineq=float(np.maximum(terms.g, 0.0).max(initial=0.0)),
        comp_slack=_inf_norm(lam**2 * terms.g),
    )
