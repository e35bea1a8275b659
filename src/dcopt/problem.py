"""Convex problem data for networked agents.

Each agent owns a private smooth convex objective, convex inequality
constraints g(x) <= 0 and affine equality constraints h(x) = 0, all over a
shared decision vector of dimension n.  A DistributedProblem ties the agents
to a Network; consensus over the network replaces a shared variable.

Only first-order information (value, gradient) is required of any function.
"""

import functools
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


class LocalTerms:
    """The agents' first-order local terms at a stacked x (N, n), in the
    multiplier layout of the problem:

    grad (N, n)      objective gradients grad f_i(x_i), and neg_grad = -grad
    g (L,)           inequality values g_k(x_owner)
    h (M,)           equality values
    rows (L + M, n)  the constraint gradient rows, all g rows then all h
                     rows in the same order, which constraint_force reads

    g and h are the two parts of one array [g; h], and _at holds the rows of
    x that local_terms gathered for them, so that a later call can fill the
    same terms in place.
    """

    __slots__ = ("grad", "neg_grad", "g", "h", "rows", "_values", "_at")

    def __init__(self, grad, neg_grad, values, rows, cut, at):
        self.grad, self.neg_grad, self.rows = grad, neg_grad, rows
        self._values, self._at = values, at
        self.g, self.h = values[:cut], values[cut:]


class DistributedProblem:
    """Local problems attached to the agents of a network.

    It also fixes the network's multiplier layout: the inequality
    multipliers form one vector lam, the agents' lam_i concatenated in agent
    order, and the equality multipliers one vector mu likewise.
    ineq_owner[k] (eq_owner[k]) is the agent that owns entry k, the layout's
    only stored form: lam[ineq_owner == i] are agent i's entries.  The
    constraint rows of LocalTerms follow [lam; mu]: entry k of [g; h]
    belongs to agent _owner[k] and function _constraints[k].
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
        self.ineq_owner = np.repeat(np.arange(len(locs)), [p.n_ineq for p in locs])
        self.eq_owner = np.repeat(np.arange(len(locs)), [p.n_eq for p in locs])
        self._owner = np.concatenate([self.ineq_owner, self.eq_owner])
        self._constraints = tuple([f for p in locs for f in p.inequalities]
                                  + [f for p in locs for f in p.equalities])

    @functools.cached_property
    def _affine(self):
        """(C (N, n), -C, the constraint rows (L + M, n), offsets
        [g(0); h(0)]), all read-only and made on first use, when every
        objective and constraint reports a constant gradient and every
        constraint is affine; else None."""
        cons = self._constraints
        grads = [p.objective.constant_gradient() for p in self.local_problems]
        rows = [f.constant_gradient() for f in cons]
        if any(c is None for c in grads + rows) or not all(f.is_affine for f in cons):
            return None
        grad = np.array(grads, dtype=float)
        stacked = (grad, -grad, np.array(rows, dtype=float).reshape(-1, self.dim),
                   np.array([f.value(np.zeros(self.dim)) for f in cons]))
        for a in stacked:
            a.setflags(write=False)
        return stacked

    @functools.cached_property
    def _force_plan(self):
        """(entries, their rows, lam entries, their bins, their values) of
        the constraint force, made on first use: the flat indices into the
        constraint rows that the force reads, in order, the row of each, how
        many lead with a row of lam (the rest have one of mu), the bin
        owner * n + column of each and, on the affine path, its constant
        value.  The affine path reads only the nonzero entries of its
        constant rows (NaN and inf are nonzero); the loop path, whose rows
        change, reads them all, and its values are None."""
        n = self.dim
        values = None
        if self._affine is None:
            entries = np.arange(self._owner.size * n)
        else:
            entries = np.flatnonzero(self._affine[2])
            values = self._affine[2].take(entries)
        rows, cols = np.divmod(entries, n)
        squares = int(np.searchsorted(rows, self.ineq_owner.size))
        return entries, rows, squares, self._owner[rows] * n + cols, values

    def local_terms(self, x, out=None):
        """The LocalTerms at x (N, n), written into out, the LocalTerms of
        an earlier call on this problem, when given, else fresh.

        When every function is affine with a constant gradient, the terms
        are stacked once, and the constraint values are one einsum of each
        constant row with its owner's x, gathered into out's rows of x,
        plus the offsets: no loop over the agents, and no row reads another
        agent's x.  Otherwise one loop over the constraints, in layout
        order, asks each function for its value and gradient at its owner's
        x.
        """
        cut = self.ineq_owner.size
        if self._affine is not None:
            grad, neg_grad, rows, offsets = self._affine
            if out is None:
                at = x.take(self._owner, 0)
                out = LocalTerms(grad, neg_grad, np.einsum("kn,kn->k", rows, at), rows, cut, at)
            else:  # every owner is in range, and "clip" takes straight into out
                np.einsum("kn,kn->k", rows, x.take(self._owner, 0, out=out._at, mode="clip"),
                          out=out._values)
            np.add(out._values, offsets, out=out._values)
            return out
        grad = np.array([p.objective.gradient(xi) for p, xi in zip(self.local_problems, x)],
                        dtype=float)
        at = x.take(self._owner, 0)
        values = np.array([f.value(xk) for f, xk in zip(self._constraints, at)], dtype=float)
        rows = np.array([f.gradient(xk) for f, xk in zip(self._constraints, at)],
                        dtype=float).reshape(-1, self.dim)
        if out is None:
            return LocalTerms(grad, -grad, values, rows, cut, at)
        for field, value in zip((out.grad, out._values, out.rows, out._at),
                                (grad, values, rows, at)):
            np.copyto(field, value)
        np.negative(grad, out=out.neg_grad)
        return out


def _force_products(prob, terms, source, at, out, lam_part):
    """The weighted entries of the constraint force, written into out (F,):
    entry k of prob's plan times its row's weight in [lam^2; mu], with the
    multiplier of each entry gathered from source at at[k] and the lam
    entries, lam_part, the head of out, squared in place, so lam[row]^2 is
    (lam^2)[row] bit for bit.  source is [lam; mu] and at the entries'
    rows, or a packed state z and those rows shifted to its multiplier
    tail."""
    values = prob._force_plan[4]
    if values is None:
        values = terms.rows.take(prob._force_plan[0])
    source.take(at, out=out, mode="clip")  # every index is in range
    np.square(lam_part, out=lam_part)
    return np.multiply(out, values, out=out)


def constraint_force(prob, terms, lam, mu):
    """zeta_i = sum_k lam_ik^2 grad g_ik(x_i) + sum_k mu_ik grad h_ik(x_i),
    stacked (N, n) float, from the LocalTerms at x and lam, mu in the
    multiplier layout of prob.  Each entry of the constraint rows that
    prob's plan reads, times its row's weight in [lam^2; mu], is one
    bincount weight into bin owner * n + column, so a non-finite row or
    weight stays with its own agent; an agent's entries add in layout
    order.  On the affine path the plan holds the entries of the constant
    rows, and the zero entries are not read, so a non-finite multiplier
    reaches only the columns where its row has a nonzero coefficient (an
    all-zero row contributes nothing); the loop path reads every entry, and
    0 * NaN reaches the owner's every column.  derivatives builds the same
    weighted entries with the same helper, _force_products, and sums them
    in the same bins, together with the port efforts, in one bincount."""
    _, rows, squares, bins, _ = prob._force_plan
    products = np.empty(rows.size)
    _force_products(prob, terms, np.concatenate([lam, mu], dtype=float), rows, products,
                    products[:squares])
    force = np.bincount(bins, weights=products, minlength=prob.n_agents * prob.dim)
    return force.reshape(prob.n_agents, prob.dim).astype(float, copy=False)  # int64 if no entries


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
    x, xi, lam, mu = (np.asarray(v, dtype=float) for v in (x, xi, lam, mu))
    stacked = (prob.n_agents, prob.dim)
    for name, v, shape in (("x", x, stacked), ("xi", xi, stacked),
                           ("lam", lam, prob.ineq_owner.shape), ("mu", mu, prob.eq_owner.shape)):
        if v.shape != shape:
            raise ValueError(f"{name}: expected shape {shape}, got {v.shape}")
    terms = prob.local_terms(x)
    # the columns are summed apart, so each half is L x and L xi bit for bit
    lap = laplacian_apply(prob.network, np.concatenate([x, xi], axis=1))
    lx, lxi = lap[:, :prob.dim], lap[:, prob.dim:]
    # sum_j a_ij (xi_j - xi_i) = -(L xi)_i
    stationarity = terms.grad + constraint_force(prob, terms, lam, mu) - lxi
    return KKTResidual(
        consensus=_inf_norm(lx),
        stationarity=_inf_norm(stationarity),
        primal_eq=_inf_norm(terms.h),
        primal_ineq=float(np.maximum(terms.g, 0.0).max(initial=0.0)),
        comp_slack=_inf_norm(lam**2 * terms.g),
    )
