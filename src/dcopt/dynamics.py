"""Network continuous dynamics and their explicit Euler discretization.

Each agent runs a primal flow shaped by a phase-lead compensator

    rho_dot_k = -b_k rho_k + c_k nu,   x = sum_k rho_k,

driven by nu, the negative gradient of its local Lagrangian plus its summed
port effort, and integrator dynamics for the consensus multiplier xi and the
constraint multipliers.  Agents meet their neighbors only through that
effort e_i = sum_j p_ij, where p_ij = E_ij (r_ij - [x_i; xi_i]) is the
coupling effort of the port to j: its first n entries add to nu_i and its
last n are xi_dot_i.  The inequality multiplier enters the Lagrangian
squared, so its flow lam_dot = 2 lam g(x) keeps lam positive without
projection; a step that would cross zero is a guard violation, never
clamped.  The whole network steps as one state (AgentState): its stacked
arrays are read-only attributes, views of one flat vector z taken once per
state from a slice table that is computed once per layout, so an Euler
step is one vector update, and the storage, bound and defect kernels
return one value per agent.  Those kernels also take a block of K states
and derivatives, (K, N, ...), and reduce over the trailing axes only, so
the online diagnostics evaluate K steps in one call.

Every local term (grad f, g, h and the gradient rows of g and h) comes
from one DistributedProblem.local_terms call per state.  The gradient rows
form one (L + M, n) table in the multiplier layout.  The constraint force
and the summed port efforts are one bincount: the rows' entries (on the
affine path the nonzero ones), weighted by [lam^2; mu], into their owners'
columns, and the edges' p into its receiving agent's two halves.  When
every function is affine, as in the matching LP, the same bincount also
sums the constraint values: each nonzero entry times its owner's x at its
column, into its row.  There is no loop over the agents, and no agent's
terms or sums read another agent's x, multipliers or ports.
On the affine path the rest of the no-delay flow is linear and
time-invariant, and the same on each of the n columns: the compensator
stages and the Laplacian coupling of [x; xi].  So one step of it is also
one linear map of the stage-major block [rho_0 .. rho_{m-1}; xi] of z,
T z + h c_k W on stage k with W = -grad f - zeta and T = I + h A, one
matmul of an ((m + 1) N)^2 matrix made once per run, and [lam; mu] step by
[2 h lam; h] times [g; h] (_linear_step).  It rounds differently from
derivatives and euler_step, by about 1e-13 over a run at scale 20.
The rate bounds read grad f(x) and zeta from the AgentDerivative of the
same step and take phi* = grad f(z*) and zeta* = zeta(z*, lam*, mu*),
which stay fixed for a run, from the caller.

With m = 1, b = (0,), c = (1,) the compensator is a pure integrator and the
flow reduces to plain primal-dual gradient dynamics (the ablation mode that
oscillates on merely convex objectives).
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .graph import _owner_sums

__all__ = [
    "CompensatorParams",
    "AgentState",
    "AgentDerivative",
    "LambdaGuardError",
    "derivatives",
    "euler_step",
    "compensator_storage",
    "multiplier_storage",
    "primal_rate_bound",
    "multiplier_rate_bound",
    "storage_step_defects",
]


class LambdaGuardError(RuntimeError):
    """An Euler step would drive an inequality multiplier to zero or below.

    index is the first such entry of the concatenated lam, value what it
    would step to.
    """

    def __init__(self, index, value):
        super().__init__(f"inequality multiplier {index} would step to {value:.3e}")
        self.index = index
        self.value = value


@dataclass(frozen=True)
class CompensatorParams:
    """Phase-lead compensator sum_k c_k / (s + b_k).

    b must start at exactly 0 and increase strictly; c must be positive.
    m = 1 is the pure-integrator ablation, m >= 2 the compensated mode.
    """

    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        b = np.array(self.b, dtype=float).reshape(-1)
        c = np.array(self.c, dtype=float).reshape(-1)
        if b.size == 0 or b.size != c.size:
            raise ValueError("b and c must be nonempty and the same length")
        for name, v in (("b", b), ("c", c)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
        if b[0] != 0.0:
            raise ValueError("b[0] must be exactly 0 (integral action)")
        if np.any(np.diff(b) <= 0.0):
            raise ValueError("b must be strictly increasing")
        if np.any(c <= 0.0):
            raise ValueError("c must be positive")
        b.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def m(self):
        return self.b.size

    @staticmethod
    def pure_integrator():
        """Single stage b=0, c=1: plain primal-dual flow."""
        return CompensatorParams(np.array([0.0]), np.array([1.0]))


@functools.lru_cache(maxsize=64)
def _slice_table(shapes):
    """The slice table of one layout: the (slice, shape) of each packed
    field in the flat vector, and the vector's size D.  shapes are the
    fields' shapes for one state; a table is computed once per layout."""
    stops = list(itertools.accumulate(math.prod(s) for s in shapes))
    fields = tuple((slice(a, b), shape) for a, b, shape in zip([0] + stops[:-1], stops, shapes))
    return fields, stops[-1]


def _views(table, vector):
    """The fields of vector (..., D) as views, each (...,) + its shape."""
    lead = vector.shape[:-1]
    return [vector[..., s].reshape(lead + shape) for s, shape in table[0]]


def _pack(arrays):
    """(slice table, new vector (D,)) holding copies of arrays."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    table = _slice_table(tuple(a.shape for a in arrays))
    vector = np.empty(table[1])
    for view, a in zip(_views(table, vector), arrays):
        view[...] = a
    return table, vector


def _read_only(*names):
    """Properties that read the private slots _name of names: assigning one
    is an AttributeError that names it.  A read costs about 50 ns, 10 for a
    slot, so the per-step derivatives and euler_step read the slots."""
    return tuple(property(operator.attrgetter("_" + name)) for name in names)


class _Packed:
    """AgentState and AgentDerivative: fields (_names) that view one vector."""

    __slots__ = ()

    @classmethod
    def _of(cls, table, vector, *rest):
        """The record whose vector is vector in layout table, without a copy."""
        obj = object.__new__(cls)
        obj._fill(table, vector, *rest)
        return obj

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__name__}({fields})"


class AgentState(_Packed):
    """The network's state, packed in one contiguous float vector z (D,).

    rho  (N, m, n)  compensator stages; agent i's primal estimate is
                    x[i] = rho[i, 0] + rho[i, 1] + ..., see _stage_sum.
                    z holds them stage-major, (m, N, n), so each stage is
                    one contiguous (N, n) block; rho is the view of that
                    block with its first two axes swapped
    xi   (N, n)     consensus multipliers
    lam  (L,)       inequality multipliers and mu (M,) equality multipliers,
                    each the agents' vectors concatenated in agent order
                    (the layout of DistributedProblem)

    The four fields and x are read-only attributes, formed once per state:
    the fields are views of z in that order, taken from the layout's slice
    table, so an Euler step is one vector update and the divergence guard
    one dot product of z with itself.  The constructor copies its arrays
    into a new z.
    euler_step without out builds a new state; with out it writes the
    update into that state's z and x, in place, and never into the state it
    steps from.  A write into a field changes z but not x (euler_step forms
    x again); assigning a field is an AttributeError.  A
    z of (K, D), K vectors of one layout as rows, holds K states whose
    fields are (K, ...) views: AgentState._of(table, z), no copy.
    """

    __slots__ = ("_z", "_rho", "_xi", "_lam", "_mu", "_x", "_table", "_by_stage", "_stages")
    _names = ("rho", "xi", "lam", "mu")
    z, rho, xi, lam, mu, x = _read_only("z", *_names, "x")

    def __init__(self, rho, xi, lam, mu):
        with np.errstate(over="ignore"):  # finite stages whose x overflows: the nan guard's
            self._fill(*_pack((_stage_major(rho), xi, lam, mu)))

    def _fill(self, table, z):
        self._table, self._z = table, z
        self._by_stage, self._xi, self._lam, self._mu = _views(table, z)
        self._rho = self._by_stage.swapaxes(-3, -2)
        first, *rest = (self._by_stage[..., q, :, :] for q in range(self._by_stage.shape[-3]))
        self._stages = first, tuple(rest)
        self._x = _stage_sum(self._stages, np.empty(first.shape))

    @staticmethod
    def zeros(comp, prob, lam0=0.01):
        if not 0.0 < lam0 < np.inf:  # NaN fails both
            raise ValueError("initial inequality multipliers lam0 must be positive and finite")
        return AgentState(
            rho=np.zeros((prob.n_agents, comp.m, prob.dim)),
            xi=np.zeros((prob.n_agents, prob.dim)),
            lam=np.full(prob.ineq_owner.size, float(lam0)),
            mu=np.zeros(prob.eq_owner.size),
        )


def _stage_major(rho):
    """rho (..., N, m, n) as the stage-major (..., m, N, n) the vector holds."""
    return np.swapaxes(np.asarray(rho, dtype=float), -3, -2)


def _stage_sum(stages, out):
    """x = rho_0 + rho_1 + ... from the stage views (rho_0, (rho_1, ...)),
    left to right, into out: m - 1 adds, a copy at m = 1.  That is
    np.add.reduce over the stage axis bit for bit, but where every stage of
    an entry is -0.0 (the reduce starts from +0.0) and in the payload of a
    NaN."""
    total, rest = stages
    for stage in rest:
        np.add(total, stage, out)
        total = out
    if total is not out:  # m = 1
        np.copyto(out, total)
    return out


class AgentDerivative(_Packed):
    """Time derivatives of an AgentState, packed like it: rho_dot, xi_dot,
    lam_dot and mu_dot are read-only views of one vector zdot, rho_dot
    stage-major in it as rho in z, so z + h zdot is the Euler step.  It
    also keeps what the diagnostics read at the same x, as separate (N, n)
    arrays: nu, grad f(x) and the constraint force zeta.  The views
    derivatives writes through are taken once per record: rho_dot
    stage-major, [lam_dot; mu_dot], and for one state _flat: zeta, nu and
    xi_dot flat, nu as one row (1, N n) and rho_dot as one row per stage
    (m, N n) (None for a block or for arrays that are not C-contiguous).
    """

    __slots__ = ("_zdot", "_rho_dot", "_xi_dot", "_lam_dot", "_mu_dot", "_nu", "_grad",
                 "_zeta", "_table", "_by_stage", "_multipliers_dot", "_flat")
    _names = ("rho_dot", "xi_dot", "lam_dot", "mu_dot")
    zdot, rho_dot, xi_dot, lam_dot, mu_dot, nu, grad, zeta = _read_only(
        "zdot", *_names, "nu", "grad", "zeta")

    def __init__(self, rho_dot, xi_dot, lam_dot, mu_dot, nu, grad, zeta):
        self._fill(*_pack((_stage_major(rho_dot), xi_dot, lam_dot, mu_dot)), nu, grad, zeta)

    def _fill(self, table, zdot, nu, grad, zeta):
        self._table, self._zdot, self._nu, self._grad, self._zeta = table, zdot, nu, grad, zeta
        self._by_stage, self._xi_dot, self._lam_dot, self._mu_dot = _views(table, zdot)
        self._rho_dot = self._by_stage.swapaxes(-3, -2)
        # [lam_dot; mu_dot], the contiguous tail of zdot
        self._multipliers_dot = zdot[..., table[0][2][0].start:]
        self._flat = None
        if zdot.ndim == 1 and zeta.flags.c_contiguous and nu.flags.c_contiguous:
            self._flat = (zeta.reshape(-1), nu.reshape(-1), self._xi_dot.reshape(-1),
                          nu.reshape(1, -1), self._by_stage.reshape(len(self._by_stage), -1))


class _Plan:
    """The operands of derivatives besides the state and p, laid out once
    per run: the gains b and c at the stages' full stage-major shape
    (m, N, n), a buffer for b rho, the problem's stacked affine terms
    (affine, None on the loop path), with -grad f flat (neg_grad), the
    weights of the owner sum, the coefficients (coefs) and [2 lam; 1]
    (scale), whose ones are written here.  ops holds what derivatives
    reads of the plan at every call, in the order it unpacks them, so one
    lookup finds them all: p's place in the weights, x_bins, x_part, the
    rows of the force's multipliers in the packed state z and their
    products, lam_part, both, the bins, the weights, the bin count, cut,
    the three parts of the sum named below, c as a column (m, 1), b, the
    buffer for b rho and scale's 2 lam.

    The weights are [products; x_part; offsets; p]: the force's weighted
    entries, led by its lam entries (lam_part), then, on the affine path
    only, x at the force's bins times the force's coefficients, the
    products whose row sums are the constraint values, and the offsets
    [g(0); h(0)], written here, and last a copy of the edges' p.  The
    force's bins, owner * n + column, are also the flat indices into x of
    x_part's take (x_bins); coefs holds the coefficients twice, so that one
    multiply weights both the force's entries and x_part (both; on the
    loop path, where coefs is None, the force's entries only).  The owner
    sum's first cut = 3 N n bins are zeta and the efforts' two halves,
    three parts of N n, and its last L + M, on the affine path, the
    values [g; h].  _linear_step sums the weights but p's, on their bins,
    for zeta and [g; h].
    simulate makes one per run and derivatives a fresh one per call without
    it, so no two runs or calls share one.

    outs are the AgentDerivatives the run passes as out.  When grad f is
    constant (the affine path) it is written into their grad here, once,
    and derivatives with this plan does not write it again, so such a plan
    takes no other out but a fresh one."""

    __slots__ = ("b", "c", "b_rho", "affine", "neg_grad", "weights", "coefs", "scale",
                 "write_grad", "ops")

    def __init__(self, prob, comp, state, outs=()):
        n, dim, own = prob.n_agents, prob.dim, prob.network.own
        shape = state._by_stage.shape
        self.b, self.c = (np.broadcast_to(v[:, None, None], shape).copy() for v in (comp.b, comp.c))
        self.b_rho = np.empty(shape)
        self.affine = prob._affine
        self.neg_grad = None if self.affine is None else self.affine[1].reshape(-1)
        _, rows, squares, force_bins, coefs = prob._force_plan
        affine = self.affine is not None
        count = prob._owner.size if affine else 0  # values in the sum
        head, tail = rows.size, rows.size * (1 + affine)
        weights = self.weights = np.empty(tail + count + own.size * 2 * dim)
        if affine:
            weights[tail:tail + count] = self.affine[3]
        self.coefs = np.concatenate([coefs, coefs]) if affine else None
        # bins of the weights: the force's owner * n + column, the value
        # products' and the offsets' rows after the 3 N n bins of the force
        # and the efforts, and entry (e, half, column) of p at
        # (1 + half) N n + own[e] n + column; each row's offset comes after
        # its products, so the bincount adds it last
        cut = 3 * n * dim
        halves = (np.arange(1, 3)[:, None] * n + own[:, None, None]) * dim + np.arange(dim)
        bins = np.concatenate([force_bins, cut + rows[:tail - head], cut + np.arange(count),
                               halves.ravel()])
        self.scale = np.ones(prob._owner.size)
        self.write_grad = not outs or not affine
        if not self.write_grad:
            for out in outs:
                np.copyto(out._grad, self.affine[0])
        self.ops = (weights[tail + count:].reshape(own.size, 2 * dim), bins[:head],
                    weights[head:tail], rows + (state._z.size - prob._owner.size),
                    weights[:head], weights[:squares], weights[:tail], bins, weights,
                    cut + count, cut, *(slice(q * n * dim, (q + 1) * n * dim) for q in range(3)),
                    comp.c[:, None].copy(), self.b, self.b_rho, self.scale[:prob.ineq_owner.size])


def derivatives(prob, comp, state, p, out=None, plan=None):
    """Time derivatives of the network state from time-t information.

    p (E, 2n) holds the coupling effort p_ij of every edge i <- j, in the
    order of the network's edge table: agent i's summed effort sum_j p_ij
    adds its first n entries to nu and is xi_dot in its last n.  The
    constraint force zeta, both halves of the efforts and, on the affine
    path, the constraint values [g; h] come out of one bincount over the
    plan's weights: the force's weighted constraint-row entries, its
    multipliers gathered from the packed z, squared where they are lam and
    times their coefficients, and on the affine path x at the nonzero
    entries of the constant rows times the same coefficients, in the same
    multiply, then the offsets; last a copy of p.  These are the products
    of constraint_force and local_terms, and each bin adds its entries in
    layout or edge-table order, so zeta is constraint_force's, the efforts
    are the owner sums of p and [g; h] is local_terms', bit for bit.  On
    the loop path the terms are a fresh local_terms call.

    Every field is written into out, an AgentDerivative of one state of the
    state's layout whose nu and zeta are C-contiguous, or into a fresh one:
    the four derivative fields into the views of its zdot, rho_dot as c_k
    nu (one product of c as a column and nu as a row, (m, N n)) less
    b_k rho_k, [lam_dot; mu_dot] as the one product [2 lam; 1] * [g; h], and
    grad f(x), nu and zeta, which the diagnostics read, into its own arrays;
    zeta, nu and xi_dot take the owner sum's parts through flat views.
    plan, a _Plan of this problem, compensator and layout that the caller
    makes once per run, holds every other operand and buffer, the weights
    too; without it a fresh one is made.
    """
    fresh = out is None
    if fresh:
        out = AgentDerivative._of(state._table, np.empty_like(state._z),
                                  *(np.empty_like(state._x) for _ in range(3)))
    flat = out._flat
    if flat is None:
        raise ValueError("out: expected the record of one state, its nu and zeta C-contiguous")
    if plan is None:
        plan = _Plan(prob, comp, state)
    (weights_p, x_bins, x_products, at, products, lam_part, both, bins, weights, size, cut,
     zeta_part, x_part, xi_part, c, b, b_rho, scale_lam) = plan.ops
    weights_p[...] = p
    # outs, take's mode and bincount's weights go positionally: a keyword
    # costs about 30 ns a call
    affine = plan.affine
    # every index is in range, and "clip" takes straight into the weights
    if affine is None:  # the rows change: the force reads all their entries
        terms = prob.local_terms(state._x)
        grad, neg_grad, values = terms.grad, terms.neg_grad.reshape(-1), terms._values
        coefs = terms.rows.take(prob._force_plan[0])
    else:
        grad, neg_grad, coefs = affine[0], plan.neg_grad, plan.coefs
        state._x.take(x_bins, None, x_products, "clip")
    state._z.take(at, None, products, "clip")
    np.square(lam_part, lam_part)
    np.multiply(both, coefs, both)
    sums = np.bincount(bins, weights, size)
    if affine is not None:
        values = sums[cut:]
    zeta, nu, xi_dot, nu_row, stage_rows = flat
    np.copyto(zeta, sums[zeta_part])
    if fresh or plan.write_grad:
        np.copyto(out._grad, grad)
    np.subtract(neg_grad, zeta, nu)
    np.add(nu, sums[x_part], nu)
    np.multiply(c, nu_row, stage_rows)
    rho_dot = out._by_stage
    np.subtract(rho_dot, np.multiply(b, state._by_stage, b_rho), rho_dot)
    np.copyto(xi_dot, sums[xi_part])
    lam = state._lam
    np.add(lam, lam, scale_lam)  # 2 lam, exactly
    np.multiply(plan.scale, values, out._multipliers_dot)
    return out


def euler_step(state, deriv, h, out=None):
    """Explicit Euler update z + h zdot, written into out, an AgentState of
    the state's layout other than state, or into a fresh one; guards
    multiplier positivity.  h must be positive and finite, a float or a 0-d
    array (which numpy multiplies by without converting it, as a run's
    steps pass it).

    Raises LambdaGuardError when any lam component would become <= 0, with
    the update already written.  The guard is an integration-accuracy
    failure, so it aborts rather than clamps: clamping would silently
    change the flow.  It reads the least lam, found by one argmin, which
    stops at the first NaN: so a NaN lam does not trip it, whatever the
    other entries, and the caller tests the returned z for NaN and
    divergence.
    """
    if not 0.0 < float(h) < math.inf:  # NaN fails both
        raise ValueError(f"step size must be positive and finite, got {h}")
    nxt = AgentState._of(state._table, np.zeros_like(state._z)) if out is None else out
    z, lam = nxt._z, nxt._lam
    np.multiply(h, deriv._zdot, z)
    np.add(state._z, z, z)
    _stage_sum(nxt._stages, nxt._x)
    # argmin stops at the first NaN, as min propagates it: a NaN lam passes
    if lam.size and lam[lam.argmin()] <= 0.0:
        k = int(np.argmax(lam <= 0.0))
        raise LambdaGuardError(k, float(lam[k]))
    return nxt


def _linear_records(prob, comp, plan, blocks, h, states):
    """The records of _linear_step, one for a step from each of the
    AgentStates states of one layout into the next one (the last into the
    first): the state, T = I + h A, their block views, the update's stage
    rows, both [lam; mu] tails, the update, then plan's force-and-values
    operands and the buffers, made once per run.

    A is the flow's linear part on the block ((m + 1) N, n): -b_k rho_k on
    stage k, c_k times the x half of each agent's summed effort, and the xi
    half as xi_dot.  An edge i <- j of prob's network, with blocks (E, 2,
    2) its coupling maps, adds B (u_j - u_i) to agent i's effort, u = [x;
    xi] and x the stages' sum."""
    net, n, m, dim = prob.network, prob.n_agents, comp.m, prob.dim
    eye = np.eye(n)
    # efforts (2, N) from u (2, N): B at (i, j), -B at (i, i) per edge
    coupled = np.zeros((2, n, 2, n))
    np.add.at(coupled, (slice(None), net.own, slice(None), net.nbr), blocks)
    np.add.at(coupled, (slice(None), net.own, slice(None), net.own), -blocks)
    # u from the block, x the stages' sum; the block's rates from the
    # efforts, c_k times the x half on stage k and the xi half on xi
    gather = np.kron([[1.0] * m + [0.0], [0.0] * m + [1.0]], eye)
    spread = np.kron(np.vstack([np.c_[comp.c, np.zeros(m)], [0.0, 1.0]]), eye)
    decay = np.kron(np.diag(np.r_[comp.b, 0.0]), eye)
    lti = np.eye((m + 1) * n) + h * (spread @ coupled.reshape(2 * n, 2 * n) @ gather - decay)

    (_, x_bins, x_products, at, products, lam_part, both, bins, weights, size, cut,
     zeta_part, *_) = plan.ops
    head = weights.size - len(net.own) * 2 * dim  # the weights but p's
    scale = np.full(prob._owner.size, h)  # [2 h lam; h]
    lams = prob.ineq_owner.size
    run = (x_bins, x_products, at, products, lam_part, both, plan.coefs, bins[:head],
           weights[:head], size, zeta_part, slice(cut, None), plan.neg_grad, np.empty(n * dim),
           h * comp.c[:, None], np.empty((m, n * dim)), scale[:lams], np.array(2.0 * h), scale,
           np.empty(prob._owner.size), lams > 0)
    block = (m + 1) * n * dim  # [stages; xi] entries of z, then [lam; mu]
    return [(st, lti, st._z[:block].reshape(-1, dim), nxt._z[:block].reshape(-1, dim),
             nxt._by_stage.reshape(m, -1), st._z[block:], nxt._z[block:], nxt) + run
            for st, nxt in zip(states, states[1:] + states[:1])]


def _linear_step(state, record):
    """One no-delay step on the affine path by the linear map, from the
    record's state into its update, which is returned, or None when an
    updated lam is <= 0 (argmin stops at a NaN, as in euler_step).  zeta
    and [g; h] are derivatives' bincount without p's weights, and x is the
    update's stage sum, as euler_step forms it."""
    (_, lti, block, nxt_block, nxt_stages, tail, nxt_tail, nxt, x_bins, x_products, at,
     products, lam_part, both, coefs, bins, weights, size, zeta_part, values, neg_grad,
     force, hc, pushed, scale_lam, h2, scale, scaled, has_lam) = record
    state._x.take(x_bins, None, x_products, "clip")
    state._z.take(at, None, products, "clip")
    np.square(lam_part, lam_part)
    np.multiply(both, coefs, both)
    sums = np.bincount(bins, weights, size)
    np.subtract(neg_grad, sums[zeta_part], force)
    np.matmul(lti, block, nxt_block)
    np.add(nxt_stages, np.multiply(hc, force, pushed), nxt_stages)
    _stage_sum(nxt._stages, nxt._x)
    np.multiply(state._lam, h2, scale_lam)
    np.add(tail, np.multiply(scale, sums[values], scaled), nxt_tail)
    lam = nxt._lam
    if has_lam and lam[lam.argmin()] <= 0.0:
        return None
    return nxt


def compensator_storage(comp, rho, z_star):
    """Storage of each agent's compensator block relative to a primal
    reference, (..., N) for rho (..., N, m, n):

    (1/(2 c_1)) |rho_1 - z*|^2 + sum_{k>=2} (1/(2 c_k)) |rho_k|^2
    """
    s = np.add.reduce(np.square(rho[..., 0, :] - z_star), -1) / (2.0 * comp.c[0])
    for k in range(1, comp.m):
        s += np.add.reduce(np.square(rho[..., k, :]), -1) / (2.0 * comp.c[k])
    return s


def _log_terms(owner, lam_star):
    """The reference's constants of the multiplier log term, made once per
    reference: (which, owners, ls2, log_ls) of the entries with lam*_k > 0,
    which indexes them (None when that is every entry), ls2 = lam*_k^2 and
    log_ls = ln lam*_k; or None when no entry is."""
    return _log_terms_of(owner.dtype.str, owner.tobytes(), lam_star.dtype.str, lam_star.tobytes())


@functools.lru_cache(maxsize=64)
def _log_terms_of(owner_dtype, owner, dtype, lam_star):
    """_log_terms, keyed by the dtypes and bytes of owner and lam*."""
    owner, lam_star = np.frombuffer(owner, owner_dtype), np.frombuffer(lam_star, dtype)
    active = lam_star > 0.0
    if not active.any():
        return None
    ls = lam_star[active]
    arrays = owner[active], ls**2, np.log(ls)
    for a in arrays:  # every caller gets the same arrays
        a.setflags(write=False)
    return (None if active.all() else np.flatnonzero(active)), *arrays


def multiplier_storage(prob, lam, mu, lam_star, mu_star):
    """Storage of each agent's multiplier block relative to a KKT
    reference, (..., N) for multipliers (..., L), (..., M) in the layout of
    prob:

    sum_k [ (lam_k^2 - lam*_k^2)/4 - (lam*_k^2 / 2)(ln lam_k - ln lam*_k) ]
      + |mu - mu*|^2 / 2

    The log term is dropped where lam*_k = 0 (lam ln lam -> 0 limit).
    """
    if lam.size and lam.min() <= 0.0:
        raise ValueError("multiplier storage needs lam > 0")
    n = prob.n_agents
    s = _owner_sums(prob.ineq_owner, n, lam**2 - lam_star**2, -1) / 4.0
    terms = _log_terms(prob.ineq_owner, lam_star)
    if terms is not None:
        which, owner, ls2, log_ls = terms
        if which is not None:
            lam = lam[..., which]
        s -= 0.5 * _owner_sums(owner, n, ls2 * (np.log(lam) - log_ls), -1)
    s += 0.5 * _owner_sums(prob.eq_owner, n, np.square(mu - mu_star), -1)
    return s


def primal_rate_bound(state, deriv, z_star, phi_star):
    """Upper bound certified for d/dt of compensator_storage, (..., N):

    (x - z*)^T (phi - phi*),  phi = nu + grad f(x),  phi* = grad f(z*),

    with nu and grad f(x) from deriv and phi* (N, n) fixed for the run.
    """
    phi = deriv.nu + deriv.grad
    return np.add.reduce((state.x - z_star) * (phi - phi_star), -1)


def multiplier_rate_bound(state, deriv, z_star, zeta_star):
    """Upper bound certified for d/dt of multiplier_storage, (..., N):

    (zeta - zeta*)^T (x - z*) with zeta the constraint force of deriv and
    zeta* = zeta(z*, lam*, mu*) (N, n) fixed for the run.
    """
    return np.add.reduce((deriv.zeta - zeta_star) * (state.x - z_star), -1)


def storage_step_defects(prob, comp, state, deriv, lam_star, h):
    """Exact explicit-Euler defect rates of the three storage pieces.

    One Euler step y+ = y + h F moves each storage by more than h times
    its rate at the step start.  Returns (compensator, multiplier,
    coupling) defect rates d, each (..., N) for a state and derivative or
    a block of K of them, (K, N, ...), with S(y+) - S(y) = h (rate + d)
    exactly per agent: the quadratic pieces contribute (h/2) F' Hess(S) F,
    and the multiplier log term the closed-form remainder
    (lam*^2 / (2h)) (w - log(1 + w)) with w = h lam_dot / lam.  Per-step
    rate checks subtract d so they test the bound, not the integrator.
    A component about to trip the positivity guard (1 + w <= 0) falls
    back to the quadratic estimate to stay finite; its step never
    commits, so the value is never compared against a bound.
    """
    n, half_h = prob.n_agents, 0.5 * h
    # the stage-major rho_dot: each stage's sums, (..., m, N), over c
    stages = np.add.reduce(np.square(deriv._by_stage), -1) / comp.c[:, None]
    d_c = half_h * np.add.reduce(stages, -2)
    d_m = 0.25 * h * _owner_sums(prob.ineq_owner, n, np.square(deriv.lam_dot), -1)
    d_m += half_h * _owner_sums(prob.eq_owner, n, np.square(deriv.mu_dot), -1)
    terms = _log_terms(prob.ineq_owner, lam_star)
    if terms is not None:
        which, owner, ls2, _ = terms
        lam_dot, lam = deriv.lam_dot, state.lam
        if which is not None:
            lam_dot, lam = lam_dot[..., which], lam[..., which]
        w = h * lam_dot / lam
        safe = w > -1.0
        if safe.all():  # what the fallback's where gives then
            rem = w - np.log1p(w)
        else:
            rem = np.where(safe, w - np.log1p(np.where(safe, w, 0.0)), 0.5 * w**2)
        d_m += _owner_sums(owner, n, ls2 * rem, -1) / (2.0 * h)
    d_xi = half_h * np.add.reduce(np.square(deriv.xi_dot), -1)
    return d_c, d_m, d_xi
