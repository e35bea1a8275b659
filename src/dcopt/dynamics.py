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
form one (L + M, n) table in the multiplier layout.  When every function is
affine, as in the matching LP, the constraint values are one einsum of each
row with its owner's x.  The constraint force and the summed port efforts
are one bincount: the rows' entries (on the affine path the nonzero ones),
weighted by [lam^2; mu], into their owners' columns, and the edges' p into
its receiving agent's two halves.  There is no loop over the agents, and no
agent's terms or sums read another agent's x, multipliers or ports.
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
from .problem import _force_products

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
                    x[i] = rho[i, 0] + rho[i, 1] + ..., see _stage_sum
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

    __slots__ = ("_z", "_rho", "_xi", "_lam", "_mu", "_x", "_table", "_stages")
    _names = ("rho", "xi", "lam", "mu")
    z, rho, xi, lam, mu, x = _read_only("z", *_names, "x")

    def __init__(self, rho, xi, lam, mu):
        with np.errstate(over="ignore"):  # finite stages whose x overflows: the nan guard's
            self._fill(*_pack((rho, xi, lam, mu)))

    def _fill(self, table, z):
        self._table, self._z = table, z
        self._rho, self._xi, self._lam, self._mu = _views(table, z)
        self._stages = tuple(self._rho[..., q, :] for q in range(self._rho.shape[-2]))
        self._x = _stage_sum(self._stages, np.empty(self._rho.shape[:-2] + self._rho.shape[-1:]))

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


def _stage_sum(stages, out):
    """x = rho_0 + rho_1 + ... from the stage views, left to right, into
    out: m - 1 adds, a copy at m = 1.  That is np.add.reduce over the stage
    axis bit for bit, but where every stage of an entry is -0.0 (the reduce
    starts from +0.0) and in the payload of a NaN."""
    if len(stages) == 1:
        np.copyto(out, stages[0])
    else:
        np.add(stages[0], stages[1], out=out)
    for stage in stages[2:]:
        np.add(out, stage, out=out)
    return out


class AgentDerivative(_Packed):
    """Time derivatives of an AgentState, packed like it: rho_dot, xi_dot,
    lam_dot and mu_dot are read-only views of one vector zdot, so z + h zdot is
    the Euler step.  It also keeps what the diagnostics read at the same x,
    as separate (N, n) arrays: nu, grad f(x) and the constraint force zeta.
    """

    __slots__ = ("_zdot", "_rho_dot", "_xi_dot", "_lam_dot", "_mu_dot", "_nu", "_grad",
                 "_zeta", "_table", "_multipliers_dot")
    _names = ("rho_dot", "xi_dot", "lam_dot", "mu_dot")
    zdot, rho_dot, xi_dot, lam_dot, mu_dot, nu, grad, zeta = _read_only(
        "zdot", *_names, "nu", "grad", "zeta")

    def __init__(self, rho_dot, xi_dot, lam_dot, mu_dot, nu, grad, zeta):
        self._fill(*_pack((rho_dot, xi_dot, lam_dot, mu_dot)), nu, grad, zeta)

    def _fill(self, table, zdot, nu, grad, zeta):
        self._table, self._zdot, self._nu, self._grad, self._zeta = table, zdot, nu, grad, zeta
        self._rho_dot, self._xi_dot, self._lam_dot, self._mu_dot = _views(table, zdot)
        # [lam_dot; mu_dot], the contiguous tail of zdot
        self._multipliers_dot = zdot[..., table[0][2][0].start:]


class _Plan:
    """The operands of derivatives besides the state and p, laid out once
    per run: the gains b and c at the stages' full shape (N, m, n), a buffer
    for b rho, the LocalTerms that local_terms fills in place, the weights
    of the owner sum (F + 2n E,), their bins and bin count, the rows of the
    force's multipliers in the packed state z, and [2 lam; 1], whose ones
    are written here.  The weights' head (products, F) takes the force's
    weighted entries, led by its lam entries (lam_part), and their tail (p,
    (E, 2n)) a copy of the edges' p.  simulate makes one per run and
    derivatives a fresh one per call without it, so no two runs or calls
    share one.

    outs are the AgentDerivatives the run passes as out.  When grad f is
    constant (the affine path) it is written into their grad here, once,
    and derivatives with this plan does not write it again, so such a plan
    takes no other out but a fresh one."""

    __slots__ = ("b", "c", "b_rho", "terms", "weights", "products", "lam_part", "p", "bins",
                 "size", "sums", "at", "scale", "scale_lam", "write_grad")

    def __init__(self, prob, comp, state, outs=()):
        n, dim, own = prob.n_agents, prob.dim, prob.network.own
        shape = state._rho.shape
        self.b, self.c = (np.broadcast_to(v[:, None], shape).copy() for v in (comp.b, comp.c))
        self.b_rho = np.empty(shape)
        self.terms = prob.local_terms(state._x)
        _, rows, squares, force_bins, _ = prob._force_plan
        self.weights = np.empty(rows.size + own.size * 2 * dim)
        self.products, self.lam_part = self.weights[:rows.size], self.weights[:squares]
        self.p = self.weights[rows.size:].reshape(own.size, 2 * dim)
        # bins of [products; p]: the force's owner * n + column, then entry
        # (e, half, column) of p at (1 + half) N n + own[e] n + column, so
        # one bincount gives zeta and the two halves of the efforts
        halves = (np.arange(1, 3)[:, None] * n + own[:, None, None]) * dim + np.arange(dim)
        self.bins = np.concatenate([force_bins, halves.ravel()])
        self.size, self.sums = 3 * n * dim, (3, n, dim)
        self.at = rows + (state._z.size - prob._owner.size)
        self.scale = np.ones(prob._owner.size)
        self.scale_lam = self.scale[:prob.ineq_owner.size]
        self.write_grad = not outs or prob._affine is None
        if not self.write_grad:
            for out in outs:
                np.copyto(out._grad, self.terms.grad)


def derivatives(prob, comp, state, p, out=None, plan=None):
    """Time derivatives of the network state from time-t information.

    p (E, 2n) holds the coupling effort p_ij of every edge i <- j, in the
    order of the network's edge table: agent i's summed effort sum_j p_ij
    adds its first n entries to nu and is xi_dot in its last n.  The local
    terms come from one prob.local_terms(x) call, with no loop over the
    agents when the problem is affine.  The constraint force zeta and both
    halves of the efforts come out of one bincount over the weights
    [products; p]: the force's weighted constraint-row entries, built as
    constraint_force builds them but with the multipliers gathered from the
    packed z, then a copy of p.  Each bin adds its entries in layout or
    edge-table order, so zeta is constraint_force's and the efforts are the
    owner sums of p, bit for bit.

    Every field is written into out, an AgentDerivative of the state's
    layout, or into a fresh one: the four derivative fields into the views
    of its zdot, [lam_dot; mu_dot] as the one product [2 lam; 1] * [g; h],
    and grad f(x), nu and zeta, which the diagnostics read, into its own
    arrays.  plan, a _Plan of this problem, compensator and layout that the
    caller makes once per run, holds every other operand and buffer, the
    weights too; without it a fresh one is made.
    """
    fresh = out is None
    if fresh:
        out = AgentDerivative._of(state._table, np.empty_like(state._z),
                                  *(np.empty_like(state._x) for _ in range(3)))
    if plan is None:
        plan = _Plan(prob, comp, state)
    plan.p[...] = p
    terms = prob.local_terms(state._x, plan.terms)
    _force_products(prob, terms, state._z, plan.at, plan.products, plan.lam_part)
    sums = np.bincount(plan.bins, weights=plan.weights, minlength=plan.size).reshape(plan.sums)
    zeta, effort_x, effort_xi = sums[0], sums[1], sums[2]  # unpacking iterates: slower
    out._zeta[...] = zeta
    if fresh or plan.write_grad:
        np.copyto(out._grad, terms.grad)
    nu = np.subtract(terms.neg_grad, zeta, out=out._nu)
    np.add(nu, effort_x, out=nu)
    rho_dot = np.multiply(plan.c, nu[:, None, :], out=out._rho_dot)
    np.subtract(rho_dot, np.multiply(plan.b, state._rho, out=plan.b_rho), out=rho_dot)
    out._xi_dot[...] = effort_xi
    np.add(state._lam, state._lam, out=plan.scale_lam)  # 2 lam, exactly
    np.multiply(plan.scale, terms._values, out=out._multipliers_dot)
    return out


def euler_step(state, deriv, h, out=None):
    """Explicit Euler update z + h zdot, written into out, an AgentState of
    the state's layout other than state, or into a fresh one; guards
    multiplier positivity.  h must be positive and finite.

    Raises LambdaGuardError when any lam component would become <= 0, with
    the update already written.  The guard is an integration-accuracy
    failure, so it aborts rather than clamps: clamping would silently
    change the flow.  It reads the least lam, found by one argmin, which
    stops at the first NaN: so a NaN lam does not trip it, whatever the
    other entries, and the caller tests the returned z for NaN and
    divergence.
    """
    if not 0.0 < h < math.inf:  # NaN fails both
        raise ValueError(f"step size must be positive and finite, got {h}")
    nxt = AgentState._of(state._table, np.zeros_like(state._z)) if out is None else out
    z = np.multiply(h, deriv._zdot, out=nxt._z)
    np.add(state._z, z, out=z)
    _stage_sum(nxt._stages, nxt._x)
    lam = nxt._lam
    # argmin stops at the first NaN, as min propagates it: a NaN lam passes
    if lam.size and lam[lam.argmin()] <= 0.0:
        k = int(np.argmax(lam <= 0.0))
        raise LambdaGuardError(k, float(lam[k]))
    return nxt


def compensator_storage(comp, rho, z_star):
    """Storage of each agent's compensator block relative to a primal
    reference, (..., N) for rho (..., N, m, n):

    (1/(2 c_1)) |rho_1 - z*|^2 + sum_{k>=2} (1/(2 c_k)) |rho_k|^2
    """
    s = np.sum((rho[..., 0, :] - z_star) ** 2, axis=-1) / (2.0 * comp.c[0])
    for k in range(1, comp.m):
        s += np.sum(rho[..., k, :] ** 2, axis=-1) / (2.0 * comp.c[k])
    return s


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
    s = _owner_sums(prob.ineq_owner, prob.n_agents, lam**2 - lam_star**2, -1) / 4.0
    active = lam_star > 0.0
    if np.any(active):
        ls = lam_star[active]
        s -= 0.5 * _owner_sums(prob.ineq_owner[active], prob.n_agents,
                               ls**2 * (np.log(lam[..., active]) - np.log(ls)), -1)
    s += 0.5 * _owner_sums(prob.eq_owner, prob.n_agents, (mu - mu_star) ** 2, -1)
    return s


def primal_rate_bound(state, deriv, z_star, phi_star):
    """Upper bound certified for d/dt of compensator_storage, (..., N):

    (x - z*)^T (phi - phi*),  phi = nu + grad f(x),  phi* = grad f(z*),

    with nu and grad f(x) from deriv and phi* (N, n) fixed for the run.
    """
    phi = deriv.nu + deriv.grad
    return np.sum((state.x - z_star) * (phi - phi_star), axis=-1)


def multiplier_rate_bound(state, deriv, z_star, zeta_star):
    """Upper bound certified for d/dt of multiplier_storage, (..., N):

    (zeta - zeta*)^T (x - z*) with zeta the constraint force of deriv and
    zeta* = zeta(z*, lam*, mu*) (N, n) fixed for the run.
    """
    return np.sum((deriv.zeta - zeta_star) * (state.x - z_star), axis=-1)


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
    d_c = 0.5 * h * np.sum(np.sum(deriv.rho_dot**2, axis=-1) / comp.c, axis=-1)
    d_m = 0.25 * h * _owner_sums(prob.ineq_owner, prob.n_agents, deriv.lam_dot**2, -1)
    d_m += 0.5 * h * _owner_sums(prob.eq_owner, prob.n_agents, deriv.mu_dot**2, -1)
    active = lam_star > 0.0
    if np.any(active):
        ls2 = lam_star[active] ** 2
        w = h * deriv.lam_dot[..., active] / state.lam[..., active]
        safe = w > -1.0
        rem = np.where(
            safe, w - np.log1p(np.where(safe, w, 0.0)), 0.5 * w**2
        )
        d_m += _owner_sums(prob.ineq_owner[active], prob.n_agents, ls2 * rem, -1) / (2.0 * h)
    d_xi = 0.5 * h * np.sum(deriv.xi_dot**2, axis=-1)
    return d_c, d_m, d_xi
