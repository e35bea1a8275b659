"""Compensator dynamics, Euler stepping, storage functions and rate bounds."""

import numpy as np
import pytest

from dcopt import AgentState, ring
from dcopt.dynamics import (
    AgentDerivative,
    CompensatorParams,
    LambdaGuardError,
    _guards,
    compensator_storage,
    derivatives,
    euler_step,
    multiplier_rate_bound,
    multiplier_storage,
    primal_rate_bound,
    storage_step_defects,
)
from dcopt.graph import Network
from dcopt.problem import (
    AffineFunction,
    DistributedProblem,
    LocalProblem,
    QuadraticFunction,
    constraint_force,
)
from dcopt.scattering import CouplingMatrix


def lead_comp():
    return CompensatorParams(np.array([0.0, 5.0]), np.array([1.0, 10.0]))


def alone(local):
    """A one-agent problem around one local problem."""
    return DistributedProblem(Network([[0.0]]), [local])


def hand_prob():
    # f = x^2/2, g = x - 1 <= 0, h = x - 2 = 0
    return alone(LocalProblem(
        QuadraticFunction([[1.0]]),
        inequalities=[AffineFunction([1.0], -1.0)],
        equalities=[AffineFunction([1.0], -2.0)],
    ))


def hand_state():
    return AgentState(
        rho=np.array([[[1.0], [2.0]]]),
        xi=np.array([[0.5]]),
        lam=np.array([0.2]),
        mu=np.array([0.3]),
    )


def no_effort(prob):
    """Zero coupling efforts p, (E, 2n), on every edge of prob's network."""
    return np.zeros((prob.network.own.size, 2 * prob.dim))


def test_compensator_validation():
    with pytest.raises(ValueError, match="exactly 0"):
        CompensatorParams(np.array([1.0, 5.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="increasing"):
        CompensatorParams(np.array([0.0, 5.0, 5.0]), np.ones(3))
    with pytest.raises(ValueError, match="positive"):
        CompensatorParams(np.array([0.0]), np.array([-1.0]))
    with pytest.raises(ValueError, match="same length"):
        CompensatorParams(np.array([0.0, 1.0]), np.array([1.0]))
    comp = CompensatorParams.pure_integrator()
    assert comp.m == 1
    assert comp.b[0] == 0.0 and comp.c[0] == 1.0
    with pytest.raises(ValueError):
        comp.b[0] = 2.0


def test_compensator_rejects_non_finite_b_and_c():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="b must be finite"):
            CompensatorParams(np.array([0.0, bad]), np.ones(2))
        with pytest.raises(ValueError, match="c must be finite"):
            CompensatorParams(np.array([0.0, 1.0]), np.array([1.0, bad]))


def test_zero_state_rejects_non_finite_lam0():
    prob = DistributedProblem(ring(2, 1.0), [
        LocalProblem(AffineFunction(np.ones(1)), inequalities=[AffineFunction(np.ones(1))])
    ] * 2)
    for lam0 in (np.nan, np.inf):
        with pytest.raises(ValueError, match="lam0 must be positive and finite"):
            AgentState.zeros(lead_comp(), prob, lam0=lam0)


def test_zero_state_shapes():
    comp = lead_comp()
    prob = DistributedProblem(ring(2, 1.0), [
        LocalProblem(AffineFunction(np.ones(3)),
                     inequalities=[AffineFunction(np.ones(3))] * 2,
                     equalities=[AffineFunction(np.ones(3))]),
        LocalProblem(AffineFunction(np.ones(3)),
                     inequalities=[AffineFunction(np.ones(3))]),
    ])
    st = AgentState.zeros(comp, prob, lam0=0.01)
    assert st.rho.shape == (2, 2, 3)
    assert st.xi.shape == (2, 3)
    assert st.lam.shape == (3,) and np.all(st.lam == 0.01)
    assert st.mu.shape == (1,)
    assert np.array_equal(st.x, np.zeros((2, 3)))
    # the multiplier layout: agent 0 owns lam[0:2] and mu[0:1]
    assert prob.ineq_owner.tolist() == [0, 0, 1]
    assert prob.eq_owner.tolist() == [0]
    with pytest.raises(ValueError):
        AgentState.zeros(comp, prob, lam0=0.0)


def test_constraint_force_hand_value():
    prob, st = hand_prob(), hand_state()
    # lam^2 * 1 + mu * 1 = 0.04 + 0.3
    terms = prob.local_terms(st.x)
    assert constraint_force(prob, terms, st.lam, st.mu)[0] == pytest.approx([0.34])


def test_derivatives_hand_values_isolated():
    prob, st = hand_prob(), hand_state()
    comp = lead_comp()
    d = derivatives(prob, comp, st, no_effort(prob))
    assert st.x[0] == pytest.approx([3.0])
    assert d.nu[0] == pytest.approx([-3.34])          # -x - zeta
    assert d.rho_dot[0, 0] == pytest.approx([-3.34])  # c1 nu
    assert d.rho_dot[0, 1] == pytest.approx([-43.4])  # c2 nu - b2 rho2
    assert d.xi_dot[0] == pytest.approx([0.0])
    assert d.lam_dot == pytest.approx([0.8])          # 2 lam g(3)
    assert d.mu_dot == pytest.approx([1.0])           # h(3)


def test_derivatives_with_neighbor():
    # the hand problem as agent 0 of a pair joined over weight 4; agent 1
    # has no constraints
    hand = hand_prob().local_problems[0]
    prob = DistributedProblem(ring(2, 4.0), [hand, LocalProblem(QuadraticFunction([[1.0]]))])
    one = hand_state()
    st = AgentState(rho=np.concatenate([one.rho, np.zeros((1, 2, 1))]),
                    xi=np.concatenate([one.xi, np.zeros((1, 1))]), lam=one.lam, mu=one.mu)
    # agent 0 sees its neighbor at r = [x_j; xi_j] = [2; 1] on edge 0 <- 1
    assert prob.network.own.tolist() == [0, 1]
    r = np.array([2.0, 1.0])
    u = np.concatenate([st.x[0], st.xi[0]])
    p = np.zeros((2, 2))
    p[0] = np.matmul(CouplingMatrix(4.0, 1).blocks, (r - u).reshape(2, 1)).ravel()
    d = derivatives(prob, lead_comp(), st, p)
    # the effort adds w (r_x - x) - w (r_xi - xi) = -4 - 2 to nu, and
    # w (r_x - x) is xi_dot
    assert d.nu[0] == pytest.approx([-9.34])
    assert d.xi_dot[0] == pytest.approx([-4.0])
    # agent 1's edge carries nothing: its effort stays zero
    assert d.xi_dot[1] == pytest.approx([0.0])


def test_euler_step_values_and_guard():
    prob, st = hand_prob(), hand_state()
    st.lam[...] = 0.01
    d = derivatives(prob, lead_comp(), st, no_effort(prob))
    # g(3) = 2 so lam_dot = 0.04; try the shrink direction instead
    d.lam_dot[...] = -0.02
    nxt = euler_step(st, d, 1e-3)
    assert nxt.lam[0] == pytest.approx(0.00998)
    assert nxt.mu[0] == pytest.approx(st.mu[0] + 1e-3 * d.mu_dot[0])
    assert nxt.rho == pytest.approx(st.rho + 1e-3 * d.rho_dot)
    # crossing zero must raise, not clamp
    d.lam_dot[...] = -10.0
    with pytest.raises(LambdaGuardError) as err:
        euler_step(st, d, 1e-3)
    assert err.value.index == 0
    assert err.value.value == pytest.approx(0.01 - 1e-2)
    with pytest.raises(ValueError):
        euler_step(st, d, 0.0)


@pytest.mark.parametrize("lam, trips", [
    ([np.nan, -1.0], False),  # a NaN lam is left to the caller's checks
    ([-1.0, np.nan], False),
    ([1.0, 0.0], True),
    ([-0.0, 1.0], True),
    ([5e-324, 1.0], False),  # the least subnormal is positive
    ([np.inf, 1.0], False),
])
def test_lambda_guard_decides_as_the_least_lam(lam, trips):
    # two inequalities, so lam has two entries; a zero lam_dot steps lam to itself
    prob = alone(LocalProblem(
        QuadraticFunction([[1.0]]),
        inequalities=[AffineFunction([1.0], -1.0), AffineFunction([-1.0], -1.0)],
    ))
    st = AgentState(rho=np.zeros((1, 2, 1)), xi=np.zeros((1, 1)), lam=np.array(lam),
                    mu=np.zeros(0))
    d = derivatives(prob, lead_comp(), st, no_effort(prob))
    d.lam_dot[...] = 0.0
    with np.errstate(all="ignore"):
        assert (np.minimum.reduce(st.lam) <= 0.0) == trips
        # the linear map's batched guard, on z's lam columns (its tail, as
        # there is no mu) in a batch whose middle row trips nothing
        batch, lams = np.stack([st.z, np.ones_like(st.z), st.z]), slice(-st.lam.size, None)
        assert _guards(batch, lams)[1].tolist() == [trips, False, trips]
    if trips:
        with pytest.raises(LambdaGuardError) as err:
            euler_step(st, d, 1e-3)
        assert err.value.index == int(np.argmax(st.lam <= 0.0))
    else:
        np.testing.assert_array_equal(euler_step(st, d, 1e-3).lam, st.lam)


SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0, 1e308, -1e308, 5e-324])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_x_is_the_stage_adds(m):
    # every state's x, fresh, of a block of states or written by
    # euler_step, is the m - 1 stage adds in stage order: np.add.reduce's
    # bits on random stages and on NaN, +-inf and -0.0, but where every
    # stage of an entry is -0.0 (numpy 2's reduce starts from +0.0 and
    # gives +0.0, the adds -0.0) and in the payload of a NaN
    rng = np.random.default_rng(m)
    shape = (4, 5, m, 7)
    for special in (False, True):
        rho = rng.choice(SPECIAL, size=shape) if special else rng.normal(size=shape)
        if special:  # one entry whose every stage is -0.0, and one NaN stage
            rho[0, 0, :, 0], rho[0, 1, -1, 0] = -0.0, np.nan
        with np.errstate(all="ignore"):
            want = np.add.reduce(rho, axis=-2)
            states = [AgentState(block, np.zeros((5, 7)), np.ones(2), np.zeros(0))
                      for block in rho]
            stepped = []
            for st in states:  # z + h (-0.0) is z, bit for bit
                fields = (st.rho, st.xi, st.lam, st.mu)
                d = AgentDerivative(*(np.full_like(a, -0.0) for a in fields),
                                    *(np.zeros_like(st.x) for _ in range(3)))
                nxt = euler_step(st, d, 1e-3)
                assert nxt.z.tobytes() == st.z.tobytes()
                stepped.append(nxt.x)
            block = AgentState._of(states[0]._table, np.stack([st.z for st in states]))
        every_stage_negative_zero = ((rho == 0.0) & np.signbit(rho)).all(axis=-2)
        nan = np.isnan(want)
        expected = np.where(every_stage_negative_zero, -0.0, want)
        assert (nan.any() and every_stage_negative_zero.any()) == special
        for x in (np.stack([st.x for st in states]), block.x, np.stack(stepped)):
            assert (np.isnan(x) == nan).all()
            assert x[~nan].tobytes() == expected[~nan].tobytes()


@pytest.mark.parametrize("h", [np.nan, np.inf, 0.0, -1e-3, -np.inf])
def test_euler_step_needs_a_positive_finite_step(h):
    # a NaN step used to pass the guard and give an all-NaN state, an inf
    # one an all-inf state; the check comes before anything is written
    prob, st = hand_prob(), hand_state()
    d = derivatives(prob, lead_comp(), st, no_effort(prob))
    _, nxt = stale_records(st)
    for out in (None, nxt):
        with pytest.raises(ValueError, match=r"^step size must be positive and finite, got "):
            euler_step(st, d, h, out)
    assert (nxt.z == 7.0).all()


def test_euler_step_does_not_mutate_input():
    st = hand_state()
    prob = hand_prob()
    d = derivatives(prob, lead_comp(), st, no_effort(prob))
    before = [a.copy() for a in (st.rho, st.xi, st.lam, st.mu)]
    nxt = euler_step(st, d, 1e-3)
    for old, new, field in zip(before, (nxt.rho, nxt.xi, nxt.lam, nxt.mu),
                               (st.rho, st.xi, st.lam, st.mu)):
        assert np.array_equal(field, old)
        assert not np.shares_memory(new, field)
    # the new state is a new vector: neither the state nor the derivative
    # it came from can be written through it
    assert not np.shares_memory(nxt.z, st.z)
    assert not np.shares_memory(nxt.z, d.zdot)


def test_state_fields_are_views_of_one_vector():
    st = hand_state()
    assert st.z.shape == (5,) and st.z.flags.c_contiguous
    # rho (both stages), xi, lam, mu in that order
    assert st.z.tolist() == [1.0, 2.0, 0.5, 0.2, 0.3]
    for name in ("rho", "xi", "lam", "mu"):
        assert np.shares_memory(getattr(st, name), st.z)
    prob = hand_prob()
    d = derivatives(prob, lead_comp(), st, no_effort(prob))
    assert d.zdot.shape == st.z.shape
    for name in ("rho_dot", "xi_dot", "lam_dot", "mu_dot"):
        assert np.shares_memory(getattr(d, name), d.zdot)
    for name in ("nu", "grad", "zeta"):
        assert not np.shares_memory(getattr(d, name), d.zdot)
    # the constructor copies its arrays
    rho = np.ones((1, 2, 1))
    assert not np.shares_memory(AgentState(rho, st.xi, st.lam, st.mu).z, rho)


def test_field_writes_go_through_to_the_vector():
    st = hand_state()
    st.xi[...] = 7.0
    st.rho[...] = [[[4.0], [5.0]]]
    assert st.z.tolist() == [4.0, 5.0, 7.0, 0.2, 0.3]
    # x is formed once, with the views: a new state forms it again
    assert st.x.tolist() == [[3.0]]
    assert AgentState(st.rho, st.xi, st.lam, st.mu).x.tolist() == [[9.0]]
    d = derivatives(hand_prob(), lead_comp(), st, no_effort(hand_prob()))
    d.lam_dot[...] = -0.5
    assert d.zdot[3] == -0.5
    # the slice table is computed once per layout
    assert d._table is st._table is hand_state()._table


def test_assigning_a_field_raises_and_leaves_the_vector():
    # an assigned array would not reach z or zdot, so the Euler step would
    # silently ignore it: the fields are read-only, their views writable
    prob, st = hand_prob(), hand_state()
    d = derivatives(prob, lead_comp(), st, no_effort(prob))
    for record, names in ((st, ("z", "rho", "xi", "lam", "mu", "x")),
                          (d, ("zdot", "rho_dot", "xi_dot", "lam_dot", "mu_dot",
                               "nu", "grad", "zeta"))):
        for name in names:
            before = getattr(record, name)
            with pytest.raises(AttributeError, match=f"'{name}'"):
                setattr(record, name, np.zeros_like(before))
            assert getattr(record, name) is before
    assert st.z.tolist() == [1.0, 2.0, 0.5, 0.2, 0.3]
    d.lam_dot[...] = -0.02  # a write into the view is the way
    assert euler_step(st, d, 1e-3).lam[0] == pytest.approx(0.2 - 2e-5)


def stacked_records(states, derivs):
    """(AgentState, AgentDerivative) holding equal-layout records as rows,
    built as the online diagnostics build a block: with _of on the stacked
    vectors."""
    table = states[0]._table
    st = AgentState._of(table, np.stack([s.z for s in states]))
    d = AgentDerivative._of(table, *(np.stack([getattr(one, name) for one in derivs])
                                      for name in ("zdot", "nu", "grad", "zeta")))
    return st, d


def test_stacked_vector_gives_stacked_views():
    prob, _ = three_agent_layout()
    rng = np.random.default_rng(3)
    comp = lead_comp()
    states = [AgentState(rho=rng.normal(size=(3, 2, 2)), xi=rng.normal(size=(3, 2)),
                         lam=rng.uniform(0.2, 2.0, size=3), mu=rng.normal(size=2))
              for _ in range(4)]
    derivs = [derivatives(prob, comp, st, rng.normal(size=(6, 4))) for st in states]
    st, d = stacked_records(states, derivs)
    D = states[0].z.size
    assert st.z.shape == d.zdot.shape == (4, D)
    assert (st.rho.shape, st.xi.shape, st.lam.shape, st.mu.shape) == (
        (4, 3, 2, 2), (4, 3, 2), (4, 3), (4, 2))
    assert d.rho_dot.shape == (4, 3, 2, 2) and d.nu.shape == (4, 3, 2)
    for name in ("rho", "xi", "lam", "mu"):
        assert np.shares_memory(getattr(st, name), st.z)
        for k, one in enumerate(states):
            np.testing.assert_array_equal(getattr(st, name)[k], getattr(one, name))
    for name in ("rho_dot", "xi_dot", "lam_dot", "mu_dot", "nu", "grad", "zeta"):
        for k, one in enumerate(derivs):
            np.testing.assert_array_equal(getattr(d, name)[k], getattr(one, name))
    np.testing.assert_array_equal(st.x, np.stack([one.x for one in states]))
    # the stacked z holds each state's z as a row
    np.testing.assert_array_equal(st.z, np.stack([one.z for one in states]))
    np.testing.assert_array_equal(d.zdot, np.stack([one.zdot for one in derivs]))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_stages_are_packed_stage_major(m):
    # z holds each stage of every agent as one contiguous (N, n) block, stage
    # by stage, and zdot likewise; rho and rho_dot are (..., N, m, n) views
    # of those blocks with the values of c_k nu - b_k rho_k, for one state
    # and for a block of K
    rng = np.random.default_rng(80 + m)
    prob = random_setup(rng)[0]
    n, dim = prob.n_agents, prob.dim
    comp = CompensatorParams(2.0 * np.arange(m), 1.0 + np.arange(m))
    states = [AgentState(rng.normal(size=(n, m, dim)), rng.normal(size=(n, dim)),
                         rng.uniform(0.1, 2.0, size=1), rng.normal(size=1)) for _ in range(3)]
    effort = rng.normal(size=(prob.network.own.size, 2 * dim))
    derivs = [derivatives(prob, comp, st, effort) for st in states]
    stages = n * m * dim
    for st, d in zip(states, derivs):
        assert st.rho.shape == d.rho_dot.shape == (n, m, dim)
        assert np.shares_memory(st.rho, st.z) and np.shares_memory(d.rho_dot, d.zdot)
        assert st.z[:stages].tobytes() == np.ascontiguousarray(st.rho.swapaxes(0, 1)).tobytes()
        want = comp.c[:, None] * d.nu[:, None, :] - comp.b[:, None] * st.rho
        assert d.rho_dot.tobytes() == want.tobytes()
        assert d.zdot[:stages].tobytes() == np.ascontiguousarray(want.swapaxes(0, 1)).tobytes()
    st, d = stacked_records(states, derivs)
    assert st.rho.shape == d.rho_dot.shape == (3, n, m, dim)
    for k, (one, one_d) in enumerate(zip(states, derivs)):
        assert st.rho[k].tobytes() == one.rho.tobytes()
        assert d.rho_dot[k].tobytes() == one_d.rho_dot.tobytes()


def test_compensator_storage_hand_value():
    comp = lead_comp()
    rho = np.array([[[2.0], [3.0]], [[1.0], [0.0]]])
    # (2-1)^2/2 + 3^2/20 for agent 0, zero for agent 1
    assert compensator_storage(comp, rho, np.array([1.0])) == pytest.approx([0.95, 0.0])


def test_multiplier_storage_hand_value():
    prob = hand_prob()  # one inequality, one equality
    val = multiplier_storage(
        prob, np.array([2.0]), np.array([0.5]), np.array([1.0]), np.array([0.0])
    )
    # (4-1)/4 - (1/2) ln 2 + 0.125
    assert val == pytest.approx([0.875 - 0.5 * np.log(2.0)])
    # lam* = 0 drops the log term
    val0 = multiplier_storage(prob, np.array([2.0]), np.zeros(1), np.zeros(1), np.zeros(1))
    assert val0 == pytest.approx([1.0])
    with pytest.raises(ValueError):
        multiplier_storage(prob, np.array([0.0]), np.zeros(1), np.zeros(1), np.zeros(1))


def test_multiplier_storage_nonnegative_min_at_reference():
    # convex in lam^2 with minimum 0 at lam = lam*, mu = mu*
    rng = np.random.default_rng(3)
    one = AffineFunction([1.0])
    prob = alone(LocalProblem(one, inequalities=[one] * 3, equalities=[one] * 2))
    lam_star = np.array([1.3, 0.0, 0.4])
    mu_star = rng.normal(size=2)
    assert multiplier_storage(
        prob, np.array([1.3, 0.7, 0.4]), mu_star, lam_star, mu_star
    ) == pytest.approx([0.5 * 0.7**2 / 2.0])
    for _ in range(50):
        lam = rng.uniform(0.05, 3.0, size=3)
        mu = rng.normal(size=2)
        assert multiplier_storage(prob, lam, mu, lam_star, mu_star)[0] >= -1e-12


def analytic_rates(comp, st, d, z_star, lam_star, mu_star):
    """Exact d/dt of one agent's two storage pieces along the flow."""
    rate_c = float((st.rho[0, 0] - z_star) @ d.rho_dot[0, 0]) / comp.c[0]
    for k in range(1, comp.m):
        rate_c += float(st.rho[0, k] @ d.rho_dot[0, k]) / comp.c[k]
    grad_lam = st.lam / 2.0 - np.where(
        lam_star > 0.0, lam_star**2 / (2.0 * st.lam), 0.0
    )
    rate_g = float(grad_lam @ d.lam_dot) + float((st.mu - mu_star) @ d.mu_dot)
    return rate_c, rate_g


def random_setup(rng, n=3):
    """A random quadratic agent 0 with one inequality and one equality, and
    agent 1 without constraints, joined by one edge each way, so a port
    effort p (2, 2n) reaches agent 0 through row 0; every multiplier is
    agent 0's."""
    a = rng.normal(size=(n, n))
    prob = DistributedProblem(ring(2, 1.0), [
        LocalProblem(QuadraticFunction(a @ a.T + 0.1 * np.eye(n), rng.normal(size=n)),
                     inequalities=[AffineFunction(rng.normal(size=n), 1.0)],
                     equalities=[AffineFunction(rng.normal(size=n), 0.0)]),
        LocalProblem(QuadraticFunction(np.eye(n))),
    ])
    comp = lead_comp()
    st = AgentState(
        rho=rng.normal(size=(2, 2, n)),
        xi=rng.normal(size=(2, n)),
        lam=rng.uniform(0.1, 2.0, size=1),
        mu=rng.normal(size=1),
    )
    return prob, comp, st


def test_primal_rate_bound_dominates_exact_rate():
    # bound - rate = (x - z*)(grad f(z*) - grad f(x)) + sum b_k |rho_k|^2/c_k
    # >= 0 by convexity; check numerically across random states
    rng = np.random.default_rng(41)
    for _ in range(40):
        prob, comp, st = random_setup(rng)
        z_star = rng.normal(size=3)
        d = derivatives(prob, comp, st, rng.normal(size=(2, 6)))
        rate_c, _ = analytic_rates(comp, st, d, z_star, np.zeros(1), np.zeros(1))
        phi_star = prob.local_terms(np.broadcast_to(z_star, (2, 3))).grad
        bound = primal_rate_bound(st, d, z_star, phi_star)
        assert bound.shape == (2,)
        assert rate_c <= bound[0] + 1e-10


def test_multiplier_rate_bound_dominates_exact_rate():
    # needs a complementary-slack feasible reference: g(z*) <= 0,
    # h(z*) = 0, lam* g(z*) = 0
    rng = np.random.default_rng(59)
    for _ in range(40):
        n = 3
        z_star = rng.normal(size=n)
        g_c = rng.normal(size=n)
        h_c = rng.normal(size=n)
        prob = alone(LocalProblem(
            QuadraticFunction(np.eye(n)),
            inequalities=[AffineFunction(g_c, -float(g_c @ z_star) - 0.5)],
            equalities=[AffineFunction(h_c, -float(h_c @ z_star))],
        ))
        comp = lead_comp()
        st = AgentState(
            rho=rng.normal(size=(1, 2, n)),
            xi=np.zeros((1, n)),
            lam=rng.uniform(0.1, 2.0, size=1),
            mu=rng.normal(size=1),
        )
        lam_star = np.zeros(1)  # inactive constraint at z*
        mu_star = rng.normal(size=1)
        d = derivatives(prob, comp, st, no_effort(prob))
        _, rate_g = analytic_rates(comp, st, d, z_star, lam_star, mu_star)
        star = prob.local_terms(z_star[None, :])
        zeta_star = constraint_force(prob, star, lam_star, mu_star)
        bound = multiplier_rate_bound(st, d, z_star, zeta_star)
        assert rate_g <= bound[0] + 1e-10


def test_storage_step_defects_exact_for_quadratic_pieces():
    # one Euler step changes each quadratic storage by exactly
    # h * (rate + defect)
    rng = np.random.default_rng(67)
    h = 1e-3
    for _ in range(20):
        prob, comp, st = random_setup(rng)
        z_star = rng.normal(size=3)
        lam_star = np.zeros(1)
        mu_star = rng.normal(size=1)
        d = derivatives(prob, comp, st, rng.normal(size=(2, 6)))
        nxt = euler_step(st, d, h)
        rate_c, rate_g = analytic_rates(comp, st, d, z_star, lam_star, mu_star)
        d_c, d_m, d_xi = storage_step_defects(prob, comp, st, d, lam_star, h)
        ds_c = compensator_storage(comp, nxt.rho, z_star) - compensator_storage(
            comp, st.rho, z_star
        )
        assert ds_c[0] == pytest.approx(h * (rate_c + d_c[0]), abs=1e-14)
        ds_g = multiplier_storage(prob, nxt.lam, nxt.mu, lam_star, mu_star) - (
            multiplier_storage(prob, st.lam, st.mu, lam_star, mu_star)
        )
        assert ds_g[0] == pytest.approx(h * (rate_g + d_m[0]), abs=1e-14)
        assert d_xi == pytest.approx(0.5 * h * np.sum(d.xi_dot**2, axis=1))


def test_storage_step_defects_exact_for_log_term():
    # lam* > 0 brings in the log term; the closed-form remainder keeps
    # the defect exact even when one step moves lam by a large fraction
    rng = np.random.default_rng(71)
    prob, comp, st = random_setup(rng)
    lam_star = np.array([0.9])
    mu_star = np.zeros(1)
    for h in (1e-3, 0.2):
        d = derivatives(prob, comp, st, no_effort(prob))
        if st.lam[0] + h * d.lam_dot[0] <= 0.0:
            continue
        nxt = euler_step(st, d, h)
        _, rate_g = analytic_rates(comp, st, d, np.zeros(3), lam_star, mu_star)
        _, d_m, _ = storage_step_defects(prob, comp, st, d, lam_star, h)
        ds = multiplier_storage(prob, nxt.lam, nxt.mu, lam_star, mu_star) - (
            multiplier_storage(prob, st.lam, st.mu, lam_star, mu_star)
        )
        assert ds[0] == pytest.approx(h * (rate_g + d_m[0]), abs=1e-12)


def test_storage_step_defects_guard_fallback_stays_finite():
    # a step that would push lam <= 0 never commits (euler_step raises),
    # but the defect evaluated before the step must still be finite; the
    # log remainder falls back to its quadratic estimate there
    prob = alone(LocalProblem(
        QuadraticFunction(np.eye(3)),
        inequalities=[AffineFunction(np.zeros(3), -1.0)],
    ))
    comp = lead_comp()
    st = AgentState(
        rho=np.zeros((1, 2, 3)), xi=np.zeros((1, 3)),
        lam=np.array([0.01]), mu=np.zeros(0),
    )
    d = derivatives(prob, comp, st, no_effort(prob))
    lam_dot = float(d.lam_dot[0])  # 2 lam g = -0.02
    assert lam_dot < 0.0
    h = 2.0 * 0.01 / abs(lam_dot)
    lam_star = np.array([0.9])
    _, d_m, _ = storage_step_defects(prob, comp, st, d, lam_star, h)
    assert np.isfinite(d_m).all()
    w = h * lam_dot / 0.01
    expected = 0.25 * h * lam_dot**2 + (0.9**2 / (2.0 * h)) * 0.5 * w**2
    assert d_m == pytest.approx([expected])
    with pytest.raises(LambdaGuardError):
        euler_step(st, d, h)


def test_pure_integrator_reduces_to_gradient_flow():
    # m = 1: rho_dot = nu and x follows the plain primal-dual field
    rng = np.random.default_rng(5)
    prob, _, st2 = random_setup(rng)
    comp = CompensatorParams.pure_integrator()
    st = AgentState(rho=st2.rho[:, :1].copy(), xi=st2.xi, lam=st2.lam, mu=st2.mu)
    d = derivatives(prob, comp, st, rng.normal(size=(2, 6)))
    assert np.allclose(d.rho_dot[:, 0], d.nu, atol=1e-15)


def three_agent_layout():
    """Three agents on a ring with unequal constraint counts: agent 0 has
    two inequalities, agent 1 none, agent 2 one inequality and two
    equalities."""
    rng = np.random.default_rng(83)

    def aff(d=0.0):
        return AffineFunction(rng.normal(size=2), d)

    locs = [
        LocalProblem(QuadraticFunction(np.eye(2)), inequalities=[aff(-1.0), aff(-2.0)]),
        LocalProblem(QuadraticFunction(2.0 * np.eye(2))),
        LocalProblem(QuadraticFunction(np.eye(2), [1.0, 0.0]), inequalities=[aff(-1.0)],
                     equalities=[aff(0.5), aff()]),
    ]
    return DistributedProblem(ring(3, 1.5), locs), locs


def test_network_kernels_equal_one_agent_values():
    # the network kernels sum each agent's entries of the concatenated
    # multipliers: they must equal the kernels of three one-agent problems
    prob, locs = three_agent_layout()
    rng = np.random.default_rng(89)
    comp = lead_comp()
    st = AgentState(rho=rng.normal(size=(3, 2, 2)), xi=rng.normal(size=(3, 2)),
                    lam=rng.uniform(0.2, 2.0, size=3), mu=rng.normal(size=2))
    lam_star = np.array([0.7, 0.0, 1.1])
    mu_star = rng.normal(size=2)
    h = 1e-2
    d = derivatives(prob, comp, st, rng.normal(size=(6, 4)))
    s_net = multiplier_storage(prob, st.lam, st.mu, lam_star, mu_star)
    defects_net = storage_step_defects(prob, comp, st, d, lam_star, h)
    for i, loc in enumerate(locs):
        one = alone(loc)
        li, mi = prob.ineq_owner == i, prob.eq_owner == i
        st_i = AgentState(st.rho[i:i + 1], st.xi[i:i + 1], st.lam[li], st.mu[mi])
        d_i = type(d)(d.rho_dot[i:i + 1], d.xi_dot[i:i + 1], d.lam_dot[li],
                      d.mu_dot[mi], d.nu[i:i + 1], d.grad[i:i + 1], d.zeta[i:i + 1])
        s_i = multiplier_storage(one, st.lam[li], st.mu[mi], lam_star[li], mu_star[mi])
        assert s_net[i] == pytest.approx(s_i[0], rel=1e-15, abs=1e-15)
        for net, single in zip(defects_net,
                               storage_step_defects(one, comp, st_i, d_i, lam_star[li], h)):
            assert net[i] == pytest.approx(single[0], rel=1e-15, abs=1e-15)


def test_kernels_take_a_block_of_steps():
    # K states and derivatives stacked along a leading axis give, row by
    # row, the values of the K steps one at a time; a NaN stays with its
    # own agent and step
    prob, _ = three_agent_layout()
    rng = np.random.default_rng(97)
    comp = lead_comp()
    lam_star = np.array([0.7, 0.0, 1.1])
    mu_star = rng.normal(size=2)
    z_star = rng.normal(size=2)
    phi_star, zeta_star = rng.normal(size=(2, 3, 2))
    h = 1e-2
    states = [AgentState(rho=rng.normal(size=(3, 2, 2)), xi=rng.normal(size=(3, 2)),
                         lam=rng.uniform(0.2, 2.0, size=3), mu=rng.normal(size=2))
              for _ in range(4)]
    derivs = [derivatives(prob, comp, st, rng.normal(size=(6, 4))) for st in states]
    derivs[1].lam_dot[2] = np.nan  # agent 2's inequality at step 1

    def kernels(st, d):
        return (compensator_storage(comp, st.rho, z_star),
                multiplier_storage(prob, st.lam, st.mu, lam_star, mu_star),
                primal_rate_bound(st, d, z_star, phi_star),
                multiplier_rate_bound(st, d, z_star, zeta_star),
                *storage_step_defects(prob, comp, st, d, lam_star, h))

    block = kernels(*stacked_records(states, derivs))
    for k, (st, d) in enumerate(zip(states, derivs)):
        for stacked, one in zip(block, kernels(st, d), strict=True):
            assert stacked.shape == (4, 3)
            np.testing.assert_array_equal(stacked[k], one)
    d_m = block[5]
    assert np.argwhere(np.isnan(d_m)).tolist() == [[1, 2]]


def stale_records(st):
    """An AgentDerivative and an AgentState of st's layout whose every entry
    is stale, 7.0: what derivatives and euler_step do not write shows."""
    d = AgentDerivative(*(np.full_like(a, 7.0) for a in (st.rho, st.xi, st.lam, st.mu)),
                        *(np.full_like(st.x, 7.0) for _ in range(3)))
    return d, AgentState(*(np.full_like(a, 7.0) for a in (st.rho, st.xi, st.lam, st.mu)))


def assert_out_path_is_the_fresh_path(prob, comp, states, efforts, h):
    """derivatives and euler_step into one pair of records, reused for each
    state, give the fresh records' values bit for bit, a guard trip
    included; NaN and inf entries keep their bits too.  derivatives runs
    with a fresh plan and with one plan reused for every state, as a run
    reuses its own."""
    from dcopt.dynamics import _Plan
    d_out, nxt_out = stale_records(states[0])
    plan = _Plan(prob, comp, states[0])
    for st, effort in zip(states, efforts, strict=True):
        with np.errstate(all="ignore"):
            fresh = derivatives(prob, comp, st, effort)
            for reused in (None, plan):
                assert derivatives(prob, comp, st, effort, d_out, reused) is d_out
                for name in ("zdot", "nu", "grad", "zeta"):
                    assert getattr(d_out, name).tobytes() == getattr(fresh, name).tobytes(), name
            try:
                want = euler_step(st, fresh, h)
            except LambdaGuardError as err:
                with pytest.raises(LambdaGuardError) as got:
                    euler_step(st, d_out, h, nxt_out)
                assert (got.value.index, got.value.value) == (err.index, err.value)
                # the update is written before the guard looks at it
                assert nxt_out.z.tobytes() == (st.z + h * fresh.zdot).tobytes()
                continue
            assert euler_step(st, d_out, h, nxt_out) is nxt_out
        for name in ("z", "x", "rho", "xi", "lam", "mu"):
            assert getattr(nxt_out, name).tobytes() == getattr(want, name).tobytes(), name


def assert_shares_no_writable_memory(a, b, names):
    """No writable field of the records a and b shares memory with the same
    field of the other; read-only constants, such as an affine problem's
    stacked gradient rows, may be shared."""
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        assert not np.shares_memory(x, y) or not (x.flags.writeable or y.flags.writeable), name


@pytest.mark.parametrize("affine", [True, False])
def test_fresh_results_never_alias(affine):
    # local_terms, derivatives and euler_step without out: each call's
    # arrays are its own, on the affine path, whose buffers a run plans,
    # and on the loop path; a planned call writes nothing into the plan's
    # buffers that a result keeps
    from dcopt.cli import build_scenario, validate_config  # the CLI's affine instance
    from dcopt.dynamics import _Plan
    if affine:
        _, prob, sim = build_scenario(validate_config(None, {"agents": 3}), "no_delay")
        comp = sim.compensator
    else:
        prob, comp, _ = random_setup(np.random.default_rng(53))
    assert (prob._affine is not None) == affine
    rng = np.random.default_rng(59)
    a, b = random_states(rng, AgentState.zeros(comp, prob), 2)
    effort = rng.normal(size=(prob.network.own.size, 2 * prob.dim))
    terms = ("grad", "neg_grad", "g", "h", "rows")
    assert_shares_no_writable_memory(prob.local_terms(a.x), prob.local_terms(b.x), terms)
    da, db = (derivatives(prob, comp, st, effort) for st in (a, b))
    fields = ("zdot", "rho_dot", "xi_dot", "lam_dot", "mu_dot", "nu", "grad", "zeta")
    assert_shares_no_writable_memory(da, db, fields)
    assert_shares_no_writable_memory(euler_step(a, da, 1e-3), euler_step(a, db, 1e-3),
                                     ("z", "x"))
    plan = _Plan(prob, comp, a)
    d = derivatives(prob, comp, b, effort, None, plan)
    for buffer in (plan.b, plan.c, plan.b_rho, plan.scale, plan.weights):
        for name in fields:
            assert not np.shares_memory(getattr(d, name), buffer), name
    # the planned call is the fresh call
    for name in fields:
        assert getattr(d, name).tobytes() == getattr(db, name).tobytes(), name


def random_states(rng, like, count):
    return [AgentState(rng.normal(size=like.rho.shape), rng.normal(size=like.xi.shape),
                       rng.uniform(0.1, 2.0, size=like.lam.shape), rng.normal(size=like.mu.shape))
            for _ in range(count)]


def test_out_path_on_the_matching_lp():
    from dcopt.cli import build_scenario, validate_config  # the CLI's affine instance
    _, prob, sim = build_scenario(validate_config(None, {"agents": 5}), "scattering")
    assert prob._affine is not None
    rng = np.random.default_rng(31)
    states = random_states(rng, AgentState.zeros(sim.compensator, prob), 4)
    efforts = [rng.normal(size=(prob.network.own.size, 2 * prob.dim)) for _ in states]
    assert_out_path_is_the_fresh_path(prob, sim.compensator, states, efforts, 1e-3)


def test_out_path_on_the_loop_path():
    rng = np.random.default_rng(37)
    prob, comp, st = random_setup(rng)
    assert prob._affine is None
    states = [st] + random_states(rng, st, 3)
    efforts = [rng.normal(size=(2, 6)) for _ in states]
    assert_out_path_is_the_fresh_path(prob, comp, states, efforts, 1e-2)


def test_out_path_with_non_finite_entries():
    rng = np.random.default_rng(43)
    prob, comp, st = random_setup(rng)
    states = random_states(rng, st, 3)
    states[0].xi[0, 1] = np.nan
    states[1].rho[0, 1, 2] = np.inf
    efforts = [rng.normal(size=(2, 6)) for _ in states]
    efforts[2][0, 4] = -np.inf  # agent 0's xi half
    assert_out_path_is_the_fresh_path(prob, comp, states, efforts, 1e-3)


def test_out_path_on_a_guard_trip():
    # g = x - 1 at x = -400 gives lam_dot = -802 lam: h = 0.01 steps lam to
    # 1 - 8.02 < 0
    prob, comp = hand_prob(), lead_comp()
    st = AgentState(rho=np.array([[[-400.0], [0.0]]]), xi=np.zeros((1, 1)),
                    lam=np.array([1.0]), mu=np.zeros(1))
    with pytest.raises(LambdaGuardError):
        euler_step(st, derivatives(prob, comp, st, no_effort(prob)), 0.01)
    assert_out_path_is_the_fresh_path(prob, comp, [st, hand_state(), st], [no_effort(prob)] * 3,
                                      0.01)
