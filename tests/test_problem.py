"""Objective/constraint functions, local terms, KKT residuals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcopt import kkt_residual, ring
from dcopt.graph import Network
from dcopt.problem import (
    AffineFunction,
    DistributedProblem,
    LocalProblem,
    QuadraticFunction,
    ScalarFunction,
    constraint_force,
    make_linear_nonneg_bound,
)


def central_diff(f, x, h=1e-6):
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f.value(x + e) - f.value(x - e)) / (2.0 * h)
    return g


def test_affine_value_gradient():
    f = AffineFunction([2.0, -1.0], 0.5)
    x = np.array([3.0, 4.0])
    assert f.value(x) == pytest.approx(2.5)
    assert np.array_equal(f.gradient(x), [2.0, -1.0])
    assert np.array_equal(f.constant_gradient(), [2.0, -1.0])
    assert f.is_affine and f.declared_convex


def test_quadratic_value_gradient():
    q = np.array([[2.0, 0.0], [0.0, 4.0]])
    f = QuadraticFunction(q, [1.0, -1.0], 3.0)
    x = np.array([1.0, 2.0])
    # 0.5*(2 + 16) + (1 - 2) + 3
    assert f.value(x) == pytest.approx(11.0)
    assert np.allclose(f.gradient(x), [3.0, 7.0])
    assert f.constant_gradient() is None


def test_gradients_match_central_differences():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(4, 4))
    q = a @ a.T
    funcs = [
        AffineFunction(rng.normal(size=4), rng.normal()),
        QuadraticFunction(q, rng.normal(size=4), rng.normal()),
        make_linear_nonneg_bound(2, 4),
    ]
    for f in funcs:
        for _ in range(25):
            x = rng.normal(scale=2.0, size=4)
            g = f.gradient(x)
            fd = central_diff(f, x)
            assert np.allclose(g, fd, rtol=1e-6, atol=1e-6)


def test_quadratic_rejects_bad_matrices():
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticFunction([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="semidefinite"):
        QuadraticFunction([[-1.0]])
    with pytest.raises(ValueError, match="square"):
        QuadraticFunction(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="length"):
        QuadraticFunction(np.eye(2), [1.0])


def test_dimension_checks():
    f = AffineFunction([1.0, 2.0])
    with pytest.raises(ValueError):
        f.value(np.zeros(3))
    with pytest.raises(ValueError):
        make_linear_nonneg_bound(5, 3)


def test_nonneg_bound():
    g = make_linear_nonneg_bound(1, 3)
    assert g.value(np.array([0.0, 2.0, 0.0])) == pytest.approx(-2.0)
    assert g.value(np.array([0.0, -1.0, 0.0])) == pytest.approx(1.0)


def test_local_problem_rejects_nonconvex_and_nonaffine():
    class Cubic(ScalarFunction):
        dim = 1

        def value(self, x):
            return float(x[0] ** 3)

        def gradient(self, x):
            return np.array([3.0 * x[0] ** 2])

    with pytest.raises(ValueError, match="convex"):
        LocalProblem(Cubic())
    quad = QuadraticFunction([[1.0]])
    with pytest.raises(ValueError, match="affine"):
        LocalProblem(AffineFunction([1.0]), equalities=[quad])
    with pytest.raises(ValueError, match="convex"):
        LocalProblem(AffineFunction([1.0]), inequalities=[Cubic()])


def test_local_problem_stacks():
    p = LocalProblem(
        QuadraticFunction(np.eye(2)),
        inequalities=[make_linear_nonneg_bound(0, 2), AffineFunction([1.0, 1.0], -4.0)],
        equalities=[AffineFunction([1.0, -1.0], 0.5)],
    )
    x = np.array([1.0, 2.0])
    assert p.n_ineq == 2 and p.n_eq == 1
    assert [g.value(x) for g in p.inequalities] == [-1.0, -1.0]
    assert [h.value(x) for h in p.equalities] == [-0.5]
    assert [g.gradient(x).tolist() for g in p.inequalities] == [[-1.0, 0.0], [1.0, 1.0]]
    assert [h.gradient(x).tolist() for h in p.equalities] == [[1.0, -1.0]]


def test_empty_constraint_stacks():
    p = LocalProblem(QuadraticFunction(np.eye(2)))
    assert p.inequalities == () and p.equalities == () and p.n_ineq == p.n_eq == 0
    terms = DistributedProblem(Network([[0.0]]), [p]).local_terms(np.zeros((1, 2)))
    assert terms.g.shape == terms.h.shape == (0,)
    assert terms.rows.shape == (0, 2)


def single_agent_problem():
    net = Network([[0.0]])
    loc = LocalProblem(
        QuadraticFunction([[2.0]]),                     # x^2
        inequalities=[AffineFunction([1.0], -1.0)],     # x - 1 <= 0
        equalities=[AffineFunction([1.0], -1.0)],       # x - 1 = 0
    )
    return DistributedProblem(net, [loc])


def test_kkt_residual_zero_at_saddle():
    # f_i = 0.5 (x - t_i)^2, t = (1, 3), weight a: optimum x* = 2 with
    # xi difference balancing the gradients, xi1 - xi2 = 1/a
    a = 2.0
    net = ring(2, a)
    locs = [
        LocalProblem(QuadraticFunction([[1.0]], [-1.0])),
        LocalProblem(QuadraticFunction([[1.0]], [-3.0])),
    ]
    prob = DistributedProblem(net, locs)
    x = np.array([[2.0], [2.0]])
    xi = np.array([[1.0 / a], [0.0]])
    zero = np.zeros(0)
    res = kkt_residual(prob, x, xi, zero, zero)
    assert res.max() == pytest.approx(0.0, abs=1e-12)


def test_kkt_residual_consensus_oracle():
    # consensus is max |(L x)_i|: x = (1, 0) on one edge of weight 3 gives 3
    prob = DistributedProblem(
        ring(2, 3.0), [LocalProblem(AffineFunction([0.0])) for _ in range(2)]
    )
    zero = np.zeros(0)
    xi = np.zeros((2, 1))
    res = kkt_residual(prob, np.array([[1.0], [0.0]]), xi, zero, zero)
    assert res.consensus == pytest.approx(3.0)
    assert kkt_residual(prob, np.ones((2, 1)), xi, zero, zero).consensus == 0.0


def test_kkt_residual_fields_respond():
    prob = single_agent_problem()
    lam = np.array([0.5])
    mu = np.array([0.0])
    res = kkt_residual(prob, [[2.0]], [[0.0]], lam, mu)
    assert res.primal_eq == pytest.approx(1.0)       # h(2) = 1
    assert res.primal_ineq == pytest.approx(1.0)     # g(2) = 1 > 0
    assert res.comp_slack == pytest.approx(0.25)     # lam^2 * g
    assert res.stationarity == pytest.approx(4.25)   # 2x + lam^2 + 0*mu
    assert res.consensus == 0.0
    d = res.as_dict()
    assert set(d) == {"consensus", "stationarity", "primal_eq",
                      "primal_ineq", "comp_slack"}
    assert res.max() == pytest.approx(max(d.values()))
    # lam enters squared: its sign cannot matter
    assert kkt_residual(prob, [[2.0]], [[0.0]], -lam, mu) == res


def test_distributed_problem_validation():
    net = ring(2)
    loc1 = LocalProblem(AffineFunction([0.0]))
    loc2 = LocalProblem(AffineFunction([0.0, 0.0]))
    with pytest.raises(ValueError, match="per agent"):
        DistributedProblem(net, [loc1])
    with pytest.raises(ValueError, match="dimension"):
        DistributedProblem(net, [loc1, loc2])
    prob = DistributedProblem(net, [loc1, loc1])
    x = np.zeros((2, 1))
    with pytest.raises(ValueError, match=r"lam: expected shape \(0,\), got \(1,\)"):
        kkt_residual(prob, x, x, np.array([1.0]), np.zeros(0))
    with pytest.raises(ValueError, match=r"mu: expected shape \(0,\), got \(2, 0\)"):
        kkt_residual(prob, x, x, np.zeros(0), [np.zeros(0), np.zeros(0)])
    # a transposed or flat stack used to be reshaped silently
    with pytest.raises(ValueError, match=r"x: expected shape \(2, 1\), got \(1, 2\)"):
        kkt_residual(prob, x.T, x, np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError, match=r"xi: expected shape \(2, 1\), got \(2,\)"):
        kkt_residual(prob, x, x.ravel(), np.zeros(0), np.zeros(0))


# The row-table kernels of local_terms and constraint_force, on both paths,
# against a plain loop over the agents, on problems with uneven constraint
# counts.

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def uneven_problems(draw):
    """(problem, x, lam, mu): N agents, each with 0-3 inequalities and 0-3
    equalities, all affine."""
    n_agents = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 4))
    coef = arrays(float, dim, elements=st.floats(-10.0, 10.0))
    offset = st.floats(-10.0, 10.0)

    def affine():
        return AffineFunction(draw(coef), draw(offset))

    locs = [LocalProblem(affine(),
                         [affine() for _ in range(draw(st.integers(0, 3)))],
                         [affine() for _ in range(draw(st.integers(0, 3)))])
            for _ in range(n_agents)]
    net = ring(n_agents, 1.0) if n_agents > 1 else Network([[0.0]])
    prob = DistributedProblem(net, locs)
    x = draw(arrays(float, (n_agents, dim), elements=st.floats(-10.0, 10.0)))
    lam = draw(arrays(float, prob.ineq_owner.size, elements=st.floats(0.01, 10.0)))
    mu = draw(arrays(float, prob.eq_owner.size, elements=st.floats(-10.0, 10.0)))
    return prob, x, lam, mu


def loop_terms(prob, x, lam, mu, support=True):
    """(g, h, zeta) agent by agent, from each function's gradient and, with
    support, from its coefficients and offset: a value reads only the
    columns where its coefficient is nonzero, as the affine path's does;
    without, from each function's value, which reads them all."""
    def value(f, xi):
        if not support:
            return f.value(xi)
        nonzero = f.c != 0.0
        return float(f.c[nonzero] @ xi[nonzero] + f.d)

    g, h, zeta = [], [], np.zeros_like(x)
    for i, p in enumerate(prob.local_problems):
        li, mi = lam[prob.ineq_owner == i], mu[prob.eq_owner == i]
        g += [value(f, x[i]) for f in p.inequalities]
        h += [value(f, x[i]) for f in p.equalities]
        for w, f in zip(np.concatenate([li**2, mi]), p.inequalities + p.equalities):
            zeta[i] += w * f.gradient(x[i])
    return np.array(g), np.array(h), zeta


def kernel_terms(prob, x, lam, mu):
    terms = prob.local_terms(x)
    return terms.g, terms.h, constraint_force(prob, terms, lam, mu)


@PROPERTY
@given(uneven_problems(), st.integers(0, 4), st.sampled_from(["x", "row", None]))
def test_row_table_kernels_equal_the_agent_loop(case, agent, poison):
    from test_engine import opaque

    prob, x, lam, mu = case
    agent %= prob.n_agents
    p = prob.local_problems[agent]
    funcs = p.inequalities + p.equalities
    if poison == "x":
        x[agent, 0] = np.nan
    elif poison == "row" and funcs:
        funcs[0].c.setflags(write=True)
        funcs[0].c[0] = np.nan
        prob = DistributedProblem(prob.network, prob.local_problems)  # stack again
    assert prob._affine is not None
    got = kernel_terms(prob, x, lam, mu)
    # the affine path's values read the nonzero columns of their rows only,
    # the loop path's each function's value; assert_allclose also matches
    # the NaN entries
    for kernels, support in ((got, True), (kernel_terms(opaque(prob), x, lam, mu), False)):
        want = loop_terms(prob, x, lam, mu, support)
        for name, values, ref in zip(("g", "h", "zeta"), kernels, want):
            np.testing.assert_allclose(values, ref, rtol=1e-12, atol=1e-12, err_msg=name)
    # a NaN stays in its own agent's outputs, and reaches them where a row
    # of that agent reads it: a NaN coefficient always, a NaN x_0 where the
    # row's coefficient of column 0 is nonzero
    g, h, zeta = got
    owners = np.concatenate([prob.ineq_owner[np.isnan(g)], prob.eq_owner[np.isnan(h)],
                             np.flatnonzero(np.isnan(zeta).any(axis=1))])
    reads = any(f.c[0] != 0.0 for f in funcs) if poison == "x" else bool(poison and funcs)
    assert set(owners.tolist()) == ({agent} if reads else set())


def test_kkt_residual_is_nan_for_a_nan_x_on_the_matching_lp():
    # a value reads only the columns where its row is nonzero, so a NaN x
    # reaches only some of them; the residual is NaN wherever it sits
    from dcopt.matching import build_distributed_problem, generate_instance
    prob = build_distributed_problem(generate_instance(5, n=3), ring(3, 4.0))
    assert prob._affine is not None
    lam, mu = np.ones(prob.ineq_owner.size), np.zeros(prob.eq_owner.size)
    # agent l bounds columns 3 l to 3 l + 2, its g rows 3 l to 3 l + 2, and
    # its h rows sum columns 3 l to 3 l + 2 and l, 3 + l, 6 + l
    for agent, column, g_nan, h_nan in ((0, 0, [0], [0, 1]), (1, 4, [4], [2, 3]),
                                        (2, 8, [8], [4, 5]), (0, 5, [], [])):
        x = np.full((3, 9), 1.0 / 3.0)
        x[agent, column] = np.nan
        res = kkt_residual(prob, x, np.zeros((3, 9)), lam, mu)
        assert np.isnan(res.max()) and np.isnan(res.consensus)
        terms = prob.local_terms(x)
        assert np.flatnonzero(np.isnan(terms.g)).tolist() == g_nan
        assert np.flatnonzero(np.isnan(terms.h)).tolist() == h_nan


def both_paths(prob):
    """prob, which takes the affine path, and the same functions behind
    Opaque, which take the loop path."""
    from test_engine import opaque

    loop = opaque(prob)
    assert prob._affine is not None and loop._affine is None
    return prob, loop


def test_row_table_without_constraints():
    prob = DistributedProblem(ring(3, 1.0), [LocalProblem(AffineFunction([1.0, -1.0]))] * 3)
    x = np.arange(6.0).reshape(3, 2)
    for p in both_paths(prob):
        terms = p.local_terms(x)
        assert terms.rows.shape == (0, 2) and terms.g.shape == terms.h.shape == (0,)
        force = constraint_force(p, terms, np.zeros(0), np.zeros(0))
        assert force.dtype == np.float64 and force.shape == (3, 2) and not force.any()


def test_row_table_all_zero_row():
    # agent 0's inequality 0 x + 1 <= 0 has an all-zero gradient row: its
    # value is its offset and it adds nothing to the force
    prob = DistributedProblem(ring(2, 1.0), [
        LocalProblem(AffineFunction([1.0, 0.0]), [AffineFunction([0.0, 0.0], 1.0)]),
        LocalProblem(AffineFunction([0.0, 1.0]), equalities=[AffineFunction([1.0, 2.0], -1.0)]),
    ])
    x = np.array([[3.0, -4.0], [1.0, 1.0]])
    for p in both_paths(prob):
        terms = p.local_terms(x)
        assert terms.g.tolist() == [1.0] and terms.h.tolist() == [2.0]
        assert terms.rows.tolist() == [[0.0, 0.0], [1.0, 2.0]]
        force = constraint_force(p, terms, np.array([5.0]), np.array([0.5]))
        assert force.tolist() == [[0.0, 0.0], [0.5, 1.0]]


def test_row_table_nan_multiplier_stays_with_its_agent():
    # lam = [agent 0's zero row, agent 0's row (0, 1), agent 1's row (1, 0)]
    prob = DistributedProblem(ring(3, 1.0), [
        LocalProblem(AffineFunction([1.0, 0.0]), [AffineFunction([0.0, 0.0], -1.0),
                                                  AffineFunction([0.0, 1.0], -9.0)]),
        LocalProblem(AffineFunction([0.0, 1.0]), [AffineFunction([1.0, 0.0], -9.0)]),
        LocalProblem(AffineFunction([1.0, 1.0]), equalities=[AffineFunction([1.0, 1.0])]),
    ])
    x, xi, mu = np.ones((3, 2)), np.zeros((3, 2)), np.array([0.5])
    affine, loop = both_paths(prob)
    for k, owner, columns in ((2, 1, [0]), (1, 0, [1]), (0, 0, [])):
        lam = np.full(3, 0.5)
        lam[k] = np.nan
        for p in (affine, loop):
            zeta = constraint_force(p, p.local_terms(x), lam, mu)
            # the loop path reads zero entries too, and 0 * NaN is NaN
            want = columns if p is affine else [0, 1]
            assert np.flatnonzero(np.isnan(zeta[owner])).tolist() == want
            assert not np.isnan(np.delete(zeta, owner, axis=0)).any()
            res = kkt_residual(p, x, xi, lam, mu)
            assert np.isnan(res.comp_slack) and np.isnan(res.max())
            # an all-zero row reaches no column on the affine path
            assert np.isnan(res.stationarity) == (p is loop or bool(columns))
