"""Matching instances, the assignment solver and its dual, the oracle, and
the distributed LP."""

from types import SimpleNamespace

import numpy as np
import pytest
from enumeration import best, brute_force, enumerated_instance, permutation_costs

from dcopt import (
    brute_force_optimal,
    build_distributed_problem,
    extract_assignment,
    generate_instance,
    ring,
)
from dcopt.graph import laplacian_apply
from dcopt.matching import (
    _MIN_GAP,
    MatchingInstance,
    _cost,
    _solve,
    _unique,
    assignment_cost,
)
from dcopt.problem import constraint_force, kkt_residual


def solved(inst):
    """(perm, cost, u, v, d) from the assignment solver on inst's distances."""
    d = inst.distances()
    u, v, col_of, _ = _solve(d.tolist())
    return tuple(col_of), _cost(d, col_of), np.array(u), np.array(v), d


def drawn(seed, n):
    """The instance generate_instance draws at attempt 0 of seed, unchecked."""
    rng = np.random.default_rng(seed)
    return MatchingInstance(rng.uniform(0.0, 100.0, (n, 2)), rng.uniform(0.0, 100.0, (n, 2)))


def assert_dual_certifies(perm, cost, u, v, d):
    """(u, v) is dual feasible, tight on perm's edges, with no duality gap."""
    tol = 1e-9 * max(1.0, d.max())
    reduced = d - u[:, None] - v[None, :]
    assert reduced.min() >= -tol
    assert np.abs(reduced[np.arange(len(perm)), perm]).max() <= tol
    assert abs(u.sum() + v.sum() - cost) <= 1e-9 * max(1.0, abs(cost))


def square_instance():
    # robots at corners, targets shifted one corner over: optimum is the
    # identity (each robot's nearest target), cost 4 * 1
    robots = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    targets = robots + np.array([1.0, 0.0])
    return MatchingInstance(robots, targets)


def test_instance_validation():
    with pytest.raises(ValueError):
        MatchingInstance(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        MatchingInstance(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        MatchingInstance(np.zeros((0, 2)), np.zeros((0, 2)))
    inst = square_instance()
    with pytest.raises(ValueError):
        inst.robots[0, 0] = 5.0


def test_distances():
    inst = square_instance()
    d = inst.distances()
    assert d.shape == (4, 4)
    assert d[0, 0] == pytest.approx(1.0)
    assert d[0, 1] == pytest.approx(11.0)
    assert d[1, 0] == pytest.approx(9.0)
    assert np.all(d >= 0.0)


def test_generate_instance_deterministic_and_in_area():
    a = generate_instance(5, n=5, area=100.0)
    b = generate_instance(5, n=5, area=100.0)
    assert np.array_equal(a.robots, b.robots)
    assert np.array_equal(a.targets, b.targets)
    assert a.robots.min() >= 0.0 and a.robots.max() <= 100.0
    c = generate_instance(6, n=5, area=100.0)
    assert not np.array_equal(a.robots, c.robots)


def test_generate_instance_unique_optimum():
    import itertools

    for seed in (1, 2, 3):
        inst = generate_instance(seed, n=4, area=50.0)
        costs = sorted(
            assignment_cost(inst, p) for p in itertools.permutations(range(4))
        )
        assert costs[1] - costs[0] >= 1e-6


def test_brute_force_square():
    inst = square_instance()
    perm, cost = brute_force_optimal(inst)
    assert perm == (0, 1, 2, 3)
    assert cost == pytest.approx(4.0)
    assert assignment_cost(inst, perm) == pytest.approx(cost)


def test_brute_force_matches_exhaustive_rescan():
    import itertools

    rng = np.random.default_rng(31)
    for n in (5, 5, 5, 5, 5, 7):
        inst = MatchingInstance(
            rng.uniform(0, 10, (n, 2)), rng.uniform(0, 10, (n, 2))
        )
        perm, cost = brute_force_optimal(inst)
        all_costs = {
            p: assignment_cost(inst, p) for p in itertools.permutations(range(n))
        }
        # same additions in the same order: equal to the last bit
        assert cost == min(all_costs.values())
        assert all_costs[perm] == cost


def test_permutation_table_is_lexicographic_itertools_order():
    import itertools

    rng = np.random.default_rng(3)
    for n in range(1, 9):
        inst = MatchingInstance(rng.uniform(0, 10, (n, 2)), rng.uniform(0, 10, (n, 2)))
        perms, costs = permutation_costs(inst)
        table = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
        assert perms.dtype == np.int8 and np.array_equal(perms, table.reshape(-1, n))
        # left-to-right sums over robots, bit for bit
        for row in (0, len(table) // 2, len(table) - 1):
            assert costs[row] == assignment_cost(inst, table[row])


def test_generated_optimum_equals_enumeration(monkeypatch):
    import itertools

    from dcopt import matching

    for n in range(1, 9):
        inst = generate_instance(n, n=n)
        fresh = MatchingInstance(inst.robots, inst.targets)
        perm, cost = brute_force_optimal(fresh)
        # a plain rescan: the first permutation of least cost, summed like
        # assignment_cost
        best = min(itertools.permutations(range(n)), key=lambda p: assignment_cost(fresh, p))
        assert (perm, cost) == (best, assignment_cost(fresh, best))
        # the generated instance carries the same optimum and does not
        # solve again
        monkeypatch.setattr(matching, "_solve", None)
        assert brute_force_optimal(inst) == (perm, cost)
        monkeypatch.undo()


def test_solver_equals_enumeration_bit_for_bit():
    # unchecked draws, so near ties are not filtered out
    for n in range(1, 9):
        for seed in range(100):
            inst = drawn(seed, n)
            assert brute_force_optimal(inst) == brute_force(inst), (seed, n)


def test_generate_instance_accepts_the_attempt_enumeration_accepts():
    for n in range(3, 9):
        for seed in range(100):
            inst = generate_instance(seed, n=n)
            attempt, ref, optimum = enumerated_instance(seed, n)
            assert np.array_equal(inst.robots, ref.robots), (seed, n, attempt)
            assert np.array_equal(inst.targets, ref.targets)
            assert brute_force_optimal(inst) == optimum


def test_unique_decides_a_runner_up_near_the_gap_as_enumeration():
    # a random cost table whose runner-up is moved to a planted distance
    # from the optimum, around _MIN_GAP and down to a few ulps from it: the
    # solver's decision and optimum are the enumeration's, both from costs
    # summed like assignment_cost
    rng = np.random.default_rng(1)
    decided = []
    for _ in range(600):
        n = int(rng.integers(2, 7))
        d = rng.uniform(0.0, 100.0, (n, n))
        table = SimpleNamespace(n=n, distances=lambda: d)
        perms, costs = permutation_costs(table)
        first, second = np.argsort(costs, kind="stable")[:2]
        l = np.flatnonzero(perms[first] != perms[second])[0]
        offset = rng.choice([-0.5, -1e-3, -1e-8, -1e-10, 0.0, 1e-10, 1e-8, 1e-3, 0.5])
        d[l, perms[second][l]] -= costs[second] - costs[first] - _MIN_GAP * (1.0 + offset)
        perms, costs = permutation_costs(table)
        optimum = best(perms, costs)
        unique = np.partition(costs, 1)[1] - optimum[1] >= _MIN_GAP
        t = d.tolist()
        u, v, col_of, row_of = _solve(t)
        assert _unique(t, u, v, col_of, row_of, _cost(t, col_of)) == unique
        if unique:
            assert (tuple(col_of), _cost(t, col_of)) == optimum
        decided.append(unique)
    assert 0.2 < np.mean(decided) < 0.8


@pytest.mark.parametrize("extra, unique", [(0.999e-6, False), (1e-6, True), (1.001e-6, True)])
def test_unique_keeps_a_runner_up_of_exactly_min_gap(extra, unique):
    # the swap costs extra more than the identity, summed exactly: a gap of
    # exactly _MIN_GAP is unique enough
    d = [[0.0, extra], [0.0, 0.0]]
    u, v, col_of, row_of = _solve(d)
    assert col_of == [0, 1]
    assert _unique(d, u, v, col_of, row_of, 0.0) == unique


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 32])
def test_solver_dual_is_feasible_tight_and_gapless(n):
    for seed in range(20):
        assert_dual_certifies(*solved(drawn(seed, n)))


@pytest.mark.parametrize("n", range(3, 9))
def test_assignment_dual_gives_a_kkt_point_of_the_lp(n):
    # the point of the distributed LP built from (u, v): every agent holds
    # the permutation x*, mu = (-u_l, -v_l) (row, then column equality),
    # lam^2 = d - u - v (0 on x*'s edges), and xi* is the zero-sum least
    # squares solution of L xi = grad f + zeta(x*, lam, mu)
    for seed in range(10):
        inst = generate_instance(seed, n=n)
        perm, _, u, v, d = solved(inst)
        net = ring(n, 4.0)
        prob = build_distributed_problem(inst, net)
        x_star = np.zeros((n, n))
        x_star[np.arange(n), perm] = 1.0
        x = np.tile(x_star.reshape(-1), (n, 1))
        reduced = np.maximum(d - u[:, None] - v[None, :], 0.0)
        reduced[np.arange(n), perm] = 0.0
        lam = np.sqrt(reduced).reshape(-1)
        mu = -np.stack([u, v], axis=1).reshape(-1)
        terms = prob.local_terms(x)
        rhs = terms.grad + constraint_force(prob, terms, lam, mu)
        xi = np.linalg.lstsq(laplacian_apply(net, np.eye(n)), rhs, rcond=None)[0]
        assert np.abs(xi.sum(axis=0)).max() <= 1e-9
        assert kkt_residual(prob, x, xi, lam, mu).max() <= 1e-10, (seed, n)


def test_solver_agrees_with_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    for n in (9, 12, 16, 32):
        for seed in range(3):
            inst = generate_instance(seed, n=n)
            rows, cols = optimize.linear_sum_assignment(inst.distances())
            assert np.array_equal(rows, np.arange(n))
            perm = tuple(cols.tolist())
            assert brute_force_optimal(inst) == (perm, assignment_cost(inst, perm))
            fresh = MatchingInstance(inst.robots, inst.targets)
            assert brute_force_optimal(fresh) == brute_force_optimal(inst)


def tie_instance():
    # two robots equidistant to two targets: both permutations cost the same
    robots = np.array([[0.0, 1.0], [0.0, -1.0]])
    targets = np.array([[1.0, 0.0], [-1.0, 0.0]])
    return MatchingInstance(robots, targets)


def test_brute_force_tie_breaks_lexicographic():
    # the enumeration takes the lexicographically smaller permutation
    perm, _ = brute_force(tie_instance())
    assert perm == (0, 1)


def test_solver_returns_an_optimum_of_a_tie():
    # the solver promises an optimum, not an order among tied ones
    inst = tie_instance()
    perm, cost = brute_force_optimal(inst)
    assert sorted(perm) == [0, 1]
    assert cost == assignment_cost(inst, perm) == brute_force(inst)[1]
    assert_dual_certifies(*solved(inst))


def test_generate_instance_rejects_a_tie(monkeypatch):
    from dcopt import matching

    # the tie's runner-up costs what its optimum costs: a gap of 0
    d = tie_instance().distances().tolist()
    u, v, col_of, row_of = _solve(d)
    assert not _unique(d, u, v, col_of, row_of, _cost(d, col_of))
    # so generate_instance rejects the attempt that draws it and takes the
    # next one
    made = []

    def first_a_tie(robots, targets):
        made.append(tie_instance() if not made else MatchingInstance(robots, targets))
        return made[-1]

    monkeypatch.setattr(matching, "MatchingInstance", first_a_tie)
    inst = generate_instance(7, n=2)
    assert len(made) == 2 and inst is made[1]
    assert np.array_equal(inst.robots, np.random.default_rng(8).uniform(0.0, 100.0, (2, 2)))


def test_brute_force_optimal_rejects_non_finite_distances():
    inst = MatchingInstance(np.array([[0.0, 0.0], [np.nan, 1.0]]), np.ones((2, 2)))
    with pytest.raises(ValueError, match="must be finite"):
        brute_force_optimal(inst)


def test_build_distributed_problem_structure():
    inst = generate_instance(5, n=5)
    prob = build_distributed_problem(inst, ring(5, 4.0))
    assert prob.n_agents == 5
    assert prob.dim == 25
    d = inst.distances()
    for l, p in enumerate(prob.local_problems):
        assert p.n_ineq == 5
        assert p.n_eq == 2
        grad = p.objective.gradient(np.zeros(25))
        assert np.allclose(grad[l * 5 : (l + 1) * 5], d[l])
        on_rows = np.nonzero(grad)[0]
        assert np.all((on_rows >= l * 5) & (on_rows < (l + 1) * 5))
        # row-l and column-l sums both pinned to 1
        z = np.zeros(25)
        z[l * 5 : (l + 1) * 5] = 0.2
        z[l::5] = 0.2
        assert np.allclose([h.value(z) for h in p.equalities], 0.0, atol=1e-12)


def test_build_distributed_problem_feasible_point_kkt_shape():
    # uniform doubly stochastic point satisfies every equality
    inst = generate_instance(3, n=3)
    prob = build_distributed_problem(inst, ring(3, 2.0))
    z = np.full(9, 1.0 / 3.0)
    for p in prob.local_problems:
        assert np.allclose([h.value(z) for h in p.equalities], 0.0, atol=1e-12)
        assert all(g.value(z) <= 0.0 for g in p.inequalities)


def test_build_distributed_problem_network_size_check():
    inst = generate_instance(5, n=5)
    with pytest.raises(ValueError, match="network size"):
        build_distributed_problem(inst, ring(4))


def test_extract_assignment():
    z = np.zeros(9)
    z[0], z[4], z[8] = 1.0, 0.9, 0.8
    assert extract_assignment(z) == (0, 1, 2)
    # weak entry: not trustworthy
    z[4] = 0.4
    assert extract_assignment(z) is None
    # collision: two rows pick the same column
    z = np.zeros(9)
    z[0], z[3], z[8] = 1.0, 1.0, 1.0
    assert extract_assignment(z) is None
    with pytest.raises(ValueError, match="square"):
        extract_assignment(np.zeros(7))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_extract_assignment_rejects_non_finite(bad):
    # nan < 0.5 is False, so a NaN on the chosen entries used to pass
    assert extract_assignment([bad, 0.0, 0.0, bad]) is None
    # one non-finite entry off the chosen ones is enough
    z = np.eye(3).reshape(-1)
    z[1] = bad
    assert extract_assignment(z) is None
    z[1] = 0.0
    assert extract_assignment(z) == (0, 1, 2)


def test_extract_assignment_from_perturbed_vertex():
    rng = np.random.default_rng(37)
    perm = (2, 0, 3, 1)
    z = np.zeros((4, 4))
    for l, k in enumerate(perm):
        z[l, k] = 1.0
    z = z.reshape(-1) + rng.uniform(-0.05, 0.05, 16)
    assert extract_assignment(z) == perm
