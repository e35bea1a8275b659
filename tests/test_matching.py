"""Matching instances, the brute-force oracle, and the distributed LP."""

import numpy as np
import pytest

from dcopt import (
    brute_force_optimal,
    build_distributed_problem,
    extract_assignment,
    generate_instance,
    ring,
)
from dcopt.matching import MatchingInstance, _permutation_costs, assignment_cost


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
        perms, costs = _permutation_costs(inst)
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
        # enumerate again
        monkeypatch.setattr(matching, "_permutation_costs", None)
        assert brute_force_optimal(inst) == (perm, cost)
        monkeypatch.undo()


def test_brute_force_tie_breaks_lexicographic():
    # two robots equidistant to two targets: both permutations cost the
    # same, the lexicographically smaller one wins
    robots = np.array([[0.0, 1.0], [0.0, -1.0]])
    targets = np.array([[1.0, 0.0], [-1.0, 0.0]])
    perm, _ = brute_force_optimal(MatchingInstance(robots, targets))
    assert perm == (0, 1)


def test_brute_force_size_cap():
    n = 11
    inst = MatchingInstance(np.zeros((n, 2)), np.ones((n, 2)))
    with pytest.raises(ValueError, match="n <= 10"):
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
