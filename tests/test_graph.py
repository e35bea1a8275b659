"""Network construction, its edge table, Laplacian algebra, connectivity."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcopt import ring
from dcopt.cli import sample_delays
from dcopt.graph import Network, _owner_sums, laplacian_apply
from dcopt.problem import DistributedProblem, LocalProblem, QuadraticFunction, kkt_residual
from test_engine import ring_matrix


def edge_list(net):
    """The edge table as (i, j, weight) rows."""
    return list(zip(net.own.tolist(), net.nbr.tolist(), net.weight[:, 0].tolist()))


def test_ring_structure():
    net = ring(5, 4.0)
    assert net.n_agents == 5
    assert [(i, j, w) for i, j, w in edge_list(net) if i < j] == [
        (0, 1, 4.0), (0, 4, 4.0), (1, 2, 4.0), (2, 3, 4.0), (3, 4, 4.0)]
    assert net.weight.shape == (10, 1)
    assert net.nbr[net.own == 0].tolist() == [1, 4]
    assert repr(net) == "Network(n_agents=5, n_edges=5)"


def test_two_agent_ring_single_edge():
    net = ring(2, 1.5)
    assert edge_list(net) == [(0, 1, 1.5), (1, 0, 1.5)]
    assert net.rev.tolist() == [1, 0]
    assert (net.fwd.tolist(), net.bwd.tolist()) == ([0], [1])
    assert net.weight[net.fwd, 0].tolist() == [1.5]


@st.composite
def connected_adjacencies(draw):
    """A connected weighted adjacency over 2-7 agents: a random spanning
    tree under a random labelling, plus up to eight more edges."""
    n = draw(st.integers(2, 7))
    label = draw(st.permutations(range(n)))
    weight = st.floats(0.05, 20.0)
    a = np.zeros((n, n))
    for j in range(1, n):
        i = draw(st.integers(0, j - 1))
        a[label[i], label[j]] = a[label[j], label[i]] = draw(weight)
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=8)):
        if i != j:
            a[i, j] = a[j, i] = draw(weight)
    return a


@settings(derandomize=True, deadline=None, max_examples=60)
@given(connected_adjacencies(), st.integers(0, 2**32), st.floats(0.01, 1.0))
def test_edge_table_equals_a_double_loop(a, seed, low):
    net = Network(a)
    n = len(a)
    assert edge_list(net) == [(i, j, a[i, j]) for i in range(n) for j in range(n)
                              if a[i, j] > 0.0]
    e = np.arange(net.own.size)
    assert np.array_equal(net.own[net.rev], net.nbr)
    assert np.array_equal(net.nbr[net.rev], net.own)
    assert np.array_equal(net.rev[net.rev], e)
    # one channel per undirected edge: fwd i <- j with i < j, bwd its reverse
    assert np.all(net.own[net.fwd] < net.nbr[net.fwd])
    assert np.array_equal(net.bwd, net.rev[net.fwd])
    assert np.array_equal(np.sort(np.concatenate([net.fwd, net.bwd])), e)
    assert repr(net) == f"Network(n_agents={n}, n_edges={net.fwd.size})"
    for table in (net.own, net.nbr, net.weight, net.rev, net.fwd, net.bwd):
        assert not table.flags.writeable
    # one draw of E delays is the per-edge scalar draws, in table order
    cfg = {"seed": seed, "delay_range": [low, 2.0 * low], "step": 1e-3}
    rng = np.random.default_rng([seed, 1])
    scalar = [float(rng.uniform(low, 2.0 * low)) for _ in e]
    assert sample_delays(net, cfg).tolist() == scalar


def test_ring_rejects_bad_args():
    with pytest.raises(ValueError):
        ring(1)
    with pytest.raises(ValueError):
        ring(3, weight=0.0)
    with pytest.raises(ValueError):
        ring(3, weight=-1.0)


def test_ring_rejects_non_finite_weight():
    # an inf weight used to build a network whose run aborted at step 0
    for weight in (np.inf, np.nan):
        with pytest.raises(ValueError, match="ring weight must be positive and finite"):
            ring(3, weight)


def test_network_rejects_non_finite_adjacency():
    # finiteness is checked before symmetry, so a NaN is not called asymmetric
    for w in (np.inf, np.nan):
        with pytest.raises(ValueError, match="adjacency must be finite"):
            Network([[0.0, w], [w, 0.0]])


def test_network_validation():
    with pytest.raises(ValueError, match="symmetric"):
        Network([[0.0, 1.0], [2.0, 0.0]])
    # equal within 1e-12, but 0 -> 2 has a weight and 2 -> 0 none
    with pytest.raises(ValueError, match=r"symmetric: a\[0, 2\] = 1e-13 > 0 but a\[2, 0\] = 0"):
        Network([[0.0, 1.0, 1e-13], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    # equal within 1e-12 but not exactly: the two ends would couple with
    # different weights
    with pytest.raises(ValueError, match=r"symmetric: a\[0, 1\] = 1\.0 but "
                                         r"a\[1, 0\] = 1\.0000000000001$"):
        Network([[0.0, 1.0], [1.0 + 1e-13, 0.0]])
    with pytest.raises(ValueError, match="diagonal"):
        Network([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="nonnegative"):
        Network([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="square"):
        Network(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="connected"):
        Network(np.zeros((3, 3)))


def test_laplacian_known_matrix():
    net = ring(3, 2.0)
    lap = laplacian_apply(net, np.eye(3))
    expect = np.array([[4.0, -2.0, -2.0],
                       [-2.0, 4.0, -2.0],
                       [-2.0, -2.0, 4.0]])
    assert np.array_equal(lap, expect)


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(7)
    a = rng.uniform(0.0, 1.0, size=(6, 6))
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, 0.0)
    net = Network(a)  # every off-diagonal weight is positive: connected
    lap = laplacian_apply(net, np.eye(6))
    assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    assert np.allclose(lap, lap.T)
    # PSD: eigenvalues nonnegative
    assert np.linalg.eigvalsh(lap).min() > -1e-12


def test_laplacian_apply_matches_matrix():
    rng = np.random.default_rng(11)
    a = ring_matrix(5, 4.0)
    net = Network(a)
    lap = np.diag(a.sum(1)) - a
    v = rng.normal(size=(5, 3))
    assert np.allclose(laplacian_apply(net, v), lap @ v, atol=1e-14)
    w = rng.normal(size=5)
    assert np.allclose(laplacian_apply(net, w), lap @ w, atol=1e-14)


@pytest.mark.parametrize("weight", [4.0, 0.3])
def test_laplacian_apply_keeps_the_edge_sums(weight):
    # the result is the two owner sums over the edge table bit for bit, at
    # the CLI's ring weight and at one that is not a power of two, on the
    # first call for an input shape and on a repeated one (second pass)
    rng = np.random.default_rng(23)
    for n in (3, 5, 8):
        net = ring(n, weight)
        for _ in range(2):
            for v in (rng.normal(size=(n, 6)), rng.normal(size=n), rng.normal(size=(n, 2, 3))):
                w = net.weight.reshape((-1,) + (1,) * (v.ndim - 1))
                want = _owner_sums(net.own, n, w) * v - _owner_sums(net.own, n, w * v[net.nbr])
                assert laplacian_apply(net, v).tobytes() == want.tobytes()


def test_network_stores_only_its_table():
    # every attribute is the agent count or a read-only array, after
    # construction and after the Laplacian and a KKT residual use the network
    def check(net):
        for name, value in vars(net).items():
            if name == "n_agents":
                assert value == 5
            else:
                assert isinstance(value, np.ndarray) and not value.flags.writeable, name

    net = ring(5, 4.0)
    check(net)
    for shape in ((5,), (5, 3), (5, 2, 3)):
        laplacian_apply(net, np.ones(shape))
        check(net)
    prob = DistributedProblem(net, [LocalProblem(QuadraticFunction([[1.0]], [-k])) for k in range(5)])
    kkt_residual(prob, np.ones((5, 1)), np.zeros((5, 1)), np.zeros(0), np.zeros(0))
    check(net)
    assert sorted(vars(net)) == ["bwd", "fwd", "n_agents", "nbr", "own", "rev", "weight"]


def test_laplacian_apply_checks_the_row_count():
    # a gather over the edge table would read rows 0..2 and drop row 3
    for v in (np.ones((4, 2)), np.ones(2), np.float64(1.0)):
        with pytest.raises(ValueError, match=re.escape(f"v: expected 3 rows, got shape {v.shape}")):
            laplacian_apply(ring(3), v)


def test_laplacian_apply_kills_consensus():
    net = ring(4, 2.0)
    v = np.ones((4, 2)) * 3.7
    assert np.allclose(laplacian_apply(net, v), 0.0, atol=1e-14)


def test_is_connected_path_vs_split():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 1.0
    a[1, 2] = a[2, 1] = 1.0
    a[2, 3] = a[3, 2] = 1.0
    assert Network(a).n_agents == 4  # connected: no error
    b = np.zeros((4, 4))
    b[0, 1] = b[1, 0] = 1.0
    b[2, 3] = b[3, 2] = 1.0
    with pytest.raises(ValueError, match="not connected"):
        Network(b)
