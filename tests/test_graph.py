"""Network construction, Laplacian algebra, connectivity."""

import numpy as np
import pytest

from dcopt import ring
from dcopt.graph import Network, is_connected, laplacian_apply


def test_ring_structure():
    net = ring(5, 4.0)
    assert net.n_agents == 5
    assert [(i, j, w) for i, j, w in net.directed_edges() if i < j] == [
        (0, 1, 4.0), (0, 4, 4.0), (1, 2, 4.0), (2, 3, 4.0), (3, 4, 4.0)]
    assert len(net.directed_edges()) == 10
    assert np.flatnonzero(net.adjacency[0]).tolist() == [1, 4]
    assert repr(net) == "Network(n_agents=5, n_edges=5)"


def test_two_agent_ring_single_edge():
    net = ring(2, 1.5)
    assert net.directed_edges() == [(0, 1, 1.5), (1, 0, 1.5)]
    assert net.adjacency[0, 1] == 1.5


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
    with pytest.raises(ValueError, match="diagonal"):
        Network([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="nonnegative"):
        Network([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="square"):
        Network(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="connected"):
        Network(np.zeros((3, 3)))


def test_adjacency_read_only():
    net = ring(3)
    with pytest.raises(ValueError):
        net.adjacency[0, 1] = 7.0


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
    net = ring(5, 4.0)
    a = net.adjacency
    lap = np.diag(a.sum(1)) - a
    v = rng.normal(size=(5, 3))
    assert np.allclose(laplacian_apply(net, v), lap @ v, atol=1e-14)
    w = rng.normal(size=5)
    assert np.allclose(laplacian_apply(net, w), lap @ w, atol=1e-14)


def test_laplacian_apply_kills_consensus():
    net = ring(4, 2.0)
    v = np.ones((4, 2)) * 3.7
    assert np.allclose(laplacian_apply(net, v), 0.0, atol=1e-14)


def test_is_connected_path_vs_split():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 1.0
    a[1, 2] = a[2, 1] = 1.0
    a[2, 3] = a[3, 2] = 1.0
    assert is_connected(Network(a))
    b = np.zeros((4, 4))
    b[0, 1] = b[1, 0] = 1.0
    b[2, 3] = b[3, 2] = 1.0
    with pytest.raises(ValueError, match="not connected"):
        Network(b)
