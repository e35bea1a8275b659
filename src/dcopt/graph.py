"""Undirected weighted agent networks, their Laplacians and the sums over
what each agent owns."""

import functools
import math

import numpy as np

__all__ = [
    "Network",
    "ring",
    "laplacian_apply",
]


class Network:
    """Undirected weighted graph over agents 0..N-1.

    Parameters
    ----------
    adjacency : (N, N) array_like
        Finite symmetric weight matrix, zero diagonal, nonnegative entries.
        a[i, j] > 0 means i and j exchange information with weight a[i, j],
        and a[j, i] must equal it exactly.  The positive-weight edges must
        connect all agents.

    The directed edges i <- j ("agent i's view of neighbor j"), one per
    a[i, j] > 0, form one read-only table of E rows in (i, j) row-major
    order: own[e] = i, nbr[e] = j, weight[e] = a[i, j] as an (E, 1) column
    and rev[e] the row of j <- i.  Channel c, one per undirected edge,
    joins row fwd[c] = i <- j with i < j and its reverse bwd[c] = j <- i.
    The table is the network's only stored form; the matrix is not kept.
    """

    def __init__(self, adjacency):
        a = np.array(adjacency, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if a.shape[0] < 1:
            raise ValueError("network needs at least one agent")
        if not np.all(np.isfinite(a)):
            raise ValueError("adjacency must be finite")
        if np.any(np.diag(a) != 0.0):
            raise ValueError("adjacency diagonal must be zero (no self-loops)")
        if np.any(a < 0.0):
            raise ValueError("edge weights must be nonnegative")
        # exactly: the two ends of a channel couple with one weight
        unequal = np.argwhere(a != a.T)
        if unequal.size:
            i, j = unequal[0]
            aij, aji = float(a[i, j]), float(a[j, i])
            raise ValueError(f"adjacency must be symmetric: a[{i}, {j}] = {aij!r} "
                             f"{'> 0 ' if aji == 0.0 else ''}but a[{j}, {i}] = {aji!r}")
        n = self.n_agents = len(a)
        flat = np.flatnonzero(a > 0.0)
        self.own, self.nbr = np.divmod(flat, n)
        # agent 0's reach grows by one edge per pass; N - 1 passes span a
        # connected network
        reach = np.arange(n) == 0
        for _ in range(n - 1):
            reach[self.own[reach[self.nbr]]] = True
        if not reach.all():
            raise ValueError("network is not connected")
        self.weight = a.take(flat)[:, None]
        # the rows sorted by (j, i): the edge set is symmetric, so the k-th
        # of them is the reverse of row k
        self.rev = np.lexsort((self.own, self.nbr))
        self.fwd = np.flatnonzero(self.own < self.nbr)
        self.bwd = self.rev[self.fwd]
        for table in (self.own, self.nbr, self.weight, self.rev, self.fwd, self.bwd):
            table.setflags(write=False)

    def __repr__(self):
        return f"Network(n_agents={self.n_agents}, n_edges={self.fwd.size})"


def ring(n_agents, weight=1.0):
    """Ring network: agent i connected to (i+1) mod N with uniform weight.

    A two-agent ring collapses to a single edge.
    """
    if n_agents < 2:
        raise ValueError("a ring needs at least two agents")
    if not 0.0 < weight < np.inf:  # NaN fails both
        raise ValueError("ring weight must be positive and finite")
    a = np.zeros((n_agents, n_agents))
    for i in range(n_agents):
        j = (i + 1) % n_agents
        a[i, j] = weight
        a[j, i] = weight
    return Network(a)


def laplacian_apply(net, v):
    """Blockwise Laplacian action on stacked per-agent vectors.

    v has shape (N, n) or (N,), any other row count is a ValueError; row i
    of the result is sum_j a_ij (v_i - v_j), as deg_i v_i minus the
    weighted sum of the neighbors' rows, both summed over the edge table.
    """
    v = np.asarray(v, dtype=float)
    n = net.n_agents
    if v.shape[:1] != (n,):
        raise ValueError(f"v: expected {n} rows, got shape {v.shape}")
    own, w = net.own, net.weight.reshape((-1,) + (1,) * (v.ndim - 1))
    return _owner_sums(own, n, w) * v - _owner_sums(own, n, w * v.take(net.nbr, 0))


def _owner_sums(owner, n_agents, rows, axis=0):
    """Sums of rows by owning agent: rows B + (K,) + W, whose K entries
    along axis belong to the agents owner (K,) (multiplier entries by
    ineq_owner or eq_owner, edges by receiving agent), give B + (N,) + W.
    Entry k adds into agent owner[k] of its own leading row alone, so a
    non-finite entry stays with its own agent and row; each agent's
    entries are added in their order along axis."""
    bins, size, shape = _bins(owner.dtype.str, owner.tobytes(), n_agents, rows.shape,
                              axis % rows.ndim)
    return np.bincount(bins, weights=rows.ravel(), minlength=size).reshape(shape)


@functools.lru_cache(maxsize=64)
def _bins(dtype, owner, n, shape, axis):
    """(bins, bin count, sum shape) of _owner_sums for rows of this shape,
    made once per owner array (keyed by its dtype and bytes), shape and
    axis: entry (b, k, w) goes to bin (b n + owner[k]) W + w."""
    owner = np.frombuffer(owner, dtype=dtype)
    head, tail = shape[:axis], shape[axis + 1:]
    b, w = math.prod(head), math.prod(tail)
    bins = (owner[:, None] * w + np.arange(w)).ravel()
    # writable: bincount copies a read-only index array at every call
    return (bins + n * w * np.arange(b)[:, None]).ravel(), b * n * w, head + (n,) + tail
