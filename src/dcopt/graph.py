"""Undirected weighted agent networks and their Laplacians."""

import numpy as np

__all__ = [
    "Network",
    "ring",
    "laplacian_apply",
    "is_connected",
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
        positive = a > 0.0
        a.setflags(write=False)
        self.adjacency = a
        self.n_agents = a.shape[0]
        if not is_connected(self):
            raise ValueError("network is not connected")
        flat = np.flatnonzero(positive)
        self.own, self.nbr = np.divmod(flat, len(a))
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

    v has shape (N, n) or (N,); row i of the result is sum_j a_ij (v_i - v_j).
    """
    v = np.asarray(v, dtype=float)
    a = net.adjacency
    return (a.sum(axis=1) * v.T).T - a @ v


def is_connected(net):
    """True when every agent is reachable over positive-weight edges."""
    seen = np.zeros(net.n_agents, dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        reached = (net.adjacency[stack.pop()] > 0.0) & ~seen
        seen |= reached
        stack.extend(np.flatnonzero(reached).tolist())
    return bool(seen.all())
