"""Wave-variable channel layer for delay-robust neighbor exchange.

Instead of raw states, neighbors exchange scattering waves

    s_out = (-p + eta r) / sqrt(2 eta),   s_in = (p + eta r) / sqrt(2 eta),

where r stacks the receiver-side estimate of the neighbor's primal and
multiplier vectors and p = E (r - [x; xi]) is the coupling force, with

    E = [[a, -a], [a, 0]] (x) I_n.

A constant transmission delay maps the sender's outgoing wave onto the
receiver's incoming wave unchanged, so the channel stores energy instead of
creating it; that is what keeps the closed loop stable for arbitrary
constant delays.

The receiver never sees the sender's state: it reconstructs (r, p) from the
incoming wave and its own state u = [x; xi] by solving (E + eta I) r =
sqrt(2 eta) s_in + E u, which splits into n independent 2x2 systems with
determinant eta (a + eta) + a^2 > 0.  With their inverse M and N = M E,

    r = sqrt(2 eta) M s_in + N u,   p = E (r - u) = sqrt(2 eta) N s_in - eta N u,
    s_out = (eta M - N) s_in + sqrt(2 eta) N u,

one constant 6x4 map per edge on each coordinate pair.  Every class here
serves one edge or many at once: a weight array of shape (E, 1) makes a
CouplingMatrix (the 2x2 map E, on (E, 2, n) halves) or a ChannelEnd act on
(E, 2n) stacks in one batched matmul, each edge's rows reading only that
edge's inputs, and a DelayLine holds one line per entry of a delay array.
"""

import numpy as np

__all__ = [
    "CouplingMatrix",
    "DelayLine",
    "ChannelEnd",
    "wave_identity_residual",
]


class CouplingMatrix:
    """Block coupling E = [[a, -a], [a, 0]] (x) I_n for one directed pair,
    or for E pairs at once when weight is an (E, 1) array."""

    def __init__(self, weight, dim):
        weight = np.asarray(weight, dtype=float)
        if not np.all((weight > 0.0) & (weight < np.inf)):  # NaN fails both
            raise ValueError("coupling weight must be positive and finite")
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.dim = int(dim)
        a = weight.reshape(-1, 1, 1)  # (E, 2, 2) blocks; one edge is a batch of one
        self.blocks = np.concatenate([a, -a, a, np.zeros_like(a)], axis=-1).reshape(-1, 2, 2)

    def apply(self, pairs, out=None):
        """E @ [u; v] for the 2n-vectors of E pairs split in their halves,
        (E, 2, n), written into out, shaped alike, when given; one pair
        (2, n) comes back as (1, 2, n).  A caller with (E, 2n) rows plans
        their split views once."""
        return np.matmul(self.blocks, pairs, out=out)


class DelayLine:
    """Fixed ring buffer realizing constant transmission delays.

    delay is one delay, for one line of (width,) samples, or an (E,) array
    of delays, for E lines that carry (E, width) samples and share one
    buffer with a read offset per line.  Each delay is quantized to
    round(delay / h) >= 1 Euler steps.  Popping at step k returns, on each
    line, the sample pushed at step k - K of that line; pop before push
    within a step.  The buffer starts zeroed, which realizes the
    zero-history convention for t < delay.  lines, for an array of delays,
    picks and orders the lines that pop returns, one row each (all lines
    in order by default).
    """

    def __init__(self, delay, h, width, lines=None):
        if h <= 0.0:
            raise ValueError("step size must be positive")
        delay = np.asarray(delay, dtype=float)
        bad = delay[~(np.abs(delay / h) < 2.0**63)]  # NaN too
        if bad.size:
            raise ValueError(f"delay {bad[0]} s has no finite int64 step count (step {h})")
        steps = np.rint(delay / h).astype(np.int64)
        if np.any(steps < 1):
            raise ValueError(
                f"delay {delay[steps < 1]} shorter than one step {h}; delays must be >= h"
            )
        self.steps = int(steps) if delay.ndim == 0 else steps
        self.delay = self.steps * h
        self.h = float(h)
        self.width = int(width)
        self._shape = delay.shape + (self.width,)
        depth = self._depth = int(steps.max(initial=1))
        self._buf = np.zeros((depth,) + self._shape)
        self._rows = self._buf.reshape(-1, self.width)  # the same memory, one row per sample
        # _index[c] holds the buffer row of each line's sample to pop after
        # c pushes (mod the depth), counted in rows of (width,)
        back = np.arange(depth).reshape((depth,) + (1,) * steps.ndim) - steps
        self._index = back % depth * steps.size + np.arange(steps.size).reshape(steps.shape)
        if lines is not None:
            self._index = self._index[:, lines]
        self._pops = 0
        self._pushes = 0

    def _check_time(self, t, count):
        if t is None:
            return
        if abs(t - count * self.h) > 0.5 * self.h:
            raise ValueError(
                f"delay line time skew: got t={t}, expected ~{count * self.h}"
            )

    def pop(self, t=None, out=None):
        """Samples from one delay ago (zeros before a line fills), of the
        constructor's lines; they are gathered by one take, into out when
        given."""
        self._check_time(t, self._pops)
        index = self._index[self._pushes % self._depth]
        self._pops += 1
        return self._rows.take(index, 0, out=out, mode="clip")

    def push(self, value, t=None):
        self._check_time(t, self._pushes)
        value = np.asarray(value, dtype=float)
        if value.shape != self._shape:
            raise ValueError(f"expected shape {self._shape}, got {value.shape}")
        self._buf[self._pushes % self._depth] = value
        self._pushes += 1


class ChannelEnd:
    """One agent's end of one directed channel, or of E channels when the
    coupling weight is an (E, 1) array: per edge, the precomputed 6x4 map
    from (s_in, u) to (r, p, s_out) of the module docstring."""

    def __init__(self, coupling, eta):
        if not 0.0 < eta < np.inf:  # NaN fails both
            raise ValueError("wave impedance eta must be positive and finite")
        self.coupling = coupling
        self.eta = float(eta)
        a = coupling.blocks[:, :1, :1]
        det = eta * (a + eta) + a * a
        if np.any(det <= 0.0):
            raise ValueError("coupling + impedance not invertible")
        # M = (E + eta I)^{-1} and N = M E; rows r, p, s_out, columns s_in, u
        m = np.concatenate([np.full_like(a, eta), a, -a, a + eta], axis=-1)
        m = m.reshape(-1, 2, 2) / det
        nm = m @ coupling.blocks
        self._sq2e = sq = np.sqrt(2.0 * eta)
        self._map = np.concatenate([np.concatenate(blocks, axis=-1) for blocks in (
            (sq * m, nm), (sq * nm, -eta * nm), (eta * m - nm, sq * nm))], axis=1)
        self._joined = None  # [s_in; u] of the last call, whole and split

    def recover(self, s_in, u, out=None):
        """The block of (r, p, s_out), s_in.shape[:-1] + (3, 2n), from the
        incoming wave and the local state u = [x; xi], stacked like s_in:
        block[..., 0, :] is r, [..., 1, :] p and [..., 2, :] s_out.  It is
        one product, written into out when given, which must be C-contiguous
        of that shape (a ValueError names it otherwise, since the product
        could not be written into it in place), and returned.  [s_in; u] is
        joined into a buffer made on the first call of each input shape."""
        dim = self.coupling.dim
        shape = s_in.shape[:-1] + (3, 2 * dim)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or not out.flags.c_contiguous:
            raise ValueError(f"out: expected a C-contiguous array of shape {shape}, got shape "
                             f"{out.shape}, C-contiguous {out.flags.c_contiguous}")
        joined = self._joined
        if joined is None or joined[0].shape[:-1] != s_in.shape[:-1]:
            whole = np.empty(s_in.shape[:-1] + (4 * dim,))
            joined = self._joined = (whole, whole.reshape(-1, 4, dim))
        np.concatenate([s_in, u], axis=-1, out=joined[0])
        np.matmul(self._map, joined[1], out=out.reshape(-1, 6, dim))
        return out

    def outgoing_wave(self, r, p):
        """Wave sent back into the channel from the recovered pair."""
        return (self.eta * r - p) / self._sq2e


def wave_identity_residual(s_in, s_out, r, p):
    """Residual of the per-end power identity |s_in|^2 - |s_out|^2 = 2 r^T p,
    one per row of (E, 2n) stacks, in the factored form (s_in - s_out)^T
    (s_in + s_out) - 2 r^T p, which avoids the cancellation of two large
    squared norms."""
    return np.sum((s_in - s_out) * (s_in + s_out), axis=-1) - 2.0 * np.sum(r * p, axis=-1)
