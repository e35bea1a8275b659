"""Fixed-step simulation engine for the networked primal-dual flow.

The network state is one AgentState, stacked arrays that are plain views
of one flat vector, and the directed edges i <- j are the rows of the
network's edge table (Network.own, nbr, rev, weight); every per-edge array
of a run, from the delays to the logged ports, is in that row order.  One
explicit-Euler step has a fixed phase order:

    1. the port pair (r, p) of every directed edge i <- j, the same in
       every mode: one take gathers what crossed the edge (see below)
       beside its receiver's u_own = [x_i; xi_i], into the row, and one
       batched matmul of per-edge maps (scattering.py) gives
       p = E (r - u_own), the coupling effort, from r, what agent i holds
       of neighbor j, or in scattering mode r, p and the outgoing wave from
       [s_in; u_own].  The derivatives, the diagnostics and the log all read
       this one pair,
    2. the derivatives of the whole network in one call, from the local
       terms and the edges' p, and the Euler update z + h zdot of the packed
       state (see AgentState) with its guards, an argmin of its lam view
       and one dot product of it with itself (an abs-max only near the
       limit, see _diverged); not yet committed.  The constraint force,
       each agent's summed effort sum_j p_ij, in its x half that adds to nu
       and its xi half that is xi_dot, and on the affine path the
       constraint values are one bincount over the weights of
       derivatives' plan (the force's and the values' products, the
       offsets and p), its bins planned once per run,
    3. the push of every edge into the delay lines, one copy of the
       outgoing rows (the waves of phase 1 in scattering mode, u_own, the
       sender's own [x; xi], in naive mode),
    4. barrier commit of the update, or the abort of the first tripped of:
       nan (a non-finite zdot; the pre-step state is kept and the step is
       neither pushed, checked nor logged), lambda_guard (an updated lam
       <= 0; the pre-step state is kept after the step's phase 3, checks
       and sample) and divergence (an updated entry beyond
       DIVERGENCE_LIMIT in magnitude, overflow included; the step commits).
       zdot is tested only after a trip: from a finite z, z + h zdot is
       finite and within the limit only when zdot is finite.

The unlogged steps of an uncertified no-delay run on an affine problem,
which no log row or certificate row reads, skip the exchange: simulate
steps each stretch of them up to the next logged step in one call, a
linear map of the packed state precomputed per run, ten numpy calls a
step, whose two guards are decided once per batch of up to 31 steps (see
dynamics._linear_steps).  The first step whose update fails either runs
again as above, from its own state, so every abort is the exchange step's.
The map writes no zdot, nu, zeta or ports.

Every quantity consumed in a step is therefore from time t; the step is a
synchronous barrier, which is what makes runs bit-for-bit reproducible.
One object owns what a step touches, _Run: the delay lines, the channel
ends, the step rows and the plan below; its step() runs phases 1-3 from a
given state.  simulate keeps the loop, the samples, the aborts, the commit
and the closing sample.  The step works in place: its ports, its
derivative and its update are written into the run's rows, allocated once
per run, the update into the row after the current state's, so one that
does not commit overwrites no committed state.  A row holds what the log
and the certificates read, z, zdot, nu, grad, zeta and the mode's
ports, r and p, or in scattering mode s_in and the wave block of r, p and
s_out, and u_own beside r or s_in, which phase 1 gathers with it.  The
step's scratch is the run's, one buffer each, and its operands are laid
out once per run too: the views of each row that the port map reads and
writes, the take's index pairs and the push rows after each count of steps,
and derivatives' _Plan (the compensator gains at their stage-major
shape, the owner sum's weights and bins and, on the affine path, the
constant grad f already written into every row), so a step makes only
the numpy calls its arithmetic needs.  They are also bound once: each
row's record in _Run.at holds every view and buffer its step reads, so a
step looks up one tuple (and one entry of the index pairs and of the push
rows), and the calls take their out positionally.  The step applies the
delay line and the channel end's map itself, through those rows and views,
without DelayLine.pop and push or ChannelEnd.recover.  What a step
still allocates is the owner sum (bincount has no out) and the flat
slices that split it.
A logged step copies t, the packed z, nu, zeta and the ports into the
next row of one array per series, allocated for the run (see
TrajectoryLog).

Exchange modes
--------------
The modes differ only in what crosses an edge, and so in the rows phase
1's take reads and the map it applies:

no_delay     r = [x_j; xi_j], the neighbor's current state, a delay line
             of depth 1 whose one sample is u
naive_delay  r = the neighbor's [x_j; xi_j] popped from the delay line
scattering   r and p are recovered from the incoming wave s_in and
             [x_i; xi_i]

When a reference point (a converged state; simulate checks only its shape
and finiteness, and cli.compute_reference its KKT residual) is supplied, the
engine additionally accumulates storage-function diagnostics online:
Lyapunov values on a fixed sampling grid, finite-difference storage-rate
checks for every agent at every step, the channel energy integral, and the
per-end wave power identity.  Every step is checked, but the certificates
are evaluated per block of _DIAG_BLOCK steps, each kernel called once on
the block's rows, a completed run's final state as one more row; the last,
partial block is evaluated at the end of the run, also after an abort.  The
step rows are then the block buffers, two slots of _DIAG_BLOCK rows in one
shared mmap, so the engine copies nothing into them, and memory stays
bounded by two blocks however long the run.  A long run on a machine with a
second CPU forks an evaluator, which evaluates one slot while the engine
fills the other.  Both paths run the same evaluation on the same rows, so
the reports are identical.
"""

import contextlib
import math
import mmap
import numbers
import os
import pickle
import shutil
import struct
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    AgentDerivative,
    AgentState,
    CompensatorParams,
    LambdaGuardError,
    _Plan,
    _linear_records,
    _linear_steps,
    _stage_sum,
    compensator_storage,
    derivatives,
    euler_step,
    multiplier_rate_bound,
    multiplier_storage,
    primal_rate_bound,
    storage_step_defects,
)
from .graph import _owner_sums
from .problem import constraint_force, kkt_residual
from .scattering import ChannelEnd, CouplingMatrix, DelayLine, wave_identity_residual

__all__ = [
    "MODES",
    "SimConfig",
    "ReferencePoint",
    "TrajectoryLog",
    "simulate",
    "lyapunov_delayed",
    "passivity_check",
    "PassivityReport",
]

MODES = ("no_delay", "naive_delay", "scattering")

DIVERGENCE_LIMIT = 1e9
# a sum of squares below this has no entry near the limit: see _diverged
_SQUARES_BOUND = (DIVERGENCE_LIMIT / 2) ** 2

# Steps per evaluation of the online certificates; the reports are bit-equal
# at any size.  The step rows are two slots of this many rows, so memory grows
# with the block while the per-call overhead it saves levels off (N = 5
# scattering, 2-core VM, tools/step_ab.py --certificates: the evaluator costs
# 0.77 as much per step at 32 as at 16, and 0.90 as much at 64 as at 32, but
# at 64 sc_diag's wall time fell about 2% in only 6 of 10 pairs while its
# peak RSS rose 4%).
_DIAG_BLOCK = 32

# Fewest steps for which a run with a reference forks a certificate
# evaluator.  The fork, the engine's copy-on-write faults after it and the
# final join cost a few ms, which the steps the evaluator takes off the
# engine repay: simulate on N = 5 scattering runs (2-core VM, 20
# alternating pairs) was faster forked in 1 pair of 20 at 300 steps, 12 at
# 500, 18 at 700 and 20 at 1,000, and 20,000 steps took 588 ms forked
# against 734 ms in process, about 7 us a step less.
_DIAG_FORK_STEPS = 1000
# A message to the evaluator: slot, rows in it, the step of its first row
# and whether its last is the closing row.
_DIAG_MSG = struct.Struct("2iq?")

# Rows per write of TrajectoryLog.to_csv.  A write's text is built in full
# first, so this bounds the writer's memory beyond its row plans.
_CSV_ROWS = 2048
# The series of a sample, in the order TrajectoryLog._row_plan gathers them.
_CSV_SERIES = ("x", "xi", "rho", "lam", "mu", "nu", "zeta",
               "edge_r", "edge_p", "edge_s_in", "edge_s_out")

# Fewest rows (array entries) for which TrajectoryLog.to_csv forks writers:
# about 0.25 s of repr, against 2.4 ms per fork and wait and 13 ms to append
# a 22 MB part (2-core VM).
_CSV_FORK_ROWS = 1 << 18


def _fork_cpus():
    """CPUs this process may use for forked helpers; 1 when os.fork is
    missing or another Python thread runs, since a fork of a threaded
    process can deadlock."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _current_cpu():
    """The CPU this process runs on now (Linux), or None."""
    try:
        with open("/proc/self/stat", "rb") as f:
            return int(f.read().rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _fork(fn, *args):
    """(pid, pipe read end) of a forked child that runs fn(*args), writes
    b"R" and the pickled result, or b"E" and the pickled exception, to the
    pipe and exits; it writes nothing to stdout or stderr.  An OSError of
    the fork is raised here, with no pipe end left open."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    try:
        try:
            out = b"R" + pickle.dumps(fn(*args))
        except BaseException as err:  # raised again by _join
            out = b"E" + pickle.dumps(err)
        with os.fdopen(w, "wb") as pipe:
            pipe.write(out)
    finally:
        os._exit(0)


def _join(what, pid, fd):
    """The result of the child (pid, fd) of _fork, once it has exited.  Its
    exception is raised again; an end without either, by a signal say, is
    a ChildProcessError naming what."""
    try:
        with os.fdopen(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    if status or data[:1] not in (b"R", b"E"):
        raise ChildProcessError(f"{what} ended with wait status {status}")
    if data[:1] == b"E":
        raise pickle.loads(data[1:])
    return pickle.loads(data[1:])


@dataclass
class SimConfig:
    """Everything simulate() needs besides the problem itself.

    delays is an (E,) array in the order of the network's edge table:
    delays[e] is the transmission delay in seconds of the channel from
    agent own[e] to agent nbr[e].  It is required (each entry >= step) in
    the two delayed modes, and any other shape is a ValueError naming
    delays; no_delay mode ignores it.  duration and diag_interval must
    each be under 2**63 steps.

    reference     ReferencePoint, a converged state; when set, the online
                  storage/passivity diagnostics check every step.  Only
                  its shapes and finiteness are checked here; the KKT
                  check of the CLI's is cli.compute_reference's.
    diag_interval seconds between the Lyapunov samples of those
                  diagnostics (the rate checks run at every step anyway).
    log_every     steps between logged samples; the post-hoc oracles
                  (passivity_check, lyapunov_delayed) need 1, and then the
                  log holds every step's ports and waves.
    initial       one stacked AgentState of the whole network to start from
                  instead of zeros with lam = lam0: rho (N, m, n), xi (N, n),
                  lam and mu in the multiplier layout of the problem.  It
                  is copied, and its shapes and lam > 0 are checked before
                  the first step.
    """

    step: float = 1e-3
    duration: float = 10.0
    mode: str = "no_delay"
    compensator: CompensatorParams = None
    eta: float = 1.0
    delays: np.ndarray = None
    lam0: float = 0.01
    log_every: int = 100
    diag_interval: float = 0.1
    reference: "ReferencePoint" = None
    initial: AgentState = None

    def __post_init__(self):
        if self.compensator is None:
            self.compensator = CompensatorParams(np.array([0.0, 5.0]), np.array([1.0, 10.0]))
        for name in ("step", "duration", "eta", "lam0", "diag_interval"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if self.duration < 0.0:
            raise ValueError("duration must be nonnegative")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.lam0 <= 0.0:
            raise ValueError("initial inequality multipliers must be positive")
        if isinstance(self.log_every, bool) or not isinstance(self.log_every, numbers.Integral):
            raise ValueError(f"log_every must be an integer, got {self.log_every!r}")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")
        if self.diag_interval < self.step:
            raise ValueError("diag_interval must be >= step")
        for name in ("duration", "diag_interval"):
            if not getattr(self, name) / self.step < 2.0**63:
                raise ValueError(f"{name} is over 2**63 steps of {self.step} s")


class ReferencePoint:
    """A converged state used as diagnostic reference.  It is not checked
    here: simulate and the post-hoc oracles check its shapes and finiteness
    (_check_reference), and cli.compute_reference the KKT residual of the
    CLI's.

    Carries the primal states x (N, n) and their mean z*, the consensus
    multipliers xi* (N, n), and lam*, mu* as concatenated vectors in the
    multiplier layout of the problem (agent i's are lam[prob.ineq_owner == i]),
    and derives the port and wave offsets of every edge for the rate bounds
    and the delayed Lyapunov function.  From a run:
    ReferencePoint(*log.final_stacks()), which copies the rows it is given.
    """

    def __init__(self, x, xi, lam, mu):
        self.x = np.array(x, dtype=float)
        self.z = self.x.mean(axis=0)
        self.xi = np.array(xi, dtype=float)
        self.lam = np.array(lam, dtype=float)
        self.mu = np.array(mu, dtype=float)

    def forces(self, prob):
        """(phi*, zeta*) = (grad f(z*), zeta(z*, lam*, mu*)), each (N, n):
        the reference terms of the two rate bounds, fixed for a run."""
        terms = prob.local_terms(np.broadcast_to(self.z, self.x.shape))
        return terms.grad, constraint_force(prob, terms, self.lam, self.mu)

    def port_offsets(self, net, mode, eta):
        """(r*, p*, gamma*, delta*) of every edge i <- j of net, each
        (E, 2n) in the order of its edge table.

        p* stacks (a_ij (xi_i* - xi_j*), 0) in every mode.  Without a
        channel agent i receives r_ij = (x_j, xi_j), so r* stacks
        (z*, xi_j*) and there are no wave offsets (None).  In scattering
        mode r* stacks (z*, xi_i* + xi_j*), and gamma*/delta* are the wave
        offsets (p* -/+ eta r*) / sqrt(2 eta).
        """
        xi_i, xi_j = self.xi[net.own], self.xi[net.nbr]
        z = np.broadcast_to(self.z, xi_j.shape)
        p_star = np.concatenate([net.weight * (xi_i - xi_j), np.zeros_like(z)], axis=-1)
        if mode != "scattering":
            return np.concatenate([z, xi_j], axis=-1), p_star, None, None
        r_star = np.concatenate([z, xi_i + xi_j], axis=-1)
        sq = np.sqrt(2.0 * eta)
        return r_star, p_star, (p_star - eta * r_star) / sq, (p_star + eta * r_star) / sq


@dataclass
class TrajectoryLog:
    """Decimated state/edge/diagnostic series plus run metadata.

    The samples are every log_every-th step and a closing sample at the
    final state (also after an abort), so final_stacks() reads the last
    sample.  Each series is one array, a row per sample: t (S,), x, xi, nu,
    zeta (S, N, n), rho (S, N, m, n), lam (S, L) and mu (S, M) in the
    problem's multiplier layout (entry k owned by agent
    problem.ineq_owner[k], problem.eq_owner[k]), and edge_r, edge_p,
    edge_s_in, edge_s_out (S, E, 2n), row e for row e of the network's
    edge table, i <- j with i = own[e] and j = nbr[e], "agent i's view of
    neighbor j".  x, xi, rho, lam and mu are the fields of one AgentState
    over the samples' packed states.  nu and the edge series hold only the
    samples a step followed, which come first: sample s has a row when
    s < len(series).  So the closing sample has none, a NaN abort's only
    the delayed modes' edge_r, and outside scattering runs waves have none.

    config     the SimConfig and problem the DistributedProblem that were
               run; what reads a run takes their facts from them, not copies
    delays     (E,) quantized channel delays of the edges (delayed modes)
    passivity  online PassivityReport, set when a reference is attached;
               an aborted run keeps the values reached before the abort
    """

    config: SimConfig
    problem: "DistributedProblem"
    t: np.ndarray = None
    x: np.ndarray = None
    xi: np.ndarray = None
    rho: np.ndarray = None
    lam: np.ndarray = None
    mu: np.ndarray = None
    nu: np.ndarray = None
    zeta: np.ndarray = None
    edge_r: np.ndarray = None
    edge_p: np.ndarray = None
    edge_s_in: np.ndarray = None
    edge_s_out: np.ndarray = None
    kkt: list = field(default_factory=list)
    diag_t: list = field(default_factory=list)
    lyap_direct: list = field(default_factory=list)
    lyap_delayed: list = field(default_factory=list)
    delays: np.ndarray = None
    passivity: "PassivityReport" = None
    events: list = field(default_factory=list)
    abort_reason: str = None
    abort_step: int = None

    def final_stacks(self):
        """(x, xi, lam, mu) stacks of the final state (the last sample)."""
        return self.x[-1], self.xi[-1], self.lam[-1], self.mu[-1]

    def to_csv(self, path):
        """Long-format CSV: t, entity_kind, entity_id, variable,
        component_index, value, each value written as repr(float).

        The rows follow a plan per sample kind, that is per set of series
        the sample holds (nu, the edge series) and of Lyapunov rows it
        carries; see _row_plan.  A sample is then one concatenate of its
        values, one gather into row order and one tolist(); each block of
        _CSV_ROWS rows is its reprs interleaved with the plan's labels and
        t, one join and one write.  So the writer holds one plan per kind,
        one sample's values and one block of text at a time.

        The samples go in contiguous ranges of near-equal cost (see
        _csv_bounds), one per CPU the process may use: this process writes
        the first range, forked children the others into path.part<k>, which
        are appended in order; a range whose fork fails (EAGAIN under a
        process limit, say) is written into its part here.  One process
        writes all when the log has fewer than _CSV_FORK_ROWS rows, os.fork
        is missing or another Python thread runs."""
        with open(path, "w", newline="") as f:
            f.write("t,entity_kind,entity_id,variable,component_index,value\n")
            bounds = self._csv_bounds()
            parts, children = [f"{path}.part{k}" for k in range(1, len(bounds) - 1)], []
            try:
                if parts:  # a child would inherit unflushed text
                    for stream in (f, sys.stdout, sys.stderr):
                        stream.flush()
                try:
                    for k, part in enumerate(parts, 1):
                        try:
                            children.append(_fork(self._write_part, part, *bounds[k:k + 2]))
                        except OSError:
                            self._write_part(part, *bounds[k:k + 2])
                    self._write_samples(f, *bounds[:2])
                finally:
                    errors = []
                    for child in children:  # every child is waited for
                        try:
                            _join(f"CSV writer of {path}", *child)
                        except BaseException as err:
                            errors.append(err)
                if errors:
                    raise errors[0]
                f.flush()
                for part in parts:
                    with open(part, "rb") as src:  # copyfileobj loops over short writes
                        shutil.copyfileobj(src, f.buffer)
            finally:
                for part in filter(os.path.exists, parts):
                    os.unlink(part)

    def _csv_bounds(self):
        """to_csv's sample bounds, [0, len(t)] for one writer.  The ranges
        split the repr cost, not the samples: a nonzero value costs about 7
        zeros (1.1 against 0.16 us), and a run's early samples are mostly
        zeros, from the zero start and the zero delay-line history."""
        workers = min(_fork_cpus(), len(self.t))
        series = [getattr(self, name) for name in _CSV_SERIES]
        if workers < 2 or sum(a.size for a in series) < _CSV_FORK_ROWS:
            return [0, len(self.t)]
        cost = np.zeros(len(self.t), dtype=np.int64)
        for a in series:  # a series of no rows has no size to infer
            width = math.prod(a.shape[1:])
            cost[:len(a)] += width + 6 * np.count_nonzero(a.reshape(len(a), width), axis=1)
        cost = np.cumsum(cost)
        bounds = [0]
        for k in range(1, workers):  # nonempty ranges: one sample at least each
            cut = int(np.searchsorted(cost, cost[-1] * k / workers))
            bounds.append(min(max(cut, bounds[-1] + 1), len(cost) - workers + k))
        return bounds + [len(cost)]

    def _write_part(self, part, lo, hi):
        """Write the rows of samples lo..hi-1 to the new file part."""
        with open(part, "w", newline="") as f:
            self._write_samples(f, lo, hi)

    def _write_samples(self, f, lo, hi):
        """Write the rows of samples lo..hi-1 to the text file f."""
        diag_by_t = {tt: k for k, tt in enumerate(self.diag_t)}
        lyap = (("lyapunov_direct", self.lyap_direct), ("lyapunov_delayed", self.lyap_delayed))
        series = [getattr(self, name) for name in _CSV_SERIES]
        plans = {}
        for s, tt in enumerate(self.t[lo:hi].tolist(), lo):
            res, k = self.kkt[s], diag_by_t.get(tt)
            head = {"consensus_error": res.consensus}
            head.update((f"kkt_{name}", v) for name, v in res.as_dict().items())
            head.update((name, values[k]) for name, values in lyap
                        if values and k is not None)
            kind = (tuple(head), tuple(s < len(a) for a in series))
            if kind not in plans:
                plans[kind] = self._row_plan(*kind)
            labels, index = plans[kind]
            values = np.concatenate([list(head.values())]
                                    + [a[s] for a, held in zip(series, kind[1]) if held],
                                    axis=None)
            values = values[index].tolist()
            ts = repr(tt)
            for a in range(0, len(labels), _CSV_ROWS):
                # ts, label a, value a, "\n" ts, label a+1, value a+1, ..., "\n"
                chunk = labels[a:a + _CSV_ROWS]
                text = ["\n" + ts] * (3 * len(chunk) + 1)
                text[0], text[-1] = ts, "\n"
                text[1::3] = chunk
                text[2::3] = map(repr, values[a:a + _CSV_ROWS])
                f.write("".join(text))

    def _row_plan(self, head, held):
        """(labels, index) of one sample kind for to_csv.

        head names the global rows; held tells, per series of _CSV_SERIES,
        whether the sample has a row of it.  index gathers the head values
        followed by the held rows, raveled and concatenated, into row
        order: the global rows, then agent by agent its x, xi, rho stages,
        lam and mu (split by owner), nu and zeta, then each edge series
        edge by edge.  labels holds each row's ",entity_kind,entity_id,
        variable,component_index," text, the row between t and its value.
        """
        sizes = [math.prod(getattr(self, name).shape[1:]) for name in _CSV_SERIES]
        starts = np.cumsum([len(head)] + [size * has for size, has in zip(sizes, held)])
        n, m, d = self.rho.shape[1:]

        def rows(start, stride, width=d):  # agent i: start + i stride, width entries
            return [start + i * stride + np.arange(width) for i in range(n)]

        def owned(start, owner):
            return [start + np.flatnonzero(owner == i) for i in range(n)]

        agent = [("x", rows(starts[0], d)), ("xi", rows(starts[1], d))]
        agent += [(f"rho{q}", rows(starts[2] + q * d, m * d)) for q in range(m)]
        agent += [("lambda", owned(starts[3], self.problem.ineq_owner)),
                  ("mu", owned(starts[4], self.problem.eq_owner))]
        if held[5]:
            agent.append(("nu", rows(starts[5], d)))
        agent.append(("zeta", rows(starts[6], d)))

        index = [np.arange(len(head))]
        labels = [f",global,net,{name},0," for name in head]
        for i in range(n):
            for var, where in agent:
                index.append(where[i])
                labels += [f",agent,{i},{var},{c}," for c in range(where[i].size)]
        net = self.problem.network
        edges = list(zip(net.own.tolist(), net.nbr.tolist()))
        for var, start, has in zip(("r", "p", "s_in", "s_out"), starts[7:], held[7:]):
            if has:
                index.append(start + np.arange(len(edges) * 2 * d))
                labels += [f",edge,{i}->{j},{var},{c}," for i, j in edges for c in range(2 * d)]
        return labels, np.concatenate(index)


def lyapunov_delayed(log, ref, upto=None):
    """Delayed-run Lyapunov value about ref (checked against log.problem)
    from a full-rate scattering log (log_every == 1), at sample upto, an
    int in [0, len(log.t) - 1] (default: the last one); anything else, a
    negative index too, is a ValueError.

    The agent storages S_i shift xi by 2 xi*; the channel storages are
    rebuilt from the rows of the logged waves, (upto, E, 2n), before upto
    by the same left-endpoint rectangle rule the online accumulator uses,
    summed over steps and channels at once.  It reads only the log and the
    reference, so it checks the online value independently.
    """
    prob, cfg = log.problem, log.config
    if cfg.mode != "scattering":
        raise ValueError("lyapunov_delayed needs a scattering run")
    if cfg.log_every != 1:
        raise ValueError("lyapunov_delayed needs full-rate logging (log_every=1)")
    _check_reference(prob, ref)
    last = len(log.t) - 1
    k = last if upto is None else upto
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or not 0 <= k <= last:
        raise ValueError(f"upto must be an int in [0, {last}], got {upto!r}")
    total = float(np.sum(
        compensator_storage(cfg.compensator, log.rho[k], ref.z)
        + multiplier_storage(prob, log.lam[k], log.mu[k], ref.lam, ref.mu)
        + 0.5 * np.sum((log.xi[k] - 2.0 * ref.xi) ** 2, axis=1)
    ))
    fwd, bwd = prob.network.fwd, prob.network.bwd
    _, _, gamma, delta = ref.port_offsets(prob.network, cfg.mode, cfg.eta)
    gamma, delta = gamma[fwd], delta[fwd]
    total += 0.5 * float(np.sum(log.delays[fwd] * np.sum(gamma**2, axis=1)
                                + log.delays[bwd] * np.sum(delta**2, axis=1)))
    s_in, s_out = log.edge_s_in[:k], log.edge_s_out[:k]
    acc = (np.sum((s_out[:, fwd] + gamma) ** 2) - np.sum((s_in[:, bwd] + gamma) ** 2)
           + np.sum((s_out[:, bwd] - delta) ** 2) - np.sum((s_in[:, fwd] - delta) ** 2))
    return total + 0.5 * cfg.step * float(acc)


@dataclass
class PassivityReport:
    """Max finite-difference violation of each storage-rate bound.

    excess arrays hold, per agent, max over steps of
    (Delta S / h) - bound - euler_defect - 1e-3 (1 + |S|), where the defect
    is the exact discrete-continuous discrepancy of one explicit Euler step
    (see storage_step_defects); <= 0 means the rate bound held everywhere
    at the stated tolerance.  coupling entries are NaN for naive-delay
    runs, which have no port interpretation.
    """

    compensator_excess: np.ndarray
    multiplier_excess: np.ndarray
    coupling_excess: np.ndarray
    wave_identity_max: float


def passivity_check(log, ref):
    """Recompute the per-step storage-rate checks about ref (checked
    against log.problem) from a full-rate log.

    The online path inside simulate() accumulates the same quantities; this
    post-hoc route exists so the two can be cross-checked on short runs.
    It rebuilds the state, xi_dot (from the logged r) and lam_dot from the
    log's rows, and takes the problem and the compensator from it; only the
    local-terms, storage, bound and defect kernels are shared.  Each sample
    that a step followed, those with a row of nu, is checked against the
    next one.
    """
    prob, cfg = log.problem, log.config
    if cfg.log_every != 1:
        raise ValueError("passivity_check needs full-rate logging (log_every=1)")
    _check_reference(prob, ref)
    n = prob.n_agents
    dim = prob.dim
    comp = cfg.compensator
    h = cfg.step
    mode = cfg.mode
    tol = 1e-3
    has_ports = mode in ("no_delay", "scattering")
    net = prob.network
    excess = np.full((3, n), -np.inf)
    if not has_ports:
        excess[2] = np.nan
    xi_factor = 2.0 if mode == "scattering" else 1.0
    wave_max = 0.0
    r_star, p_star, _, _ = ref.port_offsets(net, mode, cfg.eta)
    phi_star, zeta_star = ref.forces(prob)

    prev = None
    for k in range(len(log.t)):
        st = AgentState(log.rho[k], log.xi[k], log.lam[k], log.mu[k])
        sc = compensator_storage(comp, st.rho, ref.z)
        sg = multiplier_storage(prob, st.lam, st.mu, ref.lam, ref.mu)
        s_full = None
        if has_ports:
            s_full = sc + sg + 0.5 * np.sum((st.xi - xi_factor * ref.xi) ** 2, axis=1)
        if prev is not None:
            for row, s, (ps, bound, defect) in zip(excess, (sc, sg, s_full), prev):
                if ps is not None:
                    np.maximum(
                        row, (s - ps) / h - bound - defect - tol * (1.0 + np.abs(ps)),
                        out=row,
                    )
        if k == len(log.nu):  # the closing or an aborted sample: no step follows
            break
        nu, x = log.nu[k], log.x[k]
        r = log.edge_r[k]
        xi_dot = _owner_sums(net.own, n, net.weight * (r[:, :dim] - x[net.own]))
        terms = prob.local_terms(x)
        deriv = AgentDerivative(
            comp.c[:, None] * nu[:, None, :] - comp.b[:, None] * st.rho,
            xi_dot, 2.0 * st.lam * terms.g, terms.h, nu,
            terms.grad, constraint_force(prob, terms, st.lam, st.mu),
        )
        d_c, d_m, d_xi = storage_step_defects(prob, comp, st, deriv, ref.lam, h)
        bnd_coup = np.full(n, np.nan)
        if has_ports:
            p = log.edge_p[k]
            bnd_coup = _owner_sums(net.own, n, np.sum((r - r_star) * (p - p_star), axis=1))
        if mode == "scattering":
            res = wave_identity_residual(log.edge_s_in[k], log.edge_s_out[k], r, p)
            wave_max = max(wave_max, float(np.abs(res).max(initial=0.0)))
        prev = (
            (sc, primal_rate_bound(st, deriv, ref.z, phi_star), d_c),
            (sg, multiplier_rate_bound(st, deriv, ref.z, zeta_star), d_m),
            (s_full, bnd_coup, d_c + d_m + d_xi),
        )
    return PassivityReport(*excess, wave_identity_max=wave_max)


def _check_stacks(prob, what, stacks, shapes):
    """Require each stack of stacks named in shapes to have that shape and
    finite values; the error names what.name and, for a value, its agent."""
    owners = {"lam": prob.ineq_owner, "mu": prob.eq_owner}
    for name, shape in shapes.items():
        values = getattr(stacks, name)
        if values.shape != shape:
            raise ValueError(f"{what}.{name}: expected shape {shape}, got {values.shape}")
        bad = ~np.isfinite(values)
        if bad.any():
            k = np.unravel_index(np.argmax(bad), shape)
            agent = int(owners[name][k[0]]) if name in owners else int(k[0])
            raise ValueError(f"{what}.{name}: non-finite value {values[k]} (agent {agent})")


def _check_reference(prob, ref):
    """Require the ReferencePoint ref to fit prob, finite."""
    agents = (prob.n_agents, prob.dim)
    _check_stacks(prob, "reference", ref, {"x": agents, "xi": agents, "lam": prob.ineq_owner.shape,
                                           "mu": prob.eq_owner.shape})


def _initial_state(prob, cfg):
    """A checked copy of SimConfig.initial, or the zero start."""
    zeros = AgentState.zeros(cfg.compensator, prob, cfg.lam0)
    init = cfg.initial
    if init is None:
        return zeros
    if not isinstance(init, AgentState):
        raise TypeError("initial: expected one stacked AgentState")
    state = AgentState(init.rho, init.xi, init.lam, init.mu)
    _check_stacks(prob, "initial", state,
                  {name: getattr(zeros, name).shape for name in ("rho", "xi", "lam", "mu")})
    if state.lam.size and state.lam.min() <= 0.0:
        agent, local = _ineq_entry(prob, int(np.argmax(state.lam <= 0.0)))
        raise ValueError(
            f"initial.lam: inequality multipliers must be positive "
            f"(agent {agent}, multiplier {local})"
        )
    return state


def _ineq_entry(prob, k):
    """(agent, local index) of entry k of the concatenated lam."""
    agent = int(prob.ineq_owner[k])
    return agent, k - int(np.searchsorted(prob.ineq_owner, agent))


def _largest_entry(prob, state):
    """(agent, field, magnitude) of the state entry of largest magnitude;
    a NaN entry counts as the largest."""
    n = prob.n_agents
    mags = np.zeros((4, n))
    mags[0] = np.abs(state.rho).reshape(n, -1).max(axis=1)
    mags[1] = np.abs(state.xi).max(axis=1)
    np.maximum.at(mags[2], prob.ineq_owner, np.abs(state.lam))
    np.maximum.at(mags[3], prob.eq_owner, np.abs(state.mu))
    f, i = np.unravel_index(np.argmax(np.where(np.isnan(mags), np.inf, mags)), mags.shape)
    return int(i), ("rho", "xi", "lam", "mu")[f], float(mags[f, i])


def _non_finite_entry(prob, deriv):
    """(agent, field, value) of the first non-finite derivative entry: the
    lowest agent with one, and its first such field and entry."""
    for i in range(prob.n_agents):
        for name, values in (("rho_dot", deriv.rho_dot[i].ravel()),
                             ("xi_dot", deriv.xi_dot[i]),
                             ("lam_dot", deriv.lam_dot[prob.ineq_owner == i]),
                             ("mu_dot", deriv.mu_dot[prob.eq_owner == i])):
            bad = ~np.isfinite(values)
            if bad.any():
                return i, name, float(values[bad][0])


def simulate(prob, cfg):
    """Run the networked flow; returns a TrajectoryLog.

    Aborts (multiplier guard, divergence, NaN) are recorded on the log
    (abort_reason, abort_step, events) rather than raised: partial
    trajectories are the expected outcome of the naive-delay scenario.
    Each abort event names the agent and the value that tripped.
    """
    h = cfg.step
    n_steps = int(round(cfg.duration / h))
    state = _initial_state(prob, cfg)
    if cfg.reference is not None:
        _check_reference(prob, cfg.reference)
    log = TrajectoryLog(cfg, prob)
    run = _Run(prob, cfg, state, 1 if cfg.reference is None else _DIAG_BLOCK)
    log.delays = None if run.line is None else run.line.delay
    state = run.states[0]

    # one row per sample: t, the packed state z, nu, zeta and the four edge
    # series, each filled from its first row; waves only in scattering mode
    samples = -(-n_steps // cfg.log_every) + 1
    agents, edge = (prob.n_agents, prob.dim), (len(prob.network.own), 2 * prob.dim)
    store = [np.empty((samples,) + shape) for shape in ((), state.z.shape, agents, agents,
                                                        edge, edge)]
    store += [np.empty((samples if run.end is not None else 0,) + edge) for _ in range(2)]
    filled = [0] * len(store)

    def snapshot(t, state, deriv, ports):
        x = state.x
        nu, zeta = ((deriv.nu, deriv.zeta) if deriv is not None else
                    (None, constraint_force(prob, prob.local_terms(x), state.lam, state.mu)))
        for q, value in enumerate((t, state.z, nu, zeta, *ports)):  # None: no row
            if value is not None:
                store[q][filled[q]] = value
                filled[q] += 1
        # the scattering loop settles with xi doubled (each end absorbs the
        # midpoint average), so xi/2 is the stationarity certificate there
        xi_cert = 0.5 * state.xi if run.end is not None else state.xi
        log.kkt.append(kkt_residual(prob, x, xi_cert, state.lam, state.mu))

    def abort(kind, agent, value, detail):
        log.events.append({"step": k, "t": k * h, "kind": kind, "agent": agent,
                           "value": value, "detail": detail})
        log.abort_reason = kind
        log.abort_step = k

    k, log_every, linear = 0, cfg.log_every, run.linear
    diag = None if cfg.reference is None else _DiagState(log, run, n_steps)
    # guards, not warnings, handle blow-ups; an evaluator is reaped on every path
    with np.errstate(all="ignore"), diag or contextlib.nullcontext():
        while k < n_steps:
            if linear is not None and k % log_every:
                # one call for the unlogged steps up to the next logged one;
                # it stops at a step whose update fails a guard, which the
                # exchange step below runs again
                stop = min(n_steps, k - k % log_every + log_every)
                state, done = _linear_steps(state, stop - k, linear)
                k += done
                if k == stop:
                    continue
            t = k * h
            deriv, ports, nxt, trip = run.step(k, t, state)
            if trip == "nan":
                i, name, value = _non_finite_entry(prob, deriv)
                abort("nan", i, value, f"agent {i}: non-finite derivative {name} ({value})")
                # only the delayed modes' r came out of a channel
                snapshot(t, state, None, (None if run.line is None else ports[0], None, None, None))
                break
            if diag is not None:
                diag.step()
            if k % log_every == 0:
                snapshot(t, state, deriv, ports)

            # phase 4: barrier commit, unless a guard tripped
            if isinstance(trip, LambdaGuardError):
                i, local = _ineq_entry(prob, trip.index)
                abort("lambda_guard", i, trip.value,
                      f"agent {i}: inequality multiplier {local} would step to "
                      f"{trip.value:.3e}")
                break
            state = nxt
            if trip is not None:
                i, name, value = _largest_entry(prob, state)
                abort("divergence", i, value,
                      f"agent {i}: {name} magnitude {value:.3e} "
                      f"exceeds {DIVERGENCE_LIMIT:.0e}")
                break
            k += 1

        # closing sample at the final state (no derivative information),
        # unless the last sample already holds it (a guard/nan abort on a
        # logged step).  A completed run stepped k = n_steps steps and a
        # divergence committed step k; guard and nan aborts leave the
        # pre-step state.
        t_end = (k + (log.abort_reason == "divergence")) * h
        if not filled[0] or store[0][filled[0] - 1] < t_end:
            snapshot(t_end, state, None, (None,) * 4)
        # a completed run's final state is the certificates' last row
        if diag is not None and log.abort_reason is None and n_steps:
            diag.close()
        # each series cut to its rows; forming x may overflow, as in a step
        log.t, z, log.nu, log.zeta, log.edge_r, log.edge_p, log.edge_s_in, log.edge_s_out = (
            a[:rows] for a, rows in zip(store, filled))
        st = AgentState._of(state._table, z)
        log.x, log.xi, log.rho, log.lam, log.mu = st.x, st.xi, st.rho, st.lam, st.mu
    return log


def _diverged(z, mags):
    """Whether an entry of z is beyond DIVERGENCE_LIMIT in magnitude or not
    a number, mags a buffer of z's shape.  One dot product decides most
    states: a sum of nonnegative terms never rounds below one of them, so
    one below _SQUARES_BOUND has every |z_k| < DIVERGENCE_LIMIT.  A NaN, an
    inf or an overflowing square fails that test, as does a state near the
    limit, and the exact abs-max decides."""
    if z.dot(z) < _SQUARES_BOUND:
        return False
    return not np.maximum.reduce(np.abs(z, mags)) <= DIVERGENCE_LIMIT


class _Run:
    """What the steps of one run touch, laid out once: the DelayLine of the
    checked delays (line, in the delayed modes; line e carries what agent
    own[e] sends to nbr[e]), the ChannelEnd (end, in scattering mode), the
    step rows with their records, derivatives' _Plan and the step's scratch
    buffers.  step() runs phases 1-3 of one step; simulate commits.

    The rows hold what the log and the certificates read, and u_own.  They
    are two slots of per_slot rows, R = count rows in all, each field one
    (R, ...) array over one shared mmap: the packed state z, its derivative
    zdot, nu, grad and zeta, and the mode's ports with u_own, [x_i; xi_i]
    by receiving agent (E, 2n), beside what crossed: [r; u_own] (2, E, 2n)
    and p (E, 2n), or in scattering mode [s_in; u_own] (E, 2, 2n) and
    waves, the (E, 3, 2n) block of r, p and s_out that the channel end's
    map writes (None in the other modes).  ports holds r, p, s_in and s_out
    over all rows, (R, E, 2n) each, or None where the mode lacks it, and
    u_own its rows, (R, E, 2n).

    Step k reads its state from row k % R and writes its ports and
    derivative into that row and its update into row (k + 1) % R, so the
    update never lands on the state it steps from, and an uncommitted one
    on no committed state.  The records of each row are made once: states[q]
    is an AgentState over z[q] with its own x, and at[q] holds every
    operand step k reads when k % R = q, so a step looks up one tuple (and
    one entry of each of its lists, by step count mod the line's depth):
    the row's AgentDerivative, its ports as one tuple (r, p, s_in, s_out,
    None where the mode lacks one), r, p and u_own, the block the take
    gathers, the map's operand (r - u_own as (E, 2, n), a buffer of the
    run, or [s_in; u_own] as (E, 4, n)), where the map writes (p's halves
    (E, 2, n) or the wave block as (E, 6, n)), the outgoing rows (u_own or
    s_out) and states[(q + 1) % R], where the update goes; then the run's:
    the halves of u = [x; xi] by agent, the rows the take reads, its index
    pairs and the push rows by count of steps, the depth, the r - u_own
    buffer (None in scattering mode), the per-edge maps, the problem, the
    plan, h and the guard's scratch.  In the delayed modes u is the delay
    line's spare rows, after its samples, so one take gathers what crossed
    and u_own, and the line is stepped through those rows, not its pop and
    push; in no_delay mode u is the rows, a line of depth 1 with no push.
    Row 0 starts as a copy of state.

    In a no-delay run on an affine problem without a reference, linear
    holds the record of the linear map that steps its unlogged steps
    (dynamics._linear_records), with its own ring of states, which simulate
    passes to dynamics._linear_steps; it is None in every other run.  step()
    is the exchange step alone.
    """

    def __init__(self, prob, cfg, state, per_slot):
        net, dim, comp = prob.network, prob.dim, cfg.compensator
        self.h = cfg.step
        coupling = CouplingMatrix(net.weight, dim)
        n, edges, waves = prob.n_agents, len(net.own), cfg.mode == "scattering"
        self.line = self.end = None
        if cfg.mode != "no_delay":
            if cfg.delays is None:
                raise ValueError("delays required for delayed modes")
            delays = np.asarray(cfg.delays)
            if delays.shape != net.own.shape:
                raise ValueError(f"delays: expected shape {net.own.shape}, one per edge in the "
                                 f"network's table order, got {delays.shape}")
            self.line = DelayLine(delays, cfg.step, 2 * dim, net.rev, n)
        if waves:
            self.end = ChannelEnd(coupling, cfg.eta)

        agents, port = (n, dim), (edges, 2 * dim)
        # the mode's port fields: what phase 1's take gathers, [s_in; u_own]
        # (E, 2, 2n) in scattering mode, the channel end map's operand, or
        # [r; u_own] (2, E, 2n), and what the map writes, the (E, 3, 2n)
        # block of r, p and s_out, or p
        shapes = [state.z.shape, state.z.shape, agents, agents, agents,
                  (edges, 2, 2 * dim) if waves else (2,) + port,
                  (edges, 3, 2 * dim) if waves else port]
        self.per_slot = per_slot
        count = self.count = 2 * per_slot
        # each field starts 64-byte aligned, so no kernel reads a less aligned
        # array than a fresh numpy one
        sizes = [-(-count * math.prod(shape) // 8) * 8 for shape in shapes]
        flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), dtype=float)
        fields = [a[:count * math.prod(shape)].reshape((count,) + shape)
                  for a, shape in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
        self.z, self.zdot, self.nu, self.grad, self.zeta, gathered, mapped = fields
        crossed, self.u_own = np.moveaxis(gathered, 2 if waves else 1, 0)
        # per row: the map's operand and the outgoing rows the push copies
        if waves:  # the channel end's map on [s_in; u_own], into the wave block
            self.waves, maps, diff = mapped, self.end._map, None
            self.ports = (mapped[:, :, 0], mapped[:, :, 1], crossed, mapped[:, :, 2])
            operands, outgoing = gathered.reshape(count, edges, 4, dim), self.ports[3]
        else:  # the coupling blocks on r - u_own, into p's halves
            self.waves, maps, diff = None, coupling.blocks, np.empty(port)
            self.ports = (crossed, mapped, None, None)
            operands, outgoing = [diff.reshape(edges, 2, dim)] * count, self.u_own
        mapped = mapped.reshape(count, edges, 6 if waves else 2, dim)
        self.table = state._table
        self.states = [AgentState._of(self.table, row) for row in self.z]
        np.copyto(self.states[0]._z, state._z)
        np.copyto(self.states[0]._x, state._x)
        rows = [(AgentDerivative._of(self.table, self.zdot[q], self.nu[q], self.grad[q],
                                     self.zeta[q]),
                 tuple(None if a is None else a[q] for a in self.ports),
                 self.u_own[q], gathered[q], operands[q], mapped[q], outgoing[q],
                 self.states[(q + 1) % count]) for q in range(count)]
        self.plan = _Plan(prob, comp, self.states[0], [row[0] for row in rows])

        # the rows the take reads: u = [x_i; xi_i] by agent, in the delay
        # line's spare rows after its samples, or alone in no_delay mode, a
        # line of depth 1 whose sample is u; after c pushes (mod the depth)
        # index pairs c gather edge e's incoming row, the popped one or
        # u[nbr[e]], and u[own[e]], pushes[c] is the row the push writes.
        # The pairs are writable copies: take copies a read-only index array
        # at every call
        if self.line is None:
            source, incoming, pushes = np.empty((n, 2 * dim)), net.nbr[None], None
        else:
            source, incoming, pushes = self.line._rows, self.line._index, list(self.line._buf)
        u = source[-n:]
        pairs = np.stack([incoming, np.broadcast_to(len(source) - n + net.own, incoming.shape)],
                         axis=-1 if waves else 1)
        # h as a 0-d array, which numpy multiplies by without converting it
        run = (u[:, :dim], u[:, dim:], source, list(pairs), pushes, len(pairs), diff, maps, prob,
               comp, self.plan, np.array(cfg.step), np.empty_like(state.z))
        self.at = [(deriv, ports, *ports[:2], *rest) + run for deriv, ports, *rest in rows]

        # the linear map of the unlogged steps of an uncertified affine
        # no-delay run, which no log row or certificate row reads
        self.linear = None
        if cfg.mode == "no_delay" and prob._affine is not None and cfg.reference is None:
            self.linear = _linear_records(prob, comp, coupling.blocks, cfg.step, self.table,
                                          _SQUARES_BOUND)

    def step(self, k, t, state):
        """Phases 1-3 of step k at time t from state, row k % R as a rule:
        (deriv, ports, update, trip), the derivative, the port pair (r, p,
        s_in, s_out, None where the mode lacks it) and the uncommitted
        update of row (k + 1) % R.  trip is None, "divergence" (an updated
        entry beyond DIVERGENCE_LIMIT), the LambdaGuardError of the update
        or "nan", a non-finite zdot, tested only after another trip; a "nan"
        step is not pushed."""
        (deriv, ports, r, p, u_own, gathered, operand, mapped, outgoing, nxt, u_x, u_xi,
         source, pairs, pushes, depth, diff, maps, prob, comp, plan, h,
         mags) = self.at[k % self.count]
        u_x[...] = state._x
        u_xi[...] = state._xi

        # phase 1: the port pair (r, p) of every directed edge i <- j: one
        # take gathers what crossed beside [x_i; xi_i] (a take with mode
        # "raise" would copy through a buffer, and every index is in range,
        # so "clip" gathers straight into the row), one matmul maps it
        c = k % depth  # the line's pop and push rows after c pushes
        source.take(pairs[c], 0, gathered, "clip")
        if diff is not None:  # p = E (r - u_own)
            np.subtract(r, u_own, diff)
        np.matmul(maps, operand, mapped)

        # phase 2: derivatives from the edges' p, the update, its guards
        derivatives(prob, comp, state, p, deriv, plan)
        try:
            euler_step(state, deriv, h, nxt)
            z = nxt._z  # _diverged's dot product, inline: it decides most steps
            trip = None if z.dot(z) < _SQUARES_BOUND or not _diverged(z, mags) else "divergence"
        except LambdaGuardError as err:
            trip = err
        if trip is not None and not np.isfinite(deriv.zdot).all():
            return deriv, ports, nxt, "nan"

        # phase 3: push what crosses each edge into its delay line
        if pushes is not None:
            np.copyto(pushes[c], outgoing)
        return deriv, ports, nxt, trip


def _energy(waves, offsets):
    """Per step of waves (K, E, 2n), C-contiguous, the energy of its waves
    offset by offsets (E, 2n): (K,), each the sum of the E 2n squares,
    formed in place in waves."""
    np.square(np.add(waves, offsets, waves), waves)
    return np.add.reduce(waves.reshape(len(waves), -1), -1)


class _DiagState:
    """Online storage-function diagnostics of one run, read from its
    TrajectoryLog: the problem, the config, its reference and compensator.

    Every step is checked: the forward difference of each storage against
    its certified bound plus the exact explicit-Euler step defect at the
    step before (see storage_step_defects); the recorded excess already
    subtracts the 1e-3 (1 + |S|) tolerance, so <= 0 means the bound held.
    excess rows are the compensator, multiplier and coupling checks; the
    coupling row is NaN for naive-delay runs, which have no port
    interpretation.

    The block buffers are the step rows of the run (a _Run of two slots),
    which the engine writes in place and this reads by name: z, zdot, nu,
    grad, zeta and the ports r, p and, in scattering mode, s_in and s_out,
    there each port series copied once per block into contiguous scratch
    rows (the step rows hold it beside another series or u_own), in which
    the channel energies are then formed in place.
    step() counts a step once its rows are written, as simulate does.  A
    completed run's final state, already in the next row, is one more row
    (close()), with the last step's derivative and ports copied in, whose
    own bound no row reads.  A full slot is handed off with the step of its
    first row and whether its last is that closing row, from which
    _evaluate works out each row's t and whether it is on the Lyapunov
    grid (the closing row always is), and evaluated, each kernel called
    once on its rows.  The last row's storages, bounds and defects and the
    channel integral carry over from one block to the next, so every row is
    compared against the one before it, as step by step.

    A run of _DIAG_FORK_STEPS steps or more, with a second CPU, os.fork and
    no other Python thread, forks an evaluator here, after the run made its
    rows, so they are shared: the child evaluates one slot while the engine
    fills the other.  One pipe names the slot to evaluate, one returns it
    free; the child is a _fork of _serve, whose result is its reports, or
    its exception, which the engine raises again.  Leaving the with block
    sets the log's reports; on every path the child is reaped.
    """

    def __init__(self, log, run, steps):
        self.log, self.run = log, run
        prob, cfg = log.problem, log.config
        ref = cfg.reference
        net = prob.network
        self.has_ports = cfg.mode in ("no_delay", "scattering")
        n = prob.n_agents
        self.excess = np.full((3, n), -np.inf)
        if not self.has_ports:
            self.excess[2] = np.nan
        # the coupling storage's xi offset: the scattering loop settles with
        # xi doubled
        self.xi_star = (2.0 if cfg.mode == "scattering" else 1.0) * ref.xi
        # (storage, bound, defect) x (compensator, multiplier, coupling)
        # rows of a block, after the carried last row of the block before
        # (row 0, once carried)
        self.rows = np.empty((3, 3, run.per_slot + 1, n))
        self.carried = False
        self.edge_const = 0.0
        self.acc = 0.0
        self.wave_max = 0.0
        self.diag_t, self.lyap_direct, self.lyap_delayed = [], [], []
        self.offsets = None
        self.r_star, self.p_star, gamma, delta = ref.port_offsets(net, cfg.mode, cfg.eta)
        self.phi_star, self.zeta_star = ref.forces(prob)
        if cfg.mode == "scattering":
            fwd, bwd = net.fwd, net.bwd
            # channel c, between the ends fwd[c] and bwd[c], stores
            # |s_out + gamma_c|^2 at fwd[c] and |s_out - delta_c|^2 at bwd[c],
            # and takes back |s_in + gamma_c|^2 at bwd[c] and |s_in - delta_c|^2
            # at fwd[c]: each edge's offsets of its s_out and its s_in, (E, 2n)
            # each, the second the first's of the reverse edge, and scratch
            # rows for a block of each port series
            out = np.empty_like(gamma)
            out[fwd], out[bwd] = gamma[fwd], -delta[fwd]
            self.offsets = (out, out[net.rev], np.empty((4, run.per_slot) + out.shape))
            self.edge_const = 0.5 * float(np.sum(
                log.delays[fwd] * np.sum(gamma[fwd] ** 2, axis=1)
                + log.delays[bwd] * np.sum(delta[fwd] ** 2, axis=1)
            ))
        self.every = max(1, int(round(cfg.diag_interval / cfg.step)))
        # the records of each full slot's rows, made once
        self.blocks = [self._block(slot, run.per_slot) for slot in (0, 1)]

        self.k, self.s, self.j, self.busy, self.pid, self.closed = 0, 0, 0, False, None, False
        if steps >= _DIAG_FORK_STEPS and _fork_cpus() >= 2:
            work, self.work = os.pipe()
            self.free, free = os.pipe()
            try:
                self.pid, self.result = _fork(self._serve, work, free, _current_cpu())
            except OSError:  # evaluate in this process
                os.close(self.work)
                os.close(self.free)
            finally:
                os.close(work)
                os.close(free)

    def __enter__(self):
        return self

    def __exit__(self, failed, *exc):
        try:
            if failed is None:  # the last rows, then the reports
                if self.j:
                    self._hand_off()
                excess, wave_max, *series = self._join_evaluator() if self.pid else self._reports()
                self.log.passivity = PassivityReport(*excess, wave_identity_max=wave_max)
                self.log.diag_t, self.log.lyap_direct, self.log.lyap_delayed = series
        finally:
            if self.pid is not None:  # something raised: the child's reports are moot
                for fd in (self.work, self.free, self.result):
                    os.close(fd)
                os.waitpid(self.pid, 0)
                self.pid = None

    def step(self):
        """Count the step whose rows the engine has written, or the closing
        row.  A full slot is handed off.  When the next step's update goes
        into the other slot's first row, wait until the evaluator has
        returned that slot."""
        self.j += 1
        self.k += 1
        if self.j == self.run.per_slot:
            self._hand_off()
        # no byte: the evaluator ended
        if self.j == self.run.per_slot - 1 and self.busy and not os.read(self.free, 1):
            self._join_evaluator()

    def close(self):
        """The final state of a completed run, already in the next row, as
        one more row, with the last step's derivative and ports, whose own
        bound no row reads."""
        run = self.run
        q = self.k % run.count
        for a in (run.zdot, run.nu, run.grad, run.zeta, *run.ports):
            if a is not None:
                a[q] = a[q - 1]
        self.closed = True
        self.step()

    def _hand_off(self):
        """Evaluate the filled rows of the current slot, here or in the
        evaluator, which then gets the slot while this fills the other."""
        msg = (self.s, self.j, self.k - self.j, self.closed)
        if self.pid is None:
            self._evaluate(*msg)
        else:
            try:
                os.write(self.work, _DIAG_MSG.pack(*msg))
            except BrokenPipeError:  # the evaluator ended: raise its error
                self._join_evaluator()
            self.busy = True
        self.s ^= 1
        self.j = 0

    def _join_evaluator(self):
        """The evaluator's reports, once the work pipe is closed; its
        exception is raised again.  The free pipe stays open until then, as
        the evaluator returns its last slot after the work pipe closes."""
        os.close(self.work)
        try:
            return _join("certificate evaluator", self.pid, self.result)
        finally:
            os.close(self.free)
            self.pid = None

    def _serve(self, work, free, cpu):
        """The evaluator, in the child: evaluate each slot named on the pipe
        work and return it on free until work ends; then the reports.  It
        keeps off cpu, the engine's CPU at the fork: woken on the engine's
        CPU, as the scheduler tends to place it, it would wait for the
        engine or stall it (N = 5 scattering, 2-core VM: unpinned, 20,000
        steps of simulate took 808 ms against 588 ms pinned and 734 ms
        in process)."""
        os.close(self.work)
        os.close(self.free)
        others = os.sched_getaffinity(0) - {cpu} if hasattr(os, "sched_setaffinity") else ()
        with contextlib.suppress(OSError):  # a set it may not use: stay anywhere
            if others:
                os.sched_setaffinity(0, others)
        with os.fdopen(work, "rb") as inbox, np.errstate(all="ignore"):
            while msg := inbox.read(_DIAG_MSG.size):
                slot, *rest = _DIAG_MSG.unpack(msg)
                self._evaluate(slot, *rest)
                os.write(free, bytes((slot,)))  # one byte: written whole
        return self._reports()

    def _reports(self):
        return self.excess, self.wave_max, self.diag_t, self.lyap_direct, self.lyap_delayed

    def _block(self, slot, K):
        """(state, derivative, r, p, s_in, s_out) records of the first K rows
        of slot, stacked (K, ...), None where the mode lacks a port."""
        run = self.run
        rows = slice(slot * run.per_slot, slot * run.per_slot + K)
        z, zdot, nu, grad, zeta = (a[rows] for a in (run.z, run.zdot, run.nu, run.grad, run.zeta))
        return (AgentState._of(run.table, z), AgentDerivative._of(run.table, zdot, nu, grad, zeta),
                *(None if a is None else a[rows] for a in run.ports))

    def _evaluate(self, slot, K, first, closed):
        """Evaluate the K rows of slot, those of steps first.., the last the
        closing row when closed: storages, the rate-excess update of each
        against the row before, the wave identity, the channel integral and
        the Lyapunov samples on the grid."""
        if K == self.run.per_slot:  # the slot's records, and its states' x anew
            st, deriv, r, p, s_in, s_out = self.blocks[slot]
            _stage_sum(st._stages, st._x)
        else:
            st, deriv, r, p, s_in, s_out = self._block(slot, K)
        prob, cfg = self.log.problem, self.log.config
        ref, comp, h, tol = cfg.reference, cfg.compensator, cfg.step, 1e-3
        if self.offsets is not None:
            # the rows hold each wave-mode port series beside another: one
            # copy of each into contiguous scratch rows, which the sums below
            # read, the channel energies in place
            ports = self.offsets[2][:, :K]
            for a, rows in zip(ports, (r, p, s_in, s_out)):
                np.copyto(a, rows)
            r, p, s_in, s_out = ports
        sc = compensator_storage(comp, st.rho, ref.z)
        sg = multiplier_storage(prob, st.lam, st.mu, ref.lam, ref.mu)
        d_c, d_m, d_xi = storage_step_defects(prob, comp, st, deriv, ref.lam, h)
        if self.has_ports:  # the coupling storage and bound
            s_full = sc + sg + 0.5 * np.add.reduce(np.square(st.xi - self.xi_star), -1)
            dr, dp = r - self.r_star, p - self.p_star
            bnd_coup = _owner_sums(prob.network.own, prob.n_agents,
                                   np.add.reduce(np.multiply(dr, dp, dr), -1), 1)
        else:  # NaN, like the coupling excess row
            s_full = bnd_coup = np.full_like(sc, np.nan)

        # each row is checked against the row before it, the first against
        # the carried last row of the previous block
        rows = self.rows[:, :, :K + 1]
        for q, pieces in enumerate(((sc, sg, s_full),
                                    (primal_rate_bound(st, deriv, ref.z, self.phi_star),
                                     multiplier_rate_bound(st, deriv, ref.z, self.zeta_star),
                                     bnd_coup),
                                    (d_c, d_m, d_c + d_m + d_xi))):
            for piece, values in zip(rows[q], pieces):
                piece[1:] = values
        storage, bound, defect = rows if self.carried else rows[:, :, 1:]
        if storage.shape[1] > 1:
            before = storage[:, :-1]
            rate = ((storage[:, 1:] - before) / h - bound[:, :-1] - defect[:, :-1]
                    - tol * (1.0 + np.abs(before)))
            np.maximum(self.excess, rate.max(axis=1), out=self.excess)
        rows[:, :, 0] = rows[:, :, K]
        self.carried = True

        acc = None
        if self.offsets is not None:
            res = np.abs(wave_identity_residual(s_in, s_out, r, p)).max(axis=-1, initial=0.0)
            # a step whose residual is NaN is passed over, as max() does
            self.wave_max = float(np.fmax.reduce(res, initial=self.wave_max))
            # each step's channel power, what the channels store less what
            # they take back, (K,)
            out, back, _ = self.offsets
            power = _energy(s_out, out) - _energy(s_in, back)
            # acc[j]: the channel integral up to the step before row j
            acc = np.cumsum(np.concatenate([[self.acc], h * power]))
            self.acc = float(acc[K])

        # the grid rows: steps on the Lyapunov grid, and the closing row
        on = list(range(-first % self.every, K, self.every))
        if closed and K - 1 not in on:
            on.append(K - 1)
        if on:
            self.diag_t.extend((first + j) * h for j in on)
            self.lyap_direct.extend((
                sc[on].sum(axis=-1) + sg[on].sum(axis=-1)
                + 0.5 * np.sum((st.xi[on] - ref.xi) ** 2, axis=(-2, -1))
            ).tolist())
            if acc is not None:
                self.lyap_delayed.extend(
                    (s_full[on].sum(axis=-1) + self.edge_const + 0.5 * acc[on]).tolist()
                )
