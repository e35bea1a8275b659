"""Fixed-step simulation engine for the networked primal-dual flow.

One explicit-Euler step has a fixed phase order:

    1. the port pair (r, p) of every directed edge i <- j, in every mode:
       r is what agent i holds of neighbor j (see below) and
       p = E (r - [x_i; xi_i]) the coupling effort.  The derivatives, the
       online diagnostics and the log all read this one pair; the two
       direct modes form p only when the log or a port check reads it,
    2. all agent derivatives from time-t values,
    3. all pushes into the delay lines (outgoing waves in scattering
       mode, the sender's own [x; xi] in naive mode),
    4. barrier commit of the Euler updates.

Every quantity consumed in a step is therefore from time t; the step is a
synchronous barrier, which is what makes runs bit-for-bit reproducible.

Exchange modes
--------------
The modes differ only in what crosses an edge and so in where r comes from:

no_delay     r = [x_j; xi_j], the neighbor's current state
naive_delay  r = the neighbor's [x_j; xi_j] popped from the delay line
scattering   r and p are recovered from the incoming wave and [x_i; xi_i]

When a reference point (a KKT-validated converged state) is supplied, the
engine additionally accumulates storage-function diagnostics online at full
step rate: Lyapunov values on a fixed sampling grid, finite-difference
storage-rate checks for every agent at every step, the channel energy
integral, and the per-end wave power identity.  Online accumulation avoids
holding full-rate wave histories in memory on long runs.
"""

from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    AgentDerivative,
    AgentState,
    CompensatorParams,
    LambdaGuardError,
    compensator_storage,
    constraint_force,
    derivatives,
    euler_step,
    multiplier_rate_bound,
    multiplier_storage,
    primal_rate_bound,
    storage_step_defects,
)
from .graph import neighbors
from .problem import kkt_residual
from .scattering import ChannelEnd, CouplingMatrix, DelayLine, wave_identity_residual

__all__ = [
    "MODES",
    "SimConfig",
    "ReferencePoint",
    "TrajectoryLog",
    "simulate",
    "lyapunov_direct",
    "lyapunov_delayed",
    "passivity_check",
    "PassivityReport",
    "converged_reference",
]

MODES = ("no_delay", "naive_delay", "scattering")

DIVERGENCE_LIMIT = 1e9


@dataclass
class SimConfig:
    """Everything simulate() needs besides the problem itself.

    delays maps directed edges (i, j) to the transmission delay of the
    i -> j channel in seconds; required (and >= step) for the two delayed
    modes, ignored in no_delay mode.

    reference     KKT-validated ReferencePoint; when set, the online
                  storage/passivity diagnostics run at every step.
    diag_interval seconds between the Lyapunov samples of those
                  diagnostics (the rate checks run at every step anyway).
    log_every     steps between logged samples; the post-hoc oracles
                  (passivity_check, lyapunov_delayed) need 1, and then the
                  log holds every step's ports and waves.
    initial       one AgentState per agent to start from instead of zeros
                  with lam = lam0; shapes are checked before the first step.
    """

    step: float = 1e-3
    duration: float = 10.0
    mode: str = "no_delay"
    compensator: CompensatorParams = None
    eta: float = 1.0
    delays: dict = None
    lam0: float = 0.01
    log_every: int = 100
    diag_interval: float = 0.1
    reference: "ReferencePoint" = None
    initial: list = None

    def __post_init__(self):
        if self.compensator is None:
            self.compensator = CompensatorParams(np.array([0.0, 5.0]), np.array([1.0, 10.0]))
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
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")
        if self.diag_interval < self.step:
            raise ValueError("diag_interval must be >= step")

    def delay_for(self, i, j):
        if self.delays is None:
            raise ValueError("delays required for delayed modes")
        if (i, j) in self.delays:
            return float(self.delays[(i, j)])
        raise ValueError(f"no delay specified for directed edge {i}->{j}")


class ReferencePoint:
    """A KKT-validated converged state used as diagnostic reference.

    Carries the common primal point z*, per-agent multipliers xi*, lam*,
    mu*, and derives the per-edge channel offsets for the delayed Lyapunov
    function.  From a run: ReferencePoint(*log.final_stacks()).
    """

    def __init__(self, x, xi, lam, mu):
        x = np.asarray(x, dtype=float)
        self.x = x
        self.z = x.mean(axis=0)
        self.xi = np.asarray(xi, dtype=float)
        self.lam = [np.asarray(v, dtype=float).copy() for v in lam]
        self.mu = [np.asarray(v, dtype=float).copy() for v in mu]

    def validate(self, prob, tol=1e-2):
        """Require every KKT residual field <= tol."""
        res = kkt_residual(prob, self.x, self.xi, self.lam, self.mu)
        if res.max() > tol:
            raise ValueError(f"reference point fails KKT at {tol}: {res.as_dict()}")
        return res

    def edge_offsets(self, i, j, weight, eta):
        """(r*, p*, gamma*, delta*) for the directed pair (i, j).

        r* stacks (z*, xi_i* + xi_j*); p* stacks (a (xi_i* - xi_j*), 0).
        gamma*/delta* are the wave offsets (p* -/+ eta r*) / sqrt(2 eta).
        """
        r_star = np.concatenate([self.z, self.xi[i] + self.xi[j]])
        p_star = np.concatenate(
            [weight * (self.xi[i] - self.xi[j]), np.zeros(self.z.size)]
        )
        sq = np.sqrt(2.0 * eta)
        gamma = (p_star - eta * r_star) / sq
        delta = (p_star + eta * r_star) / sq
        return r_star, p_star, gamma, delta

    def direct_offsets(self, i, j, weight):
        """(r*, p*) for an undelayed direct-exchange port (i, j).

        Without a channel, agent i receives r_ij = (x_j, xi_j), so the
        port settles at r* = (z*, xi_j*) and the same effort offset
        p* = (a (xi_i* - xi_j*), 0) as the delayed case.
        """
        r_star = np.concatenate([self.z, self.xi[j]])
        p_star = np.concatenate(
            [weight * (self.xi[i] - self.xi[j]), np.zeros(self.z.size)]
        )
        return r_star, p_star


@dataclass
class TrajectoryLog:
    """Decimated state/edge/diagnostic series plus run metadata.

    Every series holds one entry per logged sample: every log_every-th step
    and a closing sample at the final state (also after an abort), so
    final_stacks() reads the last sample.  Edge series are keyed by
    directed pair (i, j) = "agent i's view of neighbor j"; the closing
    sample has none.  Wave series exist only for scattering runs.

    delays     quantized channel delays per directed edge (delayed modes)
    passivity  online PassivityReport, set when a reference is attached;
               an aborted run keeps the values reached before the abort
    """

    config: SimConfig
    n_agents: int
    dim: int
    t: list = field(default_factory=list)
    x: list = field(default_factory=list)
    xi: list = field(default_factory=list)
    rho: list = field(default_factory=list)
    lam: list = field(default_factory=list)
    mu: list = field(default_factory=list)
    nu: list = field(default_factory=list)
    zeta: list = field(default_factory=list)
    edge_r: list = field(default_factory=list)
    edge_p: list = field(default_factory=list)
    edge_s_in: list = field(default_factory=list)
    edge_s_out: list = field(default_factory=list)
    kkt: list = field(default_factory=list)
    diag_t: list = field(default_factory=list)
    lyap_direct: list = field(default_factory=list)
    lyap_delayed: list = field(default_factory=list)
    delays: dict = None
    passivity: "PassivityReport" = None
    events: list = field(default_factory=list)
    abort_reason: str = None
    abort_step: int = None

    def final_stacks(self):
        """(x, xi, lam, mu) stacks of the final state (the last sample)."""
        return self.x[-1], self.xi[-1], self.lam[-1], self.mu[-1]

    def to_csv(self, path):
        """Long-format CSV: t, entity_kind, entity_id, variable,
        component_index, value."""
        with open(path, "w", newline="") as f:
            f.write("t,entity_kind,entity_id,variable,component_index,value\n")
            diag_by_t = {}
            for k, tt in enumerate(self.diag_t):
                diag_by_t[tt] = k
            for s, tt in enumerate(self.t):
                ts = repr(float(tt))

                def row(kind, ident, var, comp, val):
                    f.write(f"{ts},{kind},{ident},{var},{comp},{repr(float(val))}\n")

                res = self.kkt[s]
                row("global", "net", "consensus_error", 0, res.consensus)
                for name, val in res.as_dict().items():
                    row("global", "net", f"kkt_{name}", 0, val)
                if tt in diag_by_t:
                    k = diag_by_t[tt]
                    if self.lyap_direct:
                        row("global", "net", "lyapunov_direct", 0, self.lyap_direct[k])
                    if self.lyap_delayed:
                        row("global", "net", "lyapunov_delayed", 0, self.lyap_delayed[k])
                for i in range(self.n_agents):
                    for c in range(self.dim):
                        row("agent", i, "x", c, self.x[s][i, c])
                    for c in range(self.dim):
                        row("agent", i, "xi", c, self.xi[s][i, c])
                    for k in range(self.rho[s].shape[1]):
                        for c in range(self.dim):
                            row("agent", i, f"rho{k}", c, self.rho[s][i, k, c])
                    for c, v in enumerate(self.lam[s][i]):
                        row("agent", i, "lambda", c, v)
                    for c, v in enumerate(self.mu[s][i]):
                        row("agent", i, "mu", c, v)
                    if self.nu[s] is not None:
                        for c in range(self.dim):
                            row("agent", i, "nu", c, self.nu[s][i, c])
                    for c in range(self.dim):
                        row("agent", i, "zeta", c, self.zeta[s][i, c])
                for series, var in (
                    (self.edge_r, "r"),
                    (self.edge_p, "p"),
                    (self.edge_s_in, "s_in"),
                    (self.edge_s_out, "s_out"),
                ):
                    if series[s] is None:
                        continue
                    for (i, j), vec in series[s].items():
                        for c in range(vec.size):
                            row("edge", f"{i}->{j}", var, c, vec[c])


def lyapunov_direct(prob, states, ref, comp):
    """Delay-free Lyapunov value at a list of AgentStates:

    sum_i [ S_c_i + S_g_i ] + (1/2) |xi - xi*|^2
    """
    total = 0.0
    for i, (p, s) in enumerate(zip(prob.local_problems, states)):
        total += compensator_storage(comp, s.rho, ref.z)
        total += multiplier_storage(s.lam, s.mu, ref.lam[i], ref.mu[i])
        total += 0.5 * float(np.sum((s.xi - ref.xi[i]) ** 2))
    return total


def lyapunov_delayed(prob, log, ref, comp, upto=None):
    """Delayed-run Lyapunov value from a full-rate scattering log
    (log_every == 1), at sample upto (default: the last one).

    The agent storages S_i shift xi by 2 xi*; the channel storages are
    rebuilt from the logged waves by the same left-endpoint rectangle rule
    the online accumulator uses.
    """
    cfg = log.config
    if cfg.mode != "scattering":
        raise ValueError("lyapunov_delayed needs a scattering run")
    if cfg.log_every != 1:
        raise ValueError("lyapunov_delayed needs full-rate logging (log_every=1)")
    k = len(log.t) - 1 if upto is None else upto
    total = float(np.sum([
        compensator_storage(comp, log.rho[k][i], ref.z)
        + multiplier_storage(log.lam[k][i], log.mu[k][i], ref.lam[i], ref.mu[i])
        + 0.5 * float(np.sum((log.xi[k][i] - 2.0 * ref.xi[i]) ** 2))
        for i in range(log.n_agents)
    ]))
    s_in, s_out = log.edge_s_in, log.edge_s_out
    for i, j, w in prob.network.edges():
        _, _, gamma, delta = ref.edge_offsets(i, j, w, cfg.eta)
        total += (0.5 * log.delays[(i, j)] * float(gamma @ gamma)
                  + 0.5 * log.delays[(j, i)] * float(delta @ delta))
        acc = 0.0
        for step in range(k):
            acc += float(np.sum((s_out[step][(i, j)] + gamma) ** 2))
            acc -= float(np.sum((s_in[step][(j, i)] + gamma) ** 2))
            acc += float(np.sum((s_out[step][(j, i)] - delta) ** 2))
            acc -= float(np.sum((s_in[step][(i, j)] - delta) ** 2))
        total += 0.5 * cfg.step * acc
    return total


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

    def ok(self, wave_tol=1e-10):
        fine = (
            float(self.compensator_excess.max(initial=-np.inf)) <= 0.0
            and float(self.multiplier_excess.max(initial=-np.inf)) <= 0.0
        )
        coup = self.coupling_excess
        if coup.size and not np.isnan(coup).all():
            fine = fine and float(np.nanmax(coup)) <= 0.0
        return fine and self.wave_identity_max <= wave_tol


def passivity_check(prob, log, ref, comp):
    """Recompute the per-step storage-rate checks from a full-rate log.

    The online path inside simulate() accumulates the same quantities; this
    post-hoc route exists so the two can be cross-checked on short runs.
    """
    if log.config.log_every != 1:
        raise ValueError("passivity_check needs full-rate logging (log_every=1)")
    n = log.n_agents
    dim = log.dim
    h = log.config.step
    net = prob.network
    mode = log.config.mode
    tol = 1e-3
    port_modes = ("no_delay", "scattering")
    ex_comp = np.full(n, -np.inf)
    ex_mult = np.full(n, -np.inf)
    ex_coup = np.full(n, -np.inf if mode in port_modes else np.nan)
    xi_factor = 2.0 if mode == "scattering" else 1.0
    wave_max = 0.0
    offsets = {}
    if mode == "scattering":
        offsets = {
            (i, j): ref.edge_offsets(i, j, w, log.config.eta)[:2]
            for i, j, w in net.directed_edges()
        }
    elif mode == "no_delay":
        offsets = {
            (i, j): ref.direct_offsets(i, j, w)
            for i, j, w in net.directed_edges()
        }
    prev = None
    n_steps = len(log.t)
    for k in range(n_steps):
        sc = np.zeros(n)
        sg = np.zeros(n)
        bnd_comp = np.zeros(n)
        bnd_mult = np.zeros(n)
        bnd_coup = np.full(n, np.nan)
        def_comp = np.zeros(n)
        def_mult = np.zeros(n)
        def_coup = np.zeros(n)
        have_edges = log.edge_r[k] is not None and log.nu[k] is not None
        for i in range(n):
            p = prob.local_problems[i]
            st = AgentState(log.rho[k][i], log.xi[k][i], log.lam[k][i], log.mu[k][i])
            x_i = st.x
            sc[i] = compensator_storage(comp, st.rho, ref.z)
            sg[i] = multiplier_storage(st.lam, st.mu, ref.lam[i], ref.mu[i])
            if log.nu[k] is not None:
                nu = log.nu[k][i]
                bnd_comp[i] = primal_rate_bound(p, st, nu, ref.z)
                xi_dot = np.zeros(dim)
                if have_edges:
                    for j, w in neighbors(net, i):
                        xi_dot += w * (log.edge_r[k][(i, j)][:dim] - x_i)
                deriv = AgentDerivative(
                    comp.c[:, None] * nu - comp.b[:, None] * st.rho,
                    xi_dot,
                    2.0 * st.lam * p.ineq_values(x_i) if p.n_ineq else np.zeros(0),
                    p.eq_values(x_i) if p.n_eq else np.zeros(0),
                    nu,
                )
                def_comp[i], def_mult[i], d_xi = storage_step_defects(
                    comp, st, deriv, ref.lam[i], h
                )
                def_coup[i] = def_comp[i] + def_mult[i] + d_xi
            bnd_mult[i] = multiplier_rate_bound(p, st, ref.z, ref.lam[i], ref.mu[i])
        s_full = None
        if mode in port_modes:
            # S_i needs only states; the rate bound additionally needs the
            # port values (r, p), absent from the closing sample
            s_full = sc + sg + 0.5 * np.sum(
                (log.xi[k] - xi_factor * ref.xi) ** 2, axis=1
            )
            if have_edges:
                bnd_coup[:] = 0.0
                for i in range(n):
                    for j, w in neighbors(net, i):
                        r_star, p_star = offsets[(i, j)]
                        r_bar = log.edge_r[k][(i, j)] - r_star
                        p_bar = log.edge_p[k][(i, j)] - p_star
                        bnd_coup[i] += float(r_bar @ p_bar)
                        if mode == "scattering":
                            wave_max = max(
                                wave_max,
                                abs(
                                    wave_identity_residual(
                                        log.edge_s_in[k][(i, j)],
                                        log.edge_s_out[k][(i, j)],
                                        log.edge_r[k][(i, j)],
                                        log.edge_p[k][(i, j)],
                                    )
                                ),
                            )
        if prev is not None and log.nu[k - 1] is not None:
            psc, psg, psf, pbnd_comp, pbnd_mult, pbnd_coup, pdef_comp, pdef_mult, pdef_coup = prev
            ex_comp = np.maximum(
                ex_comp, (sc - psc) / h - pbnd_comp - pdef_comp - tol * (1.0 + np.abs(psc))
            )
            ex_mult = np.maximum(
                ex_mult, (sg - psg) / h - pbnd_mult - pdef_mult - tol * (1.0 + np.abs(psg))
            )
            if psf is not None and s_full is not None and not np.isnan(pbnd_coup).any():
                ex_coup = np.maximum(
                    ex_coup, (s_full - psf) / h - pbnd_coup - pdef_coup - tol * (1.0 + np.abs(psf))
                )
        prev = (sc, sg, s_full, bnd_comp, bnd_mult, bnd_coup, def_comp, def_mult, def_coup)
    return PassivityReport(ex_comp, ex_mult, ex_coup, wave_max)


def simulate(prob, cfg):
    """Run the networked flow; returns a TrajectoryLog.

    Aborts (multiplier guard, divergence, NaN) are recorded on the log
    (abort_reason, abort_step, events) rather than raised: partial
    trajectories are the expected outcome of the naive-delay scenario.
    """
    net = prob.network
    n = prob.n_agents
    dim = prob.dim
    comp = cfg.compensator
    h = cfg.step
    n_steps = int(round(cfg.duration / h))

    if cfg.initial is not None:
        if len(cfg.initial) != n:
            raise ValueError(
                f"initial: expected {n} agent states, got {len(cfg.initial)}"
            )
        states = [
            AgentState(s.rho.copy(), s.xi.copy(), s.lam.copy(), s.mu.copy())
            for s in cfg.initial
        ]
        for i, (s, p) in enumerate(zip(states, prob.local_problems)):
            for name, arr, shape in (
                ("rho", s.rho, (comp.m, dim)),
                ("xi", s.xi, (dim,)),
                ("lam", s.lam, (p.n_ineq,)),
                ("mu", s.mu, (p.n_eq,)),
            ):
                if arr.shape != shape:
                    raise ValueError(
                        f"initial[{i}].{name}: expected shape {shape}, got {arr.shape}"
                    )
            if s.lam.size and s.lam.min() <= 0.0:
                raise ValueError(
                    f"initial[{i}].lam: inequality multipliers must be positive"
                )
    else:
        states = [
            AgentState.zeros(comp, dim, p.n_ineq, p.n_eq, cfg.lam0)
            for p in prob.local_problems
        ]

    directed = net.directed_edges()
    couplings = {(i, j): CouplingMatrix(w, dim) for i, j, w in directed}
    lines = {}  # lines[(i, j)] carries what i sends to j
    if cfg.mode != "no_delay":
        lines = {
            (i, j): DelayLine(cfg.delay_for(i, j), h, 2 * dim) for i, j, _ in directed
        }
    ends = {}
    if cfg.mode == "scattering":
        ends = {
            (i, j): ChannelEnd(couplings[(i, j)], cfg.eta) for i, j, _ in directed
        }

    log = TrajectoryLog(config=cfg, n_agents=n, dim=dim)
    if lines:
        log.delays = {key: line.delay for key, line in lines.items()}

    ref = cfg.reference
    diag_every = max(1, int(round(cfg.diag_interval / h)))
    diag = None
    if ref is not None:
        diag = _DiagState(prob, ref, comp, cfg, lines)
        log.passivity = PassivityReport(*diag.excess, wave_identity_max=0.0)

    def snapshot(t, derivs, edge_r, edge_p, edge_sin, edge_sout, x_stack, xi_stack):
        log.t.append(t)
        log.x.append(x_stack.copy())
        log.xi.append(xi_stack.copy())
        log.rho.append(np.array([s.rho for s in states]))
        log.lam.append([s.lam.copy() for s in states])
        log.mu.append([s.mu.copy() for s in states])
        log.nu.append(
            np.array([d.nu for d in derivs]) if derivs is not None else None
        )
        log.zeta.append(
            np.array(
                [
                    constraint_force(prob.local_problems[i], states[i], x_stack[i])
                    for i in range(n)
                ]
            )
        )
        log.edge_r.append(edge_r)
        log.edge_p.append(edge_p)
        log.edge_s_in.append(edge_sin)
        log.edge_s_out.append(edge_sout)
        # the scattering loop settles with xi doubled (each end absorbs the
        # midpoint average), so xi/2 is the stationarity certificate there
        xi_cert = 0.5 * xi_stack if cfg.mode == "scattering" else xi_stack
        log.kkt.append(
            kkt_residual(
                prob,
                x_stack,
                xi_cert,
                [s.lam for s in states],
                [s.mu for s in states],
            )
        )

    def abort(kind, detail):
        log.events.append({"step": k, "t": k * h, "kind": kind, "detail": detail})
        log.abort_reason = kind
        log.abort_step = k

    k = 0
    with np.errstate(all="ignore"):  # guards, not warnings, handle blow-ups
        for k in range(n_steps):
            t = k * h
            x_stack = np.array([s.rho.sum(axis=0) for s in states])
            xi_stack = np.array([s.xi for s in states])
            u = np.concatenate([x_stack, xi_stack], axis=1)  # rows [x_i; xi_i]

            # phase 1: the port pair (r, p) of every directed edge i <- j
            edge_r, edge_p, edge_sin, edge_sout = {}, {}, {}, {}
            received = [[] for _ in range(n)]
            want_p = k % cfg.log_every == 0 or (diag is not None and diag.has_ports)
            for i, j, w in directed:
                r = lines[(j, i)].pop(t) if lines else u[j]
                if cfg.mode == "scattering":  # what crossed is j's wave
                    edge_sin[(i, j)] = r
                    r, p = ends[(i, j)].recover(r, x_stack[i], xi_stack[i])
                else:
                    p = couplings[(i, j)].apply(r - u[i]) if want_p else None
                edge_r[(i, j)] = r
                edge_p[(i, j)] = p
                received[i].append((r[:dim], r[dim:], w))

            # phase 2: derivatives from time-t values
            derivs = [
                derivatives(prob.local_problems[i], comp, states[i], received[i])
                for i in range(n)
            ]
            if any(not np.isfinite(d.nu).all() for d in derivs):
                abort("nan", "non-finite derivative")
                # only the delayed modes' r came out of a channel
                snapshot(t, None, edge_r if lines else None, None, None, None,
                         x_stack, xi_stack)
                break

            # phase 3: push what crosses each edge into its delay line
            if lines:
                for i, j, w in directed:
                    sent = u[i]
                    if cfg.mode == "scattering":
                        sent = ends[(i, j)].outgoing_wave(edge_r[(i, j)], edge_p[(i, j)])
                        edge_sout[(i, j)] = sent
                    lines[(i, j)].push(sent, t)

            if diag is not None:
                diag.step(
                    t, states, xi_stack, derivs, edge_r, edge_p,
                    edge_sin, edge_sout, log, k % diag_every == 0,
                )

            if k % cfg.log_every == 0:
                snapshot(t, derivs, edge_r, edge_p, edge_sin or None,
                         edge_sout or None, x_stack, xi_stack)

            # phase 4: barrier commit
            try:
                new_states = [euler_step(states[i], derivs[i], h) for i in range(n)]
            except LambdaGuardError as err:
                abort("lambda_guard", str(err))
                break
            states = new_states
            worst = max(
                max(
                    float(np.abs(s.rho).max(initial=0.0)),
                    float(np.abs(s.xi).max(initial=0.0)),
                    float(np.abs(s.lam).max(initial=0.0)),
                    float(np.abs(s.mu).max(initial=0.0)),
                )
                for s in states
            )
            if not np.isfinite(worst) or worst > DIVERGENCE_LIMIT:
                abort("divergence", f"state magnitude {worst:.3e} "
                                    f"exceeds {DIVERGENCE_LIMIT:.0e}")
                break

    # closing sample at the final state (no derivative information), unless
    # the last sample already holds it (a guard/nan abort on a logged step)
    aborted = log.abort_reason is not None
    if n_steps == 0:
        t_end = 0.0
    elif not aborted:
        t_end = n_steps * h
    elif log.abort_reason == "divergence":
        t_end = (k + 1) * h  # the bad state is the committed one
    else:
        t_end = k * h  # guard/nan aborts leave the pre-step state
    x_stack = np.array([s.rho.sum(axis=0) for s in states])
    xi_stack = np.array([s.xi for s in states])
    if not log.t or log.t[-1] < t_end or n_steps == 0:
        snapshot(t_end, None, None, None, None, None, x_stack, xi_stack)
    if diag is not None and not aborted and n_steps:
        diag.record(t_end, states, xi_stack, log, on_grid=True)
    return log


class _DiagState:
    """Online storage-function diagnostics (one instance per simulate).

    Per-step rate checks compare the forward difference of each storage
    against its certified bound plus the exact explicit-Euler step defect
    (see storage_step_defects); the recorded excess already subtracts the
    1e-3 (1 + |S|) tolerance, so <= 0 means the bound held.  excess rows
    are the compensator, multiplier and coupling checks; the coupling row
    is NaN for naive-delay runs, which have no port interpretation.
    """

    def __init__(self, prob, ref, comp, cfg, lines):
        self.prob = prob
        self.ref = ref
        self.comp = comp
        self.cfg = cfg
        self.has_ports = cfg.mode in ("no_delay", "scattering")
        self.excess = np.full((3, prob.n_agents), -np.inf)
        if not self.has_ports:
            self.excess[2] = np.nan
        self.xi_factor = 2.0 if cfg.mode == "scattering" else 1.0
        self.prev = None
        self.ports = {}  # (r*, p*) per directed port
        self.waves = {}  # (gamma*, delta*) per undirected scattering channel
        self.edge_const = 0.0
        self.acc = 0.0
        for i, j, w in prob.network.directed_edges():
            if cfg.mode == "no_delay":
                self.ports[(i, j)] = ref.direct_offsets(i, j, w)
            elif cfg.mode == "scattering":
                r_star, p_star, gamma, delta = ref.edge_offsets(i, j, w, cfg.eta)
                self.ports[(i, j)] = (r_star, p_star)
                if i < j:
                    self.waves[(i, j)] = (gamma, delta)
                    self.edge_const += 0.5 * lines[(i, j)].delay * float(gamma @ gamma)
                    self.edge_const += 0.5 * lines[(j, i)].delay * float(delta @ delta)

    def record(self, t, states, xi_stack, log, on_grid):
        """Storages at t, the rate-excess update against the previous
        step's bounds, and the Lyapunov samples when t is on the grid.

        Returns the storages (S_c, S_g, S) per agent; S is None when there
        is no coupling check.
        """
        ref, comp = self.ref, self.comp
        h = self.cfg.step
        tol = 1e-3
        n = len(states)
        sc = np.zeros(n)
        sg = np.zeros(n)
        for i, s in enumerate(states):
            sc[i] = compensator_storage(comp, s.rho, ref.z)
            sg[i] = multiplier_storage(s.lam, s.mu, ref.lam[i], ref.mu[i])
        s_full = None
        if not np.isnan(self.excess[2]).all():
            s_full = sc + sg + 0.5 * np.sum(
                (xi_stack - self.xi_factor * ref.xi) ** 2, axis=1
            )
        storages = (sc, sg, s_full)
        if self.prev is not None:
            for ex, s, (ps, bound, defect) in zip(self.excess, storages, self.prev):
                if ps is not None:
                    np.maximum(
                        ex, (s - ps) / h - bound - defect - tol * (1.0 + np.abs(ps)),
                        out=ex,
                    )
        if on_grid:
            log.diag_t.append(t)
            log.lyap_direct.append(
                float(sc.sum() + sg.sum()) + 0.5 * float(np.sum((xi_stack - ref.xi) ** 2))
            )
            if self.cfg.mode == "scattering":
                log.lyap_delayed.append(
                    float(s_full.sum()) + self.edge_const + 0.5 * self.acc
                )
        return storages

    def step(self, t, states, xi_stack, derivs, edge_r, edge_p, edge_sin,
             edge_sout, log, on_grid):
        prob, ref = self.prob, self.ref
        n = len(states)
        h = self.cfg.step
        bnd_comp = np.zeros(n)
        bnd_mult = np.zeros(n)
        bnd_coup = np.full(n, 0.0 if self.has_ports else np.nan)
        def_comp = np.zeros(n)
        def_mult = np.zeros(n)
        def_coup = np.zeros(n)
        for i in range(n):
            p = prob.local_problems[i]
            bnd_comp[i] = primal_rate_bound(p, states[i], derivs[i].nu, ref.z)
            bnd_mult[i] = multiplier_rate_bound(p, states[i], ref.z, ref.lam[i], ref.mu[i])
            def_comp[i], def_mult[i], d_xi = storage_step_defects(
                self.comp, states[i], derivs[i], ref.lam[i], h
            )
            def_coup[i] = def_comp[i] + def_mult[i] + d_xi
        for (i, j), (r_star, p_star) in self.ports.items():
            r, p = edge_r[(i, j)], edge_p[(i, j)]
            bnd_coup[i] += float((r - r_star) @ (p - p_star))
            if edge_sin:
                log.passivity.wave_identity_max = max(
                    log.passivity.wave_identity_max,
                    abs(wave_identity_residual(edge_sin[(i, j)], edge_sout[(i, j)], r, p)),
                )
        storages = self.record(t, states, xi_stack, log, on_grid)
        for (i, j), (gamma, delta) in self.waves.items():
            self.acc += h * float(
                np.sum((edge_sout[(i, j)] + gamma) ** 2)
                - np.sum((edge_sin[(j, i)] + gamma) ** 2)
                + np.sum((edge_sout[(j, i)] - delta) ** 2)
                - np.sum((edge_sin[(i, j)] - delta) ** 2)
            )
        self.prev = tuple(zip(
            storages, (bnd_comp, bnd_mult, bnd_coup), (def_comp, def_mult, def_coup)
        ))


def converged_reference(prob, duration, step=1e-3, compensator=None, lam0=0.01,
                        tol=1e-2, log_every=1000):
    """Run the no-delay flow to convergence and validate the endpoint.

    Returns (reference, log).  Raises when the endpoint misses the KKT
    tolerance; a longer duration is the usual fix.
    """
    cfg = SimConfig(
        step=step,
        duration=duration,
        mode="no_delay",
        compensator=compensator,
        lam0=lam0,
        log_every=log_every,
    )
    log = simulate(prob, cfg)
    if log.abort_reason is not None:
        raise RuntimeError(f"reference run aborted: {log.abort_reason}")
    ref = ReferencePoint(*log.final_stacks())
    ref.validate(prob, tol)
    return ref, log
