"""Simulation engine: stepping, modes, aborts, logs, diagnostics."""

import dataclasses
import errno
import itertools
import json
import math
import os
import signal
import threading

import numpy as np
import pytest

from dcopt import (
    AgentState,
    ReferencePoint,
    SimConfig,
    build_distributed_problem,
    generate_instance,
    kkt_residual,
    lyapunov_delayed,
    passivity_check,
    ring,
    simulate,
)
from dcopt import dynamics, engine
from dcopt.cli import KKT_TOL, build_scenario, compute_reference, main, validate_config
from dcopt.dynamics import CompensatorParams, LambdaGuardError, derivatives, euler_step
from dcopt.engine import TrajectoryLog
from dcopt.graph import Network, _owner_sums
from dcopt.problem import (
    AffineFunction,
    DistributedProblem,
    LocalProblem,
    QuadraticFunction,
    ScalarFunction,
)
from dcopt.scattering import ChannelEnd, CouplingMatrix, DelayLine


def single_agent_problem():
    # f = (x - 3)^2 / 2, unconstrained
    net = Network([[0.0]])
    return DistributedProblem(net, [LocalProblem(QuadraticFunction([[1.0]], [-3.0]))])


def three_agent_quadratic():
    """Consensus on scalar x with pulls toward 1, 2, 6 and mild constraints.

    Optimum x* = 3 (mean of targets); agent 0 carries x <= 5 (inactive) and
    agent 2 carries the redundant equality x - 3 = 0.
    """
    net = ring(3, 2.0)
    locs = [
        LocalProblem(
            QuadraticFunction([[1.0]], [-1.0]),
            inequalities=[AffineFunction([1.0], -5.0)],
        ),
        LocalProblem(QuadraticFunction([[1.0]], [-2.0])),
        LocalProblem(
            QuadraticFunction([[1.0]], [-6.0]),
            equalities=[AffineFunction([1.0], -3.0)],
        ),
    ]
    return DistributedProblem(net, locs)


def ring_matrix(n, weight):
    """The adjacency matrix of ring(n, weight), built here, not read from
    the network."""
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = weight
    return a


def chord_matrix():
    """chord_quadratic's adjacency: edges 0-1 (weight 1.0), 1-2 (2.5), 2-3
    (4.0) and the chord 0-2 (0.5)."""
    a = np.zeros((4, 4))
    for i, j, w in ((0, 1, 1.0), (1, 2, 2.5), (2, 3, 4.0), (0, 2, 0.5)):
        a[i, j] = a[j, i] = w
    return a


def chord_quadratic():
    """three_agent_quadratic's agents and a fourth pulled toward 3 (x* = 3
    still), on a graph that is no ring, chord_matrix()."""
    locs = list(three_agent_quadratic().local_problems)
    locs.append(LocalProblem(QuadraticFunction([[1.0]], [-3.0])))
    return DistributedProblem(Network(chord_matrix()), locs)


def per_edge(net, delay):
    """SimConfig.delays of net: delay(i, j) of each edge i <- j, in the
    order of its edge table."""
    return np.array([delay(i, j) for i, j in zip(net.own.tolist(), net.nbr.tolist())])


def cli_reference(prob):
    """The CLI's reference: the no-delay end state after 40 s, KKT-checked."""
    ref, note = compute_reference(validate_config(None, {"duration": 40.0}), prob)
    assert ref is not None, note
    return ref


def test_sim_config_validation():
    with pytest.raises(ValueError, match="mode"):
        SimConfig(mode="instant")
    with pytest.raises(ValueError, match="step"):
        SimConfig(step=0.0)
    with pytest.raises(ValueError, match="duration"):
        SimConfig(duration=-1.0)
    with pytest.raises(ValueError, match="eta"):
        SimConfig(eta=0.0)
    with pytest.raises(ValueError, match="positive"):
        SimConfig(lam0=0.0)
    with pytest.raises(ValueError, match="log_every"):
        SimConfig(log_every=0)
    # 2.5 would log every 5 steps (k % 2.5 == 0), True every step
    for value in (2.5, True, "10"):
        with pytest.raises(ValueError, match=f"log_every must be an integer, got {value!r}"):
            SimConfig(log_every=value)
    assert SimConfig(log_every=np.int64(3)).log_every == 3
    with pytest.raises(ValueError, match="diag_interval"):
        SimConfig(step=1e-2, diag_interval=1e-3)
    for name, value in (("step", np.nan), ("eta", np.nan), ("lam0", np.nan),
                        ("diag_interval", np.nan), ("duration", np.inf),
                        ("duration", np.nan), ("eta", np.inf)):
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            SimConfig(**{name: value})
    # step counts that overflowed to inf in simulate
    for fields, name in (({"step": 1e-310, "duration": 1e10}, "duration"),
                         ({"step": 1e-310, "duration": 0.0, "diag_interval": 1e10},
                          "diag_interval")):
        with pytest.raises(ValueError, match=fr"{name} is over 2\*\*63 steps of 1e-310 s"):
            SimConfig(**fields)
    # the delays are one array in the order of the network's edge table
    prob = three_agent_quadratic()
    for delays, shape in (([0.2], r"\(1,\)"), ({(0, 1): 0.2}, r"\(\)"),
                          (np.full((6, 1), 0.2), r"\(6, 1\)")):
        with pytest.raises(ValueError, match=fr"delays: expected shape \(6,\), .* got {shape}"):
            simulate(prob, SimConfig(mode="scattering", delays=delays, duration=0.01))
    with pytest.raises(ValueError, match="delays required"):
        simulate(prob, SimConfig(mode="naive_delay", duration=0.01))


def test_single_agent_converges_to_minimum():
    # slowest closed-loop pole is s^2 + 16s + 5 = 0 -> -0.319, so 40 s
    # buys about e^-12.8 of the initial offset
    prob = single_agent_problem()
    log = simulate(prob, SimConfig(duration=40.0, log_every=1000))
    assert log.abort_reason is None
    assert log.events == []
    x, xi, lam, mu = log.final_stacks()
    assert x[0, 0] == pytest.approx(3.0, abs=1e-4)
    assert log.kkt[-1].max() < 1e-4
    # closing sample lands exactly at the duration
    assert log.t[-1] == pytest.approx(40.0)


def test_duration_zero_single_snapshot():
    prob = single_agent_problem()
    log = simulate(prob, SimConfig(duration=0.0))
    assert len(log.t) == 1
    assert log.t[0] == 0.0
    assert_final_state(log, x=0.0)
    assert log.kkt[0].consensus == 0.0


def test_three_agents_reach_consensus_optimum():
    prob = three_agent_quadratic()
    log = simulate(prob, SimConfig(duration=40.0, log_every=1000))
    x, _, _, _ = log.final_stacks()
    assert np.allclose(x, 3.0, atol=1e-4)
    assert log.kkt[-1].max() < 1e-4


def test_determinism_bitwise():
    prob = three_agent_quadratic()

    def run():
        return simulate(prob, SimConfig(duration=0.5, log_every=10))

    a, b = run(), run()
    for s in range(len(a.t)):
        assert np.array_equal(a.x[s], b.x[s])
        assert np.array_equal(a.xi[s], b.xi[s])
        assert np.array_equal(a.rho[s], b.rho[s])


def test_to_csv_byte_identical(tmp_path):
    prob = three_agent_quadratic()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    simulate(prob, SimConfig(duration=0.2, log_every=50)).to_csv(p1)
    simulate(prob, SimConfig(duration=0.2, log_every=50)).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "t,entity_kind,entity_id,variable,component_index,value"


def csv_oracle(prob, log):
    """The log as trajectory.csv text, written row by row with plain nested
    loops over samples, agents, variables, edges and components."""
    lines = ["t,entity_kind,entity_id,variable,component_index,value"]
    diag_by_t = {tt: k for k, tt in enumerate(log.diag_t)}
    for s, tt in enumerate(log.t):
        ts = repr(float(tt))

        def row(kind, ident, var, comp, val):
            lines.append(f"{ts},{kind},{ident},{var},{comp},{repr(float(val))}")

        res = log.kkt[s]
        row("global", "net", "consensus_error", 0, res.consensus)
        for name, val in res.as_dict().items():
            row("global", "net", f"kkt_{name}", 0, val)
        if tt in diag_by_t:
            k = diag_by_t[tt]
            if log.lyap_direct:
                row("global", "net", "lyapunov_direct", 0, log.lyap_direct[k])
            if log.lyap_delayed:
                row("global", "net", "lyapunov_delayed", 0, log.lyap_delayed[k])
        for i in range(prob.n_agents):
            agent = [("x", log.x[s][i]), ("xi", log.xi[s][i])]
            agent += [(f"rho{k}", v) for k, v in enumerate(log.rho[s][i])]
            agent += [("lambda", log.lam[s][prob.ineq_owner == i]),
                      ("mu", log.mu[s][prob.eq_owner == i])]
            if s < len(log.nu):
                agent.append(("nu", log.nu[s][i]))
            agent.append(("zeta", log.zeta[s][i]))
            for var, vec in agent:
                for c, v in enumerate(vec):
                    row("agent", i, var, c, v)
        for series, var in ((log.edge_r, "r"), (log.edge_p, "p"),
                            (log.edge_s_in, "s_in"), (log.edge_s_out, "s_out")):
            if s >= len(series):
                continue
            for i, j, vec in zip(prob.network.own, prob.network.nbr, series[s]):
                for c in range(vec.size):
                    row("edge", f"{i}->{j}", var, c, vec[c])
    return "\n".join(lines) + "\n"


class GradientLeavesDomain(ScalarFunction):
    """(x - 1)^2 / 2 whose gradient is NaN above x = 0.05: an objective
    evaluated outside its domain, which makes the run abort on a NaN."""

    dim = 1
    declared_convex = True

    def value(self, x):
        return 0.5 * float((x[0] - 1.0) ** 2)

    def gradient(self, x):
        return np.array([x[0] - 1.0 if x[0] <= 0.05 else np.nan])


class ValueLeavesDomain(ScalarFunction):
    """x - 4 whose value is NaN above x = 0.05 while its gradient stays 1:
    a constraint evaluated outside its domain, which turns only the
    multiplier derivative non-finite."""

    dim = 1
    declared_convex = True

    def value(self, x):
        return float(x[0] - 4.0) if x[0] <= 0.05 else np.nan

    def gradient(self, x):
        return np.array([1.0])


def test_non_finite_lam_dot_aborts_as_nan():
    # agent 1 passes x = 0.05 at step 3: its constraint value, and so only
    # its lam_dot, turns NaN while nu stays finite; the run must abort as
    # nan there, keep the pre-step state and name the agent and the field
    base = three_agent_quadratic()
    locs = list(base.local_problems)
    locs[1] = LocalProblem(QuadraticFunction([[1.0]], [-2.0]),
                           inequalities=[ValueLeavesDomain()])
    prob = DistributedProblem(base.network, locs)
    log = simulate(prob, SimConfig(duration=1.0, log_every=50))
    assert (log.abort_reason, log.abort_step) == ("nan", 3)
    ev = log.events[0]
    assert ev["agent"] == 1 and np.isnan(ev["value"])
    assert ev["detail"] == "agent 1: non-finite derivative lam_dot (nan)"
    assert log.t[-1] == pytest.approx(0.003)
    assert all(np.isfinite(a).all() for a in log.final_stacks())
    assert log.x[-1][1, 0] > 0.05 and len(log.nu) == len(log.t) - 1


SPECIAL_FLOATS = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-05]


def write_special_floats(log, s):
    """Overwrite sample s of every series with the special floats, cycled
    from a different start per series, and its KKT fields likewise."""
    names = ["x", "xi", "rho", "lam", "mu", "nu", "zeta",
             "edge_r", "edge_p", "edge_s_in", "edge_s_out"]
    for shift, name in enumerate(names):
        series = getattr(log, name)
        series[s] = np.resize(np.roll(SPECIAL_FLOATS, -shift), series[s].shape)
    fields = dataclasses.fields(log.kkt[s])
    log.kkt[s] = dataclasses.replace(
        log.kkt[s], **{f.name: v for f, v in zip(fields, SPECIAL_FLOATS[1:])})


def csv_case(name):
    """(problem, log) of one to_csv oracle case.

    The problem is three_agent_quadratic with two inactive inequalities
    added to agent 1, so two agents own inequality multipliers, and with
    agent 1's objective leaving its domain in the abort case.
    special_floats is the log_every_7 run with special floats written
    into its second sample; matching_n8 is the CLI's N=8 matching LP.
    """
    if name == "matching_n8":
        cfg = validate_config(None, {"agents": 8, "duration": 0.05, "log_every": 7,
                                     "diagnostics": False})
        _, prob, sim = build_scenario(cfg, "scattering")
        return prob, simulate(prob, sim)
    base = three_agent_quadratic()
    objective = QuadraticFunction([[1.0]], [-2.0])
    if name == "naive_delay_abort":
        objective = GradientLeavesDomain()
    locs = list(base.local_problems)
    locs[1] = LocalProblem(objective, inequalities=[AffineFunction([1.0], -4.0),
                                                    AffineFunction([-1.0], -10.0)])
    prob = DistributedProblem(base.network, locs)
    delays = per_edge(prob.network, lambda i, j: 0.004 + 0.001 * (i + j))
    short = simulate(prob, SimConfig(duration=0.5, log_every=500))
    ref = ReferencePoint(*short.final_stacks())
    if name == "no_delay_reference":
        cfg = SimConfig(duration=0.03, log_every=1, diag_interval=0.01, reference=ref)
    elif name == "scattering_reference":
        cfg = scattering_cfg(delays, duration=0.03, log_every=1, diag_interval=0.01,
                             reference=ref)
    elif name == "naive_delay_abort":
        cfg = SimConfig(mode="naive_delay", delays=delays, duration=1.0, log_every=1)
    else:  # log_every_7, special_floats: the closing sample is off the grid
        cfg = scattering_cfg(delays, duration=0.03, log_every=7, diag_interval=0.01,
                             reference=ref)
    log = simulate(prob, cfg)
    if name == "special_floats":
        write_special_floats(log, 1)
    return prob, log


CSV_CASES = ["no_delay_reference", "scattering_reference", "naive_delay_abort",
             "log_every_7", "special_floats", "matching_n8"]


@pytest.mark.parametrize("name", CSV_CASES)
def test_to_csv_matches_row_oracle(tmp_path, name):
    prob, log = csv_case(name)
    path = tmp_path / "trajectory.csv"
    log.to_csv(path)
    text = path.read_text()
    assert text == csv_oracle(prob, log)
    # each case exercises the rows it is there for
    if name == "no_delay_reference":
        assert ",lyapunov_direct," in text and ",lyapunov_delayed," not in text
    elif name == "scattering_reference":
        assert ",lyapunov_delayed," in text and ",s_out," in text
    elif name == "naive_delay_abort":
        assert log.abort_reason == "nan" and len(log.t) > 2
        assert len(log.edge_r) == len(log.t) and len(log.edge_p) == len(log.t) - 1
        assert len(log.nu) == len(log.t) - 1
    elif name == "log_every_7":
        assert log.t[-1] == pytest.approx(0.03) and round(log.t[-2] / 1e-3) % 7 == 0
        assert len(log.edge_r) == len(log.t) - 1 and len(log.diag_t) == 4
    elif name == "special_floats":
        rows = [line.split(",") for line in text.splitlines()
                if line.startswith(repr(float(log.t[1])) + ",")]
        assert {row[5] for row in rows} == {"-0.0", "nan", "inf", "-inf", "5e-324",
                                            "1e+16", "1e-05"}
        assert {row[3] for row in rows} >= {"x", "xi", "rho1", "lambda", "mu", "nu", "zeta",
                                            "r", "p", "s_in", "s_out", "kkt_comp_slack"}
    else:  # matching_n8: the size the benchmark writes, closing sample off grid
        assert (prob.n_agents, prob.dim, len(prob.network.own)) == (8, 64, 16)
        assert log.rho[0].shape[1] == 2
        assert np.bincount(prob.ineq_owner).tolist() == [8] * 8
        assert log.t[-1] == pytest.approx(0.05) and round(log.t[-2] / 1e-3) == 49
        assert len(log.nu) == len(log.edge_s_out) == len(log.t) - 1


@pytest.fixture
def forked_csv(monkeypatch):
    """force(workers): to_csv splits any log over that many CPUs from now
    on; returns the list of the sample bounds each forked child got."""
    forks = []
    fork = engine._fork

    def counted(fn, part, lo, hi):
        forks.append((lo, hi))
        return fork(fn, part, lo, hi)

    def force(workers):
        monkeypatch.setattr(engine, "_CSV_FORK_ROWS", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)),
                            raising=False)
        monkeypatch.setattr(engine, "_fork", counted)
        return forks

    return force


def assert_no_children():
    """No child process of this one, running or unwaited."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_no_leftovers(tmp_path):
    """No part file in tmp_path and no child process of this one."""
    assert not [p.name for p in tmp_path.iterdir() if ".part" in p.name]
    assert_no_children()


@pytest.mark.parametrize("workers", [2, 3, "beyond_samples"])
@pytest.mark.parametrize("name", CSV_CASES)
def test_forked_to_csv_matches_row_oracle(tmp_path, forked_csv, name, workers):
    prob, log = csv_case(name)
    n = len(log.t) + 3 if workers == "beyond_samples" else workers
    forks = forked_csv(n)
    path = tmp_path / "trajectory.csv"
    log.to_csv(path)
    assert path.read_text() == csv_oracle(prob, log)
    # one range per worker, at most one per sample, the first one here
    assert len(forks) == min(n, len(log.t)) - 1
    assert forks[0][0] > 0 and forks[-1][1] == len(log.t)
    assert all(lo < hi for lo, hi in forks)
    assert_no_leftovers(tmp_path)


def test_forked_to_csv_balances_the_repr_cost(tmp_path, forked_csv, paper):
    # the zero start and the zero delay-line history make the early samples
    # mostly zeros, whose repr costs about a seventh of a nonzero value's:
    # the ranges split zeros + 7 nonzeros, not the samples
    cfg, _, _ = paper
    _, prob, sim = build_scenario(dict(cfg, duration=0.6, log_every=6), "scattering")
    log = simulate(prob, sim)
    forked_csv(1)
    log.to_csv(tmp_path / "one.csv")
    forks = forked_csv(2)
    log.to_csv(tmp_path / "two.csv")
    assert (tmp_path / "two.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    [(cut, end)] = forks
    arrays = [[a[k] for name in engine._CSV_SERIES if k < len(a := getattr(log, name))]
              for k in range(len(log.t))]
    cost = np.array([sum(a.size + 6 * np.count_nonzero(a) for a in sample) for sample in arrays])
    nonzero = np.array([sum(np.count_nonzero(a) for a in sample) for sample in arrays])
    half = len(log.t) // 2
    assert end == len(log.t) and cut > half
    assert nonzero[:half].sum() < 0.8 * nonzero[half:].sum()
    # an even split, give or take the sample at the cut
    assert abs(cost[:cut].sum() - cost[cut:].sum()) <= 2 * cost.max()
    assert_no_leftovers(tmp_path)


def test_forked_to_csv_survives_signals(tmp_path, forked_csv):
    # a signal handler run while a part is appended interrupts the copy's
    # system calls; each must resume until every byte is in
    prob, log = csv_case("matching_n8")
    forked_csv(3)
    path = tmp_path / "trajectory.csv"
    expected = csv_oracle(prob, log)
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: None)
    signal.setitimer(signal.ITIMER_REAL, 1e-3, 1e-3)
    try:
        for _ in range(5):
            log.to_csv(path)
            assert path.read_text() == expected
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_leftovers(tmp_path)


class WriterFailed(Exception):
    pass


@pytest.mark.parametrize("where, error", [
    ("child", OSError(errno.ENOSPC, "No space left on device")),
    ("child", WriterFailed("range lost")),
    ("parent", OSError(errno.ENOSPC, "No space left on device")),
    ("killed", None),  # ends without a word: its part is incomplete
])
def test_forked_to_csv_failure_leaves_nothing(tmp_path, forked_csv, capfd, monkeypatch,
                                              where, error):
    _, log = csv_case("log_every_7")
    forks = forked_csv(3)
    write = TrajectoryLog._write_samples

    def failing(self, f, lo, hi):
        if where == "killed" and lo > 0:
            os.kill(os.getpid(), signal.SIGKILL)
        if where != "killed" and (lo > 0) == (where == "child"):
            raise error
        write(self, f, lo, hi)

    monkeypatch.setattr(TrajectoryLog, "_write_samples", failing)
    expected = ChildProcessError if where == "killed" else type(error)
    with pytest.raises(expected) as info:
        log.to_csv(tmp_path / "trajectory.csv")
    if where == "child" and isinstance(error, OSError):
        assert info.value.errno == errno.ENOSPC
    assert len(forks) == 2
    assert_no_leftovers(tmp_path)
    # the children wrote nothing to the terminal
    assert capfd.readouterr() == ("", "")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open fds in /proc")
def test_forked_to_csv_fork_failure_leaves_nothing(tmp_path, forked_csv, monkeypatch):
    # the second of two forks fails: its range is written here, the first
    # child is waited for, and neither a part nor a pipe end stays open
    prob, log = csv_case("log_every_7")
    forks = forked_csv(3)
    fork = os.fork

    def second_fails():
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    fds = len(os.listdir("/proc/self/fd"))
    log.to_csv(tmp_path / "trajectory.csv")
    assert (tmp_path / "trajectory.csv").read_text() == csv_oracle(prob, log)
    assert len(forks) == 2
    assert len(os.listdir("/proc/self/fd")) == fds
    assert_no_leftovers(tmp_path)


@pytest.mark.parametrize("workers", [2, 3])
def test_cli_writes_the_ranges_of_failed_forks_here(tmp_path, monkeypatch, workers):
    # every fork fails (EAGAIN under a process limit): this process writes
    # each range into its part, so the file is the one writer's, no part is
    # left and the CLI exits 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"agents": 3, "duration": 0.05, "log_every": 1}))

    def cli_run(out):
        return main(["--scenario", "scattering", "--config", str(config),
                     "--out", str(tmp_path / out)])

    monkeypatch.setattr(engine, "_CSV_FORK_ROWS", 0)
    monkeypatch.setattr(engine, "_fork_cpus", lambda: 1)
    assert cli_run("one_writer") == 0
    failed = []

    def fails(fn, *args):
        failed.append(args)
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(engine, "_fork_cpus", lambda: workers)
    monkeypatch.setattr(engine, "_fork", fails)
    assert cli_run("failed_forks") == 0
    assert len(failed) == workers - 1
    written = tmp_path / "failed_forks" / "trajectory.csv"
    assert written.read_bytes() == (tmp_path / "one_writer" / "trajectory.csv").read_bytes()
    assert_no_leftovers(tmp_path / "failed_forks")


def test_forked_to_csv_opens_path_first(tmp_path, forked_csv):
    _, log = csv_case("log_every_7")
    forks = forked_csv(3)
    with pytest.raises(FileNotFoundError):
        log.to_csv(tmp_path / "missing" / "trajectory.csv")
    assert forks == []


def test_to_csv_with_a_live_thread_runs_in_one_process(tmp_path, forked_csv):
    prob, log = csv_case("log_every_7")
    forks = forked_csv(3)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        log.to_csv(tmp_path / "trajectory.csv")
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert (tmp_path / "trajectory.csv").read_text() == csv_oracle(prob, log)


def assert_final_state(log, x, lam=None):
    """final_stacks() is the closing sample and holds the expected state."""
    stacks = log.final_stacks()
    for got, series in zip(stacks, (log.x, log.xi, log.lam, log.mu)):
        if series[-1].size:
            assert np.shares_memory(got, series[-1]) and np.array_equal(got, series[-1])
    np.testing.assert_allclose(stacks[0], np.full((1, 1), x), rtol=1e-12)
    if lam is not None:
        np.testing.assert_allclose(stacks[2][0], [lam], rtol=1e-12)


def test_lambda_guard_aborts_run():
    # g(x) = x - 500 at x ~ 0 gives lam_dot = -1000 lam: one Euler step at
    # h = 1e-3 lands exactly on zero, which the guard must reject
    net = Network([[0.0]])
    loc = LocalProblem(
        QuadraticFunction([[1.0]]), inequalities=[AffineFunction([1.0], -500.0)]
    )
    prob = DistributedProblem(net, [loc])
    log = simulate(prob, SimConfig(duration=1.0))
    assert log.abort_reason == "lambda_guard"
    assert log.abort_step == 0
    ev = log.events[0]
    assert ev["kind"] == "lambda_guard"
    assert ev["agent"] == 0 and ev["value"] == 0.0
    assert "agent 0: inequality multiplier 0 would step to 0.000e+00" in ev["detail"]
    # final snapshot is the pre-step state at t = 0
    assert log.t[-1] == 0.0
    assert_final_state(log, x=0.0, lam=0.01)
    # on a network the event names the agent and its own multiplier index:
    # the second inequality of agent 2 is entry 2 of the concatenated lam
    idle = AffineFunction([-1.0], -1.0)  # -x - 1 <= 0, slack at x = 0
    locs = [
        LocalProblem(QuadraticFunction([[1.0]]), inequalities=[idle]),
        LocalProblem(QuadraticFunction([[1.0]])),
        LocalProblem(QuadraticFunction([[1.0]]),
                     inequalities=[idle, AffineFunction([1.0], -500.0)]),
    ]
    log = simulate(DistributedProblem(ring(3, 1.0), locs), SimConfig(duration=1.0))
    ev = log.events[0]
    assert (log.abort_reason, log.abort_step) == ("lambda_guard", 0)
    assert ev["agent"] == 2 and ev["value"] == 0.0
    assert "agent 2: inequality multiplier 1 would" in ev["detail"]


def test_lambda_guard_off_the_log_grid():
    # f = x^2 / 2 + 100 x drives x to about -11 in the first step
    # (h = 0.01), so g = x - 49 sends lam below zero at step 1, which is not
    # a log step: the closing sample at t = h holds the pre-step state
    net = Network([[0.0]])
    loc = LocalProblem(
        QuadraticFunction([[1.0]], [100.0]), inequalities=[AffineFunction([1.0], -49.0)]
    )
    prob = DistributedProblem(net, [loc])
    log = simulate(prob, SimConfig(step=0.01, diag_interval=0.01, duration=1.0,
                                   log_every=7))
    assert log.abort_reason == "lambda_guard"
    assert log.abort_step == 1
    ev = log.events[0]
    assert ev["agent"] == 0 and ev["step"] == 1
    # lam after step 1: lam1 (1 + 2 h g(x1)) with g(x1) = x1 - 49 < -50
    assert ev["value"] <= 0.0
    assert f"would step to {ev['value']:.3e}" in ev["detail"]
    assert log.t.tolist() == [0.0, pytest.approx(0.01)]
    # after step 0: nu = -100 - lam^2, x = h (1 + 10) nu, lam (1 + 2 h g(0))
    assert_final_state(log, x=0.01 * 11.0 * (-100.0 - 1e-4),
                       lam=0.01 * (1.0 + 0.02 * -49.0))


def test_divergence_guard_aborts_run():
    # start just beyond the magnitude limit: the first committed state is
    # still out of range, so the guard fires at step 0
    prob = single_agent_problem()
    init = AgentState(rho=np.array([[[2e9], [0.0]]]), xi=np.zeros((1, 1)),
                      lam=np.zeros(0), mu=np.zeros(0))
    log = simulate(prob, SimConfig(duration=1.0, initial=init))
    assert log.abort_reason == "divergence"
    assert log.abort_step == 0
    ev = log.events[-1]
    assert ev["kind"] == "divergence"
    # the largest entry is rho_1 after one step: 2e9 + h (3 - 2e9)
    assert ev["agent"] == 0
    assert ev["value"] == pytest.approx(2e9 + 1e-3 * (3.0 - 2e9), rel=1e-12)
    assert "agent 0: rho magnitude" in ev["detail"] and "exceeds" in ev["detail"]
    # the bad state is the committed one, so the closing sample is at t = h
    assert log.t[-1] == pytest.approx(1e-3)
    # one Euler step from rho = (2e9, 0) with nu = 3 - 2e9
    assert_final_state(log, x=2e9 + 1e-3 * 11.0 * (3.0 - 2e9))
    # on a network the event names the agent and field of the largest entry
    prob = three_agent_quadratic()
    init = AgentState.zeros(SimConfig().compensator, prob)
    init.xi[1] = -5e9
    log = simulate(prob, SimConfig(duration=1.0, initial=init))
    ev = log.events[-1]
    assert (log.abort_reason, ev["agent"]) == ("divergence", 1)
    assert ev["value"] == pytest.approx(5e9, rel=1e-3)
    assert "agent 1: xi magnitude" in ev["detail"]


def old_diverged(z):
    """The divergence decision as one abs-max over z."""
    return not np.maximum.reduce(np.abs(z)) <= engine.DIVERGENCE_LIMIT


LIMIT = engine.DIVERGENCE_LIMIT
BOUNDARY_STATES = [  # (z, trips, decided by the exact abs-max)
    (np.array([LIMIT]), False, True),
    (np.array([0.0, -LIMIT, 1.0]), False, True),
    (np.array([np.nextafter(LIMIT, np.inf)]), True, True),
    (np.array([1.0, -np.nextafter(LIMIT, np.inf)]), True, True),
    # each square is below 1e18, their sum past the dot product's bound
    (np.full(8, 0.99 * LIMIT), False, True),
    (np.array([0.0, np.inf]), True, True),
    (np.array([-np.inf, 0.0]), True, True),
    (np.array([np.nan, 1.0]), True, True),
    (np.array([1e200, 0.0]), True, True),  # its square overflows to inf
    (np.zeros(3), False, False),
    (np.array([0.49 * LIMIT, -1.0]), False, False),
]


@pytest.mark.parametrize("z, trips, exact", BOUNDARY_STATES)
def test_divergence_decision_at_the_limit(z, trips, exact):
    mags = np.full_like(z, -1.0)
    with np.errstate(all="ignore"):
        assert engine._diverged(z, mags) == old_diverged(z) == trips
        # the linear map's batched fast test passes z as the dot product
        # does, in a batch with a zero row
        batch = np.stack([z, np.zeros_like(z)])
        fast = dynamics._guards(batch, slice(0), engine._SQUARES_BOUND)[0]
        assert fast.tolist() == [not exact, True]
    # the exact path writes |z| into mags; the dot product alone leaves it
    assert (mags != -1.0).any() == exact


def test_divergence_decision_on_random_states():
    rng = np.random.default_rng(0)
    for scale in (1.0, 1e4, 1e8, 2e8, 5e8, 1e9, 2e9, 1e10):
        for size in (1, 8, 125, 400):
            z = rng.standard_normal(size) * scale
            assert engine._diverged(z, np.empty_like(z)) == old_diverged(z)


def test_nan_guard_aborts_before_commit():
    # a finite start (a non-finite one is rejected up front) whose stages
    # sum to x = inf
    prob = single_agent_problem()
    init = AgentState(rho=np.array([[[1e308], [1e308]]]), xi=np.zeros((1, 1)),
                      lam=np.zeros(0), mu=np.zeros(0))
    log = simulate(prob, SimConfig(duration=1.0, initial=init))
    assert log.abort_reason == "nan"
    ev = log.events[0]
    assert ev["kind"] == "nan"
    # rho_dot_0 = c_0 nu = -(x - 3) at x = inf, the first non-finite entry
    assert ev["agent"] == 0 and ev["value"] == -np.inf
    assert ev["detail"] == "agent 0: non-finite derivative rho_dot (-inf)"
    assert log.t[-1] == 0.0
    assert_final_state(log, x=np.inf)


# The guards of one step rank nan > lambda_guard > divergence: a nan abort
# keeps the pre-step state and logs nothing of the step, a guard abort keeps
# the pre-step state after the step's sample, a divergence commits the step.


def test_nan_wins_over_lambda_guard():
    # at x = 0.1 the objective's gradient is NaN (rho_dot) while g = x - 600
    # sends lam from 0.01 to 0.01 (1 + 2 h g) < 0 with a finite lam_dot
    loc = LocalProblem(GradientLeavesDomain(), inequalities=[AffineFunction([1.0], -600.0)])
    prob = DistributedProblem(Network([[0.0]]), [loc])
    init = AgentState(rho=np.array([[[0.1], [0.0]]]), xi=np.zeros((1, 1)),
                      lam=np.array([0.01]), mu=np.zeros(0))
    log = simulate(prob, SimConfig(duration=1.0, initial=init))
    assert (log.abort_reason, log.abort_step) == ("nan", 0)
    assert log.events[0]["detail"] == "agent 0: non-finite derivative rho_dot (nan)"
    assert log.t.tolist() == [0.0] and len(log.nu) == 0
    assert_final_state(log, x=0.1, lam=0.01)


def test_lambda_guard_wins_over_divergence():
    # x = 2e9 is past the divergence limit before and after the step, and
    # g = -x - 600 sends lam below zero in the same step
    loc = LocalProblem(QuadraticFunction([[1.0]], [-3.0]),
                       inequalities=[AffineFunction([-1.0], -600.0)])
    prob = DistributedProblem(Network([[0.0]]), [loc])
    init = AgentState(rho=np.array([[[2e9], [0.0]]]), xi=np.zeros((1, 1)),
                      lam=np.array([0.01]), mu=np.zeros(0))
    log = simulate(prob, SimConfig(duration=1.0, initial=init))
    assert (log.abort_reason, log.abort_step) == ("lambda_guard", 0)
    assert [ev["kind"] for ev in log.events] == ["lambda_guard"]
    # the step's sample is logged, and it is the final state
    assert log.t.tolist() == [0.0] and len(log.nu) == 1
    assert_final_state(log, x=2e9, lam=0.01)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_update_aborts_as_divergence():
    # a gradient of 1e307 gives the finite rho_dot = (-1e307, -1e308), but
    # h = 10 overflows the second stage to -inf: a divergence, not a nan,
    # and the linear map's per-run constants, h c_k (-grad f) among them,
    # overflow too, with no warning
    prob = DistributedProblem(Network([[0.0]]), [LocalProblem(AffineFunction([1e307]))])
    log = simulate(prob, SimConfig(step=10.0, diag_interval=10.0, duration=100.0))
    assert (log.abort_reason, log.abort_step) == ("divergence", 0)
    ev = log.events[0]
    assert ev["agent"] == 0 and ev["value"] == np.inf
    assert ev["detail"] == "agent 0: rho magnitude inf exceeds 1e+09"
    # the committed state closes the log at t = h
    assert log.t.tolist() == [0.0, 10.0]
    np.testing.assert_array_equal(log.rho[-1], [[[-1e308], [-np.inf]]])
    assert_final_state(log, x=-np.inf)


def store_case(mode, ending):
    """A run of three_agent_quadratic's network in mode that ends as
    ending: completed, lambda_guard (on a logged step), nan or divergence."""
    base = three_agent_quadratic()
    delays = np.full(base.network.own.size, 0.02)
    fields = {"mode": mode, "delays": delays, "step": 0.01, "diag_interval": 0.01}
    prob = base
    if ending == "completed":  # the closing sample is off the log grid
        fields.update(duration=0.1, log_every=3)
    elif ending == "lambda_guard":  # as in test_lambda_guard_off_the_log_grid
        loc = LocalProblem(QuadraticFunction([[1.0]], [100.0]),
                           inequalities=[AffineFunction([1.0], -49.0)])
        prob = DistributedProblem(base.network, [loc] * 3)
        fields.update(duration=1.0, log_every=1)
    elif ending == "nan":  # agent 1's gradient turns NaN past x = 0.05
        locs = list(base.local_problems)
        locs[1] = LocalProblem(GradientLeavesDomain())
        prob = DistributedProblem(base.network, locs)
        fields.update(duration=1.0, log_every=2)
    else:  # a xi beyond the limit before and after step 0
        init = AgentState.zeros(SimConfig().compensator, base)
        init.xi[1] = -5e9
        fields.update(duration=1.0, log_every=4, initial=init)
    log = simulate(prob, SimConfig(**fields))
    assert log.abort_reason == (None if ending == "completed" else ending)
    return prob, log


@pytest.mark.parametrize("ending", ["completed", "lambda_guard", "nan", "divergence"])
@pytest.mark.parametrize("mode", engine.MODES)
def test_log_store_layout(mode, ending):
    # every series is one array of rows; nu and the edge series hold the
    # samples a step followed, first; no entry of the log is None
    prob, log = store_case(mode, ending)
    samples = len(log.t)
    n, d, edges, m = prob.n_agents, prob.dim, prob.network.own.size, 2
    stepped = samples - (ending != "lambda_guard")  # all but a closing or nan sample
    rows = {"t": (samples,), "x": (samples, n, d), "xi": (samples, n, d),
            "rho": (samples, n, m, d), "lam": (samples, prob.ineq_owner.size),
            "mu": (samples, prob.eq_owner.size), "zeta": (samples, n, d),
            "nu": (stepped, n, d), "edge_p": (stepped, edges, 2 * d),
            "edge_r": (stepped + (ending == "nan" and mode != "no_delay"), edges, 2 * d)}
    waves = stepped if mode == "scattering" else 0
    rows.update(edge_s_in=(waves, edges, 2 * d), edge_s_out=(waves, edges, 2 * d))
    for name, shape in rows.items():
        series = getattr(log, name)
        assert isinstance(series, np.ndarray) and series.dtype == float, name
        assert series.shape == shape, name
    if ending == "completed":
        assert samples == -(-10 // 3) + 1 and log.t[-1] == pytest.approx(0.1)
    elif ending == "lambda_guard":
        assert log.abort_step == samples - 1 > 0
    for s in range(samples):
        np.testing.assert_array_equal(log.x[s], np.add.reduce(log.rho[s], axis=-2))
    for name, value in vars(log).items():
        if isinstance(value, list):
            assert all(entry is not None for entry in value), name
    assert len(log.kkt) == samples


def two_agent_integrator_run(mode):
    """Two agents on one edge of weight 1, pure integrator, f = 0; agent 0
    starts at x = 1, agent 1 at 0; step 0.1, one-step delays, full-rate log."""
    net = ring(2, 1.0)
    loc = LocalProblem(AffineFunction([0.0]))
    prob = DistributedProblem(net, [loc, loc])
    comp = CompensatorParams.pure_integrator()
    init = AgentState(rho=np.array([[[1.0]], [[0.0]]]), xi=np.zeros((2, 1)),
                      lam=np.zeros(0), mu=np.zeros(0))
    cfg = SimConfig(step=0.1, duration=0.3, mode=mode, delays=np.array([0.1, 0.1]),
                    compensator=comp, log_every=1, diag_interval=0.1,
                    initial=init)
    return simulate(prob, cfg)


def assert_logged_ports(log, lag):
    """Each logged r_ij is agent j's logged [x; xi] from lag samples earlier
    (zeros before that), and p_ij = E (r_ij - [x_i; xi_i])."""
    e = CouplingMatrix(1.0, 1)
    u = [np.concatenate([x, xi], axis=1) for x, xi in zip(log.x, log.xi)]
    net = log.problem.network
    assert (net.own.tolist(), net.nbr.tolist()) == ([0, 1], [1, 0])
    for s in range(len(log.t) - 1):  # the closing sample has no ports
        assert log.edge_r[s].shape == log.edge_p[s].shape == (2, 2)
        for i, j, r, p in zip(net.own, net.nbr, log.edge_r[s], log.edge_p[s]):
            want = u[s - lag][j] if s >= lag else np.zeros(2)
            assert np.array_equal(r, want)
            assert np.array_equal(p, np.matmul(e.blocks, (r - u[s][i]).reshape(2, 1)).ravel())
    assert len(log.edge_r) == len(log.edge_p) == len(log.t) - 1


def test_naive_delay_reads_delayed_states():
    # agent 1 must see agent 0's t - 0.1 state, zeros before the line fills
    log = two_agent_integrator_run("naive_delay")
    x = np.array([s[:, 0] for s in log.x])  # (samples, agents)
    # t=0: both see zero history: nu_0 = (0-1), nu_1 = 0
    assert x[1] == pytest.approx([0.9, 0.0])
    # t=0.1: agent 1 sees x0(0) = 1: nu_1 = 1; agent 0 sees x1(0) = 0
    #   nu_0 = (0 - 0.9) - (0 - xi0), xi0(0.1) = -0.1: nu_0 = -1.0
    assert x[2] == pytest.approx([0.8, 0.1])
    assert_logged_ports(log, lag=1)


def test_no_delay_logs_current_ports():
    log = two_agent_integrator_run("no_delay")
    # t=0: nu_0 = 0 - 1, nu_1 = 1 - 0
    assert np.array([s[:, 0] for s in log.x])[1] == pytest.approx([0.9, 0.1])
    assert_logged_ports(log, lag=0)


def test_nan_event_names_first_non_finite_agent():
    # agent 2 starts at x = inf (two finite stages whose sum overflows); on
    # the ring 0-1-2-3 only agents 1, 2 and 3 see it in the step-0 efforts,
    # so the event names agent 1: an edge's effort must not reach agents
    # that do not own the edge
    prob = DistributedProblem(
        ring(4, 1.0), [LocalProblem(QuadraticFunction([[1.0]])) for _ in range(4)]
    )
    init = AgentState.zeros(SimConfig().compensator, prob)
    init.rho[2, :, 0] = 1e308
    log = simulate(prob, SimConfig(duration=0.01, initial=init))
    assert log.abort_reason == "nan" and log.abort_step == 0
    event = log.events[0]
    assert event["agent"] == 1
    assert event["detail"].startswith("agent 1: non-finite derivative")


def test_affine_path_keeps_a_non_finite_value_with_its_agent():
    # the same start on the matching LP, whose local terms take the affine
    # row-table kernels: agent 2's rows read x_2 = inf in their nonzero
    # columns only (its values are inf, or NaN where +inf and -inf add) and
    # must not reach agent 0, whose neighbors 1 and 3 are still finite at
    # step 0
    prob = build_distributed_problem(generate_instance(5, n=4), ring(4, 4.0))
    assert prob._affine is not None
    init = AgentState.zeros(SimConfig().compensator, prob)
    init.rho[2] = 1e308
    log = simulate(prob, SimConfig(duration=0.01, initial=init))
    assert log.abort_reason == "nan" and log.abort_step == 0
    event = log.events[0]
    assert event["agent"] == 1
    assert event["detail"].startswith("agent 1: non-finite derivative")


def test_edge_sums_keep_rows_and_agents_apart():
    # a block of edge rows (steps, edges, width) sums row by row into the
    # receiving agents: a NaN reaches one agent of one step only
    own = ring(4, 1.0).own
    rows = np.arange(3 * 8 * 2, dtype=float).reshape(3, 8, 2)
    rows[1, 5, 0] = np.nan
    block = _owner_sums(own, 4, rows, 1)
    assert block.shape == (3, 4, 2)
    for k in range(3):
        np.testing.assert_array_equal(block[k], _owner_sums(own, 4, rows[k]))
    assert np.argwhere(np.isnan(block)).tolist() == [[1, int(own[5]), 0]]


def test_initial_states_checked_before_first_step():
    prob = three_agent_quadratic()  # dim 1, agent 0 has one inequality
    comp = SimConfig().compensator

    def state(**fields):
        # the constructor packs any shapes; assigning a field would refuse
        # a wrong one before simulate() sees it
        zeros = AgentState.zeros(comp, prob)
        return AgentState(**{name: fields.get(name, getattr(zeros, name))
                             for name in ("rho", "xi", "lam", "mu")})

    for init, msg in (
        (state(rho=np.zeros((4, 2, 1))),
         r"initial\.rho: expected shape \(3, 2, 1\), got \(4, 2, 1\)"),
        (state(rho=np.zeros((3, 2, 2))), r"initial\.rho: expected shape \(3, 2, 1\)"),
        (state(xi=np.zeros(3)), r"initial\.xi: expected shape \(3, 1\), got \(3,\)"),
        (state(lam=np.zeros(2)), r"initial\.lam: expected shape \(1,\), got \(2,\)"),
        (state(mu=np.zeros(0)), r"initial\.mu: expected shape \(1,\), got \(0,\)"),
        (state(lam=np.array([0.0])),
         r"initial\.lam: .* must be positive \(agent 0, multiplier 0\)"),
        # a non-finite entry names its field, its agent and its value, not
        # a neighbour that sees it in the first step
        (state(rho=np.array([[[0.0], [0.0]], [[0.0], [0.0]], [[0.0], [np.inf]]])),
         r"initial\.rho: non-finite value inf \(agent 2\)"),
        (state(xi=np.array([[0.0], [np.nan], [0.0]])),
         r"initial\.xi: non-finite value nan \(agent 1\)"),
        (state(lam=np.array([-np.inf])), r"initial\.lam: non-finite value -inf \(agent 0\)"),
        (state(mu=np.array([np.nan])), r"initial\.mu: non-finite value nan \(agent 2\)"),
    ):
        with pytest.raises(ValueError, match=msg):
            simulate(prob, SimConfig(duration=0.1, initial=init))
    with pytest.raises(TypeError, match="one stacked AgentState"):
        simulate(prob, SimConfig(duration=0.1, initial=[state()] * 3))
    # the run starts from a copy: the caller's arrays are neither logged
    # nor written
    init = state(xi=np.array([[1.0], [0.0], [0.0]]))
    log = simulate(prob, SimConfig(duration=0.01, log_every=1, initial=init))
    assert not np.shares_memory(log.xi, init.xi)
    assert np.array_equal(log.xi[0], init.xi)


def test_reference_point_offsets():
    ref = ReferencePoint(
        x=np.array([[1.0], [1.0]]),
        xi=np.array([[2.0], [3.0]]),
        lam=np.zeros(0),
        mu=np.zeros(0),
    )
    assert ref.z == pytest.approx([1.0])
    net = ring(2, 4.0)  # row 0 is the edge 0 <- 1, row 1 its reverse
    r_star, p_star, gamma, delta = ref.port_offsets(net, "scattering", 1.0)
    assert r_star.tolist() == [[1.0, 5.0], [1.0, 5.0]]
    assert p_star.tolist() == [[-4.0, 0.0], [4.0, 0.0]]
    sq = np.sqrt(2.0)
    assert gamma[0] == pytest.approx([(-4.0 - 1.0) / sq, (0.0 - 5.0) / sq])
    assert delta[0] == pytest.approx([(-4.0 + 1.0) / sq, (0.0 + 5.0) / sq])
    for mode in ("no_delay", "naive_delay"):
        r_d, p_d, gamma, delta = ref.port_offsets(net, mode, 1.0)
        assert r_d.tolist() == [[1.0, 3.0], [1.0, 2.0]]
        assert p_d.tolist() == p_star.tolist()
        assert gamma is None and delta is None


def test_reference_checked_before_first_step():
    # a reference from the three-agent run attached to a four-agent one
    # used to die inside the online diagnostics with an IndexError
    three = ReferencePoint(*simulate(three_agent_quadratic(), SimConfig(duration=0.1))
                           .final_stacks())
    prob = chord_quadratic()  # four agents, one inequality and one equality
    x, xi = np.zeros((4, 1)), np.zeros((4, 1))
    for ref, msg in (
        (three, r"reference\.x: expected shape \(4, 1\), got \(3, 1\)"),
        (ReferencePoint(x, np.zeros((1, 4)), np.ones(1), np.zeros(1)),
         r"reference\.xi: expected shape \(4, 1\), got \(1, 4\)"),
        (ReferencePoint(x, xi, np.ones(2), np.zeros(1)),
         r"reference\.lam: expected shape \(1,\), got \(2,\)"),
        (ReferencePoint(x, xi, np.ones(1), np.array([np.nan])),
         r"reference\.mu: non-finite value nan \(agent 2\)"),
    ):
        with pytest.raises(ValueError, match=msg):
            simulate(prob, SimConfig(duration=0.1, reference=ref))


def test_reference_point_residuals_and_copies():
    def residual(prob, ref):
        return kkt_residual(prob, ref.x, ref.xi, ref.lam, ref.mu)

    prob = single_agent_problem()
    good = ReferencePoint(np.array([[3.0]]), np.zeros((1, 1)), np.zeros(0), np.zeros(0))
    assert residual(prob, good).max() == pytest.approx(0.0)
    bad = ReferencePoint(np.array([[0.0]]), np.zeros((1, 1)), np.zeros(0), np.zeros(0))
    assert residual(prob, bad).stationarity == 3.0
    # the multipliers are one vector in the problem's layout
    wrong = ReferencePoint(np.array([[3.0]]), np.zeros((1, 1)), np.zeros(1), np.zeros(0))
    with pytest.raises(ValueError, match=r"lam: expected shape \(0,\), got \(1,\)"):
        residual(prob, wrong)
    # a NaN point reads NaN, so it fails any "max <= tol" check
    prob = three_agent_quadratic()
    nan = ReferencePoint(np.full((3, 1), np.nan), np.zeros((3, 1)), np.ones(1), np.zeros(1))
    assert np.isnan(residual(prob, nan).max())
    # a reference from a run holds copies, not rows of the run's whole log
    log = simulate(prob, SimConfig(duration=0.01, log_every=1))
    ref = ReferencePoint(*log.final_stacks())
    for name in ("x", "xi", "lam", "mu"):
        assert not np.shares_memory(getattr(ref, name), getattr(log, name)), name


def test_lyapunov_direct_zero_at_reference():
    # the online direct-Lyapunov sample at t = 0 of a run that starts at
    # the reference state is zero, and positive from a perturbed start
    prob = three_agent_quadratic()
    ref = cli_reference(prob)
    comp = SimConfig().compensator
    rho = np.zeros((3, comp.m, 1))
    rho[:, 0] = ref.z

    def first_sample(rho):
        init = AgentState(rho=rho, xi=ref.xi.copy(),
                          lam=np.maximum(ref.lam, 1e-12), mu=ref.mu)
        cfg = SimConfig(duration=0.01, reference=ref, initial=init)
        return simulate(prob, cfg).lyap_direct[0]

    assert first_sample(rho) == pytest.approx(0.0, abs=1e-9)
    rho[1, 0] += 0.5
    assert first_sample(rho) > 0.0


def wave_exchange(a_ij, eta, s_in, u_i):
    """(p, s_out) at agent i's end of its channel to j, from the incoming
    wave s_in and u_i = [x_i; xi_i]: r solves (E + eta I) r = sqrt(2 eta)
    s_in + E u_i with E = [[a_ij, -a_ij], [a_ij, 0]] (x) I_n, p = E (r - u_i)
    and s_out = (eta r - p) / sqrt(2 eta), as the paper writes them."""
    dim = u_i.size // 2
    e = np.kron([[a_ij, -a_ij], [a_ij, 0.0]], np.eye(dim))
    r = np.linalg.solve(e + eta * np.eye(2 * dim), np.sqrt(2.0 * eta) * s_in + e @ u_i)
    p = e @ (r - u_i)
    return p, (eta * r - p) / np.sqrt(2.0 * eta)


def direct_primal_dual_run(prob, a, duration, step, lam0=0.01, comp=None,
                           delay_steps=None, eta=None):
    """Primal-dual gradient flow through m compensator stages, Euler-stepped:
    the engine's target in its three modes.

    Independent of the engine: keeps raw per-agent (rho, xi, lam, mu) arrays
    and walks the textbook field directly over a, the dense adjacency
    matrix the test built prob's network from, not the network's edge
    table.  comp defaults to the pure integrator (m = 1), the plain
    primal-dual flow.  delay_steps maps each directed edge (i, j) to the
    whole steps agent j's view of agent i lags (zeros before that, the
    naive_delay exchange); None means no delay.  With eta, agents exchange
    waves of impedance eta instead (wave_exchange, the scattering mode):
    agent i receives the wave j sent delay_steps[(j, i)] steps earlier,
    zeros before that, and adds the halves of p to nu_i and xi_dot_i.
    """
    n, dim = prob.n_agents, prob.dim
    b, c = (comp.b, comp.c) if comp is not None else ([0.0], [1.0])
    rho = np.zeros((n, len(b), dim))
    xi = np.zeros((n, dim))
    lam = [np.full(p.n_ineq, lam0) for p in prob.local_problems]
    mu = [np.zeros(p.n_eq) for p in prob.local_problems]
    out_x, out_xi, out_lam, out_mu = [], [], [], []
    sent = {(i, j): [] for i in range(n) for j in range(n) if a[i, j] > 0.0}  # waves i -> j
    for k in range(int(round(duration / step))):
        x = rho.sum(axis=1)
        out_x.append(x.copy())
        out_xi.append(xi.copy())
        out_lam.append([v.copy() for v in lam])
        out_mu.append([v.copy() for v in mu])
        nu = np.zeros((n, dim))
        xi_dot = np.zeros((n, dim))
        lam_dot = []
        mu_dot = []
        for i, p in enumerate(prob.local_problems):
            g = p.objective.gradient(x[i]).astype(float, copy=True)
            for f, w in zip(p.inequalities, lam[i] ** 2):
                g += w * f.gradient(x[i])
            for f, w in zip(p.equalities, mu[i]):
                g += w * f.gradient(x[i])
            nu[i] = -g
            for j in range(n):
                if a[i, j] > 0.0:
                    lag = 0 if delay_steps is None else delay_steps[(j, i)]
                    if eta is not None:
                        s_in = sent[j, i][k - lag] if k >= lag else np.zeros(2 * dim)
                        port, s_out = wave_exchange(a[i, j], eta, s_in,
                                                    np.concatenate([x[i], xi[i]]))
                        sent[i, j].append(s_out)
                        nu[i] += port[:dim]
                        xi_dot[i] += port[dim:]
                        continue
                    seen_x = out_x[k - lag][j] if k >= lag else np.zeros(dim)
                    seen_xi = out_xi[k - lag][j] if k >= lag else np.zeros(dim)
                    nu[i] += a[i, j] * (seen_x - x[i]) - a[i, j] * (seen_xi - xi[i])
                    xi_dot[i] += a[i, j] * (seen_x - x[i])
            lam_dot.append(2.0 * lam[i] * np.array([f.value(x[i]) for f in p.inequalities]))
            mu_dot.append(np.array([f.value(x[i]) for f in p.equalities]))
        rho_dot = np.stack([c[s] * nu - b[s] * rho[:, s] for s in range(len(b))], axis=1)
        rho = rho + step * rho_dot
        xi = xi + step * xi_dot
        lam = [v + step * d for v, d in zip(lam, lam_dot)]
        mu = [v + step * d for v, d in zip(mu, mu_dot)]
    out_x.append(rho.sum(axis=1))
    out_xi.append(xi.copy())
    out_lam.append([v.copy() for v in lam])
    out_mu.append([v.copy() for v in mu])
    return out_x, out_xi, out_lam, out_mu


def assert_matches_direct_flow(comp, mode, delay_steps=None, prob=None, a=None, duration=2.0,
                               eta=1.0):
    """simulate against the oracle on prob, built on the adjacency matrix a
    (default: three_agent_quadratic on its ring); eta is the wave impedance
    of a scattering run."""
    if prob is None:
        prob = three_agent_quadratic()  # constraint counts 1/0/0 and 0/0/1
        a = ring_matrix(3, 2.0)
    step = 1e-3
    delays = None
    if delay_steps is not None:
        delays = per_edge(prob.network, lambda i, j: delay_steps[(i, j)] * step)
    cfg = SimConfig(step=step, duration=duration, mode=mode, delays=delays,
                    compensator=comp, log_every=1, eta=eta)
    log = simulate(prob, cfg)
    assert log.abort_reason is None
    dx, dxi, dlam, dmu = direct_primal_dual_run(prob, a, duration, step, comp=comp,
                                                delay_steps=delay_steps,
                                                eta=eta if mode == "scattering" else None)
    assert len(log.t) == len(dx)
    for s in range(len(dx)):
        assert np.allclose(log.x[s], dx[s], atol=1e-12, rtol=0.0)
        assert np.allclose(log.xi[s], dxi[s], atol=1e-12, rtol=0.0)
        for i in range(prob.n_agents):
            lam, mu = log.lam[s][prob.ineq_owner == i], log.mu[s][prob.eq_owner == i]
            assert np.allclose(lam, dlam[s][i], atol=1e-12, rtol=0.0)
            assert np.allclose(mu, dmu[s][i], atol=1e-12, rtol=0.0)


def test_pure_integrator_matches_direct_flow():
    assert_matches_direct_flow(CompensatorParams.pure_integrator(), "no_delay")


# 1..6-step delays, a different one on each directed edge of the ring
DELAY_STEPS = {(0, 1): 1, (1, 0): 2, (0, 2): 3, (2, 0): 4, (1, 2): 5, (2, 1): 6}


def edge_steps(net, mode):
    """1..7-step delays, edge by edge in table order, in naive_delay mode."""
    if mode == "naive_delay":
        return {(i, j): 1 + e % 7
                for e, (i, j) in enumerate(zip(net.own.tolist(), net.nbr.tolist()))}
    return None


@pytest.mark.parametrize(
    "m, mode",
    [(1, "naive_delay"), (2, "no_delay"), (2, "naive_delay")],
)
def test_direct_flow_oracle(m, mode):
    # the pure-integrator no-delay case is test_pure_integrator_matches_direct_flow
    comp = CompensatorParams.pure_integrator() if m == 1 else SimConfig().compensator
    assert_matches_direct_flow(
        comp, mode, DELAY_STEPS if mode == "naive_delay" else None
    )


@pytest.mark.parametrize("mode", ["no_delay", "naive_delay"])
@pytest.mark.parametrize("stages", [1, 3])
@pytest.mark.parametrize("agents, seed", [(3, 0), (4, 8)])
def test_direct_flow_oracle_on_matching_lp(agents, seed, stages, mode):
    # the CLI's matching LP (affine local terms, ring weight 4) at other
    # sizes and seeds than the paper's, with 1..7-step delays
    _, prob, _ = build_scenario(validate_config(None, {"agents": agents, "seed": seed}),
                                "no_delay")
    comp = CompensatorParams.pure_integrator()
    if stages == 3:
        comp = CompensatorParams(np.array([0.0, 2.0, 7.0]), np.array([1.0, 4.0, 9.0]))
    assert_matches_direct_flow(comp, mode, edge_steps(prob.network, mode), prob=prob,
                               a=ring_matrix(agents, 4.0), duration=0.5)


@pytest.mark.parametrize("mode", ["no_delay", "naive_delay"])
@pytest.mark.parametrize("m", [1, 2])
def test_direct_flow_oracle_on_chord_graph(m, mode):
    prob = chord_quadratic()
    comp = CompensatorParams.pure_integrator() if m == 1 else SimConfig().compensator
    assert_matches_direct_flow(comp, mode, edge_steps(prob.network, mode), prob=prob,
                               a=chord_matrix())


# The linear map of an uncertified affine no-delay run's unlogged steps,
# against the exchange step: log_every=1 logs every step, so no step takes
# the map.  (stages, agents, ring weight, step) cover m = 1, 2 and 3, N = 3,
# 5 and 8 and both steps, on the CLI's matching LP at non-unit weights.
MAP_CASES = [(1, 3, 2.5, 1e-3), (2, 5, 1.5, 5e-3), (3, 8, 0.7, 1e-3),
             (2, 3, 4.0, 5e-3), (3, 5, 2.5, 1e-3), (1, 8, 0.7, 5e-3)]
THREE_STAGES = {"compensator_poles": [0.0, 2.0, 7.0], "compensator_gains": [1.0, 4.0, 9.0]}


def final_within(a, b, tol):
    """The final x, xi, lam and mu of the logs a and b agree within tol
    times the larger of 1 and b's largest magnitude among them."""
    scale = max([1.0] + [float(np.abs(v).max(initial=0.0)) for v in b.final_stacks()])
    for name, u, v in zip(("x", "xi", "lam", "mu"), a.final_stacks(), b.final_stacks()):
        assert np.abs(u - v).max(initial=0.0) <= tol * scale, name


@pytest.mark.parametrize("stages, agents, weight, step", MAP_CASES)
def test_no_delay_map_matches_the_exchange_step(stages, agents, weight, step):
    cfg = validate_config(None, dict({"agents": agents, "ring_weight": weight, "step": step,
                                      "duration": 400 * step, "diagnostics": False},
                                     **(THREE_STAGES if stages == 3 else {})))
    _, prob, sim = build_scenario(cfg, "no_compensator" if stages == 1 else "no_delay")
    assert prob._affine is not None and sim.compensator.m == stages
    mapped = simulate(prob, sim)  # the CLI logs every 1000th step: step 0 alone
    exchanged = simulate(prob, dataclasses.replace(sim, log_every=1))
    assert mapped.abort_reason is exchanged.abort_reason is None
    assert len(mapped.t) == 2 and len(exchanged.t) == 401
    final_within(mapped, exchanged, 1e-12)
    # the map moved the state: it is no fixed point of the flow
    assert not np.allclose(mapped.x[-1], mapped.x[0])


def affine_guard_case(kind):
    """(problem, SimConfig, abort step, ring rows) of an affine no-delay run
    whose map steps hand a step to the exchange step.  On a ring of three
    agents with linear objectives, at step 7: g = x - 49 sends a lam below
    zero as x falls past -1 (h = 0.01), or h = 0.3 makes the flow's Euler
    map unstable; "lp" is the CLI's matching LP at h = 0.005 and ring
    weight 0.7, where a lam crosses zero at step 28.  Each logs every 100th
    step, by a ring of dynamics._MAP_ROWS rows.  With "-after-log" it logs
    the step before the trip, so the trip is an interval's first step and
    its batch's first row; with "-ring-end" it steps by a ring of 8 rows,
    batches of 7 steps from step 1, so the trip's update is the last row
    before the ring wraps.  "near_limit" trips nothing: the three agents
    start in consensus at 2.885e8 and drift up, so at step 17 the state's
    sum of squares reaches engine._SQUARES_BOUND with every entry within
    DIVERGENCE_LIMIT, a step the exchange step commits; its step is None."""
    base, _, edge = kind.partition("-")
    rows = 8 if edge == "ring-end" else dynamics._MAP_ROWS
    if base == "near_limit":
        prob = DistributedProblem(ring(3, 2.0), [LocalProblem(AffineFunction([-1e6]))] * 3)
        rho = np.zeros((3, 2, 1))
        rho[:, 0] = 2.885e8
        start = AgentState(rho, np.zeros((3, 1)), np.zeros(0), np.zeros(0))
        sim = SimConfig(step=0.01, diag_interval=0.01, duration=1.0, initial=start,
                        log_every=100)
        return prob, sim, None, rows
    if base == "lp":
        cfg = validate_config(None, {"ring_weight": 0.7, "step": 5e-3, "diagnostics": False})
        _, prob, sim = build_scenario(cfg, "no_delay")
        step = 28
    else:
        grads = (1.0, 1.5, 2.0) if base == "lambda_guard" else (1.0, -2.0, 3.0)
        cons = [AffineFunction([1.0], -49.0)] if base == "lambda_guard" else []
        prob = DistributedProblem(ring(3, 2.0), [LocalProblem(AffineFunction([g]),
                                                              inequalities=cons)
                                                 for g in grads])
        h, step = (0.01 if base == "lambda_guard" else 0.3), 7
        sim = SimConfig(step=h, diag_interval=h, duration=100 * h)
    every = step - 1 if edge == "after-log" else 100
    return prob, dataclasses.replace(sim, log_every=every), step, rows


@pytest.mark.parametrize("kind", ["lambda_guard", "divergence", "lp",
                                  "lambda_guard-after-log", "divergence-after-log",
                                  "lp-after-log", "lambda_guard-ring-end",
                                  "divergence-ring-end", "lp-ring-end", "near_limit"])
def test_guard_trip_on_a_mapped_step_is_the_exchange_steps(kind, monkeypatch):
    # a map step whose update fails a guard's test runs again as the
    # exchange step, so its event is the one a full-rate run records: the
    # step, the kind and the agent, and the value within the map's drift;
    # a state the exchange step commits goes on
    prob, sim, step, rows = affine_guard_case(kind)
    assert prob._affine is not None
    monkeypatch.setattr(dynamics, "_MAP_ROWS", rows)
    mapped_steps = []

    def counted(state, count, record):
        state, done = dynamics._linear_steps(state, count, record)
        mapped_steps.append(done)
        return state, done

    monkeypatch.setattr(engine, "_linear_steps", counted)
    mapped = simulate(prob, sim)
    exchanged = simulate(prob, dataclasses.replace(sim, log_every=1))
    assert len(mapped.events) == len(exchanged.events) == (step is not None)
    for got, want in zip(mapped.events, exchanged.events):
        assert ((got["step"], got["kind"], got["agent"])
                == (want["step"], want["kind"], want["agent"]))
        assert got["kind"] == kind.partition("-")[0].replace("lp", "lambda_guard")
        assert got["step"] == step and mapped.abort_step == exchanged.abort_step == step
        scale = max(1.0, float(np.abs(exchanged.rho[-1]).max()))
        assert got["value"] == pytest.approx(want["value"], rel=0.0, abs=1e-12 * scale)
    if step is None:
        # the map stepped from step 1 until the sum of squares reached the
        # bound, then the exchange step every step, to the end
        z = np.concatenate([a[-1].ravel() for a in (mapped.rho, mapped.xi, mapped.lam, mapped.mu)])
        assert z @ z >= engine._SQUARES_BOUND and np.abs(z).max() < engine.DIVERGENCE_LIMIT
        assert mapped.abort_reason is None and sum(mapped_steps) == 16
    else:
        # every step before the trip but the logged ones was mapped
        assert sum(mapped_steps) == step - 1 - (step - 1) // sim.log_every
    # a guard abort keeps the pre-step state, a divergence commits the step
    final_within(mapped, exchanged, 1e-12)


def test_runs_the_map_does_not_step_are_bit_equal_at_any_log_every(paper):
    # a non-affine problem and a certified run step every step by the
    # exchange: their common samples are bit-equal whatever log_every is,
    # and so are the certified run's certificates
    cfg, prob, ref = paper
    quadratic = three_agent_quadratic()
    assert quadratic._affine is None
    _, _, sim = build_scenario(dict(cfg, duration=0.3, diag_interval=0.01, log_every=10),
                               "no_delay")
    certified = dataclasses.replace(sim, reference=ref)
    for problem, base in ((quadratic, sim), (prob, certified)):
        logs = [simulate(problem, dataclasses.replace(base, log_every=every))
                for every in (10, 1)]
        sparse, full = logs
        assert sparse.abort_reason is full.abort_reason is None
        assert len(sparse.t) == 31 and len(full.t) == 301
        for name in ("t", "x", "xi", "rho", "lam", "mu", "zeta", "nu", "edge_r", "edge_p"):
            ours, theirs = getattr(sparse, name), getattr(full, name)
            assert ours.tobytes() == theirs[::10][:len(ours)].tobytes(), name
    assert sparse.passivity is not None
    for name in ("compensator_excess", "multiplier_excess", "coupling_excess"):
        assert (getattr(sparse.passivity, name).tobytes()
                == getattr(full.passivity, name).tobytes()), name
    assert (sparse.lyap_direct, sparse.diag_t) == (full.lyap_direct, full.diag_t)


def unequal_delay_steps(a, seed):
    """Whole-step delays drawn from 1..50 for each directed pair of a, the
    two directions of a pair unequal."""
    rng = np.random.default_rng(seed)
    steps = {}
    for i, j in np.argwhere(np.triu(a) > 0.0).tolist():
        steps[i, j], steps[j, i] = (rng.choice(50, size=2, replace=False) + 1).tolist()
    return steps


@pytest.mark.parametrize("eta", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("graph", ["ring", "chord"])
def test_scattering_matches_the_wave_oracle(graph, eta):
    # the engine's wave maps and delay lines against np.linalg.solve per
    # directed pair of the dense matrix, and a list of sent waves per pair
    prob, a = ((three_agent_quadratic(), ring_matrix(3, 2.0)) if graph == "ring"
               else (chord_quadratic(), chord_matrix()))
    assert_matches_direct_flow(SimConfig().compensator, "scattering", unequal_delay_steps(a, 3),
                               prob=prob, a=a, duration=0.3, eta=eta)


@pytest.mark.parametrize("agents, seed, stages", [(3, 0, 3), (4, 8, 1)])
def test_scattering_matches_the_wave_oracle_on_matching_lp(agents, seed, stages):
    _, prob, _ = build_scenario(validate_config(None, {"agents": agents, "seed": seed}),
                                "no_delay")
    comp = CompensatorParams.pure_integrator()
    if stages == 3:
        comp = CompensatorParams(np.array([0.0, 2.0, 7.0]), np.array([1.0, 4.0, 9.0]))
    a = ring_matrix(agents, 4.0)
    assert_matches_direct_flow(comp, "scattering", unequal_delay_steps(a, seed), prob=prob, a=a,
                               duration=0.2)


def test_converged_scattering_loop_holds_xi_doubled():
    # each end of a channel absorbs the midpoint average, so the scattering
    # loop settles where L xi / 2 balances the forces that L xi balances
    # without delay: the edge differences xi_i - xi_j are twice the no-delay
    # run's.  three_agent_quadratic's multipliers are unique (mu = 0, lam ->
    # 0), so both runs near the same forces; the matching LP's are not, and
    # its two converged runs end with forces apart by up to 7.5.  At 40 s
    # the runs' KKT residuals are 1.5e-5 and 3.4e-5, the doubling is met to
    # 5.4e-6 and xi undoubled would miss by 0.83
    prob = three_agent_quadratic()
    own, nbr = prob.network.own, prob.network.nbr
    delays = per_edge(prob.network, lambda i, j: 0.05 * (1 + i + 2 * j))
    diffs = []
    for mode in ("no_delay", "scattering"):
        log = simulate(prob, SimConfig(step=1e-2, duration=40.0, mode=mode, delays=delays,
                                       log_every=10**6))
        assert log.abort_reason is None and log.kkt[-1].max() < 1e-4
        diffs.append(log.xi[-1][own] - log.xi[-1][nbr])
    assert np.abs(diffs[0]).max() > 0.8
    assert np.abs(diffs[1] - 2.0 * diffs[0]).max() < 1e-4


def lp_of_three():
    """The CLI's matching LP at N = 3, seed 0, on ring(3, 4)."""
    return build_scenario(validate_config(None, {"agents": 3, "seed": 0}), "no_delay")[1]


# (problem, duration, k0) per case: h = 2**-k for k = k0..k0+3
HALVING = {
    ("quadratic", "no_delay"): (three_agent_quadratic, 1.0, 8),
    ("quadratic", "naive_delay"): (three_agent_quadratic, 1.0, 8),
    ("quadratic", "scattering"): (three_agent_quadratic, 1.0, 9),
    ("lp", "no_delay"): (lp_of_three, 0.5, 10),
    ("lp", "naive_delay"): (lp_of_three, 0.5, 10),
    ("lp", "scattering"): (lp_of_three, 0.5, 11),
}


@pytest.mark.parametrize("problem, mode", list(HALVING))
def test_step_halving_converges_at_first_order(problem, mode):
    # explicit Euler is first order: the final-state differences
    # d_k = max |y(h_k) - y(h_k / 2)| of the packed (rho, xi, lam, mu) halve
    # with h, so d_k / d_(k+1) tends to 2 with an O(h) remainder.  Every
    # delay, (1 + i + 2 j) / 64 s, and the duration are whole multiples of
    # each h, so every h runs the same delays.  Finding F (ROADMAP)
    # measured on the paper's instance ratios of 2.003 then 2.001 from
    # h = 1e-3 without waves, and for scattering 3.41, 2.71 and 2.15 before
    # 2.03 and 2.02 at 1/8 and 1/16 of that step: the waves' transient needs
    # a smaller h before the ratio is asymptotic, so each case starts past it
    # (here scattering at 2**-9 and 2**-11, the others at 2**-8 and 2**-10).
    # The last ratio must be within 0.1 of 2, the bound F's asymptotic
    # ratios meet, and its remainder at most 0.6 of the one before: it
    # halves, with room for the O(h^2) term (seen: 0.46 to 0.51; distances
    # 7e-4 to 0.077, the largest the LP's scattering)
    make, duration, k0 = HALVING[problem, mode]
    prob = make()
    delays = per_edge(prob.network, lambda i, j: (1 + i + 2 * j) / 64)
    ends = []
    for k in range(k0, k0 + 4):
        log = simulate(prob, SimConfig(step=2.0**-k, duration=duration, mode=mode, delays=delays,
                                       log_every=10**9))
        assert log.abort_reason is None
        ends.append(np.concatenate([a[-1].ravel() for a in (log.rho, log.xi, log.lam, log.mu)]))
    d = [np.abs(y - y_half).max() for y, y_half in zip(ends, ends[1:])]
    first, last = d[0] / d[1] - 2.0, d[1] / d[2] - 2.0
    assert abs(last) < 0.1, (d, first, last)
    assert abs(last) <= 0.6 * abs(first), (d, first, last)


def scattering_cfg(delays, **kw):
    return SimConfig(mode="scattering", delays=delays, **kw)


def assert_reports_match(posthoc, online):
    for name in ("compensator_excess", "multiplier_excess", "coupling_excess"):
        assert np.allclose(getattr(posthoc, name), getattr(online, name), atol=1e-10)


def bounds_hold(report):
    """Every rate check of a PassivityReport within its tolerance (a NaN
    coupling row, a naive-delay run's, is not checked) and the wave
    identity within 1e-10."""
    checked = np.concatenate([report.compensator_excess, report.multiplier_excess,
                              report.coupling_excess[~np.isnan(report.coupling_excess)]])
    return bool(np.all(checked <= 0.0)) and report.wave_identity_max <= 1e-10


def test_scattering_online_diag_matches_posthoc():
    for prob in (three_agent_quadratic(), chord_quadratic()):
        ref = cli_reference(prob)
        delays = np.random.default_rng(2).uniform(0.2, 0.3, prob.network.own.size)
        cfg = scattering_cfg(delays, duration=2.0, log_every=1, reference=ref)
        log = simulate(prob, cfg)
        assert log.abort_reason is None
        report = passivity_check(log, ref)
        assert_reports_match(report, log.passivity)
        assert bounds_hold(report) and bounds_hold(log.passivity)
        # online delayed-Lyapunov value at each grid sample equals the post-hoc
        # reconstruction
        for kth, t in enumerate(log.diag_t[:-1]):
            step_index = int(round(t / cfg.step))
            v_delayed = lyapunov_delayed(log, ref, upto=step_index)
            assert v_delayed == pytest.approx(log.lyap_delayed[kth], rel=1e-9, abs=1e-9)


def test_logged_samples_are_never_overwritten():
    # each logged step writes its state into the next row of the log's
    # store, once.  A row written into after it was logged, by a later
    # sample or through a view the engine still writes, would hold a later
    # value, which differs between runs that stop at different times: the
    # samples of a full-rate
    # scattering run, copied at its end, must equal bit for bit those of a
    # re-run of the same config and of a run cut to half its length.
    prob = three_agent_quadratic()
    ref = cli_reference(prob)
    delays = np.full(prob.network.own.size, 0.25)

    def samples(duration):
        cfg = scattering_cfg(delays, duration=duration, log_every=1, reference=ref)
        log = simulate(prob, cfg)
        assert log.abort_reason is None
        return [[a.copy() for a in series] for series in (log.rho, log.xi, log.lam)]

    first = samples(0.5)
    for again in (samples(0.5), samples(0.25)):
        for old, new in zip(first, again):
            # the cut run's closing sample is the full run's sample there
            assert len(new) in (len(old), (len(old) - 1) // 2 + 1)
            for a, b in zip(old, new):
                np.testing.assert_array_equal(a, b)


def test_no_delay_online_diag_matches_posthoc():
    prob = three_agent_quadratic()
    ref = cli_reference(prob)
    cfg = SimConfig(duration=2.0, log_every=1, reference=ref)
    log = simulate(prob, cfg)
    report = passivity_check(log, ref)
    assert_reports_match(report, log.passivity)
    # the storage-rate bounds themselves must hold on this convex problem
    assert bounds_hold(report)
    # V is non-increasing along the no-delay run
    v = np.array(log.lyap_direct)
    assert np.all(np.diff(v) <= 1e-3 * cfg.step * (1.0 + v[0]))


@pytest.fixture(scope="module")
def paper_reference():
    """The paper's matching LP (seed 5, N = 5, ring(5, 4)) with the CLI's
    reference for it from a 20 s no-delay pass, and its note."""
    cfg = validate_config(None, {"duration": 20.0})
    _, prob, _ = build_scenario(cfg, "no_delay")
    ref, note = compute_reference(cfg, prob)
    assert ref is not None, note
    return cfg, prob, ref, note


@pytest.fixture(scope="module")
def paper(paper_reference):
    """(config, problem, reference) of paper_reference."""
    return paper_reference[:3]


def test_reference_note_reads_what_kkt_residual_recomputes(paper_reference):
    # the note quotes the pass's closing KKT residual, the one kkt_residual
    # recomputes from the reference's own arrays
    _, prob, ref, note = paper_reference
    worst = kkt_residual(prob, ref.x, ref.xi, ref.lam, ref.mu).max()
    assert worst <= KKT_TOL
    assert note == f"no-delay end state, max KKT residual {worst:.3e}"


def test_failing_reference_names_its_final_residual():
    cfg = validate_config(None, {"duration": 20.0, "seed": 8})
    _, prob, _ = build_scenario(cfg, "no_delay")
    ref, note = compute_reference(cfg, prob)
    assert ref is None
    assert note == "no-delay end state fails KKT at 0.01 (max residual 2.777e-01)"


@pytest.fixture(scope="module")
def short_scattering_log(paper):
    """A 50-step full-rate scattering log of the paper instance."""
    cfg, prob, _ = paper
    _, _, sim = build_scenario(dict(cfg, duration=0.05, log_every=1), "scattering")
    log = simulate(prob, sim)
    assert log.abort_reason is None and len(log.t) == 51
    return log


@pytest.mark.parametrize("oracle", [passivity_check, lyapunov_delayed])
@pytest.mark.parametrize("field, bad, message", [
    ("lam", lambda ref: ref.lam[:-1], r"expected shape \(25,\), got \(24,\)"),
    ("xi", lambda ref: np.zeros((5, 3)), r"expected shape \(5, 25\), got \(5, 3\)"),
    # mu entry 7 is agent 3's
    ("mu", lambda ref: np.where(np.arange(10) == 7, np.nan, ref.mu),
     r"non-finite value nan \(agent 3\)"),
], ids=["short lam", "xi (5, 3)", "NaN mu"])
def test_oracles_reject_a_reference_that_does_not_fit(paper, short_scattering_log, oracle,
                                                      field, bad, message):
    # each would index out of bounds or fail to broadcast deep inside the
    # oracle; the reference is checked against the log's problem first
    ref = paper[2]
    stacks = {name: getattr(ref, name) for name in ("x", "xi", "lam", "mu")}
    stacks[field] = bad(ref)
    with pytest.raises(ValueError, match=rf"^reference\.{field}: {message}$"):
        oracle(short_scattering_log, ReferencePoint(**stacks))
    oracle(short_scattering_log, ref)  # the fitting reference passes


def test_matching_lp_online_diag_matches_posthoc(paper):
    # the stacked affine local-terms path under heterogeneous delays; 1237
    # steps are no whole number of diagnostic blocks, and Lyapunov samples
    # every 37 steps fall inside blocks and in the partial last one
    cfg, prob, ref = paper
    assert prob._affine is not None
    _, _, sim = build_scenario(dict(cfg, duration=1.237, diag_interval=0.037, log_every=1),
                               "scattering")
    assert len(set(sim.delays.tolist())) > 1
    sim.reference = ref
    log = simulate(prob, sim)
    assert log.abort_reason is None and len(log.t) == 1238
    h = sim.step
    assert log.diag_t == [k * h for k in range(0, 1237, 37)] + [1237 * h]
    report = passivity_check(log, ref)
    assert_reports_match(report, log.passivity)
    assert bounds_hold(report) and bounds_hold(log.passivity)
    assert log.passivity.wave_identity_max == pytest.approx(report.wave_identity_max,
                                                            rel=1e-12)
    for t, v in zip(log.diag_t, log.lyap_delayed, strict=True):
        upto = int(round(t / h))
        assert lyapunov_delayed(log, ref, upto=upto) == pytest.approx(
            v, rel=1e-9, abs=1e-9)


def test_certificates_bit_equal_at_any_block_size(paper, monkeypatch):
    # 403 steps are a whole number of blocks of neither 5 nor 32 steps, and
    # Lyapunov samples every 37 steps fall inside blocks; a block of 1
    # evaluates step by step
    cfg, prob, ref = paper
    _, _, sim = build_scenario(dict(cfg, duration=0.403, diag_interval=0.037), "scattering")
    sim.reference = ref
    logs = []
    for block in (1, 5, 32):
        monkeypatch.setattr("dcopt.engine._DIAG_BLOCK", block)
        logs.append(simulate(prob, sim))
        assert logs[-1].abort_reason is None
    first = logs[0]
    assert len(first.diag_t) == 12 and first.lyap_delayed
    for log in logs[1:]:
        for name in ("compensator_excess", "multiplier_excess", "coupling_excess"):
            assert np.array_equal(getattr(log.passivity, name), getattr(first.passivity, name))
        assert log.passivity.wave_identity_max == first.passivity.wave_identity_max
        for name in ("diag_t", "lyap_direct", "lyap_delayed"):
            assert getattr(log, name) == getattr(first, name)


@pytest.fixture
def forked_diag(monkeypatch):
    """force(forked): from now on simulate evaluates the certificates of any
    run with a reference in a forked evaluator (forked=True, two CPUs as
    far as it can tell) or in this process (False); returns the list of the
    pids forked."""
    forks = []
    fork = engine._fork

    def counted(fn, *args):
        pid, fd = fork(fn, *args)
        forks.append(pid)
        return pid, fd

    def force(forked=True):
        monkeypatch.setattr(engine, "_DIAG_FORK_STEPS", 0 if forked else 2**63)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(engine, "_fork", counted)
        return forks

    return force


def both_paths(forked_diag, prob, sim):
    """(log, log) of one run with the certificates evaluated in this
    process and in a forked evaluator."""
    forks = forked_diag(False)
    here = simulate(prob, sim)
    assert forks == []
    forked_diag(True)
    forked = simulate(prob, sim)
    assert len(forks) == 1
    assert_no_children()
    return here, forked


def assert_same_certificates(a, b):
    """The online reports of two logs are bitwise equal, NaN included."""
    for name in ("compensator_excess", "multiplier_excess", "coupling_excess"):
        assert getattr(a.passivity, name).tobytes() == getattr(b.passivity, name).tobytes()
    assert (np.float64(a.passivity.wave_identity_max).tobytes()
            == np.float64(b.passivity.wave_identity_max).tobytes())
    for name in ("diag_t", "lyap_direct", "lyap_delayed"):
        assert (np.array(getattr(a, name), dtype=float).tobytes()
                == np.array(getattr(b, name), dtype=float).tobytes())


@pytest.mark.parametrize("scenario, steps, block", [
    ("no_delay", 100, 32),
    ("naive_delay", 100, 32),
    ("scattering", 100, 32),
    ("no_compensator", 100, 32),  # m = 1
    ("scattering", 20, 32),  # shorter than one block
    ("scattering", 64, 32),  # ends on a block boundary
    ("no_delay", 32, 32),
    ("scattering", 300, 1),  # a hand-off per step: a slot reused early would show
])
def test_certificates_equal_in_process_and_forked(paper, forked_diag, monkeypatch, scenario,
                                                  steps, block):
    monkeypatch.setattr(engine, "_DIAG_BLOCK", block)
    cfg, _, ref = paper
    _, prob, sim = build_scenario(dict(cfg, duration=steps * 1e-3, diag_interval=0.007),
                                  scenario)
    sim.reference = ref
    here, forked = both_paths(forked_diag, prob, sim)
    assert here.abort_reason is None and len(here.diag_t) == steps // 7 + 2
    assert_same_certificates(here, forked)
    assert np.isnan(forked.passivity.coupling_excess).all() == (scenario == "naive_delay")
    assert bool(forked.lyap_delayed) == (scenario == "scattering")


@pytest.mark.parametrize("case, block, step", [
    ("lambda_guard", 4, 6),
    ("divergence", 4, 26),
    ("nan", 2, 3),
])
def test_certificates_equal_in_process_and_forked_after_abort(paper, forked_diag, monkeypatch,
                                                              case, block, step):
    # each abort falls inside a block after at least one full one
    monkeypatch.setattr(engine, "_DIAG_BLOCK", block)
    if case == "lambda_guard":
        cfg, _, ref = paper
        _, prob, sim = build_scenario(dict(cfg, step=0.05, duration=1.0), "scattering")
        sim.reference = ref
    elif case == "divergence":  # h = 0.2 is past explicit Euler's limit here
        prob = single_agent_problem()
        sim = SimConfig(step=0.2, duration=20.0, diag_interval=0.4,
                        reference=ReferencePoint([[3.0]], [[0.0]], [], []))
    else:
        base = three_agent_quadratic()
        locs = list(base.local_problems)
        locs[1] = LocalProblem(QuadraticFunction([[1.0]], [-2.0]),
                               inequalities=[ValueLeavesDomain()])
        prob = DistributedProblem(base.network, locs)
        sim = SimConfig(duration=1.0, diag_interval=0.002, reference=ReferencePoint(
            np.full((3, 1), 3.0), np.zeros((3, 1)), np.full(prob.ineq_owner.size, 0.1),
            np.zeros(prob.eq_owner.size)))
    here, forked = both_paths(forked_diag, prob, sim)
    assert (here.abort_reason, here.abort_step) == (forked.abort_reason, forked.abort_step)
    assert (here.abort_reason, here.abort_step) == (case, step)
    assert np.isfinite(here.passivity.compensator_excess).all()
    assert_same_certificates(here, forked)


class EvaluatorFailed(Exception):
    pass


@pytest.mark.parametrize("how", ["raises", "killed"])
@pytest.mark.parametrize("steps", [20, 200])  # seen at the end, or at a hand-off
def test_evaluator_failure_is_raised_in_the_engine(paper, forked_diag, monkeypatch, capfd,
                                                   how, steps):
    cfg, _, ref = paper
    _, prob, sim = build_scenario(dict(cfg, duration=steps * 1e-3), "scattering")
    sim.reference = ref
    engine_pid = os.getpid()
    storage = engine.compensator_storage

    def failing(*args):
        if os.getpid() != engine_pid:  # in the evaluator only
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise EvaluatorFailed("block lost")
        return storage(*args)

    monkeypatch.setattr(engine, "compensator_storage", failing)
    forks = forked_diag(True)
    if how == "killed":
        with pytest.raises(ChildProcessError, match=f"wait status {signal.SIGKILL}$"):
            simulate(prob, sim)
    else:
        with pytest.raises(EvaluatorFailed, match="block lost"):
            simulate(prob, sim)
    assert len(forks) == 1
    assert_no_children()
    assert capfd.readouterr() == ("", "")


class EngineFailed(Exception):
    pass


def test_engine_failure_reaps_the_evaluator(paper, forked_diag, monkeypatch):
    cfg, _, ref = paper
    _, prob, sim = build_scenario(dict(cfg, duration=0.2), "scattering")
    sim.reference = ref
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == 100:
            raise EngineFailed("step 99")
        return derivatives(*args)

    monkeypatch.setattr(engine, "derivatives", failing)
    forks = forked_diag(True)
    with pytest.raises(EngineFailed):
        simulate(prob, sim)
    assert len(forks) == 1
    assert_no_children()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open fds in /proc")
def test_fork_failure_evaluates_in_process(paper, forked_diag, monkeypatch):
    cfg, _, ref = paper
    _, prob, sim = build_scenario(dict(cfg, duration=0.1), "scattering")
    sim.reference = ref
    forked_diag(False)
    here = simulate(prob, sim)
    forks = forked_diag(True)

    def fails():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fails)
    fds = len(os.listdir("/proc/self/fd"))
    log = simulate(prob, sim)
    assert len(os.listdir("/proc/self/fd")) == fds
    assert forks == []
    assert_same_certificates(here, log)
    assert_no_children()


def test_certificates_with_a_live_thread_evaluate_in_process(paper, forked_diag):
    cfg, _, ref = paper
    _, prob, sim = build_scenario(dict(cfg, duration=0.05), "scattering")
    sim.reference = ref
    forks = forked_diag(True)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        log = simulate(prob, sim)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == [] and log.abort_reason is None


def test_online_diag_reported_after_abort(paper):
    # at h = 0.05 the paper instance trips the multiplier guard at step 2,
    # inside the first block of online checks: the steps before the abort
    # are still checked and reach the report
    cfg, prob, ref = paper
    _, _, sim = build_scenario(dict(cfg, step=0.05, duration=1.0, log_every=1), "no_delay")
    sim.reference = ref
    log = simulate(prob, sim)
    assert (log.abort_reason, log.abort_step) == ("lambda_guard", 2)
    report = passivity_check(log, ref)
    for name in ("compensator_excess", "multiplier_excess", "coupling_excess"):
        online = getattr(log.passivity, name)
        assert np.isfinite(online).all()
        assert np.array_equal(online, getattr(report, name))
    assert log.passivity.wave_identity_max == report.wave_identity_max == 0.0
    assert log.diag_t == [0.0, 2 * sim.step]


def test_naive_mode_has_no_port_checks():
    prob = three_agent_quadratic()
    ref = cli_reference(prob)
    delays = np.full(prob.network.own.size, 0.2)
    cfg = SimConfig(mode="naive_delay", delays=delays, duration=0.5,
                    log_every=1, reference=ref)
    log = simulate(prob, cfg)
    assert np.isnan(log.passivity.coupling_excess).all()
    assert log.lyap_delayed == []


def test_lyapunov_delayed_needs_full_rate_scattering_log():
    prob = three_agent_quadratic()
    delays = np.full(prob.network.own.size, 0.2004)

    def run(mode, log_every):
        cfg = SimConfig(mode=mode, delays=delays, duration=0.05,
                        log_every=log_every)
        log = simulate(prob, cfg)
        return log, ReferencePoint(*log.final_stacks())

    log, ref = run("naive_delay", 1)
    with pytest.raises(ValueError, match="needs a scattering run"):
        lyapunov_delayed(log, ref)
    log, ref = run("scattering", 2)
    # the delays the channels realize, quantized to whole steps, in the
    # order of the network's edge table
    net = log.problem.network
    assert list(zip(net.own.tolist(), net.nbr.tolist())) == [
        (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    np.testing.assert_allclose(log.delays, 0.2, rtol=1e-12)
    with pytest.raises(ValueError, match=r"full-rate logging \(log_every=1\)"):
        lyapunov_delayed(log, ref)


def test_lyapunov_delayed_upto_is_a_sample_index():
    # upto = -1 used to read the last sample's state with the waves of the
    # rows before it, a silently wrong value; len(log.t) and a float ended
    # in a bare IndexError
    prob = three_agent_quadratic()
    delays = np.full(prob.network.own.size, 0.2004)
    log = simulate(prob, SimConfig(mode="scattering", delays=delays, duration=0.05,
                                   log_every=1))
    ref = ReferencePoint(*log.final_stacks())
    last = len(log.t) - 1
    assert last == 50
    value = lyapunov_delayed(log, ref)
    assert lyapunov_delayed(log, ref, upto=last) == value
    assert lyapunov_delayed(log, ref, upto=np.int64(last)) == value
    assert np.isfinite(lyapunov_delayed(log, ref, upto=0))
    for bad in (-1, last + 1, float(last), 2.0, True, "3"):
        with pytest.raises(ValueError, match=rf"^upto must be an int in \[0, {last}\], got "):
            lyapunov_delayed(log, ref, upto=bad)


def test_kkt_residual_keeps_nan():
    # one agent's NaN reaches every field it enters; agent 2's equality
    # sees only its own x = 0
    prob = three_agent_quadratic()
    x = np.array([[np.nan], [0.0], [0.0]])
    res = kkt_residual(prob, x, np.zeros((3, 1)), np.array([0.01]), np.zeros(1))
    for name in ("consensus", "stationarity", "primal_ineq", "comp_slack"):
        assert np.isnan(getattr(res, name)), name
    assert res.primal_eq == 3.0
    assert np.isnan(res.max())


class Opaque(ScalarFunction):
    """A function that does not report its constant gradient, so a problem
    built from it takes the loop path of local_terms."""

    def __init__(self, f):
        self.f = f
        self.dim = f.dim
        self.is_affine = f.is_affine
        self.declared_convex = f.declared_convex

    def value(self, x):
        return self.f.value(x)

    def gradient(self, x):
        return self.f.gradient(x)


def opaque(prob):
    return DistributedProblem(prob.network, [
        LocalProblem(Opaque(p.objective), [Opaque(g) for g in p.inequalities],
                     [Opaque(h) for h in p.equalities])
        for p in prob.local_problems
    ])


def assert_terms_equal(a, b, tol):
    for name in ("grad", "g", "h", "rows"):
        np.testing.assert_allclose(getattr(a, name), getattr(b, name), rtol=0.0, atol=tol,
                                   err_msg=name)


@pytest.mark.parametrize("seed, n_agents", [(5, 5), (0, 3), (8, 6), (3, 8)])
def test_local_terms_affine_and_loop_paths_agree(seed, n_agents):
    # the matching LP is affine throughout, so its terms are stacked once;
    # the same functions behind Opaque take the loop over the constraints
    prob = build_distributed_problem(generate_instance(seed, n=n_agents), ring(n_agents, 4.0))
    loop = opaque(prob)
    assert prob._affine is not None and loop._affine is None
    rng = np.random.default_rng(7)
    comp = SimConfig().compensator
    for _ in range(5):
        st = AgentState(rho=rng.normal(size=(n_agents, comp.m, prob.dim)),
                        xi=rng.normal(size=(n_agents, prob.dim)),
                        lam=rng.uniform(0.1, 2.0, size=prob.ineq_owner.size),
                        mu=rng.normal(size=prob.eq_owner.size))
        assert_terms_equal(prob.local_terms(st.x), loop.local_terms(st.x), 1e-12)
        p = rng.normal(size=(prob.network.own.size, 2 * prob.dim))
        da = derivatives(prob, comp, st, p)
        db = derivatives(loop, comp, st, p)
        for name in ("rho_dot", "xi_dot", "lam_dot", "mu_dot", "nu", "grad", "zeta"):
            np.testing.assert_allclose(getattr(da, name), getattr(db, name),
                                       rtol=0.0, atol=1e-12, err_msg=name)
    cfg = SimConfig(duration=1.0, log_every=100)
    la, lb = simulate(prob, cfg), simulate(loop, cfg)
    assert la.abort_reason is None and lb.abort_reason is None
    for a, b in zip(la.final_stacks(), lb.final_stacks()):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)


def quadratic_inequality_problem():
    """three_agent_quadratic with agent 0's bound x <= 5 as x^2/2 <= 12.5
    (inactive at x* = 3): its gradient row depends on the state."""
    net = ring(3, 2.0)
    locs = [
        LocalProblem(QuadraticFunction([[1.0]], [-1.0]),
                     inequalities=[QuadraticFunction([[1.0]], d=-12.5)]),
        LocalProblem(QuadraticFunction([[1.0]], [-2.0])),
        LocalProblem(QuadraticFunction([[1.0]], [-6.0]),
                     equalities=[AffineFunction([1.0], -3.0)]),
    ]
    return DistributedProblem(net, locs)


def test_local_terms_loop_path_with_state_dependent_rows():
    prob = quadratic_inequality_problem()
    assert prob._affine is None
    x = np.array([[2.0], [-1.0], [4.0]])
    terms = prob.local_terms(x)
    assert terms.grad[:, 0].tolist() == [1.0, -3.0, -2.0]
    # one row per constraint in layout order: agent 0's inequality row,
    # then agent 2's equality row
    assert terms.g.tolist() == [2.0 - 12.5] and terms.h.tolist() == [1.0]
    assert terms.rows.tolist() == [[2.0], [1.0]]
    assert prob.local_terms(2.0 * x).rows.tolist() == [[4.0], [1.0]]
    # the engine follows the independent loop on this problem too
    assert_matches_direct_flow(SimConfig().compensator, "no_delay", prob=prob,
                               a=ring_matrix(3, 2.0))


# The engine steps in place: each step writes its ports and derivative into
# preallocated rows and its update into the next state row.  The tests below
# replay a run's logged steps through the fresh-record path and look for
# any log array that still points into those rows.


def assert_steps_are_the_fresh_path(log):
    """Each logged step of a full-rate log, stepped again from its logged
    state and ports p by derivatives and euler_step without out, gives the
    logged nu and zeta and the next sample bit for bit.  So an abort keeps
    what the fresh path keeps: a lambda_guard step's update raises here too
    and is not logged, a nan step leaves its pre-step state last, and a
    divergence's committed update is the closing sample."""
    prob, cfg = log.problem, log.config
    assert cfg.log_every == 1
    for s in range(len(log.nu)):
        st = AgentState(log.rho[s], log.xi[s], log.lam[s], log.mu[s])
        with np.errstate(all="ignore"):
            d = derivatives(prob, cfg.compensator, st, log.edge_p[s])
            assert d.nu.tobytes() == log.nu[s].tobytes()
            assert d.zeta.tobytes() == log.zeta[s].tobytes()
            try:
                nxt = euler_step(st, d, cfg.step)
            except LambdaGuardError as err:
                assert (log.abort_reason, log.abort_step, len(log.t)) == ("lambda_guard", s, s + 1)
                assert log.events[-1]["value"] == err.value
                continue
        for name in ("rho", "xi", "lam", "mu"):
            assert getattr(nxt, name).tobytes() == getattr(log, name)[s + 1].tobytes(), (s, name)
    assert len(log.t) == len(log.nu) + (log.abort_reason != "lambda_guard")


@pytest.fixture
def step_rows(monkeypatch):
    """The _Run, and so the step rows, of every run simulate makes from now
    on, in order."""
    made = []

    class Recorded(engine._Run):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(engine, "_Run", Recorded)
    return made


ROW_FIELDS = ("z", "zdot", "nu", "grad", "zeta")


def assert_log_owns_its_arrays(log, rows):
    """No array of the log, and none of a reference taken from it, shares
    memory with a row the engine writes again: the row fields, the ports
    and each state row's x."""
    fields = [getattr(rows, name) for name in ROW_FIELDS] + list(rows.ports) + [rows.waves]
    assert (rows.waves is not None) == (log.config.mode == "scattering")
    reused = [a for a in fields if a is not None] + [st.x for st in rows.states]
    series = [getattr(log, name) for name in ("t", "x", "xi", "rho", "lam", "mu", "nu", "zeta",
                                              "edge_r", "edge_p", "edge_s_in", "edge_s_out")]
    if log.passivity is not None:
        series += [log.passivity.compensator_excess, log.passivity.multiplier_excess,
                   log.passivity.coupling_excess]
    ref = ReferencePoint(*log.final_stacks())
    for a in series + [ref.x, ref.xi, ref.lam, ref.mu]:
        for b in reused:
            assert not np.shares_memory(a, b)


def in_place_abort_case(paper, case):
    """(problem, SimConfig with a reference, abort step) of a full-rate run
    that aborts as case says."""
    base = three_agent_quadratic()
    delays = np.full(base.network.own.size, 0.02)
    ref = ReferencePoint(np.full((3, 1), 3.0), np.zeros((3, 1)), np.ones(1), np.zeros(1))
    fields = dict(step=0.01, duration=1.0, mode="scattering", delays=delays, log_every=1,
                  diag_interval=0.01, reference=ref)
    if case == "paper_mid_block":  # finding A: step 312 is row 24 of its block
        cfg, prob, ref = paper
        _, prob, sim = build_scenario(dict(cfg, step=5e-3, log_every=1), "scattering")
        sim.reference = ref
        return prob, sim, ("lambda_guard", 312)
    if case in ("last_row", "mid_block"):  # g = x - b trips the guard as x falls
        b, step = {"last_row": (-21.0, 31), "mid_block": (-16.0, 20)}[case]
        loc = LocalProblem(QuadraticFunction([[1.0]], [100.0]),
                           inequalities=[AffineFunction([1.0], -b)])
        prob = DistributedProblem(base.network, [loc] * 3)
        fields["reference"] = ReferencePoint(np.zeros((3, 1)), np.zeros((3, 1)), np.ones(3),
                                             np.zeros(0))
        return prob, SimConfig(**fields), ("lambda_guard", step)
    if case == "nan":  # agent 1's gradient turns NaN past x = 0.05, in the second slot
        locs = list(base.local_problems)
        locs[1] = LocalProblem(GradientLeavesDomain())
        fields.update(step=1e-4, duration=0.01, diag_interval=1e-3)
        return DistributedProblem(base.network, locs), SimConfig(**fields), ("nan", 50)
    init = AgentState.zeros(SimConfig().compensator, base)  # a xi past the limit
    init.xi[1] = -5e9
    return base, SimConfig(**fields, initial=init), ("divergence", 0)


@pytest.mark.parametrize("case", ["paper_mid_block", "last_row", "mid_block", "nan",
                                  "divergence"])
def test_in_place_rows_keep_each_abort(paper, forked_diag, step_rows, monkeypatch, case):
    # the rows come in two slots of 32; an update that does not commit goes
    # into the next row, which at a slot's last row is the other slot's first
    monkeypatch.setattr(engine, "_DIAG_BLOCK", 32)
    prob, sim, (reason, step) = in_place_abort_case(paper, case)
    here, forked = both_paths(forked_diag, prob, sim)
    for log, rows in zip((here, forked), step_rows, strict=True):
        assert (log.abort_reason, log.abort_step) == (reason, step)
        assert len(rows.states) == 64
        assert_steps_are_the_fresh_path(log)
        assert_log_owns_its_arrays(log, rows)
    assert_same_certificates(here, forked)
    if case == "last_row":
        assert step % 32 == 31


@pytest.mark.parametrize("mode", engine.MODES)
def test_in_place_rows_without_a_reference(step_rows, mode):
    # two state rows alternate; a completed run's closing sample is the
    # update of its last step
    prob = chord_quadratic()
    log = simulate(prob, SimConfig(step=0.01, duration=0.5, mode=mode, log_every=1,
                                   delays=per_edge(prob.network, lambda i, j: 0.01 * (i + j + 1))))
    assert log.abort_reason is None and len(log.t) == 51
    [rows] = step_rows
    assert len(rows.states) == 2
    assert_steps_are_the_fresh_path(log)
    assert_log_owns_its_arrays(log, rows)


def address(a):
    return a.__array_interface__["data"][0]


@pytest.mark.parametrize("mode", engine.MODES)
def test_step_rows_hold_only_what_the_log_and_certificates_read(mode):
    # a row is z, zdot, nu, grad, zeta and the mode's ports, r and p, or in
    # scattering mode s_in and the (E, 3, 2n) block of r, p and s_out, and
    # beside what crossed (r, or s_in) u_own = [x_i; xi_i] by receiving
    # agent, which the step's one take gathers with it: [r; u_own] is one
    # (2, E, 2n) block, whose r - u_own the coupling blocks map, and
    # [s_in; u_own] one (E, 2, 2n) block, each edge's the channel end map's
    # operand; the owner sum's weights are the run's
    prob = chord_quadratic()
    cfg = SimConfig(step=0.01, mode=mode, log_every=1,
                    delays=per_edge(prob.network, lambda i, j: 0.01 * (i + j + 1)))
    run = engine._Run(prob, cfg, AgentState.zeros(cfg.compensator, prob), 2)
    port = (len(prob.network.own), 2 * prob.dim)
    r, p, s_in, s_out = run.ports
    assert run.u_own.shape == (run.count,) + port
    if mode == "scattering":
        assert run.waves.shape == (run.count, port[0], 3, port[1])
        assert s_in.shape == (run.count,) + port
        for a in (r, p, s_out):
            assert np.shares_memory(a, run.waves) and a.base is run.waves.base
        crossed, beside, fields = s_in, 8 * port[1], [run.waves, s_in, run.u_own]
    else:
        assert run.waves is None and s_in is None and s_out is None
        assert r.shape == p.shape == (run.count,) + port
        crossed, beside, fields = r, 8 * math.prod(port), [r, run.u_own, p]
    assert run.u_own.strides == crossed.strides
    assert address(run.u_own) - address(crossed) == beside
    fields += [getattr(run, name) for name in ROW_FIELDS]
    # the one mmap of the rows holds these fields, each 64-byte aligned
    held = sum(a.nbytes for a in fields)
    size = len(run.z.base.base)
    assert held <= size < held + 64 * len(fields)
    for a, b in itertools.combinations(fields, 2):
        assert not np.shares_memory(a, b)
    assert not np.shares_memory(run.plan.weights, run.z.base)
    assert not hasattr(run.at[0][0], "_weights")
    # a step gathers u_own into its row
    state = run.states[0]
    state.xi[...] = np.arange(state.xi.size).reshape(state.xi.shape)
    with np.errstate(all="ignore"):
        run.step(0, 0.0, state)
    u = np.concatenate([state.x, state.xi], axis=1)
    assert run.u_own[0].tobytes() == u[prob.network.own].tobytes()


@pytest.mark.parametrize("mode", engine.MODES)
def test_run_step_is_the_first_step_of_simulate(mode):
    # one step of a _Run from a SimConfig(initial=...) start writes what
    # simulate's first step logs, bit for bit: nu, zeta, the ports and,
    # committed, the update
    prob = chord_quadratic()
    rng = np.random.default_rng(7)
    zeros = AgentState.zeros(SimConfig().compensator, prob)
    init = AgentState(rng.normal(size=zeros.rho.shape), rng.normal(size=zeros.xi.shape),
                      rng.uniform(0.5, 2.0, zeros.lam.shape), rng.normal(size=zeros.mu.shape))
    cfg = SimConfig(step=0.01, duration=0.01, mode=mode, log_every=1, initial=init,
                    delays=per_edge(prob.network, lambda i, j: 0.01 * (i + j + 1)))
    log = simulate(prob, cfg)
    assert log.abort_reason is None and len(log.t) == 2
    run = engine._Run(prob, cfg, init, 1)
    with np.errstate(all="ignore"):
        deriv, ports, update, trip = run.step(0, 0.0, run.states[0])
    assert trip is None and update is run.states[1]
    logged = AgentState(log.rho[1], log.xi[1], log.lam[1], log.mu[1])
    assert update.z.tobytes() == logged.z.tobytes()
    assert deriv.nu.tobytes() == log.nu[0].tobytes()
    assert deriv.zeta.tobytes() == log.zeta[0].tobytes()
    for port, series in zip(ports, (log.edge_r, log.edge_p, log.edge_s_in, log.edge_s_out),
                            strict=True):
        assert (port is None) == (len(series) == 0)
        if port is not None:
            assert port.tobytes() == series[0].tobytes()


@pytest.mark.parametrize("mode", engine.MODES)
def test_bound_delay_line_and_channel_end_are_the_hand_driven_ones(mode):
    # _Run gathers what crossed each edge beside u_own = [x_i; xi_i] in one
    # take from the rows it binds once per run, and applies the mode's map
    # itself: over more than two wraps of the deepest of unequal lines,
    # every step's u_own, its r (u[nbr] in no_delay mode, what
    # DelayLine.pop gives in naive mode) and p = E (r - u_own), or in
    # scattering mode its s_in and its (r, p, s_out) block, and each pushed
    # row are what DelayLine.pop and push, ChannelEnd.recover and the
    # coupling blocks give, driven by hand
    prob = chord_quadratic()
    net, dim = prob.network, prob.dim
    rng = np.random.default_rng(11)
    zeros = AgentState.zeros(SimConfig().compensator, prob)
    init = AgentState(rng.normal(size=zeros.rho.shape), rng.normal(size=zeros.xi.shape),
                      rng.uniform(0.5, 2.0, zeros.lam.shape), rng.normal(size=zeros.mu.shape))
    cfg = SimConfig(step=0.01, mode=mode, initial=init, log_every=1,
                    delays=per_edge(net, lambda i, j: 0.01 * (i + 2 * j + 1)))
    run = engine._Run(prob, cfg, init, 1)
    line = DelayLine(cfg.delays, cfg.step, 2 * dim, net.rev)
    coupling = CouplingMatrix(net.weight, dim)
    end = ChannelEnd(coupling, cfg.eta)
    depth = line._depth
    assert len(set(line.steps.tolist())) >= 4 and depth >= 4
    state = run.states[0]
    for k in range(2 * depth + 3):
        t = k * cfg.step
        u = np.concatenate([state.x, state.xi], axis=1)
        u_own = u[net.own]
        with np.errstate(all="ignore"):
            _, (r, p, s_in, _), nxt, trip = run.step(k, t, state)
        assert trip is None
        assert run.u_own[k % run.count].tobytes() == u_own.tobytes(), k
        crossed = u[net.nbr] if mode == "no_delay" else line.pop(t)
        if mode == "scattering":
            assert s_in.tobytes() == crossed.tobytes(), k
            block = end.recover(crossed, u_own)
            assert run.waves[k % run.count].tobytes() == block.tobytes(), k
            sent = block[:, 2]
        else:
            assert r.tobytes() == crossed.tobytes(), k
            want = np.matmul(coupling.blocks, (crossed - u_own).reshape(-1, 2, dim))
            assert p.tobytes() == want.tobytes(), k
            sent = u_own
        if run.line is not None:
            line.push(sent, t)
            assert run.line._buf[k % depth].tobytes() == line._buf[k % depth].tobytes(), k
        state = nxt
    assert not np.all(crossed == 0.0)  # the lines carried something back


@pytest.mark.parametrize("m", [1, 2, 3])
def test_initial_state_round_trips_through_the_stage_major_rows(m):
    # SimConfig.initial goes into the run's rows, which hold the stages
    # stage-major, and comes out of the log's (S, N, m, n) rho as given: a
    # run of no steps logs it as its closing sample
    prob = chord_quadratic()
    comp = CompensatorParams(2.0 * np.arange(m), 1.0 + np.arange(m))
    rng = np.random.default_rng(60 + m)
    zeros = AgentState.zeros(comp, prob)
    init = AgentState(rng.normal(size=zeros.rho.shape), rng.normal(size=zeros.xi.shape),
                      rng.uniform(0.5, 2.0, zeros.lam.shape), rng.normal(size=zeros.mu.shape))
    log = simulate(prob, SimConfig(duration=0.0, compensator=comp, initial=init))
    assert log.rho.shape == (1, prob.n_agents, m, prob.dim)
    for name in ("rho", "xi", "lam", "mu", "x"):
        assert getattr(log, name)[-1].tobytes() == getattr(init, name).tobytes(), name


@pytest.mark.parametrize("affine", [True, False])
def test_certificate_rows_hold_grad_at_their_x(forked_diag, step_rows, monkeypatch, affine):
    # the affine path writes its constant grad f into the step rows once,
    # the loop path, here with quadratic objectives, writes it at every
    # step: either way each row the certificates evaluate holds grad f at
    # that row's x, but the closing row, which carries the last step's
    # derivative
    if affine:
        prob = build_distributed_problem(generate_instance(0, n=3), ring(3, 4.0))
    else:
        prob = three_agent_quadratic()
    assert (prob._affine is not None) == affine
    n = (prob.n_agents, prob.dim)
    ref = ReferencePoint(np.zeros(n), np.zeros(n), np.ones(prob.ineq_owner.size),
                         np.zeros(prob.eq_owner.size))
    checked = []
    evaluate = engine._DiagState._evaluate

    def checking(self, slot, K, *rest):
        [rows] = step_rows
        assert self.run is rows
        at = slice(slot * rows.per_slot, slot * rows.per_slot + K)
        z, grad = rows.z[at], rows.grad[at]
        x = AgentState._of(rows.table, z).x
        for j in range(K - self.closed):
            assert grad[j].tobytes() == prob.local_terms(x[j]).grad.tobytes(), (slot, j)
        checked.append(K - self.closed)
        return evaluate(self, slot, K, *rest)

    forked_diag(False)
    monkeypatch.setattr(engine._DiagState, "_evaluate", checking)
    log = simulate(prob, SimConfig(duration=0.1, log_every=1000, reference=ref))
    assert log.abort_reason is None
    # 100 steps: every row of both slots written at least once
    assert sum(checked) == 100 and len(step_rows[0].states) == 64
