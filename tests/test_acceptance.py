"""Acceptance gate: one test and one printed pass/fail line per criterion.

The expensive runs (reference pass, the two converged runs with online
diagnostics, the naive and pure-integrator baselines) are module-scoped
fixtures shared across criteria, so the whole gate costs five simulations.
All runs use the packaged default configuration (instance seed 5, ring(5, 4),
h = 1e-3, poles (0, 5), gains (1, 10), lambda0 = 0.01, delays uniform in
[0.2, 0.3] s); the converged runs simulate 60 s, the baselines 200 s.
"""

import time

import numpy as np
import pytest

from dcopt import brute_force_optimal, extract_assignment, simulate
from dcopt.cli import (
    build_scenario,
    classify,
    compute_reference,
    run,
    validate_config,
)
from test_engine import direct_primal_dual_run, ring_matrix, three_agent_quadratic

CONVERGED_DURATION = 60.0
BASELINE_DURATION = 200.0


def report(capfd, num, name, ok, detail):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def timed_run(prob, sim):
    t0 = time.perf_counter()
    log = simulate(prob, sim)
    return log, time.perf_counter() - t0


@pytest.fixture(scope="module")
def oracle_setup():
    cfg = validate_config(None, {"duration": CONVERGED_DURATION})
    inst, prob, _ = build_scenario(cfg, "no_delay")
    perm, cost = brute_force_optimal(inst)
    return cfg, inst, prob, perm, cost


@pytest.fixture(scope="module")
def reference(oracle_setup):
    cfg, _, prob, _, _ = oracle_setup
    ref, note = compute_reference(cfg, prob)
    assert ref is not None, note
    return ref


@pytest.fixture(scope="module")
def nd_run(oracle_setup, reference):
    cfg, _, prob, _, _ = oracle_setup
    _, _, sim = build_scenario(cfg, "no_delay")
    sim.reference = reference
    return timed_run(prob, sim)


@pytest.fixture(scope="module")
def sc_run(oracle_setup, reference):
    cfg, _, prob, _, _ = oracle_setup
    _, _, sim = build_scenario(cfg, "scattering")
    sim.reference = reference
    return timed_run(prob, sim)


@pytest.fixture(scope="module")
def naive_run(oracle_setup):
    cfg, _, prob, _, _ = oracle_setup
    cfg = dict(cfg, duration=BASELINE_DURATION)
    _, _, sim = build_scenario(cfg, "naive_delay")
    return timed_run(prob, sim)


@pytest.fixture(scope="module")
def m1_run(oracle_setup):
    cfg, _, prob, _, _ = oracle_setup
    cfg = dict(cfg, duration=BASELINE_DURATION)
    _, _, sim = build_scenario(cfg, "no_compensator")
    return timed_run(prob, sim)


def converged_facts(log, prob, perm):
    res = log.kkt[-1].as_dict()
    x_end, _, _, _ = log.final_stacks()
    matches = sum(
        1 for i in range(prob.n_agents) if extract_assignment(x_end[i]) == perm
    )
    return res, matches


def test_criterion_01_no_delay_reproduction(capfd, oracle_setup, nd_run):
    _, _, prob, perm, _ = oracle_setup
    log, wall = nd_run
    res, matches = converged_facts(log, prob, perm)
    worst = max(res.values())
    ok = (
        log.abort_reason is None
        and matches == prob.n_agents
        and res["consensus"] <= 1e-2
        and worst <= 1e-2
        and wall < 120.0
    )
    report(
        capfd, 1, "no-delay reproduction", ok,
        f"assignments {matches}/{prob.n_agents} == oracle {perm}, "
        f"max kkt {worst:.2e}, consensus {res['consensus']:.2e}, "
        f"wall {wall:.0f}s (<120s)",
    )


def test_criterion_02_scattering_reproduction(capfd, oracle_setup, sc_run):
    _, _, prob, perm, _ = oracle_setup
    log, wall = sc_run
    res, matches = converged_facts(log, prob, perm)
    worst = max(res.values())
    ok = (
        log.abort_reason is None
        and matches == prob.n_agents
        and res["consensus"] <= 1e-2
        and worst <= 1e-2
        and wall < 180.0
    )
    report(
        capfd, 2, "scattering reproduction", ok,
        f"assignments {matches}/{prob.n_agents} == oracle {perm}, "
        f"max kkt {worst:.2e}, consensus {res['consensus']:.2e}, "
        f"wall {wall:.0f}s (<180s)",
    )


def test_criterion_03_naive_delay_fragility(capfd, naive_run, sc_run):
    naive_log, _ = naive_run
    sc_log, _ = sc_run
    sc_cons = sc_log.kkt[-1].consensus
    if naive_log.abort_reason is not None:
        ok = True
        detail = f"divergence guard tripped at step {naive_log.abort_step}"
    else:
        naive_cons = naive_log.kkt[-1].consensus
        ratio = naive_cons / sc_cons
        ok = ratio > 10.0
        detail = (
            f"no abort; final consensus {naive_cons:.2e} = {ratio:.0f}x "
            f"the scattering run's {sc_cons:.2e} (>10x required)"
        )
    report(capfd, 3, "naive delay fragility", ok, detail)


def test_criterion_04_oscillation_ablation(capfd, oracle_setup, m1_run, nd_run):
    m1_log, _ = m1_run
    nd_log, _ = nd_run
    v_m1 = classify(m1_log)
    v_m2 = classify(nd_log)
    ok = v_m1 == "oscillating" and v_m2 == "converged"
    report(
        capfd, 4, "pure-integrator oscillation", ok,
        f"m=1 verdict {v_m1} over {BASELINE_DURATION:.0f}s, "
        f"m=2 verdict {v_m2}",
    )


def test_criterion_05_lyapunov_monotonicity(capfd, oracle_setup, nd_run, sc_run):
    cfg = oracle_setup[0]
    h = cfg["step"]
    nd_log, _ = nd_run
    sc_log, _ = sc_run
    v = np.array(nd_log.lyap_direct)
    v_delayed = np.array(sc_log.lyap_delayed)
    slack_v = 1e-3 * h * (1.0 + v[0])
    slack_delayed = 1e-3 * h * (1.0 + v_delayed[0])
    inc_v = float(np.diff(v).max())
    inc_delayed = float(np.diff(v_delayed).max())
    ok = inc_v <= slack_v and inc_delayed <= slack_delayed
    report(
        capfd, 5, "Lyapunov monotonicity", ok,
        f"direct-Lyapunov max increment {inc_v:.2e} (slack {slack_v:.2e}), "
        f"delayed-Lyapunov max increment {inc_delayed:.2e} (slack {slack_delayed:.2e}) "
        f"on the 0.1 s grid",
    )


def test_criterion_06_storage_rate_bounds(capfd, nd_run, sc_run):
    worsts = {}
    for tag, (log, _) in (("no_delay", nd_run), ("scattering", sc_run)):
        for name, arr in (
            ("compensator", log.passivity.compensator_excess),
            ("multiplier", log.passivity.multiplier_excess),
            ("coupling", log.passivity.coupling_excess),
        ):
            worsts[f"{tag}/{name}"] = float(np.nanmax(arr))
    ok = all(v <= 0.0 for v in worsts.values())
    detail = ", ".join(f"{k} {v:+.1e}" for k, v in worsts.items())
    report(capfd, 6, "storage rate bounds", ok, f"max excess per check: {detail}")


def test_criterion_07_wave_identity(capfd, sc_run):
    log, _ = sc_run
    wave_max = log.passivity.wave_identity_max
    ok = wave_max <= 1e-10
    report(
        capfd, 7, "wave power identity", ok,
        f"max |(|s_in|^2 - |s_out|^2) - 2 r'p| = {wave_max:.2e} "
        f"(<= 1e-10) over all steps and edges",
    )


def test_criterion_08_pure_integrator_reduction(capfd):
    from dcopt import SimConfig
    from dcopt.dynamics import CompensatorParams

    prob = three_agent_quadratic()
    step, duration = 1e-3, 2.0
    cfg = SimConfig(
        step=step, duration=duration,
        compensator=CompensatorParams.pure_integrator(), log_every=1,
    )
    log = simulate(prob, cfg)
    dx, dxi, dlam, dmu = direct_primal_dual_run(prob, ring_matrix(3, 2.0), duration, step)
    worst = 0.0
    for s in range(len(dx)):
        worst = max(worst, float(np.abs(log.x[s] - dx[s]).max()))
        worst = max(worst, float(np.abs(log.xi[s] - dxi[s]).max()))
        for i in range(3):
            lam = log.lam[s][prob.ineq_owner == i]
            mu = log.mu[s][prob.eq_owner == i]
            if dlam[s][i].size:
                worst = max(worst, float(np.abs(lam - dlam[s][i]).max()))
            if dmu[s][i].size:
                worst = max(worst, float(np.abs(mu - dmu[s][i]).max()))
    ok = worst <= 1e-12
    report(
        capfd, 8, "m=1 reduction equivalence", ok,
        f"max deviation from the direct primal-dual loop {worst:.2e} "
        f"(<= 1e-12) over {len(dx)} samples",
    )


def test_criterion_09_gradient_correctness(capfd, oracle_setup):
    from dcopt.problem import QuadraticFunction

    _, _, prob, _, _ = oracle_setup
    funcs = []
    for p in prob.local_problems:
        funcs.append(p.objective)
        funcs.extend(p.inequalities)
        funcs.extend(p.equalities)
    rng = np.random.default_rng(101)
    a = rng.normal(size=(6, 6))
    funcs.append(QuadraticFunction(a @ a.T, rng.normal(size=6), 0.3))
    worst = 0.0
    for f in funcs:
        for _ in range(100):
            x = rng.normal(scale=5.0, size=f.dim)
            g = f.gradient(x)
            fd = np.zeros_like(g)
            for k in range(f.dim):
                e = np.zeros(f.dim)
                e[k] = 1e-6
                fd[k] = (f.value(x + e) - f.value(x - e)) / 2e-6
            rel = float(np.abs(g - fd).max() / (1.0 + np.abs(fd).max()))
            worst = max(worst, rel)
    ok = worst <= 1e-5
    report(
        capfd, 9, "gradient correctness", ok,
        f"max relative central-difference error {worst:.2e} (<= 1e-5) "
        f"across {len(funcs)} functions x 100 points",
    )


def test_criterion_10_deterministic_artifacts(capfd, tmp_path):
    import json

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"duration": 2.0, "diagnostics": False}))
    outs = []
    for name in ("a", "b"):
        assert run("scattering", out_dir=str(tmp_path / name),
                   config_path=str(cfg_path)) == 0
        outs.append((tmp_path / name / "trajectory.csv").read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    report(
        capfd, 10, "deterministic trajectories", ok,
        f"two identical scattering runs, trajectory.csv byte-identical "
        f"({len(outs[0])} bytes)",
    )
