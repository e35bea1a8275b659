"""Command-line front end: configured scenario runs with artifact output.

Scenarios wire one shared problem construction to different exchange
modes and compensators:

    no_delay        direct neighbor exchange, phase-lead compensator
    naive_delay     raw delayed exchange (expected to diverge)
    scattering      wave-variable channel over the same delays
    no_compensator  direct exchange, pure integrator (m = 1)

Each run writes three artifacts into the output directory: trajectory.csv
(long-format series), diagnostics.txt (verdict and summary figures), and
config.normalized (the fully defaulted configuration; re-running from it
reproduces trajectory.csv byte for byte).
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .dynamics import CompensatorParams
from .engine import ReferencePoint, SimConfig, simulate
from .graph import ring
from .matching import (
    brute_force_optimal,
    build_distributed_problem,
    extract_assignment,
    generate_instance,
)

SCENARIOS = ("no_delay", "naive_delay", "scattering", "no_compensator")

DEFAULT_CONFIG = {
    "seed": 5,
    "agents": 5,
    "area": 100.0,
    "ring_weight": 4.0,
    "step": 0.001,
    "duration": 200.0,
    "compensator_poles": [0.0, 5.0],
    "compensator_gains": [1.0, 10.0],
    "eta": 1.0,
    "initial_multiplier": 0.01,
    "delay_range": [0.2, 0.3],
    "log_every": 1000,
    "diag_interval": 0.1,
    "diagnostics": True,
}

KKT_TOL = 1e-2
OSCILLATION_FACTOR = 10.0

# Bytes that build_scenario and a run's first local_terms may hold.  The
# LP's constraint rows are dense, N^2 + 2N rows of N^2 entries, and are
# held several times over (the functions, the stacked rows); local_terms
# sums the values over the rows' nonzeros and gathers no dense copy of x.
# tracemalloc's peak over build_scenario and one local_terms reads 2.2,
# 19.5 and 93.3 MB at N = 16, 32 and 48.  The estimate 32 N^4 bytes (33.6
# and 169.9 MB at N = 32 and 48) bounds that from N = 32 on, and passes
# this budget past N = 76.
_MEMORY_BUDGET = 1 << 30


class ConfigError(ValueError):
    """Config rejected; the message names the offending field."""


def _require(cond, field, detail):
    if not cond:
        raise ConfigError(f"{field}: {detail}")


def _check_number(field, value, positive=False, nonneg=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise ConfigError(f"{field}: must be finite, got an integer too large "
                          f"for a float") from None
    _require(math.isfinite(v), field, f"must be finite, got {v}")
    if positive:
        _require(v > 0.0, field, f"must be > 0, got {v}")
    if nonneg:
        _require(v >= 0.0, field, f"must be >= 0, got {v}")
    return v


def validate_config(path=None, overrides=None):
    """Parse, strictly validate, and fully default a JSON config.

    Unknown keys are rejected with the field path; overrides (duration,
    step, seed) are applied before validation so the normalized echo
    reproduces the run exactly.
    """
    raw = {}
    if path is not None:
        with open(path) as f:
            try:
                raw = json.load(f)
            except json.JSONDecodeError as err:
                raise ConfigError(f"config: not valid JSON ({err})") from err
            except ValueError as err:  # an integer literal of too many digits
                raise ConfigError(f"config: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be an object")
    for key in raw:
        if key not in DEFAULT_CONFIG:
            raise ConfigError(f"{key}: unknown config key")
    cfg = dict(DEFAULT_CONFIG)
    cfg.update(raw)
    if overrides:
        for key, value in overrides.items():
            if value is not None:
                cfg[key] = value

    _require(
        isinstance(cfg["seed"], int) and not isinstance(cfg["seed"], bool),
        "seed", f"expected an integer, got {cfg['seed']!r}",
    )
    _require(cfg["seed"] >= 0, "seed", "must be >= 0")
    _require(
        isinstance(cfg["agents"], int) and not isinstance(cfg["agents"], bool),
        "agents", f"expected an integer, got {cfg['agents']!r}",
    )
    _require(cfg["agents"] >= 3, "agents", "ring topology needs >= 3 agents")
    need = 32 * cfg["agents"] ** 4
    _require(need <= _MEMORY_BUDGET, "agents",
             f"{cfg['agents']} agents need about {need >> 20} MiB for the problem's dense "
             f"constraint rows, over the budget of {_MEMORY_BUDGET >> 20} MiB")
    for field in ("area", "ring_weight", "step", "duration", "eta", "initial_multiplier",
                  "diag_interval"):
        cfg[field] = _check_number(field, cfg[field], positive=field != "duration",
                                   nonneg=field == "duration")
    _require(
        cfg["diag_interval"] >= cfg["step"],
        "diag_interval", "must be >= step",
    )
    # simulate counts both in whole steps
    for field in ("duration", "diag_interval"):
        _require(cfg[field] / cfg["step"] < 2.0**63, field,
                 f"{cfg[field]} s is over 2**63 steps of {cfg['step']} s")
    _require(
        isinstance(cfg["log_every"], int)
        and not isinstance(cfg["log_every"], bool)
        and cfg["log_every"] >= 1,
        "log_every", f"expected an integer >= 1, got {cfg['log_every']!r}",
    )
    _require(
        isinstance(cfg["diagnostics"], bool),
        "diagnostics", f"expected true/false, got {cfg['diagnostics']!r}",
    )

    poles = cfg["compensator_poles"]
    gains = cfg["compensator_gains"]
    for field, seq in (("compensator_poles", poles), ("compensator_gains", gains)):
        _require(
            isinstance(seq, list) and len(seq) >= 1,
            field, "expected a non-empty list",
        )
        for k, v in enumerate(seq):
            _check_number(f"{field}[{k}]", v)
    _require(
        len(poles) == len(gains),
        "compensator_gains", "must have the same length as compensator_poles",
    )
    _require(poles[0] == 0.0, "compensator_poles[0]", "must be exactly 0")
    for k in range(1, len(poles)):
        _require(
            poles[k] > poles[k - 1],
            f"compensator_poles[{k}]", "poles must be strictly increasing",
        )
    for k, v in enumerate(gains):
        _require(v > 0.0, f"compensator_gains[{k}]", "gains must be > 0")

    dr = cfg["delay_range"]
    _require(
        isinstance(dr, list) and len(dr) == 2,
        "delay_range", "expected [low, high]",
    )
    low = _check_number("delay_range[0]", dr[0], positive=True)
    high = _check_number("delay_range[1]", dr[1], positive=True)
    _require(low <= high, "delay_range[1]", "high must be >= low")
    # a delay line counts a delay's steps in int64
    _require(high / cfg["step"] < 2.0**63, "delay_range[1]",
             f"{high} s is over 2**63 steps of {cfg['step']} s")
    cfg["delay_range"] = [low, high]
    return cfg


def sample_delays(network, cfg):
    """Constant delays (E,), one per directed edge in the network's table
    order, seeded from the config seed.

    The stream is decoupled from the instance-position stream by a fixed
    second seed word, so positions and delays vary independently.
    """
    rng = np.random.default_rng([cfg["seed"], 1])
    low, high = cfg["delay_range"]
    delays = rng.uniform(low, high, network.own.size)
    short = np.flatnonzero(delays < cfg["step"])
    if short.size:
        e = short[0]
        raise ConfigError(
            f"delay_range: sampled delay {delays[e]:.6f} s on edge "
            f"{network.own[e]}->{network.nbr[e]} is below one step ({cfg['step']} s)"
        )
    return delays


def build_scenario(cfg, scenario):
    """(instance, problem, SimConfig) for a validated config + scenario.

    The four scenarios share the instance and problem; they differ only in
    exchange mode and compensator order.
    """
    inst = generate_instance(cfg["seed"], cfg["agents"], cfg["area"])
    net = ring(cfg["agents"], cfg["ring_weight"])
    prob = build_distributed_problem(inst, net)
    return inst, prob, _sim_config(cfg, scenario, net)


def _sim_config(cfg, scenario, net):
    """SimConfig of a scenario on the config's network."""
    if scenario == "no_compensator":
        comp = CompensatorParams.pure_integrator()
    else:
        comp = CompensatorParams(
            np.array(cfg["compensator_poles"], dtype=float),
            np.array(cfg["compensator_gains"], dtype=float),
        )
    mode = "no_delay" if scenario == "no_compensator" else scenario
    delays = sample_delays(net, cfg) if mode != "no_delay" else None
    return SimConfig(
        step=cfg["step"],
        duration=cfg["duration"],
        mode=mode,
        compensator=comp,
        eta=cfg["eta"],
        delays=delays,
        lam0=cfg["initial_multiplier"],
        log_every=cfg["log_every"],
        diag_interval=cfg["diag_interval"],
    )


def compute_reference(cfg, prob):
    """Converged no-delay end state, or None with the reason it is absent."""
    log = simulate(prob, _sim_config(cfg, "no_delay", prob.network))
    if log.abort_reason is not None:
        return None, f"reference run aborted ({log.abort_reason})"
    # the closing sample's residual, from the arrays the ReferencePoint
    # holds: bit-equal to kkt_residual of its x, xi, lam and mu
    worst = log.kkt[-1].max()
    if not worst <= KKT_TOL:  # NaN fails too
        return None, (
            f"no-delay end state fails KKT at {KKT_TOL:g} "
            f"(max residual {worst:.3e})"
        )
    ref = ReferencePoint(*log.final_stacks())
    return ref, f"no-delay end state, max KKT residual {worst:.3e}"


def classify(log):
    """Verdict on a run: diverged / converged / oscillating / not_converged.

    oscillating: some KKT residual field swings over the last quartile of
    the run's configured duration (log.config.duration) by more than 10x
    its own minimum there.  Fields whose last-quartile max is already below
    the convergence tolerance do not count; sub-tolerance wiggle is not a
    failure to settle.
    """
    if log.abort_reason is not None:
        return "diverged"
    if log.kkt[-1].max() <= KKT_TOL:  # NaN fails
        return "converged"
    mask = log.t >= 0.75 * log.config.duration
    if np.count_nonzero(mask) >= 2:
        for name in log.kkt[0].as_dict():
            q = np.array([getattr(r, name) for r in log.kkt])[mask]
            spread = float(q.max() - q.min())
            if q.max() > KKT_TOL and spread > OSCILLATION_FACTOR * float(q.min()):
                return "oscillating"
    return "not_converged"


def _fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6e}"
    return str(value)


def write_diagnostics(path, lines):
    with open(path, "w") as f:
        for key, value in lines:
            f.write(f"{key}: {_fmt(value)}\n")


def run(scenario, out_dir=".", config_path=None, duration=None, step=None, seed=None):
    """Execute one scenario end to end, writing the artifacts into out_dir;
    returns the process exit status.  config_path is a JSON config
    (defaults if None), and duration, step and seed override its values."""
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario: {scenario!r} is not one of {SCENARIOS}")
    cfg = validate_config(
        config_path, overrides={"duration": duration, "step": step, "seed": seed}
    )
    os.makedirs(out_dir, exist_ok=True)
    inst, prob, sim = build_scenario(cfg, scenario)

    ref = None
    ref_note = "diagnostics disabled"
    ref_seconds = None
    if cfg["diagnostics"]:
        t0 = time.perf_counter()
        ref, ref_note = compute_reference(cfg, prob)
        ref_seconds = time.perf_counter() - t0
        sim.reference = ref

    t0 = time.perf_counter()
    log = simulate(prob, sim)
    wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    log.to_csv(os.path.join(out_dir, "trajectory.csv"))
    csv_seconds = time.perf_counter() - t0

    verdict = classify(log)
    oracle, oracle_cost = brute_force_optimal(inst)
    x_end, _, _, _ = log.final_stacks()
    assignments = [extract_assignment(x_end[i]) for i in range(prob.n_agents)]
    matches = sum(1 for a in assignments if a == oracle)
    objective_sum = sum(
        prob.local_problems[i].objective.value(x_end[i])
        for i in range(prob.n_agents)
    )

    lines = [
        ("scenario", scenario),
        ("verdict", verdict),
        ("seed", cfg["seed"]),
        ("simulated_seconds", float(log.t[-1])),
        ("wall_seconds", wall),
        ("reference_seconds", ref_seconds),
        ("csv_seconds", csv_seconds),
        ("abort_reason", log.abort_reason),
        ("abort_step", log.abort_step),
        ("oracle_permutation", oracle),
        ("agents_matching_oracle", f"{matches}/{prob.n_agents}"),
        ("assignments", assignments),
        ("objective_sum", float(objective_sum)),
        ("oracle_cost", oracle_cost),
        ("final_consensus_error", float(log.kkt[-1].consensus)),
    ]
    for name, value in log.kkt[-1].as_dict().items():
        lines.append((f"final_kkt_{name}", float(value)))
    lines.append(("reference", ref_note))

    for name, series in (("direct", log.lyap_direct), ("delayed", log.lyap_delayed)):
        if ref is None or not series:
            continue
        v = np.array(series)
        slack = 1e-3 * cfg["step"] * (1.0 + v[0])
        inc = float(np.diff(v).max()) if v.size > 1 else 0.0
        lines += [
            (f"lyapunov_{name}_initial", float(v[0])),
            (f"lyapunov_{name}_final", float(v[-1])),
            (f"lyapunov_{name}_max_increment", inc),
            (f"lyapunov_{name}_slack", slack),
        ]
        # a no-delay run certifies the direct V, a scattering run the delayed V
        if name == "delayed" or sim.mode == "no_delay":
            lines.append((f"lyapunov_{name}_non_increasing", inc <= slack))
    if ref is not None:
        report = log.passivity
        for name, arr in (
            ("compensator", report.compensator_excess),
            ("multiplier", report.multiplier_excess),
            ("coupling", report.coupling_excess),
        ):
            worst = None if np.isnan(arr).all() else float(np.nanmax(arr))
            lines.append((f"passivity_{name}_max_excess", worst))
        if sim.mode == "scattering":
            lines.append(("wave_identity_max", float(report.wave_identity_max)))
    lines.append(("events", len(log.events)))
    for ev in log.events:
        lines.append(
            ("event", f"step {ev['step']} t={ev['t']:.3f} {ev['kind']}: "
                      f"{ev['detail']}")
        )

    write_diagnostics(os.path.join(out_dir, "diagnostics.txt"), lines)
    with open(os.path.join(out_dir, "config.normalized"), "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")

    if log.abort_reason is not None and scenario != "naive_delay":
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dcopt",
        description=(
            "Distributed constrained optimization simulator: run one "
            "scenario and write trajectory.csv, diagnostics.txt, and "
            "config.normalized."
        ),
    )
    parser.add_argument("--config", help="JSON config file (defaults if omitted)")
    parser.add_argument(
        "--scenario", required=True, choices=SCENARIOS, help="what to run"
    )
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument(
        "--duration", type=float, help="override simulated seconds"
    )
    parser.add_argument("--step", type=float, help="override step size")
    args = parser.parse_args(argv)
    try:
        return run(args.scenario, args.out, args.config, args.duration, args.step, args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
