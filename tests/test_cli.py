"""Config validation, scenario wiring, verdicts, artifacts, exit codes."""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from dcopt.cli import (
    KKT_TOL,
    DEFAULT_CONFIG,
    ConfigError,
    build_scenario,
    classify,
    main,
    run,
    sample_delays,
    validate_config,
)
from dcopt.engine import simulate
from dcopt.matching import _solve, brute_force_optimal, extract_assignment
from dcopt.problem import KKTResidual

INF, NAN = float("inf"), float("nan")
HUGE = 10**400  # 401 digits


def test_defaults_pass_validation():
    cfg = validate_config(None)
    assert cfg == dict(cfg)
    for key in DEFAULT_CONFIG:
        assert key in cfg
    assert cfg["agents"] == 5
    assert cfg["compensator_poles"] == [0.0, 5.0]


def test_overrides_apply_and_none_is_ignored():
    cfg = validate_config(None, {"duration": 1.5, "seed": None})
    assert cfg["duration"] == 1.5
    assert cfg["seed"] == DEFAULT_CONFIG["seed"]


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"agnts": 5}))
    with pytest.raises(ConfigError, match="agnts: unknown config key"):
        validate_config(path)


def test_bad_json_and_bad_top_level(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        validate_config(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        validate_config(path)
    # json reads integers of at most 4300 digits (Pythons without that
    # limit read it, and the field check rejects it)
    path.write_text('{"area": ' + "1" * 5000 + "}")
    with pytest.raises(ConfigError, match=r"config: Exceeds the limit|area: must be finite"):
        validate_config(path)


@pytest.mark.parametrize(
    "patch,msg",
    [
        ({"seed": True}, "seed: expected an integer"),
        ({"seed": -1}, "seed: must be >= 0"),
        ({"agents": 2}, "agents: ring topology needs >= 3"),
        ({"step": 0.0}, "step: must be > 0"),
        ({"duration": -1.0}, "duration: must be >= 0"),
        ({"eta": -2.0}, "eta: must be > 0"),
        ({"initial_multiplier": 0.0}, "initial_multiplier: must be > 0"),
        ({"log_every": 0}, "log_every: expected an integer >= 1"),
        ({"diagnostics": 1}, "diagnostics: expected true/false"),
        ({"diag_interval": 1e-5}, "diag_interval: must be >= step"),
        ({"compensator_poles": []}, "compensator_poles: expected a non-empty"),
        ({"compensator_poles": [0.0, "x"]}, r"compensator_poles\[1\]: expected a number"),
        ({"compensator_poles": [1.0, 5.0]}, r"compensator_poles\[0\]: must be exactly 0"),
        ({"compensator_poles": [0.0, 5.0, 5.0], "compensator_gains": [1.0, 1.0, 1.0]},
         r"compensator_poles\[2\]: poles must be strictly increasing"),
        ({"compensator_gains": [1.0, -1.0]}, r"compensator_gains\[1\]: gains must be > 0"),
        ({"compensator_gains": [1.0]}, "compensator_gains: must have the same length"),
        ({"delay_range": [0.3]}, r"delay_range: expected \[low, high\]"),
        ({"delay_range": [0.3, 0.2]}, r"delay_range\[1\]: high must be >= low"),
        ({"agents": 5.0}, "agents: expected an integer, got 5.0"),
        # json writes and reads the literals Infinity and NaN
        ({"duration": INF}, "duration: must be finite, got inf"),
        ({"area": INF}, "area: must be finite, got inf"),
        ({"eta": INF}, "eta: must be finite, got inf"),
        ({"ring_weight": INF}, "ring_weight: must be finite, got inf"),
        ({"initial_multiplier": INF}, "initial_multiplier: must be finite, got inf"),
        ({"step": NAN}, "step: must be finite, got nan"),
        ({"diag_interval": NAN}, "diag_interval: must be finite, got nan"),
        ({"compensator_gains": [1.0, NAN]}, r"compensator_gains\[1\]: must be finite"),
        ({"delay_range": [0.2, INF]}, r"delay_range\[1\]: must be finite, got inf"),
        # a JSON integer too large for a float
        ({"area": HUGE}, "area: must be finite, got an integer too large"),
        ({"delay_range": [0.2, HUGE]}, r"delay_range\[1\]: must be finite, got an integer"),
        ({"compensator_gains": [1.0, HUGE]},
         r"compensator_gains\[1\]: must be finite, got an integer"),
        # finite, but more steps than a delay line can count
        ({"delay_range": [0.2, 1e30]}, r"delay_range\[1\]: 1e\+30 s is over 2\*\*63 steps"),
        # step counts that overflowed to inf in simulate (exit 1, not 2)
        ({"step": 1e-310, "duration": 1e10, "delay_range": [1e-300, 1e-300],
          "diag_interval": 1e-300}, r"duration: 10000000000\.0 s is over 2\*\*63 steps"),
        ({"step": 1e-310, "duration": 0, "delay_range": [1e-300, 1e-300],
          "diag_interval": 1e10}, r"diag_interval: 10000000000\.0 s is over 2\*\*63 steps"),
        # 32 N^4 bytes of dense constraint rows: N = 76 fits in 1 GiB, 77 not
        ({"agents": 77}, "agents: 77 agents need about 1072 MiB for the problem's dense "
                         "constraint rows, over the budget of 1024 MiB"),
        ({"agents": 10**30}, r"agents: 1000000000000000000000000000000 agents need about "
                             r"\d+ MiB"),
    ],
)
def test_field_validation_messages(tmp_path, patch, msg):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(patch))
    with pytest.raises(ConfigError, match=msg):
        validate_config(path)


def test_agents_up_to_the_memory_budget_validate():
    # the last agents value whose 32 N^4 bytes fit in 1 GiB; 77 is refused
    # in the table above, before anything is built
    assert validate_config(None, {"agents": 76})["agents"] == 76


def test_run_spec_rejects_unknown_scenario(tmp_path):
    # run is called without argparse's choices; it refuses before it
    # makes the output directory
    with pytest.raises(ConfigError, match="scenario"):
        run("instant", out_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_sample_delays_deterministic_in_range():
    cfg = validate_config(None, {"seed": 7})
    _, prob, _ = build_scenario(cfg, "no_delay")
    net = prob.network
    d1 = sample_delays(net, cfg)
    d2 = sample_delays(net, cfg)
    assert np.array_equal(d1, d2)
    assert d1.shape == net.own.shape  # one per edge of the table
    assert np.all((0.2 <= d1) & (d1 <= 0.3))
    cfg2 = validate_config(None, {"seed": 8})
    assert not np.array_equal(sample_delays(net, cfg2), d1)


def test_sample_delays_below_step_names_edge(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"step": 0.5, "diag_interval": 0.5}))
    cfg = validate_config(path)
    _, prob, _ = build_scenario(cfg, "no_delay")
    with pytest.raises(ConfigError, match=r"delay_range: sampled delay .* 0->1"):
        sample_delays(prob.network, cfg)


def test_build_scenario_wiring():
    cfg = validate_config(None, {"seed": 5})
    inst_a, prob_a, sim_a = build_scenario(cfg, "no_delay")
    assert sim_a.mode == "no_delay"
    assert sim_a.delays is None
    assert sim_a.compensator.m == 2
    inst_b, _, sim_b = build_scenario(cfg, "no_compensator")
    assert sim_b.mode == "no_delay"
    assert sim_b.compensator.m == 1
    _, _, sim_c = build_scenario(cfg, "scattering")
    assert sim_c.mode == "scattering"
    assert sim_c.delays is not None
    _, _, sim_d = build_scenario(cfg, "naive_delay")
    assert sim_d.mode == "naive_delay"
    assert np.array_equal(sim_d.delays, sim_c.delays)
    # one shared instance across scenarios
    assert np.array_equal(inst_a.robots, inst_b.robots)


def test_twelve_agents_build_with_an_exact_oracle():
    # the assignment solver has no size cap: 12 agents (12! = 479M
    # permutations) validate and build at once, and the oracle's edges all
    # have reduced cost d - u - v = 0 under the solver's dual
    cfg = validate_config(None, {"agents": 12})
    t0 = time.perf_counter()
    inst, prob, _ = build_scenario(cfg, "scattering")
    assert time.perf_counter() - t0 < 1.0
    assert prob.n_agents == 12 and inst.n == 12
    perm, cost = brute_force_optimal(inst)
    assert sorted(perm) == list(range(12))
    d = inst.distances()
    u, v, col_of, _ = _solve(d.tolist())
    assert tuple(col_of) == perm
    reduced = d - np.array(u)[:, None] - np.array(v)[None, :]
    assert np.abs(reduced[np.arange(12), perm]).max() <= 1e-9 * d.max()
    assert reduced.min() >= -1e-9 * d.max()


def fake_log(rows, abort=None):
    """A log of one sample a second, its duration the last sample's t."""
    kkt = [
        KKTResidual(r.get("consensus", 0.0), r.get("stationarity", 0.0),
                    r.get("primal_eq", 0.0), r.get("primal_ineq", 0.0),
                    r.get("comp_slack", 0.0))
        for r in rows
    ]
    return SimpleNamespace(
        abort_reason=abort, kkt=kkt, t=np.arange(len(rows), dtype=float),
        config=SimpleNamespace(duration=float(len(rows) - 1)),
    )


def test_classify_diverged_and_converged():
    log = fake_log([{"stationarity": 5.0}] * 4, abort="divergence")
    assert classify(log) == "diverged"
    log = fake_log([{"stationarity": 5.0}] * 3 + [{"stationarity": 1e-3}])
    assert classify(log) == "converged"


def test_classify_reads_the_last_samples_worst_field():
    # the last sample's worst field decides, wherever it sits among the fields
    for last in ({"stationarity": 2.0, "consensus": 3e-3}, {"consensus": 3e-3, "primal_eq": 1.0}):
        assert classify(fake_log([{"stationarity": 1e-3}, last])) == "not_converged"
    assert classify(fake_log([{"stationarity": 2.0}, {"consensus": 1e-3}])) == "converged"


def test_classify_nan_in_the_last_sample_is_not_converged():
    # a NaN field in the last sample is not converged, first or last among
    # the fields; one in an earlier sample does not reach the last
    for last in ({"consensus": NAN, "comp_slack": 1e-3}, {"consensus": 1e-3, "comp_slack": NAN}):
        assert classify(fake_log([{"stationarity": 1e-3}, last])) == "not_converged"
    assert classify(fake_log([{"consensus": NAN}, {"primal_eq": 1e-3}])) == "converged"


def test_classify_oscillating_per_field():
    # stationarity parks at 2, primal_ineq swings 0 <-> 3 in the tail
    rows = []
    for k in range(40):
        rows.append({
            "stationarity": 2.0,
            "primal_ineq": 3.0 if k % 2 else 1e-3,
        })
    assert classify(fake_log(rows)) == "oscillating"


def test_classify_not_converged_without_swing():
    rows = [{"stationarity": 2.0}] * 40
    assert classify(fake_log(rows)) == "not_converged"
    # sub-tolerance wiggle does not count as oscillation
    rows = [
        {"stationarity": 2.0, "consensus": 9e-3 if k % 2 else 1e-6}
        for k in range(40)
    ]
    assert classify(fake_log(rows)) == "not_converged"


def read_diag(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, val = line.partition(": ")
        out.setdefault(key, val)
    return out


def test_run_writes_artifacts(tmp_path):
    code = run("no_delay", out_dir=str(tmp_path / "out"), duration=0.2)
    assert code == 0
    out = tmp_path / "out"
    assert (out / "trajectory.csv").exists()
    assert (out / "config.normalized").exists()
    diag = read_diag(out / "diagnostics.txt")
    assert diag["scenario"] == "no_delay"
    assert diag["verdict"] in ("not_converged", "oscillating")
    assert diag["oracle_permutation"] == "(2, 0, 3, 4, 1)"
    # 0.2 s is far too short for the reference pass to certify
    assert "fails KKT" in diag["reference"]
    # what each phase cost, next to wall_seconds (the simulate call)
    for key in ("wall_seconds", "reference_seconds", "csv_seconds"):
        assert float(diag[key]) > 0.0
    # normalized config re-validates to itself
    cfg = validate_config(out / "config.normalized")
    assert cfg == json.loads((out / "config.normalized").read_text())


def test_run_byte_identical_trajectories(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert run("no_delay", out_dir=str(d), duration=0.2) == 0
    b1 = (d1 / "trajectory.csv").read_bytes()
    assert b1 == (d2 / "trajectory.csv").read_bytes()
    assert len(b1) > 1000


def test_rerun_from_normalized_config_reproduces_trajectory(tmp_path):
    # the overrides land in config.normalized, so a run from that file
    # alone writes the same bytes; seed 3 also moves the sampled delays
    first, again = tmp_path / "first", tmp_path / "again"
    assert run("scattering", out_dir=str(first), duration=0.2, seed=3) == 0
    normalized = first / "config.normalized"
    cfg = json.loads(normalized.read_text())
    assert (cfg["duration"], cfg["seed"]) == (0.2, 3)
    assert run("scattering", out_dir=str(again), config_path=str(normalized)) == 0
    b1 = (first / "trajectory.csv").read_bytes()
    assert b1 == (again / "trajectory.csv").read_bytes()
    assert len(b1) > 1000


def test_run_abort_exit_code(tmp_path):
    # a huge step blows the state past the divergence limit within a few
    # steps, which must surface as exit 1 for a non-naive scenario
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "step": 600.0, "diag_interval": 600.0, "duration": 120000.0,
        "diagnostics": False,
    }))
    assert run("no_delay", out_dir=str(tmp_path / "out"), config_path=str(cfg_path)) == 1
    diag = read_diag(tmp_path / "out" / "diagnostics.txt")
    assert diag["verdict"] == "diverged"
    assert diag["abort_reason"] == "divergence"
    # no reference pass without diagnostics
    assert diag["reference_seconds"] == "n/a"
    assert float(diag["csv_seconds"]) > 0.0


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"step": -1.0}))
    code = main(["--scenario", "no_delay", "--out", str(tmp_path / "o"),
                 "--config", str(bad)])
    assert code == 2
    assert "config error: step" in capsys.readouterr().err
    missing = tmp_path / "nope.json"
    code = main(["--scenario", "no_delay", "--out", str(tmp_path / "o"),
                 "--config", str(missing)])
    assert code == 2
    assert "error" in capsys.readouterr().err
    # json reads the literal Infinity; argparse reads "nan"
    bad.write_text('{"duration": Infinity}')
    code = main(["--scenario", "no_delay", "--out", str(tmp_path / "o"),
                 "--config", str(bad)])
    assert code == 2
    assert "config error: duration: must be finite, got inf" in capsys.readouterr().err
    code = main(["--scenario", "no_delay", "--out", str(tmp_path / "o"), "--step", "nan"])
    assert code == 2
    assert "config error: step: must be finite, got nan" in capsys.readouterr().err
    code = main(["--scenario", "no_delay", "--out", str(tmp_path / "o2"),
                 "--duration", "0.1"])
    assert code == 0
    assert (tmp_path / "o2" / "diagnostics.txt").exists()


def test_main_rejects_an_overflowing_channel(tmp_path):
    # weight^2 overflows the channel end's 2x2 determinant: the run stops
    # with an error naming the pair, where it once ran decoupled agents to a
    # consensus error of 1.5e162 and exited 0
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"ring_weight": 1e160, "duration": 0.1, "diagnostics": False}))
    with pytest.raises(ValueError, match=r"weight 1e\+160 and eta 1 give the 2x2 determinant"):
        main(["--scenario", "scattering", "--out", str(tmp_path / "o"), "--config",
              str(cfg_path)])
    assert not (tmp_path / "o" / "diagnostics.txt").exists()


def test_main_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["--scenario", "warp", "--out", "/tmp/x"])


@pytest.mark.parametrize("step, guard_step", [(5e-3, 312), (1e-2, 17)])
def test_scattering_fails_where_no_delay_converges(step, guard_step):
    # the paper's instance (seed 5, N = 5) over 20 s, diagnostics off: at a
    # coarse step the scattering transient drives some g below -1/(2h), so
    # the Euler update lam (1 + 2 h g) reaches 0, while the no-delay flow
    # converges onto the oracle's assignment at the same step
    cfg = validate_config(None, {"duration": 20.0, "step": step, "diagnostics": False})
    inst, prob, sim = build_scenario(cfg, "scattering")
    log = simulate(prob, sim)
    assert (log.abort_reason, log.abort_step) == ("lambda_guard", guard_step)
    assert classify(log) == "diverged"
    _, _, sim = build_scenario(cfg, "no_delay")
    log = simulate(prob, sim)
    assert log.abort_reason is None and classify(log) == "converged"
    assert log.kkt[-1].max() <= KKT_TOL
    oracle, _ = brute_force_optimal(inst)
    x_end = log.final_stacks()[0]
    assert [extract_assignment(x) for x in x_end] == [oracle] * prob.n_agents
