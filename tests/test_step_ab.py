"""tools/step_ab.py, the in-process step timing of two trees."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "step_ab.py"


def step_ab(*args, check=True):
    return subprocess.run([sys.executable, str(TOOL), str(ROOT), *args],
                          capture_output=True, text=True, timeout=60, check=check)


def assert_report(stdout, head, batches):
    """The report's five lines: each side's least and first-quartile times,
    the quartile within the side's data, the median ratio and the pairs
    the change won."""
    first, base, change, ratio, wins = stdout.splitlines()
    assert first == head
    for label, line in (("base", base), ("change", change)):
        got = re.fullmatch(rf"{label} +min +([\d.]+) +q1 +([\d.]+) +us/step", line)
        assert got, line
        least, q1 = map(float, got.groups())
        assert 0.0 < least <= q1
    got = re.fullmatch(rf"change / base, median over {batches} pairs: ([\d.]+)", ratio)
    assert got and float(got.group(1)) > 0.0, ratio
    got = re.fullmatch(rf"change faster in (\d+) of {batches} pairs", wins)
    assert got and 0 <= int(got.group(1)) <= batches, wins


def test_this_tree_against_itself():
    done = step_ab("--mode", "scattering", "--batches", "3")
    assert_report(done.stdout, "scattering, N = 5: 3 batches of 100 steps a side", 3)


def test_first_quartile_of_two_batches_is_within_the_data():
    # the exclusive quartile of two values lies below the least of them; the
    # default mode, no_delay, times the linear map of its unlogged steps
    done = step_ab("--batches", "2")
    assert_report(done.stdout, "no_delay, N = 5: 2 batches of 100 steps a side", 2)


def test_no_compensator_mode_runs():
    # the m = 1 run of the no-delay linear map, whose stages are x alone
    done = step_ab("--mode", "no_compensator", "--batches", "2")
    assert_report(done.stdout, "no_compensator, N = 5: 2 batches of 100 steps a side", 2)


def test_naive_delay_mode_runs():
    # naive_delay pops r straight from the delay line, which neither other
    # mode does
    done = step_ab("--mode", "naive_delay", "--batches", "1")
    assert_report(done.stdout, "naive_delay, N = 5: 1 batches of 100 steps a side", 1)


@pytest.mark.parametrize("mode", ["scattering", "naive_delay"])
def test_certificates_mode_times_the_evaluator(mode):
    # a slot of _DIAG_BLOCK = 32 rows, evaluated four times a batch; naive
    # delay has no ports, so its coupling rows take the other branch
    done = step_ab("--mode", mode, "--certificates", "--batches", "2")
    assert_report(done.stdout, f"{mode}, N = 5, certificates: 2 batches of 128 steps a side", 2)


def test_a_config_the_trees_reject_is_a_usage_error():
    done = step_ab("--agents", "2", check=False)
    assert done.returncode == 2 and done.stdout == ""
    assert "usage:" in done.stderr and "agents" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("mode, mapped", [("no_delay", True), ("no_compensator", True),
                                          ("scattering", False)])
def test_timed_steps_are_unlogged(mode, mapped):
    # a side's steps after its warm-up are unlogged, so a no-delay side
    # steps by the linear map, which returns no derivative, and the other
    # modes by the exchange
    spec = importlib.util.spec_from_file_location("step_ab", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    cli, engine = tool._load(ROOT, "dcopt_step_ab_probe")
    side = tool.Side(cli, engine, cli.validate_config(overrides={"agents": 3}), mode)
    assert side.sim.log_every > side.k + tool.STEPS
    with np.errstate(all="ignore"):
        deriv, _, _, trip = side.run.step(side.k, side.k * side.run.h, side.state)
    assert trip is None and (deriv is None) == mapped
