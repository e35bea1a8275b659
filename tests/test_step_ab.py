"""tools/step_ab.py, the in-process step timing of two trees."""

import importlib.util
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "step_ab.py"


def step_ab(*args, check=True):
    return subprocess.run([sys.executable, str(TOOL), str(ROOT), *args],
                          capture_output=True, text=True, timeout=60, check=check)


def assert_report(stdout, head, batches, *heads):
    """The report's five lines, one block for head and each of heads: each
    side's least and first-quartile times, the quartile within the side's
    data, the median ratio and the pairs the change won."""
    lines = stdout.splitlines()
    assert len(lines) == 5 * (1 + len(heads))
    for q, want in enumerate((head,) + heads):
        assert_block(lines[5 * q:5 * q + 5], want, batches)


def assert_block(lines, head, batches):
    first, base, change, ratio, wins = lines
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
    # default mode, no_delay, times the linear map of its unlogged steps,
    # then the exchange step of a run that logs every step
    done = step_ab("--batches", "2")
    assert_report(done.stdout, "no_delay, N = 5: 2 batches of 100 steps a side", 2,
                  "no_delay, N = 5, exchange step: 2 batches of 100 steps a side")


def test_no_compensator_mode_runs():
    # the m = 1 run of the no-delay linear map, whose stages are x alone
    done = step_ab("--mode", "no_compensator", "--batches", "2")
    assert_report(done.stdout, "no_compensator, N = 5: 2 batches of 100 steps a side", 2,
                  "no_compensator, N = 5, exchange step: 2 batches of 100 steps a side")


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
                                          ("no_delay", False), ("scattering", False)])
def test_timed_steps_are_unlogged(mode, mapped, monkeypatch):
    # a side's steps after its warm-up are unlogged, so a no-delay side
    # steps a batch in one call of the interval entry, which calls the
    # exchange step, _Run.step, for none of them; at log_every = 1, the
    # tool's exchange-step row, and in the other modes, the exchange step
    # steps every one
    spec = importlib.util.spec_from_file_location("step_ab", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    cli, engine = tool._load(ROOT, "dcopt_step_ab_probe")
    every = {"every": 1} if mode == "no_delay" and not mapped else {}
    side = tool.Side(cli, engine, cli.validate_config(overrides={"agents": 3}), mode, **every)
    assert (side.sim.log_every > side.k + tool.STEPS) == (not every)
    assert (side.linear is not None) == (mode != "scattering")
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(side, "steps_of", counting("interval", side.steps_of))
    monkeypatch.setattr(side.run, "step", counting("exchange", side.run.step))
    with np.errstate(all="ignore"):
        side.batch()
    want = {"interval": 1} if mapped else {"exchange": tool.STEPS}
    assert calls == want
