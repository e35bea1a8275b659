"""tools/same_outputs.py, the check that two trees write the same artifacts."""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_runs_are_named_once():
    names = [name for name, *_ in load_tool().RUNS]
    assert len(names) == len(set(names)) == 29


def test_one_run_of_this_tree_against_itself():
    done = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT),
                           "--only", "scattering_64_grid"],
                          capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].split()[:4] == ["same", "scattering_64_grid", "exit", "0"]
    assert lines[1] == "1 of 1 runs the same"


def write_run(path, trajectory=b"t\n0.0\n", wall="1.5"):
    path.mkdir(parents=True)
    (path / "trajectory.csv").write_bytes(trajectory)
    (path / "config.normalized").write_text('{"seed": 5}\n')
    (path / "diagnostics.txt").write_text(
        f"scenario: no_delay\nwall_seconds: {wall}\nreference_seconds: {wall}\n"
        f"csv_seconds: {wall}\nverdict: converged\n")
    return path


def test_compare_passes_over_the_timings_only(tmp_path):
    compare = load_tool().compare
    base = write_run(tmp_path / "base")
    assert compare(base, write_run(tmp_path / "timings", wall="2.5")) == []
    assert compare(base, write_run(tmp_path / "csv", trajectory=b"t\n0.1\n")) == [
        "trajectory.csv differs"]
    verdict = write_run(tmp_path / "verdict")
    (verdict / "diagnostics.txt").write_text("scenario: no_delay\nverdict: oscillating\n")
    assert compare(base, verdict) == ["diagnostics.txt differs"]
    part = write_run(tmp_path / "part")
    (part / "trajectory.csv.part1").write_text("")
    assert compare(base, part) == ["part left trajectory.csv.part1"]
    (base / "config.normalized").unlink()
    assert compare(base, write_run(tmp_path / "one_side")) == [
        "config.normalized written by one tree only"]


# --final-tol on crafted runs: one agent, two samples, the final one at t = 0.5

def write_state_run(path, x="1.25", t="0.5", label="x", verdict="converged", abort_step="312",
                    kkt="2.500000e-01", excess="5.000000e-01", event="step 3 t=0.003 nan",
                    x0="0.0", consensus="0.25"):
    path.mkdir(parents=True)
    (path / "trajectory.csv").write_text(
        "t,entity_kind,entity_id,variable,component_index,value\n"
        f"0.0,agent,0,x,0,{x0}\n0.0,agent,0,lambda,0,0.01\n"
        f"{t},global,net,kkt_consensus,0,{consensus}\n{t},agent,0,{label},0,{x}\n"
        f"{t},agent,0,lambda,0,0.02\n")
    (path / "config.normalized").write_text('{"seed": 5, "step": 0.001}\n')
    (path / "diagnostics.txt").write_text(
        f"scenario: no_delay\nverdict: {verdict}\nwall_seconds: 1.5\nabort_reason: n/a\n"
        f"abort_step: {abort_step}\nfinal_kkt_consensus: {kkt}\n"
        f"passivity_multiplier_max_excess: {excess}\nevents: 1\n"
        f"event: {event}: agent 1: non-finite derivative 2.500e+00\n")
    return path


def test_final_tol_passes_a_one_ulp_drift_of_the_final_state(tmp_path):
    compare = load_tool().compare
    base = write_state_run(tmp_path / "base")
    ulp = write_state_run(tmp_path / "ulp", x=repr(math.nextafter(1.25, math.inf)))
    assert compare(base, ulp) == ["trajectory.csv differs"]
    assert compare(base, ulp, 1e-12) == []
    assert compare(base, ulp, 0.0) == ["final state drift 2.2e-16 at scale 1.25"]
    # the bound is T max(1, the largest final |value|): 1.25e-12 here
    far = write_state_run(tmp_path / "far", x="1.2500000000013")
    assert compare(base, far, 1e-12) == ["final state drift 1.3e-12 at scale 1.25"]
    assert compare(base, far, 2e-12) == []
    # NaN matches NaN only
    nan = write_state_run(tmp_path / "nan", x="nan")
    assert compare(nan, write_state_run(tmp_path / "nan_too", x="nan"), 0.0) == []
    assert compare(base, nan, 1e6) == ["final state drift inf at scale 1.25"]


def test_final_tol_reports_the_largest_change_elsewhere(tmp_path):
    # a run whose final state is bit-equal may move elsewhere: _final_state
    # names the largest change of any other value, the state of an earlier
    # sample too, relative to its variable's largest |value| in the base, as
    # a report, not a gate
    tool = load_tool()
    base = write_state_run(tmp_path / "base")
    assert tool._final_state(base, write_state_run(tmp_path / "same")) == (
        [], 0.0, 1.25, (0.0, None))
    kkt = write_state_run(tmp_path / "kkt", consensus=repr(math.nextafter(0.25, 1.0)))
    assert tool._final_state(base, kkt) == ([], 0.0, 1.25, (pytest.approx(2.0**-52), "kkt_consensus"))
    assert tool.compare(base, kkt, 0.0) == []
    both = write_state_run(tmp_path / "both", consensus="0.2500001", x0="1e-300")
    assert tool._final_state(base, both) == ([], 0.0, 1.25, (pytest.approx(4e-7), "kkt_consensus"))
    # a near-zero x that changes sign moves by 2e-15 of x's scale 1.25, not
    # by twice itself, and the larger move beside it is the one named
    tiny = write_state_run(tmp_path / "tiny", x0="1e-15")
    flip = write_state_run(tmp_path / "flip", x0="-1e-15", consensus="0.2500001")
    assert tool._final_state(tiny, flip) == ([], 0.0, 1.25, (pytest.approx(4e-7), "kkt_consensus"))
    flip_only = write_state_run(tmp_path / "flip_only", x0="-1e-15")
    assert tool._final_state(tiny, flip_only) == ([], 0.0, 1.25, (pytest.approx(1.6e-15), "x"))
    # the final state's own drift is not counted elsewhere
    ulp = write_state_run(tmp_path / "ulp", x=repr(math.nextafter(1.25, math.inf)))
    assert tool._final_state(base, ulp) == ([], 2.0**-52, 1.25, (0.0, None))


def test_final_tol_compares_the_diagnostics_numbers_within_their_bounds(tmp_path):
    compare = load_tool().compare
    base = write_state_run(tmp_path / "base")
    # a number within T max(1, |v|) = 1e-12, and the timings, pass
    close = write_state_run(tmp_path / "close", kkt="2.500000000005e-01")
    (close / "diagnostics.txt").write_text(
        (close / "diagnostics.txt").read_text().replace("wall_seconds: 1.5", "wall_seconds: 9"))
    assert compare(base, close, 1e-12) == []
    kkt = write_state_run(tmp_path / "kkt", kkt="2.500000005e-01")
    assert compare(base, kkt, 1e-12) == ["diagnostics.txt differs in final_kkt_consensus"]
    # a passivity excess is a storage difference over h = 1e-3: its bound
    # is T max(1, |v|) / h = 1e-9
    excess = write_state_run(tmp_path / "excess", excess="5.000000005e-01")
    assert compare(base, excess, 1e-12) == []
    assert compare(base, excess, 1e-13) == [
        "diagnostics.txt differs in passivity_multiplier_max_excess"]
    # an event's detail is compared like a number
    detail = write_state_run(tmp_path / "detail")
    text = (detail / "diagnostics.txt").read_text()
    (detail / "diagnostics.txt").write_text(text.replace("2.500e+00", "2.501e+00"))
    assert compare(base, detail, 1e-12) == ["diagnostics.txt differs in event"]
    assert compare(base, detail, 1e-3) == []


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1.0, 1e6])
def test_final_tol_keeps_labels_verdicts_and_aborts_exact(tmp_path, tol):
    compare = load_tool().compare
    base = write_state_run(tmp_path / "base")
    for name, change, reason in (
            ("verdict", {"verdict": "oscillating"}, "diagnostics.txt differs in verdict"),
            ("abort", {"abort_step": "313"}, "diagnostics.txt differs in abort_step"),
            ("event_step", {"event": "step 4 t=0.003 nan"}, "diagnostics.txt differs in event"),
            ("event_kind", {"event": "step 3 t=0.003 divergence"},
             "diagnostics.txt differs in event"),
            ("label", {"label": "xi"}, "trajectory.csv row 5 label differs"),
            ("t", {"t": "0.5000000000000001"}, "trajectory.csv row 4 label differs")):
        assert compare(base, write_state_run(tmp_path / name, **change), tol) == [reason], name
    short = write_state_run(tmp_path / "short")
    lines = (short / "trajectory.csv").read_text().splitlines(True)
    (short / "trajectory.csv").write_text("".join(lines[:-1]))
    assert compare(base, short, tol) == ["trajectory.csv row count differs"]
    keys = write_state_run(tmp_path / "keys")
    (keys / "diagnostics.txt").write_text(
        (keys / "diagnostics.txt").read_text().replace("events: 1\n", ""))
    assert compare(base, keys, tol) == ["diagnostics.txt differs in keys"]
    config = write_state_run(tmp_path / "config")
    (config / "config.normalized").write_text('{"seed": 6, "step": 0.001}\n')
    assert compare(base, config, tol) == ["config.normalized differs"]


def test_final_tol_must_be_finite_and_not_negative():
    for bad in ("-1e-12", "nan", "inf"):
        with pytest.raises(SystemExit) as exit_:
            load_tool().main(["base", "--final-tol", bad])
        assert exit_.value.code == 2
