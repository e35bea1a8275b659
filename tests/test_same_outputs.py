"""tools/same_outputs.py, the check that two trees write the same artifacts."""

import importlib.util
import subprocess
import sys
from pathlib import Path

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
