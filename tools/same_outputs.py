"""Check that two source trees write the same artifacts.

Runs the dcopt CLI of each tree on a fixed list of runs and compares
what each run leaves: the exit code, trajectory.csv and config.normalized
byte for byte, and diagnostics.txt without its three timing lines
(wall_seconds, reference_seconds, csv_seconds).  A run that leaves a
.part file of the forked CSV writers behind differs too.  Prints one line
per run and exits 1 on any difference.  Standard library only; each tree
is run with its own src/ first on PYTHONPATH.

    python3 tools/same_outputs.py BASE_TREE [CHANGE_TREE] [--only NAME ...]

CHANGE_TREE defaults to the tree this script is in.  The runs cover every
scenario, N = 5, 6, 8 and 12, runs with and without the online
certificates (and so with and without the forked certificate evaluator and
CSV writers; the N = 12 run writes about 0.39M rows, past the size at
which to_csv forks), three lambda_guard aborts and a zero-length run; the
runs marked "cpu0" are pinned to one CPU, as taskset -c 0 pins them, so
their certificates are evaluated and their CSV written in one process.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

TIMINGS = ("wall_seconds:", "reference_seconds:", "csv_seconds:")
ARTIFACTS = ("trajectory.csv", "config.normalized")


def _runs():
    """(name, scenario, config, pinned) of every run."""
    runs = [
        ("nd_20s", "no_delay", {"duration": 20.0, "diagnostics": False}, False),
        ("sc_20s_diag", "scattering", {"duration": 20.0}, False),
        ("sc_20s_diag_cpu0", "scattering", {"duration": 20.0}, True),
    ]
    n8 = {"agents": 8, "duration": 2.0, "log_every": 20, "diagnostics": False}
    runs += [("sc_n8_seed5", "scattering", n8, False),
             ("sc_n8_seed1", "scattering", dict(n8, seed=1), False),
             ("sc_n8_seed1_cpu0", "scattering", dict(n8, seed=1), True),
             ("sc_n12", "scattering",
              {"agents": 12, "duration": 1.0, "log_every": 100, "diagnostics": False}, False)]
    runs += [(f"{s}_5s", s, {"duration": 5.0, "log_every": 10}, False)
             for s in ("naive_delay", "no_compensator")]
    runs += [(f"{s}_n6_seed8", s, {"agents": 6, "seed": 8, "duration": 3.0, "log_every": 50},
              False) for s in ("scattering", "no_delay")]
    runs += [(f"{s}_20s_diag", s, {"duration": 20.0}, False) for s in ("no_delay", "naive_delay")]
    runs += [("no_compensator_20s_grid", "no_compensator",
              {"duration": 20.0, "diag_interval": 0.007}, False),
             ("sc_seed8_20s", "scattering", {"seed": 8, "duration": 20.0}, False),
             ("sc_64_steps", "scattering", {"duration": 0.064, "log_every": 1}, False)]
    runs += [(f"{s}_64_grid", s, {"duration": 0.064, "log_every": 1, "diag_interval": 0.007},
              False) for s in ("no_delay", "naive_delay", "scattering", "no_compensator")]
    runs += [(f"{s}_step{step:g}", s, {"duration": 20.0, "diagnostics": False, "step": step}, False)
             for s in ("scattering", "no_delay") for step in (5e-3, 1e-2)]
    runs += [("nd_zero", "no_delay", {"duration": 0.0}, False)]
    for pinned in (False, True):
        cpu = "_cpu0" if pinned else ""
        runs += [(f"sc_blocks{cpu}", "scattering", {"duration": 1.024, "log_every": 1}, pinned),
                 (f"sc_guard_full_rate{cpu}", "scattering",
                  {"duration": 20.0, "step": 5e-3, "log_every": 1}, pinned)]
    return runs


RUNS = _runs()


def _pin():
    """Keep the child on one CPU, the lowest it may use."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_tree(tree, scenario, config_path, out, pinned):
    """(exit code, seconds) of one CLI run of the tree into out."""
    env = dict(os.environ)
    src = str(pathlib.Path(tree, "src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "dcopt.cli", "--scenario", scenario,
           "--config", str(config_path), "--out", str(out)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          preexec_fn=_pin if pinned else None, check=False)
    return done.returncode, time.perf_counter() - t0


def _diagnostics(path):
    with open(path, "rb") as f:
        return [line for line in f if not line.startswith(tuple(t.encode() for t in TIMINGS))]


def compare(base, change):
    """The differences between two runs' output directories, as a list of
    short reasons; empty when they wrote the same artifacts."""
    reasons = []
    for out in (base, change):
        parts = sorted(p.name for p in pathlib.Path(out).glob("*.part*"))
        if parts:
            reasons.append(f"{pathlib.Path(out).name} left {', '.join(parts)}")
    for name in ARTIFACTS + ("diagnostics.txt",):
        a, b = pathlib.Path(base, name), pathlib.Path(change, name)
        if a.exists() != b.exists():
            reasons.append(f"{name} written by one tree only")
        elif a.exists():
            read = _diagnostics if name == "diagnostics.txt" else pathlib.Path.read_bytes
            if read(a) != read(b):
                reasons.append(f"{name} differs")
    return reasons


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the tree to compare against")
    parser.add_argument("change", nargs="?", default=str(pathlib.Path(__file__).parents[1]),
                        help="the tree to check (default: this one)")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="run only this run (repeatable)")
    args = parser.parse_args(argv)
    runs = RUNS
    if args.only:
        unknown = set(args.only) - {name for name, *_ in RUNS}
        if unknown:
            parser.error(f"unknown run(s): {', '.join(sorted(unknown))}")
        runs = [run for run in RUNS if run[0] in args.only]
    differ = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        for name, scenario, config, pinned in runs:
            config_path = pathlib.Path(tmp, f"{name}.json")
            config_path.write_text(json.dumps(config))
            outs = [pathlib.Path(tmp, side, name) for side in ("base", "change")]
            (code_a, sec_a), (code_b, sec_b) = (
                run_tree(tree, scenario, config_path, out, pinned)
                for tree, out in zip((args.base, args.change), outs))
            reasons = compare(*outs)
            if code_a != code_b:
                reasons.insert(0, f"exit {code_a} against {code_b}")
            differ += bool(reasons)
            print(f"{'DIFFERS' if reasons else 'same':7s} {name:26s} exit {code_b}  "
                  f"{sec_a:6.2f} s / {sec_b:6.2f} s" + "".join(f"; {r}" for r in reasons),
                  flush=True)
    print(f"{len(runs) - differ} of {len(runs)} runs the same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
