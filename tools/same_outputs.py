"""Check that two source trees write the same artifacts.

Runs the dcopt CLI of each tree on a fixed list of runs and compares
what each run leaves: the exit code, trajectory.csv and config.normalized
byte for byte, and diagnostics.txt without its three timing lines
(wall_seconds, reference_seconds, csv_seconds).  A run that leaves a
.part file of the forked CSV writers behind differs too.  Prints one line
per run and exits 1 on any difference.  Standard library only; each tree
is run with its own src/ first on PYTHONPATH.

    python3 tools/same_outputs.py BASE_TREE [CHANGE_TREE] [--only NAME ...]
                                  [--final-tol T]

With --final-tol T the check allows a change that reorders a sum to move
the last bits of the run, and still compares exactly: the exit codes, the
.part files, config.normalized, trajectory.csv's header, t column, row
labels and row count, the keys of diagnostics.txt and its non-numeric
values (the verdict, the abort reason and step, the oracle permutation,
the agents matching it, the assignments, each event's step, time and
kind).  It compares numerically the final sample's agent x, xi, lambda
and mu, within T max(1, the largest of their |values|), and every other
number of diagnostics.txt within T max(1, |value|), or T max(1, |value|)
/ step for the passivity excesses and the Lyapunov increments, which are
storage differences divided by the step.  The other values of
trajectory.csv are not compared.  Each run's line then gives the final
state's largest drift when a run is within the tolerances but not
byte for byte the same, which reads "close".

CHANGE_TREE defaults to the tree this script is in.  The runs cover every
scenario, N = 5, 6, 8 and 12, runs with and without the online
certificates (and so with and without the forked certificate evaluator and
CSV writers; the N = 12 run writes about 0.39M rows, past the size at
which to_csv forks), three lambda_guard aborts and a zero-length run; the
runs marked "cpu0" are pinned to one CPU, as taskset -c 0 pins them, so
their certificates are evaluated and their CSV written in one process.
"""

import argparse
import itertools
import json
import math
import os
import pathlib
import re
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


# a number as the CLI writes one: repr, %e, an integer, nan or inf
NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")
# diagnostics.txt values compared as text at any tolerance
EXACT = ("scenario", "verdict", "seed", "abort_reason", "abort_step", "oracle_permutation",
         "agents_matching_oracle", "assignments", "events")
# storage differences divided by the step
PER_STEP = re.compile(r"passivity_\w+_max_excess|lyapunov_\w+_max_increment")
STATE = ("x", "xi", "lambda", "mu")


def _gap(u, v):
    """|u - v|, 0 where both are NaN and inf where only one is: NaN and
    inf entries must match exactly."""
    if u == v or (math.isnan(u) and math.isnan(v)):
        return 0.0
    return abs(u - v) if math.isfinite(u) and math.isfinite(v) else math.inf


def _numbers_apart(a, b, tol):
    """Whether the strings a and b differ in their text or in a number by
    more than tol(number of a); a non-finite number must match exactly."""
    if NUMBER.split(a) != NUMBER.split(b):
        return True
    return any(not _gap(u, v) <= (tol(u) if math.isfinite(u) else 0.0)
               for u, v in zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))))


def _diagnostics_apart(base, change, final_tol):
    """The keys of diagnostics.txt that differ beyond final_tol, step read
    from the base's config.normalized; ["keys"] when the keys differ."""
    step = json.loads(pathlib.Path(base, "config.normalized").read_text())["step"]
    a, b = ([line.decode().rstrip("\n").partition(": ")[::2] for line in
             _diagnostics(pathlib.Path(out, "diagnostics.txt"))] for out in (base, change))
    if [key for key, _ in a] != [key for key, _ in b]:
        return ["keys"]
    keys = []
    for (key, u), (_, v) in zip(a, b):
        per = step if PER_STEP.fullmatch(key) else 1.0
        if key == "event":  # step, time and kind exact, the detail's numbers close
            (head_u, _, u), (head_v, _, v) = u.partition(": "), v.partition(": ")
            if head_u != head_v:
                keys.append(key)
                continue
        if u != v and (key in EXACT or _numbers_apart(
                u, v, lambda w: final_tol * max(1.0, abs(w)) / per)):
            keys.append(key)
    return keys


def _final_state(base, change):
    """(reasons, drift, scale) of trajectory.csv: the reasons its header,
    labels or row count differ, and for the final sample's agent x, xi,
    lambda and mu, the largest _gap and the largest finite |value| of the
    base.  The files are read in step, one row at a time."""
    sample, t = [], None
    with open(pathlib.Path(base, "trajectory.csv")) as fa, \
            open(pathlib.Path(change, "trajectory.csv")) as fb:
        if next(fa, None) != next(fb, None):
            return ["trajectory.csv header differs"], 0.0, 0.0
        for row, (a, b) in enumerate(itertools.zip_longest(fa, fb), 2):
            if a is None or b is None:
                return ["trajectory.csv row count differs"], 0.0, 0.0
            (label, u), (label_b, v) = a.rsplit(",", 1), b.rsplit(",", 1)
            if label != label_b:
                return [f"trajectory.csv row {row} label differs"], 0.0, 0.0
            fields = label.split(",")
            if fields[0] != t:  # a new sample
                sample, t = [], fields[0]
            if fields[1] == "agent" and fields[3] in STATE:
                sample.append((float(u), float(v)))
    drift = max((_gap(u, v) for u, v in sample), default=0.0)
    return [], drift, max((abs(u) for u, _ in sample if math.isfinite(u)), default=0.0)


def compare(base, change, final_tol=None):
    """The differences between two runs' output directories, as a list of
    short reasons; empty when they wrote the same artifacts, or with
    final_tol, artifacts the same within it (see the module docstring)."""
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
            if read(a) == read(b):
                continue
            if final_tol is None or name == "config.normalized":
                reasons.append(f"{name} differs")
            elif name == "trajectory.csv":
                apart, drift, scale = _final_state(base, change)
                if not apart and not drift <= final_tol * max(1.0, scale):
                    apart = [f"final state drift {drift:.1e} at scale {scale:.3g}"]
                reasons += apart
            else:
                keys = _diagnostics_apart(base, change, final_tol)
                if keys:
                    reasons.append(f"diagnostics.txt differs in {', '.join(keys)}")
    return reasons


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the tree to compare against")
    parser.add_argument("change", nargs="?", default=str(pathlib.Path(__file__).parents[1]),
                        help="the tree to check (default: this one)")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="run only this run (repeatable)")
    parser.add_argument("--final-tol", type=float, metavar="T",
                        help="compare the final state and the diagnostics' numbers within T "
                             "(see the module docstring) instead of byte for byte")
    args = parser.parse_args(argv)
    if args.final_tol is not None and not 0.0 <= args.final_tol < math.inf:
        parser.error("--final-tol must be finite and >= 0")
    runs = RUNS
    if args.only:
        unknown = set(args.only) - {name for name, *_ in RUNS}
        if unknown:
            parser.error(f"unknown run(s): {', '.join(sorted(unknown))}")
        runs = [run for run in RUNS if run[0] in args.only]
    differ = close = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        for name, scenario, config, pinned in runs:
            config_path = pathlib.Path(tmp, f"{name}.json")
            config_path.write_text(json.dumps(config))
            outs = [pathlib.Path(tmp, side, name) for side in ("base", "change")]
            (code_a, sec_a), (code_b, sec_b) = (
                run_tree(tree, scenario, config_path, out, pinned)
                for tree, out in zip((args.base, args.change), outs))
            reasons = compare(*outs, args.final_tol)
            if code_a != code_b:
                reasons.insert(0, f"exit {code_a} against {code_b}")
            status, drift = "DIFFERS" if reasons else "same", ""
            if args.final_tol is not None and not reasons and compare(*outs):
                status, close = "close", close + 1
                _, final, scale = _final_state(*outs)
                drift = f"  final state drift {final:.1e} at scale {scale:.3g}"
            differ += bool(reasons)
            print(f"{status:7s} {name:26s} exit {code_b}  "
                  f"{sec_a:6.2f} s / {sec_b:6.2f} s{drift}" + "".join(f"; {r}" for r in reasons),
                  flush=True)
    if args.final_tol is None:
        print(f"{len(runs) - differ} of {len(runs)} runs the same")
    else:
        print(f"{len(runs) - differ} of {len(runs)} runs the same within --final-tol "
              f"{args.final_tol:g}, {len(runs) - differ - close} of them byte for byte")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
