"""dcopt benchmark: one workload through the dcopt CLI, metrics as JSON.

    python3 perfbench/run.py --workload nd_solve --seed 5 --seconds 20 --trace 0

Run from the root of a checkout.  dcopt is imported from the checkout's
src/, never from an installed copy, so the numbers belong to that tree.
Each run of the CLI (`dcopt.cli.main`, in this process) is checked; a run
that fails its check is counted, never dropped.

--trace 0  end-to-end metrics: median wall_s of full CLI runs repeated for
           --seconds (at least one), median setup_s of build_scenario,
           peak_rss_mb of this process, pass_share.
--trace 1  per-layer split: untraced and traced CLI runs alternate for
           --seconds (at least one pair); spans go to
           .perfbench_out/spans-<workload>.npz.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  BLAS runs single-threaded.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the first numpy import

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from spans import LAYERS, SPANS, Tracer, summarize
from speed import KERNEL_REFERENCE_S, Probe
from workloads import WORKLOADS, read_diagnostics, scan_trajectory

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
ARTIFACTS = ("trajectory.csv", "diagnostics.txt", "config.normalized")
SETUP_SECONDS = 1.0  # set-up is timed at least this long
SETUP_REPEATS = 5  # and at least this many times

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "ratio",
}
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))
# Counts that must repeat exactly across the runs of one benchmark run:
# the engine is bit-deterministic, so a difference is a bug.
EXACT = (
    "engine.steps",
    "engine.snapshots",
    "dynamics.derivatives_calls",
    "scattering.recover_calls",
    "matching.assignment_cost_calls",
    "cli.artifact_bytes",
    "steps_to_kkt",
    "trajectory_samples",
    "trajectory_sha256",
)


def per_layer_units():
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}_s"] = "s"
        units[f"{name}_calls"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update({
        "matching.assignment_cost_calls": "count",
        "engine.steps": "count",
        "engine.snapshots": "count",
        "engine.aborts": "count",
        "engine.reference_s": "s",
        "engine.us_per_step": "us",
        "engine.self_us_per_step": "us",
        "steps_to_kkt": "steps",
        "cli.artifact_bytes": "bytes",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.overhead_share": "ratio",
        "trace.spans": "count",
    })
    return units


def load_cli():
    """dcopt.cli from this checkout's src/; exits when it is not there."""
    if not (SRC / "dcopt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dcopt package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dcopt.cli

    if Path(dcopt.cli.__file__).resolve().parent != SRC / "dcopt":
        raise SystemExit(f"perfbench: imported dcopt from {dcopt.cli.__file__}")
    return dcopt.cli


class Runner:
    """Runs and checks one workload's CLI scenario, repeatedly."""

    def __init__(self, cli, workload, cfg, work_dir):
        self.cli = cli
        self.probe = Probe()
        self.workload = workload
        self.cfg = cfg
        self.out_dir = work_dir / "out"
        self.cfg_path = work_dir / "config.json"
        self.cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
        self.reference = {}  # first value seen of each EXACT count
        self.attempted = 0
        self.failed = 0

    def run_once(self, traced=False):
        """(seconds at reference speed, measured seconds, exit code) of one
        full CLI run; the exit code is None when the run raised.  A traced
        run is probed only before and after, so no probe lands in a span."""
        for name in ARTIFACTS:
            (self.out_dir / name).unlink(missing_ok=True)
        argv = [
            "--scenario", self.workload.scenario,
            "--config", str(self.cfg_path),
            "--out", str(self.out_dir),
        ]
        gc.collect()
        rc = None

        def cli_run():
            nonlocal rc
            try:
                rc = self.cli.main(argv)
            except Exception as err:  # a crashed run is a failed run
                print(f"run raised {type(err).__name__}: {err}", file=sys.stderr)

        wall, measured, kernel, _ = self.probe.section(cli_run, not traced)
        print(
            f"wall {wall:.4f} s at reference speed ({measured:.4f} s measured, "
            f"kernel {kernel * 1e3:.3f} ms)", flush=True,
        )
        return wall, measured, rc

    def check(self, rc, counts=None):
        """Apply the workload's check and the exact-count check; returns the
        facts read off the artifacts.  Prints and counts a failure."""
        self.attempted += 1
        problems = []
        facts = {}
        if rc != 0:
            problems.append(f"exit code {rc}")
        diag_path = self.out_dir / "diagnostics.txt"
        csv_path = self.out_dir / "trajectory.csv"
        if diag_path.is_file() and csv_path.is_file():
            diag = read_diagnostics(diag_path)
            for check in self.workload.checks:
                verdict = check(diag, self.cfg)
                if verdict is not True:
                    problems.append(verdict)
            samples, steps_to_kkt, digest = scan_trajectory(
                csv_path, self.cfg.get("step", 1e-3)
            )
            want = self.workload.expected_samples(self.cfg)
            if samples != want:
                problems.append(f"{samples} logged samples, expected {want}")
            facts = {
                "trajectory_samples": samples,
                "steps_to_kkt": steps_to_kkt,
                "trajectory_sha256": digest,
                "cli.artifact_bytes": sum(
                    (self.out_dir / n).stat().st_size
                    for n in ARTIFACTS if (self.out_dir / n).is_file()
                ),
            }
        else:
            problems.append("missing diagnostics.txt or trajectory.csv")
        facts.update(counts or {})
        for key in EXACT:
            if key not in facts:
                continue
            first = self.reference.setdefault(key, facts[key])
            if facts[key] != first:
                problems.append(f"{key} drifted: {first} -> {facts[key]}")
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print(f"run {self.attempted}: {status}", flush=True)
        if problems:
            self.failed += 1
        return facts


def describe(name, values, unit):
    """Median with its sample count, and the highest percentile that has
    at least ten samples beyond it when there are enough samples."""
    ordered = sorted(values)
    n = len(ordered)
    line = f"{name}: median {statistics.median(ordered):.6g} {unit} over {n} samples"
    if n >= 11:
        pct = 100.0 * (n - 10) / n
        line += f", p{pct:.0f} {ordered[n - 11]:.6g} {unit}"
    else:
        line += f" (min {ordered[0]:.6g}, max {ordered[-1]:.6g}; no percentile" \
                " has ten samples beyond it)"
    print(line)


def keep_going(start, seconds, samples):
    """Another sample while it is expected to end within the run's seconds
    (the first one always)."""
    if not samples:
        return True
    return time.perf_counter() - start + statistics.median(samples) <= seconds


def time_setup(cli, runner):
    """Seconds (at reference speed) of each of at least SETUP_REPEATS
    build_scenario calls made over at least SETUP_SECONDS."""
    validated = cli.validate_config(str(runner.cfg_path))
    probe = runner.probe
    raw = []

    def repeat():
        deadline = time.perf_counter() + SETUP_SECONDS
        while len(raw) < SETUP_REPEATS or time.perf_counter() < deadline:
            paused = probe.paused
            t0 = time.perf_counter()
            cli.build_scenario(validated, runner.workload.scenario)
            raw.append(time.perf_counter() - t0 - (probe.paused - paused))

    _, _, kernel, _ = probe.section(repeat)
    return [r * KERNEL_REFERENCE_S / kernel for r in raw]


def end_to_end(cli, runner, seconds):
    setup = time_setup(cli, runner)
    walls, measured = [], []
    start = time.perf_counter()
    while keep_going(start, seconds, measured):
        wall, took, rc = runner.run_once()
        walls.append(wall)
        measured.append(took)
        runner.check(rc)
    describe("setup_s", setup, "s")
    describe("wall_s", walls, "s")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_share": 1.0 - runner.failed / runner.attempted,
    }


def traced_run_metrics(tracer, first, last, sims, assignment_calls, scale):
    """Per-layer metrics of the traced CLI run whose spans are first..last-1;
    span times are multiplied by scale (to reference speed)."""
    summary = {
        name: (total * scale, self_ * scale, calls)
        for name, (total, self_, calls) in summarize(tracer, first, last).items()
    }
    m = {}
    for name in SPAN_NAMES:
        total, _, calls = summary.get(name, (0.0, 0.0, 0))
        m[f"{name}_s"] = total
        m[f"{name}_calls"] = calls
    for layer in LAYERS:
        picked = [v for n, v in summary.items() if n.split(".")[0] == layer]
        m[f"{layer}.self_s"] = sum(v[1] for v in picked)
        m[f"{layer}.calls"] = sum(v[2] for v in picked)
    steps = sum(s["steps"] for s in sims)
    sim_total, sim_self, _ = summary.get("engine.simulate", (0.0, 0.0, 0))
    m.update({
        "matching.assignment_cost_calls": assignment_calls,
        "engine.steps": steps,
        "engine.snapshots": sum(s["snapshots"] for s in sims),
        "engine.aborts": sum(s["aborted"] for s in sims),
        "engine.reference_s": scale * sum(
            (s["seconds"] for s in sims if s["reference"]), 0.0
        ),
        "engine.us_per_step": 1e6 * sim_total / steps if steps else 0.0,
        "engine.self_us_per_step": 1e6 * sim_self / steps if steps else 0.0,
        "trace.spans": last - first,
    })
    return m


def span_cost_ns(calls=100_000):
    """Cost of one span (wrapped minus bare call of a no-op), in ns; the
    best of three rounds, so a slow moment of the machine does not count."""

    def noop():
        return None

    wrapped = Tracer().span("calibration", noop)
    best = {}
    for fn in (noop, wrapped) * 3:
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        best[fn] = min(best.get(fn, np.inf), time.perf_counter_ns() - t0)
    return (best[wrapped] - best[noop]) / calls


def per_layer(runner, seconds, spans_path):
    tracer = Tracer()
    sims = []

    def on_simulate(sid, log):
        parent = tracer.parent[sid]
        cfg = log.config
        aborted = log.abort_reason is not None
        sims.append({
            "steps": log.abort_step if aborted else int(round(cfg.duration / cfg.step)),
            "snapshots": len(log.t),
            "aborted": int(aborted),
            "reference": parent >= 0
            and tracer.names[tracer.name[parent]] == "cli.compute_reference",
            "seconds": (tracer.end[sid] - tracer.start[sid]) * 1e-9,
        })

    walls, measured, records = [], [], []
    start = time.perf_counter()
    while keep_going(start, seconds, measured):
        first = len(tracer.parent)
        before = tracer.counts["matching.assignment_cost"]
        sims.clear()
        tracer.install(on_result={"engine.simulate": on_simulate})
        try:
            wall, took, rc = runner.run_once(traced=True)
        finally:
            tracer.uninstall()
        walls.append(wall)
        measured.append(took)
        m = traced_run_metrics(
            tracer, first, len(tracer.parent), sims,
            tracer.counts["matching.assignment_cost"] - before, wall / took,
        )
        facts = runner.check(rc, {k: m[k] for k in EXACT if k in m})
        m["steps_to_kkt"] = facts.get("steps_to_kkt", -1)
        m["cli.artifact_bytes"] = facts.get("cli.artifact_bytes", 0)
        m["trace.wall_s"] = wall
        m["trace.overhead_share"] = m["trace.spans"] * span_cost_ns() * 1e-9 / took
        records.append(m)

    if tracer.missing:
        print("not traced (absent): " + ", ".join(tracer.missing))
    tracer.save(spans_path)
    describe("traced wall_s", walls, "s")
    metrics = {}
    for key in records[0]:
        values = [r[key] for r in records]
        if isinstance(values[0], int):
            metrics[key] = values[0]  # equal across runs, or the check failed
        else:
            metrics[key] = statistics.median(values)
    # Tracing overhead: spans times the measured cost of one span.  The
    # traced minus untraced wall_s of separate runs (trace.wall_s against
    # the --trace 0 runs' wall_s) gives it too, within the runs' spread.
    share = metrics["trace.overhead_share"]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] * share / (1.0 + share)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--instance-seed", type=int, default=None,
        help="config seed to run instead of the workload's own (held-out "
             "seed probes)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    cli = load_cli()
    workload = WORKLOADS[args.workload]
    cfg = workload.config_for(args.seed)
    if args.instance_seed is not None:
        cfg["seed"] = args.instance_seed
    print(
        f"env: python {sys.version.split()[0]}, numpy {np.__version__}, "
        f"cpus {os.cpu_count()}, OPENBLAS_NUM_THREADS="
        f"{os.environ['OPENBLAS_NUM_THREADS']}; workload {workload.name}, "
        f"config seed {cfg['seed']}"
    )
    work_dir = WORK / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(cli, workload, cfg, work_dir)
        if args.trace:
            values = per_layer(
                runner, args.seconds, WORK / f"spans-{workload.name}.npz"
            )
            units = per_layer_units()
        else:
            values = end_to_end(cli, runner, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
