"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/repeat.py --workload nd_solve --seeds 1-10 --seconds 20 \
        [--trace 1] [--json out.json]

Runs perfbench/run.py in a fresh process per seed, one after another, and
prints per metric the median, the quartiles (statistics.quantiles, n=4) and
the spread: the distance between the quartiles as a share of the median.
--json appends the summary under the workload's name.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    values, units, failed = {}, {}, 0
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        print(f"seed {seed}: correct {result['correct']}, "
              f"{result['attempted']} runs, {result['failed']} failed", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {
            "unit": units[name], "median": median, "q1": q1, "q3": q3,
            "spread": spread, "values": vals,
        }
        print(f"{name}: median {median:.6g} {units[name]}, quartiles "
              f"{q1:.6g}..{q3:.6g}, spread {spread:.3f}")
    print(f"failed runs: {failed}")
    if args.json:
        data = json.loads(args.json.read_text()) if args.json.is_file() else {}
        data.setdefault(args.workload, {})["trace" if args.trace else "end_to_end"] = summary
        args.json.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
