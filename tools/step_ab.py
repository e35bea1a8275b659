"""Time the engine's step in one process: this tree's against another's.

    python3 tools/step_ab.py BASE [--mode M] [--agents N] [--batches B]

BASE is a source tree, as for tools/same_outputs.py.  The src/dcopt of
BASE and of the tree this script is in are imported side by side under two
package names (their imports are relative), and each builds the same run:
the CLI's default config with N agents (default 5), the scenario M's
problem and SimConfig (default no_delay), and the engine's _Run, stepped
and committed for 1 s of simulated time from the zero start.  Then the two
sides take turns at batches of 100 committed steps, B batches each
(default 400), the side that goes first alternating with each pair.
Prints, for each side, the least and the first-quartile microseconds per
step over its batches, then the median over the pairs of change / base.
A step that trips a guard ends the tool with an error.
"""

import argparse
import importlib
import importlib.util
import pathlib
import statistics
import sys
import time

import numpy as np

STEPS = 100  # committed steps per batch
WARM = 1.0  # simulated seconds stepped before timing


def _load(tree, name):
    """The cli and engine modules of tree's src/dcopt, imported as package name."""
    root = pathlib.Path(tree, "src", "dcopt").resolve()
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(name + ".cli"), importlib.import_module(name + ".engine")


class Side:
    """One tree's run, stepped batch by batch from where the last ended."""

    def __init__(self, tree, name, scenario, agents):
        cli, engine = _load(tree, name)
        cfg = cli.validate_config(overrides={"agents": agents})
        _, prob, sim = cli.build_scenario(cfg, scenario)
        self.run = engine._Run(prob, sim, engine._initial_state(prob, sim), 1)
        self.state, self.k, self.times = self.run.states[0], 0, []
        self.batch(round(WARM / sim.step))

    def batch(self, count):
        """Step and commit count steps; their seconds."""
        run, state, h = self.run, self.state, self.run.h
        start = time.perf_counter()
        for k in range(self.k, self.k + count):
            _, _, state, trip = run.step(k, k * h, state)
            if trip is not None:
                sys.exit(f"step {k} tripped a guard: {trip}")
        elapsed = time.perf_counter() - start
        self.state, self.k = state, self.k + count
        return elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the source tree to time against")
    parser.add_argument("--mode", default="no_delay",
                        choices=("no_delay", "naive_delay", "scattering", "no_compensator"),
                        help="the CLI scenario (default: no_delay)")
    parser.add_argument("--agents", type=int, default=5, help="agents (default: 5)")
    parser.add_argument("--batches", type=int, default=400,
                        help="batches of 100 steps a side (default: 400)")
    args = parser.parse_args(argv)
    if args.batches < 1:
        parser.error("--batches must be at least 1")
    here = pathlib.Path(__file__).resolve().parents[1]
    with np.errstate(all="ignore"):  # as in simulate
        sides = [Side(args.base, "dcopt_base", args.mode, args.agents),
                 Side(here, "dcopt_change", args.mode, args.agents)]
        for b in range(args.batches):
            for side in sides[::-1] if b % 2 else sides:
                side.times.append(side.batch(STEPS) / STEPS * 1e6)
    print(f"{args.mode}, N = {args.agents}: {args.batches} batches of {STEPS} steps a side")
    for label, side in zip(("base", "change"), sides):
        q1 = statistics.quantiles(side.times, n=4)[0] if len(side.times) > 1 else side.times[0]
        print(f"{label:6s}  min {min(side.times):7.2f}  q1 {q1:7.2f}  us/step")
    ratio = statistics.median(c / b for b, c in zip(*(side.times for side in sides)))
    print(f"change / base, median over {args.batches} pairs: {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
