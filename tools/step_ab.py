"""Time the engine's step in one process: this tree's against another's.

    python3 tools/step_ab.py BASE [--mode M] [--agents N] [--batches B]
                             [--certificates]

BASE is a source tree, as for tools/same_outputs.py.  The src/dcopt of
BASE and of the tree this script is in are imported side by side under two
package names (their imports are relative), and each builds the same run:
the CLI's default config with N agents (default 5), the scenario M's
problem and SimConfig (default no_delay; no_compensator is its m = 1
run), and the engine's _Run, stepped and committed for 1 s of simulated
time from the zero start.  The run's log_every is set past its steps, so
every step after step 0 is unlogged, and each side times what its tree
commits on unlogged steps, as simulate steps them: an uncertified no-delay
run on an affine problem, the CLI's, by its linear map, through the
tree's interval entry (engine._linear_steps on _Run.linear, whose guard
trips run again as _Run.step), or per step by _Run.step in a tree without
it, and the other modes by the port exchange.  Then the two
sides take turns at batches of 100 committed steps, B batches each
(default 400), the side that goes first alternating with each pair.
Prints, for each side, the least and the first-quartile microseconds per
step over its batches (the inclusive quartile, which stays within the
data), then the median over the pairs of change / base and the number of
pairs in which the change was faster.  For no_delay and no_compensator a
second report follows, headed "exchange step": the same run at
log_every = 1, which logs every step, so both trees step it by the
exchange, as they do every logged or certified step.  A config that either
tree rejects (say --agents 2) is a usage error; a step that trips a guard
ends the tool with an error.

With --certificates the sides time the online certificate evaluator
instead, _DiagState._evaluate, in this process.  Each side's run goes on
from the state its 1 s ends in, with that state as the reference (what the
evaluator costs does not depend on the reference's values), and fills one
slot of certificate rows, _DIAG_BLOCK steps of its tree; a batch evaluates
that slot as often as it takes to cover 100 steps, and the times are
microseconds per evaluated step.
"""

import argparse
import dataclasses
import importlib
import importlib.util
import pathlib
import statistics
import sys
import time

import numpy as np

STEPS = 100  # committed steps per batch
WARM = 1.0  # simulated seconds stepped before timing
UNLOGGED = 2**62  # log_every: no step but step 0 is logged


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
    """One tree's run, stepped batch by batch from where the last ended,
    logged every every-th step."""

    def __init__(self, cli, engine, cfg, scenario, every=UNLOGGED):
        _, prob, sim = cli.build_scenario(cfg, scenario)
        sim = dataclasses.replace(sim, log_every=every)
        self.prob, self.sim = prob, sim
        self.run = engine._Run(prob, sim, engine._initial_state(prob, sim), 1)
        # the interval entry of a tree that has one, else None
        self.linear = getattr(self.run, "linear", None)
        self.steps_of = getattr(engine, "_linear_steps", None)
        self.state, self.k, self.times, self.steps = self.run.states[0], 0, [], STEPS
        self.step(round(WARM / sim.step))

    def step(self, count):
        """Step and commit count steps, as simulate does; their seconds."""
        run, state, h, linear = self.run, self.state, self.run.h, self.linear
        k, stop, every = self.k, self.k + count, self.sim.log_every
        start = time.perf_counter()
        while k < stop:
            if linear is not None and k % every:
                end = min(stop, k - k % every + every)
                state, done = self.steps_of(state, end - k, linear)
                k += done
                if k == end:
                    continue
            _, _, state, trip = run.step(k, k * h, state)
            if trip is not None:
                sys.exit(f"step {k} tripped a guard: {trip}")
            k += 1
        elapsed = time.perf_counter() - start
        self.state, self.k = state, stop
        return elapsed

    def batch(self):
        return self.step(STEPS)


class Certificates(Side):
    """One tree's certificate evaluator, evaluating one filled slot of rows
    batch by batch."""

    def __init__(self, cli, engine, cfg, scenario):
        super().__init__(cli, engine, cfg, scenario)
        state = self.state
        ref = engine.ReferencePoint(state.x, state.xi, state.lam, state.mu)
        start = engine.AgentState(state.rho, state.xi, state.lam, state.mu)
        sim = dataclasses.replace(self.sim, reference=ref, initial=start)
        self.run = engine._Run(self.prob, sim, engine._initial_state(self.prob, sim),
                               engine._DIAG_BLOCK)
        self.linear = None  # a certified run steps every step by the exchange
        log = engine.TrajectoryLog(sim, self.prob)
        log.delays = None if self.run.line is None else self.run.line.delay
        self.diag = engine._DiagState(log, self.run, 0)  # no steps: it never forks
        self.state, self.k, self.per_slot = self.run.states[0], 0, self.run.per_slot
        self.step(self.per_slot)
        self.steps, self.first = -(-STEPS // self.per_slot) * self.per_slot, 0

    def batch(self):
        """Evaluate the slot enough times to cover STEPS steps; the seconds."""
        evaluate, per_slot = self.diag._evaluate, self.per_slot
        start = time.perf_counter()
        for first in range(self.first, self.first + self.steps, per_slot):
            evaluate(0, per_slot, first, False)
        elapsed = time.perf_counter() - start
        self.first += self.steps
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
    parser.add_argument("--certificates", action="store_true",
                        help="time the certificate evaluator, per evaluated step")
    args = parser.parse_args(argv)
    if args.batches < 1:
        parser.error("--batches must be at least 1")
    here = pathlib.Path(__file__).resolve().parents[1]
    configs = []
    for tree, name in ((args.base, "dcopt_base"), (here, "dcopt_change")):
        cli, engine = _load(tree, name)
        try:
            configs.append((cli, engine, cli.validate_config(overrides={"agents": args.agents})))
        except cli.ConfigError as err:
            parser.error(f"{tree}: {err}")
    runs = [(Certificates if args.certificates else Side, {}, ", certificates" * args.certificates)]
    if args.mode in ("no_delay", "no_compensator") and not args.certificates:
        runs.append((Side, {"every": 1}, ", exchange step"))
    with np.errstate(all="ignore"):  # as in simulate
        for kind, fields, what in runs:
            sides = [kind(*config, args.mode, **fields) for config in configs]
            for b in range(args.batches):
                for side in sides[::-1] if b % 2 else sides:
                    side.times.append(side.batch() / side.steps * 1e6)
            _report(f"{args.mode}, N = {args.agents}{what}", sides, args.batches)
    return 0


def _report(head, sides, batches):
    """Print the report of two sides' timed batches under head."""
    steps = "/".join(dict.fromkeys(str(side.steps) for side in sides))
    print(f"{head}: {batches} batches of {steps} steps a side")
    for label, side in zip(("base", "change"), sides):
        q1 = (statistics.quantiles(side.times, n=4, method="inclusive")[0]
              if len(side.times) > 1 else side.times[0])
        print(f"{label:6s}  min {min(side.times):7.2f}  q1 {q1:7.2f}  us/step")
    pairs = list(zip(*(side.times for side in sides)))
    ratio = statistics.median(c / b for b, c in pairs)
    print(f"change / base, median over {batches} pairs: {ratio:.3f}")
    print(f"change faster in {sum(c < b for b, c in pairs)} of {batches} pairs")


if __name__ == "__main__":
    sys.exit(main())
