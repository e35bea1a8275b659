"""The three benchmark workloads and the correctness check of each run.

Every workload is one CLI scenario with a config the benchmark writes.
Why these three: each later optimisation of the engine has one workload
where its mechanism does most of the work and one where it does almost none.

  nd_solve      no-delay solve past convergence, diagnostics off: per-agent
                derivatives + Euler step and the engine loop, nearly nothing
                else.
  sc_diag       scattering run with online certificates: storage, rate-bound
                and defect functions, wave recovery and delay lines, plus the
                CLI's full no-delay reference pass.
  n8_dense_log  N = 8 scattering run logged every 20 steps: snapshots, KKT
                residuals, to_csv and the n! matching code (8! = 40320
                permutations against 120 at N = 5).

nd_solve and sc_diag run the paper's instance (config seed 5) whatever
--seed is.  Their checks need the flow to converge within the run: on
instance seeds 0-11 only seed 5 has every KKT field at or below 1e-2 by 40 s
simulated (perfbench/NOTES.md), so another instance would turn a timing run
into a failed run.  n8_dense_log's check holds on any instance, so its
config seed is --seed.
"""

import hashlib
import math
from dataclasses import dataclass, field

KKT_TOL = 1e-2  # the CLI's convergence tolerance (dcopt.cli.KKT_TOL)
WAVE_TOL = 1e-10
PAPER_SEED = 5


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    config: dict
    follows_seed: bool  # config seed = --seed, else PAPER_SEED
    checks: tuple = field(default=())

    def config_for(self, seed):
        return dict(self.config, seed=seed if self.follows_seed else PAPER_SEED)

    def expected_samples(self, cfg):
        """Logged samples of the scenario run: every log_every steps plus
        the closing sample."""
        steps = int(round(cfg["duration"] / cfg.get("step", 1e-3)))
        return math.ceil(steps / cfg.get("log_every", 1000)) + 1


def read_diagnostics(path):
    """diagnostics.txt as a dict (the last value wins for repeated keys)."""
    out = {}
    with open(path) as f:
        for line in f:
            key, _, value = line.rstrip("\n").partition(": ")
            out[key] = value
    return out


def scan_trajectory(path, step):
    """(sample count, steps_to_kkt, sha256) of a trajectory.csv.

    steps_to_kkt is the step of the first logged sample from which every
    kkt_* field stays <= KKT_TOL to the end of the run, or -1 when the last
    sample is still above it.
    """
    times = []
    worst = []
    with open(path, "rb") as f:
        f.readline()
        for line in f:
            t, _, rest = line.partition(b",")
            if not times or t != times[-1]:
                times.append(t)
                worst.append(0.0)
            if b",kkt_" in rest:
                worst[-1] = max(worst[-1], float(rest.rpartition(b",")[2]))
    above = [k for k, w in enumerate(worst) if w > KKT_TOL]
    if not above:
        steps_to_kkt = 0
    elif above[-1] == len(times) - 1:
        steps_to_kkt = -1
    else:
        steps_to_kkt = int(round(float(times[above[-1] + 1]) / step))
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return len(times), steps_to_kkt, digest.hexdigest()


def _no_abort(diag, cfg):
    if diag.get("abort_reason") != "n/a":
        return f"run aborted: {diag.get('abort_reason')!r}"
    return True


def _converged_on_oracle(diag, cfg):
    if diag.get("verdict") != "converged":
        return f"verdict {diag.get('verdict')!r}, expected 'converged'"
    want = f"{cfg['agents']}/{cfg['agents']}"
    if diag.get("agents_matching_oracle") != want:
        return f"agents_matching_oracle {diag.get('agents_matching_oracle')}, expected {want}"
    return True


def _certificates_hold(diag, cfg):
    # the CLI turns diagnostics off when the reference pass fails its KKT
    # validation ("no-delay end state fails KKT ..."); that run must fail
    # here, not pass with nothing checked
    if not diag.get("reference", "").startswith("no-delay end state, max KKT"):
        return f"reference not attached: {diag.get('reference')!r}"
    for piece in ("compensator", "multiplier", "coupling"):
        value = diag.get(f"passivity_{piece}_max_excess", "n/a")
        if value == "n/a" or float(value) > 0.0:
            return f"passivity_{piece}_max_excess = {value}"
    wave = diag.get("wave_identity_max", "n/a")
    if wave == "n/a" or float(wave) > WAVE_TOL:
        return f"wave_identity_max = {wave}"
    if diag.get("lyapunov_delayed_non_increasing") != "True":
        return "lyapunov_delayed_non_increasing is not True"
    return True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="nd_solve",
            scenario="no_delay",
            # every KKT field stays <= 1e-2 from 17 s (log_every 1000)
            config={"agents": 5, "duration": 20.0, "diagnostics": False},
            follows_seed=False,
            checks=(_no_abort, _converged_on_oracle),
        ),
        Workload(
            name="sc_diag",
            scenario="scattering",
            # the CLI's reference pass runs as long as the scenario; it
            # validates from ~17 s, but at 18 s its multiplier storage-rate
            # excess is still +9e-3.  At 20 s every excess is below -3e-3.
            config={"agents": 5, "duration": 20.0, "diagnostics": True},
            follows_seed=False,
            checks=(_no_abort, _certificates_hold),
        ),
        Workload(
            name="n8_dense_log",
            scenario="scattering",
            config={
                "agents": 8,
                "duration": 2.0,
                "diagnostics": False,
                "log_every": 20,
            },
            follows_seed=True,
            checks=(_no_abort,),
        ),
    )
}
