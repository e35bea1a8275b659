"""The public surface: the package exports, each module's __all__ (pinned),
and the targets the benchmark's tracer wraps.

perfbench/spans.py names the functions and methods it wraps by module path
and attribute.  A target that is gone reads as zero in its layer metric, so
a rename or a removal must fail here and not only in a traced benchmark run.
So must a target that is still there but no longer on the path simulate
takes: its metric reads zero just the same.
"""

import dataclasses
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import dcopt
from dcopt import AgentState, ReferencePoint
from dcopt.cli import build_scenario, validate_config
from dcopt.engine import MODES

SUBMODULES = ("cli", "dynamics", "engine", "graph", "matching", "problem", "scattering")

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_package_exports_the_readme_names():
    assert dcopt.__all__ == [
        "ring",
        "generate_instance",
        "build_distributed_problem",
        "brute_force_optimal",
        "extract_assignment",
        "SimConfig",
        "simulate",
        "AgentState",
        "TrajectoryLog",
        "ReferencePoint",
        "kkt_residual",
        "passivity_check",
        "lyapunov_delayed",
    ]
    for name in dcopt.__all__:
        assert hasattr(dcopt, name), name


# each submodule's __all__ as it stands: a public name added back for the
# tests alone would show up here as an edit (cli declares none)
SUBMODULE_ALL = {
    "cli": None,
    "dynamics": ["CompensatorParams", "AgentState", "AgentDerivative", "LambdaGuardError",
                 "derivatives", "euler_step", "compensator_storage", "multiplier_storage",
                 "primal_rate_bound", "multiplier_rate_bound", "storage_step_defects"],
    "engine": ["MODES", "SimConfig", "ReferencePoint", "TrajectoryLog", "simulate",
               "lyapunov_delayed", "passivity_check", "PassivityReport"],
    "graph": ["Network", "ring", "laplacian_apply"],
    "matching": ["MatchingInstance", "generate_instance", "build_distributed_problem",
                 "brute_force_optimal", "assignment_cost", "extract_assignment"],
    "problem": ["ScalarFunction", "AffineFunction", "QuadraticFunction",
                "make_linear_nonneg_bound", "LocalProblem", "LocalTerms", "DistributedProblem",
                "constraint_force", "KKTResidual", "kkt_residual"],
    "scattering": ["CouplingMatrix", "DelayLine", "ChannelEnd", "wave_identity_residual"],
}


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_is_pinned(name):
    module = importlib.import_module(f"dcopt.{name}")
    assert getattr(module, "__all__", None) == SUBMODULE_ALL[name]


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_names_exist(name):
    module = importlib.import_module(f"dcopt.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"dcopt.{name}.{attr}"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_span_targets_resolve():
    spans = load_spans()
    targets = [(path, attr) for _, path, attr in spans.SPANS + spans.COUNTS]
    assert targets
    # the lookup Tracer.install makes before it wraps a target
    missing = [f"{path}.{attr}" for path, attr in targets
               if getattr(spans._resolve(path), attr, None) is None]
    assert missing == []


# the per-step layers of the bench, and how many of a run's 50 steps call
# each: every step of the delayed modes and of a certified no-delay run, and
# of an uncertified no-delay run only the logged one, step 0 (the CLI logs
# every 1000th), since _Run steps its unlogged steps by the linear map;
# _Run binds the delay line's rows and the channel end's map once per run
# and steps through them, so the recover and delay-line spans see no step
# (their layer metrics read 0 until the benchmark retargets them)
RUNS = MODES + ("no_delay_certified",)
PER_STEP = {
    "dynamics.derivatives": dict.fromkeys(RUNS, 50) | {"no_delay": 1},
    "dynamics.euler_step": dict.fromkeys(RUNS, 50) | {"no_delay": 1},
    "scattering.recover": dict.fromkeys(RUNS, 0),
    "scattering.delay_line": dict.fromkeys(RUNS, 0),
}


@pytest.mark.parametrize("run", RUNS)
def test_benchmark_per_step_spans_see_every_step(run, monkeypatch):
    # wrap each per-step target where the tracer wraps it: a short run must
    # call each one as often as PER_STEP says
    spans = load_spans()
    calls = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    mode = run.removesuffix("_certified")
    cfg = validate_config(None, {"agents": 3, "duration": 0.05, "diagnostics": False})
    _, prob, sim = build_scenario(cfg, mode)
    if mode != run:  # any reference that fits: the certificates check every step
        state = AgentState.zeros(sim.compensator, prob)
        sim = dataclasses.replace(sim, reference=ReferencePoint(state.x, state.xi, state.lam,
                                                                state.mu))
    expected = {}
    for name, path, attr in spans.SPANS:
        if name in PER_STEP:
            owner = spans._resolve(path)
            monkeypatch.setattr(owner, attr, counting((name, attr), getattr(owner, attr)))
            expected[(name, attr)] = PER_STEP[name][run]
    assert len(expected) == 5
    log = dcopt.engine.simulate(prob, sim)
    assert log.abort_reason is None and len(log.t) == 2
    assert {key: calls[key] for key in expected} == expected
