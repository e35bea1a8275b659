"""The public surface: the package exports, each module's __all__, and the
targets the benchmark's tracer wraps.

perfbench/spans.py names the functions and methods it wraps by module path
and attribute.  A target that is gone reads as zero in its layer metric, so
a rename or a removal must fail here and not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import dcopt

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


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_names_exist(name):
    module = importlib.import_module(f"dcopt.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"dcopt.{name}.{attr}"


def test_benchmark_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(path, attr) for _, path, attr in spans.SPANS + spans.COUNTS]
    assert targets
    # the lookup Tracer.install makes before it wraps a target
    missing = [f"{path}.{attr}" for path, attr in targets
               if getattr(spans._resolve(path), attr, None) is None]
    assert missing == []
