"""Spans around calls into dcopt's public functions, recorded from outside.

Nothing under src/ knows about tracing: `Tracer.install` replaces module
attributes and methods with timing wrappers and `Tracer.uninstall` puts the
originals back.  Each span keeps its name, start, end (perf_counter_ns) and
the id of the span that was open when it started.  Spans live in flat
int64 arrays until `save` writes them out, so the millions of spans of a
long traced run cost a few tens of bytes each.

Names are "<layer>.<what>", where the layer is the dcopt module whose
function the span covers.  Wrapping targets the name the caller looks up:
`simulate` calls `dcopt.engine.derivatives`, not `dcopt.dynamics.derivatives`,
so the wrapper is put on the engine module.  A target the installed dcopt no
longer has is skipped and listed in `missing`; its metrics then read zero.
"""

import importlib
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# (span name, module or class path, attribute)
SPANS = (
    ("cli.run", "dcopt.cli", "run"),
    ("cli.build_scenario", "dcopt.cli", "build_scenario"),
    ("cli.compute_reference", "dcopt.cli", "compute_reference"),
    ("cli.classify", "dcopt.cli", "classify"),
    ("cli.write_diagnostics", "dcopt.cli", "write_diagnostics"),
    ("matching.generate_instance", "dcopt.cli", "generate_instance"),
    ("matching.build_problem", "dcopt.cli", "build_distributed_problem"),
    ("matching.oracle", "dcopt.cli", "brute_force_optimal"),
    ("engine.simulate", "dcopt.cli", "simulate"),
    ("engine.to_csv", "dcopt.engine.TrajectoryLog", "to_csv"),
    ("problem.kkt_residual", "dcopt.engine", "kkt_residual"),
    ("dynamics.derivatives", "dcopt.engine", "derivatives"),
    ("dynamics.euler_step", "dcopt.engine", "euler_step"),
    ("dynamics.constraint_force", "dcopt.engine", "constraint_force"),
    ("dynamics.storage", "dcopt.engine", "compensator_storage"),
    ("dynamics.storage", "dcopt.engine", "multiplier_storage"),
    ("dynamics.rate_bound", "dcopt.engine", "primal_rate_bound"),
    ("dynamics.rate_bound", "dcopt.engine", "multiplier_rate_bound"),
    ("dynamics.step_defects", "dcopt.engine", "storage_step_defects"),
    ("scattering.recover", "dcopt.scattering.ChannelEnd", "recover"),
    ("scattering.outgoing_wave", "dcopt.scattering.ChannelEnd", "outgoing_wave"),
    ("scattering.delay_line", "dcopt.scattering.DelayLine", "pop"),
    ("scattering.delay_line", "dcopt.scattering.DelayLine", "push"),
    ("scattering.wave_identity", "dcopt.engine", "wave_identity_residual"),
)

# Called n! times per instance attempt: counted, not timed (a span each
# would add more than the call costs).
COUNTS = (
    ("matching.assignment_cost", "dcopt.matching", "assignment_cost"),
)

LAYERS = ("matching", "problem", "dynamics", "scattering", "engine", "cli")


def _resolve(path):
    """Module or class named by a dotted path, or None."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Span recorder; one per traced benchmark run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts = Counter()
        self.missing = []
        self._stack = [-1]
        self._patches = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name, fn, on_result=None):
        """fn wrapped so that each call records a span called name;
        on_result(span id, return value) runs after the span closes."""
        nid = self._name_id(name)
        stack, parent, names = self._stack, self.parent, self.name
        start, end = self.start, self.end

        def traced(*args, **kwargs):
            sid = len(parent)
            parent.append(stack[-1])
            names.append(nid)
            start.append(0)
            end.append(0)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if on_result is not None:
                on_result(sid, out)
            return out

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, path, attr, make):
        owner = _resolve(path)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.missing.append(f"{path}.{attr}")
            return
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, make(fn))

    def install(self, on_result=None):
        """Wrap every target.  on_result maps a span name to a callback
        (span id, return value), called after each such span closes."""
        on_result = on_result or {}
        self.missing.clear()
        for name, path, attr in SPANS:
            self._patch(
                path, attr,
                lambda fn, n=name: self.span(n, fn, on_result.get(n)),
            )
        for name, path, attr in COUNTS:
            self._patch(path, attr, lambda fn, n=name: self._count_wrapper(n, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self):
        """(parent, name id, start ns, end ns) as numpy arrays (copies, so
        recording can go on)."""
        return tuple(
            np.array(a, dtype=np.int64)
            for a in (self.parent, self.name, self.start, self.end)
        )

    def save(self, path):
        """Write every span (id = row index) to a .npz file."""
        parent, name, start, end = self.arrays()
        np.savez(
            path, parent=parent, name=name, start=start, end=end,
            names=np.array(self.names),
        )


def summarize(tracer, first, last):
    """Per-span-name (total seconds, self seconds, calls) over the spans with
    ids first..last-1.

    A span's self time is its duration minus the durations of its direct
    children.
    """
    parent, name, start, end = (a[first:last] for a in tracer.arrays())
    dur = (end - start) * 1e-9
    inside = (parent >= first) & (parent < last)
    child = np.bincount(
        parent[inside] - first, weights=dur[inside], minlength=dur.size
    )
    n_names = len(tracer.names)
    total = np.bincount(name, weights=dur, minlength=n_names)
    self_ = np.bincount(name, weights=dur - child, minlength=n_names)
    calls = np.bincount(name, minlength=n_names)
    return {
        n: (float(total[i]), float(self_[i]), int(calls[i]))
        for i, n in enumerate(tracer.names)
    }
