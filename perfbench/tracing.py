"""Span tracer that wraps djcm's public entry points from outside the package.

Nothing under `src/djcm` is edited. `Tracer.install()` replaces each traced
function at every name a djcm module binds it to (the names callers look
up at call time, e.g. `scenarios.propagate_pair` as well as
`evolution.propagate_pair`), and `uninstall()` puts the originals back,
so untraced jobs run the unmodified program.

Each call records a span (id, parent span, name, job, start, end). Spans
stay in memory and are written out once, at the end of the run. Self
time is a span's duration minus the time covered by its child spans;
it is accumulated per name as calls complete, so the aggregates need no
second pass over the spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# Layer -> public entry points, named as in src/djcm. `linalg` and `bases`
# are helpers called from inside these and are not wrapped.
LAYERS = {
    "propagator": (
        "decay_rate_minus",
        "decay_rate_plus",
        "integrated_rate_minus",
        "integrated_rate_plus",
        "coefficients",
    ),
    "evolution": ("propagate_pair", "min_eigenvalue"),
    "states": ("initial_state", "reduce_all", "reduce"),
    "entanglement": ("concurrence",),
    "integrate": ("integrate_pair", "integrate_single", "rate_from_spectral_density"),
    "scenarios": (
        "evolve_concurrences",
        "write_csv",
        "transient_entanglement_threshold",
        "validation_report",
    ),
    "cli": ("main",),
}

# Spans beyond this many are counted in `dropped` but not stored; the
# aggregates still cover every call.
MAX_SPANS = 250_000


def _count_distinct_points(tracer, args, kwargs):
    # propagate_pair(r0, p_a, p_b, t): one closed-form (params, t) point;
    # every caller in djcm passes these positionally
    _, p_a, p_b, t = args[:4]
    tracer.pass_points.add((p_a, p_b, float(t)))
    return None


def _count_rk4_steps(tracer, args, kwargs):
    # integrate_single(rho0, p, cfg) / integrate_pair(rho0, p_a, p_b, cfg)
    cfg = kwargs.get("cfg", args[-1])
    tracer.counters["integrate.rk4_steps"] += cfg.n_steps()
    return None


def _count_csv_bytes(tracer, args, kwargs):
    # write_csv(records, fh): bytes the call appended to fh
    fh = kwargs.get("fh", args[1] if len(args) > 1 else None)
    try:
        start = fh.tell()
    except (AttributeError, OSError, ValueError):
        return None

    def done():
        tracer.counters["scenarios.write_csv.bytes"] += fh.tell() - start

    return done


HOOKS = {
    "evolution.propagate_pair": _count_distinct_points,
    "integrate.integrate_single": _count_rk4_steps,
    "integrate.integrate_pair": _count_rk4_steps,
    "scenarios.write_csv": _count_csv_bytes,
}


class Tracer:
    """In-memory span recorder plus per-name call/self/total aggregates."""

    def __init__(self, max_spans: int = MAX_SPANS):
        self.max_spans = max_spans
        self.names: list[str] = []
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counters: dict[str, float] = {
            "integrate.rk4_steps": 0,
            "scenarios.write_csv.bytes": 0,
            "evolution.distinct_points": 0,
        }
        self.pass_points: set = set()
        self.job = -1
        self.dropped = 0
        self._stack: list[list] = []  # [child_time, span_id]
        self._next_id = 0
        self._ids = array("q")
        self._parents = array("q")
        self._name_ids = array("H")
        self._jobs = array("q")
        self._starts = array("d")
        self._ends = array("d")
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.stats:
            self.stats[name] = [0, 0.0, 0.0]
            self.names.append(name)
        return self.names.index(name)

    def _record(self, span_id, parent, name_id, start, end):
        if len(self._ids) >= self.max_spans:
            self.dropped += 1
            return
        self._ids.append(span_id)
        self._parents.append(parent)
        self._name_ids.append(name_id)
        self._jobs.append(self.job)
        self._starts.append(start)
        self._ends.append(end)

    def wrap(self, name: str, fn, hook=None):
        """Return `fn` wrapped so that every call records a span under `name`."""
        name_id = self._name_id(name)
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            done = hook(self, args, kwargs) if hook is not None else None
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur - frame[0]
                stat[2] += dur
                if stack:
                    stack[-1][0] += dur
                if done is not None:
                    done()
                self._record(span_id, parent, name_id, start, end)

        return traced

    def run_job(self, job_index: int, name: str, fn):
        """Run fn() as the root span of one job; spans inside share job_index."""
        self.job = job_index
        try:
            return self.wrap("job." + name, fn)()
        finally:
            self.job = -1

    def end_pass(self) -> None:
        """Close one pass over the job list: fold its distinct (params, t) points."""
        self.counters["evolution.distinct_points"] += len(self.pass_points)
        self.pass_points = set()

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every LAYERS entry point at each djcm module name bound to it."""
        if self._patches:
            return
        modules = [m for n, m in sorted(sys.modules.items()) if n == "djcm" or n.startswith("djcm.")]
        for layer, funcs in LAYERS.items():
            home = sys.modules["djcm." + layer]
            for func in funcs:
                name = f"{layer}.{func}"
                original = getattr(home, func)
                wrapper = self.wrap(name, original, HOOKS.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "stats": {name: list(v) for name, v in self.stats.items()},
            "counters": dict(self.counters),
            "spans": len(self._ids),
            "dropped": self.dropped,
        }

    def write_spans(self, path) -> None:
        """Write the recorded spans as a compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self._ids, dtype=np.int64),
            parent=np.frombuffer(self._parents, dtype=np.int64),
            name=np.frombuffer(self._name_ids, dtype=np.uint16),
            job=np.frombuffer(self._jobs, dtype=np.int64),
            start=np.frombuffer(self._starts, dtype=np.float64),
            end=np.frombuffer(self._ends, dtype=np.float64),
        )
