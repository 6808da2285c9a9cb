"""Span tracing of triband's layers, installed from outside the package.

A Tracer wraps the public function at each layer boundary (LAYERS) in every
triband module namespace that binds it, so calls made through
``from .model import sc_kernels``-style imports are caught too.  Each call
records one span [name, start, end, parent, attrs]; spans stay in memory and
the caller writes them out when the benchmark ends.  Leaving the ``with``
block restores every original function.

Only counts and durations are recorded; tracing changes no argument and no
result.  The tracer assumes the single-threaded call pattern of the
workloads (no ``workers > 1``).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import warnings

# span name -> (triband module, public function at that layer boundary)
LAYERS = {
    "model.sc_kernels": ("model", "sc_kernels"),
    "rootfind.scan": ("rootfind", "sign_change_brackets"),
    "rootfind.refine": ("rootfind", "refine_brackets"),
    "rootfind.dedup": ("rootfind", "dedup_sorted"),
    "boundstates.solve": ("boundstates", "find_bound_states"),
    "spectra.sweep": ("spectra", "sweep"),
    "oracle.solve": ("oracle", "oracle_bound_states"),
    "bands.band_sweep": ("bands", "band_sweep"),
    "pointlimits.convergence_study": ("pointlimits", "convergence_study"),
    "io_utils.write_csv": ("io_utils", "write_csv"),
    "cli.main": ("cli", "main"),
}
RESIDUAL = "rootfind.refine.residual"  # one call of the residual inside refinement

# Units whose per-layer metrics count work, so must repeat exactly between two
# traced passes of the same input.
EXACT_UNITS = ("count", "bytes")


def _size(x):
    return getattr(x, "size", 1)  # numpy arrays and scalars; a float is one point


class Tracer:
    """Context manager that patches the LAYERS functions for its lifetime."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []  # (module, attribute, original)
        self._wrappers = []
        self.restored = None  # after exit: no wrapper left in any triband module

    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def end(self, idx, attrs=None):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = attrs
        self._stack.pop()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn):
        special = {
            "rootfind.refine": self._wrap_refine,
            "boundstates.solve": self._wrap_solve,
        }.get(name)
        if special:
            return special(name, fn)
        count = _COUNTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    attrs = count(args, kwargs, result)
                return result
            finally:
                tracer.end(idx, attrs)

        return wrapper

    def _wrap_refine(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(func, brackets, *args, **kwargs):
            def residual(x):
                j = tracer.begin(RESIDUAL)
                try:
                    return func(x)
                finally:
                    tracer.end(j, {"points": _size(x)})

            idx = tracer.begin(name)
            try:
                return fn(residual, brackets, *args, **kwargs)
            finally:
                tracer.end(idx, {"brackets": len(brackets)})

        return wrapper

    def _wrap_solve(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            attrs = None
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
                n_warn = sum(issubclass(w.category, RuntimeWarning) for w in caught)
                attrs = {"levels": len(result), "warnings": n_warn}
                return result
            finally:
                tracer.end(idx, attrs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def __enter__(self):
        wrapped = {}
        for name, (mod, attr) in LAYERS.items():
            fn = getattr(importlib.import_module(f"triband.{mod}"), attr)
            wrapped[id(fn)] = (fn, self._wrap(name, fn))
        self._wrappers = [w for _, w in wrapped.values()]
        for module in _triband_modules():
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc):
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        self._patched = []
        # a module imported while tracing may have bound a wrapper by name
        ids = {id(w) for w in self._wrappers}
        self.restored = not any(
            id(value) in ids for m in _triband_modules() for value in vars(m).values()
        )
        return False


def _triband_modules():
    return [m for n, m in list(sys.modules.items()) if n == "triband" or n.startswith("triband.")]


def _scan_points(args, kwargs, result):
    return {"points": len(args[0] if args else kwargs["x"])}


def _kernel_points(args, kwargs, result):
    w = args[0] if args else kwargs["w"]
    t = args[1] if len(args) > 1 else kwargs["t"]
    return {"points": max(_size(w), _size(t))}


def _dedup_dropped(args, kwargs, result):
    roots = args[0] if args else kwargs["roots"]
    return {"dropped": len(roots) - len(result[0])}


def _oracle_steps(args, kwargs, result):
    n_steps = args[3] if len(args) > 3 else kwargs.get("n_steps", 2000)
    return {"half_steps": max(1, n_steps // 2), "levels": len(result)}


def _branches(args, kwargs, result):
    return {"branches": len(result.branches)}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(result) if result is not None else 0}


_COUNTS = {
    "model.sc_kernels": _kernel_points,
    "rootfind.scan": _scan_points,
    "rootfind.dedup": _dedup_dropped,
    "oracle.solve": _oracle_steps,
    "spectra.sweep": _branches,
    "io_utils.write_csv": _csv_bytes,
}


# (span name, span attribute) -> the per-layer metric that sums the attribute
ATTR_SUMS = {
    ("model.sc_kernels", "points"): "model.sc_kernels.points",
    ("rootfind.scan", "points"): "rootfind.scan.points",
    ("rootfind.refine", "brackets"): "rootfind.refine.brackets",
    (RESIDUAL, "points"): "rootfind.refine.points",
    ("rootfind.dedup", "dropped"): "rootfind.dedup.dropped",
    ("boundstates.solve", "levels"): "boundstates.levels",
    ("boundstates.solve", "warnings"): "boundstates.warnings",
    ("spectra.sweep", "branches"): "spectra.branches",
    ("io_utils.write_csv", "bytes"): "io_utils.write_csv.bytes",
}


def layer_metrics(units, span_sets, labels, import_s=()):
    """Per-layer metrics over several span lists (one per process or call).

    units is {metric name: unit} of every metric to report; one a workload
    never reaches reads 0.  labels[i] names the command whose spans are
    span_sets[i], for cli.main.<label>.s; import_s holds the measured
    `import triband.cli` time of each CLI process.
    """
    out = {name: 0 if unit in EXACT_UNITS else 0.0 for name, unit in units.items()}
    levels = 0  # returned by the solver and the oracle, for useful_ratio
    for k, spans in enumerate(span_sets):
        child = [0.0] * len(spans)
        oracle_of = [-1] * len(spans)  # index of the enclosing oracle.solve span
        oracle_points = {}
        for i, (name, t0, t1, parent, attrs) in enumerate(spans):
            if parent >= 0:  # a parent always starts, so is listed, before its children
                child[parent] += t1 - t0
                oracle_of[i] = oracle_of[parent]
            if name == "oracle.solve":
                oracle_of[i] = i
            elif name in ("rootfind.scan", RESIDUAL) and oracle_of[i] >= 0:
                o = oracle_of[i]
                oracle_points[o] = oracle_points.get(o, 0) + attrs["points"]
        for i, (name, t0, t1, parent, attrs) in enumerate(spans):
            dur = t1 - t0
            attrs = attrs or {}  # a call that raised records no attributes
            if name == RESIDUAL:
                out["rootfind.refine.evals"] += 1
                out["rootfind.refine.residual_s"] += dur
            for key, value in (("calls", 1), ("s", dur), ("self_s", dur - child[i])):
                if f"{name}.{key}" in out:
                    out[f"{name}.{key}"] += value
            for attr, value in attrs.items():
                if (name, attr) in ATTR_SUMS:
                    out[ATTR_SUMS[name, attr]] += value
            levels += attrs.get("levels", 0)
            if name == "oracle.solve" and attrs:
                out["oracle.points"] += oracle_points.get(i, 0)
                out["oracle.rk4_steps"] += oracle_points.get(i, 0) * attrs["half_steps"]
            elif name == "cli.main":
                out[f"cli.main.{labels[k]}.s"] += dur
    if out["rootfind.refine.brackets"]:
        out["rootfind.useful_ratio"] = levels / out["rootfind.refine.brackets"]
    if import_s:
        out["cli.import_s"] = sorted(import_s)[len(import_s) // 2]
    return out
