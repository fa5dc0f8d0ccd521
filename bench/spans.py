"""Span tracing from outside the program.

Wrappers around public functions are patched into the namespace of the
module that calls them, so the package source stays untouched.  Each
call records a span (name, start, end, parent, op); spans stay in memory
until the run ends.  A span's self time is its duration minus the
durations of its children, which never overlap because the caller is a
single thread.
"""

from __future__ import annotations

import collections
import importlib
from time import perf_counter

import numpy as np

# (calling module, attribute, span name): the boundaries between layers
HOOKS = (
    ("fitting", "eval_target", "problems.eval_target"),
    ("fitting", "build_validation_grid", "problems.build_grid"),
    ("fitting", "build_design_matrix", "fitting.build_design_matrix"),
    ("fitting", "tsvd_solve", "fitting.tsvd_solve"),
    ("fitting", "max_error", "fitting.max_error"),
    ("experiments", "fit", "fitting.fit"),
    ("experiments", "build_fit_grid", "problems.build_grid"),
    ("experiments", "build_validation_grid", "problems.build_grid"),
    ("experiments", "pole_from_density", "density.pole_from_density"),
    ("cli", "fit", "fitting.fit"),
    ("cli", "build_fit_grid", "problems.build_grid"),
    ("cli", "write_table", "tables.write_table"),
    ("contour", "contour_terms", "contour.contour_terms"),
    ("contour", "doubling_simpson", "quadrature.doubling_simpson"),
    ("contour", "line_integral", "quadrature.line_integral"),
    ("contour", "truncated_sqrt_integral", "trapezoid.truncated_sqrt_integral"),
    ("density", "stahl_density", "density.stahl_density"),
    ("density", "doubling_simpson", "quadrature.doubling_simpson"),
    ("trapezoid", "doubling_simpson", "quadrature.doubling_simpson"),
)

# spans whose calls and self time are reported per op; the op's root span
# is "experiments" (a run_* call) or "cli.main"
SPAN_NAMES = ("problems.eval_target", "problems.build_grid",
              "fitting.build_design_matrix", "fitting.tsvd_solve",
              "fitting.max_error", "fitting.fit", "experiments",
              "quadrature.doubling_simpson", "quadrature.line_integral",
              "contour.contour_terms", "density.stahl_density",
              "density.pole_from_density", "trapezoid.truncated_sqrt_integral",
              "tables.write_table", "cli.main")


class Tracer:
    """Records spans and layer counters for one traced run."""

    def __init__(self):
        self.spans = []    # [name, start, end, parent, op]
        self.stack = []
        self.op = -1
        self.counts = collections.Counter()
        self.missing = []  # hooks whose attribute the program no longer has
        self._saved = []

    def call(self, name, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counts[name + ".errors"] += 1
            raise
        finally:
            span[2] = perf_counter()
            self.stack.pop()

    def _counting(self, func):
        def counted(x):
            self.counts["quadrature.func_evals"] += np.size(x)
            return func(x)
        return counted

    def _wrapper(self, name, fn):
        call = self.call
        if name.startswith("quadrature."):
            def wrapper(func, *args, **kwargs):
                return call(name, fn, self._counting(func), *args, **kwargs)
        elif name == "fitting.build_design_matrix":
            def wrapper(*args, **kwargs):
                design = call(name, fn, *args, **kwargs)
                self.counts["fitting.design_bytes"] += design.matrix.nbytes
                return design
        elif name == "fitting.tsvd_solve":
            def wrapper(a, *args, **kwargs):
                coeffs, rank = call(name, fn, a, *args, **kwargs)
                self.counts["fitting.rank"] += rank
                self.counts["fitting.columns"] += len(coeffs)
                return coeffs, rank
        elif name == "fitting.max_error":
            def wrapper(approx, target, grid, *args, **kwargs):
                dtype = np.result_type(grid.points, approx.design.matrix)
                self.counts["fitting.validation_bytes"] += (
                    len(grid.points) * len(approx.coeffs) * dtype.itemsize)
                return call(name, fn, approx, target, grid, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return call(name, fn, *args, **kwargs)
        return wrapper

    def install(self):
        self.missing.clear()
        for modname, attr, name in HOOKS:
            module = importlib.import_module("lightningfit." + modname)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(name, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def self_times(self):
        """(calls, self seconds) per span name, and self seconds per op."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = collections.Counter()
        self_s = collections.Counter()
        per_op = collections.Counter()
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            own = end - start - child[k]
            calls[name] += 1
            self_s[name] += own
            per_op[op] += own
        return calls, self_s, per_op

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,op\n")
            for k, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{k},{name},{start!r},{end!r},{parent},{op}\n")
