"""Out-of-program tracing: wrap public ratiogan functions, fold spans into counts.

Every module binding that holds a wrapped function is patched, so names
imported with ``from .nets import forward`` are traced as well as
lookups through the defining module's globals.  Each call is one span;
a stack of open spans gives self time (span time minus the time of the
spans it caused).  Spans are folded into per-function totals as they
close instead of being kept one by one, because the solver makes
hundreds of thousands of calls per round.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "ratiogan"


def _row_count(value) -> int:
    if isinstance(value, int):
        return value
    try:
        return len(value)
    except TypeError:
        return 1


class Tracer:
    """Wraps the functions named in a layer table while installed."""

    def __init__(self, layers: dict):
        self.layers = layers
        self.absent = []
        self.stats = {}
        self._stack = []
        self._patches = []

    def install(self) -> None:
        """Patch every ratiogan module attribute that is one of the wrapped functions."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        self.stats = {
            f"{layer}.{fn}": {"calls": 0, "self_s": 0.0, "total_s": 0.0, "rows": 0, "iters": 0}
            for layer, fns in self.layers.items() for fn in fns
        }
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, fns in self.layers.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for fn, spec in fns.items():
                name = f"{layer}.{fn}"
                original = getattr(home, fn, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original, spec.get("rows", []))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _wrap(self, name: str, fn, row_params: list):
        params = list(inspect.signature(fn).parameters)
        row_args = []
        for param in row_params:
            if param in params:
                row_args.append((params.index(param), param))
            else:
                self.absent.append(f"{name}.rows:{param}")
        stack = self._stack
        clock = time.perf_counter
        solver = name == "grid_solver.solve_minmax_grid"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [0.0]  # time covered by child spans
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                st = self.stats[name]
                st["calls"] += 1
                st["self_s"] += elapsed - span[0]
                st["total_s"] += elapsed
                for index, param in row_args:
                    value = args[index] if index < len(args) else kwargs.get(param)
                    if value is not None:
                        st["rows"] += _row_count(value)
            if solver:
                # iterations come from the returned (field, trace) pair
                try:
                    self.stats[name]["iters"] += int(result[1].iterations[-1])
                except (AttributeError, IndexError, TypeError):
                    pass
            return result

        return traced

    def metrics(self) -> dict:
        """Per-layer metric values for the spans recorded since install."""
        out = {}
        for layer, fns in self.layers.items():
            for fn, spec in fns.items():
                name = f"{layer}.{fn}"
                st = self.stats[name]
                out[f"{name}.calls"] = st["calls"]
                out[f"{name}.self_s"] = st["self_s"]
                if spec.get("rows"):
                    out[f"{name}.rows"] = st["rows"]
        solve = self.stats.get("grid_solver.solve_minmax_grid")
        if solve is not None:
            iters = solve["iters"]
            out["grid_solver.solve_minmax_grid.iters"] = iters
            out["grid_solver.solve_minmax_grid.us_per_iter"] = 1e6 * solve["total_s"] / iters if iters else 0.0
            project = self.stats.get("grid_solver.project_feasible")
            if project is not None:
                out["grid_solver.project_feasible.calls_per_iter"] = project["calls"] / iters if iters else 0.0
        return out
