"""Layer tracing from outside the program.

The tracer replaces public functions of pconvex's modules by timing
wrappers, at every module attribute through which callers reach them
(``solver`` imported ``mass`` by name from ``discrete``, so patching
``discrete.mass`` alone would miss the solver's calls), and wraps scipy's
``cg`` and ``eigsh`` where ``solver`` calls them.  Nothing inside pconvex
changes.

Two kinds of wrapper:

* a *span* records name, start, end and parent, kept in memory and
  written out when the run ends;
* a *point* call (per-point field evaluation and pointwise algebra, up to
  hundreds of thousands per job) only adds to a count and a time sum, and
  to the point time of the innermost open span.

A span's self time is its duration minus the part of its interval its
child spans cover, minus the point time spent directly inside it.  The
self times and the point sums therefore partition the traced time.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# A span: [name, start, end, parent index (-1 for none), point seconds].
Span = list

# Span wrappers: (module, function).
SPAN_FUNCTIONS = (
    ("cli", "load_config"),
    ("cli", "run"),
    ("discrete", "build_complex"),
    ("discrete", "mass"),
    ("discrete", "sample_cochain"),
    ("discrete", "weighted_adjoint"),
    ("discrete", "energy_identity_residual"),
    ("solver", "minimal_solution"),
    ("solver", "closed_form_from_potential"),
    ("solver", "hormander_report"),
    ("solver", "berndtsson_report"),
    ("solver", "minimal_estimate_report"),
    ("solver", "composite_minimal_estimate"),
    ("solver", "nonpsh_report"),
    ("solver", "inverse_quadform_integral"),
    ("solver", "cohomology_rank"),
)
# scipy entry points wrapped at the boundary where solver calls them.
SOLVER_SCIPY = ("cg", "eigsh")
# Per-point functions: (owner, attribute, point key).
POINT_FUNCTIONS = (
    ("fieldexpr.ScalarFieldExpr", "value", "fieldexpr.eval"),
    ("fieldexpr.ScalarFieldExpr", "__call__", "fieldexpr.eval"),
    ("fieldexpr.ScalarFieldExpr", "eval_jet2", "fieldexpr.eval"),
    ("convexity", "min_p_trace", "convexity.min_p_trace"),
    ("exterior", "quadform_pinv", "exterior.quadform_pinv"),
    ("exterior", "pairing_quadratic", "exterior.pairing_quadratic"),
)
REPORTS = ("solver.hormander_report", "solver.berndtsson_report",
           "solver.minimal_estimate_report",
           "solver.composite_minimal_estimate", "solver.nonpsh_report")


class Tracer:
    """Spans, point aggregates and counts of one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.points: Dict[str, List[float]] = {}     # key -> [calls, seconds]
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._point_depth = 0
        self._restore: List[Tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = clock()
                stack.pop()
                if observe is not None:
                    observe(self, None, exc)
                raise
            rec[2] = clock()
            stack.pop()
            if observe is not None:
                observe(self, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def point(self, key: str, fn: Callable) -> Callable:
        agg = self.points.setdefault(key, [0, 0.0])
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            self._point_depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._point_depth -= 1
                agg[0] += 1
                agg[1] += dt
                if stack and self._point_depth == 0:
                    spans[stack[-1]][4] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the layer functions of ``package`` (the imported pconvex)."""
        mods = {name[len(package.__name__) + 1:] or "": mod
                for name, mod in list(sys.modules.items())
                if mod is not None and (name == package.__name__ or
                                        name.startswith(package.__name__ + "."))}
        for mod_name, fn_name in SPAN_FUNCTIONS:
            fn = getattr(mods[mod_name], fn_name)
            wrapper = self.span(f"{mod_name}.{fn_name}", fn,
                                OBSERVERS.get(f"{mod_name}.{fn_name}"))
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._set(mod, attr, wrapper)
        solver = mods["solver"]
        self._set(solver, "spla", _Boundary(solver.spla, {
            name: self.span(f"solver.{name}", getattr(solver.spla, name))
            for name in SOLVER_SCIPY}))
        for owner_path, attr, key in POINT_FUNCTIONS:
            mod_name, _, cls_name = owner_path.partition(".")
            owner = mods[mod_name]
            if cls_name:
                owner = getattr(owner, cls_name)
                self._set(owner, attr, self.point(key, vars(owner)[attr]))
                continue
            fn = getattr(owner, attr)
            wrapper = self.point(key, fn)
            for mod in mods.values():
                for name, val in list(vars(mod).items()):
                    if val is fn:
                        self._set(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output -------------------------------------------------------------

    def mark(self) -> tuple:
        """A snapshot to take per-round differences against."""
        return (len(self.spans), {k: list(v) for k, v in self.points.items()},
                dict(self.counts))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [{"name": s[0], "start": s[1], "end": s[2],
                                  "parent": s[3], "point_s": s[4]}
                                 for s in self.spans],
                       "points": self.points, "counts": self.counts}, fh)


class _Boundary:
    """Stands in for ``scipy.sparse.linalg`` inside ``solver`` only."""

    def __init__(self, module, wrapped: Dict[str, Callable]):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


# Observers read a count off a span's result or exception.
def _observe_cells(tracer: Tracer, cx, exc) -> None:
    if cx is not None:
        tracer.count("discrete.cells",
                     sum(cx.num_cells(p) for p in range(cx.n + 1)))


def _observe_iterations(tracer: Tracer, sol, exc) -> None:
    iterations = getattr(sol if exc is None else exc, "iterations", None)
    if iterations is not None and iterations >= 0:
        tracer.count("solver.cg_iterations", iterations)


OBSERVERS = {
    "discrete.build_complex": _observe_cells,
    "solver.minimal_solution": _observe_iterations,
}


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

def _covered(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: Sequence[Span], first: int = 0) -> List[float]:
    """Self time of each span in ``spans[first:]``.

    Parents are indexes into the whole list; a span's self time is its
    duration minus the union of its children's intervals minus the point
    time spent directly inside it.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans[first:]:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    return [(s[2] - s[1]) - _covered(children.get(i, []), s[1], s[2]) - s[4]
            for i, s in enumerate(spans[first:], start=first)]


def layer_metrics(tracer: Tracer, since: tuple) -> Dict[str, float]:
    """Per-layer metrics of everything traced after the ``since`` mark."""
    first, points0, counts0 = since
    own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for s, t in zip(tracer.spans[first:], self_times(tracer.spans, first)):
        own[s[0]] = own.get(s[0], 0.0) + t
        calls[s[0]] = calls.get(s[0], 0) + 1

    def point(key: str, i: int) -> float:
        return tracer.points.get(key, [0, 0.0])[i] - points0.get(key,
                                                                 [0, 0.0])[i]

    def count(key: str) -> int:
        return tracer.counts.get(key, 0) - counts0.get(key, 0)

    return {
        "cli.load_config_s": own.get("cli.load_config", 0.0),
        "cli.run_self_s": own.get("cli.run", 0.0),
        "discrete.build_complex_s": own.get("discrete.build_complex", 0.0),
        "discrete.cells": count("discrete.cells"),
        "discrete.mass_s": own.get("discrete.mass", 0.0),
        "discrete.mass_calls": calls.get("discrete.mass", 0),
        "discrete.sample_cochain_s": own.get("discrete.sample_cochain", 0.0),
        "discrete.weighted_adjoint_s": own.get("discrete.weighted_adjoint",
                                               0.0),
        "discrete.energy_identity_s": own.get(
            "discrete.energy_identity_residual", 0.0),
        "solver.report_self_s": sum(own.get(r, 0.0) for r in REPORTS),
        "solver.minimal_solution_s": own.get("solver.minimal_solution", 0.0),
        "solver.cg_s": own.get("solver.cg", 0.0),
        "solver.cg_iterations": count("solver.cg_iterations"),
        "solver.quadrature_s": own.get("solver.inverse_quadform_integral",
                                       0.0),
        "solver.cohomology_s": own.get("solver.cohomology_rank", 0.0),
        "solver.eigsh_s": own.get("solver.eigsh", 0.0),
        "fieldexpr.point_evals": point("fieldexpr.eval", 0),
        "fieldexpr.eval_s": point("fieldexpr.eval", 1),
        "convexity.min_p_trace_calls": point("convexity.min_p_trace", 0),
        "convexity.min_p_trace_s": point("convexity.min_p_trace", 1),
        "exterior.quadform_pinv_calls": point("exterior.quadform_pinv", 0),
        "exterior.pointwise_s": (point("exterior.quadform_pinv", 1)
                                 + point("exterior.pairing_quadratic", 1)),
    }
