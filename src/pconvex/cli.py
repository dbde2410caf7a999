"""Batch front-end: run experiment configs, emit reports and plots.

A config is a small INI file with three sections::

    [domain]
    box = 0:1, 0:1          ; one lo:hi pair per axis
    h = 1/32                ; or: ladder = 1/16, 1/32, 1/64
    r = annulus(0.5, 1.0)   ; optional defining function (builtin or expression)

    [weights]
    phi = x1^2+x2^2         ; number, expression, or weight builtin call
    psi = cor42(p=1, D=1.4142135623730951, center=0.5:0.5)
    omega = 0.4

    [task]
    name = bounds
    bound = minimal
    p = 1
    alpha = 0.3
    potential = bump(0.25, 0.75)
    seed = 42

``pconvex run config.ini --out DIR`` executes the task and writes
``report.jsonl`` (one JSON object per check, after a timestamp header
line), plus ``series.csv`` and ``plot.svg`` when the task produces a
refinement series.  Exit status: 0 when every check passes, 1 when a
check fails or the task aborts (the failure is embedded in the report),
2 for a config error, such as a key its task does not read.  Given the
same config and seed the report is byte-identical across runs except
for the header line.

``pconvex list-builtins`` prints the built-in weight/field/domain
constructors accepted inside config values.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import numbers
import os
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import convexity, discrete, exterior, solver, weights
from .errors import ConfigError, DomainError, EmptyDomain, NoConvergence
from .fieldexpr import compose_df, field_jets, parse

__all__ = ["ExperimentConfig", "load_config", "run", "list_builtins", "main"]


# ---------------------------------------------------------------------------
# small token parsers
# ---------------------------------------------------------------------------

def _number(tok: str) -> float:
    """Parse a float, allowing plain fractions like ``1/32``."""
    tok = tok.strip()
    if "/" in tok:
        num, _, den = tok.partition("/")
        try:
            return float(num) / float(den)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad number {tok!r}: {exc}") from None
    try:
        return float(tok)
    except ValueError:
        raise ConfigError(f"bad number {tok!r}") from None


def _integer(tok: str) -> int:
    try:
        return int(tok.strip())
    except ValueError:
        raise ConfigError(f"bad integer {tok!r}") from None


def _colon_floats(tok: str) -> Tuple[float, ...]:
    return tuple(_number(part) for part in tok.split(":"))


def _split_top(text: str, sep: str) -> List[str]:
    """Split on ``sep`` at parenthesis depth zero."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ConfigError(f"unbalanced ')' in {text!r}")
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ConfigError(f"unbalanced '(' in {text!r}")
    parts.append(text[start:])
    return parts


_CALL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*$", re.S)


def _parse_call(text: str) -> Optional[Tuple[str, List[str], Dict[str, str]]]:
    """Recognize ``name(arg, key=value, ...)``; None if not call-shaped."""
    m = _CALL_RE.match(text.strip())
    if m is None or m.group(1) not in BUILTINS:
        return None
    name, body = m.group(1), m.group(2).strip()
    args: List[str] = []
    kwargs: Dict[str, str] = {}
    if body:
        for piece in _split_top(body, ","):
            piece = piece.strip()
            key, eq, val = piece.partition("=")
            if eq and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", key.strip()):
                if kwargs.get(key.strip()) is not None:
                    raise ConfigError(f"{name}: duplicate parameter "
                                      f"{key.strip()!r}")
                kwargs[key.strip()] = val.strip()
            else:
                if kwargs:
                    raise ConfigError(
                        f"{name}: positional argument after keyword")
                args.append(piece)
    return name, args, kwargs


def _bind(name: str, params: Sequence[Tuple[str, Optional[str]]],
          args: Sequence[str], kwargs: Dict[str, str]) -> Dict[str, Optional[str]]:
    """Match positional/keyword tokens against a parameter spec.

    A ``None`` default is the ``center`` parameter's: left absent, it is
    the origin of the domain's dimension (listed as ``0:0``).
    """
    if len(args) > len(params):
        raise ConfigError(f"{name}: expected at most {len(params)} "
                          f"arguments, got {len(args)}")
    bound: Dict[str, Optional[str]] = dict(
        zip((p for p, _ in params), args))
    for key, val in kwargs.items():
        if key not in {p for p, _ in params}:
            raise ConfigError(f"{name}: unknown parameter {key!r}")
        if key in bound:
            raise ConfigError(f"{name}: parameter {key!r} given twice")
        bound[key] = val
    for key, default in params:
        bound.setdefault(key, default)
    return bound


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------

def _quadratic_expr(center: np.ndarray) -> str:
    """Expression text of ``|x - center|^2`` (constants parenthesized)."""
    terms = []
    for i, c in enumerate(center, start=1):
        terms.append(f"x{i}^2+({-2.0 * c})*x{i}+({c * c})")
    return "+".join(terms)


@dataclass(frozen=True)
class _Bump:
    """``prod_i (max(0, (x_i - lo)(hi - x_i)) / w²)⁴`` with ``w = (hi-lo)/2``;
    values only, all rows at once, walked only on rows inside the open box
    (lo, hi)ⁿ or with a NaN coordinate: the others are 0."""

    lo: float
    hi: float

    def jets(self, X, order: int):
        if order:
            raise TypeError("bump is a plain field: it has values but no "
                            "2-jets, so it cannot serve as a weight")
        w = (self.hi - self.lo) / 2.0
        u = np.asarray(X, dtype=np.float64)
        on, nan = np.ones(len(u), dtype=bool), np.zeros(len(u), dtype=bool)
        for x in u.T:
            on &= (self.lo < x) & (x < self.hi)
            nan |= np.isnan(x)
        on |= nan
        out, u = np.zeros(len(u)), u[on]
        out[on] = np.prod((np.maximum(0.0, (u - self.lo) * (self.hi - u))
                           / w ** 2) ** 4, axis=1)
        return out


def _bi_bump(ctx: "_Context", b):
    lo, hi = _number(b["lo"]), _number(b["hi"])
    if not -math.inf < lo < hi < math.inf:
        raise ConfigError(f"bump: need finite lo < hi, got {lo}, {hi}")
    return _Bump(lo, hi)


def _bi_cor42(ctx: "_Context", b):
    return weights.diameter_weight(_integer(b["p"]), _number(b["D"]),
                                   b["center"])


def _bi_df(ctx: "_Context", b):
    if ctx.r is None:
        raise ConfigError("df: the domain has no defining function r")
    quad = parse(_quadratic_expr(b["center"]), ctx.n)
    return compose_df(ctx.r, quad, _number(b["K"]), _number(b["eta"]))


def _finite(name: str, b, *keys) -> List[float]:
    """Builtin ``name``'s parameters ``keys``, each a finite number."""
    for key in keys:
        if not math.isfinite(_number(b[key])):
            raise ConfigError(f"{name}: {key} must be finite, got {b[key]}")
    return [_number(b[key]) for key in keys]


def _bi_disk(ctx: "_Context", b):
    radius, = _finite("disk", b, "radius")
    if radius <= 0:
        raise ConfigError("disk: radius must be positive")
    return f"{_quadratic_expr(b['center'])}+({-radius * radius})"


def _bi_annulus(ctx: "_Context", b):
    ri, ro = _finite("annulus", b, "inner", "outer")
    if not 0 < ri < ro:
        raise ConfigError("annulus: need 0 < inner < outer")
    q = _quadratic_expr(b["center"])
    return f"(({q})+({-ri * ri}))*(({q})+({-ro * ro}))"


def _bi_torus(ctx: "_Context", b):
    ring, tube = _finite("torus", b, "ring", "tube")
    if not 0 < tube < ring:
        raise ConfigError("torus: need 0 < tube < ring")
    if ctx.n != 3:
        raise ConfigError(f"torus: needs a 3-axis box, got {ctx.n}")
    return (f"(x1^2+x2^2+x3^2+({ring * ring - tube * tube}))^2"
            f"+({-4.0 * ring * ring})*(x1^2+x2^2)")


#: name -> (kind, parameters with defaults, summary, builder); kinds: weight
#: (has exact 2-jets), field (plain evaluator), domain (produces an ``r``
#: expression).  A builder gets the bound parameters as text, except
#: ``center``, which arrives as a point.
BUILTINS = {
    "annulus": ("domain", (("inner", "0.5"), ("outer", "1.0"),
                           ("center", None)),
                "Planar ring: negative strictly between the two radii.",
                _bi_annulus),
    "bump": ("field", (("lo", "0.25"), ("hi", "0.75")),
             "Smooth product bump supported on [lo, hi]^n, vanishing to "
             "fourth order at the edges; the standard battery source.",
             _bi_bump),
    "cor42": ("weight", (("p", "1"), ("D", "1.0"), ("center", None)),
              "Scaled squared-distance weight p*|x-center|^2/(2*D^2); its "
              "induced operator on p-forms is (p/D)^2 times the identity, "
              "so inverse-pairing integrals have a closed form.",
              _bi_cor42),
    "df": ("weight", (("K", "1.0"), ("eta", "0.5"), ("center", None)),
           "Composite -(-r*exp(-K*|x-center|^2))^eta built from the "
           "domain's defining function r: the family the df-search task "
           "scans, materialized for a chosen pair.",
           _bi_df),
    "disk": ("domain", (("radius", "1.0"), ("center", None)),
             "Round ball: |x-center|^2 - radius^2.",
             _bi_disk),
    "torus": ("domain", (("ring", "0.55"), ("tube", "0.3")),
              "Solid torus in 3D around the x3-axis: points within tube "
              "of the ring-radius circle.",
              _bi_torus),
}


def list_builtins() -> str:
    """Stable, human-readable catalogue of config constructors."""
    lines = ["Built-in constructors usable in config values",
             "(kinds: weight = has exact 2-jets, field = plain evaluator,",
             " domain = expands to a defining-function expression)", ""]
    for name in sorted(BUILTINS):
        kind, params, doc, _ = BUILTINS[name]
        sig = ", ".join(f"{key}={'0:0' if default is None else default}"
                        for key, default in params)
        lines.append(f"{name}({sig}) -> {kind}")
        lines.append(f"    {doc}")
    return "\n".join(lines)


def _call(text: str, ctx: "_Context", kinds: str):
    """Build ``text`` if it calls a builtin; its kind must be one of
    ``kinds`` ("weight or field", say).  None if ``text`` calls none."""
    call = _parse_call(text)
    if call is None:
        return None
    name, args, kwargs = call
    kind, params, _, builder = BUILTINS[name]
    if kind not in kinds.split(" or "):
        raise ConfigError(f"{name} is a {kind} builtin, not a {kinds}")
    b = _bind(name, params, args, kwargs)
    if "center" in b:
        b["center"] = (np.zeros(ctx.n) if b["center"] is None
                       else np.asarray(_colon_floats(b["center"])))
        if b["center"].size != ctx.n:
            raise ConfigError(f"center has {b['center'].size} components, "
                              f"domain has {ctx.n}")
        if not np.isfinite(b["center"]).all():
            raise ConfigError(f"{name}: center must be finite")
    return builder(ctx, b)


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

@dataclass
class _Context:
    """What parsing a value may depend on: the dimension, the defining
    function and the degree, each once it is read."""

    n: int
    r: Optional[object]
    p: Optional[int]


@dataclass
class ExperimentConfig:
    """A parsed, validated experiment: domain, weights, and one task.

    ``options`` maps each ``[task]`` key the config sets to its parsed
    value (numbers, lists, fields)."""

    task: str
    n: int
    box: Optional[Tuple[Tuple[float, float], ...]]
    rungs: List[float]
    r: Optional[object]
    phi: object
    psi: Optional[object]
    omega: Optional[object]
    p: Optional[int]
    seed: int
    options: Dict[str, object]


def _checked(where: str, parser: Callable, text: str, ctx: _Context):
    """``parser(text, ctx)``, with any ``ValueError`` prefixed by ``where``."""
    try:
        return parser(text.strip(), ctx)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _field(text: str, ctx: _Context, kinds: str):
    """A config value: number, builtin call of one of ``kinds``, or field
    expression."""
    built = _call(text, ctx, kinds)
    if built is not None:
        return built
    try:
        return _number(text)
    except ConfigError:
        return parse(text, ctx.n)


def _field_list(text: str, ctx: _Context, degree: int) -> List[object]:
    """Semicolon-separated components of a ``degree``-form; a single entry
    is padded with zeros (the form supported on the first multi-index)."""
    count = exterior.dim_forms(ctx.n, degree)
    fields = [_field(t.strip(), ctx, "weight or field")
              for t in _split_top(text, ";")]
    if len(fields) == 1:
        fields += [0.0] * (count - 1)
    if len(fields) != count:
        raise ConfigError(f"need {count} components (got {len(fields)})")
    return fields


def _valid(read: Callable, ok: Callable, why: str) -> Callable:
    """Parser of a config value: ``read(text)`` must satisfy
    ``ok(value, ctx)``; else the error is ``why``, formatted with both."""
    def parser(text: str, ctx: _Context):
        value = read(text)
        if not ok(value, ctx):
            raise ConfigError(why.format(v=value, ctx=ctx))
        return value
    return parser


def _at_least(lo: int) -> Callable:
    return _valid(_integer, lambda v, ctx: v >= lo,
                  f"must be >= {lo}, got {{v}}")


def _numbers(text: str) -> List[float]:
    return [_number(t) for t in text.split(",")]


def _task_keys(task: str) -> set:
    """Every key ``task`` reads, in any section."""
    _, requires, takes = TASKS[task]
    return {"name", "seed", *requires.replace("|", " ").split(),
            *takes.split()}


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a config file; raises ConfigError on any defect."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                   interpolation=None)
    cp.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh, source=os.path.basename(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None

    if "task" not in cp or "name" not in cp["task"]:
        raise ConfigError("[task] name: required")
    task = cp["task"]["name"].strip()
    if task not in TASKS:
        raise ConfigError(f"[task] name: unknown task {task!r} "
                          f"(choose from {', '.join(TASKS)})")
    reads = _task_keys(task)
    for sec in cp.sections():
        if sec not in ("domain", "weights", "task"):
            raise ConfigError(f"unknown section [{sec}]")
        for key in cp[sec]:
            if _KEYS.get(key, ("",))[0] != sec:
                raise ConfigError(f"[{sec}] {key}: unknown key")
            if key not in reads:
                raise ConfigError(f"[{sec}] {key}: task {task} does not "
                                  f"read this key")
    given = {key for sec in cp.sections() for key in cp[sec]}
    if {"h", "ladder"} <= given:
        raise ConfigError("[domain]: give h or ladder, not both")

    def require(keys: str, what: str) -> None:
        for need in keys.split():
            if given.isdisjoint(need.split("|")):
                sec = _KEYS[need.split("|")[0]][0]
                raise ConfigError(f"[{sec}] {need.replace('|', ' or ')}: "
                                  f"required for {what}")

    require(TASKS[task][1], task)
    ctx = _Context(n=0, r=None, p=None)
    values = {}
    for key, (sec, parser) in _KEYS.items():
        if key in given and key != "name":
            values[key] = _checked(f"[{sec}] {key}", parser, cp[sec][key],
                                   ctx)
            if key == "box":   # prekopa's weight is joint: profile axis + box
                ctx.n = len(values[key]) + (task == "prekopa")
            elif key in ("r", "n", "p"):
                setattr(ctx, key, values[key])
    if "min_depth" in given and "r" not in given:
        raise ConfigError("[task] min_depth: a depth in r; needs [domain] r")
    if task == "cohomology" and ctx.n > 3:
        raise ConfigError(f"[domain] box: cohomology supports n ≤ 3, got "
                          f"{ctx.n} axes")
    if task == "boundary-convexity" and ctx.p > ctx.n - 1:
        raise ConfigError(f"[task] p: tangential planes need "
                          f"p <= {ctx.n - 1}")
    if "bound" in values:
        bound = values["bound"]
        requires, takes, _ = _BOUNDS[bound]
        require(requires, bound)
        for key in sorted(given & _BOUND_KEYS
                          - {*requires.split(), *takes.split()}):
            raise ConfigError(f"[{_KEYS[key][0]}] {key}: bound {bound} does "
                              f"not read this key")
        if "alpha" in values:   # in the interval its report checks
            _checked("[task] alpha", lambda text, _: solver._check_alpha(
                bound, _number(text)), cp["task"]["alpha"], ctx)
    return ExperimentConfig(
        task=task, n=ctx.n, box=values.get("box"),
        rungs=values.get("h", values.get("ladder", [])), r=ctx.r,
        phi=values.get("phi", 0.0), psi=values.get("psi"),
        omega=values.get("omega"), p=ctx.p, seed=values.get("seed", 0),
        options={k: v for k, v in values.items() if _KEYS[k][0] == "task"})


# ---------------------------------------------------------------------------
# task implementations
# ---------------------------------------------------------------------------

def _interior_lattice(exp: ExperimentConfig, per_axis: int,
                      min_depth: float) -> np.ndarray:
    return weights.lattice_samples(exp.r, tuple(zip(*exp.box)),
                                   per_axis=per_axis, min_depth=min_depth)


def _verdict_records(test: str, p: int, rep) -> List[dict]:
    """The one record of a sampled p-convexity report."""
    return [{"test": test, "p": p, "samples": len(rep.points),
             "verdict": rep.verdict,
             "min_trace": rep.min_trace,
             "worst_x": [float(v) for v in rep.points[rep.worst_index]],
             "pass": rep.verdict == "strict"}]


def _task_check_psh(exp: ExperimentConfig, rng):
    pts = _interior_lattice(exp, exp.options.get("per_axis", 24),
                            exp.options.get("min_depth", 0.0))
    rep = convexity.field_p_psh_report(exp.phi, pts, exp.p)
    return _verdict_records("check-psh", exp.p, rep), None, None


def _task_boundary_convexity(exp: ExperimentConfig, rng):
    pts = _interior_lattice(exp, exp.options.get("per_axis", 48), 0.0)
    vals = np.abs(field_jets(exp.r, pts, order=0))
    shell = pts[vals <= 0.05 * float(vals.max())]
    if shell.shape[0] == 0:
        raise EmptyDomain("no lattice point lies within the boundary "
                          "collar; raise per_axis")
    rep = convexity.boundary_p_convexity(exp.r, shell, exp.p)
    return _verdict_records("boundary-convexity", exp.p, rep), None, None


def _task_df_search(exp: ExperimentConfig, rng):
    k_grid = exp.options.get("k_grid", [0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    eta_grid = exp.options.get("eta_grid",
                               [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9])
    pts = _interior_lattice(exp, exp.options.get("per_axis", 16),
                            exp.options.get("min_depth", 0.0))
    res = weights.df_search(exp.r, exp.phi, pts, exp.p, k_grid, eta_grid)
    records = [{"test": "df-search", "p": exp.p, "K": res.K, "eta": res.eta,
                "score": res.min_p_trace_over_grid,
                "feasible": res.feasible,
                "eta_max_feasible": res.eta_max_feasible,
                "K_min_feasible": res.K_min_feasible,
                "samples": res.n_samples, "pass": res.feasible}]
    return records, None, None


def _task_kmh(exp: ExperimentConfig, rng):
    coeffs = exp.options["g"]
    ratio_min = exp.options.get("ratio_min", 1.5)
    floor = 1e-12
    records, rows, prev = [], [], None
    for h in exp.rungs:
        dom = discrete.GridDomain(exp.box, h, exp.r)
        rep = discrete.energy_identity_residual(coeffs, exp.phi, dom, exp.p)
        ratio = (prev / rep.residual if prev is not None and rep.residual > 0
                 else None)
        ok = ratio is None or rep.residual <= floor or ratio >= ratio_min
        if h == exp.rungs[-1]:
            ok = ok and (rep.residual <= 2e-2)
        records.append({"test": "kmh", "h": h, "p": exp.p,
                        "lhs": rep.lhs,
                        "rhs_gradient": rep.rhs_gradient_term,
                        "rhs_quadform": rep.rhs_quadform_term,
                        "residual": rep.residual,
                        "ratio_vs_previous": ratio, "pass": ok})
        rows.append((h, rep.lhs, rep.residual,
                     "" if ratio is None else ratio))
        prev = rep.residual
    series = ("h,lhs,residual,ratio", rows)
    pts = [(h, r) for (h, _, r, _) in rows if r > 0]
    plot = (pts, "h", "relative residual", "energy identity residual")
    return records, series, plot


def _task_solve(exp: ExperimentConfig, rng):
    coeffs = exp.options["potential"]
    records, rows = [], []
    for h in exp.rungs:
        cx = discrete.build_complex(discrete.GridDomain(exp.box, h, exp.r))
        f = solver.closed_form_from_potential(cx, exp.p, coeffs)
        sol = solver.minimal_solution(cx, f, exp.phi)
        norm_sq = float(sol.source_mass.inner(sol.u.values, sol.u.values))
        records.append({"test": "solve", "h": h, "p": exp.p,
                        "cells": cx.num_cells(exp.p - 1),
                        "method": sol.method, "iterations": sol.iterations,
                        "residual": sol.residual,
                        "norm_sq": norm_sq, "pass": True})
        rows.append((h, cx.num_cells(exp.p - 1), sol.iterations,
                     sol.residual))
    return records, ("h,cells,iterations,residual", rows), None


#: bound -> (keys of _BOUND_KEYS it requires, those it may take, its
#: reports on one complex)
_BOUNDS = {
    "hormander": ("", "", lambda cx, f, e, rng: [
        solver.hormander_report(cx, f, e.phi)]),
    "berndtsson": ("psi alpha", "", lambda cx, f, e, rng: [
        solver.berndtsson_report(cx, f, e.phi, e.psi, e.options["alpha"],
                                 rng=rng)]),
    "minimal": ("psi alpha omega", "", lambda cx, f, e, rng: [
        solver.minimal_estimate_report(cx, f, e.phi, e.psi, e.omega,
                                       e.options["alpha"])]),
    "composite": ("psi alpha", "", lambda cx, f, e, rng: list(
        solver.composite_minimal_estimate(cx, f, e.phi, e.psi,
                                          e.options["alpha"]))),
    "nonpsh": ("psi alpha", "omega", lambda cx, f, e, rng: [
        solver.nonpsh_report(cx, f, e.phi, e.psi, e.omega,
                             e.options["alpha"])]),
}
#: the bounds task's keys that only some bounds read
_BOUND_KEYS = {key for requires, takes, _ in _BOUNDS.values()
               for key in f"{requires} {takes}".split()}


def _task_bounds(exp: ExperimentConfig, rng):
    bound = exp.options["bound"]
    records, rows = [], []
    for h in exp.rungs:
        cx = discrete.build_complex(discrete.GridDomain(exp.box, h, exp.r))
        f = solver.closed_form_from_potential(cx, exp.p,
                                              exp.options["potential"])
        for rep in _BOUNDS[bound][2](cx, f, exp, rng):
            records.append(rep.record())
            rows.append((h, rep.lhs, rep.rhs, rep.ratio))
    series = ("h,lhs,rhs,ratio", rows)
    pts = [(h, ratio) for (h, _, _, ratio) in rows if ratio > 0]
    plot = (pts, "h", "lhs / rhs", f"{bound} bound ratio")
    return records, series, plot


def _random_quadratic(n: int, rng) -> object:
    mat = rng.standard_normal((n, n))
    q = mat @ mat.T / n + 0.3 * np.eye(n)
    lin = rng.uniform(-0.5, 0.5, size=n)
    terms = [f"({q[i, i]})*x{i + 1}^2" for i in range(n)]
    terms += [f"({2.0 * q[i, j]})*x{i + 1}*x{j + 1}"
              for i in range(n) for j in range(i + 1, n)]
    terms += [f"({lin[i]})*x{i + 1}" for i in range(n)]
    return parse("+".join(terms), n)


def _task_cohomology(exp: ExperimentConfig, rng):
    """Betti numbers on each rung, after building the mass of φ and of
    ``check_weights`` random SPD quadratics in every degree, which raises
    :class:`~pconvex.errors.DomainError` at the first bad cell."""
    expected = exp.options.get("expect")
    weights = [exp.phi] + [_random_quadratic(exp.n, rng)
                           for _ in range(exp.options.get("check_weights", 0))]
    records = []
    for h in exp.rungs:
        cx = discrete.build_complex(discrete.GridDomain(exp.box, h, exp.r))
        for w in weights:
            for q in range(cx.n + 1):
                discrete.mass(cx, w, q)
        rep = solver.cohomology_rank(cx)
        for q, rank in enumerate(rep.ranks):
            want = expected[q] if expected is not None else None
            records.append({"test": "cohomology", "h": h, "p": q,
                            "rank": rank, "expected": want,
                            "num_cells": cx.num_cells(q),
                            "components": rep.components,
                            "voids": rep.voids, "euler": rep.euler,
                            "pass": want is None or rank == want})
    return records, None, None


def _task_prekopa(exp: ExperimentConfig, rng):
    xs = np.linspace(-1.0, 1.0, 7)
    rep = solver.prekopa_check(exp.phi, xs, exp.box)
    records = [{"test": "prekopa", "convex_input": rep.convex_input,
                "skipped": rep.skipped, "x_count": xs.size,
                "min_second_diff": rep.min_second_diff,
                "max_second_diff": (float(np.max(rep.second_diffs))
                                    if rep.second_diffs.size else None),
                "pass": rep.passed}]
    xs_flat = np.asarray(rep.x_samples, dtype=np.float64).reshape(-1)
    rows = [(float(x), float(d))
            for x, d in zip(xs_flat, np.ravel(rep.second_diffs))]
    series = ("x,second_diff", rows) if rows else None
    return records, series, None


def _task_algebra_battery(exp: ExperimentConfig, rng):
    n, p, cases = exp.n, exp.p, 500
    dim = exterior.dim_forms(n, p)
    err_pair = err_spec = 0.0
    inv_ok = 0
    for _ in range(cases):
        sym = rng.standard_normal((n, n))
        theta = (sym + sym.T) / 2.0
        g = exterior.PointForm(n, p, rng.standard_normal(dim))
        lhs = exterior.pairing_quadratic(theta, g)
        mat = exterior.quadform_matrix(theta, p)
        rhs = float(g.coeffs @ (mat @ g.coeffs))
        scale = 1.0 + abs(lhs)
        err_pair = max(err_pair, abs(lhs - rhs) / scale)

        spec = exterior.quadform_eigen(theta, p)
        dense = np.linalg.eigvalsh(mat)
        err_spec = max(err_spec, float(np.abs(
            np.sort(spec.values) - dense).max()) / (1.0 + dense[-1]))

        spd = sym @ sym.T / n + 0.3 * np.eye(n)
        inv_ok += exterior.inverse_bound_check(spd, g).ok

    records = [
        {"test": "algebra-battery", "check": "pairing-matrix",
         "cases": cases, "max_err": err_pair, "pass": err_pair <= 1e-10},
        {"test": "algebra-battery", "check": "spectrum",
         "cases": cases, "max_err": err_spec, "pass": err_spec <= 1e-10},
        {"test": "algebra-battery", "check": "spd-inverse-bound",
         "cases": cases, "ok": inv_ok, "pass": inv_ok == cases},
    ]
    return records, None, None


# ---------------------------------------------------------------------------
# the task and key tables
# ---------------------------------------------------------------------------

#: task -> (runner, keys it requires, keys it may take), keys in any
#: section; "h|ladder" is met by either.  Every task also takes name and seed.
TASKS: Dict[str, Tuple[Callable, str, str]] = {
    "check-psh": (_task_check_psh, "box phi p", "r per_axis min_depth"),
    "boundary-convexity": (_task_boundary_convexity, "box r p", "per_axis"),
    "df-search": (_task_df_search, "box r phi p",
                  "per_axis min_depth k_grid eta_grid"),
    "kmh": (_task_kmh, "box h|ladder p g", "r phi ratio_min"),
    "solve": (_task_solve, "box h|ladder p potential", "r phi"),
    "bounds": (_task_bounds, "box h|ladder p potential bound",
               "r phi psi omega alpha"),
    "cohomology": (_task_cohomology, "box h|ladder",
                   "r phi expect check_weights"),
    "prekopa": (_task_prekopa, "box phi", ""),
    "algebra-battery": (_task_algebra_battery, "n p", ""),
}

#: every config key -> (its section, parser(text, context) of its value), in
#: parse order: the context carries box, r, n and p to the keys after them.
_KEYS: Dict[str, Tuple[str, Optional[Callable]]] = {
    "box": ("domain", _valid(
        lambda text: tuple(_colon_floats(t) for t in text.split(",")),
        lambda v, ctx: all(len(a) == 2 and 0 < a[1] - a[0] < math.inf
                           for a in v),
        "want finite lo:hi with hi > lo on every axis")),
    "h": ("domain", _valid(lambda text: [_number(text)],
                           lambda v, ctx: 0 < v[0] < math.inf,
                           "must be positive and finite, got {v[0]}")),
    "ladder": ("domain", _valid(
        _numbers,
        lambda v, ctx: 0 < v[-1] and v[0] < math.inf
        and all(b < a for a, b in zip(v, v[1:])),
        "h values must be positive, finite and strictly decreasing")),
    "r": ("domain", lambda text, ctx: parse(_call(text, ctx, "domain")
                                            or text, ctx.n)),
    "name": ("task", None),
    "n": ("task", _valid(_integer, lambda v, ctx: 1 <= v <= exterior._MAX_N,
                         f"must lie in [1, {exterior._MAX_N}], got {{v}}")),
    "p": ("task", _valid(_integer, lambda v, ctx: 1 <= v <= ctx.n,
                         "must lie in [1, {ctx.n}], got {v}")),
    # phi and psi are read by their 2-jets, which a field builtin lacks
    "phi": ("weights", lambda text, ctx: _field(text, ctx, "weight")),
    "psi": ("weights", lambda text, ctx: _field(text, ctx, "weight")),
    "omega": ("weights", lambda text, ctx: _field(text, ctx,
                                                  "weight or field")),
    "seed": ("task", _at_least(0)),
    "per_axis": ("task", _at_least(2)),
    "check_weights": ("task", _at_least(0)),
    "alpha": ("task", lambda text, ctx: _number(text)),
    "min_depth": ("task", _valid(_number, lambda v, ctx: 0 <= v < math.inf,
                                 "must be finite and >= 0, got {v}")),
    "ratio_min": ("task", _valid(_number, lambda v, ctx: 0 < v < math.inf,
                                 "must be finite and > 0, got {v}")),
    "k_grid": ("task", _valid(_numbers,
                              lambda v, ctx: all(0 < x < math.inf for x in v),
                              "values must be finite and > 0")),
    "eta_grid": ("task", _valid(_numbers,
                                lambda v, ctx: all(0 < x < 1 for x in v),
                                "values must lie in (0, 1)")),
    "expect": ("task", _valid(lambda text: [_integer(t)
                                            for t in text.split(",")],
                              lambda v, ctx: len(v) == ctx.n + 1
                              and min(v) >= 0,
                              "need one rank >= 0 per degree 0..{ctx.n}")),
    "bound": ("task", _valid(str, lambda v, ctx: v in _BOUNDS,
                             "choose from " + ", ".join(_BOUNDS))),
    "potential": ("task",
                  lambda text, ctx: _field_list(text, ctx, ctx.p - 1)),
    "g": ("task", lambda text, ctx: _field_list(text, ctx, ctx.p)),
}

_TASK_ERRORS = (ValueError, DomainError, NoConvergence)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _csv_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, numbers.Integral):
        return str(int(v))
    return repr(float(v))


def _svg_loglog(points: Sequence[Tuple[float, float]], xlabel: str,
                ylabel: str, title: str) -> str:
    """Minimal self-contained log-log polyline plot."""
    lx = [math.log10(x) for x, _ in points]
    ly = [math.log10(y) for _, y in points]

    def span(vals):
        lo, hi = min(vals), max(vals)
        if hi - lo < 1e-9:
            lo, hi = lo - 0.5, hi + 0.5
        pad = 0.06 * (hi - lo)
        return lo - pad, hi + pad

    x0, x1 = span(lx)
    y0, y1 = span(ly)
    w_px, h_px, ml, mr, mt, mb = 480, 360, 64, 16, 32, 46

    def px(v):
        return ml + (v - x0) / (x1 - x0) * (w_px - ml - mr)

    def py(v):
        return h_px - mb - (v - y0) / (y1 - y0) * (h_px - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" '
        f'height="{h_px}" viewBox="0 0 {w_px} {h_px}" '
        f'font-family="monospace" font-size="11">',
        f'<rect width="{w_px}" height="{h_px}" fill="#ffffff"/>',
        f'<rect x="{ml}" y="{mt}" width="{w_px - ml - mr}" '
        f'height="{h_px - mt - mb}" fill="none" stroke="#555555"/>',
        f'<text x="{w_px / 2:.2f}" y="18" text-anchor="middle">{title}</text>',
        f'<text x="{(ml + w_px - mr) / 2:.2f}" y="{h_px - 10}" '
        f'text-anchor="middle">{xlabel} (log)</text>',
        f'<text x="14" y="{(mt + h_px - mb) / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {(mt + h_px - mb) / 2:.2f})">'
        f'{ylabel} (log)</text>',
    ]
    for e in range(math.ceil(x0), math.floor(x1) + 1):
        x = px(e)
        parts.append(f'<line x1="{x:.2f}" y1="{mt}" x2="{x:.2f}" '
                     f'y2="{h_px - mb}" stroke="#dddddd"/>')
        parts.append(f'<text x="{x:.2f}" y="{h_px - mb + 14}" '
                     f'text-anchor="middle">1e{e}</text>')
    for e in range(math.ceil(y0), math.floor(y1) + 1):
        y = py(e)
        parts.append(f'<line x1="{ml}" y1="{y:.2f}" x2="{w_px - mr}" '
                     f'y2="{y:.2f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{ml - 6}" y="{y + 4:.2f}" '
                     f'text-anchor="end">1e{e}</text>')
    path = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(lx, ly))
    parts.append(f'<polyline points="{path}" fill="none" '
                 f'stroke="#1f6fb4" stroke-width="1.5"/>')
    for a, b in zip(lx, ly):
        parts.append(f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="3" '
                     f'fill="#1f6fb4"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_artifacts(out_dir: str, lines: List[str], series, plot) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.jsonl"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    if series is not None:
        head, rows = series
        csv_lines = [head] + [",".join(_csv_cell(v) for v in row)
                              for row in rows]
        with open(os.path.join(out_dir, "series.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(csv_lines) + "\n")
    if plot is not None:
        pts, xlabel, ylabel, title = plot
        if len(pts) >= 2:
            with open(os.path.join(out_dir, "plot.svg"), "w",
                      encoding="utf-8") as fh:
                fh.write(_svg_loglog(pts, xlabel, ylabel, title))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run(config_path: str, out_dir: Optional[str] = None,
        seed: Optional[int] = None, verbose: bool = False) -> int:
    """Execute one config; returns the process exit code."""
    try:
        exp = load_config(config_path)
        if seed is not None:
            exp.seed = _checked("--seed", _KEYS["seed"][1], str(seed), None)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = out_dir or "out"
    rng = np.random.default_rng(exp.seed)

    try:
        records, series, plot = TASKS[exp.task][0](exp, rng)
    except _TASK_ERRORS as exc:
        records = [{"test": exp.task,
                    "error": f"{type(exc).__name__}: {exc}",
                    "pass": False}]
        series = plot = None

    header = {"timestamp": datetime.now(timezone.utc).isoformat(),
              "config": os.path.basename(config_path),
              "task": exp.task, "seed": exp.seed}
    # numpy values that are not floats (np.float64 is one) go through tolist
    lines = [json.dumps(obj, sort_keys=True, default=lambda o: o.tolist())
             for obj in [header] + records]
    _write_artifacts(out, lines, series, plot)

    n_pass = sum(1 for r in records if r.get("pass"))
    if verbose:
        for line in lines[1:]:
            print(line)
    status = "ok" if n_pass == len(records) else "FAIL"
    print(f"{exp.task}: {n_pass}/{len(records)} checks passed [{status}] "
          f"-> {os.path.join(out, 'report.jsonl')}")
    return 0 if n_pass == len(records) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="pconvex",
        description="Run batch verification experiments from INI configs.")
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a config file")
    runp.add_argument("config", help="path to the INI config")
    runp.add_argument("--out", default=None, metavar="DIR",
                      help="output directory (default: ./out)")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the config seed")
    runp.add_argument("--verbose", action="store_true",
                      help="echo report records to stdout")
    sub.add_parser("list-builtins",
                   help="print built-in weight/domain constructors")
    args = ap.parse_args(argv)
    if args.command == "list-builtins":
        print(list_builtins())
        return 0
    return run(args.config, out_dir=args.out, seed=args.seed,
               verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
