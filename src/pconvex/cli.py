"""Batch front-end: run experiment configs, emit reports and plots.

A config is a small INI file with three sections::

    [domain]
    box = 0:1, 0:1          ; one lo:hi pair per axis
    h = 1/32                ; or: ladder = 1/16, 1/32, 1/64
    r = annulus(0.5, 1.0)   ; optional defining function (builtin or expression)

    [weights]
    phi = x1^2+x2^2         ; number, expression, or builtin call
    psi = cor42(p=1, D=1.4142135623730951, center=0.5:0.5)
    omega = 0.4

    [task]
    name = bounds
    bound = berndtsson
    p = 1
    alpha = 0.3
    potential = bump(0.25, 0.75)
    seed = 42

``pconvex run config.ini --out DIR`` executes the task and writes
``report.jsonl`` (one JSON object per check, after a timestamp header
line), plus ``series.csv`` and ``plot.svg`` when the task produces a
refinement series.  Exit status: 0 when every check passes, 1 when a
check fails or the task aborts (the failure is embedded in the report),
2 for config errors.  Given the same config and seed the report is
byte-identical across runs except for the header line.

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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import convexity, discrete, exterior, solver, weights
from .errors import (CohomologyObstruction, ConfigError, DegenerateGradient,
                     DomainError, EmptyDomain, GapAmbiguous, MembershipError,
                     NoConvergence, NotClosed, ParseError, PreconditionError,
                     SupportError, TailError)
from .fieldexpr import BatchedField, compose_df, parse

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

    A ``None`` default marks a parameter that may stay absent (the
    builder substitutes a context-dependent value, e.g. the origin).
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


def _center(tok: str, n: int) -> np.ndarray:
    c = np.asarray(_colon_floats(tok), dtype=np.float64)
    if c.size != n:
        raise ConfigError(f"center {tok!r} has {c.size} components, "
                          f"domain has {n}")
    return c


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
class _Bump(BatchedField):
    """``prod_i (max(0, (x_i - lo)(hi - x_i)) / w²)⁴`` with ``w = (hi-lo)/2``;
    values only, all rows at once."""

    lo: float
    hi: float

    def jets(self, X, order: int = 2):
        if order:
            raise TypeError("bump is a plain field: it has values but no "
                            "2-jets, so it cannot serve as a weight")
        w = (self.hi - self.lo) / 2.0
        u = np.asarray(X, dtype=np.float64)
        return np.prod((np.maximum(0.0, (u - self.lo) * (self.hi - u))
                        / w ** 2) ** 4, axis=1)


def _bi_bump(ctx: "_Context", args, kwargs):
    b = _bind("bump", [("lo", "0.25"), ("hi", "0.75")], args, kwargs)
    lo, hi = _number(b["lo"]), _number(b["hi"])
    if hi <= lo:
        raise ConfigError(f"bump: need lo < hi, got {lo} >= {hi}")
    return _Bump(lo, hi)


def _bi_cor42(ctx: "_Context", args, kwargs):
    b = _bind("cor42", [("p", "1"), ("D", "1.0"), ("center", None)],
              args, kwargs)
    center = (_center(b["center"], ctx.n) if b["center"] is not None
              else np.zeros(ctx.n))
    return weights.diameter_weight(_integer(b["p"]), _number(b["D"]), center)


def _bi_df(ctx: "_Context", args, kwargs):
    b = _bind("df", [("K", "1.0"), ("eta", "0.5"), ("center", None)],
              args, kwargs)
    if ctx.r is None:
        raise ConfigError("df: the domain has no defining function r")
    center = (_center(b["center"], ctx.n) if b["center"] is not None
              else np.zeros(ctx.n))
    quad = parse(_quadratic_expr(center), ctx.n)
    return compose_df(ctx.r, quad, _number(b["K"]), _number(b["eta"]))


def _bi_disk(ctx: "_Context", args, kwargs):
    b = _bind("disk", [("radius", "1.0"), ("center", None)], args, kwargs)
    radius = _number(b["radius"])
    if radius <= 0:
        raise ConfigError("disk: radius must be positive")
    center = (_center(b["center"], ctx.n) if b["center"] is not None
              else np.zeros(ctx.n))
    return f"{_quadratic_expr(center)}+({-radius * radius})"


def _bi_annulus(ctx: "_Context", args, kwargs):
    b = _bind("annulus", [("inner", "0.5"), ("outer", "1.0"),
                          ("center", None)], args, kwargs)
    ri, ro = _number(b["inner"]), _number(b["outer"])
    if not 0 < ri < ro:
        raise ConfigError("annulus: need 0 < inner < outer")
    center = (_center(b["center"], ctx.n) if b["center"] is not None
              else np.zeros(ctx.n))
    q = _quadratic_expr(center)
    return f"(({q})+({-ri * ri}))*(({q})+({-ro * ro}))"


def _bi_torus(ctx: "_Context", args, kwargs):
    b = _bind("torus", [("ring", "0.55"), ("tube", "0.3")], args, kwargs)
    ring, tube = _number(b["ring"]), _number(b["tube"])
    if not 0 < tube < ring:
        raise ConfigError("torus: need 0 < tube < ring")
    if ctx.n != 3:
        raise ConfigError(f"torus: needs a 3-axis box, got {ctx.n}")
    return (f"(x1^2+x2^2+x3^2+({ring * ring - tube * tube}))^2"
            f"+({-4.0 * ring * ring})*(x1^2+x2^2)")


#: name -> (kind, signature, summary, builder); kinds: weight (has exact
#: 2-jets), field (plain evaluator), domain (produces an ``r`` expression).
BUILTINS = {
    "annulus": ("domain", "annulus(inner=0.5, outer=1.0, center=0:0)",
                "Planar ring: negative strictly between the two radii.",
                _bi_annulus),
    "bump": ("field", "bump(lo=0.25, hi=0.75)",
             "Smooth product bump supported on [lo, hi]^n, vanishing to "
             "fourth order at the edges; the standard battery source.",
             _bi_bump),
    "cor42": ("weight", "cor42(p=1, D=1.0, center=0:0)",
              "Scaled squared-distance weight p*|x-center|^2/(2*D^2); its "
              "induced operator on p-forms is (p/D)^2 times the identity, "
              "so inverse-pairing integrals have a closed form.",
              _bi_cor42),
    "df": ("weight", "df(K=1.0, eta=0.5, center=0:0)",
           "Composite -(-r*exp(-K*|x-center|^2))^eta built from the "
           "domain's defining function r: the family the df-search task "
           "scans, materialized for a chosen pair.",
           _bi_df),
    "disk": ("domain", "disk(radius=1.0, center=0:0)",
             "Round ball: |x-center|^2 - radius^2.",
             _bi_disk),
    "torus": ("domain", "torus(ring=0.55, tube=0.3)",
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
        kind, sig, doc, _ = BUILTINS[name]
        lines.append(f"{sig} -> {kind}")
        lines.append(f"    {doc}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

TASK_NAMES = ("check-psh", "boundary-convexity", "df-search", "kmh",
              "solve", "bounds", "cohomology", "prekopa", "algebra-battery")

_SECTION_KEYS = {
    "domain": {"box", "h", "ladder", "r"},
    "weights": {"phi", "psi", "omega"},
    "task": {"name", "p", "alpha", "slack", "tol", "seed", "samples",
             "per_axis", "min_depth", "potential", "g", "bound", "expect",
             "check_weights", "x_range", "x_count", "y_points", "cases",
             "n", "k_grid", "eta_grid", "collar", "ratio_min", "final_max"},
}

_BOUND_NAMES = ("hormander", "berndtsson", "minimal", "composite", "nonpsh")


@dataclass
class _Context:
    n: int
    r: Optional[object] = None


@dataclass
class ExperimentConfig:
    """A parsed, validated experiment: domain, weights, and one task."""

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
    options: Dict[str, str] = field(default_factory=dict)

    def opt_number(self, key: str, default: float) -> float:
        return _number(self.options[key]) if key in self.options else default

    def opt_int(self, key: str, default: int) -> int:
        return _integer(self.options[key]) if key in self.options else default


def _resolve_field(text: str, ctx: _Context, where: str):
    """A config value: number, builtin call, or field expression."""
    text = text.strip()
    try:
        call = _parse_call(text)
        if call is not None:
            name, args, kwargs = call
            kind, _, _, builder = BUILTINS[name]
            if kind == "domain":
                raise ConfigError(
                    f"{name} builds a domain, not a weight or field")
            return builder(ctx, args, kwargs)
        try:
            return _number(text)
        except ConfigError:
            pass
        return parse(text, ctx.n)
    except ParseError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _resolve_defining(text: str, ctx: _Context):
    text = text.strip()
    call = _parse_call(text)
    if call is not None:
        name, args, kwargs = call
        kind, _, _, builder = BUILTINS[name]
        if kind != "domain":
            raise ConfigError(f"[domain] r: {name} is a {kind} builtin, "
                              f"not a domain")
        text = builder(ctx, args, kwargs)
    try:
        return parse(text, ctx.n)
    except ParseError as exc:
        raise ConfigError(f"[domain] r: {exc}") from None


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

    for sec in cp.sections():
        if sec not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{sec}]")
        for key in cp[sec]:
            if key not in _SECTION_KEYS[sec]:
                raise ConfigError(f"[{sec}] {key}: unknown key")

    if "task" not in cp or "name" not in cp["task"]:
        raise ConfigError("[task] name: required")
    task = cp["task"]["name"].strip()
    if task not in TASK_NAMES:
        raise ConfigError(f"[task] name: unknown task {task!r} "
                          f"(choose from {', '.join(TASK_NAMES)})")
    options = {k: v for k, v in cp["task"].items() if k != "name"}

    # --- domain ---
    box = None
    rungs: List[float] = []
    r_field = None
    if task == "algebra-battery":
        if "n" not in options:
            raise ConfigError("[task] n: required for algebra-battery")
        n = _integer(options["n"])
        if n < 1:
            raise ConfigError("[task] n: must be >= 1")
    else:
        if "domain" not in cp or "box" not in cp["domain"]:
            raise ConfigError("[domain] box: required")
        pairs = []
        for tok in cp["domain"]["box"].split(","):
            lo_hi = _colon_floats(tok)
            if len(lo_hi) != 2 or lo_hi[1] <= lo_hi[0]:
                raise ConfigError(f"[domain] box: bad axis {tok.strip()!r} "
                                  f"(want lo:hi with hi > lo)")
            pairs.append(lo_hi)
        box = tuple(pairs)
        n = len(box)
        if task == "prekopa":
            n = n + 1        # joint variables: one profile axis + the box

        has_h = "h" in cp["domain"]
        has_ladder = "ladder" in cp["domain"]
        if has_h and has_ladder:
            raise ConfigError("[domain]: give h or ladder, not both")
        if has_h:
            rungs = [_number(cp["domain"]["h"])]
        elif has_ladder:
            rungs = [_number(t) for t in cp["domain"]["ladder"].split(",")]
            if any(b >= a for a, b in zip(rungs, rungs[1:])):
                raise ConfigError("[domain] ladder: h values must be "
                                  "strictly decreasing")
        if rungs and min(rungs) <= 0:
            raise ConfigError("[domain]: h values must be positive")
        if task in ("kmh", "solve", "bounds", "cohomology") and not rungs:
            raise ConfigError(f"[domain]: task {task} needs h or ladder")

        ctx = _Context(n=len(box))
        if "r" in cp["domain"]:
            r_field = _resolve_defining(cp["domain"]["r"], ctx)

    ctx = _Context(n=n, r=r_field)

    # --- weights ---
    wsec = cp["weights"] if "weights" in cp else {}
    phi = (_resolve_field(wsec["phi"], ctx, "[weights] phi")
           if "phi" in wsec else 0.0)
    psi = (_resolve_field(wsec["psi"], ctx, "[weights] psi")
           if "psi" in wsec else None)
    omega = (_resolve_field(wsec["omega"], ctx, "[weights] omega")
             if "omega" in wsec else None)

    # --- task-specific structural checks ---
    p = _integer(options["p"]) if "p" in options else None
    needs_p = task in ("check-psh", "boundary-convexity", "df-search",
                       "kmh", "solve", "bounds", "algebra-battery")
    if needs_p:
        if p is None:
            raise ConfigError("[task] p: required")
        if not 1 <= p <= n:
            raise ConfigError(f"[task] p: must lie in [1, {n}], got {p}")
    if task == "boundary-convexity" and p is not None and p > n - 1:
        raise ConfigError(f"[task] p: tangential planes need p <= {n - 1}")
    if task in ("boundary-convexity", "df-search") and r_field is None:
        raise ConfigError(f"[domain] r: required for {task}")
    if task in ("check-psh", "df-search", "prekopa") and "phi" not in wsec:
        raise ConfigError(f"[weights] phi: required for {task}")
    if task in ("kmh",) and "g" not in options:
        raise ConfigError("[task] g: required for kmh")
    if task in ("solve", "bounds") and "potential" not in options:
        raise ConfigError(f"[task] potential: required for {task}")
    if task == "bounds":
        bound = options.get("bound", "").strip()
        if bound not in _BOUND_NAMES:
            raise ConfigError(f"[task] bound: choose from "
                              f"{', '.join(_BOUND_NAMES)}")
        if bound != "hormander":
            if psi is None:
                raise ConfigError(f"[weights] psi: required for {bound}")
            if "alpha" not in options:
                raise ConfigError(f"[task] alpha: required for {bound}")
        if bound == "minimal" and omega is None:
            raise ConfigError("[weights] omega: required for minimal")
    if task == "df-search":
        for key in ("k_grid", "eta_grid"):
            if key in options:
                vals = [_number(t) for t in options[key].split(",")]
                if key == "k_grid" and min(vals) <= 0:
                    raise ConfigError("[task] k_grid: values must be > 0")
                if key == "eta_grid" and not all(0 < v < 1 for v in vals):
                    raise ConfigError("[task] eta_grid: values must lie "
                                      "in (0, 1)")
    if task == "cohomology" and "expect" in options:
        expected = [_integer(t) for t in options["expect"].split(",")]
        if len(expected) != n + 1:
            raise ConfigError(f"[task] expect: need {n + 1} ranks for "
                              f"degrees 0..{n}")

    seed = _integer(options["seed"]) if "seed" in options else 0
    return ExperimentConfig(task=task, n=n, box=box, rungs=rungs,
                            r=r_field, phi=phi, psi=psi, omega=omega,
                            p=p, seed=seed, options=options)


# ---------------------------------------------------------------------------
# task implementations
# ---------------------------------------------------------------------------

def _field_list(exp: ExperimentConfig, key: str, count: int) -> List[object]:
    """Semicolon-separated component fields; a single entry is padded
    with zeros (the form supported on the first multi-index)."""
    ctx = _Context(n=exp.n, r=exp.r)
    parts = [t for t in _split_top(exp.options[key], ";")]
    fields = [_resolve_field(t, ctx, f"[task] {key}") for t in parts]
    if len(fields) == 1 and count > 1:
        fields = fields + [0.0] * (count - 1)
    if len(fields) != count:
        raise ConfigError(f"[task] {key}: need {count} components "
                          f"(got {len(fields)})")
    return fields


def _interior_lattice(exp: ExperimentConfig, per_axis: int,
                      min_depth: float) -> np.ndarray:
    lo = np.array([a for a, _ in exp.box])
    hi = np.array([b for _, b in exp.box])
    if exp.r is not None:
        return weights.lattice_samples(exp.r, (lo, hi), per_axis=per_axis,
                                       min_depth=min_depth)
    axes = [lo[i] + (np.arange(per_axis) + 0.5) * (hi[i] - lo[i]) / per_axis
            for i in range(lo.size)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _task_check_psh(exp: ExperimentConfig, rng):
    pts = _interior_lattice(exp, exp.opt_int("per_axis", 24),
                            exp.opt_number("min_depth", 0.0))
    rep = convexity.field_p_psh_report(exp.phi, pts, exp.p)
    worst = rep.points[rep.worst_index]
    records = [{"test": "check-psh", "p": exp.p, "samples": len(rep.points),
                "verdict": rep.verdict,
                "min_trace": float(rep.traces[rep.worst_index]),
                "worst_x": [float(v) for v in worst],
                "pass": rep.verdict == "strict"}]
    return records, None, None


def _task_boundary_convexity(exp: ExperimentConfig, rng):
    per_axis = exp.opt_int("per_axis", 48)
    pts = _interior_lattice(exp, per_axis, 0.0)
    vals = np.abs(exp.r.jets(pts, order=0))
    collar = exp.opt_number("collar", 0.05) * float(vals.max())
    shell = pts[vals <= collar]
    if shell.shape[0] == 0:
        raise EmptyDomain("no lattice point lies within the boundary "
                          "collar; raise per_axis or collar")
    rep = convexity.boundary_p_convexity(exp.r, shell, exp.p)
    worst = rep.points[rep.worst_index]
    records = [{"test": "boundary-convexity", "p": exp.p,
                "samples": len(rep.points), "verdict": rep.verdict,
                "min_trace": float(rep.traces[rep.worst_index]),
                "worst_x": [float(v) for v in worst],
                "pass": rep.verdict == "strict"}]
    return records, None, None


def _task_df_search(exp: ExperimentConfig, rng):
    k_grid = ([_number(t) for t in exp.options["k_grid"].split(",")]
              if "k_grid" in exp.options else [0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    eta_grid = ([_number(t) for t in exp.options["eta_grid"].split(",")]
                if "eta_grid" in exp.options
                else [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9])
    pts = _interior_lattice(exp, exp.opt_int("per_axis", 16),
                            exp.opt_number("min_depth", 0.0))
    res = weights.df_search(exp.r, exp.phi, pts, exp.p, k_grid, eta_grid)
    records = [{"test": "df-search", "p": exp.p, "K": res.K, "eta": res.eta,
                "score": res.min_p_trace_over_grid,
                "feasible": res.feasible,
                "eta_max_feasible": res.eta_max_feasible,
                "K_min_feasible": res.K_min_feasible,
                "samples": res.n_samples, "pass": res.feasible}]
    return records, None, None


def _task_kmh(exp: ExperimentConfig, rng):
    coeffs = _field_list(exp, "g", exterior.dim_forms(exp.n, exp.p))
    ratio_min = exp.opt_number("ratio_min", 1.5)
    final_max = exp.opt_number("final_max", 2e-2)
    floor = 1e-12
    records, rows, prev = [], [], None
    for h in exp.rungs:
        dom = discrete.GridDomain(exp.box, h, exp.r)
        rep = discrete.energy_identity_residual(coeffs, exp.phi, dom, exp.p)
        ratio = (prev / rep.residual if prev is not None and rep.residual > 0
                 else None)
        ok = True
        if prev is not None and rep.residual > floor and ratio is not None:
            ok = ratio >= ratio_min
        if h == exp.rungs[-1]:
            ok = ok and (rep.residual <= final_max)
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
    tol = exp.opt_number("tol", 1e-10)
    coeffs = _field_list(exp, "potential",
                         exterior.dim_forms(exp.n, exp.p - 1))
    records, rows = [], []
    for h in exp.rungs:
        cx = discrete.build_complex(discrete.GridDomain(exp.box, h, exp.r))
        f = solver.closed_form_from_potential(cx, exp.p, coeffs)
        sol = solver.minimal_solution(cx, f, exp.phi, tol=tol)
        m = discrete.mass(cx, exp.phi, exp.p - 1)
        norm_sq = float(m.inner(sol.u.values, sol.u.values))
        records.append({"test": "solve", "h": h, "p": exp.p,
                        "cells": cx.num_cells(exp.p - 1),
                        "iterations": sol.iterations,
                        "residual": sol.residual,
                        "norm_sq": norm_sq, "pass": True})
        rows.append((h, cx.num_cells(exp.p - 1), sol.iterations,
                     sol.residual))
    return records, ("h,cells,iterations,residual", rows), None


def _task_bounds(exp: ExperimentConfig, rng):
    bound = exp.options["bound"].strip()
    slack = exp.opt_number("slack", 0.05)
    tol = exp.opt_number("tol", 1e-10)
    alpha = exp.opt_number("alpha", 0.0)
    coeffs = _field_list(exp, "potential",
                         exterior.dim_forms(exp.n, exp.p - 1))
    records, rows = [], []
    for h in exp.rungs:
        cx = discrete.build_complex(discrete.GridDomain(exp.box, h, exp.r))
        f = solver.closed_form_from_potential(cx, exp.p, coeffs)
        if bound == "hormander":
            reps = [solver.hormander_report(cx, f, exp.phi, exp.p,
                                            slack=slack, tol=tol)]
        elif bound == "berndtsson":
            reps = [solver.berndtsson_report(cx, f, exp.phi, exp.psi,
                                             alpha, exp.p, slack=slack,
                                             tol=tol, rng=rng)]
        elif bound == "minimal":
            reps = [solver.minimal_estimate_report(cx, f, exp.phi, exp.psi,
                                                   exp.omega, alpha, exp.p,
                                                   slack=slack, tol=tol)]
        elif bound == "composite":
            reps = list(solver.composite_minimal_estimate(
                cx, f, exp.phi, exp.psi, alpha, exp.p,
                slack=slack, tol=tol))
        else:
            reps = [solver.nonpsh_report(cx, f, exp.phi, exp.psi,
                                         exp.omega, alpha, exp.p,
                                         slack=slack, tol=tol)]
        for rep in reps:
            rec = rep.record()
            if rep.apriori is not None:
                rec["apriori_sigma"] = rep.apriori.sigma
                rec["apriori_worst_ratio"] = rep.apriori.worst_ratio
            records.append(rec)
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
    expected = ([_integer(t) for t in exp.options["expect"].split(",")]
                if "expect" in exp.options else None)
    extra = [_random_quadratic(exp.n, rng)
             for _ in range(exp.opt_int("check_weights", 0))]
    records = []
    for h in exp.rungs:
        cx = discrete.build_complex(discrete.GridDomain(exp.box, h, exp.r))
        for q in range(exp.n + 1):
            rep = solver.cohomology_rank(cx, q, exp.phi,
                                         check_weights=extra)
            want = expected[q] if expected is not None else None
            gaps = rep.eigenvalues[rep.eigenvalues > rep.floor] / rep.floor
            records.append({"test": "cohomology", "h": h, "p": q,
                            "rank": rep.rank, "expected": want,
                            "num_cells": cx.num_cells(q),
                            "eigs": len(rep.eigenvalues),
                            "gap": float(gaps[0]) if gaps.size else None,
                            "pass": want is None or rep.rank == want})
    return records, None, None


def _task_prekopa(exp: ExperimentConfig, rng):
    if "x_range" in exp.options:
        parts = _colon_floats(exp.options["x_range"])
        if len(parts) != 2 or parts[1] <= parts[0]:
            raise ConfigError("[task] x_range: want lo:hi with hi > lo")
        lo, hi = parts
    else:
        lo, hi = -1.0, 1.0
    count = exp.opt_int("x_count", 7)
    xs = np.linspace(lo, hi, count)
    rep = solver.prekopa_check(exp.phi, xs, exp.box,
                               y_points=exp.opt_int("y_points", 601),
                               tol=exp.opt_number("tol", 1e-6))
    records = [{"test": "prekopa", "convex_input": rep.convex_input,
                "skipped": rep.skipped, "x_count": count,
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
    n, p = exp.n, exp.p
    cases = exp.opt_int("cases", 200)
    dim = exterior.dim_forms(n, p)
    err_pair = err_spec = 0.0
    inv_ok = 0
    for _ in range(cases):
        sym = rng.standard_normal((n, n))
        theta = (sym + sym.T) / 2.0
        g = exterior.PointForm(n, p, rng.standard_normal(dim))
        lhs = exterior.pairing_quadratic(theta, g)
        mat = exterior.quadform_matrix(theta, n, p)
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


TASKS: Dict[str, Callable] = {
    "check-psh": _task_check_psh,
    "boundary-convexity": _task_boundary_convexity,
    "df-search": _task_df_search,
    "kmh": _task_kmh,
    "solve": _task_solve,
    "bounds": _task_bounds,
    "cohomology": _task_cohomology,
    "prekopa": _task_prekopa,
    "algebra-battery": _task_algebra_battery,
}

_TASK_ERRORS = (PreconditionError, DomainError, MembershipError, NotClosed,
                NoConvergence, CohomologyObstruction, GapAmbiguous,
                TailError, EmptyDomain, SupportError, DegenerateGradient,
                ValueError)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _plain(obj):
    """Recursively convert numpy scalars/arrays for json.dumps."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


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


def _write_artifacts(out_dir: str, header: dict, records: List[dict],
                     series, plot) -> None:
    os.makedirs(out_dir, exist_ok=True)
    lines = [json.dumps(_plain(header), sort_keys=True)]
    lines += [json.dumps(_plain(rec), sort_keys=True) for rec in records]
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if seed is not None:
        exp.seed = seed
    out = out_dir or "out"
    rng = np.random.default_rng(exp.seed)

    try:
        records, series, plot = TASKS[exp.task](exp, rng)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _TASK_ERRORS as exc:
        records = [{"test": exp.task,
                    "error": f"{type(exc).__name__}: {exc}",
                    "pass": False}]
        series = plot = None

    header = {"timestamp": datetime.now(timezone.utc).isoformat(),
              "config": os.path.basename(config_path),
              "task": exp.task, "seed": exp.seed}
    _write_artifacts(out, header, records, series, plot)

    n_pass = sum(1 for r in records if r.get("pass"))
    if verbose:
        for rec in records:
            print(json.dumps(_plain(rec), sort_keys=True))
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
