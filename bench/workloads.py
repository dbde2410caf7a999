"""The benchmark's workloads: generated INI configs and their checks.

Each workload is a list of jobs.  A job is one config that the worker
runs through ``pconvex.cli.run``, plus the expectations its report
records are checked against.  The expectations come from
``reference.py``, never from pconvex.  Everything drawn at random comes
from ``random.Random(seed)``, so one seed gives the same configs on every
machine; the draws move data and weight centres but keep the amount of
work fixed (bump supports sit on the grid and keep their width).

This module does not import pconvex, so configs and expectations are
made without loading the program.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional

import reference as ref

WORKLOADS = ("desk-bounds", "staircase-topology", "energy-ladder",
             "steep-solve")

SQRT2 = math.sqrt(2.0)
SLACK = 0.05

# Relative tolerance k·(h/width)² on reference comparisons.  At the draws
# below the measured errors stay under half of these constants (see the
# README for the figures); a discretization error that stopped falling
# like h² would break them at the finer rungs.
K_RHS = 40.0
K_ENERGY = 40.0

# The ladder's relative residual must fall at least this much per halving.
RATIO_MIN = 3.0
# Converged solves must meet the program's default tolerance.
RESIDUAL_MAX = 1e-10
# A minimal solution's norm may exceed the potential's only by rounding.
NORM_SLACK = 1e-9

# The named faults (see README): inputs fixed, independent of the seed.
STEEP_FAULTS = {30: "NoConvergence", 100: "NoConvergence",
                300: "NoConvergence", 700: "DomainError"}


def _ini(domain: Dict[str, str], weights: Dict[str, str],
         task: Dict[str, str]) -> str:
    out = []
    for name, sec in (("domain", domain), ("weights", weights),
                      ("task", task)):
        if sec:
            out.append(f"[{name}]")
            out += [f"{k} = {v}" for k, v in sec.items()]
            out.append("")
    return "\n".join(out)


def _job(name: str, ini: str, check: dict,
         expect_error: Optional[str] = None) -> dict:
    return {"name": name, "ini": ini, "check": check,
            "expect_error": expect_error}


def _box(n: int) -> str:
    return ", ".join(["0:1"] * n)


def _sq(n: int, scale: str = "") -> str:
    body = "+".join(f"x{i}^2" for i in range(1, n + 1))
    return f"{scale}*({body})" if scale else body


def _centre(rng: random.Random, n: int) -> List[float]:
    return [round(rng.uniform(0.3, 0.7), 6) for _ in range(n)]


def _tilt(s: float, c: float) -> ref.Exponent:
    """The exponent ``u² - s (u - c)²`` of ``|x|² - alpha·cor42``."""
    return lambda u: u ** 2 - s * (u - c) ** 2


def _support(rng: random.Random, first: int, last: int,
             width: float) -> tuple:
    """A bump support ``[k/32, k/32 + width]`` with ``first <= k <= last``."""
    lo = rng.randint(first, last) / 32.0
    return lo, lo + width


# ---------------------------------------------------------------------------
# desk-bounds
# ---------------------------------------------------------------------------

def _bounds_job(name: str, n: int, h: float, lo: float, hi: float,
                weights: Dict[str, str], task: Dict[str, str],
                expected: List[dict]) -> dict:
    ini = _ini({"box": _box(n), "h": f"1/{round(1 / h)}"}, weights,
               {"name": "bounds", "p": "1",
                "potential": f"bump({lo!r}, {hi!r})", **task})
    tol = ref.h2_tolerance(K_RHS, h, lo, hi)
    for e in expected:
        e["rhs_rel_tol"] = tol
    return _job(name, ini, {"task": "bounds", "slack": SLACK,
                            "reports": expected})


def desk_bounds(rng: random.Random) -> List[dict]:
    jobs = []
    q = ref.quadratic(1.0)
    for n, h in ((2, 1 / 128), (3, 1 / 32)):
        lo, hi = _support(rng, 6, 10, 0.5)
        jobs.append(_bounds_job(
            f"hormander-{n}d", n, h, lo, hi, {"phi": _sq(n)},
            {"bound": "hormander"},
            [{"test": "hormander",
              "rhs": ref.comparison_rhs(lo, hi, [q] * n, 2.0, 1.0),
              "lhs_max": ref.potential_norm_sq(lo, hi, h, [q] * n)}]))

    h = 1 / 32
    d2 = 2.0     # D² of cor42's D = sqrt(2); its F on 1-forms is Id / D²

    lo, hi = _support(rng, 6, 10, 0.5)
    alpha, c = 0.3, _centre(rng, 2)
    solve_w = [_tilt(alpha / (2 * d2), ci) for ci in c]
    jobs.append(_bounds_job(
        "berndtsson", 2, h, lo, hi,
        {"phi": _sq(2),
         "psi": f"cor42(p=1, D={SQRT2!r}, center={c[0]!r}:{c[1]!r})"},
        {"bound": "berndtsson", "alpha": repr(alpha),
         "seed": str(rng.randrange(1, 10 ** 6))},
        [{"test": "berndtsson",
          "rhs": ref.comparison_rhs(lo, hi, solve_w, 1.0 / d2,
                                    4.0 / (1.0 - alpha) ** 2),
          "lhs_max": ref.potential_norm_sq(lo, hi, h, solve_w)}]))

    lo, hi = _support(rng, 6, 10, 0.5)
    alpha = 0.64
    jobs.append(_bounds_job(
        "minimal", 2, h, lo, hi,
        {"phi": _sq(2), "psi": _sq(2, "0.1"), "omega": "0.633"},
        {"bound": "minimal", "alpha": repr(alpha)},
        [{"test": "minimal-estimate",
          "rhs": ref.comparison_rhs(lo, hi, [ref.quadratic(0.9)] * 2, 0.2,
                                    (1 + alpha) / (1 - alpha))}]))

    lo, hi = _support(rng, 6, 10, 0.5)
    alpha, c = 0.25, _centre(rng, 2)
    root = math.sqrt(alpha)
    cmp_w = [_tilt(alpha / (2 * d2), ci) for ci in c]
    jobs.append(_bounds_job(
        "composite", 2, h, lo, hi,
        {"phi": _sq(2),
         "psi": f"cor42(p=1, D={SQRT2!r}, center={c[0]!r}:{c[1]!r})"},
        {"bound": "composite", "alpha": repr(alpha)},
        [{"test": "minimal-estimate",
          "rhs": ref.comparison_rhs(lo, hi, cmp_w, alpha / d2,
                                    (1 + root) / (1 - root))},
         {"test": "minimal-estimate-composite",
          "rhs": ref.comparison_rhs(lo, hi, cmp_w, 1.0 / d2,
                                    1.0 / (alpha * (1 - root) ** 2))}]))

    lo, hi = _support(rng, 6, 10, 0.5)
    alpha = 0.3
    jobs.append(_bounds_job(
        "nonpsh", 2, h, lo, hi,
        {"phi": _sq(2), "psi": "0.3*x1+0.3*x2"},
        {"bound": "nonpsh", "alpha": repr(alpha)},
        [{"test": "nonpsh-constant",
          "rhs": ref.comparison_rhs(lo, hi, [ref.quadratic(1.0, b=-0.3)] * 2,
                                    2.0, 4.0 / (2.0 - alpha) ** 2)}]))
    return jobs


# ---------------------------------------------------------------------------
# staircase-topology
# ---------------------------------------------------------------------------

def _phi_centred(c: List[float]) -> str:
    return "+".join(f"(x{i}-({ci!r}))^2" for i, ci in enumerate(c, start=1))


def staircase_topology(rng: random.Random) -> List[dict]:
    def cohomology(shape: str, domain: Dict[str, str], weights, task):
        ranks = ref.BETTI[shape]
        return _job(shape, _ini(domain, weights, {
            "name": "cohomology", "expect": ", ".join(map(str, ranks)),
            **task}), {"task": "cohomology", "ranks": list(ranks)})

    return [
        cohomology("box", {"box": "0:1, 0:1", "h": "1/16"},
                   {"phi": _phi_centred(_centre(rng, 2))},
                   {"check_weights": "3",
                    "seed": str(rng.randrange(1, 10 ** 6))}),
        cohomology("ring", {"box": "-1.2:1.2, -1.2:1.2",
                            "ladder": "0.1, 0.05",
                            "r": "annulus(0.5, 1.0)"},
                   {"phi": _phi_centred([round(v - 0.5, 6)
                                           for v in _centre(rng, 2)])},
                   {"check_weights": "3",
                    "seed": str(rng.randrange(1, 10 ** 6))}),
        cohomology("torus", {"box": "-1:1, -1:1, -0.4:0.4", "h": "1/16",
                             "r": "torus(0.55, 0.3)"}, {}, {}),
    ]


# ---------------------------------------------------------------------------
# energy-ladder
# ---------------------------------------------------------------------------

def energy_ladder(rng: random.Random) -> List[dict]:
    jobs = []
    # Width 13/32 keeps the support two node layers inside the box on the
    # coarsest 3-D rung (h = 1/8), as the energy identity requires.
    for n, ladder in ((2, (32, 64, 128)), (3, (8, 16, 32))):
        lo, hi = _support(rng, 8, 11, 13 / 32)
        c = _centre(rng, n)
        exps = [ref.quadratic(1.0, ci) for ci in c]
        grad = ref.gradient_integral(lo, hi, exps)
        quad = 2.0 * ref.square_integral(lo, hi, exps)
        g = "; ".join([f"bump({lo!r}, {hi!r})"] + ["0"] * (n - 1))
        ini = _ini({"box": _box(n),
                    "ladder": ", ".join(f"1/{m}" for m in ladder)},
                   {"phi": _phi_centred(c)},
                   {"name": "kmh", "p": "1", "g": g,
                    "ratio_min": repr(RATIO_MIN)})
        rungs = [{"gradient": grad, "quadform": quad,
                  "rel_tol": ref.h2_tolerance(K_ENERGY, 1 / m, lo, hi)}
                 for m in ladder]
        jobs.append(_job(f"kmh-{n}d", ini, {"task": "kmh", "rungs": rungs}))
    return jobs


# ---------------------------------------------------------------------------
# steep-solve
# ---------------------------------------------------------------------------

def steep_solve(rng: random.Random) -> List[dict]:
    jobs = []
    h = 1 / 32
    for k in (1, *STEEP_FAULTS):
        if k in STEEP_FAULTS:
            lo, hi = 0.25, 0.75
        else:
            lo, hi = _support(rng, 6, 10, 0.5)
        ini = _ini({"box": "0:1, 0:1", "h": "1/32"}, {"phi": _sq(2, str(k))},
                   {"name": "solve", "p": "1",
                    "potential": f"bump({lo!r}, {hi!r})"})
        cap = ref.potential_norm_sq(lo, hi, h, [ref.quadratic(float(k))] * 2)
        jobs.append(_job(f"k{k}", ini,
                         {"task": "solve", "norm_max": cap},
                         STEEP_FAULTS.get(k)))
    return jobs


GENERATORS = {
    "desk-bounds": desk_bounds,
    "staircase-topology": staircase_topology,
    "energy-ladder": energy_ladder,
    "steep-solve": steep_solve,
}


def generate(workload: str, seed: int) -> List[dict]:
    """The jobs of ``workload`` for ``seed``: same seed, same configs."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# checks on report records
# ---------------------------------------------------------------------------

def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_records(check: dict, records: List[dict]) -> List[str]:
    """Problems found in one job's report records (empty when correct)."""
    task = check["task"]
    problems = []
    if task == "bounds":
        if len(records) != len(check["reports"]):
            return [f"{len(records)} records, expected "
                    f"{len(check['reports'])}"]
        for rec, want in zip(records, check["reports"]):
            tag = rec.get("test")
            if tag != want["test"]:
                problems.append(f"record {tag!r}, expected {want['test']!r}")
                continue
            if not rec["lhs"] <= (1.0 + check["slack"]) * rec["rhs"]:
                problems.append(f"{tag}: lhs {rec['lhs']:.6g} > "
                                f"(1+slack)·rhs {rec['rhs']:.6g}")
            err = _rel(rec["rhs"], want["rhs"])
            if err > want["rhs_rel_tol"]:
                problems.append(f"{tag}: rhs {rec['rhs']:.6g} is "
                                f"{err:.3g} from reference {want['rhs']:.6g}"
                                f" (tolerance {want['rhs_rel_tol']:.3g})")
            cap = want.get("lhs_max")
            if cap is not None and rec["lhs"] > cap * (1.0 + NORM_SLACK):
                problems.append(f"{tag}: minimal norm² {rec['lhs']:.6g} "
                                f"exceeds the potential's {cap:.6g}")
    elif task == "cohomology":
        for rec in records:
            want = check["ranks"][rec["p"]]
            if rec["rank"] != want:
                problems.append(f"h={rec['h']} degree {rec['p']}: rank "
                                f"{rec['rank']}, Betti number {want}")
    elif task == "kmh":
        if len(records) != len(check["rungs"]):
            return [f"{len(records)} rungs, expected {len(check['rungs'])}"]
        for i, (rec, want) in enumerate(zip(records, check["rungs"])):
            for key, ref_key in (("rhs_gradient", "gradient"),
                                 ("rhs_quadform", "quadform")):
                err = _rel(rec[key], want[ref_key])
                if err > want["rel_tol"]:
                    problems.append(f"h={rec['h']}: {key} {rec[key]:.6g} is "
                                    f"{err:.3g} from reference "
                                    f"{want[ref_key]:.6g}")
            if i and not (records[i - 1]["residual"]
                          >= RATIO_MIN * rec["residual"]):
                problems.append(f"h={rec['h']}: residual {rec['residual']:.3g}"
                                f" fell less than {RATIO_MIN}x")
    elif task == "solve":
        for rec in records:
            if not rec["residual"] <= RESIDUAL_MAX:
                problems.append(f"residual {rec['residual']:.3g} > "
                                f"{RESIDUAL_MAX}")
            if rec["norm_sq"] > check["norm_max"] * (1.0 + NORM_SLACK):
                problems.append(f"minimal norm² {rec['norm_sq']:.6g} exceeds "
                                f"the potential's {check['norm_max']:.6g}")
    else:
        raise ValueError(f"unknown check task {task!r}")
    failed = [r for r in records if not r.get("pass")]
    if failed and not problems:
        problems.append(f"{len(failed)} record(s) with pass = false")
    return problems

