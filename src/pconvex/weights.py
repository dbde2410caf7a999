"""Weight-function construction kit.

Everything here manufactures scalar weights with controlled Hessians:

* :class:`SmoothRamp`, :class:`CubicHinge`, :class:`IdentityPlus` — C²
  convex scalar reparametrizations, each evaluated through one ``jets``
  call that returns its value, first and second derivative.
* :class:`PiecewiseWeight` — a base field composed with a chain of those
  maps; its 2-jets follow the chain rule
  ``D²(κ∘φ) = κ′(φ)·D²φ + κ″(φ)·∇φ⊗∇φ``.
* :func:`convexify` — raise the slope of a reparametrization shell by shell
  until the p-trace of the composed Hessian beats a given defect field.
* :func:`integrability_modifier` — append growth above a cutoff so that a
  prescribed tail of shell masses becomes geometrically summable, leaving
  the weight untouched below the cutoff.
* :func:`diameter_weight` — the scaled squared-distance weight whose
  p-trace operator is a known multiple of the identity.
* :func:`df_search` — grid search for an exponent/stiffness pair making the
  composed defining function ``-(-r·e^{-K·φ})^η`` strictly p-psh on sampled
  points of a bounded domain.

Weights are immutable once built and cheap to evaluate anywhere.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .convexity import _region_report, min_p_trace
from .errors import (EmptyDomain, InfeasibleOnGrid, PreconditionError,
                     raise_first)
from .fieldexpr import BatchedField, ScalarFieldExpr, field_jets, parse

__all__ = [
    "ScalarMap",
    "SmoothRamp",
    "CubicHinge",
    "IdentityPlus",
    "PiecewiseWeight",
    "convexify",
    "integrability_modifier",
    "diameter_weight",
    "DFResult",
    "df_search",
    "lattice_samples",
    "StiffnessReport",
    "stiffness_floor",
]


# ---------------------------------------------------------------------------
# C^2 scalar maps
# ---------------------------------------------------------------------------

class ScalarMap:
    """A C² map R -> R exposed through its 2-jet.

    :meth:`jets` takes a number or an array and applies elementwise.
    """

    def jets(self, t):
        """``(value, first derivative, second derivative)`` at ``t``."""
        raise NotImplementedError

    def check_points(self) -> np.ndarray:
        """Points where convexity of the map is spot-checked."""
        return np.linspace(-10.0, 10.0, 201)


class SmoothRamp(ScalarMap):
    """Convex C² ramp whose slope interpolates prescribed knot values.

    Between consecutive knots the first derivative runs from one level to
    the next along the cubic smoothstep ``3u² - 2u³``, which keeps the
    second derivative continuous (it vanishes at every knot).  Outside the
    knot range the map continues linearly with the first/last slope, so a
    zero first level makes the ramp exactly constant to the left.
    """

    def __init__(self, knots: Sequence[float], levels: Sequence[float],
                 anchor: float = 0.0):
        knots = np.asarray(knots, dtype=np.float64)
        levels = np.asarray(levels, dtype=np.float64)
        if knots.ndim != 1 or knots.size < 2:
            raise ValueError("need at least two knots")
        if knots.shape != levels.shape:
            raise ValueError("knots and levels must have equal length")
        if not np.all(np.diff(knots) > 0):
            raise ValueError("knots must be strictly increasing")
        if not np.all(np.isfinite(knots)) or not np.all(np.isfinite(levels)):
            raise ValueError("knots and levels must be finite")
        if np.any(np.diff(levels) < 0):
            raise ValueError("slope levels must be non-decreasing (convexity)")
        self.knots = knots
        self.levels = levels
        self.anchor = float(anchor)
        widths = np.diff(knots)
        # exact integral of the interpolated slope across each full piece
        piece = widths * (levels[:-1] + levels[1:]) / 2.0
        self._cum = np.concatenate([[0.0], np.cumsum(piece)])

    def jets(self, t):
        # piece i is -1 left of the knots and size - 1 right of them; j is
        # the nearest inner piece and u the local coordinate on it
        t = np.asarray(t, dtype=np.float64)
        k, lv = self.knots, self.levels
        i = np.searchsorted(k, t, side="right") - 1
        left, right = i < 0, i >= k.size - 1
        j = np.clip(i, 0, k.size - 2)
        width = k[j + 1] - k[j]
        u = np.clip((t - k[j]) / width, 0.0, 1.0)
        dl = lv[j + 1] - lv[j]
        value = np.select(
            [left, right],
            [self.anchor + lv[0] * (t - k[0]),
             self.anchor + self._cum[-1] + lv[-1] * (t - k[-1])],
            self.anchor + self._cum[j]
            + width * (lv[j] * u + dl * (u**3 - 0.5 * u**4)))[()]
        d1 = np.select([left, right], [lv[0], lv[-1]],
                       lv[j] + dl * (3.0 * u**2 - 2.0 * u**3))[()]
        d2 = np.where(left | right, 0.0, dl * 6.0 * u * (1.0 - u) / width)[()]
        return value, d1, d2

    def check_points(self) -> np.ndarray:
        span = self.knots[-1] - self.knots[0]
        return np.linspace(self.knots[0] - 0.5 * span,
                           self.knots[-1] + 0.5 * span, 401)


class CubicHinge(ScalarMap):
    """``t -> strength * max(t, 0)^3``: C², convex, flat left of zero,
    increasing in ``strength``."""

    def __init__(self, strength: float):
        strength = float(strength)
        if strength < 1.0:
            raise ValueError(f"hinge strength must be >= 1, got {strength}")
        self.strength = strength

    def jets(self, t):
        s, tp = self.strength, np.maximum(t, 0.0)
        return s * tp ** 3, 3.0 * s * tp ** 2, 6.0 * s * tp

    def check_points(self) -> np.ndarray:
        return np.linspace(-2.0, 4.0, 201)


class IdentityPlus(ScalarMap):
    """``t -> t + inner(t)``; convex whenever ``inner`` is."""

    def __init__(self, inner: ScalarMap):
        self.inner = inner

    def jets(self, t):
        value, d1, d2 = self.inner.jets(t)
        return t + value, 1.0 + d1, d2

    def check_points(self) -> np.ndarray:
        return self.inner.check_points()


# ---------------------------------------------------------------------------
# composed weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseWeight(BatchedField):
    """A scalar field composed with a chain of convex C² scalar maps.

    ``modifiers`` apply innermost-first.  Construction spot-checks each
    modifier's second derivative on its declared range; a negative reading
    (below -1e-12) is rejected, since every construction in this module
    relies on the reparametrizations being convex.
    """

    base: object                     # a field, or anything field_jets takes
    modifiers: Tuple[ScalarMap, ...] = ()

    def __post_init__(self):
        for m in self.modifiers:
            worst = float(np.min(m.jets(m.check_points())[2]))
            if worst < -1e-12:
                raise PreconditionError(
                    f"modifier {type(m).__name__} has negative second "
                    f"derivative {worst:.3e} on its active range")

    def jets(self, X, order: int = 2):
        """Batched 2-jets (or values, ``order=0``) by the chain rule, in the
        layout of :meth:`~pconvex.fieldexpr.ScalarFieldExpr.jets`:
        derivatives have leading axis m, or 1 when they do not vary by row
        (with no modifiers, those of the base)."""
        if not order:
            v = field_jets(self.base, X, 0)
            for m in self.modifiers:
                v = m.jets(v)[0]
            return v
        v, g, h = field_jets(self.base, X)
        for m in self.modifiers:
            v, d1, d2 = m.jets(v)
            h = (d1[:, None, None] * h
                 + d2[:, None, None] * np.einsum("mi,mj->mij", g, g))
            g = d1[:, None] * g
        return v, g, h

    def with_modifier(self, extra: ScalarMap) -> "PiecewiseWeight":
        return PiecewiseWeight(self.base, self.modifiers + (extra,))


def _as_weight(phi) -> PiecewiseWeight:
    if isinstance(phi, PiecewiseWeight):
        return phi
    return PiecewiseWeight(phi)


# ---------------------------------------------------------------------------
# shell-by-shell convexification
# ---------------------------------------------------------------------------

def convexify(phi, omega, p: int, sublevels: Sequence[float], samples,
              exempt_first_shell: bool = False) -> PiecewiseWeight:
    """Compose ``phi`` with a convex ramp so its p-trace beats a defect.

    ``sublevels`` ``c_0 < c_1 < ... < c_M`` carve the sampled points into
    shells by their ``phi`` value.  On each shell the base field must be
    strictly p-psh (its Hessian's minimal p-trace ``lam > 0``); the ramp
    slope at the shell's left knot is then raised to
    ``1.1 * p * max(0, -omega) / lam`` (never below 1), with a
    running maximum keeping the slope non-decreasing.  The construction is
    verified on the samples: the composed Hessian's minimal p-trace plus
    ``omega`` must come out positive.

    With ``exempt_first_shell`` the first shell contributes no slope
    requirement and is excluded from verification — the variant used when
    the base field is only p-psh outside a compact region that a hinge
    precomposition has flattened.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    phi_w = _as_weight(phi)
    sublevels = np.asarray(sublevels, dtype=np.float64)
    if sublevels.ndim != 1 or sublevels.size < 2:
        raise ValueError("need at least two sublevel values")
    if not np.all(np.diff(sublevels) > 0):
        raise ValueError("sublevels must be strictly increasing")
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.size == 0:
        raise ValueError("need at least one sample point")
    n_shells = sublevels.size - 1

    v, _, hess = phi_w.jets(samples)
    om_vals = field_jets(omega, samples, order=0)
    shell_of = np.clip(np.searchsorted(sublevels, v, side="right") - 1,
                       0, n_shells - 1)
    checked = (shell_of > 0) if exempt_first_shell else np.ones(v.size, bool)
    lam = np.broadcast_to(min_p_trace(hess, p), v.shape)
    raise_first(PreconditionError, checked & (lam <= 0.0), samples, lambda i: (
        f"base field is not strictly p-psh (minimal p-trace {lam[i]:.3e})"))
    needs = np.zeros(n_shells)
    np.maximum.at(needs, shell_of[checked],
                  p * np.maximum(0.0, -om_vals[checked]) / lam[checked])

    levels = np.empty(sublevels.size)
    running = 0.0
    for nu in range(n_shells):
        running = max(running, 1.1 * needs[nu])
        levels[nu] = max(1.0, running)
    levels[n_shells] = max(1.0, running)

    ramp = SmoothRamp(sublevels, levels, anchor=float(sublevels[0]))
    out = phi_w.with_modifier(ramp)

    trace = min_p_trace(out.jets(samples)[2], p)
    raise_first(RuntimeError, checked & (trace + om_vals <= 0.0), samples,
                lambda i: (f"convexification failed verification: p-trace "
                           f"{trace[i]:.6g} + omega {om_vals[i]:.6g} <= 0"))
    return out


# ---------------------------------------------------------------------------
# tail integrability
# ---------------------------------------------------------------------------

def integrability_modifier(phi, c: float,
                           tail_integrals: Sequence[float]) -> PiecewiseWeight:
    """Append convex growth above level ``c`` to tame a mass tail.

    ``tail_integrals[k]`` (for ``k = 0, 1, ...``) must dominate the mass
    accumulated on the sublevel set ``{phi < c + k + 2}`` of the quantity
    that should stay integrable against ``e^{-weight}``.  The returned
    weight is ``phi + gamma(phi)`` with ``gamma`` convex, non-decreasing,
    and exactly zero at or below ``c``; at the knot ``c + k + 1`` it
    clears ``max(0, k + 1 + log(tail_integrals[k])) + 0.5``, which makes
    the reweighted shell masses decay at least like ``e^{-k}``.

    An empty tail (or all-zero integrals) yields ``gamma ≡ 0``.
    """
    phi_w = _as_weight(phi)
    c = float(c)
    integrals = np.asarray(tail_integrals, dtype=np.float64)
    if integrals.ndim != 1:
        raise ValueError("tail_integrals must be a flat sequence")
    if integrals.size and (not np.all(np.isfinite(integrals))
                           or np.any(integrals < 0)):
        raise ValueError("tail integrals must be finite and non-negative")

    n_knots = max(integrals.size + 1, 2)
    knots = c + np.arange(n_knots, dtype=np.float64)
    levels = np.zeros(n_knots)
    gamma_val = 0.0
    for k in range(1, n_knots):
        if k - 1 < integrals.size and integrals[k - 1] > 0.0:
            target = max(0.0, k + math.log(integrals[k - 1])) + 0.5
        else:
            target = 0.0
        levels[k] = max(levels[k - 1],
                        2.0 * (target - gamma_val) - levels[k - 1])
        gamma_val += 0.5 * (levels[k - 1] + levels[k])

    gamma = SmoothRamp(knots, levels, anchor=0.0)
    return phi_w.with_modifier(IdentityPlus(gamma))


# ---------------------------------------------------------------------------
# scaled squared-distance weight
# ---------------------------------------------------------------------------

def diameter_weight(p: int, diameter: float, center) -> ScalarFieldExpr:
    """The weight ``p*|x - center|^2 / (2*diameter^2)``.

    Its Hessian is the constant ``(p/diameter^2)·Id``, so the induced
    p-trace operator on p-forms is ``(p^2/diameter^2)·Id`` — the inverse
    used in diameter-scaled estimates is exactly ``(diameter^2/p^2)·Id``.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    diameter = float(diameter)
    if not 0 < diameter < math.inf:
        raise ValueError(f"diameter must be positive and finite, got "
                         f"{diameter}")
    center = np.atleast_1d(np.asarray(center, dtype=np.float64))
    terms = []
    for i, ci in enumerate(center, start=1):
        ci = float(ci)
        if ci == 0.0:
            terms.append(f"x{i}^2")
        else:
            terms.append(f"(x{i}-({ci!r}))^2")
    body = "+".join(terms)
    scale = p / (2.0 * diameter**2)
    return parse(f"({scale!r})*({body})", n=center.size)


# ---------------------------------------------------------------------------
# defining-function exponent search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DFResult:
    """Outcome of the exponent/stiffness grid search.

    Traces are reported in a per-sample normalization: the Hessian of
    ``rho = -(-r·e^{-K·phi})^eta`` factors as a strictly positive scalar
    times an exponential-free core matrix, and the score is the core's
    minimal p-trace divided by a positive scale.  The sign — hence
    feasibility — is identical to the raw p-trace of ``D²rho``, but the
    normalized value stays finite for any stiffness, where the raw one
    under/overflows through ``e^{-K·phi}``.
    """

    K: float
    eta: float
    min_p_trace_over_grid: float     # best pair's worst normalized p-trace
    samples: Tuple[Tuple[np.ndarray, float], ...]
    feasible_pairs: Tuple[Tuple[float, float], ...]
    eta_max_feasible: Optional[float]
    K_min_feasible: Optional[float]
    n_samples: int

    @property
    def feasible(self) -> bool:
        return self.min_p_trace_over_grid > 0.0


def _df_core(r_jets, phi_jets, K: float, eta: float):
    """Exponential-free core of D²(-(-r e^{-K phi})^eta), batched.

    With s = -r and the full Hessian written as
    ``D²rho = eta * s^(eta-2) * e^(-eta*K*phi) * C``, returns ``C`` per
    sample along with the positive normalizer ``s² + |grad_core|²``.
    """
    rv, rg, rh = r_jets
    pv, pg, ph = phi_jets
    s, gs, hs = -rv, -rg, -rh
    gt = gs - K * s[:, None] * pg
    cross = np.einsum("mi,mj->mij", gs, pg)
    ht = (hs - K * (cross + cross.transpose(0, 2, 1))
          - K * s[:, None, None] * ph
          + K * K * s[:, None, None] * np.einsum("mi,mj->mij", pg, pg))
    core = (-s[:, None, None] * ht
            + (1.0 - eta) * np.einsum("mi,mj->mij", gt, gt))
    norm = s * s + np.einsum("mi,mi->m", gt, gt)
    return core, norm


def df_search(r, phi, interior_samples, p: int,
              K_grid: Sequence[float], eta_grid: Sequence[float]) -> DFResult:
    """Search a (stiffness, exponent) grid for a strictly p-psh composite.

    For each pair the composed field ``-(-r·e^{-K·phi})^eta`` is evaluated
    with exact Hessians at every sample and scored by its worst minimal
    p-trace, taken in the sign-preserving normalization described on
    :class:`DFResult`; the returned pair maximizes that score (ties
    resolved toward smaller ``K``, then smaller ``eta``).  A non-positive
    best score means no grid point certified positivity — reported via the
    :class:`~pconvex.errors.InfeasibleOnGrid` warning, not an exception,
    since a finer grid may still succeed.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    samples = np.atleast_2d(np.asarray(interior_samples, dtype=np.float64))
    if samples.size == 0:
        raise ValueError("need at least one interior sample")
    K_grid = [float(k) for k in K_grid]
    eta_grid = [float(e) for e in eta_grid]
    if not K_grid or not eta_grid:
        raise ValueError("grids must be non-empty")
    if not all(0 < k < math.inf for k in K_grid):
        raise ValueError("stiffness values must be finite and positive")
    if not all(0 < e < 1 for e in eta_grid):
        raise ValueError("exponent values must lie in (0, 1)")

    phi_jets = field_jets(phi, samples)
    report = _region_report(p, samples, min_p_trace(phi_jets[2], p))
    if report.verdict != "strict":
        raise_first(PreconditionError,
                    np.arange(len(samples)) == report.worst_index, samples,
                    lambda i: (f"weight field is not strictly p-psh on the "
                               f"samples (worst p-trace "
                               f"{report.min_trace:.3e})"))
    r_jets = field_jets(r, samples)
    raise_first(PreconditionError, r_jets[0] >= 0, samples, lambda i: (
        f"defining function is non-negative (r = {r_jets[0][i]:.3e})"))

    best = None           # (score, K, eta, traces)
    feasible = []
    for K in sorted(K_grid):
        for eta in sorted(eta_grid):
            core, norm = _df_core(r_jets, phi_jets, K, eta)
            traces = min_p_trace(core, p) / norm
            score = float(traces.min())
            if score > 0:
                feasible.append((K, eta))
            if best is None or score > best[0]:
                best = (score, K, eta, traces)

    score, K, eta, traces = best
    if not feasible:
        warnings.warn(
            f"no (K, eta) pair on the grid certified positivity "
            f"(best score {score:.3e} at K={K}, eta={eta})",
            InfeasibleOnGrid, stacklevel=2)
    return DFResult(
        K=K, eta=eta, min_p_trace_over_grid=score,
        samples=tuple((x.copy(), float(t)) for x, t in zip(samples, traces)),
        feasible_pairs=tuple(feasible),
        eta_max_feasible=max(e for _, e in feasible) if feasible else None,
        K_min_feasible=min(k for k, _ in feasible) if feasible else None,
        n_samples=samples.shape[0])


@dataclass(frozen=True)
class StiffnessReport:
    """Conservative sufficient stiffness for the composed defining function.

    Assembled from sampled bounds: the weight's strict convexity modulus
    ``sigma`` and gradient bound ``phi_grad_sq``; the defining function's
    gradient floor, Hessian bound, and Hessian-to-gradient shear on a
    boundary collar; and the worst interior defect.  ``K_floor`` grows as
    the collar degenerates (shear and mixed coupling blow up when the
    gradient floor drops) and ``eta_ceiling`` shrinks correspondingly —
    the qualitative scaling demanded of the stiffness/exponent pair as a
    domain becomes more eccentric.  These are heuristic sufficient scales,
    not certificates; certification is :func:`df_search`'s sampled check.
    """

    sigma: float                 # min sampled p-trace of the weight Hessian
    phi_grad_sq: float           # max sampled |grad phi|^2
    grad_floor: float            # min |grad r| on the collar
    hess_bound: float            # max p * ||D^2 r||_2 on the collar
    shear: float                 # hess_bound / grad_floor^2
    mixed: float                 # hess_bound / (2 * grad_floor)
    interior_defect: float       # worst K-free remainder deep inside
    collar_depth: float
    K_floor: float
    eta_ceiling: float
    n_collar: int
    n_interior: int


def stiffness_floor(r, phi, samples, p: int,
                    collar_fraction: float = 0.1) -> StiffnessReport:
    """Sampled sufficient (stiffness, exponent) scales for :func:`df_search`.

    Splits the samples at ``-r = collar_fraction * max(-r)`` into a
    boundary collar and a deep interior, measures the bounds described on
    :class:`StiffnessReport`, and combines them into

    ``K_floor = (4/sigma) * (shear + sigma^2/(4*phi_grad_sq)
                 + interior_defect/depth^2 + 2*mixed^2 + sigma^2)``

    with ``eta_ceiling = sigma / (2*phi_grad_sq*K_floor + sigma)``.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if not 0 < collar_fraction < 1:
        raise ValueError("collar_fraction must lie in (0, 1)")
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    r_val, r_g, r_h = field_jets(r, samples)
    _, phi_g, phi_h = field_jets(phi, samples)
    depth = -r_val
    raise_first(PreconditionError, depth <= 0, samples, lambda i: (
        f"all samples must lie strictly inside, but r = {r_val[i]:.3e}"))
    eps = collar_fraction * depth.max()
    collar = depth <= eps
    interior = ~collar
    if not collar.any() or not interior.any():
        raise PreconditionError(
            "need samples on both sides of the collar split; "
            "sample more densely or adjust collar_fraction")

    traces = min_p_trace(phi_h, p)
    raise_first(PreconditionError, traces <= 0, samples, lambda i: (
        f"weight field is not strictly p-psh (minimal p-trace "
        f"{traces[i]:.3e})"))
    sigma = float(traces.min())
    phi_grad_sq = float(np.einsum("mi,mi->m", phi_g, phi_g).max())

    r_grad = np.broadcast_to(np.linalg.norm(r_g, axis=1), depth.shape)
    r_hess = np.broadcast_to(np.linalg.norm(r_h, 2, axis=(1, 2)), depth.shape)
    raise_first(PreconditionError, collar & (r_grad <= 0), samples,
                lambda i: ("defining function has a critical point on the "
                           "boundary collar"))
    grad_floor = float(r_grad[collar].min())
    hess_bound = float(p * r_hess[collar].max())
    shear = hess_bound / grad_floor**2
    mixed = hess_bound / (2.0 * grad_floor)

    phi_grad = np.linalg.norm(phi_g, axis=1)
    rem = (depth * p * r_hess + r_grad**2 + 2.0 * depth * r_grad * phi_grad)
    interior_defect = float(rem[interior].max())

    K_floor = (4.0 / sigma) * (shear + sigma**2 / (4.0 * phi_grad_sq)
                               + interior_defect / eps**2
                               + 2.0 * mixed**2 + sigma**2)
    eta_ceiling = sigma / (2.0 * phi_grad_sq * K_floor + sigma)
    return StiffnessReport(
        sigma=sigma, phi_grad_sq=phi_grad_sq, grad_floor=grad_floor,
        hess_bound=hess_bound, shear=shear, mixed=mixed,
        interior_defect=interior_defect, collar_depth=float(eps),
        K_floor=float(K_floor), eta_ceiling=float(eta_ceiling),
        n_collar=int(collar.sum()), n_interior=int(interior.sum()))


def lattice_samples(r, box, per_axis: int,
                    min_depth: float = 0.0) -> np.ndarray:
    """Cell-center lattice points of ``box`` where ``r < -min_depth``;
    every point when ``r`` is None.

    One uniform lattice covers both the deep interior and the boundary
    collar; raise ``per_axis`` to sample the collar more densely.  Raises
    :class:`~pconvex.errors.EmptyDomain` if no lattice point qualifies.
    """
    lo, hi = (np.atleast_1d(np.asarray(b, dtype=np.float64)) for b in box)
    if lo.shape != hi.shape or np.any(hi <= lo):
        raise ValueError("box must be given as (lo, hi) with hi > lo")
    if per_axis < 2:
        raise ValueError("per_axis must be >= 2")
    axes = [lo[i] + (np.arange(per_axis) + 0.5) * (hi[i] - lo[i]) / per_axis
            for i in range(lo.size)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    if r is None:
        return pts
    keep = field_jets(r, pts, order=0) < -min_depth
    if not keep.any():
        raise EmptyDomain("no lattice point lies inside the domain")
    return pts[keep]
