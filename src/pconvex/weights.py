"""Weights for the estimates and the boundary-composite search.

* :func:`diameter_weight` — the scaled squared-distance weight whose
  p-trace operator is a known multiple of the identity.
* :func:`df_search` — grid search for an exponent/stiffness pair making the
  composed defining function ``-(-r·e^{-K·φ})^η`` strictly p-psh on sampled
  points of a bounded domain.
* :func:`stiffness_floor` — sampled sufficient (stiffness, exponent) scales
  for that search.
* :func:`lattice_samples` — the cell-center lattice points inside a domain,
  the samples the search and the probe are run on.

Both refuse a weight whose minimal p-trace at a sample is at most 1e-12,
where :mod:`pconvex.convexity` stops grading "strict", naming the first.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .convexity import _STRICT, min_p_trace
from .errors import (EmptyDomain, InfeasibleOnGrid, PreconditionError,
                     raise_first)
from .fieldexpr import ScalarFieldExpr, field_jets, parse

__all__ = [
    "diameter_weight",
    "DFResult",
    "df_search",
    "lattice_samples",
    "StiffnessReport",
    "stiffness_floor",
]


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


def _strict_traces(phi_h, p: int, samples) -> np.ndarray:
    """The weight Hessians' minimal p-traces; PreconditionError names the
    first sample where one is not strict, for both search and probe."""
    traces = min_p_trace(phi_h, p)
    raise_first(PreconditionError, traces <= _STRICT, samples, lambda i: (
        f"weight field is not strictly p-psh (minimal p-trace "
        f"{traces[i]:.3e})"))
    return traces


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
    _strict_traces(phi_jets[2], p, samples)
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


_COLLAR_FRACTION = 0.1    # the collar: samples with -r <= 0.1 max(-r)


def stiffness_floor(r, phi, samples, p: int) -> StiffnessReport:
    """Sampled sufficient (stiffness, exponent) scales for :func:`df_search`.

    Splits the samples at ``-r = 0.1 * max(-r)`` into a boundary collar
    and a deep interior, measures the bounds described on
    :class:`StiffnessReport`, and combines them into

    ``K_floor = (4/sigma) * (shear + sigma^2/(4*phi_grad_sq)
                 + interior_defect/depth^2 + 2*mixed^2 + sigma^2)``

    with ``eta_ceiling = sigma / (2*phi_grad_sq*K_floor + sigma)``.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.size == 0:
        raise ValueError("need at least one sample")
    r_val, r_g, r_h = field_jets(r, samples)
    _, phi_g, phi_h = field_jets(phi, samples)
    depth = -r_val
    raise_first(PreconditionError, depth <= 0, samples, lambda i: (
        f"all samples must lie strictly inside, but r = {r_val[i]:.3e}"))
    eps = _COLLAR_FRACTION * depth.max()
    collar = depth <= eps
    interior = ~collar
    if not collar.any() or not interior.any():
        raise PreconditionError(
            "need samples on both sides of the collar split; "
            "sample more densely")

    sigma = float(_strict_traces(phi_h, p, samples).min())
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
    every point when ``r`` is None, which takes no ``min_depth`` but 0.

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
        if min_depth != 0.0:
            raise ValueError(f"min_depth without r must be 0; got {min_depth}")
        return pts
    keep = field_jets(r, pts, order=0) < -min_depth
    if not keep.any():
        raise EmptyDomain("no lattice point lies inside the domain")
    return pts[keep]
