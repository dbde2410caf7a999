"""Directional convexity certificates for symmetric forms and scalar fields.

A symmetric matrix is *p-positive* when every sum of ``p`` of its eigenvalues
is positive — equivalently (and this is what everything here computes) when
the sum of its ``p`` smallest eigenvalues is.  :func:`min_p_trace` is the
one test of that criterion: sampled Hessian fields and tangential boundary
Hessians are graded through it.  The module also carries the curvature-term
algebra used by the solver-side bound hypotheses:

* :func:`index_swap_two_forms` builds, for every degree-``p`` multi-index of a
  form, the 2-form obtained by swapping one index at a time against a free
  index;
* :func:`curvature_bounds_check` pairs those 2-forms against a symmetric
  operator on 2-forms, sums, and verifies the two-sided eigenvalue bound
  with the ``p (n - p)`` signature count; :func:`signature_count`
  re-derives that count by brute-force enumeration.

Every matrix is checked as by :mod:`pconvex.exterior`: square, of the
expected size, finite and symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateGradient, raise_first
from .exterior import (PointForm, _check_symmetric, _insertion_table, _lift,
                       dim_forms, index_list)
from .fieldexpr import field_jets

__all__ = [
    "min_p_trace",
    "FieldRegionReport",
    "field_p_psh_report",
    "boundary_p_convexity",
    "index_swap_two_forms",
    "CurvatureBoundsReport",
    "curvature_bounds_check",
    "signature_count",
]


def min_p_trace(theta: np.ndarray, p: int):
    """Smallest sum of ``p`` eigenvalues of the symmetric matrix ``theta``.

    A stack of matrices ``(m, n, n)`` gives one sum per matrix, ``(m,)``.
    A matrix that is not square, finite and symmetric (to ``1e-12`` of its
    largest entry) raises :class:`ValueError`, as does ``p`` outside
    ``[1, n]``; ``theta`` is reduced as given, not symmetrised.
    """
    theta = _check_symmetric(theta, "theta", (2, 3), None)
    n = theta.shape[-1]
    if not 1 <= p <= n:
        raise ValueError(f"p must be in [1, {n}], got {p}")
    w = np.linalg.eigvalsh(theta)
    if theta.ndim == 3:
        return w[:, :p].sum(axis=1)
    return float(w[:p].sum())


_STRICT = 1e-12     # a p-trace above it is strict, within ±it semi


def _classify(value: float) -> str:
    if value > _STRICT:
        return "strict"
    if value >= -_STRICT:
        return "semi"
    return "fail"


@dataclass
class FieldRegionReport:
    """Per-sample p-positivity of a sampled Hessian field."""

    p: int
    points: np.ndarray               # (m, n)
    traces: np.ndarray               # (m,) minimal p-traces
    verdict: str                     # worst verdict over the samples
    worst_index: int

    @property
    def min_trace(self) -> float:
        return float(self.traces[self.worst_index])


def _region_report(p: int, pts: np.ndarray,
                   traces: np.ndarray) -> FieldRegionReport:
    """The sampled report; its verdict is that of the smallest trace.
    ``traces`` has one entry per point, or one for all of them when the
    matrices did not depend on the point."""
    traces = np.broadcast_to(traces, pts.shape[:1]).copy()
    worst = int(np.argmin(traces))
    return FieldRegionReport(p=p, points=pts, traces=traces,
                             verdict=_classify(traces[worst]),
                             worst_index=worst)


def field_p_psh_report(field, samples: Sequence[np.ndarray],
                       p: int) -> FieldRegionReport:
    """Sampled p-plurisubharmonicity report for a scalar field.

    ``field`` is anything :func:`~pconvex.fieldexpr.field_jets`
    differentiates (``None``, a number, or an object with ``jets``); its
    Hessians are evaluated over all samples in one call.  The global
    verdict is the worst per-sample verdict, that of the smallest trace;
    the worst sample is recorded.
    """
    pts = np.atleast_2d(np.asarray(list(samples), dtype=np.float64))
    if pts.size == 0:
        raise ValueError("need at least one sample point")
    return _region_report(p, pts, min_p_trace(field_jets(field, pts)[2], p))


def boundary_p_convexity(defining_field, boundary_samples: Sequence[np.ndarray],
                         p: int) -> FieldRegionReport:
    """p-convexity of a boundary, via tangential Hessian restriction.

    At each boundary sample of the defining function ``r`` (zero level set,
    ``r < 0`` inside), the Hessian of ``r`` is restricted to an orthonormal
    basis of the tangent space ``{v : <v, grad r> = 0}``, and the minimal
    p-trace of that ``(n-1) x (n-1)`` block is graded.

    Raises :class:`DegenerateGradient` when ``|grad r| <= 1e-8`` at a
    sample, and requires ``p <= n - 1``.
    """
    pts = np.atleast_2d(np.asarray(list(boundary_samples), dtype=np.float64))
    if pts.size == 0:
        raise ValueError("need at least one boundary sample")
    n = pts.shape[1]
    if not 1 <= p <= n - 1:
        raise ValueError(f"p must be in [1, {n - 1}] for tangential p-planes, got {p}")
    _, grads, hess = field_jets(defining_field, pts)
    gnorms = np.linalg.norm(grads, axis=1)
    raise_first(DegenerateGradient, gnorms <= 1e-8, pts, lambda i: (
        f"|grad r| = {gnorms[i]:.3e} <= 1.0e-08 on the boundary"))
    # the last n-1 right singular vectors of the unit normal (one row) are
    # an orthonormal basis of the tangent space: (m, n-1, n)
    tangent = np.linalg.svd(grads[:, None, :] / gnorms[:, None, None])[2][:, 1:]
    traces = min_p_trace(tangent @ hess @ tangent.transpose(0, 2, 1), p)
    return _region_report(p, pts, traces)


# ---------------------------------------------------------------------------
# curvature-term algebra
# ---------------------------------------------------------------------------

def index_swap_two_forms(g: PointForm) -> np.ndarray:
    """The family of 2-forms obtained by single-index swaps of ``g``.

    For each increasing multi-index ``I = (i_1 < ... < i_p)`` the associated
    2-form is::

        sum_{a=1}^{p} sum_{i=1}^{n}  g_{i_1 .. (i)_a .. i_p}  w^i ^ w^{i_a}

    where the coefficient replaces the a-th index by ``i`` under the
    antisymmetric convention (vanishing on repeats).  Returns an array of
    shape ``(C(n,p), C(n,2))``: row ``r`` holds the 2-form attached to the
    multi-index of rank ``r``.
    """
    n, p = g.n, g.p
    if n < 2:
        raise ValueError("need n >= 2 for 2-forms")
    if p < 1:
        raise ValueError("need p >= 1")
    # I = i_a K: swapping i_a for i gives (-1)^(a-1) g_{iK}, and
    # w^i ^ w^{i_a} = turn[i, i_a] e_{pair[i, i_a]}; each (I, pair) takes at
    # most one term, from the free index i not in I (g_{iK} = 0 for i in K)
    pos, sgn = _insertion_table(n, p)
    pair, turn = _insertion_table(n, 2)
    L = _lift(n, p, g.coeffs)                 # L[i, K] = g_{iK}
    a, K, i = np.nonzero((pos[:, :, None] >= 0) & (L.T[None] != 0.0)
                         & (pair.T[:, None] >= 0))
    out = np.zeros((dim_forms(n, p), dim_forms(n, 2)))
    out[pos[a, K], pair[i, a]] = sgn[a, K] * turn[i, a] * L[i, K]
    return out


def _swap_pairing(R: np.ndarray, g: PointForm) -> float:
    xis = index_swap_two_forms(g)
    return float(np.einsum("rA,AB,rB->", xis, R, xis))


@dataclass
class CurvatureBoundsReport:
    """Two-sided eigenvalue bound on the curvature term."""

    term: float
    lower: float                      # p (n-p) lambda_min |g|^2
    upper: float                      # p (n-p) lambda_max |g|^2
    lambda_min: float
    lambda_max: float
    count: int                        # p (n-p)
    ok: bool


def curvature_bounds_check(R: np.ndarray,
                           g: PointForm) -> CurvatureBoundsReport:
    """Verify ``p(n-p) l_min |g|^2 <= term <= p(n-p) l_max |g|^2``.

    ``term`` is ``sum_I <R xi_I, xi_I>`` over the swap 2-forms ``xi_I`` of
    ``g`` (:func:`index_swap_two_forms`); ``R`` is a symmetric operator on
    2-forms, given as a dense ``C(n,2) x C(n,2)`` matrix in the
    increasing-pair basis, and ``l_min``/``l_max`` are its extreme
    eigenvalues.  A non-square, non-finite or non-symmetric ``R`` raises
    :class:`ValueError`.
    """
    R = _check_symmetric(R, "R", (2,), dim_forms(g.n, 2))
    w = np.linalg.eigvalsh(0.5 * (R + R.T))
    lam, lam_top = float(w[0]), float(w[-1])
    n, p = g.n, g.p
    count = p * (n - p)
    g2 = g.inner(g)
    term = _swap_pairing(R, g)
    lower = count * lam * g2
    upper = count * lam_top * g2
    scale = 1.0 + max(abs(lower), abs(upper), abs(term))
    ok = (lower - 1e-10 * scale) <= term <= (upper + 1e-10 * scale)
    return CurvatureBoundsReport(term=term, lower=lower, upper=upper,
                                 lambda_min=lam, lambda_max=lam_top,
                                 count=count, ok=bool(ok))


def signature_count(n: int, p: int) -> int:
    """Count nonvanishing swap terms targeting a fixed multi-index.

    Brute-force enumerates all ``(I, a, i)`` with ``I`` increasing of length
    ``p``, position ``a``, free index ``i`` not in ``I``, whose swapped index
    set equals a fixed target ``J = (1, ..., p)``; each match contributes
    sign squared, i.e. one.  Asserts the count equals ``p (n - p)`` and
    returns it.
    """
    if not 1 <= p <= n:
        raise ValueError(f"p must be in [1, {n}], got {p}")
    target = frozenset(range(1, p + 1))
    count = 0
    for I in index_list(n, p):
        members = set(I)
        for a in range(p):
            for i in range(1, n + 1):
                if i in members:
                    continue
                swapped = members - {I[a]} | {i}
                if frozenset(swapped) == target:
                    count += 1     # sign^2 == 1 whenever the term survives
    expected = p * (n - p)
    if count != expected:
        raise AssertionError(
            f"signature enumeration for (n={n}, p={p}) gave {count}, expected {expected}")
    return count
