"""Weighted minimal-norm solves of ``du = f`` and the bound reports built
on them.

The solve works in the cochain spaces of a :class:`~pconvex.discrete.
CubicalComplex`: among all ``u`` with ``du = f`` the minimal solution is the
one orthogonal to ``Ker d`` in the weighted inner product, computed through
the normal equations ``(d M⁻¹ dᵀ) y = f``, ``u = M⁻¹ dᵀ y`` with diagonally
preconditioned conjugate gradients.  On top of that sit verification
reports: each one solves, integrates the predicted right-hand side, and
records whether ``lhs ≤ constant · integral`` held with the requested
slack.  The module also computes harmonic ranks (cohomology dimensions)
from the weighted cochain Laplacian and checks convexity of log-marginals
of convex densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .convexity import min_p_trace
from .discrete import (Cochain, CubicalComplex, coboundary, mass,
                       sample_cochain, weighted_adjoint)
from .errors import (CohomologyObstruction, GapAmbiguous, MembershipError,
                     NoConvergence, NotClosed, PreconditionError, TailError)
from .exterior import induced_pairings, induced_pinv
from .fieldexpr import BatchedField, field_jets, row_blocks

__all__ = [
    "MinimalSolution",
    "minimal_solution",
    "closed_form_from_potential",
    "MonotonicityRecord",
    "monotonicity_check",
    "BoundReport",
    "AprioriCheck",
    "hormander_report",
    "berndtsson_report",
    "minimal_estimate_report",
    "composite_minimal_estimate",
    "nonpsh_report",
    "CohomologyReport",
    "cohomology_rank",
    "PrekopaReport",
    "prekopa_check",
    "CombinedWeight",
    "inverse_quadform_integral",
]


# ---------------------------------------------------------------------------
# weight plumbing
# ---------------------------------------------------------------------------

class CombinedWeight(BatchedField):
    """``base + coeff * extra`` evaluated with consistent second-order jets.

    ``base`` and ``extra`` may be real constants or any weight-like input
    :func:`~pconvex.fieldexpr.field_jets` accepts (field expressions,
    piecewise weights, foreign objects with ``eval_jet2``); ``None`` stands
    for zero.  :meth:`jets` evaluates both parts over a whole point set in
    one call each, as every consumer in the package does; ``value`` and
    ``eval_jet2`` are the one-point wrappers.  Used for the solve weights
    of the two-weight bounds (``phi - alpha*psi`` and friends) and for
    constant shifts in the scaling-covariance checks.
    """

    def __init__(self, base, coeff: float = 1.0, extra=None):
        self.base = base
        self.coeff = float(coeff)
        self.extra = extra

    def jets(self, X, order: int = 2):
        """Batched values (``order=0``) or 2-jets of the sum."""
        a = field_jets(self.base, X, order)
        b = field_jets(self.extra, X, order)
        if not order:
            return a + self.coeff * b
        return tuple(u + self.coeff * w for u, w in zip(a, b))


def _combine(base, coeff: float, extra):
    """Weight ``base + coeff*extra``; returns ``base`` itself when the extra
    term is absent so downstream code paths (masses, solves) are reused
    bit for bit."""
    if extra is None or coeff == 0.0:
        return base
    return CombinedWeight(base, coeff, extra)


# ---------------------------------------------------------------------------
# minimal solution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinimalSolution:
    """Solution of ``du = f`` orthogonal to ``Ker d`` in the weighted metric.

    ``residual`` is ``‖du − f‖_M/‖f‖_M`` in the degree-p mass;
    ``harmonic_obstruction`` is the weighted norm of the part of ``f`` the
    solve could not reach (at convergence this is the harmonic component,
    below tolerance).
    """

    u: Cochain
    iterations: int
    residual: float
    harmonic_obstruction: float


def minimal_solution(cx: CubicalComplex, f: Cochain, phi, *,
                     tol: float = 1e-10, max_iter: Optional[int] = None,
                     harmonic_basis: Optional[np.ndarray] = None,
                     ) -> MinimalSolution:
    """Minimal-norm ``u`` with ``du = f`` in the weight's inner product.

    ``f`` must be closed (``‖df‖ ≤ tol·‖f‖``) and must carry no harmonic
    component.  Passing a precomputed M-orthonormal ``harmonic_basis``
    (from :func:`cohomology_rank`) measures and rejects the harmonic part
    before iterating; without one, a failed iteration triggers the eigen
    step lazily to tell :class:`CohomologyObstruction` apart from
    :class:`NoConvergence`.
    """
    p = f.p
    if not 1 <= p <= cx.n:
        raise ValueError(f"solve degree must satisfy 1 <= p <= {cx.n}")
    if f.values.size != cx.num_cells(p):
        raise ValueError("cochain length does not match the complex")
    m_tgt = mass(cx, phi, p)
    f_norm = math.sqrt(m_tgt.inner(f.values, f.values))
    n_src = cx.num_cells(p - 1)
    if f_norm == 0.0:
        return MinimalSolution(Cochain(p - 1, np.zeros(n_src)), 0, 0.0, 0.0)

    if p < cx.n:
        df = coboundary(cx, p) @ f.values
        df_norm = math.sqrt(mass(cx, phi, p + 1).inner(df, df))
        if df_norm > tol * f_norm:
            raise NotClosed(
                f"right-hand side is not closed: ‖df‖/‖f‖ = "
                f"{df_norm / f_norm:.3e} exceeds tol {tol:.1e}",
                rel_residual=df_norm / f_norm)

    fvals = f.values
    h_norm = 0.0
    if harmonic_basis is not None and harmonic_basis.size:
        h_norm, fvals = _strip_harmonic(f.values, harmonic_basis, m_tgt.diag)
        if h_norm > tol * f_norm:
            raise CohomologyObstruction(
                "right-hand side has a harmonic component of weighted norm "
                f"{h_norm:.6e} ({h_norm / f_norm:.3e} relative); du = f "
                "has no solution", obstruction_norm=h_norm)

    d = coboundary(cx, p - 1).astype(np.float64)
    m_src = mass(cx, phi, p - 1).diag
    normal = (d @ sp.diags(1.0 / m_src) @ d.T).tocsr()

    jacobi = d.power(2) @ (1.0 / m_src)
    precond = spla.LinearOperator(
        normal.shape, matvec=lambda v: v / jacobi)
    budget = max_iter if max_iter is not None else min(
        max(2000, 4 * f.values.size), 60000)
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    y, _info = spla.cg(normal, fvals, rtol=tol / 8.0, atol=0.0,
                       maxiter=budget, M=precond, callback=count)
    u = (d.T @ y) / m_src
    r = fvals - d @ u
    r_norm = math.sqrt(m_tgt.inner(r, r))
    rel = r_norm / f_norm
    if rel <= tol:
        return MinimalSolution(Cochain(p - 1, u), iters, rel,
                               max(h_norm, r_norm))

    # stagnation: the eigen step decides whether f was actually reachable
    if harmonic_basis is None:
        try:
            basis = cohomology_rank(cx, p, phi).basis
        except GapAmbiguous:
            basis = None
        if basis is not None and basis.size:
            h_norm, _ = _strip_harmonic(f.values, basis, m_tgt.diag)
            if h_norm > tol * f_norm:
                raise CohomologyObstruction(
                    "right-hand side has a harmonic component of weighted "
                    f"norm {h_norm:.6e} ({h_norm / f_norm:.3e} relative); "
                    "du = f has no solution", obstruction_norm=h_norm)
    raise NoConvergence(
        f"conjugate gradients stalled at relative residual {rel:.3e} "
        f"after {iters} iterations (budget {budget})",
        iterations=iters, residual=rel)


def _strip_harmonic(fvals: np.ndarray, basis: np.ndarray,
                    m_diag: np.ndarray) -> Tuple[float, np.ndarray]:
    """Norm of the harmonic projection and the projected-out remainder."""
    coef = basis.T @ (m_diag * fvals)
    return math.sqrt(float(coef @ coef)), fvals - basis @ coef


def closed_form_from_potential(cx: CubicalComplex, p: int,
                               potential_coeffs) -> Cochain:
    """Exactly closed degree-p cochain ``d(sampled potential)``.

    Sampling an analytic form commits an O(h²) circulation error, which the
    closedness precondition of :func:`minimal_solution` would reject; taking
    the integer coboundary of a sampled potential is closed to the last bit.
    """
    if not 1 <= p <= cx.n:
        raise ValueError(f"degree must satisfy 1 <= p <= {cx.n}")
    pot = sample_cochain(cx, p - 1, potential_coeffs)
    return Cochain(p, coboundary(cx, p - 1) @ pot.values)


# ---------------------------------------------------------------------------
# monotonicity of minimal solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityRecord:
    mode: str            # "domains" or "weights"
    lesser: float        # the side asserted to be smaller
    greater: float
    satisfied: bool
    margin: float
    residuals: Tuple[float, float]


def monotonicity_check(potential_coeffs, p: int, *,
                       domains: Optional[Tuple[CubicalComplex,
                                               CubicalComplex]] = None,
                       phi=0.0,
                       weights=None,
                       cx: Optional[CubicalComplex] = None,
                       tol: float = 1e-8) -> MonotonicityRecord:
    """Compare weighted norms of minimal solutions under growing domains or
    growing weights.

    Domain mode (``domains=(inner, outer)``): the inner solve's weighted
    norm must not exceed the outer's.  Weight mode (``weights=(lo, hi)`` on
    one complex ``cx`` with ``lo ≤ hi`` pointwise): the hi-weight norm must
    not exceed the lo-weight norm.  The right-hand side is ``d`` of the
    sampled potential so it is exactly closed on every complex involved.
    """
    if (domains is None) == (weights is None):
        raise ValueError("pass exactly one of domains= or weights=")
    if domains is not None:
        inner, outer = domains
        if inner.n != outer.n:
            raise PreconditionError(
                f"inner complex is {inner.n}-dimensional but the outer "
                f"complex is {outer.n}-dimensional")
        for lo, hi, lo2, hi2 in (ax + ax2 for ax, ax2 in
                                 zip(inner.dom.box, outer.dom.box)):
            if lo < lo2 - 1e-12 or hi > hi2 + 1e-12:
                raise PreconditionError(
                    "inner box is not contained in the outer box")
        sols = [minimal_solution(c, closed_form_from_potential(
            c, p, potential_coeffs), phi) for c in (inner, outer)]
        norms = [mass(c, phi, p - 1).inner(s.u.values, s.u.values)
                 for c, s in zip((inner, outer), sols)]
        lesser, greater = norms
        mode = "domains"
    else:
        if cx is None:
            raise ValueError("weight mode needs the complex as cx=")
        lo_w, hi_w = weights
        X = cx.barycenters(p)
        bad = np.flatnonzero(field_jets(lo_w, X, order=0)
                             > field_jets(hi_w, X, order=0) + 1e-12)
        if bad.size:
            raise PreconditionError(
                f"weights are not ordered at {np.round(X[bad[0]], 6)}")
        f = closed_form_from_potential(cx, p, potential_coeffs)
        sols = [minimal_solution(cx, f, w) for w in (lo_w, hi_w)]
        norms = [mass(cx, w, p - 1).inner(s.u.values, s.u.values)
                 for w, s in zip((lo_w, hi_w), sols)]
        lesser, greater = norms[1], norms[0]
        mode = "weights"
    satisfied = lesser <= greater * (1.0 + tol) + tol
    return MonotonicityRecord(mode, lesser, greater, satisfied,
                              greater - lesser,
                              (sols[0].residual, sols[1].residual))


# ---------------------------------------------------------------------------
# node-assembled quadratures
# ---------------------------------------------------------------------------

def _node_components(cx: CubicalComplex, f: Cochain) -> np.ndarray:
    """Per-node component vectors of a p-cochain, lex-ordered.

    A p-cell's coefficient (cochain value over the spanned volume) is
    averaged onto its 2^p corner nodes; staggered averaging is O(h²)
    accurate, and nodes are the only locations where every component of
    the form is available simultaneously.
    """
    p = f.p
    G = np.zeros((cx.num_cells(0), math.comb(cx.n, p)))
    hits = np.zeros_like(G)
    # corners from (1, …, 1) down to (0, …, 0): each node then adds its
    # cells by increasing row, the order of a per-cell loop
    corners = list(np.ndindex((2,) * p))[::-1]
    for k, (axes, rows) in enumerate(cx.blocks(p)):
        anchors = cx.anchors[p][rows]
        coeff = f.values[rows] / math.prod(cx.dom.spacings[a] for a in axes)
        for pick in corners:
            offset = np.zeros(cx.n, dtype=np.intp)
            offset[list(axes)] = pick
            node = cx.ids[()][tuple((anchors + offset).T)]
            np.add.at(G[:, k], node, coeff)
            np.add.at(hits[:, k], node, 1.0)
    np.divide(G, hits, out=G, where=hits > 0)
    return G


def _node_quadrature(cx: CubicalComplex, g: Cochain, theta, weight,
                     integrand) -> float:
    """Node quadrature of ``integrand(X, D²theta, G)·e^{-weight}``, where
    ``G`` holds the node component vectors of ``g`` at the points ``X``.

    Only nodes where some component exceeds 1e-14 of the largest one take
    part (a node where all vanish contributes nothing), in blocks of rows;
    ``integrand`` returns one value per row of its block.
    """
    G = _node_components(cx, g)
    dual = mass(cx, 0.0, 0).diag
    g_max = float(np.abs(G).max()) if G.size else 0.0
    if g_max == 0.0:
        return 0.0
    support = np.flatnonzero(np.abs(G).max(axis=1) > 1e-14 * g_max)
    nodes = cx.barycenters(0)
    total = 0.0
    for rows in row_blocks(support.size):
        idx = support[rows]
        X = nodes[idx]
        hess = field_jets(theta, X)[2]
        dens = np.exp(-field_jets(weight, X, order=0))
        total += float(np.dot(integrand(X, hess, G[idx]) * dens, dual[idx]))
    return total


def inverse_quadform_integral(cx: CubicalComplex, f: Cochain, theta, weight,
                              *, kernel_tol: float = 1e-12,
                              membership_tol: float = 1e-8) -> float:
    """Node quadrature of ``⟨F_theta⁻¹ f, f⟩ e^{-weight}``.

    ``theta`` supplies the Hessian defining the induced quadratic form at
    each node.  Nodes where every component of ``f`` vanishes contribute
    nothing and skip the membership check, so a degenerate form away from
    the support is harmless; on the support a component outside the image
    aborts with the first such node's location attached.
    """
    def inverse_pairings(X, hess, F):
        try:
            sol = induced_pinv(hess, F, f.p, kernel_tol=kernel_tol,
                               membership_tol=membership_tol)
        except MembershipError as exc:
            raise MembershipError(
                f"at quadrature node {np.round(X[exc.row], 6)}: {exc}",
                residual=exc.residual,
                rel_residual=exc.rel_residual) from exc
        return np.einsum("ia,ia->i", sol, F)

    return _node_quadrature(cx, f, theta, weight, inverse_pairings)


def _pairing_integral(cx: CubicalComplex, g: Cochain, theta, weight) -> float:
    """Node quadrature of ``⟨F_theta g, g⟩ e^{-weight}`` (no inversion)."""
    return _node_quadrature(cx, g, theta, weight,
                            lambda X, hess, G: induced_pairings(hess, G, g.p))


def _modified_norm(cx: CubicalComplex, u: np.ndarray, weight,
                   modifier: Optional[Callable[[np.ndarray], np.ndarray]],
                   p: int) -> float:
    """``Σ modifier(bary)·u²·e^{-weight(bary)}·(dual volume)`` over p-cells,
    with ``modifier`` evaluated on all barycenters at once; with no
    modifier this is exactly the weighted mass norm."""
    md = mass(cx, weight, p).diag
    if modifier is None:
        return float(np.dot(u, md * u))
    return float(np.dot(u, md * modifier(cx.barycenters(p)) * u))


# ---------------------------------------------------------------------------
# precondition checks shared by the reports
# ---------------------------------------------------------------------------

def _require_p_positive(points: np.ndarray,
                        mats: Callable[[np.ndarray], np.ndarray], p: int,
                        label: str, tol: float = 1e-8) -> None:
    """The matrices ``mats(X)`` builds for each block ``X`` of ``points``
    must be p-positive semidefinite, up to ``tol`` times their largest
    entry plus one.

    Blocks are checked in row order, so the error names the first failing
    point; each block's stack is reduced before the next is built.
    """
    for rows in row_blocks(len(points)):
        X = points[rows]
        a = mats(X)
        traces = min_p_trace(a, p)
        scale = np.abs(a).max(axis=(1, 2)) + 1.0
        bad = np.flatnonzero(traces < -tol * scale)
        if bad.size:
            i = bad[0]
            raise PreconditionError(
                f"{label} is not {p}-positive at {np.round(X[i], 6)}: "
                f"min {p}-trace {traces[i]:.3e}")


def _hessian(w):
    """Block builder of ``D²w`` for :func:`_require_p_positive`."""
    return lambda X: field_jets(w, X)[2]


def _neg_exp_hessian(w):
    """Block builder of ``D²w − ∇w⊗∇w``, the Hessian of ``-e^{-w}`` up to
    the positive factor ``e^{-w}``, which is kept so that the tolerance
    scales as for the Hessian itself."""
    def mats(X):
        v, g, h = field_jets(w, X)
        return np.exp(-v)[:, None, None] * (h - np.einsum("mi,mj->mij", g, g))
    return mats


def _shifted_hessian(curved, tilt, omega):
    """Block builder of ``omega²·D²curved − ∇tilt⊗∇tilt``."""
    def mats(X):
        h = field_jets(curved, X)[2]
        g = field_jets(tilt, X)[1]
        om = field_jets(omega, X, order=0)
        return (om * om)[:, None, None] * h - np.einsum("mi,mj->mij", g, g)
    return mats


def _check_omega_range(cx: CubicalComplex, omega, p: int,
                       upper: float) -> None:
    X = np.concatenate([cx.barycenters(p), cx.barycenters(0)])
    om = field_jets(omega, X, order=0)
    bad = np.flatnonzero(~((0.0 <= om) & (om < upper)))
    if bad.size:
        i = bad[0]
        raise PreconditionError(
            f"omega must satisfy 0 <= omega < {upper}; got {om[i]:.6g} "
            f"at {np.round(X[i], 6)}")


def _check_omega_on_support(cx: CubicalComplex, f: Cochain, omega,
                            alpha: float) -> None:
    mag = np.abs(_node_components(cx, f)).max(axis=1)
    X = cx.barycenters(0)[mag > 1e-12 * mag.max()]
    om = field_jets(omega, X, order=0)
    bad = np.flatnonzero(om > alpha + 1e-12)
    if bad.size:
        i = bad[0]
        raise PreconditionError(
            f"omega = {om[i]:.6g} exceeds alpha = {alpha:.6g} on the "
            f"support of f at {np.round(X[i], 6)}")


# ---------------------------------------------------------------------------
# bound reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AprioriCheck:
    """Sampled apriori check: worst ratio of the predicted lower bound to
    the measured left-hand side over random coexact test cochains."""

    sigma: float
    worst_ratio: float
    samples: int
    label: str = "sampled apriori check"


@dataclass(frozen=True)
class BoundReport:
    """One verified estimate: ``lhs ≤ rhs`` expected, where ``rhs`` already
    includes the predicted constant (``rhs = constant · integral``)."""

    test: str
    lhs: float
    rhs: float
    constant: float
    integral: float
    slack: float
    h: float
    vacuous: bool
    solve: MinimalSolution
    apriori: Optional[AprioriCheck] = None

    @property
    def ratio(self) -> float:
        return 0.0 if self.vacuous else self.lhs / self.rhs

    @property
    def passed(self) -> bool:
        return bool(self.vacuous or self.ratio <= 1.0 + self.slack)

    def record(self) -> dict:
        sol = self.solve
        return {"test": self.test, "lhs": self.lhs, "rhs": self.rhs,
                "constant": self.constant, "ratio": self.ratio, "h": self.h,
                "iterations": sol.iterations, "residual": sol.residual,
                "harmonic_obstruction": sol.harmonic_obstruction,
                "num_cells": sol.u.values.size, "pass": self.passed}


def _assemble_report(test: str, cx: CubicalComplex, lhs: float,
                     integral: float, constant: float, slack: float,
                     sol: MinimalSolution,
                     apriori: Optional[AprioriCheck] = None) -> BoundReport:
    lhs, integral = float(lhs), float(integral)
    return BoundReport(test=test, lhs=lhs, rhs=constant * integral,
                       constant=float(constant), integral=integral,
                       slack=float(slack), h=cx.dom.h,
                       vacuous=(integral == 0.0), solve=sol,
                       apriori=apriori)


def hormander_report(cx: CubicalComplex, f: Cochain, phi, p: int, *,
                     slack: float = 0.05, tol: float = 1e-10,
                     membership_tol: float = 1e-8) -> BoundReport:
    """Baseline estimate: ``‖u‖²_φ ≤ ∫⟨F_φ⁻¹f, f⟩e^{−φ}`` (constant 1) for
    the minimal solution under a p-plurisubharmonic weight."""
    if f.p != p:
        raise ValueError("cochain degree does not match p")
    _require_p_positive(cx.barycenters(p), _hessian(phi), p, "D²phi")
    sol = minimal_solution(cx, f, phi, tol=tol)
    lhs = _modified_norm(cx, sol.u.values, phi, None, p - 1)
    integral = inverse_quadform_integral(cx, f, phi, phi,
                                         membership_tol=membership_tol)
    return _assemble_report("hormander", cx, lhs, integral, 1.0, slack, sol)


def berndtsson_report(cx: CubicalComplex, f: Cochain, phi, psi, alpha: float,
                      p: int, *, slack: float = 0.05, tol: float = 1e-10,
                      membership_tol: float = 1e-8, apriori_samples: int = 3,
                      rng=None) -> BoundReport:
    """Two-weight estimate with constant ``4/(1−α)²``.

    Solves minimally in the weight ``φ − αψ`` (isometric to the twisted
    scheme of the underlying proof) and compares against
    ``∫⟨F_ψ⁻¹f, f⟩e^{−φ+αψ}``.  Requires ``φ`` p-plurisubharmonic and
    ``−e^{−ψ}`` p-plurisubharmonic.  Also runs the sampled apriori check
    with ``σ = (1−α)/2`` on random coexact cochains.
    """
    if not 0.0 <= alpha < 1.0:
        raise PreconditionError(f"alpha must lie in [0, 1); got {alpha}")
    if f.p != p:
        raise ValueError("cochain degree does not match p")
    bary = cx.barycenters(p)
    _require_p_positive(bary, _hessian(phi), p, "D²phi")
    _require_p_positive(bary, _neg_exp_hessian(psi), p,
                        "the Hessian of -exp(-psi)")
    w_solve = _combine(phi, -alpha, psi)
    sol = minimal_solution(cx, f, w_solve, tol=tol)
    lhs = _modified_norm(cx, sol.u.values, w_solve, None, p - 1)
    integral = inverse_quadform_integral(cx, f, psi, w_solve,
                                         membership_tol=membership_tol)
    sigma = (1.0 - alpha) / 2.0
    apriori = _apriori_check(cx, phi, psi, sigma, p,
                             samples=apriori_samples, rng=rng)
    return _assemble_report("berndtsson", cx, lhs, integral,
                            4.0 / (1.0 - alpha) ** 2, slack, sol, apriori)


def _apriori_check(cx: CubicalComplex, phi, psi, sigma: float, p: int, *,
                   samples: int = 3, rng=None) -> AprioriCheck:
    """``‖δ_{φ+σψ}g‖²_{φ+ψ} + ‖dg‖²_{φ+ψ} ≥ σ²∫⟨F_ψ g,g⟩e^{−φ−ψ}`` on
    random coexact p-cochains (the quantifier over all of ``Dom(d*)`` is
    sampled, not proved)."""
    rng = np.random.default_rng(0) if rng is None else rng
    w_plus = _combine(phi, 1.0, psi)
    w_twist = _combine(phi, sigma, psi)
    worst = 0.0
    done = 0
    for _ in range(samples):
        if p < cx.n:
            raw = rng.standard_normal(cx.num_cells(p + 1))
            g = Cochain(p, weighted_adjoint(cx, w_plus, p + 1) @ raw)
        else:
            g = Cochain(p, rng.standard_normal(cx.num_cells(p)))
        if not np.any(g.values):
            continue
        dg_part = 0.0
        if p < cx.n:
            dg = coboundary(cx, p) @ g.values
            dg_part = mass(cx, w_plus, p + 1).inner(dg, dg)
        cg = weighted_adjoint(cx, w_twist, p) @ g.values
        lhs_g = mass(cx, w_plus, p - 1).inner(cg, cg) + dg_part
        rhs_g = sigma ** 2 * _pairing_integral(cx, g, psi, w_plus)
        if lhs_g > 0.0:
            worst = max(worst, rhs_g / lhs_g)
            done += 1
    return AprioriCheck(sigma=sigma, worst_ratio=worst, samples=done)


def minimal_estimate_report(cx: CubicalComplex, f: Cochain, phi, psi, omega,
                            alpha: float, p: int, *, slack: float = 0.05,
                            tol: float = 1e-10,
                            membership_tol: float = 1e-8) -> BoundReport:
    """Estimate for the φ-minimal solution with constant ``(1+α)/(1−α)``:
    ``∫(1−ω²)|u|²e^{−φ+ψ} ≤ ((1+α)/(1−α))∫⟨F_ψ⁻¹f,f⟩e^{−φ+ψ}``.

    Requires ``ω²D²ψ − ∇ψ⊗∇ψ`` p-positive semidefinite, ``0 ≤ ω < 1``
    everywhere, and ``ω ≤ α`` on the support of ``f``.  The solve weight is
    plain ``φ``; ``ψ`` enters only through the comparison densities.
    """
    if not 0.0 <= alpha < 1.0:
        raise PreconditionError(f"alpha must lie in [0, 1); got {alpha}")
    if f.p != p:
        raise ValueError("cochain degree does not match p")
    bary = cx.barycenters(p)
    _require_p_positive(bary, _hessian(phi), p, "D²phi")
    _check_omega_range(cx, omega, p, 1.0)
    _require_p_positive(bary, _shifted_hessian(psi, psi, omega), p,
                        "omega²·D²psi − ∇psi⊗∇psi")
    _check_omega_on_support(cx, f, omega, alpha)
    sol = minimal_solution(cx, f, phi, tol=tol)
    w_cmp = _combine(phi, -1.0, psi)
    lhs = _modified_norm(
        cx, sol.u.values, w_cmp,
        lambda X: 1.0 - field_jets(omega, X, order=0) ** 2, p - 1)
    integral = inverse_quadform_integral(cx, f, psi, w_cmp,
                                         membership_tol=membership_tol)
    return _assemble_report("minimal-estimate", cx, lhs, integral,
                            (1.0 + alpha) / (1.0 - alpha), slack, sol)


def composite_minimal_estimate(cx: CubicalComplex, f: Cochain, phi, psi0,
                               alpha0: float, p: int, *, slack: float = 0.05,
                               tol: float = 1e-10,
                               membership_tol: float = 1e-8,
                               ) -> Tuple[BoundReport, BoundReport]:
    """Scaled-weight route to the two-weight bound: apply the minimal
    estimate with ``ψ = α₀ψ₀`` and constant test function ``ω ≡ √α₀``, then
    restate it as ``‖u‖²_{φ−α₀ψ₀} ≤ 1/(α₀(1−√α₀)²)·∫⟨F_{ψ₀}⁻¹f,f⟩
    e^{−φ+α₀ψ₀}``.  Returns (base report, composite report); both use the
    same φ-minimal solution.
    """
    if not 0.0 < alpha0 < 1.0:
        raise PreconditionError(f"alpha0 must lie in (0, 1); got {alpha0}")
    _require_p_positive(cx.barycenters(p), _neg_exp_hessian(psi0), p,
                        "the Hessian of -exp(-psi0)")
    root = math.sqrt(alpha0)
    psi_scaled = CombinedWeight(None, alpha0, psi0)
    base = minimal_estimate_report(cx, f, phi, psi_scaled, root, root, p,
                                   slack=slack, tol=tol,
                                   membership_tol=membership_tol)
    w_cmp = _combine(phi, -alpha0, psi0)
    lhs = _modified_norm(cx, base.solve.u.values, w_cmp, None, p - 1)
    integral = inverse_quadform_integral(cx, f, psi0, w_cmp,
                                         membership_tol=membership_tol)
    constant = 1.0 / (alpha0 * (1.0 - root) ** 2)
    composite = _assemble_report("minimal-estimate-composite", cx, lhs,
                                 integral, constant, slack, base.solve)
    return base, composite


def nonpsh_report(cx: CubicalComplex, f: Cochain, phi, psi, omega,
                  alpha: float, p: int, *, slack: float = 0.05,
                  tol: float = 1e-10,
                  membership_tol: float = 1e-8) -> BoundReport:
    """Estimate tolerating a non-plurisubharmonic total weight.

    Solves minimally in ``φ − ψ/2``.  With a varying ``omega`` (requires
    ``ω²D²φ − ∇ψ⊗∇ψ`` p-positive semidefinite, ``0 ≤ ω < 2``, ``ω ≤ α`` on
    supp f): ``∫(1−ω²/4)|u|²e^{−φ+ψ} ≤ ((2+α)/(2−α))∫⟨F_φ⁻¹f,f⟩e^{−φ+ψ}``.
    With ``omega=None`` (requires ``α²D²φ − ∇ψ⊗∇ψ`` p-positive
    semidefinite): ``‖u‖²_{φ−ψ} ≤ (4/(2−α)²)∫⟨F_φ⁻¹f,f⟩e^{−φ+ψ}``.
    With ``psi=None`` and ``alpha=0`` both variants reduce to the baseline
    report, reproducing its numbers exactly.
    """
    if not 0.0 <= alpha < 2.0:
        raise PreconditionError(f"alpha must lie in [0, 2); got {alpha}")
    if f.p != p:
        raise ValueError("cochain degree does not match p")
    bary = cx.barycenters(p)
    _require_p_positive(bary, _hessian(phi), p, "D²phi")
    if omega is not None:
        _check_omega_range(cx, omega, p, 2.0)
    _require_p_positive(
        bary, _shifted_hessian(phi, psi, alpha if omega is None else omega),
        p, "omega²·D²phi − ∇psi⊗∇psi")
    w_solve = _combine(phi, -0.5, psi)
    w_cmp = _combine(phi, -1.0, psi)
    if omega is None:
        sol = minimal_solution(cx, f, w_solve, tol=tol)
        lhs = _modified_norm(cx, sol.u.values, w_cmp, None, p - 1)
        constant = 4.0 / (2.0 - alpha) ** 2
        label = "nonpsh-constant"
    else:
        _check_omega_on_support(cx, f, omega, alpha)
        sol = minimal_solution(cx, f, w_solve, tol=tol)
        lhs = _modified_norm(
            cx, sol.u.values, w_cmp,
            lambda X: 1.0 - field_jets(omega, X, order=0) ** 2 / 4.0, p - 1)
        constant = (2.0 + alpha) / (2.0 - alpha)
        label = "nonpsh"
    integral = inverse_quadform_integral(cx, f, phi, w_cmp,
                                         membership_tol=membership_tol)
    return _assemble_report(label, cx, lhs, integral, constant, slack, sol)


# ---------------------------------------------------------------------------
# cohomology via the weighted Laplacian
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohomologyReport:
    """Dimension and basis of the weighted harmonic space in one degree."""

    p: int
    rank: int
    basis: np.ndarray        # columns are harmonic cochains, M-orthonormal
    eigenvalues: np.ndarray  # the head inspected: 6 from one symmetric
                             # shift-invert factor, n_eigs if 6 were harmonic
    floor: float             # floor_factor times the largest |row sum|


def _laplacian_matrix(cx: CubicalComplex, phi, p: int) -> Tuple[sp.csr_matrix,
                                                                np.ndarray]:
    """Symmetrized weighted Laplacian on p-cochains: similar to
    ``dδ + δd`` via conjugation with ``sqrt(M_p)``."""
    m_p = mass(cx, phi, p).diag
    w = np.sqrt(m_p)
    n_p = cx.num_cells(p)
    lap = sp.csr_matrix((n_p, n_p))
    if p < cx.n:
        d = coboundary(cx, p).astype(np.float64) @ sp.diags(1.0 / w)
        lap = lap + d.T @ sp.diags(mass(cx, phi, p + 1).diag) @ d
    if p > 0:
        d = coboundary(cx, p - 1).astype(np.float64)
        inner = d @ sp.diags(1.0 / mass(cx, phi, p - 1).diag) @ d.T
        lap = lap + sp.diags(w) @ inner @ sp.diags(w)
    lap = (lap + lap.T) * 0.5
    return lap.tocsr(), w


def cohomology_rank(cx: CubicalComplex, p: int, phi=0.0, *,
                    n_eigs: int = 30, floor_factor: float = 1e-7,
                    gap_factor: float = 10.0,
                    check_weights: Sequence = ()) -> CohomologyReport:
    """Dimension of the degree-p harmonic space (the p-th Betti number).

    Counts eigenvalues of the weighted cochain Laplacian below
    ``floor_factor`` times its largest absolute row sum; any eigenvalue in
    the ambiguity band between the floor and ``gap_factor`` times the floor
    raises :class:`GapAmbiguous` rather than guessing.  The head comes from
    shift-invert Lanczos on one symmetric factor from a fixed start vector:
    six eigenvalues, grown to ``n_eigs`` when all six are harmonic, or the
    dense spectrum with at most ``2·n_eigs`` cells.  ``check_weights``
    re-runs the count under alternative weights and demands the same rank
    (the harmonic dimension is a topological invariant; the basis is not).
    """
    if not 0 <= p <= cx.n:
        raise ValueError(f"degree must satisfy 0 <= p <= {cx.n}")
    lap, w = _laplacian_matrix(cx, phi, p)
    n_p = lap.shape[0]
    scale = float(abs(lap).sum(axis=1).max()) if n_p else 0.0
    floor = floor_factor * max(scale, 1e-300)
    if n_p <= 2 * n_eigs:
        eigvals, eigvecs = np.linalg.eigh(lap.toarray())
    else:
        shift = -1e-3 * float(lap.diagonal().max())
        lu = spla.splu((lap - shift * sp.identity(n_p)).tocsc(),
                       permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        op_inv = spla.LinearOperator(lap.shape, lu.solve, dtype=np.float64)
        v0 = np.random.default_rng(0).standard_normal(n_p)
        for k in sorted({min(6, n_eigs, n_p - 2), min(n_eigs, n_p - 2)}):
            eigvals, eigvecs = spla.eigsh(lap, k=k, sigma=shift, which="LM",
                                          OPinv=op_inv, v0=v0)
            if eigvals.max() > floor:
                break
        order = np.argsort(eigvals)
        eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    in_band = (eigvals > floor) & (eigvals < gap_factor * floor)
    if np.any(in_band):
        raise GapAmbiguous(
            f"eigenvalue {float(eigvals[in_band][0]):.3e} sits in the "
            f"ambiguity band ({floor:.3e}, {gap_factor * floor:.3e}); "
            "no clear spectral gap")
    tiny = eigvals <= floor
    rank = int(tiny.sum())
    if rank == eigvals.size < n_p:
        raise GapAmbiguous(
            "every computed eigenvalue is below the floor; raise n_eigs")
    basis = eigvecs[:, tiny] / w[:, None]
    report = CohomologyReport(p=p, rank=rank, basis=basis,
                              eigenvalues=eigvals[:n_eigs], floor=floor)
    for other in check_weights:
        alt = cohomology_rank(cx, p, other, n_eigs=n_eigs,
                              floor_factor=floor_factor,
                              gap_factor=gap_factor)
        if alt.rank != rank:
            raise GapAmbiguous(
                f"harmonic rank changed under reweighting: {rank} vs "
                f"{alt.rank}; spectral split is not trustworthy")
    return report


# ---------------------------------------------------------------------------
# convexity of log-marginals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrekopaReport:
    """Second differences of the negative log-marginal at the x samples."""

    convex_input: bool
    skipped: bool
    x_samples: np.ndarray
    marginal: np.ndarray        # tilde-phi at the x samples
    second_diffs: np.ndarray    # (samples, x_dim)
    min_second_diff: float
    tol: float

    @property
    def passed(self) -> bool:
        return (not self.skipped) and self.min_second_diff >= -self.tol


def prekopa_check(phi_joint, x_samples, y_box, *, x_dim: int = 1,
                  y_points: int = 601, delta: float = 0.1,
                  tol: float = 1e-6, tail_tol: float = 1e-12,
                  convexity_tol: float = 1e-10) -> PrekopaReport:
    """Convexity check of ``-log ∫ e^{-phi(x,y)} dy`` by quadrature.

    The joint weight must be convex (sampled Hessians); a non-convex input
    flags the precondition and skips the check instead of raising.  The y
    integral uses a midpoint lattice over ``y_box``; if the density on the
    outermost lattice shell exceeds ``tail_tol`` times its maximum the box
    is too small and :class:`TailError` is raised.  Convexity of the
    marginal is then asserted through second central differences with step
    ``delta`` (exact for quadratic joints) at every x sample.
    """
    xs = np.atleast_2d(np.asarray(x_samples, dtype=np.float64))
    if xs.shape[1] != x_dim:
        xs = xs.reshape(-1, x_dim)
    y_box = tuple((float(lo), float(hi)) for lo, hi in y_box)
    y_dim = len(y_box)

    mids = [lo + (hi - lo) * (np.arange(y_points) + 0.5) / y_points
            for lo, hi in y_box]
    grids = np.meshgrid(*mids, indexing="ij")
    ys = np.stack([g.ravel() for g in grids], axis=1)
    cell = math.prod((hi - lo) / y_points for lo, hi in y_box)
    on_edge = np.zeros(ys.shape[0], dtype=bool)
    for a, m in enumerate(mids):
        coord = ys[:, a]
        on_edge |= (coord == m[0]) | (coord == m[-1])

    # sampled convexity of the joint weight
    probe_x = np.unique(np.concatenate(
        [xs + delta * sign * np.eye(x_dim)[i]
         for i in range(x_dim) for sign in (-1.0, 0.0, 1.0)]), axis=0)
    probe_y = ys[:: max(1, ys.shape[0] // 9)]
    probes = np.array([np.concatenate([px, py])
                       for px in probe_x for py in probe_y])
    hess = field_jets(phi_joint, probes)[2]
    scale = np.abs(hess).max(axis=(1, 2)) + 1.0
    if np.any(np.linalg.eigvalsh(hess)[:, 0] < -convexity_tol * scale):
        return PrekopaReport(False, True, xs, np.array([]),
                             np.zeros((0, x_dim)), math.nan, tol)

    def marginal(px: np.ndarray) -> float:
        vals = field_jets(phi_joint, np.hstack(
            [np.broadcast_to(px, (ys.shape[0], x_dim)), ys]), order=0)
        base = float(vals.min())
        dens = np.exp(-(vals - base))
        if float(dens[on_edge].max()) > tail_tol * float(dens.max()):
            raise TailError(
                f"density on the quadrature boundary is "
                f"{float(dens[on_edge].max()) / float(dens.max()):.3e} of "
                f"its maximum at x = {np.round(px, 6)}; enlarge y_box")
        return base - math.log(float(dens.sum()) * cell)

    center = np.array([marginal(px) for px in xs])
    second = np.empty((xs.shape[0], x_dim))
    for i in range(x_dim):
        step = delta * np.eye(x_dim)[i]
        for j, px in enumerate(xs):
            second[j, i] = (marginal(px + step) - 2.0 * center[j]
                            + marginal(px - step)) / delta ** 2
    return PrekopaReport(True, False, xs, center, second,
                         float(second.min()), tol)
