"""Weighted minimal-norm solves of ``du = f`` and the bound reports built
on them.

The solve works in the cochain spaces of a :class:`~pconvex.discrete.
CubicalComplex`: among all ``u`` with ``du = f`` the minimal solution is the
one orthogonal to ``Ker d`` in the weighted inner product: in degree 1
the primitive of ``f`` less its weighted mean on each component, else
LSMR on the mass-scaled coboundary ``M_p^{1/2} d M_{p−1}^{−1/2}``, whose
Krylov iterates are minimal-norm by construction.  On top of that sit
verification reports: each one takes p from its datum ``f``, solves,
integrates the predicted right-hand side, and records whether ``lhs ≤
constant · integral`` held with the fixed slack of 5 %.  The module
compares minimal solutions on nested domains and under ordered weights,
counts Betti numbers, the
dimensions of the weighted harmonic spaces, from the complex, and checks
convexity of log-marginals of convex densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .convexity import min_p_trace
from .discrete import (Cochain, CubicalComplex, WeightedMass, _LazyModule,
                       _apply_d, _barycenter_rows, coboundary, mass,
                       sample_cochain, weighted_adjoint)
from .errors import (CohomologyObstruction, DomainError, MembershipError,
                     NoConvergence, NotClosed, PreconditionError, TailError,
                     raise_first)
from .exterior import induced_pairings, induced_pinv
from .fieldexpr import (BLOCK_ROWS, BatchedField, field_jets, field_kind,
                        row_blocks)

__all__ = [
    "MinimalSolution",
    "minimal_solution",
    "closed_form_from_potential",
    "MonotonicityRecord",
    "domain_monotonicity",
    "weight_monotonicity",
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

spla = _LazyModule("scipy.sparse.linalg")

_TOL = 1e-10     # relative weighted residual of every solve
_SLACK = 0.05    # a bound report passes with lhs/rhs <= 1 + _SLACK


# ---------------------------------------------------------------------------
# weight plumbing
# ---------------------------------------------------------------------------

class CombinedWeight(BatchedField):
    """``base + coeff * extra`` evaluated with consistent second-order jets.

    ``base`` and ``extra`` are fields (see
    :func:`~pconvex.fieldexpr.field_jets`; ``None`` is zero).  :meth:`jets`
    evaluates both parts over a whole point set in one call each, as every
    consumer in the package does; ``value`` and ``eval_jet2`` are the
    one-point wrappers.  Used for the solve weights of the two-weight
    bounds (``phi - alpha*psi`` and friends) and for constant shifts in
    the scaling-covariance checks.
    """

    def __init__(self, base, coeff: float, extra):
        self.base = base
        self.coeff = float(coeff)
        self.extra = extra

    def jets(self, X, order: int = 2):
        """Batched values (``order=0``) or 2-jets of the sum; a derivative
        has leading axis 1 when both parts' do, else m."""
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

    ``method`` is ``"primitive"`` (no iterations: the degree-1 primitive,
    or ``u = 0`` for ``f = 0``) or ``"lsmr"``; ``iterations`` counts LSMR
    iterations; ``residual`` is ``‖du − f‖_M/‖f‖_M`` in the degree-p mass;
    ``harmonic_obstruction`` is the weighted norm of the part of ``f`` the
    solve could not reach (at convergence this is the harmonic component,
    below tolerance).  ``weight`` is the weight of the solve and
    ``source_mass`` its degree-(p−1) mass, so that a caller in the same
    weight builds that mass once.
    """

    u: Cochain
    iterations: int
    residual: float
    harmonic_obstruction: float
    method: str
    weight: object = field(repr=False, compare=False)
    source_mass: WeightedMass = field(repr=False, compare=False)


def _forest_primitive(cx: CubicalComplex, f: np.ndarray,
                      m0: np.ndarray) -> np.ndarray:
    """``u`` with ``du = f`` on a spanning forest of the 1-skeleton, less its
    ``m0``-weighted mean on each component.

    On a box (no ``r``) a node's parent is its lower neighbour along the
    first axis that has one: ``u`` is summed along each axis, last to first,
    where the earlier axes are 0, and its mean in row order as below (a dot
    product changes its last bits).  Elsewhere ``u`` is a ``cumsum`` of
    ``f`` within each run of :func:`_runs` from its first node; each kept
    link rises by its ``f`` less the difference of those sums at its ends,
    and :func:`_hook` carries the runs' potentials to their roots.
    """
    if cx.dom.r is None:
        counts = cx.dom.counts
        u = np.zeros([m + 1 for m in counts])
        for (a,), rows in reversed(list(cx.blocks(1))):
            f_a = f[rows].reshape([m + (i != a) for i, m in enumerate(counts)])
            line, f_a = u[(0,) * a], f_a[(0,) * a]
            line[1:] = line[:1] + np.cumsum(f_a, axis=0)
        u, labels = u.ravel(), np.zeros(u.size, np.intp)
        return u - np.bincount(labels, m0 * u)[0] / np.bincount(labels, m0)[0]
    ids, node = cx.ids, cx.ids[()] >= 0
    starts, label, kept, lo, hi = _runs(
        node, [ids[(a,)] >= 0 for a in range(cx.n)])
    last, w = ids[(cx.n - 1,)], np.zeros(node.shape)
    np.cumsum(np.where(last >= 0, f[last], 0.0), axis=-1, out=w[..., 1:])
    w -= w.flat[starts][label]
    rise = np.concatenate([np.zeros(0)] + [
        f[ids[(a,)][k]] - np.diff(w, axis=a)[k] for a, k in enumerate(kept)])
    parent, offset = _hook(starts.size, lo, hi, rise)
    run = label[node]
    labels = np.unique(parent, return_inverse=True)[1][run]
    u = offset[run] + w[node]
    mean = np.bincount(labels, m0 * u) / np.bincount(labels, m0)
    return u - mean[labels]


def _check_cochain(cx: CubicalComplex, f: Cochain) -> None:
    """Raise ValueError unless ``f`` has a degree from 1 to n and one value
    per cell of that degree."""
    if not 1 <= f.p <= cx.n:
        raise ValueError(f"cochain degree must satisfy 1 <= p <= {cx.n}; "
                         f"got {f.p}")
    if f.values.size != cx.num_cells(f.p):
        raise ValueError(f"cochain has {f.values.size} values for "
                         f"{cx.num_cells(f.p)} {f.p}-cells")


def minimal_solution(cx: CubicalComplex, f: Cochain, phi) -> MinimalSolution:
    """Minimal-norm ``u`` with ``du = f`` in the weight's inner product.

    ``f`` must be closed (``‖df‖ ≤ 1e-10·‖f‖``) and must carry no harmonic
    component.  For ``p = 1``, ``Ker d`` is the locally constant functions,
    so ``f``'s primitive less its weighted mean on each component is the
    minimal solution; it is returned when its residual meets 1e-10 (else
    ``f`` has a harmonic part, which LSMR measures).  Otherwise one LSMR
    solve on the mass-scaled coboundary ``D̃ = M_p^{1/2} d M_{p−1}^{−1/2}``
    with right-hand side ``M_p^{1/2} f`` gives ``v``, and
    ``u = M_{p−1}^{−1/2} v``.  LSMR's iterates stay in ``range(D̃ᵀ)``, so
    ``u`` is the weighted minimal-norm solution without any projection,
    and ``‖D̃v − M_p^{1/2} f‖`` is the weighted residual.  When LSMR stops
    on its least-squares test above 1e-10, that residual is the harmonic
    part of ``f`` and :class:`CohomologyObstruction` carries its norm;
    running out of the iteration budget raises :class:`NoConvergence`.  A
    right-hand side whose weighted norm is not finite raises
    :class:`DomainError` before any solve, naming its first non-finite cell
    if it has one.
    """
    _check_cochain(cx, f)
    p = f.p
    m_tgt = mass(cx, phi, p)
    source = mass(cx, phi, p - 1)
    with np.errstate(over="ignore"):
        f_norm = math.sqrt(m_tgt.inner(f.values, f.values))
    if not math.isfinite(f_norm):
        raise_first(DomainError, ~np.isfinite(f.values), cx.barycenters(p),
                    lambda i: f"right-hand side is not finite on {p}-cell {i}")
        raise DomainError("weighted norm of the right-hand side overflowed")
    if f_norm == 0.0:
        return MinimalSolution(Cochain(p - 1, np.zeros(cx.num_cells(p - 1))),
                               0, 0.0, 0.0, "primitive", phi, source)

    if p < cx.n:
        df = _apply_d(cx, p, f.values)
        df_norm = math.sqrt(mass(cx, phi, p + 1).inner(df, df))
        if df_norm > _TOL * f_norm:
            raise NotClosed(
                f"right-hand side is not closed: ‖df‖/‖f‖ = "
                f"{df_norm / f_norm:.3e} exceeds tol {_TOL:.1e}",
                rel_residual=df_norm / f_norm)

    def weighted_residual(u):
        r = f.values - _apply_d(cx, p - 1, u)
        return math.sqrt(m_tgt.inner(r, r))

    m_src = source.diag
    if p == 1:
        u = _forest_primitive(cx, f.values, m_src)
        r_norm = weighted_residual(u)
        if r_norm / f_norm <= _TOL:
            return MinimalSolution(Cochain(0, u), 0, r_norm / f_norm, r_norm,
                                   "primitive", phi, source)

    # D̃ in place: the bits of the products diags(w_tgt) @ d @ diags(1/w_src)
    w_tgt = np.sqrt(m_tgt.diag)
    w_src = np.sqrt(m_src)
    scaled = coboundary(cx, p - 1)
    scaled.data = ((scaled.data * np.repeat(w_tgt, 2 * p))
                   * (1.0 / w_src)[scaled.indices])
    budget = min(max(2000, 4 * f.values.size), 60000)
    # btol is the relative residual LSMR aims for.  atol enters both its
    # compatible-system test (as atol·‖D̃‖·‖v‖) and its least-squares test;
    # atol = 1e-12 stopped a 128² solve at residual 4.1e-10 and φ = 300|x|²
    # at 2.4e-10, above the 1e-10 tolerance, while 1e-13 and 1e-14 met it
    # everywhere.  conlim = 0 switches the condition-number stop off.
    v, istop, iters = spla.lsmr(scaled, w_tgt * f.values, atol=1e-14,
                                btol=_TOL / 8.0, conlim=0.0,
                                maxiter=budget)[:3]
    u = v / w_src
    r_norm = weighted_residual(u)
    rel = r_norm / f_norm
    if rel <= _TOL:
        return MinimalSolution(Cochain(p - 1, u), iters, rel, r_norm, "lsmr",
                               phi, source)
    # istop 2: D̃ᵀr vanished, so r is the harmonic part of f; istop 0: so
    # did D̃ᵀ(M_p^{1/2} f) before the first step
    if istop in (0, 2):
        raise CohomologyObstruction(
            "right-hand side has a harmonic component of weighted norm "
            f"{r_norm:.6e} ({rel:.3e} relative); du = f has no solution",
            obstruction_norm=r_norm)
    raise NoConvergence(
        f"LSMR stopped at relative residual {rel:.3e} after {iters} "
        f"iterations (budget {budget})", iterations=iters, residual=rel)


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
    return Cochain(p, _apply_d(cx, p - 1, pot.values))


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


def domain_monotonicity(inner: CubicalComplex, outer: CubicalComplex,
                        potential_coeffs, p: int, phi) -> MonotonicityRecord:
    """The weighted norm of the minimal solution on ``inner`` must not exceed
    that on ``outer``, whose domain must hold every inner cell's barycenter.
    Each right-hand side is ``d`` of the sampled potential, exactly closed."""
    if inner.n != outer.n:
        raise PreconditionError(
            f"inner complex is {inner.n}-dimensional but the outer "
            f"complex is {outer.n}-dimensional")
    lo, hi = np.array(outer.dom.box).T
    for q in range(inner.n + 1):
        X = inner.barycenters(q)
        out = np.any((X < lo - 1e-12) | (X > hi + 1e-12), axis=1)
        if outer.dom.r is not None:
            out[~out] = field_jets(outer.dom.r, X[~out], order=0) >= 0.0
        raise_first(PreconditionError, out, X, lambda i: (
            f"inner {q}-cell lies outside the outer domain"))
    sols = [minimal_solution(c, closed_form_from_potential(
        c, p, potential_coeffs), phi) for c in (inner, outer)]
    return _monotonicity_record("domains", sols, 0)


def weight_monotonicity(cx: CubicalComplex, potential_coeffs, p: int, lo,
                        hi) -> MonotonicityRecord:
    """The weighted norm of the minimal solution under ``hi`` must not
    exceed that under ``lo``, where ``lo ≤ hi`` at every p-cell barycenter;
    the right-hand side is ``d`` of the sampled potential."""
    X = cx.barycenters(p)
    raise_first(PreconditionError, field_jets(lo, X, order=0)
                > field_jets(hi, X, order=0) + 1e-12, X,
                lambda i: "weights are not ordered")
    f = closed_form_from_potential(cx, p, potential_coeffs)
    return _monotonicity_record(
        "weights", [minimal_solution(cx, f, w) for w in (lo, hi)], 1)


def _monotonicity_record(mode: str, sols: Sequence[MinimalSolution],
                         lesser: int) -> MonotonicityRecord:
    """The record asserting that the weighted norm of ``sols[lesser]`` does
    not exceed the other's; ``residuals`` keep the order of ``sols``."""
    norms = [s.source_mass.inner(s.u.values, s.u.values) for s in sols]
    small, large = norms[lesser], norms[1 - lesser]
    return MonotonicityRecord(
        mode, small, large, small <= large * (1.0 + 1e-8) + 1e-8,
        large - small, tuple(s.residual for s in sols))


# ---------------------------------------------------------------------------
# node-assembled quadratures
# ---------------------------------------------------------------------------

def _node_components(cx: CubicalComplex, f: Cochain) -> np.ndarray:
    """Per-node component vectors of a p-cochain, lex-ordered.

    A p-cell's coefficient (cochain value over the spanned volume) is
    averaged onto its 2^p corner nodes by shifts of its id grid; staggered
    averaging is O(h²) accurate, and nodes are the only locations where
    every component of the form is available simultaneously.
    """
    p, nodes = f.p, cx.ids[()] >= 0
    G = np.zeros((math.comb(cx.n, p),) + nodes.shape)
    hits = np.zeros(G.shape, dtype=np.int32)
    # corners from (1, …, 1) down to (0, …, 0): each node then adds its
    # cells by increasing row, the order of a per-cell loop
    corners = list(np.ndindex((2,) * p))[::-1]
    for k, (axes, rows) in enumerate(cx.blocks(p)):
        ok = cx.ids[axes] >= 0
        coeff = np.zeros(ok.shape)
        coeff[ok] = f.values[rows] / math.prod(cx.dom.spacings[a]
                                               for a in axes)
        for pick in corners:
            at = [slice(None)] * cx.n
            for a, b in zip(axes, pick):
                at[a] = slice(1, None) if b else slice(None, -1)
            G[(k, *at)] += coeff
            hits[(k, *at)] += ok
    np.divide(G, hits, out=G, where=hits > 0)
    return G.reshape(len(G), -1).compress(nodes.ravel(), axis=1).T


def _node_quadrature(cx: CubicalComplex, g: Cochain, theta, weight,
                     integrand) -> float:
    """Node quadrature of ``integrand(X, D²theta, G)·e^{-weight}``, where
    ``G`` holds the node component vectors of ``g`` at the points ``X``.

    Only nodes where some component exceeds 1e-14 of the largest one take
    part (a node where all vanish contributes nothing), in blocks of rows;
    ``integrand`` returns one value per row of its block.  A ``(1, n, n)``
    Hessian of ``theta`` from the first block serves every later one, which
    then walk only the values of ``weight``.
    """
    G = _node_components(cx, g)
    dual = cx.dual_volumes
    g_max = float(np.abs(G).max()) if G.size else 0.0
    if g_max == 0.0:
        return 0.0
    support = np.flatnonzero(np.abs(G).max(axis=1) > 1e-14 * g_max)
    nodes = cx.barycenters(0)
    total, hess = 0.0, None
    for rows in row_blocks(support.size):
        idx = support[rows]
        X = nodes[idx]
        if hess is None or len(hess) > 1:
            hess = field_jets(theta, X)[2]
        dens = np.exp(-field_jets(weight, X, order=0))
        total += float(np.dot(integrand(X, hess, G[idx]) * dens, dual[idx]))
    return total


def inverse_quadform_integral(cx: CubicalComplex, f: Cochain, theta,
                              weight) -> float:
    """Node quadrature of ``⟨F_theta⁻¹ f, f⟩ e^{-weight}``.

    ``theta`` supplies the Hessian defining the induced quadratic form at
    each node.  Nodes where every component of ``f`` vanishes contribute
    nothing and skip the membership check, so a degenerate form away from
    the support is harmless; on the support a component outside the image
    aborts with the first such node's location attached.
    """
    def inverse_pairings(X, hess, F):
        try:
            sol = induced_pinv(hess, F, f.p)
        except MembershipError as exc:
            raise_first(partial(MembershipError, residual=exc.residual,
                                rel_residual=exc.rel_residual, row=exc.row),
                        np.arange(len(X)) == exc.row, X,
                        lambda i: f"{exc} on the quadrature node")
        return np.einsum("ia,ia->i", sol, F)

    return _node_quadrature(cx, f, theta, weight, inverse_pairings)


def _pairing_integral(cx: CubicalComplex, g: Cochain, theta, weight) -> float:
    """Node quadrature of ``⟨F_theta g, g⟩ e^{-weight}`` (no inversion)."""
    return _node_quadrature(cx, g, theta, weight,
                            lambda X, hess, G: induced_pairings(hess, G, g.p))


# ---------------------------------------------------------------------------
# precondition checks shared by the reports
# ---------------------------------------------------------------------------

def _require_p_positive(cx: CubicalComplex, p: int,
                        mats: Callable[[np.ndarray], np.ndarray],
                        label: str) -> None:
    """The matrices ``mats(X)`` builds for each block ``X`` of the p-cells'
    barycenters must be finite (:class:`DomainError`) and p-positive
    semidefinite, up to 1e-8 times their largest entry plus one
    (:class:`PreconditionError`).

    Blocks are checked in row order, so the error names the first failing
    point; each block's barycenters are written when it is reached and its
    stack is reduced before the next is built, so the sweep never holds
    the whole barycenter array.  When the first block of several rows
    gives one matrix ``(1, n, n)``, the stack does not vary by row: that
    matrix is reduced with one ``eigvalsh``, its failure names row 0, and
    the sweep stops there, so later rows are never evaluated.
    """
    count = cx.num_cells(p)
    for start in range(0, count, BLOCK_ROWS):
        X = _barycenter_rows(cx, p, start, np.empty(
            (min(BLOCK_ROWS, count - start), cx.n)))
        with np.errstate(over="ignore", invalid="ignore"):
            a = mats(X)
        raise_first(DomainError, ~np.isfinite(a).all(axis=(1, 2)), X,
                    lambda i: f"{label} is not finite")
        traces = min_p_trace(a, p)
        scale = np.abs(a).max(axis=(1, 2)) + 1.0
        raise_first(PreconditionError, traces < -1e-8 * scale, X, lambda i: (
            f"{label} is not {p}-positive (min {p}-trace {traces[i]:.3e})"))
        if len(a) < len(X):
            return


def _hessian(w):
    """Block builder of ``D²w`` for :func:`_require_p_positive`."""
    return lambda X: field_jets(w, X)[2]


def _neg_exp_hessian(w):
    """Block builder of ``D²w − ∇w⊗∇w``, the Hessian of ``-e^{-w}`` up to
    the positive factor ``e^{-w}``, which is kept so that the 1e-8 floor
    scales as for the Hessian itself."""
    def mats(X):
        v, g, h = field_jets(w, X)
        return np.exp(-v)[:, None, None] * (h - np.einsum("mi,mj->mij", g, g))
    return mats


def _shifted_hessian(curved, tilt, omega):
    """Block builder of ``omega²·D²curved − ∇tilt⊗∇tilt``; a constant
    ``omega`` keeps a row-independent stack at one matrix."""
    def mats(X):
        h = field_jets(curved, X)[2]
        g = field_jets(tilt, X)[1]
        rows = X[:1] if field_kind(omega) == "constant" else X
        om = field_jets(omega, rows, order=0)[:, None, None]
        return om * om * h - np.einsum("mi,mj->mij", g, g)
    return mats


def _check_omega_range(cx: CubicalComplex, omega, p: int,
                       upper: float) -> None:
    X = np.concatenate([cx.barycenters(p), cx.barycenters(0)])
    om = field_jets(omega, X, order=0)
    raise_first(PreconditionError, ~((0.0 <= om) & (om < upper)), X,
                lambda i: (f"omega must satisfy 0 <= omega < {upper}; "
                           f"got {om[i]:.6g}"))


def _check_omega_on_support(cx: CubicalComplex, f: Cochain, omega,
                            alpha: float) -> None:
    mag = np.abs(_node_components(cx, f)).max(axis=1)
    X = cx.barycenters(0)[mag > 1e-12 * mag.max()]
    om = field_jets(omega, X, order=0)
    raise_first(PreconditionError, om > alpha + 1e-12, X, lambda i: (
        f"omega = {om[i]:.6g} exceeds alpha = {alpha:.6g} on the support "
        f"of f"))


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


@dataclass(frozen=True)
class BoundReport:
    """One verified estimate: ``lhs ≤ rhs`` expected, where ``rhs`` already
    includes the predicted constant (``rhs = constant · integral``)."""

    test: str
    lhs: float
    rhs: float
    constant: float
    integral: float
    h: float
    vacuous: bool
    solve: MinimalSolution
    apriori: Optional[AprioriCheck] = None

    @property
    def ratio(self) -> float:
        return 0.0 if self.vacuous else self.lhs / self.rhs

    @property
    def passed(self) -> bool:
        return bool(self.vacuous or self.ratio <= 1.0 + _SLACK)

    def record(self) -> dict:
        sol = self.solve
        rec = {"test": self.test, "lhs": self.lhs, "rhs": self.rhs,
               "constant": self.constant, "ratio": self.ratio, "h": self.h,
               "method": sol.method, "iterations": sol.iterations,
               "residual": sol.residual,
               "harmonic_obstruction": sol.harmonic_obstruction,
               "num_cells": sol.u.values.size, "pass": self.passed}
        if self.apriori is not None:
            rec["apriori_sigma"] = self.apriori.sigma
            rec["apriori_worst_ratio"] = self.apriori.worst_ratio
        return rec


def _estimate(test: str, cx: CubicalComplex, f: Cochain, sol: MinimalSolution,
              weight, theta, constant: float,
              modifier: Optional[Callable[[np.ndarray], np.ndarray]] = None,
              apriori: Optional[AprioriCheck] = None) -> BoundReport:
    """The report on ``lhs ≤ constant · ∫⟨F_theta⁻¹f, f⟩e^{−weight}`` for
    the solution ``sol`` of ``du = f``, where ``lhs`` is
    ``Σ modifier(bary)·u²·e^{−weight(bary)}·(dual volume)`` over the
    (p−1)-cells, with ``modifier`` evaluated on all barycenters at once;
    with no modifier ``lhs`` is exactly the weighted mass norm."""
    u = sol.u.values
    if sol.weight is weight:
        md = sol.source_mass.diag
    else:
        md = mass(cx, weight, f.p - 1).diag
    if modifier is not None:
        md = md * modifier(cx.barycenters(f.p - 1))
    lhs = float(np.dot(u, md * u))
    integral = float(inverse_quadform_integral(cx, f, theta, weight))
    return BoundReport(test=test, lhs=lhs, rhs=constant * integral,
                       constant=float(constant), integral=integral,
                       h=cx.dom.h,
                       vacuous=(integral == 0.0), solve=sol, apriori=apriori)


#: alpha's interval in each two-weight bound, which its report checks:
#: (the name of alpha, whether 0 is in it, its open upper end)
_ALPHA = {"berndtsson": ("alpha", True, 1.0), "minimal": ("alpha", True, 1.0),
          "composite": ("alpha0", False, 1.0), "nonpsh": ("alpha", True, 2.0)}


def _check_alpha(bound: str, alpha: float) -> None:
    """Raise PreconditionError unless alpha lies in its bound's interval."""
    name, closed, hi = _ALPHA[bound]
    if not ((0.0 <= alpha if closed else 0.0 < alpha) and alpha < hi):
        raise PreconditionError(f"{name} must lie in {'[' if closed else '('}"
                                f"0, {hi:g}); got {alpha}")


def hormander_report(cx: CubicalComplex, f: Cochain, phi) -> BoundReport:
    """Baseline estimate: ``‖u‖²_φ ≤ ∫⟨F_φ⁻¹f, f⟩e^{−φ}`` (constant 1) for
    the minimal solution under a p-plurisubharmonic weight, p = ``f.p``."""
    _check_cochain(cx, f)
    _require_p_positive(cx, f.p, _hessian(phi), "D²phi")
    sol = minimal_solution(cx, f, phi)
    return _estimate("hormander", cx, f, sol, phi, phi, 1.0)


def berndtsson_report(cx: CubicalComplex, f: Cochain, phi, psi, alpha: float,
                      *, rng=None) -> BoundReport:
    """Two-weight estimate with constant ``4/(1−α)²``.

    Solves minimally in the weight ``φ − αψ`` (isometric to the twisted
    scheme of the underlying proof) and compares against
    ``∫⟨F_ψ⁻¹f, f⟩e^{−φ+αψ}``.  Requires ``φ`` p-plurisubharmonic and
    ``−e^{−ψ}`` p-plurisubharmonic.  Also runs the sampled apriori check
    with ``σ = (1−α)/2`` on three random coexact cochains.
    """
    _check_cochain(cx, f)
    _check_alpha("berndtsson", alpha)
    p = f.p
    _require_p_positive(cx, p, _hessian(phi), "D²phi")
    _require_p_positive(cx, p, _neg_exp_hessian(psi),
                        "the Hessian of -exp(-psi)")
    w_solve = _combine(phi, -alpha, psi)
    sol = minimal_solution(cx, f, w_solve)
    apriori = _apriori_check(cx, phi, psi, (1.0 - alpha) / 2.0, p, rng=rng)
    return _estimate("berndtsson", cx, f, sol, w_solve, psi,
                     4.0 / (1.0 - alpha) ** 2, apriori=apriori)


def _apriori_check(cx: CubicalComplex, phi, psi, sigma: float, p: int, *,
                   rng) -> AprioriCheck:
    """``‖δ_{φ+σψ}g‖²_{φ+ψ} + ‖dg‖²_{φ+ψ} ≥ σ²∫⟨F_ψ g,g⟩e^{−φ−ψ}`` on
    three random coexact p-cochains (the quantifier over all of
    ``Dom(d*)`` is sampled, not proved)."""
    rng = np.random.default_rng(0) if rng is None else rng
    w_plus = _combine(phi, 1.0, psi)
    if p < cx.n:
        m_up = mass(cx, w_plus, p + 1)
        coexact = weighted_adjoint(cx, mass(cx, w_plus, p), m_up)
    w_twist = _combine(phi, sigma, psi)
    twist = weighted_adjoint(cx, mass(cx, w_twist, p - 1),
                             mass(cx, w_twist, p))
    m_down = mass(cx, w_plus, p - 1)
    worst = 0.0
    done = 0
    for _ in range(3):
        if p < cx.n:
            raw = rng.standard_normal(cx.num_cells(p + 1))
            g = Cochain(p, coexact(raw))
        else:
            g = Cochain(p, rng.standard_normal(cx.num_cells(p)))
        if not np.any(g.values):
            continue
        dg_part = 0.0
        if p < cx.n:
            dg = _apply_d(cx, p, g.values)
            dg_part = m_up.inner(dg, dg)
        cg = twist(g.values)
        lhs_g = m_down.inner(cg, cg) + dg_part
        rhs_g = sigma ** 2 * _pairing_integral(cx, g, psi, w_plus)
        if lhs_g > 0.0:
            worst = max(worst, rhs_g / lhs_g)
            done += 1
    return AprioriCheck(sigma=sigma, worst_ratio=worst, samples=done)


def minimal_estimate_report(cx: CubicalComplex, f: Cochain, phi, psi, omega,
                            alpha: float) -> BoundReport:
    """Estimate for the φ-minimal solution with constant ``(1+α)/(1−α)``:
    ``∫(1−ω²)|u|²e^{−φ+ψ} ≤ ((1+α)/(1−α))∫⟨F_ψ⁻¹f,f⟩e^{−φ+ψ}``.

    Requires ``ω²D²ψ − ∇ψ⊗∇ψ`` p-positive semidefinite, ``0 ≤ ω < 1``
    everywhere, and ``ω ≤ α`` on the support of ``f``.  The solve weight is
    plain ``φ``; ``ψ`` enters only through the comparison densities.
    """
    _check_cochain(cx, f)
    _check_alpha("minimal", alpha)
    p = f.p
    _require_p_positive(cx, p, _hessian(phi), "D²phi")
    _check_omega_range(cx, omega, p, 1.0)
    _require_p_positive(cx, p, _shifted_hessian(psi, psi, omega),
                        "omega²·D²psi − ∇psi⊗∇psi")
    _check_omega_on_support(cx, f, omega, alpha)
    sol = minimal_solution(cx, f, phi)
    return _estimate(
        "minimal-estimate", cx, f, sol, _combine(phi, -1.0, psi), psi,
        (1.0 + alpha) / (1.0 - alpha),
        lambda X: 1.0 - field_jets(omega, X, order=0) ** 2)


def composite_minimal_estimate(cx: CubicalComplex, f: Cochain, phi, psi0,
                               alpha0: float
                               ) -> Tuple[BoundReport, BoundReport]:
    """Scaled-weight route to the two-weight bound: apply the minimal
    estimate with ``ψ = α₀ψ₀`` and constant test function ``ω ≡ √α₀``, then
    restate it as ``‖u‖²_{φ−α₀ψ₀} ≤ 1/(α₀(1−√α₀)²)·∫⟨F_{ψ₀}⁻¹f,f⟩
    e^{−φ+α₀ψ₀}``.  Returns (base report, composite report); both use the
    same φ-minimal solution.
    """
    _check_cochain(cx, f)
    _check_alpha("composite", alpha0)
    _require_p_positive(cx, f.p, _neg_exp_hessian(psi0),
                        "the Hessian of -exp(-psi0)")
    root = math.sqrt(alpha0)
    psi_scaled = CombinedWeight(None, alpha0, psi0)
    base = minimal_estimate_report(cx, f, phi, psi_scaled, root, root)
    composite = _estimate("minimal-estimate-composite", cx, f, base.solve,
                          _combine(phi, -alpha0, psi0), psi0,
                          1.0 / (alpha0 * (1.0 - root) ** 2))
    return base, composite


def nonpsh_report(cx: CubicalComplex, f: Cochain, phi, psi, omega,
                  alpha: float) -> BoundReport:
    """Estimate tolerating a non-plurisubharmonic total weight.

    Solves minimally in ``φ − ψ/2``.  With a varying ``omega`` (requires
    ``ω²D²φ − ∇ψ⊗∇ψ`` p-positive semidefinite, ``0 ≤ ω < 2``, ``ω ≤ α`` on
    supp f): ``∫(1−ω²/4)|u|²e^{−φ+ψ} ≤ ((2+α)/(2−α))∫⟨F_φ⁻¹f,f⟩e^{−φ+ψ}``.
    With ``omega=None`` (requires ``α²D²φ − ∇ψ⊗∇ψ`` p-positive
    semidefinite): ``‖u‖²_{φ−ψ} ≤ (4/(2−α)²)∫⟨F_φ⁻¹f,f⟩e^{−φ+ψ}``.
    With ``psi=None`` and ``alpha=0`` both variants reduce to the baseline
    report, reproducing its numbers exactly.
    """
    _check_cochain(cx, f)
    _check_alpha("nonpsh", alpha)
    p = f.p
    _require_p_positive(cx, p, _hessian(phi), "D²phi")
    if omega is not None:
        _check_omega_range(cx, omega, p, 2.0)
    _require_p_positive(
        cx, p, _shifted_hessian(phi, psi, alpha if omega is None else omega),
        "omega²·D²phi − ∇psi⊗∇psi")
    if omega is None:
        label, constant, modifier = ("nonpsh-constant",
                                     4.0 / (2.0 - alpha) ** 2, None)
    else:
        _check_omega_on_support(cx, f, omega, alpha)
        label, constant = "nonpsh", (2.0 + alpha) / (2.0 - alpha)
        modifier = lambda X: 1.0 - field_jets(omega, X, order=0) ** 2 / 4.0
    sol = minimal_solution(cx, f, _combine(phi, -0.5, psi))
    return _estimate(label, cx, f, sol, _combine(phi, -1.0, psi), phi,
                     constant, modifier)


# ---------------------------------------------------------------------------
# cohomology by counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohomologyReport:
    """Betti numbers of a complex, degree 0 to n, and the counts they come
    from."""

    ranks: Tuple[int, ...]
    components: int   # connected components of the complex
    voids: int        # connected components of its complement, less one
    euler: int        # Euler characteristic


def _runs(present: np.ndarray, links):
    """Runs along the last axis of the grid graph on the cells where
    ``present`` holds, and the links kept between them; ``links[a]``, one
    shorter along axis a, joins each cell to the next along a, and holds
    only between present cells.

    Runs are labelled by a ``cumsum`` of their starts; along each other
    axis one link is kept per stretch that joins the same two runs.
    Returns the flat indices of the runs' first cells, the label grid, the
    kept links as masks per axis but the last, and their two ends' runs.
    """
    start = present.copy()
    start[..., 1:] &= ~links[-1]
    label = np.cumsum(start, dtype=np.int32).reshape(present.shape) - 1
    kept, u, v = [], np.zeros(0, np.int32), np.zeros(0, np.int32)
    for a, link in enumerate(links[:-1]):
        lo = label[(slice(None),) * a + (slice(None, -1),)]
        hi = label[(slice(None),) * a + (slice(1, None),)]
        keep = link.copy()
        keep[..., 1:] &= ~(link[..., :-1] & (lo[..., 1:] == lo[..., :-1])
                           & (hi[..., 1:] == hi[..., :-1]))
        kept.append(keep)
        u, v = np.append(u, lo[keep]), np.append(v, hi[keep])
    return np.flatnonzero(start), label, kept, u, v


def _hook(runs: int, lo: np.ndarray, hi: np.ndarray, rise: np.ndarray):
    """Each run's root, and its potential less its root's, where run
    ``hi[k]``'s potential exceeds run ``lo[k]``'s by ``rise[k]``: each
    round hooks every linked root onto a smaller root it is linked to, with
    the offset of a link to the parent kept (a tree edge), then jumps every
    pointer to its root, adding offsets, until no link joins two roots
    (Shiloach & Vishkin, J. Algorithms 3, 1982)."""
    parent, offset = np.arange(runs, dtype=np.int32), np.zeros(runs)
    while lo.size:
        pu, pv = parent[lo], parent[hi]
        live = pu != pv
        lo, hi, rise, pu, pv = (x[live] for x in (lo, hi, rise, pu, pv))
        big, small = np.maximum(pu, pv), np.minimum(pu, pv)
        # root pv's potential less root pu's, then big's less small's
        step = np.where(pv > pu, 1.0, -1.0) * (rise + offset[lo] - offset[hi])
        parent[big] = small
        won = parent[big] == small
        offset[big[won]] = step[won]
        grand = parent[parent]
        while (grand != parent).any():
            offset += offset[parent]
            parent, grand = grand, grand[grand]
    return parent, offset


def _count_components(present: np.ndarray, links) -> int:
    """Connected components of the grid graph of :func:`_runs`."""
    starts, _, _, lo, hi = _runs(present, links)
    parent = _hook(starts.size, lo, hi, np.zeros(lo.size))[0]
    return int(np.count_nonzero(parent == np.arange(parent.size)))


def cohomology_rank(cx: CubicalComplex,
                    weights: Sequence = ()) -> CohomologyReport:
    """Betti numbers ``b_0 … b_n`` of the complex, for ``n ≤ 3``.

    By the discrete Hodge theorem ``b_p`` is the dimension of the degree-p
    harmonic space of the weighted cochain Laplacian for every weight whose
    mass is positive and finite, so the rank holds for each of ``weights``
    once its mass is built in every degree (:func:`~pconvex.discrete.mass`
    raises :class:`~pconvex.errors.DomainError` naming the cell where it
    is not).

    ``b_0`` counts the components of the node grid, two nodes joined where
    the 1-cell between them is present.  ``b_{n−1}`` counts those of the
    absent top cells (Alexander duality), padded by one absent layer per
    side, two joined where the (n−1)-cell between them is absent, less
    the unbounded one; ``b_n = 0``.  By closure a present cell has present
    faces, so its nodes are joined through its 1-cells, and an absent cell
    absent cofaces, so its top cofaces are joined through its
    (n−1)-cofaces: both counts equal those of the face-connected occupied
    and free voxels of the doubled grid, on which each cell is one voxel.
    In 3-D ``b_1`` follows from the Euler characteristic; in 2-D
    ``b_0 − b_1`` must equal it.  For ``n ≥ 4`` these counts leave the
    middle ranks open.
    """
    n = cx.n
    if n > 3:
        raise ValueError("cohomology supports n ≤ 3")
    for w in weights:
        for q in range(n + 1):
            mass(cx, w, q)
    components = _count_components(cx.ids[()] >= 0,
                                   [cx.ids[(a,)] >= 0 for a in range(n)])

    def absent(axes):
        # padded by one absent layer along each axis the cells span
        grid, pad = cx.ids[axes], [int(i in axes) for i in range(n)]
        out = np.ones([m + 2 * k for m, k in zip(grid.shape, pad)], bool)
        out[tuple(slice(k, k + m) for m, k in zip(grid.shape, pad))] = grid < 0
        return out

    top = tuple(range(n))
    voids = _count_components(absent(top), [absent(top[:a] + top[a + 1:])
                                            for a in range(n)]) - 1
    euler = cx.euler_characteristic
    if n == 1:
        ranks = (components, 0)
    elif n == 2:
        if components - voids != euler:
            raise RuntimeError(
                f"{components} components less {voids} voids differ from "
                f"the Euler characteristic {euler}")
        ranks = (components, voids, 0)
    else:
        ranks = (components, components + voids - euler, voids, 0)
    return CohomologyReport(ranks=ranks, components=components, voids=voids,
                            euler=euler)


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
    second_diffs: np.ndarray    # (samples, 1)
    min_second_diff: float

    @property
    def passed(self) -> bool:
        return (not self.skipped) and self.min_second_diff >= -1e-6


def prekopa_check(phi_joint, x_samples, y_box, *,
                  y_points: int = 601) -> PrekopaReport:
    """Convexity check of ``-log ∫ e^{-phi(x,y)} dy`` by quadrature.

    The joint weight must be convex (sampled Hessians, no eigenvalue below
    -1e-10 times the largest entry plus one); a non-convex input flags the
    precondition and skips the check instead of raising.  The y integral
    uses a midpoint lattice over ``y_box``; if the density on the
    outermost lattice shell exceeds 1e-12 times its maximum the box is too
    small and :class:`TailError` is raised.  Convexity of the marginal is
    then asserted through second central differences with step 0.1 (exact
    for quadratic joints) at every x sample.
    """
    xs = np.asarray(x_samples, dtype=np.float64).reshape(-1, 1)
    if xs.size == 0:
        raise ValueError("need at least one sample point")
    y_box = tuple((float(lo), float(hi)) for lo, hi in y_box)

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
    delta = 0.1
    probe_x = np.unique(np.concatenate(
        [xs + delta * sign for sign in (-1.0, 0.0, 1.0)]), axis=0)
    probe_y = ys[:: max(1, ys.shape[0] // 9)]
    probes = np.array([np.concatenate([px, py])
                       for px in probe_x for py in probe_y])
    hess = field_jets(phi_joint, probes)[2]
    scale = np.abs(hess).max(axis=(1, 2)) + 1.0
    if np.any(min_p_trace(hess, 1) < -1e-10 * scale):
        return PrekopaReport(False, True, xs, np.array([]),
                             np.zeros((0, 1)), math.nan)

    def marginal(px: np.ndarray) -> float:
        vals = field_jets(phi_joint, np.hstack(
            [np.broadcast_to(px, (ys.shape[0], 1)), ys]), order=0)
        base = float(vals.min())
        dens = np.exp(-(vals - base))
        edge, top = float(dens[on_edge].max()), float(dens.max())
        raise_first(TailError, np.array([edge > 1e-12 * top]), px[None],
                    lambda i: (f"enlarge y_box: density on the quadrature "
                               f"boundary is {edge / top:.3e} of its maximum"))
        return base - math.log(float(dens.sum()) * cell)

    center = np.array([marginal(px) for px in xs])
    second = np.array([[(marginal(px + delta) - 2.0 * c
                         + marginal(px - delta)) / delta ** 2]
                       for px, c in zip(xs, center)])
    return PrekopaReport(True, False, xs, center, second,
                         float(second.min()))
