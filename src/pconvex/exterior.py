"""Exterior algebra of constant-coefficient forms on Euclidean R^n.

A ``p``-form at a point is stored as its coefficient vector over the
lexicographically ordered strictly increasing multi-indices of length ``p``
drawn from ``{1, ..., n}`` (so ``dim = C(n, p)``).  The basis is orthonormal
for the Euclidean pairing, which makes inner products plain dot products.

The central object is the operator induced on ``p``-forms by a symmetric
matrix ``theta``::

    A_theta g = sum_{j,k} theta[j,k] * omega^k ^ (e_j _| g)

(wedge with the k-th basis covector after contracting with the j-th basis
vector).  Its quadratic form, spectrum, pseudo-inverse, and the two
inequality checks built from them live here.  Everything is dense numpy at
small ``n`` (the package targets n <= 12; C(12,6) = 924 keeps all tables
tiny).  The induced matrices, pairings and pseudo-inverses also come for
stacks of matrices, of which the one-point functions are one-row calls.

Every sign of a permuted multi-index comes from one table, that of
inserting one index into a sorted multi-index (``_insertion_table``, with
``_lift`` built on it): wedge, interior product, the induced operator, the
swap 2-forms of :mod:`pconvex.convexity`, the ``d`` and ``δ_φ`` of
:func:`pconvex.discrete.energy_identity_residual` and the cubical
coboundary of :func:`pconvex.discrete.build_complex` all read it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import MembershipError, PreconditionError

__all__ = [
    "dim_forms",
    "index_list",
    "index_rank",
    "PointForm",
    "oneform",
    "wedge",
    "interior",
    "quadform_action",
    "quadform_matrix",
    "pairing_quadratic",
    "quadform_eigen",
    "FormSpectrum",
    "quadform_pinv",
    "induced_matrices",
    "induced_pairings",
    "induced_pinv",
    "inverse_bound_check",
    "InverseBoundReport",
    "rank_one_image_check",
    "RankOneImageReport",
]

_MAX_N = 12


def dim_forms(n: int, p: int) -> int:
    """Dimension of the space of p-forms on R^n."""
    return math.comb(n, p)


def _check_np(n: int, p: int) -> None:
    if not (isinstance(n, int) and isinstance(p, int)):
        raise TypeError("n and p must be ints")
    if n < 1 or n > _MAX_N:
        raise ValueError(f"n must be in [1, {_MAX_N}], got {n}")
    if p < 0 or p > n:
        raise ValueError(f"p must be in [0, {n}], got {p}")


@lru_cache(maxsize=None)
def index_list(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing multi-indices of length p in {1..n}, lex order."""
    _check_np(n, p)
    return tuple(itertools.combinations(range(1, n + 1), p))


@lru_cache(maxsize=None)
def _rank_of(n: int, p: int) -> dict[tuple[int, ...], int]:
    return {idx: r for r, idx in enumerate(index_list(n, p))}


def index_rank(idx: tuple[int, ...], n: int) -> int:
    """Lex rank of a strictly increasing multi-index among those of its length."""
    idx = tuple(idx)
    table = _rank_of(n, len(idx))
    try:
        return table[idx]
    except KeyError:
        raise ValueError(f"{idx!r} is not a strictly increasing multi-index in 1..{n}") from None


@lru_cache(maxsize=None)
def _insertion_table(n: int, p: int):
    """Tables describing insertion of a single index into a (p-1)-index,
    ``omega^j ^ e_K = sgn[j-1, rK] e_{pos[j-1, rK]}``: the one sign
    convention of the package.

    Returns ``(pos, sgn)`` of shape ``(n, C(n, p-1))`` where, for axis ``j``
    (1-based, row ``j-1``) and a (p-1)-index ``K`` of rank ``rK``:

    * ``pos[j-1, rK]`` is the rank of ``sorted({j} | K)`` among p-indices,
      or ``-1`` when ``j in K``;
    * ``sgn[j-1, rK]`` is ``(-1)**#{k in K : k < j}`` (the sign of moving
      ``j`` from the front into sorted position), or ``0`` when ``j in K``.

    With the antisymmetric coefficient convention, ``g_{jK} = sgn * g[pos]``.
    """
    _check_np(n, p)
    if p == 0:
        raise ValueError("insertion table needs p >= 1")
    km1 = index_list(n, p - 1)
    rank_p = _rank_of(n, p)
    pos = -np.ones((n, len(km1)), dtype=np.int64)
    sgn = np.zeros((n, len(km1)), dtype=np.float64)
    for rK, K in enumerate(km1):
        for j in set(range(1, n + 1)).difference(K):
            below = sum(k < j for k in K)     # omega^j moves past these
            pos[j - 1, rK] = rank_p[K[:below] + (j,) + K[below:]]
            sgn[j - 1, rK] = (-1.0) ** below
    return pos, sgn


def _lift(n: int, p: int, coeffs: np.ndarray) -> np.ndarray:
    """Matrix G with G[j-1, rK] = g_{jK} (coefficient with j prepended);
    a stack of them for coefficient rows ``(m, C(n, p))``."""
    pos, sgn = _insertion_table(n, p)
    safe = np.where(pos >= 0, pos, 0)
    return np.where(pos >= 0, sgn * coeffs[..., safe], 0.0)


@dataclass(eq=False)
class PointForm:
    """A constant-coefficient p-form on R^n.

    Attributes
    ----------
    n, p : int
        Ambient dimension and form degree.
    coeffs : numpy.ndarray
        Coefficients over the lex-ordered increasing multi-indices,
        length ``C(n, p)``.
    """

    n: int
    p: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        _check_np(self.n, self.p)
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        want = dim_forms(self.n, self.p)
        if self.coeffs.shape != (want,):
            raise ValueError(
                f"expected {want} coefficients for a {self.p}-form on R^{self.n}, "
                f"got shape {self.coeffs.shape}")

    # -- constructors ---------------------------------------------------
    @classmethod
    def basis(cls, n: int, idx: tuple[int, ...]) -> "PointForm":
        """The basis form omega^{i1} ^ ... ^ omega^{ip} for increasing idx."""
        idx = tuple(idx)
        c = np.zeros(dim_forms(n, len(idx)))
        c[index_rank(idx, n)] = 1.0
        return cls(n, len(idx), c)

    # -- algebra --------------------------------------------------------
    def inner(self, other: "PointForm") -> float:
        """Euclidean pairing <self, other> (orthonormal increasing basis)."""
        self._compat(other)
        return float(self.coeffs @ other.coeffs)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def _compat(self, other: "PointForm") -> None:
        if (self.n, self.p) != (other.n, other.p):
            raise ValueError(
                f"degree/dimension mismatch: ({self.n},{self.p}) vs ({other.n},{other.p})")


def oneform(v: np.ndarray) -> PointForm:
    """The 1-form with coefficient vector v (the Euclidean flat of a vector)."""
    v = np.asarray(v, dtype=np.float64)
    return PointForm(v.shape[0], 1, v)


def wedge(a: PointForm, b: PointForm) -> PointForm:
    """Wedge product of two forms on the same R^n, by repeated insertion:
    ``omega^A ^ b = omega^{A_1} ^ (... ^ (omega^{A_p} ^ b))``."""
    if a.n != b.n:
        raise ValueError(f"ambient dimension mismatch: {a.n} vs {b.n}")
    n, p, q = a.n, a.p, b.p
    if p + q > n:
        raise ValueError(f"wedge degree {p}+{q} exceeds ambient dimension {n}")
    out = np.zeros(dim_forms(n, p + q))
    for A, ca in zip(index_list(n, p), a.coeffs):
        c = b.coeffs
        for deg, j in enumerate(reversed(A), start=q + 1):
            pos, sgn = _insertion_table(n, deg)
            ok = pos[j - 1] >= 0
            step = np.zeros(dim_forms(n, deg))
            step[pos[j - 1, ok]] = sgn[j - 1, ok] * c[ok]
            c = step
        out += ca * c
    return PointForm(n, p + q, out)


def interior(v: np.ndarray, g: PointForm) -> PointForm:
    """Interior product (contraction) v _| g; degree drops by one.

    ``(v _| g)_K = sum_j v_j g_{jK}`` with the antisymmetric convention.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (g.n,):
        raise ValueError(f"vector has shape {v.shape}, expected ({g.n},)")
    if g.p == 0:
        raise ValueError("cannot contract a 0-form")
    G = _lift(g.n, g.p, g.coeffs)
    return PointForm(g.n, g.p - 1, v @ G)


def _check_symmetric(a: np.ndarray, name: str, ndims: tuple,
                     n: Optional[int]) -> np.ndarray:
    """``a`` as floats, after checking that it is one square matrix or a
    stack of them (``a.ndim`` in ``ndims``), ``n x n`` unless ``n`` is
    None, finite, and symmetric to ``1e-12 * (1 + max|entry|)`` per matrix:
    the package's one rule for a symmetric matrix, whose messages name
    ``a`` as ``name``."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim not in ndims or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    k = a.shape[-1]
    if n is not None and k != n:
        raise ValueError(f"{name} is {k}x{k}, expected {n}x{n}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    tol = 1e-12 * (1.0 + np.abs(a).max(axis=(-2, -1), keepdims=True))
    if not (np.abs(a - np.swapaxes(a, -1, -2)) <= tol).all():
        raise ValueError(f"{name} must be symmetric")
    return a


def _symmetrised(theta: np.ndarray, n: Optional[int], ndim: int) -> np.ndarray:
    """One checked theta (``ndim=2``) or a stack (``ndim=3``), symmetrised:
    once per public call."""
    theta = _check_symmetric(theta, "theta", (ndim,), n)
    return 0.5 * (theta + np.swapaxes(theta, -1, -2))


def quadform_action(theta: np.ndarray, g: PointForm) -> PointForm:
    """Apply the operator induced by ``theta`` to the p-form ``g``.

    This realizes ``sum_{j,k} theta[j,k] omega^k ^ (e_j _| g)`` and is
    self-adjoint for the Euclidean pairing.
    """
    mat = _induced(_symmetrised(theta, g.n, 2)[None], g.p)[0]
    return PointForm(g.n, g.p, mat @ g.coeffs)


def pairing_quadratic(theta: np.ndarray, g: PointForm) -> float:
    """Direct-sum evaluation of ``<A_theta g, g>``: theta_jk g_jK g_kK.

    Independent route from :func:`quadform_action` followed by
    :meth:`PointForm.inner`; the two agree identically and tests pin that.
    """
    theta = _symmetrised(theta, g.n, 2)[None]
    return float(_pairings(theta, g.coeffs[None], g.p)[0])


def quadform_matrix(theta: np.ndarray, p: int) -> np.ndarray:
    """Dense matrix of the induced operator on p-forms (C(n,p) square)."""
    return _induced(_symmetrised(theta, None, 2)[None], p)[0]


def quadform_pinv(theta: np.ndarray, f: PointForm) -> PointForm:
    """Pseudo-inverse of the induced operator applied to ``f``.

    Requires ``f`` to lie in the image up to 1e-8 (relative); otherwise
    :class:`MembershipError` reports the out-of-image residual.
    Eigenvalues up to 1e-12 times the spectral radius are treated as
    kernel.
    """
    x = _pinv(_symmetrised(theta, f.n, 2)[None], f.coeffs[None], f.p)
    return PointForm(f.n, f.p, x[0])


# The same operators for a stack ``thetas`` (m, n, n) and coefficient rows
# (m, C(n, p)), one form per matrix, or for one matrix (1, n, n) that serves
# every row; the functions above are one-row calls.

@lru_cache(maxsize=None)
def _induced_gather(n: int, p: int):
    """Flat (row-major) sources in theta of the induced matrix's entries.
    Entry ``(pos[k,K], pos[j,K])``, k != j, is the one term ``sgn[k,K]
    sgn[j,K] theta[k,j]``: its targets, sources and signs.  Diagonal entry I
    sums theta[k,k] over k in I: its sources, ``(C(n,p), p)``, ascending k."""
    pos, sgn = _insertion_table(n, p)
    d = dim_forms(n, p)
    both = (pos[:, None, :] >= 0) & (pos[None, :, :] >= 0)
    k, j, K = np.nonzero(both & ~np.eye(n, dtype=bool)[:, :, None])
    diag = np.array([[(i - 1) * (n + 1) for i in I] for I in index_list(n, p)])
    return pos[k, K] * d + pos[j, K], k * n + j, sgn[k, K] * sgn[j, K], diag


def induced_matrices(thetas: np.ndarray, p: int) -> np.ndarray:
    """Induced operators on p-forms, shape ``(m, C(n,p), C(n,p))``; each
    entry is 0.0 plus its terms, added left to right (so never -0.0)."""
    return _induced(_symmetrised(thetas, None, 3), p)


def _induced(thetas: np.ndarray, p: int) -> np.ndarray:
    m, n = thetas.shape[:2]
    d = dim_forms(n, p)
    out = np.zeros((d * d, m))
    if p > 0:
        flat = thetas.reshape(m, n * n).T
        target, source, sign, diag = _induced_gather(n, p)
        out[target] += sign[:, None] * flat[source]
        for column in diag.T:
            out[::d + 1] += flat[column]
    return out.T.reshape(m, d, d)


def _stack(thetas, F, p: int):
    """Checked, symmetrised ``thetas`` and coefficient rows ``F``; one
    matrix may serve all rows."""
    thetas = _symmetrised(thetas, None, 3)
    F = np.asarray(F, dtype=np.float64)
    d = dim_forms(thetas.shape[-1], p)
    if F.ndim != 2 or F.shape[1] != d or len(thetas) not in (1, len(F)):
        raise ValueError(f"expected coefficient rows ({len(thetas)}, {d}), "
                         f"got {F.shape}")
    return thetas, F


def induced_pairings(thetas: np.ndarray, G: np.ndarray, p: int) -> np.ndarray:
    """``<A_theta g, g>`` per matrix and row of ``G`` as the direct sum
    theta_jk g_jK g_kK, shape ``(m,)``."""
    return _pairings(*_stack(thetas, G, p), p)


def _pairings(thetas: np.ndarray, G: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return np.zeros(len(G))
    L = _lift(thetas.shape[-1], p, G)       # L[i, j, K] = g_{jK} of row i
    # a stack of copies sums each row in the order of a stack of distinct
    # matrices, so one matrix gives the same bits as one per row
    if len(thetas) != len(G):
        thetas = np.repeat(thetas, len(G), axis=0)
    return np.einsum("ijk,ijK,ikK->i", thetas, L, L)


def induced_pinv(thetas: np.ndarray, F: np.ndarray, p: int) -> np.ndarray:
    """Rows ``A_theta^+ f`` for the rows of ``F``, from one ``eigh`` of the
    stacked induced matrices (of the one matrix, when one serves every
    row, its eigenpairs then repeated over the rows).  Eigenvalues with
    ``|w| <= 1e-12·max|w|`` are kernel (all of them for theta = 0); the
    first row outside the image by more than 1e-8 (relative) raises
    :class:`MembershipError` with its residuals and ``row``."""
    return _pinv(*_stack(thetas, F, p), p)


def _pinv(thetas: np.ndarray, F: np.ndarray, p: int) -> np.ndarray:
    w, V = np.linalg.eigh(_induced(thetas, p))
    if len(thetas) != len(F):
        w, V = np.repeat(w, len(F), axis=0), np.repeat(V, len(F), axis=0)
    c = np.einsum("iab,ia->ib", V, F)
    kernel = np.abs(w) <= 1e-12 * np.abs(w).max(axis=1, keepdims=True)
    res = np.linalg.norm(np.where(kernel, c, 0.0), axis=1)
    fnorm = np.maximum(np.linalg.norm(F, axis=1), 1e-300)
    bad = np.flatnonzero(res > 1e-8 * fnorm)
    if bad.size:
        i = int(bad[0])
        raise MembershipError(
            f"form lies outside the operator image: residual {res[i]:.3e} "
            f"(relative {res[i] / fnorm[i]:.3e})",
            residual=float(res[i]), rel_residual=float(res[i] / fnorm[i]),
            row=i)
    inv = np.divide(1.0, w, out=np.zeros_like(w), where=~kernel)
    return np.einsum("iab,ib->ia", V, c * inv)


@dataclass
class FormSpectrum:
    """Spectrum of the induced operator on p-forms.

    ``values[r]`` is the eigenvalue attached to the multi-index
    ``indices[r]`` *in the eigenbasis of theta* (base eigenvalues ascending):
    the sum of the selected base eigenvalues.  The associated eigenforms are
    wedges of the corresponding base eigenvectors.
    """

    n: int
    p: int
    base_values: np.ndarray          # (n,) ascending
    base_vectors: np.ndarray         # (n, n) columns
    values: np.ndarray               # (C(n,p),) sums over indices
    indices: tuple[tuple[int, ...], ...]


def quadform_eigen(theta: np.ndarray, p: int) -> FormSpectrum:
    """Eigenvalues of the induced operator: sums of theta's eigenvalues.

    Each increasing multi-index ``J`` (into the ascending eigenvalues of
    ``theta``) contributes ``sum_{j in J} lambda_j``.
    """
    theta = _symmetrised(theta, None, 2)
    n = theta.shape[0]
    idx = index_list(n, p)      # checks n and p
    w, V = np.linalg.eigh(theta)
    vals = np.array([sum(w[j - 1] for j in J) for J in idx])
    return FormSpectrum(n=n, p=p, base_values=w, base_vectors=V,
                        values=vals, indices=idx)


@dataclass
class InverseBoundReport:
    """Result of the inverse-pairing upper bound check."""

    lhs: float            # <A_theta^{-1} g, g>
    rhs: float            # (1/p^2) * (theta^{-1})_jk g_jK g_kK
    ok: bool
    slack: float          # rhs - lhs (nonnegative when the bound holds)


def inverse_bound_check(theta: np.ndarray, g: PointForm) -> InverseBoundReport:
    """Check ``<A_theta^{-1} g, g> <= (1/p^2) (theta^{-1})_jk g_jK g_kK``.

    ``theta`` must be symmetric positive definite.  The right-hand side is
    the quadratic pairing of the *inverse matrix*, which is the induced
    operator of ``theta^{-1}`` — a genuinely different code path from the
    pseudo-inverse on the left.
    """
    theta = _symmetrised(theta, g.n, 2)
    w = np.linalg.eigvalsh(theta)
    if w[0] <= 0.0:
        raise PreconditionError(
            f"theta must be positive definite (min eigenvalue {w[0]:.3e})")
    if g.p == 0:
        return InverseBoundReport(0.0, 0.0, True, 0.0)
    lhs = float(_pinv(theta[None], g.coeffs[None], g.p)[0] @ g.coeffs)
    inv = np.linalg.inv(theta)
    rhs = float(_pairings(0.5 * (inv + inv.T)[None], g.coeffs[None],
                          g.p)[0]) / float(g.p) ** 2
    scale = max(abs(lhs), abs(rhs), 1.0)
    return InverseBoundReport(lhs=lhs, rhs=rhs,
                              ok=lhs <= rhs + 1e-12 * scale,
                              slack=rhs - lhs)


@dataclass
class RankOneImageReport:
    """Outcome of the rank-one shift image/inequality battery.

    For ``theta >= tau (x) tau`` (in the p-positive semi-definite sense) and a
    (p-1)-form ``xi``, the wedge ``tau ^ xi`` must lie in the image of the
    induced operator, with

    * ``<A^{-1}(tau ^ xi), tau ^ xi> <= |xi|^2``  (self inequality), and
    * ``<A^{-1} f, tau ^ xi> <= <A^{-1} f, f>^{1/2} |xi|`` for any f in the
      image (cross inequality).
    """

    membership_ok: bool
    membership_residual: float
    self_ok: bool
    self_value: float
    self_bound: float
    cross_ok: Optional[bool]
    cross_value: Optional[float]
    cross_bound: Optional[float]

    @property
    def all_ok(self) -> bool:
        return bool(self.membership_ok and self.self_ok
                    and (self.cross_ok is None or self.cross_ok))


def rank_one_image_check(theta: np.ndarray, tau: np.ndarray, xi: PointForm,
                         f: Optional[PointForm] = None) -> RankOneImageReport:
    """Verify the image membership and the two inner-product inequalities
    that a rank-one lower bound on ``theta`` guarantees.

    Raises :class:`PreconditionError` when ``theta - tau (x) tau`` fails
    p-positive semi-definiteness beyond 1e-10 (p = xi.p + 1, measured
    by the smallest sum of p eigenvalues).
    """
    tau = np.asarray(tau, dtype=np.float64)
    theta = _symmetrised(theta, xi.n, 2)
    if tau.shape != (xi.n,):
        raise ValueError(f"tau has shape {tau.shape}, expected ({xi.n},)")
    p = xi.p + 1
    if p > xi.n:
        raise ValueError(f"xi degree {xi.p} leaves no room for a {p}-form on R^{xi.n}")
    shifted = theta - np.outer(tau, tau)
    w = np.linalg.eigvalsh(shifted)
    if float(w[:p].sum()) < -1e-10 * (1.0 + float(np.abs(w).max())):
        raise PreconditionError(
            "theta - tau(x)tau is not p-positive semi-definite "
            f"(smallest {p}-eigenvalue sum {w[:p].sum():.3e})")

    target = wedge(oneform(tau), xi)
    xi_norm2 = xi.inner(xi)
    try:
        x = PointForm(xi.n, p, _pinv(theta[None], target.coeffs[None], p)[0])
    except MembershipError as err:
        return RankOneImageReport(
            membership_ok=False, membership_residual=err.residual,
            self_ok=False, self_value=float("nan"), self_bound=xi_norm2,
            cross_ok=None, cross_value=None, cross_bound=None)

    self_value = x.inner(target)
    self_ok = self_value <= xi_norm2 + 1e-10 * (1.0 + abs(xi_norm2))

    cross_ok = cross_value = cross_bound = None
    if f is not None:
        target._compat(f)
        y = PointForm(f.n, f.p, _pinv(theta[None], f.coeffs[None], f.p)[0])
        cross_value = y.inner(target)
        quad = max(y.inner(f), 0.0)
        cross_bound = math.sqrt(quad) * math.sqrt(max(xi_norm2, 0.0))
        cross_ok = cross_value <= cross_bound + 1e-10 * (1.0 + abs(cross_bound))

    return RankOneImageReport(
        membership_ok=True, membership_residual=0.0,
        self_ok=bool(self_ok), self_value=float(self_value), self_bound=float(xi_norm2),
        cross_ok=cross_ok, cross_value=cross_value, cross_bound=cross_bound)
