"""Cubical complexes on gridded domains, with weighted calculus.

Two layers deliberately coexist:

* the *cochain layer* — integer coboundary matrices with ``d∘d = 0`` exactly,
  diagonal weighted mass matrices, and the weighted adjoint
  ``M_{p-1}^{-1} dᵀ M_p``.  Everything here is exact linear algebra, which
  is what solving ``du = f`` and counting cohomology require.
* the *node layer* — centered differences on node samples of smooth forms,
  used by :func:`energy_identity_residual` to verify the weighted energy
  identity, whose pointwise Hessian term has no exact cochain analogue.

Cells are pairs ``(anchor, axes)``: the anchor is an integer vertex
multi-index and ``axes`` the strictly increasing tuple of axis numbers
(0-based) along which the cell extends.  A cell enters the complex iff its
barycenter lies in the domain and all of its facets entered — so closure
holds by construction and every coboundary row finds its columns.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.ndimage as ndi
import scipy.sparse as sp

from .errors import DomainError, EmptyDomain, SupportError
from .exterior import PointForm, index_list, pairing_quadratic
from .fieldexpr import field_jets, row_blocks

__all__ = [
    "GridDomain",
    "CubicalComplex",
    "Cochain",
    "WeightedMass",
    "build_complex",
    "coboundary",
    "mass",
    "weighted_adjoint",
    "sample_cochain",
    "EnergyIdentityReport",
    "energy_identity_residual",
]


# ---------------------------------------------------------------------------
# gridded domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridDomain:
    """An axis-aligned box grid, optionally cut down to ``{r < 0}``.

    ``box`` is a per-axis sequence of ``(lo, hi)`` pairs and ``h`` the
    requested spacing; each axis gets ``max(2, round(length/h))`` cells, so
    the effective per-axis ``spacings`` may differ slightly from ``h`` when
    the length is not a multiple of it.
    """

    box: Tuple[Tuple[float, float], ...]
    h: float
    r: Optional[object] = None

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        if not box:
            raise ValueError("box needs at least one axis")
        if not (self.h > 0):
            raise ValueError(f"spacing must be positive, got {self.h}")
        counts, spacings = [], []
        for lo, hi in box:
            if not (hi > lo):
                raise ValueError(f"empty axis range [{lo}, {hi}]")
            m = max(2, int(round((hi - lo) / self.h)))
            counts.append(m)
            spacings.append((hi - lo) / m)
        if self.r is not None and not hasattr(self.r, "value"):
            raise TypeError("r must expose .value(x) or be None")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "counts", tuple(counts))
        object.__setattr__(self, "spacings", tuple(spacings))

    @property
    def n(self) -> int:
        return len(self.box)

    def node_axes(self):
        """Per-axis node coordinates (counts[i] + 1 points)."""
        return [np.linspace(lo, hi, m + 1)
                for (lo, hi), m in zip(self.box, self.counts)]


Cell = Tuple[Tuple[int, ...], Tuple[int, ...]]


class CubicalComplex:
    """Cells, index maps, and verified coboundaries of a gridded domain."""

    def __init__(self, dom: GridDomain, cells, coboundaries, inclusion_rule):
        self.dom = dom
        self.cells: Tuple[Tuple[Cell, ...], ...] = cells
        self.index = tuple({c: i for i, c in enumerate(lvl)} for lvl in cells)
        self._cob = coboundaries
        self.inclusion_rule = inclusion_rule
        self._layouts = {}

    @property
    def n(self) -> int:
        return self.dom.n

    def num_cells(self, p: int) -> int:
        return len(self.cells[p])

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** p * len(lvl) for p, lvl in enumerate(self.cells))

    def _layout(self, p: int) -> Tuple[np.ndarray, np.ndarray]:
        """Anchors and spanned-axis masks of the p-cells, both ``(m, n)``.

        Cached; anchors use the smallest integer type that holds a vertex
        index, so geometry derived from them is cheap to keep around.
        """
        if p not in self._layouts:
            cells = self.cells[p]
            spans = {axes: [a in axes for a in range(self.n)]
                     for axes in itertools.combinations(range(self.n), p)}
            self._layouts[p] = (
                np.array([c[0] for c in cells],
                         dtype=np.min_scalar_type(max(self.dom.counts))
                         ).reshape(len(cells), self.n),
                np.array([spans[c[1]] for c in cells],
                         dtype=bool).reshape(len(cells), self.n))
        return self._layouts[p]

    def barycenters(self, p: int) -> np.ndarray:
        """Barycenters of the p-cells, ``(num_cells(p), n)``, in cell order."""
        anchors, spanned = self._layout(p)
        lo = np.array([lo for lo, _ in self.dom.box])
        s = np.array(self.dom.spacings)
        return lo + anchors * s + np.where(spanned, 0.5 * s, 0.0)


def build_complex(dom: GridDomain) -> CubicalComplex:
    """Enumerate cells bottom-up and assemble verified coboundaries.

    A vertex enters iff it lies in the domain; a higher cell enters iff its
    barycenter does *and* both facets along every spanned axis entered.
    ``r`` is evaluated once over the vertex grid and once per
    axes-combination over the barycenters whose facets all entered.
    Raises :class:`~pconvex.errors.EmptyDomain` when no vertex qualifies.
    """
    n = dom.n
    nodes = [lo + np.arange(m + 1) * s
             for (lo, _), m, s in zip(dom.box, dom.counts, dom.spacings)]
    mids = [x[:-1] + 0.5 * s for x, s in zip(nodes, dom.spacings)]
    present = {}        # axes -> boolean anchor grid of the cells included
    levels = []
    for p in range(n + 1):
        lvl = []
        for axes in itertools.combinations(range(n), p):
            ok = np.ones([m if i in axes else m + 1
                          for i, m in enumerate(dom.counts)], dtype=bool)
            for a in axes:
                facets = present[tuple(b for b in axes if b != a)]
                ok &= (facets[(slice(None),) * a + (slice(None, -1),)]
                       & facets[(slice(None),) * a + (slice(1, None),)])
            anchors = np.argwhere(ok)
            if dom.r is not None:
                bary = np.stack(
                    [(mids if i in axes else nodes)[i][anchors[:, i]]
                     for i in range(n)], axis=1)
                anchors = anchors[field_jets(dom.r, bary, order=0) < 0.0]
            grid = np.zeros_like(ok)
            grid[tuple(anchors.T)] = True
            present[axes] = grid
            lvl.extend((a, axes) for a in zip(*anchors.T.tolist()))
        if not lvl and p == 0:
            raise EmptyDomain("no grid vertex satisfies r < 0")
        levels.append(tuple(lvl))

    cells = tuple(levels)
    index = tuple({c: i for i, c in enumerate(lvl)} for lvl in cells)
    cob = tuple(_assemble_coboundary(cells, index, p) for p in range(n))
    for p in range(n - 1):
        prod = cob[p + 1] @ cob[p]
        if prod.nnz and np.any(prod.data != 0):
            raise AssertionError(f"coboundary composition d_{p+1} d_{p} != 0")
    rule = ("all cells of the box" if dom.r is None
            else "barycenter satisfies r < 0, closed under facets")
    return CubicalComplex(dom, cells, cob, rule)


def _assemble_coboundary(cells, index, p: int) -> sp.csr_matrix:
    rows, cols, data = [], [], []
    for row, (anchor, axes) in enumerate(cells[p + 1]):
        for j, a in enumerate(axes):
            sub = tuple(b for b in axes if b != a)
            front = tuple(v + (1 if i == a else 0)
                          for i, v in enumerate(anchor))
            sign = 1 if j % 2 == 0 else -1
            rows.extend((row, row))
            cols.extend((index[p][(front, sub)], index[p][(anchor, sub)]))
            data.extend((sign, -sign))
    return sp.csr_matrix(
        (np.array(data, dtype=np.int64), (rows, cols)),
        shape=(len(cells[p + 1]), len(cells[p])))


def coboundary(cx: CubicalComplex, p: int) -> sp.csr_matrix:
    """The integer matrix of ``d`` from p-cochains to (p+1)-cochains."""
    if not 0 <= p < cx.n:
        raise ValueError(f"degree must satisfy 0 <= p < {cx.n}, got {p}")
    return cx._cob[p]


# ---------------------------------------------------------------------------
# cochains and weighted masses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cochain:
    """Values over the p-cells, one per cell, ordered like ``cx.cells[p]``."""

    p: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 1:
            raise ValueError("cochain values must form a flat array")


@dataclass(frozen=True)
class WeightedMass:
    """Diagonal of the weighted inner product on p-cochains."""

    p: int
    diag: np.ndarray

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.dot(a, self.diag * b))


def mass(cx: CubicalComplex, phi, p: int) -> WeightedMass:
    """Weighted diagonal mass: entry ``e^{-phi(barycenter)} · dual/|cell|``.

    For a cell away from the box faces the geometric factor is exactly
    ``h^{n-2p}`` (product form for anisotropic spacings); a transverse axis
    sitting on a box face contributes half its spacing to the dual extent,
    which is what makes the induced inner product a trapezoid-accurate
    quadrature of ``∫⟨α,β⟩ e^{-phi}``.
    """
    if not 0 <= p <= cx.n:
        raise ValueError(f"degree must satisfy 0 <= p <= {cx.n}, got {p}")
    anchors, spanned = cx._layout(p)
    factor = np.ones(len(anchors))
    for a, (s, m) in enumerate(zip(cx.dom.spacings, cx.dom.counts)):
        inner = (0 < anchors[:, a]) & (anchors[:, a] < m)
        factor = np.where(spanned[:, a], factor / s,
                          factor * np.where(inner, s, 0.5 * s))
    bary = cx.barycenters(p)
    with np.errstate(over="ignore"):
        diag = np.exp(-field_jets(phi, bary, order=0)) * factor
    bad = np.flatnonzero(~np.isfinite(diag) | (diag <= 0))
    if bad.size:
        i = bad[0]
        raise DomainError(
            "weight produced a non-positive or overflowed mass entry: "
            f"{'underflowed to 0' if diag[i] == 0 else 'overflowed'} at the "
            f"barycenter {np.round(bary[i], 6).tolist()} of {p}-cell {i}")
    return WeightedMass(p, diag)


def weighted_adjoint(cx: CubicalComplex, phi, p: int) -> sp.csr_matrix:
    """Adjoint of ``d`` in the weighted inner products: ``M⁻¹ dᵀ M``.

    Satisfies ``⟨du, v⟩_{M_p} = ⟨u, δ v⟩_{M_{p-1}}`` identically — the
    discrete form of the absolute boundary condition, imposed weakly by
    the complex itself rather than by constraining values.
    """
    if not 1 <= p <= cx.n:
        raise ValueError(f"degree must satisfy 1 <= p <= {cx.n}, got {p}")
    m_src = mass(cx, phi, p - 1).diag
    m_tgt = mass(cx, phi, p).diag
    d = cx._cob[p - 1]
    return sp.csr_matrix(
        sp.diags(1.0 / m_src) @ d.T.astype(np.float64) @ sp.diags(m_tgt))


def sample_cochain(cx: CubicalComplex, p: int, coeffs) -> Cochain:
    """Midpoint-rule cochain of an analytic p-form.

    ``coeffs`` lists one evaluator (number, field, ``.value`` object, or
    callable; see :func:`pconvex.fieldexpr.field_jets`) per increasing
    multi-index in lexicographic order — the ordering of
    :func:`pconvex.exterior.index_list`.  A p-cell spanning axes ``S``
    receives ``coeff_S(barycenter) · prod(spacings[S])``; each coefficient
    is evaluated over all of its cells in one call.
    """
    if not 0 <= p <= cx.n:
        raise ValueError(f"degree must satisfy 0 <= p <= {cx.n}, got {p}")
    order = index_list(cx.n, p)
    if len(coeffs) != len(order):
        raise ValueError(
            f"need {len(order)} coefficients for degree {p} in dimension "
            f"{cx.n}, got {len(coeffs)}")
    rank = {tuple(i - 1 for i in I): k for k, I in enumerate(order)}
    component = np.array([rank[cell[1]] for cell in cx.cells[p]], dtype=int)
    bary = cx.barycenters(p)
    values = np.empty(component.size)
    for k, (I, f) in enumerate(zip(order, coeffs)):
        rows = component == k
        vol = math.prod(cx.dom.spacings[i - 1] for i in I)
        values[rows] = field_jets(f, bary[rows], order=0) * vol
    return Cochain(p, values)


# ---------------------------------------------------------------------------
# node-layer energy identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyIdentityReport:
    """Both sides of the weighted energy identity and their mismatch.

    ``lhs`` is ``‖dg‖² + ‖δ_φ g‖²`` in the weighted norm;
    ``rhs_gradient_term`` the weighted integral of all squared coefficient
    partials; ``rhs_quadform_term`` the weighted integral of the Hessian
    quadratic form of the weight acting on g.  For compactly supported g
    the identity ``lhs = gradient + quadform`` holds in the continuum;
    ``residual`` is the symmetric relative mismatch of the discretization.
    """

    lhs: float
    rhs_gradient_term: float
    rhs_quadform_term: float
    residual: float


def _insertion_sign(j: int, rest: Tuple[int, ...]) -> int:
    k = sum(1 for b in rest if b < j)
    return 1 if k % 2 == 0 else -1


def energy_identity_residual(coeffs, phi, dom: GridDomain,
                             p: int) -> EnergyIdentityReport:
    """Check the weighted energy identity on node samples of a smooth form.

    ``coeffs`` lists the form's coefficient evaluators in the order of
    :func:`pconvex.exterior.index_list`.  The form must vanish within two
    node layers of the domain boundary (box faces and, if ``dom.r`` is
    present, the staircase rim) — that kills the boundary term, making the
    identity exact in the continuum; :class:`~pconvex.errors.SupportError`
    otherwise.  Derivatives are centered differences on the node grid and
    integrals plain node quadrature, so the residual shrinks like O(h²).
    """
    n = dom.n
    if not 1 <= p <= n:
        raise ValueError(f"degree must satisfy 1 <= p <= {n}, got {p}")
    order = index_list(n, p)
    if len(coeffs) != len(order):
        raise ValueError(
            f"need {len(order)} coefficients for degree {p} in dimension "
            f"{n}, got {len(coeffs)}")

    axes = dom.node_axes()
    shape = tuple(a.size for a in axes)
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    G = np.empty((len(order),) + shape)
    for k, f in enumerate(coeffs):
        G[k] = field_jets(f, X, order=0).reshape(shape)

    gmax = np.abs(G).max()
    report_zero = EnergyIdentityReport(0.0, 0.0, 0.0, 0.0)
    if gmax == 0.0:
        return report_zero

    if dom.r is None:
        inside = np.ones(shape, dtype=bool)
    else:
        inside = field_jets(dom.r, X, order=0).reshape(shape) < 0.0
    safe = ndi.binary_erosion(inside, iterations=2, border_value=0)
    unsafe_mag = np.abs(G[:, ~safe]).max() if (~safe).any() else 0.0
    if unsafe_mag > 1e-12 * gmax:
        raise SupportError(
            f"form reaches {unsafe_mag:.3e} within two node layers of the "
            f"boundary (max magnitude {gmax:.3e})")

    spac = dom.spacings
    dG = {I: [np.gradient(G[k], spac[a], axis=a) for a in range(n)]
          for k, I in enumerate(order)}
    vol = float(np.prod(spac))

    # weight values and gradients at every node; the Hessian term of the
    # identity is summed over the form's support block by block
    support = np.any(G != 0.0, axis=0).reshape(-1)
    G_nodes = G.reshape(len(order), -1)
    phi_v = np.empty(X.shape[0])
    phi_g = np.empty(X.shape)
    rhs_quad = 0.0
    for rows in row_blocks(X.shape[0]):
        v, g, hess = field_jets(phi, X[rows])
        phi_v[rows], phi_g[rows] = v, g
        if isinstance(phi, numbers.Real):
            continue
        w = np.exp(-v)
        for i in np.flatnonzero(support[rows]):
            form = PointForm(n, p, G_nodes[:, rows.start + i])
            rhs_quad += pairing_quadratic(hess[i], form) * w[i]
    rhs_quad *= vol
    phi_g = phi_g.reshape(shape + (n,))
    weight = np.exp(-phi_v).reshape(shape)

    # exterior derivative coefficients, degree p+1
    d_coeffs = {J: np.zeros(shape) for J in index_list(n, p + 1)} \
        if p < n else {}
    for I in order:
        for a in range(n):
            j = a + 1
            if j in I:
                continue
            J = tuple(sorted(I + (j,)))
            d_coeffs[J] += _insertion_sign(j, I) * dG[I][a]

    # weighted codifferential coefficients, degree p-1
    co_coeffs = {M: np.zeros(shape) for M in index_list(n, p - 1)}
    for k, I in enumerate(order):
        for j in I:
            a = j - 1
            M = tuple(b for b in I if b != j)
            co_coeffs[M] -= _insertion_sign(j, M) * (
                dG[I][a] - phi_g[..., a] * G[k])

    sq = sum(v * v for v in d_coeffs.values()) if d_coeffs else 0.0
    sq = sq + sum(v * v for v in co_coeffs.values())
    lhs = float(np.sum(sq * weight)) * vol

    grad_sq = sum(dv * dv for partials in dG.values() for dv in partials)
    rhs_grad = float(np.sum(grad_sq * weight)) * vol

    rhs = rhs_grad + rhs_quad
    denom = abs(lhs) + abs(rhs)
    residual = abs(lhs - rhs) / denom if denom > 0 else 0.0
    return EnergyIdentityReport(lhs, rhs_grad, rhs_quad, residual)
