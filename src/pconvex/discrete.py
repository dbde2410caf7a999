"""Cubical complexes on gridded domains, with weighted calculus.

Two layers deliberately coexist:

* the *cochain layer* — integer coboundaries with ``d∘d = 0`` exactly,
  applied as gathers, diagonal weighted mass matrices, and the weighted adjoint
  ``M_{p-1}^{-1} dᵀ M_p``.  Everything here is exact linear algebra, which
  is what solving ``du = f`` and counting cohomology require.
* the *node layer* — centered differences on node samples of smooth forms,
  used by :func:`energy_identity_residual` to verify the weighted energy
  identity, whose pointwise Hessian term has no exact cochain analogue.

A cell is an integer vertex multi-index, its anchor, together with the
strictly increasing tuple ``axes`` of axis numbers (0-based) along which it
extends.  The complex stores per degree the anchors, one row per cell, and
per axes combination an id grid holding each present cell's row at its
position: cells are found by position through these grids alone.  Rows
are ordered by axes combination in ``itertools.combinations`` order, then
by anchor in C order, so the cells spanning one combination are one
contiguous block.  A cell enters the complex iff its barycenter lies in
the domain and all of its facets entered — so closure holds by
construction and every row of ``d_p`` finds its 2(p+1) columns, written
in the CSR order :func:`coboundary` states.
"""

from __future__ import annotations

import importlib
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError, EmptyDomain, SupportError, raise_first
from .exterior import (_insertion_table, dim_forms, index_list,
                       induced_pairings)
from .fieldexpr import BLOCK_ROWS, VALUE_BLOCK_ROWS, field_jets, field_kind

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


class _LazyModule:
    """The module ``name``, imported on first attribute access: tasks that
    need no CSR matrix then run on numpy alone."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


sp = _LazyModule("scipy.sparse")


# ---------------------------------------------------------------------------
# gridded domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridDomain:
    """An axis-aligned box grid, optionally cut down to ``{r < 0}``.

    ``box`` is a per-axis sequence of ``(lo, hi)`` pairs, ``h`` the
    requested spacing and ``r`` a field (checked at construction); each
    axis gets ``max(2, round(length/h))`` cells, so the effective per-axis
    ``spacings`` may differ slightly from ``h`` when the length is not a
    multiple of it.
    """

    box: Tuple[Tuple[float, float], ...]
    h: float
    r: Optional[object] = None

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        if not box:
            raise ValueError("box needs at least one axis")
        if not 0 < self.h < math.inf:
            raise ValueError(f"spacing must be positive and finite, "
                             f"got {self.h}")
        counts, spacings = [], []
        for lo, hi in box:
            if not 0 < hi - lo < math.inf:
                raise ValueError(f"need a finite lo < hi, got [{lo}, {hi}]")
            m = max(2, int(round((hi - lo) / self.h)))
            counts.append(m)
            spacings.append((hi - lo) / m)
        field_kind(self.r)
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


class CubicalComplex:
    """Cells and verified coboundaries of a gridded domain, as arrays.

    ``anchors[p]`` is the ``(num_cells(p), n)`` array of the p-cells'
    anchors, in cell order.  ``ids[axes]`` is an int32 grid over the
    anchors of the cells spanning ``axes``: the cell's row where it is
    present and -1 where it is not.  ``rows[p]`` holds the
    ``(axes, rows)`` blocks of the p-cells, from the build.  ``d_p`` is the
    int32 ``(num_cells(p+1), 2(p+1))`` columns ``cols[p]``, in the order
    :func:`coboundary` states, and ``signs[p]``, per block and column.
    """

    def __init__(self, dom: GridDomain, anchors, ids, cols, signs, rows):
        self.dom = dom
        self.anchors: Tuple[np.ndarray, ...] = anchors
        self.ids = ids
        self._cols = cols
        self._signs = signs
        self._rows = rows

    @property
    def n(self) -> int:
        return self.dom.n

    def num_cells(self, p: int) -> int:
        return len(self.anchors[p])

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** p * len(a) for p, a in enumerate(self.anchors))

    def blocks(self, p: int):
        """``(axes, rows)`` per axes combination in cell order: the p-cells
        spanning ``axes`` are the contiguous rows ``rows``."""
        return self._rows[p]

    @cached_property
    def dual_volumes(self) -> np.ndarray:
        """Unweighted dual volumes of the vertices, built once per complex."""
        return mass(self, 0.0, 0).diag

    def barycenters(self, p: int) -> np.ndarray:
        """Barycenters of the p-cells, ``(num_cells(p), n)``, in cell order."""
        return _barycenter_rows(self, p, 0, np.empty(self.anchors[p].shape))


def _cut_blocks(cx: CubicalComplex, p: int, start: int, stop: int):
    """The ``(axes, rows)`` blocks of the p-cells cut to rows
    ``start:stop``, leaving out the blocks the cut misses."""
    return [(axes, slice(max(r.start, start), min(r.stop, stop)))
            for axes, r in cx.blocks(p)
            if max(r.start, start) < min(r.stop, stop)]


def _write_barycenters(dom: GridDomain, anchors: np.ndarray, axes,
                       out: np.ndarray) -> None:
    """Write into ``out`` the barycenters of the cells spanning ``axes`` at
    the rows of ``anchors``: ``anchor·s + lo``, plus ``s/2`` along
    ``axes``, axis by axis in place."""
    for i, ((lo, _), s) in enumerate(zip(dom.box, dom.spacings)):
        x = out[:, i]
        np.multiply(anchors[:, i], s, out=x)
        x += lo
        if i in axes:
            x += 0.5 * s


def _barycenter_rows(cx: CubicalComplex, p: int, start: int,
                     out: np.ndarray) -> np.ndarray:
    """``out`` holding the barycenters of the p-cells ``start``,
    ``start + 1``, … in its rows, written block by block."""
    for axes, rows in _cut_blocks(cx, p, start, start + len(out)):
        _write_barycenters(cx.dom, cx.anchors[p][rows], axes,
                           out[rows.start - start:rows.stop - start])
    return out


def build_complex(dom: GridDomain) -> CubicalComplex:
    """Enumerate cells bottom-up and assemble verified coboundaries.

    A vertex enters iff it lies in the domain; a higher cell enters iff its
    barycenter does *and* both facets along every spanned axis entered.
    ``r`` is evaluated once over the vertex grid and once per
    axes-combination over the barycenters whose facets all entered.  Cells
    are ordered by axes combination (``itertools.combinations`` order), then
    by anchor in C order.  Each block's ids, anchors and coboundary columns
    (the facet id grids shifted along each axis) are written once, through
    its presence mask, into one array per degree, and its signs once; the
    block row ranges are kept for :meth:`CubicalComplex.blocks`.  Ids and
    columns are int32 (``ValueError`` if a degree outgrows it).
    Raises :class:`~pconvex.errors.EmptyDomain` when no vertex qualifies.
    """
    n, counts = dom.n, dom.counts
    nodes = [lo + np.arange(m + 1) * s
             for (lo, _), m, s in zip(dom.box, counts, dom.spacings)]
    mids = [x[:-1] + 0.5 * s for x, s in zip(nodes, dom.spacings)]
    small = np.min_scalar_type(max(counts))
    ids, anchors, cols, signs, rows = {}, [], [], [], []
    for p in range(n + 1):
        blocks, start = [], 0
        # facet rK = axes less a enters d with the sign of inserting a into
        # it; a descending, back before front: each row's columns ascend
        pos, sgn = _insertion_table(n, p) if p else (None, None)
        for rS, axes in enumerate(itertools.combinations(range(n), p)):
            shape = [m if i in axes else m + 1 for i, m in enumerate(counts)]
            ok = np.ones(shape, dtype=bool)
            faces, slots = [], []
            for a in reversed(axes):
                rK = pos[a].tolist().index(rS)
                facet = ids[tuple(b for b in axes if b != a)]
                back = facet[(slice(None),) * a + (slice(None, -1),)]
                front = facet[(slice(None),) * a + (slice(1, None),)]
                ok &= (back >= 0) & (front >= 0)
                faces += [back, front]
                slots += [-sgn[a, rK], sgn[a, rK]]
            # each anchor column in the anchors' own dtype, through ok
            found = [g[ok] for g in np.indices(shape, dtype=small)]
            if dom.r is not None:
                bary = np.stack([(mids if i in axes else nodes)[i][found[i]]
                                 for i in range(n)], axis=1)
                keep = field_jets(dom.r, bary, order=0) < 0.0
                found, ok[ok] = tuple(f[keep] for f in found), keep
            stop = start + len(found[0])
            if max(1, 2 * p) * stop > np.iinfo(np.int32).max:
                raise ValueError(
                    f"the complex has {stop:,} {p}-cells or more: their ids "
                    "and coboundary entries must fit in int32")
            ids[axes] = np.full(shape, -1, dtype=np.int32)
            ids[axes][ok] = np.arange(start, stop, dtype=np.int32)
            blocks.append((axes, slice(start, stop), ok, found, faces, slots))
            start = stop
        if start == 0 and p == 0:
            raise EmptyDomain("no grid vertex satisfies r < 0")
        anchors.append(np.empty((start, n), dtype=small))
        if p:
            cols.append(np.empty((start, 2 * p), dtype=np.int32))
            signs.append(np.array([b[5] for b in blocks], dtype=np.int64))
        for axes, at, ok, found, faces, _ in blocks:
            for i, f in enumerate(found):
                anchors[p][at, i] = f
            for j, face in enumerate(faces):
                cols[-1][at, j] = face[ok]
        rows.append(tuple(b[:2] for b in blocks))
    cx = CubicalComplex(dom, tuple(anchors), ids, tuple(cols), tuple(signs),
                        tuple(rows))
    _check_closed(cx)
    return cx


#: Rows of (p+2)-cells per step of :func:`_check_closed`: each slot's
#: gathered facet rows stay a few tens of KiB, under the allocator's mmap
#: threshold (128 KiB at least in glibc), so the check reuses heap memory
#: instead of faulting in fresh pages for whole-block temporaries.
_CHECK_ROWS = 4 * BLOCK_ROWS


def _check_closed(cx: CubicalComplex) -> None:
    """Raise ``AssertionError`` unless ``d_{p+1} d_p = 0`` exactly: in each
    block of (p+2)-cells the (slot, sub-slot) entries of the first row pair
    up by equal column, every row shows equal columns at each pair, each
    slot's facets lie in one lower block, whose sign table then holds, and
    the signs at each pair are opposite; so every entry of the product
    cancels a distinct partner.  Rows are compared :data:`_CHECK_ROWS` at a
    time, through each slot's facet rows of ``d_p`` gathered whole."""
    for p in range(cx.n - 1):
        hi, lo, lower = cx._cols[p + 1], cx._cols[p], cx.blocks(p + 1)
        stops = [r.stop for _, r in lower]
        fail = AssertionError(f"coboundary composition d_{p+1} d_{p} != 0")
        for (_, rows), s_hi in zip(cx.blocks(p + 2), cx._signs[p + 1]):
            if rows.stop == rows.start:
                continue
            block = hi[rows]
            at = np.searchsorted(stops, block[0], side="right")
            if not all(b < len(stops) and lower[b][1].start <= f.min()
                       and f.max() < stops[b]
                       for f, b in zip(block.T, at.tolist())):
                raise fail
            c0 = lo[block[0]].ravel()
            pairs = np.argsort(c0).reshape(-1, 2)
            c = c0[pairs]
            sign = (s_hi[:, None] * cx._signs[p][at]).ravel()[pairs]
            if np.any(c[:, 0] != c[:, 1]) or np.any(sign.sum(axis=1)):
                raise fail
            j, k = np.divmod(pairs, lo.shape[1])
            matched = list(zip(j.tolist(), k.tolist()))
            for start in range(0, len(block), _CHECK_ROWS):
                rows_of = [lo.take(f, axis=0)
                           for f in block[start:start + _CHECK_ROWS].T]
                for (j1, j2), (k1, k2) in matched:
                    if not np.array_equal(rows_of[j1][:, k1],
                                          rows_of[j2][:, k2]):
                        raise fail


def coboundary(cx: CubicalComplex, p: int) -> sp.csr_matrix:
    """The integer matrix of ``d`` from p-cochains to (p+1)-cochains, laid
    out as guaranteed: canonical CSR with 2(p+1) ascending columns per row,
    facet blocks in descending order of the removed axis and each back facet
    before its front one, so row e of ``d_0`` is -1, +1 at its lower and
    higher node.  Built on each call, from the complex's columns and signs."""
    if not 0 <= p < cx.n:
        raise ValueError(f"degree must satisfy 0 <= p < {cx.n}, got {p}")
    cols = cx._cols[p]
    indptr = np.arange(0, cols.size + 1, cols.shape[1], dtype=np.int32)
    return sp.csr_matrix((_row_signs(cx, p).ravel(), cols.ravel(), indptr),
                         shape=(len(cols), cx.num_cells(p)))


def _row_signs(cx: CubicalComplex, p: int) -> np.ndarray:
    """The int64 entries of ``d_p`` per row and slot, ``cols[p]``'s shape."""
    return np.repeat(cx._signs[p], [r.stop - r.start
                                    for _, r in cx.blocks(p + 1)], axis=0)


def _apply_d(cx: CubicalComplex, p: int, u: np.ndarray) -> np.ndarray:
    """``d_p @ u`` with the bits of CSR's product: from zeros, each block
    adds or subtracts ``u`` at each slot's columns, slot by slot."""
    cols, out = cx._cols[p], np.zeros(len(cx._cols[p]))
    for (_, rows), signs in zip(cx.blocks(p + 1), cx._signs[p]):
        acc = out[rows]
        for j, s in enumerate(signs.tolist()):
            (np.add if s > 0 else np.subtract)(acc, u.take(cols[rows, j]),
                                               out=acc)
    return out


# ---------------------------------------------------------------------------
# cochains and weighted masses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cochain:
    """Values over the p-cells, one per cell, in the complex's row order
    (``cx.anchors[p]``)."""

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

    The diagonal is allocated once and filled :data:`VALUE_BLOCK_ROWS` rows
    at a time, block by block: each slice's barycenters and factors go to
    scratch rows allocated once per call, ``phi`` is evaluated on them and
    ``exp(-phi)·factor`` is written in place.  So ``mass`` walks its blocks
    and builds the barycenter array of :meth:`CubicalComplex.barycenters`
    only to name a bad entry: one that underflows to 0, overflows or is not
    a number raises :class:`~pconvex.errors.DomainError` naming the first
    such cell.
    """
    if not 0 <= p <= cx.n:
        raise ValueError(f"degree must satisfy 0 <= p <= {cx.n}, got {p}")
    anchors, spacings = cx.anchors[p], cx.dom.spacings
    # per axis and anchor: the spacing, halved at both box faces
    tables = [np.r_[0.5 * s, np.full(m - 1, s), 0.5 * s]
              for s, m in zip(spacings, cx.dom.counts)]
    diag = np.empty(len(anchors))
    bary = np.empty((min(VALUE_BLOCK_ROWS, len(diag)), cx.n))
    factor = np.empty(len(bary))
    for start in range(0, len(diag), VALUE_BLOCK_ROWS):
        d = diag[start:start + VALUE_BLOCK_ROWS]
        for axes, rows in _cut_blocks(cx, p, start, start + len(d)):
            at = slice(rows.start - start, rows.stop - start)
            _write_barycenters(cx.dom, anchors[rows], axes, bary[at])
            f = factor[at]
            f.fill(1.0)
            for a, (s, t) in enumerate(zip(spacings, tables)):
                if a in axes:
                    f /= s
                else:
                    f *= t.take(anchors[rows, a])
        with np.errstate(over="ignore"):
            np.negative(field_jets(phi, bary[:len(d)], order=0), out=d)
            np.exp(d, out=d)
            d *= factor[:len(d)]
    if diag.size and not (diag.min() > 0.0 and diag.max() < math.inf):
        raise_first(DomainError, ~np.isfinite(diag) | (diag <= 0),
                    cx.barycenters(p), lambda i: (
                        "weight produced a non-positive or overflowed mass "
                        "entry: " + ("underflowed to 0" if diag[i] == 0
                                     else "overflowed" if diag[i] > 0
                                     else "not a number")
                        + f" on {p}-cell {i}"))
    return WeightedMass(p, diag)


def weighted_adjoint(cx: CubicalComplex, m_src: WeightedMass,
                     m_tgt: WeightedMass):
    """Adjoint ``δ = M_{p-1}⁻¹ dᵀ M_p`` of ``d`` in the masses ``m_src``
    (degree p−1) and ``m_tgt`` (degree p), as a function of the values.

    Satisfies ``⟨du, v⟩_{M_p} = ⟨u, δ v⟩_{M_{p-1}}`` identically — the
    discrete form of the absolute boundary condition, imposed weakly by
    the complex itself rather than by constraining values.  ``δ v`` sums
    ``(a_i·d_ji)·b_j·v_j``, ``a = 1/m_src`` and ``b = m_tgt``, by bincount
    in the row order of ``d``, with the bits of the CSR product.
    """
    p, sizes = m_src.p, (m_src.diag.size, m_tgt.diag.size)
    if not (0 <= p < cx.n and m_tgt.p == p + 1
            and sizes == (cx.num_cells(p), cx.num_cells(p + 1))):
        raise ValueError(f"need masses of degrees p-1 and p, 1 <= p <= "
                         f"{cx.n}, one entry per cell; got degrees "
                         f"{m_src.p}, {m_tgt.p} with {sizes} entries")
    cols = cx._cols[p]
    entries = ((_row_signs(cx, p) * (1.0 / m_src.diag)[cols])
               * m_tgt.diag[:, None])
    return lambda v: np.bincount(cols.ravel(), (entries * v[:, None]).ravel(),
                                 cx.num_cells(p))


def sample_cochain(cx: CubicalComplex, p: int, coeffs) -> Cochain:
    """Midpoint-rule cochain of an analytic p-form.

    ``coeffs`` lists one field (number, object with ``jets``, or callable
    of one point; see :func:`pconvex.fieldexpr.field_jets`) per increasing
    multi-index in lexicographic order — the ordering of
    :func:`pconvex.exterior.index_list`.  A p-cell spanning axes ``S``
    receives ``coeff_S(barycenter) · prod(spacings[S])``; each coefficient
    is evaluated over all of its cells in one call.  A value that is not
    finite raises :class:`~pconvex.errors.DomainError` naming the first
    such cell.
    """
    if not 0 <= p <= cx.n:
        raise ValueError(f"degree must satisfy 0 <= p <= {cx.n}, got {p}")
    order = index_list(cx.n, p)
    if len(coeffs) != len(order):
        raise ValueError(
            f"need {len(order)} coefficients for degree {p} in dimension "
            f"{cx.n}, got {len(coeffs)}")
    bary = cx.barycenters(p)
    values = np.empty(len(bary))
    for (axes, rows), f in zip(cx.blocks(p), coeffs):
        vol = math.prod(cx.dom.spacings[a] for a in axes)
        values[rows] = field_jets(f, bary[rows], order=0) * vol
    raise_first(DomainError, ~np.isfinite(values), bary, lambda i: (
        f"sampled value {values[i]} on {p}-cell {i} is not finite"))
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


def _erode(mask: np.ndarray, rounds: int) -> np.ndarray:
    """Keep the entries of ``mask`` whose face neighbours along every axis
    are set, ``rounds`` times over; entries outside the grid count as
    unset."""
    inner = (slice(1, -1),) * mask.ndim
    for _ in range(rounds):
        pad = np.pad(mask, 1)
        out = mask.copy()
        for a in range(mask.ndim):
            for shift in (slice(None, -2), slice(2, None)):
                out &= pad[inner[:a] + (shift,) + inner[a + 1:]]
        mask = out
    return mask


# a non-finite sum raises below, naming its node: no warnings on the way
@np.errstate(over="ignore", invalid="ignore")
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
    ``phi`` is evaluated at every node, but differentiated only where the
    form is nonzero, the only nodes its gradient and Hessian reach, and the
    form only on the box of those nodes grown by two layers.  A Hessian of
    ``phi`` or a side of the identity that is not finite raises
    :class:`~pconvex.errors.DomainError` naming the first such node.
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

    mag = np.abs(G).max(axis=0).reshape(-1)     # per node
    gmax = mag.max()
    if gmax == 0.0:
        return EnergyIdentityReport(0.0, 0.0, 0.0, 0.0)

    if dom.r is None:
        inside = np.ones(shape, dtype=bool)
    else:
        inside = field_jets(dom.r, X, order=0).reshape(shape) < 0.0
    raise_first(SupportError, ~_erode(inside, 2).reshape(-1)
                & (mag > 1e-12 * gmax), X, lambda i: (
                    f"form reaches {mag[i]:.3e} within two node layers of "
                    f"the boundary (max magnitude {gmax:.3e})"))

    # the form is differenced on the window of its nonzero nodes grown by
    # two layers, where centred differences equal the whole grid's; off it
    # each integrand is 0·weight, so sums over every node keep their bits
    nz = (mag != 0.0).reshape(shape)
    at = np.argwhere(nz)
    win = tuple(map(slice, np.maximum(at.min(0) - 2, 0), at.max(0) + 3))
    Gw = G[(slice(None),) + win]
    spac = dom.spacings
    DG = np.empty((n, len(order), Gw[0].size))  # DG[a, k] = ∂_a g_k
    for k in range(len(order)):
        for a in range(n):
            DG[a, k] = np.gradient(Gw[k], spac[a], axis=a).reshape(-1)
    Gw = Gw.reshape(len(order), -1)
    vol = float(np.prod(spac))

    # the weight at every node, ∂φ and D²φ only where g != 0 (∂φ·g is 0
    # elsewhere); the Hessian term is summed per BLOCK_ROWS nodes, as always
    G = G.reshape(len(order), -1)
    weight = np.exp(-field_jets(phi, X, order=0))
    on = np.flatnonzero(nz)
    _, grad, hess = field_jets(phi, X[on])
    raise_first(DomainError, ~np.isfinite(hess).all(axis=(1, 2)), X[on],
                lambda i: "the Hessian of phi is not finite")
    phi_g = np.zeros(shape + (n,))
    phi_g.reshape(-1, n)[on] = grad
    phi_g = phi_g[win].reshape(-1, n)
    quad = induced_pairings(hess, G[:, on].T, p)
    cuts = np.searchsorted(on, np.arange(BLOCK_ROWS, X.shape[0], BLOCK_ROWS))
    rhs_quad = 0.0
    for q, w in zip(np.split(quad, cuts), np.split(weight[on], cuts)):
        rhs_quad += float(np.dot(q, w))
    rhs_quad *= vol

    # (dg)_J = sum_{j in J} sgn ∂_j g_{J-j} and (δ_φ g)_M = -sum_{j not in M}
    # sgn (∂_j - ∂_jφ) g_{jM}, signs from the insertion tables; j runs down
    # for d and up for δ so that each coefficient adds its terms in the lex
    # order of the source multi-indices
    sq = 0.0
    if p < n:
        pos, sgn = _insertion_table(n, p + 1)
        dg = np.zeros((dim_forms(n, p + 1), Gw.shape[1]))
        for j in reversed(range(n)):
            for k in np.flatnonzero(pos[j] >= 0):
                dg[pos[j, k]] += sgn[j, k] * DG[j, k]
        sq = sum(v * v for v in dg)
    pos, sgn = _insertion_table(n, p)
    co = np.zeros((dim_forms(n, p - 1), Gw.shape[1]))
    for j in range(n):
        for M in np.flatnonzero(pos[j] >= 0):
            I = pos[j, M]
            co[M] -= sgn[j, M] * (DG[j, I] - phi_g[:, j] * Gw[I])
    sq = sq + sum(v * v for v in co)
    grad_sq = sum(DG[a, k] * DG[a, k]
                  for k in range(len(order)) for a in range(n))
    weight_w = weight.reshape(shape)[win]
    lhs_int, grad_int = 0.0 * weight, 0.0 * weight
    lhs_int.reshape(shape)[win] = sq.reshape(weight_w.shape) * weight_w
    grad_int.reshape(shape)[win] = grad_sq.reshape(weight_w.shape) * weight_w
    lhs = float(np.sum(lhs_int)) * vol
    rhs_grad = float(np.sum(grad_int)) * vol
    if not np.isfinite([lhs, rhs_grad, rhs_quad]).all():
        bad = ~np.isfinite(lhs_int) | ~np.isfinite(grad_int)
        bad[on] |= ~np.isfinite(quad * weight[on])
        what = (f"energy identity is not finite (lhs {lhs}, gradient term "
                f"{rhs_grad}, Hessian term {rhs_quad})")
        raise_first(DomainError, bad, X,
                    lambda i: f"{what}: the integrand is not finite")
        raise DomainError(f"{what}: every node's integrand is finite, but a "
                          f"sum overflows")

    rhs = rhs_grad + rhs_quad
    denom = abs(lhs) + abs(rhs)
    residual = abs(lhs - rhs) / denom if denom > 0 else 0.0
    return EnergyIdentityReport(lhs, rhs_grad, rhs_quad, residual)
