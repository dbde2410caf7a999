"""Cubical complex layer: exact coboundaries, weighted masses and adjoints,
form sampling, and the node-level energy identity."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.ndimage as ndi
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from pconvex import discrete as D
from pconvex import fieldexpr as FE
from pconvex import solver as S
from pconvex.errors import DomainError, EmptyDomain, SupportError
from pconvex.fieldexpr import parse
from pconvex.solver import _node_components

import oracles as O


ANNULUS_R = parse("(x1^2+x2^2-0.25)*(x1^2+x2^2-1)", n=2)


def box_complex(h=0.25, n=2):
    return D.build_complex(D.GridDomain(((0.0, 1.0),) * n, h))


def annulus_complex(h=0.1):
    return D.build_complex(
        D.GridDomain(((-1.2, 1.2), (-1.2, 1.2)), h, r=ANNULUS_R))


# the complexes whose coboundary layout is pinned: the desk-scale boxes, a
# 4-D box, the refined ring and the solid torus of criterion 10
_R, _A = 0.55, 0.3
LAYOUT_DOMAINS = {
    "box-128x128": lambda: D.GridDomain(((0.0, 1.0),) * 2, 1 / 128),
    "box-32x32x32": lambda: D.GridDomain(((0.0, 1.0),) * 3, 1 / 32),
    "box-6x6x6x6": lambda: D.GridDomain(((0.0, 1.0),) * 4, 1 / 6),
    "ring": lambda: D.GridDomain(((-1.2, 1.2), (-1.2, 1.2)), 0.05,
                                 r=ANNULUS_R),
    "solid-torus": lambda: D.GridDomain(
        ((-1.0, 1.0), (-1.0, 1.0), (-0.4, 0.4)), 1 / 16,
        r=parse(f"(x1^2+x2^2+x3^2+{_R ** 2 - _A ** 2})^2"
                f"-{4 * _R ** 2}*(x1^2+x2^2)", n=3)),
}


def spanned_mask(cx, p):
    """The ``(num_cells(p), n)`` spanned-axis masks of the p-cells, in cell
    order, from the complex's blocks."""
    mask = np.zeros((cx.num_cells(p), cx.n), dtype=bool)
    for axes, rows in cx.blocks(p):
        mask[rows, list(axes)] = True
    return mask


def harmonic_dimension(cx, phi, p):
    """Betti oracle: nullity of the dense weighted cochain Laplacian."""
    n = cx.n
    mp = D.mass(cx, phi, p).diag
    lap = np.zeros((mp.size, mp.size))
    if p < n:
        d = D.coboundary(cx, p).toarray().astype(float) / np.sqrt(mp)[None, :]
        lap += d.T @ (D.mass(cx, phi, p + 1).diag[:, None] * d)
    if p > 0:
        d = D.coboundary(cx, p - 1).toarray().astype(float)
        mm = D.mass(cx, phi, p - 1).diag
        lap += (np.sqrt(mp)[:, None] * ((d / mm[None, :]) @ d.T)
                * np.sqrt(mp)[None, :])
    ev = np.linalg.eigvalsh(lap)
    return int((ev < 1e-9 * ev.max()).sum())


# ---------------------------------------------------------------------------
# grid domain
# ---------------------------------------------------------------------------

class TestGridDomain:

    def test_counts_and_spacings(self):
        dom = D.GridDomain(((0.0, 1.0), (0.0, 2.0)), 0.3)
        assert dom.counts == (3, 7)
        assert dom.spacings == pytest.approx((1 / 3, 2 / 7))
        assert dom.n == 2

    def test_minimum_two_cells_per_axis(self):
        dom = D.GridDomain(((0.0, 1.0),), 10.0)
        assert dom.counts == (2,)
        assert dom.spacings == (0.5,)

    def test_node_axes_cover_box(self):
        dom = D.GridDomain(((0.0, 1.0), (-1.0, 1.0)), 0.5)
        ax = dom.node_axes()
        assert ax[0][0] == 0.0 and ax[0][-1] == 1.0
        assert ax[1].size == dom.counts[1] + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            D.GridDomain(((0.0, 1.0),), 0.0)
        with pytest.raises(ValueError):
            D.GridDomain(((1.0, 0.0),), 0.1)
        with pytest.raises(ValueError):
            D.GridDomain((), 0.1)
        with pytest.raises(TypeError):
            D.GridDomain(((0.0, 1.0),), 0.1, r="x1-1")

    @pytest.mark.parametrize("box", [((0.0, math.inf),),
                                     ((-math.inf, 1.0), (0.0, 1.0)),
                                     ((-1e308, 1e308),)])
    def test_non_finite_bound(self, box):
        # an infinite axis used to overflow in the cell count
        with pytest.raises(ValueError, match="need a finite lo < hi"):
            D.GridDomain(box, 1 / 16)

    @pytest.mark.parametrize("h", [math.inf, math.nan])
    def test_non_finite_spacing(self, h):
        # h = inf used to give two cells per axis and a run that wrote
        # "h": Infinity into its report
        with pytest.raises(ValueError, match="spacing must be positive and "
                           "finite"):
            D.GridDomain(((0.0, 1.0),), h)

    def test_jets_only_defining_function(self):
        # every consumer reads r through field_jets, so a batched field
        # with jets and no value(x) cuts the same domain as the expression
        disk = parse("x1^2+x2^2-1", n=2)

        class JetsOnly:
            def jets(self, X, order=2):
                return disk.jets(X, order)

        box = ((-1.0, 1.0), (-1.0, 1.0))
        cx = D.build_complex(D.GridDomain(box, 1 / 8, r=JetsOnly()))
        ref = D.build_complex(D.GridDomain(box, 1 / 8, r=disk))
        assert [cx.num_cells(p) for p in range(3)] == \
            [ref.num_cells(p) for p in range(3)]
        g = [lambda x: bump(x[0], -0.4, 0.4) * bump(x[1], -0.4, 0.4), 0.0]
        assert D.energy_identity_residual(
            g, disk, D.GridDomain(box, 1 / 16, r=JetsOnly()), 1) == \
            D.energy_identity_residual(
                g, disk, D.GridDomain(box, 1 / 16, r=disk), 1)
        with pytest.raises(TypeError, match="field_jets evaluates"):
            D.GridDomain(box, 0.1, r=object())


# ---------------------------------------------------------------------------
# complex construction
# ---------------------------------------------------------------------------

class TestBuildComplex:

    def test_full_box_counts_and_euler(self):
        cx = box_complex(0.25)
        assert [cx.num_cells(p) for p in range(3)] == [25, 40, 16]
        assert cx.euler_characteristic == 1

    def test_annulus_euler_characteristic(self):
        cx = annulus_complex()
        assert cx.euler_characteristic == 0
        assert cx.num_cells(0) > 0

    def test_everywhere_positive_r_is_empty(self):
        r = parse("x1^2+x2^2+1", n=2)
        with pytest.raises(EmptyDomain):
            D.build_complex(D.GridDomain(((0.0, 1.0), (0.0, 1.0)), 0.5, r=r))

    def test_closure_every_facet_present(self):
        cx = annulus_complex(0.15)
        for p in range(1, cx.n + 1):
            for axes, rows in cx.blocks(p):
                anchors = cx.anchors[p][rows].astype(int)
                for j, a in enumerate(axes):
                    sub = axes[:j] + axes[j + 1:]
                    for corner in (anchors, anchors + np.eye(cx.n, dtype=int)[a]):
                        facet = cx.ids[sub][tuple(corner.T)]
                        assert (facet >= 0).all()
                        assert (cx.anchors[p - 1][facet] == corner).all()
                        assert (spanned_mask(cx, p - 1)[facet]
                                == np.isin(np.arange(cx.n), sub)).all()

    def test_included_barycenters_satisfy_r(self):
        cx = annulus_complex(0.15)
        lo = np.array([a for a, _ in cx.dom.box])
        s = np.array(cx.dom.spacings)
        for p in range(cx.n + 1):
            bary = cx.barycenters(p)
            for axes, rows in cx.blocks(p):
                spanned = np.isin(np.arange(cx.n), axes)
                assert np.allclose(bary[rows],
                                   lo + (cx.anchors[p][rows] + 0.5 * spanned)
                                   * s, rtol=0, atol=1e-14)
                for x in bary[rows]:
                    assert ANNULUS_R.value(x) < 0.0

    @given(st.integers(1, 3), st.sampled_from(["box", "ball", "annulus"]),
           st.integers(2, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_per_cell_reference(self, n, shape, per_axis, seed):
        sq = "+".join(f"x{i}^2" for i in range(1, n + 1))
        r = {"box": None, "ball": parse(f"{sq}-1", n=n),
             "annulus": parse(f"({sq}-0.25)*({sq}-1)", n=n)}[shape]
        dom = D.GridDomain(((-1.2, 1.2),) * n, 2.4 / per_axis, r=r)
        cells, index, cob = O.reference_complex(dom)
        if not cells[0]:
            with pytest.raises(EmptyDomain):
                D.build_complex(dom)
            return
        cx = D.build_complex(dom)
        rng = np.random.default_rng(seed)
        for p in range(n + 1):
            assert cx.anchors[p].tolist() == [list(a) for a, _ in cells[p]]
            assert spanned_mask(cx, p).tolist() == [
                [i in axes for i in range(n)] for _, axes in cells[p]]
            for axes, rows in cx.blocks(p):
                grid = cx.ids[axes]
                assert np.count_nonzero(grid >= 0) == rows.stop - rows.start
                assert (grid[tuple(cx.anchors[p][rows].T)]
                        == np.arange(rows.start, rows.stop)).all()
            if p < n:
                d = D.coboundary(cx, p)
                assert d.shape == cob[p].shape and (d != cob[p]).nnz == 0
            values = rng.standard_normal(len(cells[p]))
            G = _node_components(cx, D.Cochain(p, values))
            ref = O.reference_node_components(dom, cells, index, p, values)
            assert np.abs(G - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_coboundary_composition_vanishes(self):
        cx3 = D.build_complex(D.GridDomain(((0.0, 1.0),) * 3, 0.25))
        for p in range(cx3.n - 1):
            prod = D.coboundary(cx3, p + 1) @ D.coboundary(cx3, p)
            assert prod.nnz == 0 or not np.any(prod.data)

    @given(st.integers(2, 5), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_any_full_box_is_contractible(self, a, b):
        dom = D.GridDomain(((0.0, float(a)), (0.0, float(b))), 1.0)
        cx = D.build_complex(dom)
        assert cx.euler_characteristic == 1
        assert cx.num_cells(0) == (a + 1) * (b + 1)
        assert cx.num_cells(2) == a * b

    @pytest.mark.parametrize("name", ["box-32x32x32", "solid-torus"])
    def test_build_splits_no_anchors_into_index_tuples(self, name,
                                                       monkeypatch):
        # each anchor column is the block grid's index along its axis, in
        # the anchors' own dtype, read through the presence mask: no
        # np.nonzero index tuples and no np.argwhere stack, and the anchors
        # are those an argwhere of each id grid lists
        def refused(what):
            def call(*args, **kwargs):
                raise AssertionError(f"np.{what} called in build_complex")
            return call

        dom = LAYOUT_DOMAINS[name]()
        monkeypatch.setattr(np, "nonzero", refused("nonzero"))
        monkeypatch.setattr(np, "argwhere", refused("argwhere"))
        cx = D.build_complex(dom)
        monkeypatch.undo()
        small = np.min_scalar_type(max(dom.counts))
        for p in range(cx.n + 1):
            assert type(cx.anchors[p]) is np.ndarray
            assert cx.anchors[p].dtype == small
            for axes, rows in cx.blocks(p):
                assert np.array_equal(cx.anchors[p][rows],
                                      np.argwhere(cx.ids[axes] >= 0))


def _old_factor(cx, p):
    """The geometric factor of ``mass`` over all rows at once, axis by axis:
    the reference its per-block writes must match bit for bit."""
    anchors, spanned = cx.anchors[p], spanned_mask(cx, p)
    factor = np.ones(len(anchors))
    for a, (s, m) in enumerate(zip(cx.dom.spacings, cx.dom.counts)):
        inner = (0 < anchors[:, a]) & (anchors[:, a] < m)
        factor = np.where(spanned[:, a], factor / s,
                          factor * np.where(inner, s, 0.5 * s))
    return factor


def _old_barycenters(cx, p):
    lo = np.array([lo for lo, _ in cx.dom.box])
    s = np.array(cx.dom.spacings)
    return lo + cx.anchors[p] * s + np.where(spanned_mask(cx, p), 0.5 * s,
                                             0.0)


GEOMETRY_DOMAINS = dict(
    LAYOUT_DOMAINS,
    anisotropic=lambda: D.GridDomain(((0.0, 1.0), (0.0, 0.7), (0.1, 0.33)),
                                     1 / 27))


class TestBlockGeometry:

    @pytest.mark.parametrize("name", GEOMETRY_DOMAINS)
    def test_blocks_masses_and_barycenters_keep_every_bit(self, name):
        # mass walks its blocks in VALUE_BLOCK_ROWS slices into one
        # diagonal; every entry keeps the bits of exp(-phi) over all
        # barycenters at once times the factor, for a constant, an
        # expression, a plain callable and a combined weight, also where a
        # block spans several slices (the 32³ box)
        cx = D.build_complex(GEOMETRY_DOMAINS[name]())
        n = cx.n
        quadratic = parse("+".join(f"x{i}^2" for i in range(1, n + 1)), n=n)
        weights = [0.0, quadratic, lambda x: 0.3 * x[0] - x[-1],
                   S.CombinedWeight(quadratic, -0.3, parse("x1", n=n))]
        if name == "box-32x32x32":
            assert max(r.stop - r.start for p in range(n + 1)
                       for _, r in cx.blocks(p)) > FE.VALUE_BLOCK_ROWS
        for p in range(n + 1):
            start = 0
            blocks = list(cx.blocks(p))
            assert [axes for axes, _ in blocks] == list(
                itertools.combinations(range(n), p))
            for axes, rows in blocks:
                count = int(np.count_nonzero(cx.ids[axes] >= 0))
                assert rows == slice(start, start + count)
                start = rows.stop
            assert start == cx.num_cells(p)
            bary, factor = _old_barycenters(cx, p), _old_factor(cx, p)
            pairs = [(cx.barycenters(p), bary)] + [
                (D.mass(cx, phi, p).diag,
                 np.exp(-FE.field_jets(phi, bary, order=0)) * factor)
                for phi in weights]
            for got, want in pairs:
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64))


def _old_node_components(cx, f):
    """Node averaging through the anchors and ``np.add.at``: the reference
    the id-grid shifts of ``_node_components`` must match bit for bit."""
    p = f.p
    G = np.zeros((cx.num_cells(0), math.comb(cx.n, p)))
    hits = np.zeros_like(G)
    for k, (axes, rows) in enumerate(cx.blocks(p)):
        anchors = cx.anchors[p][rows]
        coeff = f.values[rows] / math.prod(cx.dom.spacings[a] for a in axes)
        for pick in list(np.ndindex((2,) * p))[::-1]:
            offset = np.zeros(cx.n, dtype=np.intp)
            offset[list(axes)] = pick
            node = cx.ids[()][tuple((anchors + offset).T)].astype(np.intp)
            np.add.at(G[:, k], node, coeff)
            np.add.at(hits[:, k], node, 1.0)
    np.divide(G, hits, out=G, where=hits > 0)
    return G


def _old_voxels(cx):
    """The free voxels of ``cohomology_rank``'s doubled grid, each cell
    scattered to voxel ``2·anchor + spanned + 1``."""
    free = np.ones([2 * m + 3 for m in cx.dom.counts], dtype=bool)
    for p, anchors in enumerate(cx.anchors):
        free[tuple((2 * anchors.astype(np.intp) + spanned_mask(cx, p)
                    + 1).T)] = False
    return free


def _doubled(present, links):
    """The grid on which cell ``i`` is voxel ``2i`` and a link along axis
    a is the voxel between its two cells: its face-connected labels are the
    components of the grid graph."""
    grid = np.zeros([2 * m - 1 for m in present.shape], dtype=bool)
    grid[(slice(None, None, 2),) * present.ndim] = present
    for a, link in enumerate(links):
        grid[tuple(slice(1, None, 2) if i == a else slice(None, None, 2)
                   for i in range(present.ndim))] = link
    return grid


# the domains of cohomology_rank (n <= 3), with 1-D ones
COUNT_DOMAINS = dict(
    {k: v for k, v in GEOMETRY_DOMAINS.items() if k != "box-6x6x6x6"},
    interval=lambda: D.GridDomain(((0.0, 1.0),), 1 / 16),
    **{"two-intervals": lambda: D.GridDomain(
        ((0.0, 3.0),), 1 / 16,
        r=parse("(x1-0.5)*(x1-1.2)*(x1-1.8)*(x1-2.5)", n=1))})


class TestIdGridReads:

    @pytest.mark.parametrize("name", GEOMETRY_DOMAINS)
    def test_node_components_keep_every_bit(self, name):
        cx = D.build_complex(GEOMETRY_DOMAINS[name]())
        rng = np.random.default_rng(25)
        for p in range(cx.n + 1):
            # values over 16 decades, some zero and some -0.0: the sums'
            # rounding depends on the order each node adds its cells
            values = (rng.standard_normal(cx.num_cells(p))
                      * 10.0 ** rng.integers(-8, 8, cx.num_cells(p)))
            values[rng.random(len(values)) < 0.05] = 0.0
            values[rng.random(len(values)) < 0.05] = -0.0
            f = D.Cochain(p, values)
            got, want = _node_components(cx, f), _old_node_components(cx, f)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("name", COUNT_DOMAINS)
    def test_counts_match_voxel_labels(self, name):
        # the grid-graph counts equal the face-connected labels of the
        # doubled voxel grid on which each cell is one voxel
        cx = D.build_complex(COUNT_DOMAINS[name]())
        free = _old_voxels(cx)
        rep = S.cohomology_rank(cx)
        assert rep.components == ndi.label(~free)[1]
        assert rep.voids == ndi.label(free)[1] - 1

    def test_count_components_matches_ndimage(self):
        # serpentines along either axis (one path through every run), an
        # empty grid, single cells, and random grids near the site
        # percolation thresholds (0.593 in 2-D, 0.312 in 3-D) or with links
        # dropped near the bond threshold; a link holds only between
        # present cells
        rng = np.random.default_rng(28)
        snake = np.zeros((301, 301), dtype=bool)
        snake[::2] = True
        snake[1::4, -1] = snake[3::4, 0] = True
        grids = [(snake, 1.0), (snake.T.copy(), 1.0),
                 (np.zeros((5, 7), dtype=bool), 1.0),
                 (np.ones((1, 1), dtype=bool), 1.0),
                 (np.ones((1,), dtype=bool), 1.0)]
        for _ in range(4):
            grids += [(rng.random((60, 70)) < 0.593, 1.0),
                      (rng.random((60, 70)) < 0.8, 0.5),
                      (rng.random((14, 15, 16)) < 0.312, 1.0),
                      (rng.random((14, 15, 16)) < 0.6, 0.3),
                      (rng.random(40) < 0.7, 0.8)]
        for present, keep in grids:
            links = []
            for a in range(present.ndim):
                lo = present[(slice(None),) * a + (slice(None, -1),)]
                hi = present[(slice(None),) * a + (slice(1, None),)]
                links.append(lo & hi & (rng.random(lo.shape) < keep))
            assert S._count_components(present, links) == ndi.label(
                _doubled(present, links))[1]


# ---------------------------------------------------------------------------
# coboundary matrices
# ---------------------------------------------------------------------------

class TestCoboundary:

    def test_interval_difference_matrix(self):
        cx = D.build_complex(D.GridDomain(((0.0, 1.0),), 0.25))
        d0 = D.coboundary(cx, 0).toarray()
        assert d0.shape == (4, 5)
        assert np.all(d0.sum(axis=1) == 0)
        assert sorted(set(d0.ravel().tolist())) == [-1, 0, 1]

    def test_integer_storage(self):
        d0 = D.coboundary(box_complex(), 0)
        assert d0.dtype == np.int64

    def test_rank_counts_spanning_tree(self):
        cx = box_complex(0.25)
        d0 = D.coboundary(cx, 0).toarray()
        assert np.linalg.matrix_rank(d0) == cx.num_cells(0) - 1

    @pytest.mark.parametrize("name", LAYOUT_DOMAINS)
    def test_rows_are_written_in_canonical_csr_order(self, name):
        # the layout coboundary guarantees, whose fixed stride LSMR's
        # in-place scaling reads: 2(p+1) ascending columns per row, and row
        # e of d_0 is -1, +1 at its lower and higher node; the arrays equal
        # the per-cell reference's CSR
        dom = LAYOUT_DOMAINS[name]()
        cx = D.build_complex(dom)
        cob = O.reference_complex(dom)[2]
        for p in range(cx.n):
            d, stride = D.coboundary(cx, p), 2 * (p + 1)
            assert np.array_equal(
                d.indptr, np.arange(0, stride * d.shape[0] + 1, stride))
            assert d.has_canonical_format
            for got, want in ((d.indptr, cob[p].indptr),
                              (d.indices, cob[p].indices),
                              (d.data, cob[p].data)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
        d0 = D.coboundary(cx, 0)
        assert (d0.data.reshape(-1, 2) == [-1, 1]).all()
        lower, higher = cx.anchors[0].astype(int)[d0.indices.reshape(-1, 2).T]
        assert (higher - lower == spanned_mask(cx, 1)).all()

    @pytest.mark.parametrize("name", LAYOUT_DOMAINS)
    def test_products_keep_the_bits_of_the_csr_export(self, name):
        # d u, dᵀ v (the adjoint under unit masses) and the weighted adjoint
        # without a matrix, against the CSR export's products as int64
        # views: -0.0 and +0.0 included
        cx = D.build_complex(LAYOUT_DOMAINS[name]())
        rng = np.random.default_rng(7)
        phi = parse("x1^2+0.3*x2", n=cx.n)

        def sample(size):
            x = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
            x[::5], x[1::7] = -0.0, 0.0
            return x

        def same(a, b):
            return np.array_equal(a.view(np.int64), b.view(np.int64))

        for p in range(cx.n):
            d = D.coboundary(cx, p)
            u, v = sample(d.shape[1]), sample(d.shape[0])
            assert same(D._apply_d(cx, p, u), d @ u)
            unit = D.weighted_adjoint(
                cx, D.WeightedMass(p, np.ones(d.shape[1])),
                D.WeightedMass(p + 1, np.ones(d.shape[0])))
            assert same(unit(v), d.T @ v)
            assert same(D._apply_d(cx, p, -0.0 * u), d @ (-0.0 * u))
            adjoint = D.weighted_adjoint(cx, D.mass(cx, phi, p),
                                         D.mass(cx, phi, p + 1))
            assert same(adjoint(v), O.weighted_adjoint_csr(cx, phi, p + 1) @ v)

    def test_composition_check_catches_a_swapped_column(self):
        cx = D.build_complex(LAYOUT_DOMAINS["box-32x32x32"]())
        D._check_closed(cx)
        for p, row in ((1, 5000), (1, 0), (2, 777), (0, 3000)):
            cols = cx._cols[p]
            cols[row, [0, 1]] = cols[row, [1, 0]]
            with pytest.raises(AssertionError,
                               match=r"coboundary composition d_\d d_\d != 0"):
                D._check_closed(cx)
            cols[row, [0, 1]] = cols[row, [1, 0]]
        D._check_closed(cx)

    def test_composition_check_catches_a_flipped_sign(self):
        cx = D.build_complex(LAYOUT_DOMAINS["solid-torus"]())
        for p in range(cx.n):
            for block, slot in itertools.product(
                    range(len(cx._signs[p])), range(2 * (p + 1))):
                cx._signs[p][block, slot] *= -1
                with pytest.raises(AssertionError, match=r"d_\d d_\d != 0"):
                    D._check_closed(cx)
                cx._signs[p][block, slot] *= -1
        D._check_closed(cx)

    def test_degree_bounds(self):
        cx = box_complex()
        with pytest.raises(ValueError):
            D.coboundary(cx, 2)
        with pytest.raises(ValueError):
            D.coboundary(cx, -1)


# ---------------------------------------------------------------------------
# weighted masses
# ---------------------------------------------------------------------------

class TestMass:

    def test_flat_interval_vertex_masses(self):
        cx = D.build_complex(D.GridDomain(((0.0, 1.0),), 0.25))
        diag = D.mass(cx, 0.0, 0).diag
        # interior vertices own a full cell, the two box endpoints half of
        # one; this trapezoid split is what makes <1,1> quadrature-exact
        assert diag[1:-1] == pytest.approx(0.25)
        assert diag[0] == pytest.approx(0.125) and diag[-1] == pytest.approx(0.125)
        edge = D.mass(cx, 0.0, 1).diag
        assert edge == pytest.approx(1 / 0.25)

    def test_gaussian_vertex_quadrature(self):
        cx = D.build_complex(D.GridDomain(((0.0, 1.0),), 1 / 256))
        m = D.mass(cx, parse("x1^2", n=1), 0)
        ones = np.ones(cx.num_cells(0))
        assert m.inner(ones, ones) == pytest.approx(
            quad(lambda x: math.exp(-x * x), 0.0, 1.0)[0], abs=1e-3)

    def test_constant_one_form_measures_area(self):
        cx = box_complex(1 / 16)
        a = D.sample_cochain(cx, 1, [1.0, 0.0])
        assert D.mass(cx, 0.0, 1).inner(a.values, a.values) == pytest.approx(
            1.0, rel=1e-12)

    def test_weighted_form_quadrature_converges(self):
        coeff = parse("exp(x1)", n=2)
        phi = parse("x1^2+x2^2", n=2)
        exact = (quad(lambda x: math.exp(2 * x - x * x), 0, 1)[0]
                 * quad(lambda y: math.exp(-y * y), 0, 1)[0])
        errs = []
        for h in (1 / 8, 1 / 16, 1 / 32):
            cx = box_complex(h)
            a = D.sample_cochain(cx, 1, [coeff, 0.0])
            errs.append(abs(D.mass(cx, phi, 1).inner(a.values, a.values)
                            - exact))
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] / errs[2] > 8.0      # two halvings of an O(h^2) error
        assert errs[2] < 2e-4

    def test_positive_entries(self):
        cx = annulus_complex(0.2)
        for p in range(3):
            assert np.all(D.mass(cx, parse("x1^2+x2^2", n=2), p).diag > 0)

    def test_overflowing_weight_rejected(self):
        cx = D.build_complex(D.GridDomain(((0.0, 1.0),), 0.25))
        with pytest.raises(DomainError):
            D.mass(cx, -800.0, 0)
        for phi, what, where in ((-800.0, "overflowed", "[0.0]"),
                                 (800.0, "underflowed to 0", "[0.0]"),
                                 (parse("800*x1^2", n=1), "underflowed to 0",
                                  "[1.0]")):
            with pytest.raises(DomainError) as exc:
                D.mass(cx, phi, 0)
            assert what in str(exc.value) and where in str(exc.value)

    def test_nan_weight_named_not_a_number(self):
        # NaN fails both tests of an entry, but nothing overflowed
        cx = D.build_complex(D.GridDomain(((0.0, 1.0),), 0.25))
        with pytest.raises(DomainError) as exc:
            D.mass(cx, math.nan, 1)
        assert str(exc.value) == ("weight produced a non-positive or "
                                  "overflowed mass entry: not a number on "
                                  "1-cell 0 at x = [0.125]")

    @pytest.mark.parametrize("n, k, text", [
        (3, 300, "1-cell 25046 at x = [0.703125, 1.0, 1.0]"),
        (2, 700, "1-cell 296 at x = [0.265625, 1.0]")])
    def test_underflow_names_first_cell_across_slices(self, n, k, text):
        # at 32³ row 25,046 lies in the second VALUE_BLOCK_ROWS slice of
        # the first 1-cell block: the walk still names it by its global
        # row and its barycenter
        cx = D.build_complex(D.GridDomain(((0.0, 1.0),) * n, 1 / 32))
        phi = parse(f"{k}*(" + "+".join(f"x{i}^2" for i in range(1, n + 1))
                    + ")", n=n)
        with pytest.raises(DomainError) as exc:
            D.mass(cx, phi, 1)
        assert str(exc.value) == ("weight produced a non-positive or "
                                  "overflowed mass entry: underflowed to 0 "
                                  "on " + text)

    def test_traced_peak_stays_near_the_diagonal(self, monkeypatch):
        # the walk allocates the diagonal and per-slice scratch rows only,
        # and never the barycenter array: one 32³ degree-1 mass peaks near
        # 2.1 diagonals under tracemalloc, where building the whole
        # barycenter array first took 6.3
        cx = D.build_complex(D.GridDomain(((0.0, 1.0),) * 3, 1 / 32))
        phi = parse("x1^2+x2^2+x3^2", n=3)
        size = D.mass(cx, phi, 1).diag.nbytes

        def refused(self, p):
            raise AssertionError("mass built the barycenter array")

        monkeypatch.setattr(D.CubicalComplex, "barycenters", refused)
        tracemalloc.start()
        try:
            D.mass(cx, phi, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * size

    def test_degree_bounds(self):
        cx = box_complex()
        with pytest.raises(ValueError):
            D.mass(cx, 0.0, 3)


# ---------------------------------------------------------------------------
# weighted adjoint
# ---------------------------------------------------------------------------

class TestWeightedAdjoint:

    def test_adjointness_random_cochains(self):
        cx = annulus_complex(0.15)
        phi = parse("x1^2+0.5*x2^2", n=2)
        rng = np.random.default_rng(0)
        for p in (1, 2):
            m_tgt = D.mass(cx, phi, p)
            m_src = D.mass(cx, phi, p - 1)
            delta = D.weighted_adjoint(cx, m_src, m_tgt)
            d = D.coboundary(cx, p - 1)
            for _ in range(5):
                u = rng.standard_normal(cx.num_cells(p - 1))
                v = rng.standard_normal(cx.num_cells(p))
                lhs = m_tgt.inner(d @ u, v)
                rhs = m_src.inner(u, delta(v))
                assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + abs(rhs) + 1)

    def test_composition_vanishes_to_cancellation_level(self):
        cx = box_complex(1 / 8)
        phi = parse("x1*x2", n=2)
        m0, m1, m2 = (D.mass(cx, phi, p) for p in range(3))
        d1t = D.weighted_adjoint(cx, m0, m1)
        d2t = D.weighted_adjoint(cx, m1, m2)
        rng = np.random.default_rng(1)
        w = rng.standard_normal(cx.num_cells(2))
        out = d1t(d2t(w))
        floor = (abs(O.weighted_adjoint_csr(cx, phi, 1))
                 @ (abs(O.weighted_adjoint_csr(cx, phi, 2)) @ np.abs(w))).max()
        assert np.abs(out).max() <= 1e-12 * floor

    def test_flat_interval_matches_derivative(self):
        errs = []
        for h in (1 / 32, 1 / 64):
            cx = D.build_complex(D.GridDomain(((0.0, 1.0),), h))
            a = D.sample_cochain(cx, 1, [parse("exp(0.5*x1)", n=1)])
            delta = D.weighted_adjoint(cx, D.mass(cx, 0.0, 0),
                                       D.mass(cx, 0.0, 1))
            out = delta(a.values)
            xs = np.linspace(0.0, 1.0, cx.num_cells(0))
            expect = -0.5 * np.exp(0.5 * xs)
            errs.append(np.abs(out[2:-2] - expect[2:-2]).max())
        assert errs[1] < errs[0] / 3.0
        assert errs[1] < 1 / 64          # comfortably within O(h)

    def test_degree_validation(self):
        cx = box_complex()
        m0, m1, m2 = (D.mass(cx, 0.0, p) for p in range(3))
        m3 = D.WeightedMass(3, np.ones(1))
        # degrees that are not p-1 and p for 1 <= p <= n, and masses with
        # one entry too few or too many
        for src, tgt in ((m0, m0), (m0, m2), (m1, m0), (m2, m3),
                         (D.WeightedMass(-1, np.ones(1)), m0),
                         (D.WeightedMass(0, m0.diag[1:]), m1),
                         (m0, D.WeightedMass(1, np.r_[m1.diag, 1.0]))):
            with pytest.raises(ValueError, match="need masses of degrees"):
                D.weighted_adjoint(cx, src, tgt)
        D.weighted_adjoint(cx, m1, m2)


# ---------------------------------------------------------------------------
# sampling analytic forms
# ---------------------------------------------------------------------------

class TestSampleCochain:

    def test_unit_one_form_on_interval(self):
        cx = D.build_complex(D.GridDomain(((0.0, 1.0),), 1 / 64))
        a = D.sample_cochain(cx, 1, [1.0])
        assert np.all(a.values == pytest.approx(1 / 64))

    def test_sampled_gradient_is_discretely_closed(self):
        # d(x1*x2) has bilinear coefficients: the midpoint rule integrates
        # every edge exactly, so the discrete circulation vanishes exactly
        cx = box_complex(1 / 32)
        a = D.sample_cochain(cx, 1, [parse("x2", n=2), parse("x1", n=2)])
        assert np.abs(D.coboundary(cx, 1) @ a.values).max() == 0.0

    def test_linear_coefficient_gives_exact_area_form(self):
        cx = box_complex(1 / 32)
        a = D.sample_cochain(cx, 1, [parse("x2", n=2), 0.0])
        squares = D.coboundary(cx, 1) @ a.values
        assert squares == pytest.approx(-(1 / 32) ** 2, rel=1e-12)

    def test_curved_gradient_residual_second_order(self):
        fx = parse("0.5*x2*exp(0.5*x1*x2)", n=2)
        fy = parse("0.5*x1*exp(0.5*x1*x2)", n=2)
        rels = []
        for h in (1 / 8, 1 / 16, 1 / 32):
            cx = box_complex(h)
            a = D.sample_cochain(cx, 1, [fx, fy])
            r = D.coboundary(cx, 1) @ a.values
            rels.append(np.linalg.norm(r) / np.linalg.norm(a.values))
        assert rels[0] > rels[1] > rels[2]
        assert rels[0] / rels[1] > 3.5 and rels[1] / rels[2] > 3.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_named(self, bad):
        # the first cell in row order whose sampled value is not finite
        cx = D.build_complex(D.GridDomain(((0.0, 1.0),), 0.25))
        a = lambda x: bad if x[0] > 0.5 else 1.0
        with pytest.raises(DomainError) as exc:
            D.sample_cochain(cx, 1, [a])
        assert str(exc.value) == (f"sampled value {bad} on 1-cell 2 is not "
                                  "finite at x = [0.625]")

    def test_coefficient_count_checked(self):
        cx = box_complex()
        with pytest.raises(ValueError):
            D.sample_cochain(cx, 1, [1.0])
        with pytest.raises(ValueError):
            D.sample_cochain(cx, 3, [1.0])

    def test_cochain_shape_checked(self):
        with pytest.raises(ValueError):
            D.Cochain(1, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# energy identity on node samples
# ---------------------------------------------------------------------------

def bump(u, a, b):
    width = (b - a) / 2.0
    return (max(0.0, (u - a) * (b - u)) / width ** 2) ** 4


def g_single(x):
    return bump(x[0], 0.3, 0.7) * bump(x[1], 0.3, 0.75)


def g_second(x):
    return bump(x[0], 0.35, 0.7) * bump(x[1], 0.3, 0.65)


def bump_form_coefficient(n, k):
    """A product bump in [0.3, 0.7]^n, shifted per coefficient k."""
    def g(x):
        return math.prod(
            bump(x[i], 0.3 + 0.05 * ((k + i) % 2), 0.7 - 0.05 * (k % 3))
            for i in range(n))
    return g


UNIT2 = ((0.0, 1.0), (0.0, 1.0))


class TestEnergyIdentity:

    def test_zero_form_zero_residual(self):
        rep = D.energy_identity_residual(
            [0.0, 0.0], parse("x1^2+x2^2", n=2), D.GridDomain(UNIT2, 1 / 8), 1)
        assert rep == D.EnergyIdentityReport(0.0, 0.0, 0.0, 0.0)

    def test_flat_weight_is_summation_by_parts_exact(self):
        # centered differences are skew-adjoint on compactly supported
        # samples, so with a flat weight both sides agree to roundoff at
        # every resolution and degree — the discretization error lives in
        # the weight, and a wrong sign in d or δ at any degree shows here
        cases = [(2, 1, 1 / 8, [g_single, g_second])]
        for n in range(1, 5):
            for p in range(1, n + 1):
                coeffs = [bump_form_coefficient(n, k)
                          for k in range(math.comb(n, p))]
                cases.append((n, p, 1 / 8 if n == 4 else 1 / 16, coeffs))
        for n, p, h, coeffs in cases:
            rep = D.energy_identity_residual(
                coeffs, 0.0, D.GridDomain(((0.0, 1.0),) * n, h), p)
            assert rep.residual < 1e-12, (n, p)
            assert rep.rhs_quadform_term == 0.0
            assert rep.lhs > 0.0

    def test_weighted_residual_second_order(self):
        phi = parse("x1^2+x2^2", n=2)
        residuals = []
        for h in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
            rep = D.energy_identity_residual(
                [g_single, g_second], phi, D.GridDomain(UNIT2, h), 1)
            residuals.append(rep.residual)
            assert rep.rhs_quadform_term > 0.0
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
        assert all(a / b >= 1.5 for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] < 2e-2

    def test_single_coefficient_weighted_converges(self):
        phi = parse("x1^2+x2^2", n=2)
        r_coarse = D.energy_identity_residual(
            [g_single, 0.0], phi, D.GridDomain(UNIT2, 1 / 16), 1).residual
        r_fine = D.energy_identity_residual(
            [g_single, 0.0], phi, D.GridDomain(UNIT2, 1 / 32), 1).residual
        assert r_fine < r_coarse / 1.5

    def test_top_degree_form(self):
        phi = parse("x1^2+x2^2", n=2)
        r8 = D.energy_identity_residual(
            [g_single], phi, D.GridDomain(UNIT2, 1 / 8), 2).residual
        r16 = D.energy_identity_residual(
            [g_single], phi, D.GridDomain(UNIT2, 1 / 16), 2).residual
        assert 0.0 < r16 < r8 / 1.5

    def test_staircase_domain_supported_form(self):
        dom = D.GridDomain(((-1.0, 1.0), (-1.0, 1.0)), 1 / 16,
                           r=parse("x1^2+x2^2-1", n=2))

        def g(x):
            return max(0.0, 0.49 - x[0] ** 2 - x[1] ** 2) ** 4

        rep = D.energy_identity_residual(
            [g, 0.0], parse("x1^2+x2^2", n=2), dom, 1)
        assert 0.0 < rep.residual < 5e-3

    def test_boundary_support_rejected(self):
        dom = D.GridDomain(UNIT2, 1 / 8)
        with pytest.raises(SupportError):
            D.energy_identity_residual([lambda x: 1.0, 0.0], 0.0, dom, 1)

    def test_boundary_support_names_the_first_node(self):
        # g = x1 vanishes on the nodes x1 = 0 (rows 0 to 8); the first node
        # past them, (1/8, 0), lies on the boundary
        dom = D.GridDomain(UNIT2, 1 / 8)
        with pytest.raises(SupportError) as exc:
            D.energy_identity_residual([parse("x1", n=2), 0.0], 0.0, dom, 1)
        assert str(exc.value) == (
            "form reaches 1.250e-01 within two node layers of the boundary "
            "(max magnitude 1.000e+00) at x = [0.125, 0.0]")

    def test_staircase_rim_support_rejected(self):
        dom = D.GridDomain(((-1.0, 1.0), (-1.0, 1.0)), 1 / 16,
                           r=parse("x1^2+x2^2-1", n=2))

        def wide(x):
            return max(0.0, 0.95 - x[0] ** 2 - x[1] ** 2) ** 4

        with pytest.raises(SupportError):
            D.energy_identity_residual([wide, 0.0], 0.0, dom, 1)

    def test_validation(self):
        dom = D.GridDomain(UNIT2, 1 / 8)
        with pytest.raises(ValueError):
            D.energy_identity_residual([0.0], 0.0, dom, 1)
        with pytest.raises(ValueError):
            D.energy_identity_residual([0.0], 0.0, dom, 3)

    def test_erosion_matches_ndimage(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            shape = tuple(rng.integers(1, 10, size=rng.integers(1, 4)))
            mask = rng.random(shape) < rng.uniform(0.5, 0.95)
            want = ndi.binary_erosion(mask, iterations=2, border_value=0)
            assert np.array_equal(D._erode(mask, 2), want)


class ProductBump:
    """``bump(lo, hi)`` of the configs: ``prod_i (max(0, (x_i - lo)(hi -
    x_i)) / w²)⁴`` with ``w = (hi - lo)/2``, values only, in one batch."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def jets(self, X, order=0):
        assert order == 0
        w = (self.hi - self.lo) / 2.0
        return np.prod((np.maximum(0.0, (X - self.lo) * (self.hi - X))
                        / w ** 2) ** 4, axis=1)


BUMP_DX1 = [ProductBump(0.3, 0.7), 0.0]
PHI_Q = parse("x1^2+x2^2", n=2)


class TestEnergyIdentityWeight:
    """The weight's values are walked at every node, its 2-jet only where
    the form is nonzero, and the form is differenced only on the window of
    its nonzero nodes grown by two layers."""

    @pytest.mark.parametrize("n, h, want", [
        (2, 1 / 128, (2.370304258962056, 2.3801022513853427,
                      -0.009836659814630494, 8.156696887317006e-06)),
        (3, 1 / 16, (0.2836355561068874, 0.28454747177810835,
                     -0.0011786215762438566, 0.0004703771294463167))])
    def test_hessian_term_keeps_its_bits_and_walks_only_the_support(
            self, monkeypatch, n, h, want):
        # D²phi = diag(2 − 6·x1, 2, ...) differs by row, and the support
        # (2,601 of 16,641 nodes in 2-D, 343 of 4,913 in 3-D) meets eight and
        # three blocks of BLOCK_ROWS; the four floats are those of the
        # whole-box walk, whose Hessian term was summed block by block (in
        # 3-D one sum over the support gives other bits)
        dom = D.GridDomain(((0.0, 1.0),) * n, h)
        interpret, walks = FE._interpret, []

        def counted(root, X, order):
            walks.append((order, X))
            return interpret(root, X, order)

        monkeypatch.setattr(FE, "_interpret", counted)
        rep = D.energy_identity_residual(
            [ProductBump(0.3, 0.7)] + [0.0] * (n - 1),
            parse("x1^2+x2^2-x1^3", n=n), dom, 1)
        assert rep == D.EnergyIdentityReport(*want)

        X = np.stack(np.meshgrid(*dom.node_axes(), indexing="ij"),
                     -1).reshape(-1, n)
        support = np.flatnonzero(ProductBump(0.3, 0.7).jets(X))
        assert len(set(support // FE.BLOCK_ROWS)) >= 3
        values = [rows for order, rows in walks if order == 0]
        jets = [rows for order, rows in walks if order == 2]
        assert np.array_equal(np.concatenate(values), X)
        assert np.array_equal(np.concatenate(jets), X[support])
        assert len(jets) == len(FE.row_blocks(len(support)))

    def test_jet_faults_off_the_support_are_not_evaluated(self):
        # the value is finite at every node (at most 8e302 at x1 = 1), but
        # the 2-jet overflows there, where g = 0: only the value is needed
        phi = parse("8e302*(x1^40)^50", n=2)
        with pytest.raises(DomainError, match="non-finite jet"):
            phi.jets(np.array([[1.0, 0.0]]))
        rep = D.energy_identity_residual(
            BUMP_DX1, phi, D.GridDomain(UNIT2, 1 / 32), 1)
        assert all(math.isfinite(v) for v in
                   (rep.lhs, rep.rhs_gradient_term, rep.rhs_quadform_term))
        assert 0.0 < rep.rhs_quadform_term < 1e-20
        assert rep.residual < 1e-12

    def test_value_faults_raise_at_their_first_node(self):
        with pytest.raises(DomainError, match=r"log of non-positive value "
                           r"-0\.05 at x = \[0\.0, 0\.0\]"):
            D.energy_identity_residual(
                BUMP_DX1, parse("log(x1-0.05)", n=2),
                D.GridDomain(UNIT2, 1 / 32), 1)

    @pytest.mark.parametrize("n, h, want", [
        (2, 1 / 32, (2.141464476129069, 2.150698122339869,
                     -0.009836658553486768, 0.00014081420964857415)),
        (3, 1 / 16, (0.2836355561068866, 0.2845474717781085,
                     -0.0011786215762447513, 0.00047037712944622))])
    def test_window_clipped_at_the_grid_edge_keeps_the_bits(self, n, h, want):
        # 1e-13·(x1 + 1) is nonzero at every node but passes the support
        # check, so the window of nonzero nodes is the whole grid, whose
        # edges take one-sided differences; the four floats are those of
        # the whole-grid arithmetic
        class Tilted(ProductBump):
            def jets(self, X, order=0):
                return super().jets(X, order) + 1e-13 * (X[:, 0] + 1.0)

        rep = D.energy_identity_residual(
            [Tilted(0.3, 0.7)] + [0.0] * (n - 1),
            parse("x1^2+x2^2-x1^3", n=n), D.GridDomain(((0.0, 1.0),) * n, h),
            1)
        assert rep == D.EnergyIdentityReport(*want)

    @pytest.mark.parametrize("phi, match", [
        # ∂φ·g overflows where 1e307·x1³ meets the bump, and there the
        # weight has underflowed to 0: inf · 0 made the left side NaN, and
        # NaN > 0 is false, so the residual read 0
        (parse("1e307*x1^4", n=2),
         r"lhs nan.*not finite at x = \[0\.3125, 0\.3125\]"),
        # e^705 is finite, and so is every node's integrand, but not their sum
        (-705.0, r"lhs inf.*every node's integrand is finite"),
        # e^800 overflows at every node, so the integrand 0·e^800 is NaN
        # off the form's window too, and the first node is named
        (parse("-800-x1", n=2),
         r"lhs nan.*not finite at x = \[0\.0, 0\.0\]"),
        # a combined weight whose Hessian overflows (the interpreter guards
        # only expressions) is named at the first node where φ is
        # differentiated
        (S.CombinedWeight(PHI_Q, 1e308, PHI_Q),
         r"^the Hessian of phi is not finite at x = \[0\.3125, 0\.3125\]$")])
    def test_non_finite_report_raises(self, phi, match):
        with pytest.raises(DomainError, match=match):
            D.energy_identity_residual(BUMP_DX1, phi,
                                       D.GridDomain(UNIT2, 1 / 32), 1)


# ---------------------------------------------------------------------------
# discrete Hodge theory
# ---------------------------------------------------------------------------

class TestHodge:

    def test_decomposition_is_orthogonal(self):
        cx = annulus_complex()
        phi = parse("x1^2+x2^2", n=2)
        d0 = D.coboundary(cx, 0).toarray().astype(float)
        d1 = D.coboundary(cx, 1).toarray().astype(float)
        m0, m1, m2 = (D.mass(cx, phi, p).diag for p in range(3))
        rng = np.random.default_rng(3)
        w = rng.standard_normal(cx.num_cells(1))

        u = np.linalg.lstsq(np.sqrt(m1)[:, None] * d0,
                            np.sqrt(m1) * w, rcond=None)[0]
        exact = d0 @ u
        codiff = (1 / m1)[:, None] * d1.T * m2[None, :]
        v = np.linalg.lstsq(np.sqrt(m1)[:, None] * codiff,
                            np.sqrt(m1) * w, rcond=None)[0]
        coexact = codiff @ v
        harmonic = w - exact - coexact

        scale = float(w @ (m1 * w))
        for a, b in ((exact, coexact), (exact, harmonic), (coexact, harmonic)):
            assert abs(float(a @ (m1 * b))) <= 1e-10 * scale
        assert np.abs(d1 @ harmonic).max() < 1e-8
        assert np.abs((1 / m0) * (d0.T @ (m1 * harmonic))).max() < 1e-8

    def test_box_betti_numbers(self):
        cx = box_complex(0.25)
        assert [harmonic_dimension(cx, 0.0, p) for p in range(3)] == [1, 0, 0]

    @pytest.mark.parametrize("phi", [0.0, parse("x1^2+x2^2", n=2)])
    def test_annulus_betti_numbers(self, phi):
        cx = annulus_complex()
        assert [harmonic_dimension(cx, phi, p) for p in range(3)] == [1, 1, 0]
