"""Minimal-norm solves, bound reports, harmonic ranks, and the
log-marginal convexity check."""

import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph

import pconvex.discrete as D
import pconvex.exterior as X
import pconvex.fieldexpr as FE
import pconvex.solver as S
from pconvex.errors import (CohomologyObstruction, DomainError,
                            MembershipError, NoConvergence, NotClosed,
                            PreconditionError, TailError)
from pconvex.fieldexpr import parse
from pconvex.weights import diameter_weight

import oracles as O

UNIT2 = ((0.0, 1.0), (0.0, 1.0))
PHI2 = parse("x1^2+x2^2", n=2)
ANNULUS_R = parse("(x1^2+x2^2-0.25)*(x1^2+x2^2-1)", n=2)


def bump01(u, a, b):
    w = (b - a) / 2.0
    return (max(0.0, (u - a) * (b - u)) / w ** 2) ** 4


def pot(x):
    return bump01(x[0], 0.25, 0.75) * bump01(x[1], 0.25, 0.75)


@pytest.fixture(scope="module")
def cx32():
    return D.build_complex(D.GridDomain(UNIT2, 1 / 32))


@pytest.fixture(scope="module")
def f32(cx32):
    return S.closed_form_from_potential(cx32, 1, [pot])


@pytest.fixture(scope="module")
def annulus():
    return D.build_complex(
        D.GridDomain(((-1.2, 1.2), (-1.2, 1.2)), 0.1, r=ANNULUS_R))


@pytest.fixture(scope="module")
def fine_ring():
    return D.build_complex(
        D.GridDomain(((-1.2, 1.2), (-1.2, 1.2)), 0.05, r=ANNULUS_R))


# domains of the degree-1 primitive: a box has no graph search; on the
# others the node grid's runs are hooked across several components,
# isolated nodes and holes
_STRIPS = "*".join(f"((x1-{k + 0.5})^2-0.09)" for k in range(8))
_DOTS = "*".join(f"((x1-{k})^2+(x2-0.5)^2-0.0005)" for k in (1, 4, 7))
CENTRED_DOMAINS = {
    # eight strips and three single nodes between them
    "islands": lambda: D.GridDomain(((0.0, 8.0), (0.0, 1.0)), 1 / 16,
                                    r=parse(f"{_STRIPS}*{_DOTS}", n=2)),
    "ring": lambda: D.GridDomain(((-1.2, 1.2), (-1.2, 1.2)), 0.05,
                                 r=ANNULUS_R),
    "box2d": lambda: D.GridDomain(((0.0, 2.0), (0.0, 0.75)), 1 / 16),
    "box3d": lambda: D.GridDomain(((0.0, 1.0), (-0.5, 0.0), (0.0, 0.75)),
                                  1 / 8),
    "two-intervals": lambda: D.GridDomain(
        ((0.0, 3.0),), 1 / 16,
        r=parse("(x1-0.5)*(x1-1.2)*(x1-1.8)*(x1-2.5)", n=1)),
    "ball": lambda: D.GridDomain(((-1.0, 1.0),) * 3, 1 / 16,
                                 r=parse("x1^2+x2^2+x3^2-0.81", n=3)),
    "two-balls": lambda: D.GridDomain(
        ((-1.0, 1.0), (-0.5, 0.5), (-0.5, 0.5)), 1 / 16,
        r=parse("((x1+0.5)^2+x2^2+x3^2-0.16)*((x1-0.5)^2+x2^2+x3^2-0.16)",
                n=3)),
    "solid-torus": lambda: D.GridDomain(
        ((-1.0, 1.0), (-1.0, 1.0), (-0.4, 0.4)), 1 / 16,
        r=parse("(x1^2+x2^2+x3^2+0.2125)^2-1.21*(x1^2+x2^2)", n=3)),
}
# (components, isolated nodes) where not (1, 0)
CENTRED_COUNTS = {"islands": (11, 3), "two-intervals": (2, 0),
                  "two-balls": (2, 0)}


# ---------------------------------------------------------------------------
# minimal solutions
# ---------------------------------------------------------------------------

class TestMinimalSolution:

    def test_non_finite_right_hand_side_named_before_any_solve(
            self, monkeypatch):
        # LSMR would run to its budget on a NaN residual; a norm that
        # overflows from finite entries has no cell to name
        monkeypatch.setattr(S, "spla", None)      # any solve would raise
        cx = D.build_complex(D.GridDomain(UNIT2, 1 / 8))
        f = S.closed_form_from_potential(cx, 1, [pot])
        values = f.values.copy()
        values[5] = np.nan
        with pytest.raises(DomainError) as exc:
            S.minimal_solution(cx, D.Cochain(1, values), PHI2)
        assert str(exc.value) == ("right-hand side is not finite on 1-cell 5 "
                                  "at x = [0.0625, 0.625]")
        with pytest.raises(DomainError, match="weighted norm of the "
                           "right-hand side overflowed"):
            S.minimal_solution(cx, D.Cochain(1, 1e200 * f.values), PHI2)

    def test_matches_dense_min_norm_oracle_1d(self):
        cx = D.build_complex(D.GridDomain(((0.0, 1.0),), 1 / 64))
        phi = parse("x1^2", n=1)
        f = S.closed_form_from_potential(
            cx, 1, [parse("exp(0.5*x1)*x1*(1-x1)", n=1)])
        sol = S.minimal_solution(cx, f, phi)
        assert sol.residual <= 1e-10
        d = D.coboundary(cx, 0).toarray().astype(float)
        msrc = D.mass(cx, phi, 0).diag
        u_oracle = O.dense_min_norm(d, msrc, f.values)
        assert np.abs(sol.u.values - u_oracle).max() <= 1e-8

    def test_matches_dense_min_norm_oracle_2d(self):
        cx = D.build_complex(D.GridDomain(UNIT2, 1 / 16))
        f = S.closed_form_from_potential(cx, 1, [pot])
        sol = S.minimal_solution(cx, f, PHI2)
        d = D.coboundary(cx, 0).toarray().astype(float)
        msrc = D.mass(cx, PHI2, 0).diag
        u_oracle = O.dense_min_norm(d, msrc, f.values)
        scale = np.abs(u_oracle).max()
        assert np.abs(sol.u.values - u_oracle).max() <= 1e-8 * scale

    def test_orthogonal_to_kernel_and_minimal(self):
        cx = D.build_complex(D.GridDomain(((0.0, 1.0),), 1 / 64))
        phi = parse("x1^2", n=1)
        f = S.closed_form_from_potential(
            cx, 1, [parse("exp(0.5*x1)*x1*(1-x1)", n=1)])
        sol = S.minimal_solution(cx, f, phi)
        m0 = D.mass(cx, phi, 0)
        ones = np.ones(cx.num_cells(0))   # Ker d on a connected interval
        u_norm = math.sqrt(m0.inner(sol.u.values, sol.u.values))
        assert abs(m0.inner(sol.u.values, ones)) <= 1e-8 * u_norm
        for c in (-0.5, 0.1, 2.0):
            shifted = sol.u.values + c * ones
            assert m0.inner(shifted, shifted) > u_norm ** 2

    def test_smaller_than_any_particular_solution(self, cx32):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(cx32.num_cells(0))
        f = D.Cochain(1, D.coboundary(cx32, 0) @ v)
        sol = S.minimal_solution(cx32, f, PHI2)
        m0 = D.mass(cx32, PHI2, 0)
        assert sol.residual <= 1e-10
        assert m0.inner(sol.u.values, sol.u.values) <= m0.inner(v, v)

    @pytest.mark.parametrize("shape", CENTRED_DOMAINS)
    def test_degree_one_is_the_centred_potential(self, shape):
        """For p = 1, Ker d is the locally constant functions, so the
        minimal solution of du = d(pot) is pot less its weighted mean on
        each component of the 1-skeleton, found here by csgraph."""
        cx = D.build_complex(CENTRED_DOMAINS[shape]())
        n, (n_comp_want, n_isolated) = cx.n, CENTRED_COUNTS.get(shape, (1, 0))
        if shape.startswith("box"):
            # unequal counts per axis
            assert len(set(cx.dom.counts)) == n
        phi = parse(["0.1*x1^2", "0.1*x1^2+x2^2",
                     "0.1*x1^2+x2^2+0.5*x3^2"][n - 1], n=n)
        coeffs = [parse(["exp(0.3*x1)+x1^2", "exp(0.3*x1)*x2+x1^2",
                         "exp(0.3*x1)*x2+x1^2+x2*x3^3"][n - 1], n=n)]
        sol = S.minimal_solution(
            cx, S.closed_form_from_potential(cx, 1, coeffs), phi)
        assert (sol.method, sol.iterations) == ("primitive", 0)
        assert sol.residual <= 1e-12

        d = D.coboundary(cx, 0)
        n_comp, labels = csgraph.connected_components(d.T @ d)
        m0 = D.mass(cx, phi, 0)
        u, potential = sol.u.values, D.sample_cochain(cx, 0, coeffs).values
        expected = potential.copy()
        u_norm = math.sqrt(m0.inner(u, u))
        for c in range(n_comp):
            ones = (labels == c).astype(float)
            expected -= ones * m0.inner(potential, ones) / m0.inner(ones, ones)
            assert abs(m0.inner(u, ones)) <= (
                1e-12 * u_norm * math.sqrt(m0.inner(ones, ones)))
        assert np.abs(u - expected).max() <= 1e-12 * np.abs(expected).max()
        isolated = np.bincount(d.indices, minlength=u.size) == 0
        assert isolated.sum() == n_isolated
        assert n_comp == n_comp_want
        assert not np.any(u[isolated])

    def test_zero_rhs_gives_zero_solution(self, cx32):
        f = D.Cochain(1, np.zeros(cx32.num_cells(1)))
        sol = S.minimal_solution(cx32, f, PHI2)
        assert sol.residual == 0.0 and not np.any(sol.u.values)

    def test_sampled_curved_form_is_not_closed_enough(self, cx32):
        f = D.sample_cochain(cx32, 1, [parse("0.5*x2*exp(0.5*x1*x2)", n=2),
                                       parse("0.5*x1*exp(0.5*x1*x2)", n=2)])
        with pytest.raises(NotClosed):
            S.minimal_solution(cx32, f, PHI2)

    def test_harmonic_rhs_raises_obstruction(self, annulus):
        rep = O.spectral_rank(annulus, 1, 0.0)
        harmonic = rep.basis[:, 0]
        v = np.random.default_rng(3).standard_normal(annulus.num_cells(0))
        exact = D.coboundary(annulus, 0) @ v
        # the basis column is M-orthonormal and M-orthogonal to exact
        # cochains, so the obstruction norm is its coefficient
        for values, norm in ((harmonic, 1.0), (exact + 0.3 * harmonic, 0.3)):
            with pytest.raises(CohomologyObstruction) as err:
                S.minimal_solution(annulus, D.Cochain(1, values), 0.0)
            assert err.value.obstruction_norm == pytest.approx(norm,
                                                               rel=1e-9)

    def test_exhausted_budget_raises_no_convergence(self, cx32,
                                                    monkeypatch):
        # degree 2: degree-1 data is integrated without calling LSMR
        f = S.closed_form_from_potential(cx32, 2, [pot, 0.0])
        lsmr = S.spla.lsmr
        monkeypatch.setattr(S.spla, "lsmr", lambda *args, **kwargs: lsmr(
            *args, **{**kwargs, "maxiter": 3}))
        with pytest.raises(NoConvergence) as err:
            S.minimal_solution(cx32, f, PHI2)
        assert err.value.iterations == 3
        assert 1e-10 < err.value.residual < 1.0

    @pytest.mark.parametrize("n, h", [(2, 1 / 16), (3, 1 / 8)],
                             ids=["2d", "3d"])
    def test_lsmr_operator_keeps_the_bits_of_the_diagonal_products(
            self, n, h, monkeypatch):
        # D̃ = M_p^{1/2} d M_{p−1}^{−1/2} on a p = 2 box, as LSMR receives
        # it, against the CSR products diags(w_tgt) @ d @ diags(1/w_src)
        cx = D.build_complex(D.GridDomain(((0.0, 1.0),) * n, h))
        phi = parse("+".join(f"x{i + 1}^2" for i in range(n)), n=n)
        potential = [parse("x1*x2^2", n=n)] + [0.0] * (n - 1)
        f = S.closed_form_from_potential(cx, 2, potential)
        seen, lsmr = [], S.spla.lsmr

        def capture(A, *args, **kwargs):
            seen.append(A)
            return lsmr(A, *args, **kwargs)

        monkeypatch.setattr(S.spla, "lsmr", capture)
        assert S.minimal_solution(cx, f, phi).method == "lsmr"
        w_tgt = np.sqrt(D.mass(cx, phi, 2).diag)
        w_src = np.sqrt(D.mass(cx, phi, 1).diag)
        want = (sp.diags(w_tgt) @ D.coboundary(cx, 1).astype(np.float64)
                @ sp.diags(1.0 / w_src)).tocsr()
        (got,) = seen
        assert got.shape == want.shape
        assert np.array_equal(got.data.view(np.int64),
                              want.data.view(np.int64))
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)

    @pytest.mark.parametrize("n, h, p, k", [
        (2, 1 / 32, 1, 30), (2, 1 / 32, 1, 100), (2, 1 / 32, 1, 300),
        (3, 1 / 16, 2, 30)], ids=["2d-k30", "2d-k100", "2d-k300", "3d-k30"])
    def test_steep_weight_converges(self, n, h, p, k):
        """φ = k|x|² is the strongly convex regime the estimates are
        about: the solve must converge, and no further than the sampled
        potential's norm."""
        cx = D.build_complex(D.GridDomain(((0.0, 1.0),) * n, h))
        phi = parse("+".join(f"{k}*x{i + 1}^2" for i in range(n)), n=n)
        coeffs = [lambda x: math.prod(bump01(c, 0.25, 0.75) for c in x)]
        coeffs += [0.0] * (math.comb(n, p - 1) - 1)
        f = S.closed_form_from_potential(cx, p, coeffs)
        sol = S.minimal_solution(cx, f, phi)
        assert sol.residual <= 1e-10
        m_src = D.mass(cx, phi, p - 1)
        potential = D.sample_cochain(cx, p - 1, coeffs).values
        assert (m_src.inner(sol.u.values, sol.u.values)
                <= m_src.inner(potential, potential) * (1.0 + 1e-9))

    def test_validation(self, cx32):
        with pytest.raises(ValueError):
            S.minimal_solution(cx32, D.Cochain(0, np.zeros(1)), PHI2)
        with pytest.raises(ValueError):
            S.minimal_solution(cx32, D.Cochain(1, np.zeros(3)), PHI2)

    def test_potential_form_is_exactly_closed(self, cx32, f32):
        assert np.abs(D.coboundary(cx32, 1) @ f32.values).max() == 0.0


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------

class TestMonotonicity:

    def test_nested_domains(self, cx32):
        inner = D.build_complex(
            D.GridDomain(((0.125, 0.875), (0.125, 0.875)), 1 / 32))
        rec = S.domain_monotonicity(inner, cx32, [pot], 1, PHI2)
        assert rec.mode == "domains" and rec.satisfied
        assert rec.lesser < rec.greater

    def test_equal_domains_tie(self, cx32):
        rec = S.domain_monotonicity(cx32, cx32, [pot], 1, PHI2)
        assert rec.satisfied and rec.margin == 0.0

    def test_mismatched_dimensions_rejected(self, cx32):
        outer = D.build_complex(D.GridDomain(((0.0, 1.0),) * 3, 0.25))
        with pytest.raises(PreconditionError, match="2-dim.*3-dim"):
            S.domain_monotonicity(cx32, outer, [pot], 1, 0.0)

    def test_inner_outside_outer_disk_rejected(self):
        # the bounding boxes agree, but the unit box's corners lie outside
        # the disk; comparing boxes alone let this through to a solve that
        # reported lesser 0.00823 > greater 0.00782
        box = D.build_complex(D.GridDomain(UNIT2, 1 / 16))
        disk = D.build_complex(D.GridDomain(UNIT2, 1 / 16, r=parse(
            "(x1-0.5)^2+(x2-0.5)^2-0.16", n=2)))
        with pytest.raises(PreconditionError,
                           match=r"inner 0-cell lies outside the outer "
                           r"domain at x = \[0\.0, 0\.0\]"):
            S.domain_monotonicity(box, disk, [pot], 1, PHI2)

    def test_inner_square_over_outer_hole_rejected(self):
        # every node and edge midpoint of the inner grid avoids the outer
        # domain's small hole, but one square's barycenter is its center
        hole = parse("0.00024414062-(x1-0.53125)^2-(x2-0.53125)^2", n=2)
        inner = D.build_complex(D.GridDomain(UNIT2, 1 / 16))
        outer = D.build_complex(D.GridDomain(UNIT2, 1 / 32, r=hole))
        with pytest.raises(PreconditionError, match=r"inner 2-cell lies "
                           r"outside the outer domain at x = "
                           r"\[0\.53125, 0\.53125\]"):
            S.domain_monotonicity(inner, outer, [pot], 1, 0.0)

    def test_inner_box_past_outer_box_rejected(self, cx32):
        inner = D.build_complex(D.GridDomain(((0.0, 1.5), (0.0, 1.0)), 1 / 8))
        with pytest.raises(PreconditionError,
                           match=r"inner 0-cell lies outside the outer "
                           r"domain at x = \[1\.125, 0\.0\]"):
            S.domain_monotonicity(inner, cx32, [pot], 1, 0.0)

    def test_constant_weight_shift_scales_by_exp(self, cx32):
        hi = S.CombinedWeight(PHI2, 1.0, 1.0)
        rec = S.weight_monotonicity(cx32, [pot], 1, PHI2, hi)
        assert rec.mode == "weights"
        assert rec.satisfied
        assert rec.lesser / rec.greater == pytest.approx(math.exp(-1.0),
                                                         rel=1e-9)

    def test_unordered_weights_rejected(self, cx32):
        with pytest.raises(PreconditionError):
            S.weight_monotonicity(cx32, [pot], 1, PHI2, 0.0)

    def test_unordered_weights_name_the_first_barycenter(self, cx32):
        # x1^2+x2^2 > 0.5 first at a 1-cell past row 0, and larger later
        X = cx32.barycenters(1)
        first = int(np.flatnonzero((X * X).sum(axis=1) > 0.5 + 1e-12)[0])
        assert first > 0
        with pytest.raises(PreconditionError) as exc:
            S.weight_monotonicity(cx32, [pot], 1, PHI2, 0.5)
        assert str(exc.value) == \
            f"weights are not ordered at x = {X[first].tolist()}"


# ---------------------------------------------------------------------------
# baseline report
# ---------------------------------------------------------------------------

class TestBaselineReport:

    def test_square_battery_passes_and_tightens(self):
        ratios = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            cx = D.build_complex(D.GridDomain(UNIT2, h))
            f = S.closed_form_from_potential(cx, 1, [pot])
            rep = S.hormander_report(cx, f, PHI2)
            assert rep.passed and rep.constant == 1.0
            ratios.append(rep.ratio)
        assert ratios[-1] <= 1.05
        assert ratios[0] >= ratios[1] >= ratios[2]

    def test_zero_rhs_is_vacuous(self, cx32):
        f = D.Cochain(1, np.zeros(cx32.num_cells(1)))
        rep = S.hormander_report(cx32, f, PHI2)
        assert rep.vacuous and rep.passed and rep.ratio == 0.0

    def test_linear_weight_rejected_through_membership(self, cx32, f32):
        with pytest.raises(MembershipError):
            S.hormander_report(cx32, f32, parse("x1+x2", n=2))

    def test_concave_weight_rejected(self, cx32, f32):
        with pytest.raises(PreconditionError):
            S.hormander_report(cx32, f32, parse("0-x1^2-x2^2", n=2))

    def test_constant_failing_hessian_names_the_first_barycenter(self, cx32,
                                                                 f32):
        phi = parse("-(x1^2+x2^2)", n=2)
        X = cx32.barycenters(1)
        assert S._hessian(phi)(X).shape == (1, 2, 2)   # one matrix per block
        with pytest.raises(PreconditionError) as exc:
            S.hormander_report(cx32, f32, phi)
        assert str(exc.value).endswith(f" at x = {X[0].tolist()}")

    def test_row_dependent_failure_names_its_first_barycenter(self):
        # D²phi = diag(2 − 6·x1, 2) fails where x1 > 1/3, first reached in
        # the second block of rows
        cx = D.build_complex(D.GridDomain(UNIT2, 1 / 64))
        X = cx.barycenters(1)
        d2 = 2.0 - 6.0 * X[:, 0]
        first = int(np.flatnonzero(
            d2 < -1e-8 * (np.maximum(np.abs(d2), 2.0) + 1.0))[0])
        assert first > FE.BLOCK_ROWS
        zero = D.Cochain(1, np.zeros(cx.num_cells(1)))
        with pytest.raises(PreconditionError) as exc:
            S.hormander_report(cx, zero, parse("x1^2+x2^2-x1^3", n=2))
        assert str(exc.value).endswith(f" at x = {X[first].tolist()}")

    @pytest.mark.parametrize("text, per_row", [("x1^2+x2^2", False),
                                               ("x1^2+x2^2-x1^3", True)])
    def test_row_independent_stack_is_built_once(self, text, per_row):
        # D²phi = diag(2 − 6·x1, 2) is p-positive for x1 < 1/3; the sweep
        # walks the 1-cells' barycenters block by block, in row order
        cx = D.build_complex(D.GridDomain(((0.0, 0.3),) * 2, 0.3 / 40))
        X = cx.barycenters(1)
        blocks = len(FE.row_blocks(len(X)))
        assert blocks > 1
        mats, calls = S._hessian(parse(text, n=2)), []
        S._require_p_positive(
            cx, 1, lambda B: calls.append(B) or mats(B), "D²phi")
        # the first block decides: one matrix there is one matrix everywhere
        assert len(calls) == (blocks if per_row else 1)
        seen = np.concatenate(calls)
        assert np.array_equal(seen, X[:len(X) if per_row else FE.BLOCK_ROWS])

    @pytest.mark.parametrize("text, per_row", [("x1^2+x2^2", False),
                                               ("x1^2+x2^2+x1^3", True)])
    def test_row_independent_quadrature_hessian_is_walked_once(self, text,
                                                               per_row):
        class Counted:
            def __init__(self, field):
                self.field, self.orders = field, []

            def jets(self, X, order=2):
                self.orders.append(order)
                return self.field.jets(X, order)

        cx = D.build_complex(D.GridDomain(UNIT2, 1 / 64))
        f = S.closed_form_from_potential(cx, 1, [parse("x1*x2", n=2)])
        blocks = len(FE.row_blocks(np.count_nonzero(
            np.abs(S._node_components(cx, f)).max(axis=1) > 0.0)))
        assert blocks > 1
        phi = parse(text, n=2)
        theta, weight = Counted(phi), Counted(phi)
        total = S.inverse_quadform_integral(cx, f, theta, weight)
        assert theta.orders == [2] * (blocks if per_row else 1)
        assert weight.orders == [0] * blocks
        assert total == S.inverse_quadform_integral(cx, f, phi, phi)

    def test_sweep_stops_at_a_row_independent_hessian(self):
        # the one behaviour the early stop changes: the value of phi
        # overflows from 1-cell 3,770 of 8,320 on, past the sweep's first
        # block, and its Hessian is one matrix; the sweep no longer walks
        # those rows, and the report's value walk raises at the same point
        cx = D.build_complex(D.GridDomain(((0.0, 2.0), (0.0, 2.0)), 1 / 32))
        f = S.closed_form_from_potential(cx, 1, [parse("x1*x2", n=2)])
        phi = parse("x1^2+x2^2+1e308*x1", n=2)
        X = cx.barycenters(1)
        assert X[3770].tolist() == [1.828125, 0.0] and 3770 > FE.BLOCK_ROWS
        S._require_p_positive(cx, 1, S._hessian(phi), "D²phi")
        with pytest.raises(DomainError, match="non-finite") as exc:
            S.hormander_report(cx, f, phi)
        assert str(X[3770].tolist()) in str(exc.value)

    def test_membership_error_names_first_bad_support_node(self):
        # D²theta = diag(1, 1) for x1 < 0.7 and diag(1, 0) from there on,
        # so the first node past it with a dx2 part leaves the image
        class Degenerate:
            def jets(self, X, order=2):
                m, n = X.shape
                if not order:
                    return np.zeros(m)
                h = np.zeros((m, n, n))
                h[:, 0, 0] = 1.0
                h[:, 1, 1] = X[:, 0] < 0.7
                return np.zeros(m), np.zeros((m, n)), h

        cx = D.build_complex(D.GridDomain(UNIT2, 1 / 96))
        f = S.closed_form_from_potential(cx, 1, [pot])
        G = S._node_components(cx, f)
        mag = np.abs(G).max(axis=1)
        support = np.flatnonzero(mag > 1e-14 * mag.max())
        nodes = cx.barycenters(0)
        for k, i in enumerate(support):
            hess = Degenerate().jets(nodes[i:i + 1])[2][0]
            try:
                X.quadform_pinv(hess, X.PointForm(2, 1, G[i]))
            except MembershipError as exc:
                one = exc
                break
        else:
            pytest.fail("no support node leaves the image")
        assert k >= FE.BLOCK_ROWS        # the bad node is in a later block
        with pytest.raises(MembershipError) as err:
            S.inverse_quadform_integral(cx, f, Degenerate(), PHI2)
        assert str(err.value) == \
            f"{one} on the quadrature node at x = {nodes[i].tolist()}"
        assert (err.value.residual, err.value.rel_residual) == \
            (one.residual, one.rel_residual)
        # the row of the failing node within its block, not the first row
        assert err.value.row == k % FE.BLOCK_ROWS != 0

    def test_record_schema(self, cx32, f32):
        f2 = S.closed_form_from_potential(cx32, 2, [pot, 0.0])
        for p, f, method in ((1, f32, "primitive"), (2, f2, "lsmr")):
            rep = S.hormander_report(cx32, f, PHI2)
            rec = rep.record()
            assert set(rec) == {"test", "lhs", "rhs", "constant", "ratio",
                                "h", "method", "iterations", "residual",
                                "harmonic_obstruction", "num_cells", "pass"}
            assert rec["pass"] is True and rec["h"] == cx32.dom.h
            assert (rec["method"], rec["iterations"], rec["residual"],
                    rec["harmonic_obstruction"]) == (
                rep.solve.method, rep.solve.iterations, rep.solve.residual,
                rep.solve.harmonic_obstruction)
            assert rec["method"] == method and rec["residual"] <= 1e-10
            assert (rec["iterations"] > 0) == (method == "lsmr")
            assert rec["num_cells"] == cx32.num_cells(p - 1)

    def test_degree_comes_from_the_cochain(self):
        # D²phi = diag(2, -1, 2): its smallest 2-trace is 1 and its smallest
        # 1-trace -1, so phi is 2-positive but not 1-positive
        cx = D.build_complex(D.GridDomain(((0.0, 1.0),) * 3, 1 / 8))
        phi = parse("x1^2-0.5*x2^2+x3^2", n=3)

        def pot3(x):
            return pot(x) * bump01(x[2], 0.25, 0.75)

        f2 = S.closed_form_from_potential(cx, 2, [pot3, 0.0, 0.0])
        rep = S.hormander_report(cx, f2, phi)
        assert rep.solve.u.p == 1 and not rep.vacuous and rep.passed
        f1 = S.closed_form_from_potential(cx, 1, [pot3])
        with pytest.raises(PreconditionError,
                           match="D²phi is not 1-positive"):
            S.hormander_report(cx, f1, phi)


# ---------------------------------------------------------------------------
# two-weight report
# ---------------------------------------------------------------------------

class TestTwoWeightReport:

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.6])
    def test_passes_with_predicted_constant(self, cx32, f32, alpha):
        psi = diameter_weight(1, math.sqrt(2.0), (0.5, 0.5))
        rep = S.berndtsson_report(cx32, f32, PHI2, psi, alpha)
        assert rep.constant == pytest.approx(4.0 / (1.0 - alpha) ** 2)
        assert rep.passed
        assert rep.apriori is not None
        assert rep.apriori.sigma == pytest.approx((1.0 - alpha) / 2.0)
        assert 0.0 < rep.apriori.worst_ratio <= 1.0

    def test_diameter_weight_rhs_in_closed_form(self, cx32, f32):
        # the induced operator of p|x-c|^2/(2D^2) is (p^2/D^2)·Id on
        # p-forms, so the quadrature must equal (D^2/p^2)·∫|f|² e^{-phi}
        psi = diameter_weight(1, math.sqrt(2.0), (0.5, 0.5))
        integral = S.inverse_quadform_integral(cx32, f32, psi, PHI2)
        direct = 2.0 * S._pairing_integral(
            cx32, f32, parse("0.5*(x1^2+x2^2)", n=2), PHI2)
        assert integral == pytest.approx(direct, rel=1e-12)

    def test_diameter_norm_bound(self, cx32, f32):
        # α = 0 gives ‖u‖_φ ≤ (2D/p)·‖f‖_φ up to slack
        dia = math.sqrt(2.0)
        psi = diameter_weight(1, dia, (0.5, 0.5))
        rep = S.berndtsson_report(cx32, f32, PHI2, psi, 0.0)
        f_sq = S._pairing_integral(cx32, f32,
                                   parse("0.5*(x1^2+x2^2)", n=2), PHI2)
        assert rep.lhs <= (2.0 * dia) ** 2 * f_sq * 1.05

    def test_second_weight_must_stay_admissible(self, cx32, f32):
        # -e^{-|x|^2} is not 1-plurisubharmonic on the whole square
        with pytest.raises(PreconditionError):
            S.berndtsson_report(cx32, f32, PHI2, PHI2, 0.3)

    def test_overflowing_second_weight_names_its_point(self, cx32, f32):
        # e^{-psi} overflows at every barycenter: the sweep used to pass
        # on NaN traces with two RuntimeWarnings, and the report died later
        # in mass
        psi = parse("x1^2+x2^2-800", n=2)
        first = cx32.barycenters(1)[0].tolist()
        with pytest.raises(DomainError, match=re.escape(
                f"the Hessian of -exp(-psi) is not finite at x = {first}")):
            S.berndtsson_report(cx32, f32, PHI2, psi, 0.3)

    def test_alpha_range_checked(self, cx32, f32):
        psi = diameter_weight(1, math.sqrt(2.0), (0.5, 0.5))
        with pytest.raises(PreconditionError):
            S.berndtsson_report(cx32, f32, PHI2, psi, 1.0)

    def test_top_degree(self):
        # p = n: no (p+1)-cells, so the apriori check draws g directly and
        # has no ‖dg‖ term
        cx = D.build_complex(D.GridDomain(UNIT2, 1 / 16))
        f = S.closed_form_from_potential(cx, 2, [pot, 0.0])
        psi = diameter_weight(2, math.sqrt(2.0), (0.5, 0.5))
        rep = S.berndtsson_report(cx, f, PHI2, psi, 0.3,
                                  rng=np.random.default_rng(0))
        assert rep.passed and rep.solve.method == "lsmr"
        assert rep.apriori.samples == 3
        assert 0.0 < rep.apriori.worst_ratio <= 1.0


# ---------------------------------------------------------------------------
# minimal-solution estimate with a comparison weight
# ---------------------------------------------------------------------------

class TestMinimalEstimate:

    @staticmethod
    def omega(x):
        return math.sqrt(0.2) * math.hypot(x[0], x[1])

    def test_passes(self, cx32, f32):
        psi = parse("0.1*(x1^2+x2^2)", n=2)
        rep = S.minimal_estimate_report(cx32, f32, PHI2, psi, self.omega,
                                        0.5)
        assert rep.constant == pytest.approx(3.0)
        assert rep.passed

    def test_omega_exceeding_alpha_on_support_rejected(self, cx32, f32):
        psi = parse("0.1*(x1^2+x2^2)", n=2)
        with pytest.raises(PreconditionError):
            S.minimal_estimate_report(cx32, f32, PHI2, psi, self.omega,
                                      0.2)

    def test_constant_psi_degenerate_unless_zero_rhs(self, cx32, f32):
        with pytest.raises(MembershipError):
            S.minimal_estimate_report(cx32, f32, PHI2, 3.0, 0.0, 0.0)
        zero = D.Cochain(1, np.zeros(cx32.num_cells(1)))
        rep = S.minimal_estimate_report(cx32, zero, PHI2, 3.0, 0.0, 0.0)
        assert rep.vacuous and rep.passed and rep.constant == 1.0

    @pytest.mark.parametrize("omega, where", [
        (lambda x: 2.0 * x[0], r"got 1\.03125 at x = \[0\.515625, 0\.0\]"),
        (lambda x: -0.1, r"got -0\.1 at x = \[0\.015625, 0\.0\]")],
        ids=["above-1", "negative"])
    def test_omega_range_names_the_point(self, cx32, f32, omega, where):
        psi = parse("0.1*(x1^2+x2^2)", n=2)
        with pytest.raises(PreconditionError,
                           match=r"0 <= omega < 1\.0; " + where):
            S.minimal_estimate_report(cx32, f32, PHI2, psi, omega, 0.5)

    def test_psd_hypothesis_enforced(self, cx32, f32):
        # omega too small for psi's own gradient term
        psi = parse("0.1*(x1^2+x2^2)", n=2)
        with pytest.raises(PreconditionError):
            S.minimal_estimate_report(cx32, f32, PHI2, psi,
                                      lambda x: 0.01, 0.5)

    def test_composite_route(self, cx32, f32):
        psi0 = diameter_weight(1, math.sqrt(2.0), (0.5, 0.5))
        a0 = 0.25
        base, comp = S.composite_minimal_estimate(cx32, f32, PHI2, psi0,
                                                  a0)
        assert base.passed and comp.passed
        assert base.constant == pytest.approx(
            (1 + math.sqrt(a0)) / (1 - math.sqrt(a0)))
        assert comp.constant == pytest.approx(
            1.0 / (a0 * (1 - math.sqrt(a0)) ** 2))
        # with constant omega the two reports are algebraically locked
        assert comp.lhs == pytest.approx(base.lhs / (1 - a0), rel=1e-12)
        assert comp.integral == pytest.approx(base.integral * a0, rel=1e-12)
        assert comp.solve is base.solve

    def test_composite_alpha_range(self, cx32, f32):
        psi0 = diameter_weight(1, math.sqrt(2.0), (0.5, 0.5))
        with pytest.raises(PreconditionError):
            S.composite_minimal_estimate(cx32, f32, PHI2, psi0, 0.0)


# ---------------------------------------------------------------------------
# non-plurisubharmonic comparison weight
# ---------------------------------------------------------------------------

class TestNonPshReport:

    PSI_L = parse("0.3*x1+0.3*x2", n=2)

    def test_varying_omega(self, cx32, f32):
        rep = S.nonpsh_report(cx32, f32, PHI2, self.PSI_L, 0.4, 0.4)
        assert rep.constant == pytest.approx(2.4 / 1.6)
        assert rep.passed

    def test_constant_omega_variant(self, cx32, f32):
        rep = S.nonpsh_report(cx32, f32, PHI2, self.PSI_L, None, 0.3)
        assert rep.constant == pytest.approx(4.0 / (2.0 - 0.3) ** 2)
        assert rep.passed

    def test_reduces_to_baseline_bit_for_bit(self, cx32, f32):
        base = S.hormander_report(cx32, f32, PHI2)
        red = S.nonpsh_report(cx32, f32, PHI2, None, None, 0.0)
        assert red.constant == 1.0
        assert red.lhs == base.lhs
        assert red.rhs == base.rhs
        assert red.ratio == base.ratio

    def test_two_weight_bound_recovered(self, cx32, f32):
        # phi+psi with (1+alpha)·psi reproduces the 4/(1-alpha)^2 constant
        alpha = 0.3
        psi = diameter_weight(1, math.sqrt(2.0), (0.5, 0.5))
        rep = S.nonpsh_report(cx32, f32, S.CombinedWeight(PHI2, 1.0, psi),
                              S.CombinedWeight(None, 1.0 + alpha, psi),
                              None, 1.0 + alpha)
        assert rep.constant == pytest.approx(4.0 / (1.0 - alpha) ** 2)
        assert rep.passed

    def test_gradient_hypothesis_enforced(self, cx32, f32):
        steep = parse("5*x1+5*x2", n=2)
        with pytest.raises(PreconditionError):
            S.nonpsh_report(cx32, f32, PHI2, steep, 0.4, 0.4)

    def test_alpha_range(self, cx32, f32):
        with pytest.raises(PreconditionError):
            S.nonpsh_report(cx32, f32, PHI2, self.PSI_L, None, 2.0)

    def test_omega_range_names_the_point(self, cx32, f32):
        with pytest.raises(PreconditionError, match=r"0 <= omega < 2\.0; "
                           r"got 2\.0625 at x = \[0\.515625, 0\.0\]"):
            S.nonpsh_report(cx32, f32, PHI2, self.PSI_L,
                            lambda x: 4.0 * x[0], 0.5)


# ---------------------------------------------------------------------------
# shared report properties
# ---------------------------------------------------------------------------

class TestScalingCovariance:

    def test_constant_shift_scales_both_sides(self, cx32, f32):
        base = S.hormander_report(cx32, f32, PHI2)
        shifted = S.hormander_report(cx32, f32,
                                     S.CombinedWeight(PHI2, 1.0, 2.5))
        assert np.abs(shifted.solve.u.values
                      - base.solve.u.values).max() <= 1e-12
        assert shifted.lhs / base.lhs == pytest.approx(math.exp(-2.5),
                                                       rel=1e-12)
        assert shifted.rhs / base.rhs == pytest.approx(math.exp(-2.5),
                                                       rel=1e-12)
        assert shifted.ratio == pytest.approx(base.ratio, rel=1e-12)


def _six_reports(cx, f):
    """Each bound report with the comparison weight, the θ of its integral
    and the lhs modifier its docstring states."""
    dia = diameter_weight(1, math.sqrt(2.0), (0.5, 0.5))
    quad = parse("0.1*(x1^2+x2^2)", n=2)
    tilt = TestNonPshReport.PSI_L
    omega = TestMinimalEstimate.omega
    base, comp = S.composite_minimal_estimate(cx, f, PHI2, dia, 0.25)
    return [
        (S.hormander_report(cx, f, PHI2), PHI2, PHI2, None),
        (S.berndtsson_report(cx, f, PHI2, dia, 0.3),
         S.CombinedWeight(PHI2, -0.3, dia), dia, None),
        (S.minimal_estimate_report(cx, f, PHI2, quad, omega, 0.5),
         S.CombinedWeight(PHI2, -1.0, quad), quad,
         lambda X: 1.0 - FE.field_jets(omega, X, order=0) ** 2),
        (comp, S.CombinedWeight(PHI2, -0.25, dia), dia, None),
        (S.nonpsh_report(cx, f, PHI2, tilt, 0.4, 0.4),
         S.CombinedWeight(PHI2, -1.0, tilt), PHI2,
         lambda X: 1.0 - FE.field_jets(0.4, X, order=0) ** 2 / 4.0),
        (S.nonpsh_report(cx, f, PHI2, tilt, None, 0.3),
         S.CombinedWeight(PHI2, -1.0, tilt), PHI2, None),
    ]


DIAMETER = diameter_weight(1, math.sqrt(2.0), (0.5, 0.5))

# each bound report, called on a cochain of the unit square
REPORTS = {
    "hormander": lambda cx, f: S.hormander_report(cx, f, PHI2),
    "berndtsson": lambda cx, f: S.berndtsson_report(cx, f, PHI2, DIAMETER,
                                                    0.3),
    "minimal-estimate": lambda cx, f: S.minimal_estimate_report(
        cx, f, PHI2, parse("0.1*(x1^2+x2^2)", n=2),
        TestMinimalEstimate.omega, 0.5),
    "composite": lambda cx, f: S.composite_minimal_estimate(
        cx, f, PHI2, DIAMETER, 0.25),
    "nonpsh": lambda cx, f: S.nonpsh_report(cx, f, PHI2,
                                            TestNonPshReport.PSI_L, 0.4, 0.4),
}


@pytest.mark.parametrize("report", REPORTS)
@pytest.mark.parametrize("p, short, message", [
    (0, 0, "cochain degree must satisfy 1 <= p <= 2; got 0"),
    (3, 0, "cochain degree must satisfy 1 <= p <= 2; got 3"),
    (1, 1, "cochain has 2111 values for 2112 1-cells")])
def test_reports_check_the_cochain_first(cx32, report, p, short, message):
    # degree and length are checked before any sweep reads the cells
    size = cx32.num_cells(min(p, 2)) - short
    with pytest.raises(ValueError, match=re.escape(message)):
        REPORTS[report](cx32, D.Cochain(p, np.ones(size)))


def test_reports_use_their_stated_weight_and_theta(cx32, f32):
    reps = _six_reports(cx32, f32)
    assert [rep.test for rep, *_ in reps] == [
        "hormander", "berndtsson", "minimal-estimate",
        "minimal-estimate-composite", "nonpsh", "nonpsh-constant"]
    for rep, weight, theta, modifier in reps:
        u = rep.solve.u.values
        md = D.mass(cx32, weight, 0).diag
        if modifier is not None:
            md = md * modifier(cx32.barycenters(0))
        assert rep.lhs == float(np.dot(u, md * u)), rep.test
        integral = S.inverse_quadform_integral(cx32, f32, theta, weight)
        assert rep.integral == integral, rep.test
        assert rep.rhs == rep.constant * integral, rep.test
        assert not rep.vacuous and rep.passed, rep.test


def test_record_carries_apriori(cx32, f32):
    psi = diameter_weight(1, math.sqrt(2.0), (0.5, 0.5))
    rep = S.berndtsson_report(cx32, f32, PHI2, psi, 0.3)
    rec = rep.record()
    assert rec["apriori_sigma"] == rep.apriori.sigma
    assert rec["apriori_worst_ratio"] == rep.apriori.worst_ratio
    assert list(rec)[-2:] == ["apriori_sigma", "apriori_worst_ratio"]
    assert set(S.hormander_report(cx32, f32, PHI2).record()) == {
        "test", "lhs", "rhs", "constant", "ratio", "h", "method",
        "iterations", "residual", "harmonic_obstruction", "num_cells",
        "pass"}


def test_reports_build_each_mass_once(monkeypatch):
    # one mass per (weight object, degree) per report: the estimate takes
    # the solve's degree-0 mass and the apriori check the degree-2 mass of
    # its coexact adjoint; the rest are the solve's degrees 1 and 2, the
    # dual volumes and the apriori check's own weights
    calls = []

    def counting(cx, phi, p):
        calls.append((phi, p))
        return mass(cx, phi, p)

    mass = D.mass
    monkeypatch.setattr(D, "mass", counting)
    monkeypatch.setattr(S, "mass", counting)
    psi = diameter_weight(1, math.sqrt(2.0), (0.5, 0.5))
    reports = [
        (4, lambda cx, f: S.hormander_report(cx, f, PHI2)),
        (9, lambda cx, f: S.berndtsson_report(cx, f, PHI2, psi, 0.3))]
    for count, report in reports:
        cx = D.build_complex(D.GridDomain(UNIT2, 1 / 16))
        f = S.closed_form_from_potential(cx, 1, [pot])
        calls.clear()
        report(cx, f)
        assert len(calls) == count
        assert len({(id(w), p) for w, p in calls}) == count


# ---------------------------------------------------------------------------
# cohomology ranks
# ---------------------------------------------------------------------------

def _torus_r():
    r_, a_ = 0.55, 0.3
    return parse(f"(x1^2+x2^2+x3^2+{r_**2-a_**2})^2"
                 f"-{4*r_**2}*(x1^2+x2^2)", n=3)


#: shape -> (box, h, defining function, Betti numbers b_0 … b_n)
SHAPES = {
    "box": (UNIT2, 1 / 16, None, (1, 0, 0)),
    "ring-0.1": (((-1.2, 1.2),) * 2, 0.1, ANNULUS_R, (1, 1, 0)),
    "ring-0.05": (((-1.2, 1.2),) * 2, 0.05, ANNULUS_R, (1, 1, 0)),
    "solid-torus": (((-1.0, 1.0), (-1.0, 1.0), (-0.4, 0.4)), 1 / 16,
                    _torus_r(), (1, 1, 0, 0)),
    "spherical-shell": (((-1.0, 1.0),) * 3, 1 / 8,
                        parse("(x1^2+x2^2+x3^2-0.16)*(x1^2+x2^2+x3^2-0.81)",
                              n=3), (1, 0, 1, 0)),
    "two-balls": (((-1.0, 1.0),) * 3, 1 / 8,
                  parse("((x1-0.5)^2+x2^2+x3^2-0.16)"
                        "*((x1+0.5)^2+x2^2+x3^2-0.16)", n=3), (2, 0, 0, 0)),
    "disk-three-holes": (((-1.0, 1.0),) * 2, 1 / 32,
                         parse("(x1^2+x2^2-0.81)*((x1-0.4)^2+x2^2-0.04)"
                               "*((x1+0.4)^2+x2^2-0.04)"
                               "*(x1^2+(x2-0.45)^2-0.02)", n=2), (1, 3, 0)),
    "two-intervals": (((0.0, 3.0),), 1 / 16,
                      parse("(x1-0.5)*(x1-1.2)*(x1-1.8)*(x1-2.5)", n=1),
                      (2, 0)),
}


class TestCohomologyRank:

    def test_contractible_box(self, cx32):
        rep = S.cohomology_rank(cx32, [0.0, PHI2])
        assert rep.ranks == (1, 0, 0)
        assert (rep.components, rep.voids, rep.euler) == (1, 0, 1)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_count_matches_spectral_oracle(self, shape):
        box, h, r, betti = SHAPES[shape]
        cx = D.build_complex(D.GridDomain(box, h, r))
        rep = S.cohomology_rank(cx)
        assert rep.ranks == betti
        assert [O.spectral_rank(cx, p).rank
                for p in range(cx.n + 1)] == list(betti)

    def test_annulus_ranks_weight_independent(self, annulus):
        rng = np.random.default_rng(11)
        randos = []
        for _ in range(3):
            a, b, c = rng.uniform(0.2, 1.5, size=3)
            randos.append(parse(f"({a})*x1^2+({b})*x2^2+({c})*x1", n=2))
        assert S.cohomology_rank(annulus, [PHI2, *randos]).ranks == (1, 1, 0)
        ranks = [O.spectral_rank(annulus, p, PHI2, check_weights=randos).rank
                 for p in range(3)]
        assert ranks == [1, 1, 0]

    def test_vanishing_above_convexity_degree(self, annulus):
        # the ring is 2-convex: harmonic spaces vanish in degree >= 2
        # even though degree 1 survives
        rep = S.cohomology_rank(annulus)
        assert rep.ranks[1] == 1 and rep.ranks[2] == 0
        assert (rep.components, rep.voids, rep.euler) == (1, 1, 0)

    def test_rank_stable_under_refinement(self):
        fine = D.build_complex(
            D.GridDomain(((-1.2, 1.2), (-1.2, 1.2)), 0.05, r=ANNULUS_R))
        assert S.cohomology_rank(fine).ranks[1] == 1

    def test_solid_torus(self):
        cx3 = D.build_complex(
            D.GridDomain(((-1.0, 1.0), (-1.0, 1.0), (-0.4, 0.4)),
                         1 / 16, r=_torus_r()))
        rep = S.cohomology_rank(cx3)
        assert rep.ranks == (1, 1, 0, 0)
        assert (rep.components, rep.voids, rep.euler) == (1, 0, 0)

    def test_four_axes_are_refused(self):
        cx4 = D.build_complex(D.GridDomain(((0.0, 1.0),) * 4, 1 / 2))
        with pytest.raises(ValueError, match="cohomology supports n ≤ 3"):
            S.cohomology_rank(cx4)

    def test_underflowing_weight_names_the_cell(self, cx32):
        # e^{-800 x1} times a vertex's dual area underflows from x1 = 0.9375
        with pytest.raises(DomainError, match=r"underflowed to 0 on 0-cell "
                           r"990 at x = \[0\.9375, 0\.0\]"):
            S.cohomology_rank(cx32, [PHI2, parse("800*x1", n=2)])

    def test_basis_is_orthonormal_and_harmonic(self, annulus):
        rep = O.spectral_rank(annulus, 1, PHI2)
        m1 = D.mass(annulus, PHI2, 1)
        h = rep.basis[:, 0]
        assert m1.inner(h, h) == pytest.approx(1.0, rel=1e-9)
        assert np.abs(D.coboundary(annulus, 1) @ h).max() <= 1e-6
        delta = O.weighted_adjoint_csr(annulus, PHI2, 1) @ h
        assert np.abs(delta).max() <= 1e-6

    def test_ambiguous_gap_raises(self, annulus):
        with pytest.raises(O.GapAmbiguous):
            O.spectral_rank(annulus, 1, 0.0, floor_factor=0.05)

    def test_repeat_calls_are_bit_identical(self, fine_ring):
        assert S.cohomology_rank(fine_ring) == S.cohomology_rank(fine_ring)
        one = O.spectral_rank(fine_ring, 1, PHI2)
        two = O.spectral_rank(fine_ring, 1, PHI2)
        assert one.rank == two.rank == 1
        assert np.array_equal(one.eigenvalues, two.eigenvalues)
        assert np.array_equal(one.basis, two.basis)

    @pytest.mark.parametrize("shape,p", [("ring", p) for p in range(3)]
                             + [("box3", p) for p in range(4)])
    def test_head_matches_dense_oracle(self, shape, p, fine_ring):
        if shape == "ring":
            cx, phi = fine_ring, PHI2
        else:
            cx = D.build_complex(D.GridDomain(((0.0, 1.0),) * 3, 1 / 6))
            phi = parse("x1^2+x2^2+x3^2", n=3)
        rep = O.spectral_rank(cx, p, phi)
        lap, _ = O.laplacian_matrix(cx, phi, p)
        assert lap.shape[0] > 2 * 30          # the Lanczos path
        scale = float(abs(lap).sum(axis=1).max())
        assert rep.floor == pytest.approx(1e-7 * scale, rel=1e-15)
        dense = np.linalg.eigvalsh(lap.toarray())
        head = rep.eigenvalues
        assert np.abs(head - dense[:len(head)]).max() <= 1e-9 * scale
        assert rep.rank == int((dense <= rep.floor).sum())

    def test_small_complex_takes_dense_spectrum(self):
        cx = D.build_complex(D.GridDomain(UNIT2, 1 / 4))
        sizes = [cx.num_cells(p) for p in range(3)]
        assert sizes == [25, 40, 16]          # all at most 2·n_eigs
        reps = [O.spectral_rank(cx, p, PHI2) for p in range(3)]
        assert [r.rank for r in reps] == [1, 0, 0]
        assert [len(r.eigenvalues) for r in reps] == [25, 30, 16]
        lap, _ = O.laplacian_matrix(cx, PHI2, 1)
        assert np.array_equal(reps[1].eigenvalues,
                              np.linalg.eigh(lap.toarray())[0][:30])

    def test_head_grows_past_six_harmonic_forms(self):
        # eight disjoint strips |x1 - k - 1/2| < 0.3: b0 = 8 exceeds the
        # first request of six eigenvalues
        strips = "*".join(f"((x1-{k + 0.5})^2-0.09)" for k in range(8))
        cx = D.build_complex(D.GridDomain(((0.0, 8.0), (0.0, 1.0)), 1 / 16,
                                          r=parse(strips, n=2)))
        rep = O.spectral_rank(cx, 0, 0.0)
        assert rep.rank == 8 and len(rep.eigenvalues) == 30
        assert S.cohomology_rank(cx).ranks[0] == 8
        with pytest.raises(O.GapAmbiguous, match="raise n_eigs"):
            O.spectral_rank(cx, 0, 0.0, n_eigs=8)


# ---------------------------------------------------------------------------
# log-marginal convexity
# ---------------------------------------------------------------------------

class TestPrekopa:

    XS = np.linspace(-1.0, 1.0, 7)

    def test_round_gaussian_marginal(self):
        rep = S.prekopa_check(parse("x1^2+x2^2", n=2), self.XS,
                              [(-6.0, 6.0)])
        assert rep.passed
        assert rep.second_diffs == pytest.approx(2.0, abs=1e-3)

    def test_sheared_gaussian_marginal(self):
        rep = S.prekopa_check(parse("(x1+x2)^2+x2^2", n=2), self.XS,
                              [(-8.0, 8.0)])
        assert rep.second_diffs == pytest.approx(1.0, abs=1e-3)

    def test_matches_schur_complement_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            mat = rng.standard_normal((2, 2))
            q = mat @ mat.T + 0.3 * np.eye(2)
            expr = parse(f"({q[0,0]/2})*x1^2+({q[0,1]})*x1*x2"
                         f"+({q[1,1]/2})*x2^2", n=2)
            box = 30.0 / math.sqrt(q[1, 1])
            rep = S.prekopa_check(expr, self.XS, [(-box, box)],
                                  y_points=2001)
            schur = q[0, 0] - q[0, 1] ** 2 / q[1, 1]
            assert rep.second_diffs == pytest.approx(schur, abs=1e-4)
            assert rep.min_second_diff >= -1e-6

    def test_nonconvex_input_flagged_and_skipped(self):
        rep = S.prekopa_check(parse("x1^2-x2^2", n=2), self.XS,
                              [(-6.0, 6.0)])
        assert not rep.convex_input and rep.skipped and not rep.passed

    def test_small_quadrature_box_raises(self):
        with pytest.raises(TailError):
            S.prekopa_check(parse("x1^2+x2^2", n=2), self.XS,
                            [(-2.0, 2.0)])

    def test_empty_samples_refused_by_name(self):
        with pytest.raises(ValueError, match="at least one sample point"):
            S.prekopa_check(parse("x1^2+x2^2", n=2), [], [(-6.0, 6.0)])


# ---------------------------------------------------------------------------
# batched field evaluation
# ---------------------------------------------------------------------------

def test_consumers_never_evaluate_fields_one_point_at_a_time(monkeypatch):
    # every consumer hands its whole point set to ScalarFieldExpr.jets; the
    # one-point wrappers exist only for callers outside the package
    def refuse(self, x):
        raise AssertionError("per-point field evaluation")

    for name in ("value", "eval_jet2", "__call__"):
        monkeypatch.setattr(FE.ScalarFieldExpr, name, refuse)
    _run_consumers()


def test_consumers_never_call_exterior_one_node_at_a_time(monkeypatch):
    # the node quadratures and the energy identity work on stacks; the
    # one-point operators exist only for callers outside the package
    def refuse(*args, **kwargs):
        raise AssertionError("per-node exterior call")

    for mod in (X, S, D):
        for name in ("quadform_pinv", "pairing_quadratic", "quadform_matrix"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    _run_consumers()


def _run_consumers():
    r = parse("(x1-0.5)^2+(x2-0.5)^2-0.2", n=2)
    cx = D.build_complex(D.GridDomain(UNIT2, 1 / 16, r=r))
    assert cx.num_cells(2) > 0
    cx = D.build_complex(D.GridDomain(UNIT2, 1 / 16))
    f = S.closed_form_from_potential(cx, 1, [pot])
    psi = diameter_weight(1, math.sqrt(2.0), (0.5, 0.5))
    omega = parse("0.3+0.05*x1", n=2)
    tilt = TestNonPshReport.PSI_L
    reports = [S.hormander_report(cx, f, PHI2),
               S.berndtsson_report(cx, f, PHI2, psi, 0.3),
               S.nonpsh_report(cx, f, PHI2, tilt, omega, 0.4),
               S.nonpsh_report(cx, f, PHI2, tilt, None, 0.3)]
    assert all(rep.passed for rep in reports)
    rep = D.energy_identity_residual(
        [pot, 0.0], PHI2, D.GridDomain(UNIT2, 1 / 16, r=r), 1)
    assert rep.residual < 0.1
