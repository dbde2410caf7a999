"""Weights: the scaled squared-distance weight, lattice samples, and the
exponent/stiffness search with its stiffness probe."""

import math
import warnings

import numpy as np
import pytest

from pconvex import weights as W
from pconvex.convexity import field_p_psh_report, min_p_trace
from pconvex.errors import EmptyDomain, InfeasibleOnGrid, PreconditionError
from pconvex.exterior import PointForm, quadform_eigen, quadform_pinv
from pconvex.fieldexpr import compose_df, parse


# ---------------------------------------------------------------------------
# scaled squared-distance weight
# ---------------------------------------------------------------------------

class TestDiameterWeight:

    def test_hessian_is_constant_multiple_of_identity(self):
        psi = W.diameter_weight(2, 1.5, [0.5, -1.0, 2.0])
        rng = np.random.default_rng(2)
        for x in rng.uniform(-2, 2, size=(10, 3)):
            jet = psi.eval_jet2(x)
            assert np.allclose(jet.hess, (2 / 1.5**2) * np.eye(3), atol=1e-13)
            assert np.allclose(jet.grad,
                               (2 / 1.5**2) * (x - [0.5, -1.0, 2.0]),
                               atol=1e-13)
        assert psi.value(np.array([0.5, -1.0, 2.0])) == 0.0

    @pytest.mark.parametrize("p,n,D", [(1, 2, 2.0), (2, 3, 1.5), (2, 4, 0.7)])
    def test_induced_operator_is_constant(self, p, n, D):
        psi = W.diameter_weight(p, D, np.zeros(n))
        hess = psi.eval_jet2(np.ones(n) * 0.3).hess
        spec = quadform_eigen(hess, p)
        assert np.allclose(spec.values, p * p / D**2, rtol=1e-12)
        rng = np.random.default_rng(4)
        f = PointForm(n, p, rng.standard_normal(spec.values.size))
        finv = quadform_pinv(hess, f)
        assert np.allclose(finv.coeffs, (D * D / (p * p)) * f.coeffs,
                           rtol=1e-12)

    @pytest.mark.parametrize("p,n", [(1, 2), (2, 3), (3, 3)])
    def test_exponential_transform_degenerates_exactly_at_radius(self, p, n):
        D = 1.3
        center = np.zeros(n)
        center[0] = 0.4
        psi = W.diameter_weight(p, D, center)
        rng = np.random.default_rng(9)
        u = rng.standard_normal(n)
        u *= D / np.linalg.norm(u)

        def p_trace_at(x):
            jet = psi.eval_jet2(x)
            m = math.exp(-jet.value) * (jet.hess - np.outer(jet.grad, jet.grad))
            return min_p_trace(m, p)

        assert abs(p_trace_at(center + u)) < 1e-12
        assert p_trace_at(center + 0.9 * u) > 0.0
        assert p_trace_at(center + 1.1 * u) < 0.0

    def test_full_degree_weight_is_plurisubharmonic(self):
        n = 3
        psi = W.diameter_weight(n, 2.0, np.zeros(n))
        hess = psi.eval_jet2(np.array([0.3, -1.2, 0.9])).hess
        assert min_p_trace(hess, 1) > 0.0

    def test_text_roundtrip_with_offsets(self):
        psi = W.diameter_weight(1, 2.0, [-0.75, 0.25])
        x = np.array([1.0, -2.0])
        expect = ((1.0 + 0.75) ** 2 + (-2.0 - 0.25) ** 2) / 8.0
        assert psi.value(x) == pytest.approx(expect, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            W.diameter_weight(0, 1.0, [0.0])
        with pytest.raises(ValueError):
            W.diameter_weight(1, 0.0, [0.0])
        with pytest.raises(ValueError):
            W.diameter_weight(1, -2.0, [0.0])

    @pytest.mark.parametrize("diameter", [math.inf, math.nan],
                             ids=["inf", "nan"])
    def test_non_finite_diameter_rejected(self, diameter):
        with pytest.raises(ValueError, match="positive and finite"):
            W.diameter_weight(1, diameter, [0.0])


# ---------------------------------------------------------------------------
# sampling helper
# ---------------------------------------------------------------------------

class TestLatticeSamples:

    def test_counts_match_direct_filter(self):
        r = parse("x1^2+x2^2-1", n=2)
        pts = W.lattice_samples(r, ([-1, -1], [1, 1]), per_axis=27)
        centers = (np.arange(27) + 0.5) / 27 * 2.0 - 1.0
        count = sum(1 for a in centers for b in centers if a * a + b * b < 1)
        assert pts.shape == (count, 2)
        assert count >= 500

    def test_trivial_domain_keeps_everything(self):
        r = parse("0*x1*x2-1", n=2)
        pts = W.lattice_samples(r, ([0, 0], [1, 2]), per_axis=9)
        assert pts.shape == (81, 2)
        assert pts[:, 1].max() < 2.0 and pts[:, 1].min() > 0.0

    def test_min_depth_shrinks_selection(self):
        r = parse("x1^2+x2^2-1", n=2)
        loose = W.lattice_samples(r, ([-1, -1], [1, 1]), per_axis=21)
        tight = W.lattice_samples(r, ([-1, -1], [1, 1]), per_axis=21,
                                  min_depth=0.5)
        assert 0 < tight.shape[0] < loose.shape[0]
        assert all(r.value(x) < -0.5 for x in tight)

    def test_min_depth_needs_r(self):
        box = ([-1, -1], [1, 1])
        assert W.lattice_samples(None, box, per_axis=4).shape == (16, 2)
        with pytest.raises(ValueError, match=r"^min_depth without r must be "
                           r"0; got 0\.5$"):
            W.lattice_samples(None, box, per_axis=4, min_depth=0.5)

    def test_empty_domain_raises(self):
        r = parse("x1^2+x2^2+1", n=2)
        with pytest.raises(EmptyDomain):
            W.lattice_samples(r, ([-1, -1], [1, 1]), per_axis=9)

    def test_validation(self):
        r = parse("x1^2-1", n=1)
        with pytest.raises(ValueError):
            W.lattice_samples(r, ([0.0], [0.0]), per_axis=9)
        with pytest.raises(ValueError):
            W.lattice_samples(r, ([0.0], [1.0]), per_axis=1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_domain_gives_every_cell_center(self, n):
        lo, hi = -np.arange(1.0, n + 1), np.arange(1.0, n + 1) ** 2
        pts = W.lattice_samples(None, (lo, hi), per_axis=4)
        assert pts.shape == (4 ** n, n)
        # each axis holds the four cell centers lo + (k + 1/2)(hi - lo)/4
        for i in range(n):
            centers = lo[i] + (np.arange(4) + 0.5) * (hi[i] - lo[i]) / 4
            np.testing.assert_allclose(np.unique(pts[:, i]), centers,
                                       rtol=1e-15)


# ---------------------------------------------------------------------------
# exponent/stiffness search
# ---------------------------------------------------------------------------

DISK = parse("x1^2+x2^2-1", n=2)
PHI2 = parse("x1^2+x2^2", n=2)


def disk_samples(per_axis=27):
    return W.lattice_samples(DISK, ([-1, -1], [1, 1]), per_axis=per_axis)


class TestDFSearch:

    def test_unit_disk_is_feasible(self):
        samples = disk_samples()
        res = W.df_search(DISK, PHI2, samples, 1,
                          K_grid=range(1, 21),
                          eta_grid=np.arange(0.05, 0.51, 0.05))
        assert res.feasible and res.min_p_trace_over_grid > 0.0
        assert res.feasible_pairs
        assert res.n_samples == samples.shape[0] >= 500
        assert (res.K, res.eta) in {(float(k), float(e))
                                    for k, e in res.feasible_pairs}

    def test_found_field_is_strictly_p_psh(self):
        samples = disk_samples(per_axis=17)
        res = W.df_search(DISK, PHI2, samples, 1, [1, 2, 4], [0.1, 0.3, 0.5])
        assert res.feasible
        rho = compose_df(DISK, PHI2, res.K, res.eta)
        report = field_p_psh_report(rho, samples, 1)
        assert report.verdict == "strict"

    def test_feasibility_flag_tracks_score_sign(self):
        samples = disk_samples(per_axis=13)
        res = W.df_search(DISK, PHI2, samples, 1, [2.0], [0.2])
        assert res.feasible == (res.min_p_trace_over_grid > 0.0)
        recorded = min(t for _, t in res.samples)
        assert recorded == pytest.approx(res.min_p_trace_over_grid, rel=1e-13)
        assert len(res.samples) == res.n_samples

    def test_non_psh_weight_rejected(self):
        flat = parse("x1", n=2)
        with pytest.raises(PreconditionError):
            W.df_search(DISK, flat, disk_samples(per_axis=9), 1, [1.0], [0.2])

    def test_exterior_sample_rejected(self):
        samples = np.array([[0.0, 0.0], [2.0, 0.0]])
        with pytest.raises(PreconditionError):
            W.df_search(DISK, PHI2, samples, 1, [1.0], [0.2])

    def test_exterior_sample_named_first_not_largest(self):
        # r = 0 at row 1 and r = 3 at row 2: the first bad row is named
        samples = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(PreconditionError) as exc:
            W.df_search(DISK, PHI2, samples, 1, [1.0], [0.2])
        assert str(exc.value) == ("defining function is non-negative "
                                  "(r = 0.000e+00) at x = [1.0, 0.0]")

    def test_eccentric_domain_reports_infeasible_grid(self):
        r = parse("x1^2/64+x2^2-1", n=2)
        samples = W.lattice_samples(r, ([-8, -1], [8, 1]), per_axis=31)
        with pytest.warns(InfeasibleOnGrid):
            res = W.df_search(r, PHI2, samples, 1, [0.01], [0.99])
        assert not res.feasible
        assert res.eta_max_feasible is None and res.K_min_feasible is None

    def test_normalized_score_matches_composed_hessian(self):
        # dual route: the expression tree composes and differentiates the
        # field directly; the search scores an exponential-free core.  The
        # two Hessians must agree up to the positive scalar prefactor.
        samples = disk_samples(per_axis=11)
        K, eta = 2.0, 0.3
        rho = compose_df(DISK, PHI2, K, eta)
        core, norm = W._df_core(DISK.jets(samples), PHI2.jets(samples),
                                K, eta)
        assert np.all(norm > 0.0)
        for i, x in enumerate(samples):
            jet = rho.eval_jet2(x)
            s = -DISK.value(x)
            pref = eta * s ** (eta - 2.0) * math.exp(-eta * K * PHI2.value(x))
            scale = 1.0 + np.abs(jet.hess).max()
            assert np.allclose(jet.hess, pref * core[i], atol=1e-12 * scale)

    def test_selection_is_deterministic_argmax(self):
        samples = disk_samples(per_axis=13)
        K_grid, eta_grid = [0.5, 1.0, 3.0], [0.1, 0.25, 0.4]
        res = W.df_search(DISK, PHI2, samples, 1, K_grid, eta_grid)
        rj, pj = DISK.jets(samples), PHI2.jets(samples)
        best = None
        for K in sorted(K_grid):
            for eta in sorted(eta_grid):
                core, norm = W._df_core(rj, pj, K, eta)
                eig = np.linalg.eigvalsh(core)
                score = float((eig[:, :1].sum(axis=1) / norm).min())
                if best is None or score > best[0]:
                    best = (score, K, eta)
        assert (res.K, res.eta) == (best[1], best[2])
        assert res.min_p_trace_over_grid == pytest.approx(best[0], rel=1e-13)

    def test_grid_validation(self):
        samples = disk_samples(per_axis=9)
        with pytest.raises(ValueError):
            W.df_search(DISK, PHI2, samples, 1, [], [0.2])
        with pytest.raises(ValueError):
            W.df_search(DISK, PHI2, samples, 1, [0.0], [0.2])
        with pytest.raises(ValueError):
            W.df_search(DISK, PHI2, samples, 1, [1.0], [1.0])
        with pytest.raises(ValueError):
            W.df_search(DISK, PHI2, samples, 0, [1.0], [0.2])
        with pytest.raises(ValueError, match="at least one interior sample"):
            W.df_search(DISK, PHI2, np.empty((0, 2)), 1, [1.0], [0.2])

    def test_feasible_extremes_summarize_the_feasible_pairs(self):
        samples = disk_samples(per_axis=13)
        res = W.df_search(DISK, PHI2, samples, 1, [3.0, 0.5, 1.0],
                          [0.4, 0.1, 0.25])
        assert res.feasible_pairs
        assert res.eta_max_feasible == max(e for _, e in res.feasible_pairs)
        assert res.K_min_feasible == min(k for k, _ in res.feasible_pairs)
        # the pairs are listed in the order the grid is searched
        assert list(res.feasible_pairs) == sorted(res.feasible_pairs)

    def test_recorded_samples_are_copies_of_the_rows(self):
        samples = disk_samples(per_axis=9)
        res = W.df_search(DISK, PHI2, samples, 1, [2.0], [0.2])
        kept = samples.copy()
        samples[:] = 7.0
        assert len(res.samples) == kept.shape[0]
        for (x, _), row in zip(res.samples, kept):
            np.testing.assert_array_equal(x, row)

    # a NaN stiffness used to be dropped from the search, an infinite one
    # scored NaN, and a NaN exponent passed the range check
    @pytest.mark.parametrize("K_grid, eta_grid, match", [
        ([0.5, math.nan], [0.2], "stiffness values must be finite and "
         "positive"),
        ([math.inf], [0.2], "stiffness values must be finite and positive"),
        ([-math.inf, 1.0], [0.2], "stiffness values must be finite and "
         "positive"),
        ([1.0], [0.2, math.nan], r"exponent values must lie in \(0, 1\)"),
    ], ids=["K-nan", "K-inf", "K-minus-inf", "eta-nan"])
    def test_non_finite_grid_value_rejected(self, K_grid, eta_grid, match):
        with pytest.raises(ValueError, match=match):
            W.df_search(DISK, PHI2, disk_samples(per_axis=9), 1, K_grid,
                        eta_grid)


# ---------------------------------------------------------------------------
# sufficient stiffness scales
# ---------------------------------------------------------------------------

class TestStiffnessFloor:

    def test_disk_report_values(self):
        samples = disk_samples(per_axis=21)
        rep = W.stiffness_floor(DISK, PHI2, samples, 1)
        assert rep.sigma == pytest.approx(2.0, rel=1e-12)
        assert rep.grad_floor > 0.0 and rep.hess_bound == pytest.approx(2.0)
        assert rep.K_floor > 0.0 and 0.0 < rep.eta_ceiling < 1.0
        assert rep.n_collar + rep.n_interior == samples.shape[0]
        assert rep.n_collar > 0 and rep.n_interior > 0

    def test_eccentricity_raises_floor_and_lowers_ceiling(self):
        floors, ceilings, etas = [], [], []
        for a in [1.0, 2.0, 4.0, 8.0]:
            r = parse(f"x1^2/{a * a}+x2^2-1", n=2)
            pts = W.lattice_samples(r, ([-a, -1], [a, 1]), per_axis=41)
            rep = W.stiffness_floor(r, PHI2, pts, 1)
            floors.append(rep.K_floor)
            ceilings.append(rep.eta_ceiling)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", InfeasibleOnGrid)
                res = W.df_search(r, PHI2, pts, 1,
                                  [0.25, 0.5, 1, 2, 4, 8, 16],
                                  [0.02, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8])
            etas.append(res.eta_max_feasible or 0.0)
        assert all(b > a for a, b in zip(floors, floors[1:]))
        assert all(b < a for a, b in zip(ceilings, ceilings[1:]))
        assert all(b <= a for a, b in zip(etas, etas[1:]))
        assert etas[-1] < etas[0]

    def test_preconditions(self):
        samples = disk_samples(per_axis=15)
        with pytest.raises(PreconditionError):
            W.stiffness_floor(DISK, parse("x1", n=2), samples, 1)
        with pytest.raises(PreconditionError):
            W.stiffness_floor(DISK, PHI2, np.array([[2.0, 0.0]]), 1)
        with pytest.raises(PreconditionError):
            W.stiffness_floor(DISK, PHI2, np.array([[0.0, 0.0]]), 1)
        with pytest.raises(ValueError):
            W.stiffness_floor(DISK, PHI2, samples, 0)
        with pytest.raises(ValueError, match="need at least one sample"):
            W.stiffness_floor(DISK, PHI2, np.empty((0, 2)), 1)

    def test_scales_combine_as_documented(self):
        r = parse("x1^2/4+x2^2-1", n=2)
        pts = W.lattice_samples(r, ([-2, -1], [2, 1]), per_axis=21)
        rep = W.stiffness_floor(r, PHI2, pts, 1)
        assert rep.shear == pytest.approx(rep.hess_bound / rep.grad_floor**2,
                                          rel=1e-15)
        assert rep.mixed == pytest.approx(rep.hess_bound
                                          / (2.0 * rep.grad_floor), rel=1e-15)
        sigma, g2, eps = rep.sigma, rep.phi_grad_sq, rep.collar_depth
        K = (4.0 / sigma) * (rep.shear + sigma**2 / (4.0 * g2)
                             + rep.interior_defect / eps**2
                             + 2.0 * rep.mixed**2 + sigma**2)
        assert rep.K_floor == pytest.approx(K, rel=1e-14)
        assert rep.eta_ceiling == pytest.approx(
            sigma / (2.0 * g2 * K + sigma), rel=1e-14)

    def test_outside_sample_is_named(self):
        samples = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(PreconditionError) as exc:
            W.stiffness_floor(DISK, PHI2, samples, 1)
        assert str(exc.value) == ("all samples must lie strictly inside, but "
                                  "r = 0.000e+00 at x = [1.0, 0.0]")

    def test_collar_critical_point_is_named(self):
        # r = -1/16 - (15/16)(1 - x1^2)^2 is critical at x1 = 0 (deep, not in
        # the collar) and at x1 = ±1 (depth 1/16, in the collar)
        r = parse("-0.0625-0.9375*(1-x1^2)^2", n=2)
        samples = np.array([[0.0, 0.0], [0.9, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(PreconditionError) as exc:
            W.stiffness_floor(r, PHI2, samples, 1)
        assert str(exc.value) == ("defining function has a critical point on "
                                  "the boundary collar at x = [1.0, 0.0]")


@pytest.mark.parametrize("check", [
    lambda phi, pts: W.df_search(DISK, phi, pts, 1, [1.0], [0.2]),
    lambda phi, pts: W.stiffness_floor(DISK, phi, pts, 1),
], ids=["df_search", "stiffness_floor"])
def test_search_and_probe_share_one_strictness_rule(check):
    # both name the first sample whose p-trace is at most 1e-12, where
    # convexity stops grading "strict".  D²(x1^3+x2^2) = diag(6·x1, 2):
    # the p-trace is -1.5 at row 2 and -3, the worst, at row 3.  A
    # p-trace of 2e-13 is "semi"; 1.2e-12 is strict
    rows = np.array([[0.5, 0.0], [0.99, 0.0], [-0.25, 0.0], [-0.5, 0.0]])
    lattice = disk_samples(per_axis=9)
    for phi, pts, trace, x in (
            ("x1^3+x2^2", rows, "-1.500e+00", [-0.25, 0.0]),
            ("1e-13*(x1^2+x2^2)", lattice, "2.000e-13", lattice[0].tolist())):
        with pytest.raises(PreconditionError) as exc:
            check(parse(phi, n=2), pts)
        assert str(exc.value) == ("weight field is not strictly p-psh "
                                  f"(minimal p-trace {trace}) at x = {x}")
    check(parse("6e-13*(x1^2+x2^2)", n=2), lattice)
