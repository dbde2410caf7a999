"""Weight constructions: ramps, hinges, shell convexification, tail growth,
the scaled squared-distance weight, and the exponent/stiffness search."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from pconvex import weights as W
from pconvex.convexity import field_p_psh_report, min_p_trace
from pconvex.errors import EmptyDomain, InfeasibleOnGrid, PreconditionError
from pconvex.exterior import PointForm, quadform_eigen, quadform_pinv
from pconvex.fieldexpr import compose_df, parse

import oracles as O


def ramp_example():
    return W.SmoothRamp([0.0, 1.0, 2.5, 4.0], [1.0, 1.0, 3.0, 7.5], anchor=2.0)


# ---------------------------------------------------------------------------
# SmoothRamp calculus
# ---------------------------------------------------------------------------

class TestSmoothRamp:

    def test_first_derivative_matches_value_differences(self):
        m = ramp_example()
        h = 1e-6
        for t in np.linspace(-1.0, 5.0, 163):
            fd = (m.jets(t + h)[0] - m.jets(t - h)[0]) / (2 * h)
            assert abs(m.jets(t)[1] - fd) < 5e-9 * (1 + abs(m.jets(t)[1]))

    def test_second_derivative_matches_slope_differences(self):
        m = ramp_example()
        h = 1e-6
        for t in np.linspace(-1.0, 5.0, 163):
            if np.min(np.abs(m.knots - t)) <= 2 * h:
                continue        # d2 kinks at knots; central diff straddles
            fd = (m.jets(t + h)[1] - m.jets(t - h)[1]) / (2 * h)
            assert abs(m.jets(t)[2] - fd) < 1e-6 * (1 + abs(m.jets(t)[2]))

    def test_continuity_at_knots(self):
        m = ramp_example()
        eps = 1e-9
        for k in m.knots:
            assert abs(m.jets(k + eps)[0] - m.jets(k - eps)[0]) < 1e-7
            assert abs(m.jets(k + eps)[1] - m.jets(k - eps)[1]) < 1e-7
            # the smoothstep interpolation parks the curvature at zero
            # on every knot, so d2 is continuous there too
            assert m.jets(float(k))[2] == 0.0
            assert abs(m.jets(k + eps)[2]) < 1e-7 and abs(m.jets(k - eps)[2]) < 1e-7

    def test_linear_extensions_and_anchor(self):
        m = ramp_example()
        assert m.jets(0.0)[0] == 2.0                      # anchor at first knot
        assert m.jets(-2.0)[0] == 2.0 + 1.0 * (-2.0)      # left: slope levels[0]
        assert m.jets(-2.0)[2] == 0.0 and m.jets(9.0)[2] == 0.0
        assert m.jets(-2.0)[1] == 1.0 and m.jets(9.0)[1] == 7.5
        span = m.jets(4.0)[0]
        assert m.jets(6.0)[0] == pytest.approx(span + 7.5 * 2.0, rel=1e-14)

    def test_piece_increment_is_trapezoid_of_levels(self):
        m = ramp_example()
        k, l = m.knots, m.levels
        for i in range(k.size - 1):
            inc = m.jets(float(k[i + 1]))[0] - m.jets(float(k[i]))[0]
            assert inc == pytest.approx(
                (k[i + 1] - k[i]) * (l[i] + l[i + 1]) / 2.0, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            W.SmoothRamp([0.0], [1.0])
        with pytest.raises(ValueError):
            W.SmoothRamp([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            W.SmoothRamp([0.0, 1.0], [2.0, 1.0])        # decreasing slope
        with pytest.raises(ValueError):
            W.SmoothRamp([0.0, 1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            W.SmoothRamp([0.0, np.inf], [1.0, 1.0])

    @given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=6, unique=True),
           st.lists(st.floats(0.0, 4.0), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_random_ramps_are_convex(self, raw_knots, raw_steps):
        knots = np.sort(np.asarray(raw_knots))
        if np.diff(knots).min() < 1e-3:
            return
        levels = np.cumsum(raw_steps[:knots.size])
        m = W.SmoothRamp(knots, levels)
        ts = m.check_points()
        assert all(m.jets(float(t))[2] >= 0.0 for t in ts)
        d1s = [m.jets(float(t))[1] for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(d1s, d1s[1:]))
        # on an array the maps act elementwise; numpy's vectorized power may
        # round its last bit differently from the scalar one
        for fmap in (m, W.IdentityPlus(W.CubicHinge(1.0 + levels[0]))):
            for k in range(3):
                batch = fmap.jets(ts)[k]
                single = np.array([fmap.jets(float(t))[k] for t in ts])
                eps = 4 * np.finfo(float).eps
                np.testing.assert_allclose(
                    batch, single, rtol=eps,
                    atol=eps * (1.0 + np.abs(single).max()))


# ---------------------------------------------------------------------------
# cubic hinge family
# ---------------------------------------------------------------------------

class TestCubicHinge:

    def test_vanishes_left_of_zero(self):
        m = W.CubicHinge(5.0)
        assert m.jets(-2.0)[0] == 0.0
        assert m.jets(-2.0)[1] == 0.0 and m.jets(-2.0)[2] == 0.0

    def test_unit_values_increase_with_strength(self):
        assert W.CubicHinge(2.0).jets(1.0)[0] == 2.0
        vals = [W.CubicHinge(float(s)).jets(1.0)[0] for s in range(1, 9)]
        assert vals == [float(s) for s in range(1, 9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_curvature_closed_form_and_continuity(self):
        m = W.CubicHinge(3.0)
        for t in np.linspace(0.0, 4.0, 41):
            assert m.jets(float(t))[2] == pytest.approx(6 * 3.0 * t, abs=1e-14)
        assert m.jets(1e-9)[2] < 2e-8 and m.jets(-1e-9)[2] == 0.0

    def test_family_monotone_pointwise(self):
        grid = np.linspace(-3.0, 3.0, 121)
        for s in range(1, 6):
            lo, hi = W.CubicHinge(float(s)), W.CubicHinge(float(s + 1))
            assert all(lo.jets(float(t))[0] <= hi.jets(float(t))[0] for t in grid)

    def test_second_difference_convexity(self):
        m = W.CubicHinge(2.0)
        h = 1e-3
        for t in np.linspace(-2.0, 4.0, 301):
            second = m.jets(t + h)[0] - 2 * m.jets(t)[0] + m.jets(t - h)[0]
            assert second >= -1e-12

    def test_strength_validation(self):
        with pytest.raises(ValueError):
            W.CubicHinge(0.5)


# ---------------------------------------------------------------------------
# composition chain rule
# ---------------------------------------------------------------------------

class TestPiecewiseWeight:

    def test_chain_rule_matches_closed_form(self):
        # hinge on a quadratic base: every factor has an exact closed form
        base = parse("x1^2+x2^2-1", n=2)
        w = W.PiecewiseWeight(base, (W.CubicHinge(2.0),))
        rng = np.random.default_rng(7)
        for _ in range(40):
            x = rng.uniform(-1.8, 1.8, size=2)
            t = x @ x - 1.0
            jet = w.eval_jet2(x)
            hinge_d1 = 6.0 * max(t, 0.0) ** 2
            hinge_d2 = 12.0 * max(t, 0.0)
            expect_h = hinge_d1 * 2.0 * np.eye(2) + hinge_d2 * np.outer(2 * x, 2 * x)
            assert np.allclose(jet.hess, expect_h, atol=1e-10)
            assert np.allclose(jet.grad, hinge_d1 * 2 * x, atol=1e-12)
            assert jet.value == pytest.approx(2.0 * max(t, 0.0) ** 3, abs=1e-13)

    def test_chain_rule_matches_finite_differences(self):
        base = parse("exp(0.3*x1)+x2^2+0.25*x1*x2", n=2)
        ramp = W.SmoothRamp([0.0, 2.0, 5.0], [1.0, 2.0, 2.0])
        w = W.PiecewiseWeight(base, (ramp, W.IdentityPlus(W.CubicHinge(1.0)),))
        rng = np.random.default_rng(3)
        for _ in range(12):
            x = rng.uniform(-1.0, 1.5, size=2)
            jet = w.eval_jet2(x)
            val, grad, hess = O.fd_jet(lambda y: w.value(y), x)
            scale = 1.0 + abs(jet.value)
            assert abs(jet.value - val) == 0.0
            assert np.allclose(jet.grad, grad, atol=1e-6 * scale)
            assert np.allclose(jet.hess, hess, atol=2e-4 * scale)

    def test_modifiers_apply_innermost_first(self):
        base = parse("x1", n=1)
        hinge, ramp = W.CubicHinge(1.0), W.SmoothRamp([0.0, 10.0], [2.0, 2.0])
        w = W.PiecewiseWeight(base, (hinge, ramp))
        x = np.array([2.0])
        assert w.value(x) == pytest.approx(ramp.jets(hinge.jets(2.0)[0])[0], rel=1e-15)
        assert w.value(x) != pytest.approx(hinge.jets(ramp.jets(2.0)[0])[0], rel=1e-3)

    def test_value_agrees_with_jet_value(self):
        base = parse("x1^2+0.5*x2^2", n=2)
        w = W.PiecewiseWeight(base, (W.CubicHinge(1.5),))
        for x in np.random.default_rng(0).uniform(-2, 2, size=(10, 2)):
            assert w.value(x) == w.eval_jet2(x).value

    def test_one_jets_call_per_modifier(self):
        calls = []

        class Counted(W.CubicHinge):
            def jets(self, t):
                calls.append(self)
                return super().jets(t)

        mods = (Counted(1.0), Counted(2.0))
        w = W.PiecewiseWeight(parse("x1^2+x2^2", n=2), mods)
        X = np.random.default_rng(1).uniform(-1.0, 1.0, size=(7, 2))
        for order in (0, 2):
            calls.clear()
            w.jets(X, order)
            assert calls == list(mods)

    def test_concave_modifier_rejected(self):
        class Concave(W.ScalarMap):
            def jets(self, t):
                return -t * t, -2.0 * t, -2.0

        base = parse("x1^2", n=1)
        with pytest.raises(PreconditionError):
            W.PiecewiseWeight(base, (Concave(),))


# ---------------------------------------------------------------------------
# shell-by-shell convexification
# ---------------------------------------------------------------------------

BALL2 = parse("x1^2+x2^2-4", n=2)
PHI2 = parse("x1^2+x2^2", n=2)


class TestConvexify:

    def test_zero_defect_keeps_weight(self):
        samples = W.lattice_samples(BALL2, ([-2, -2], [2, 2]), per_axis=15)
        out = W.convexify(PHI2, 0.0, 1, [0.0, 2.0, 4.0], samples)
        ramp = out.modifiers[-1]
        assert np.all(ramp.levels == 1.0)
        for x in samples[::7]:
            assert out.value(x) == pytest.approx(PHI2.value(x), abs=1e-12)
            assert ramp.jets(PHI2.value(x))[1] == 1.0

    def test_constant_defect_on_ball(self):
        # base Hessian 2*Id has minimal 1-trace 2, so slope must clear
        # 1*3/2 = 1.5 on every shell; with the 10% margin that is 1.65
        samples = W.lattice_samples(BALL2, ([-2, -2], [2, 2]), per_axis=21)
        out = W.convexify(PHI2, -3.0, 1, [0.0, 1.0, 2.0, 3.0, 4.0], samples)
        ramp = out.modifiers[-1]
        assert np.allclose(ramp.levels, 1.65, rtol=1e-12)
        assert all(ramp.jets(float(t))[1] > 1.5 for t in np.linspace(0.0, 4.0, 81))
        for x in samples:
            assert min_p_trace(out.eval_jet2(x).hess, 1) - 3.0 > 0.0

    def test_growing_defect_grows_slope(self):
        r3 = parse("x1^2+x2^2-9", n=2)
        samples = W.lattice_samples(r3, ([-3, -3], [3, 3]), per_axis=25)
        omega = parse("0-(x1^2+x2^2)", n=2)
        out = W.convexify(PHI2, omega, 1, list(np.arange(10.0)), samples)
        levels = out.modifiers[-1].levels
        assert np.all(np.diff(levels) >= 0.0)
        assert levels[-1] > 3.0 * levels[0]
        for x in samples[::11]:
            trace = min_p_trace(out.eval_jet2(x).hess, 1)
            assert trace - (x @ x) > 0.0

    def test_composed_hessian_matches_chain_rule(self):
        samples = W.lattice_samples(BALL2, ([-2, -2], [2, 2]), per_axis=15)
        out = W.convexify(PHI2, -2.0, 1, [0.0, 2.0, 4.0], samples)
        ramp = out.modifiers[-1]
        rng = np.random.default_rng(21)
        for _ in range(25):
            x = rng.uniform(-1.9, 1.9, size=2)
            base = PHI2.eval_jet2(x)
            expect = (ramp.jets(base.value)[1] * base.hess
                      + ramp.jets(base.value)[2] * np.outer(base.grad, base.grad))
            assert np.allclose(out.eval_jet2(x).hess, expect, atol=1e-10)

    def test_non_psh_base_raises(self):
        saddle = parse("x1^2-x2^2", n=2)
        samples = W.lattice_samples(BALL2, ([-2, -2], [2, 2]), per_axis=9)
        with pytest.raises(PreconditionError):
            W.convexify(saddle, 0.0, 1, [-4.0, 0.0, 4.0], samples)

    def test_non_psh_base_names_the_first_sample(self):
        # D²phi = diag(2 - 6·x1, 2): minimal 1-trace -1 at row 1, -4 at row 2
        phi = parse("x1^2+x2^2-x1^3", n=2)
        samples = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        with pytest.raises(PreconditionError) as exc:
            W.convexify(phi, 0.0, 1, [-1.0, 1.0], samples)
        assert str(exc.value) == ("base field is not strictly p-psh (minimal "
                                  "p-trace -1.000e+00) at x = [0.5, 0.0]")

    def test_failed_verification_names_the_first_sample(self):
        # a base whose Hessian changes after its first evaluation: 2·Id at
        # the p-psh check, diag(2 - 4·x1, 2) at the verification, which
        # fails at rows 1 (p-trace -2) and 2 (p-trace -6)
        class Drifting:
            calls = 0

            def jets(self, X, order=2):
                v = (X * X).sum(axis=1)
                if not order:
                    return v
                self.calls += 1
                h = np.zeros((len(X), 2, 2))
                h[:, 0, 0] = 2.0 - (4.0 * X[:, 0] if self.calls > 1 else 0.0)
                h[:, 1, 1] = 2.0
                return v, 2.0 * X, h

        samples = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(RuntimeError) as exc:
            W.convexify(Drifting(), 0.0, 1, [-1.0, 5.0], samples)
        assert str(exc.value) == ("convexification failed verification: "
                                  "p-trace -2 + omega 0 <= 0 at x = [1.0, 0.0]")

    def test_first_shell_exemption(self):
        # hinge-flattened base: identically zero inside the unit disk, so it
        # is p-psh only outside a compact set
        base = W.PiecewiseWeight(parse("x1^2+x2^2-1", n=2), (W.CubicHinge(1.0),))
        samples = W.lattice_samples(BALL2, ([-2, -2], [2, 2]), per_axis=21)
        sublevels = [0.0, 1.0, 8.0, 27.0]
        with pytest.raises(PreconditionError):
            W.convexify(base, -1.0, 1, sublevels, samples)
        out = W.convexify(base, -1.0, 1, sublevels, samples,
                          exempt_first_shell=True)
        for x in samples:
            if base.value(x) >= sublevels[1]:
                assert min_p_trace(out.eval_jet2(x).hess, 1) - 1.0 > 0.0

    def test_validation(self):
        samples = np.array([[0.0, 0.0]])
        with pytest.raises(ValueError):
            W.convexify(PHI2, 0.0, 0, [0.0, 1.0], samples)
        with pytest.raises(ValueError):
            W.convexify(PHI2, 0.0, 1, [0.0], samples)
        with pytest.raises(ValueError):
            W.convexify(PHI2, 0.0, 1, [1.0, 0.0], samples)
        with pytest.raises(ValueError):
            W.convexify(PHI2, 0.0, 1, [0.0, 1.0], np.empty((0, 2)))


# ---------------------------------------------------------------------------
# tail integrability
# ---------------------------------------------------------------------------

class TestIntegrabilityModifier:

    def test_zero_tail_is_identity(self):
        phi = parse("x1^2", n=1)
        for tail in ([], [0.0, 0.0, 0.0]):
            out = W.integrability_modifier(phi, 0.0, tail)
            for x in np.linspace(-3.0, 3.0, 31):
                assert out.value(np.array([x])) == phi.value(np.array([x]))

    def test_cutoff_above_range_is_identity(self):
        phi = parse("x1^2+x2^2", n=2)
        out = W.integrability_modifier(phi, 100.0, [1e6, 1e9])
        rng = np.random.default_rng(5)
        for x in rng.uniform(-3, 3, size=(20, 2)):
            assert out.value(x) == phi.value(x)

    def test_exponential_tail_growth(self):
        # 1-d profile x^2 with mass density e^{2|x|}: per-sublevel masses
        # from quadrature, then the grown weight must beat each of them
        phi = parse("x1^2", n=1)
        tails = [quad(lambda x: math.exp(2 * abs(x)),
                      -math.sqrt(v + 1.0), math.sqrt(v + 1.0))[0]
                 for v in range(1, 5)]
        assert np.allclose(
            tails, [math.exp(2 * math.sqrt(v + 1)) - 1 for v in range(1, 5)],
            rtol=1e-9)
        out = W.integrability_modifier(phi, 0.0, tails)
        gamma = out.modifiers[-1].inner
        for v in range(1, 5):
            assert gamma.jets(float(v))[0] > v + math.log(tails[v - 1])
        assert gamma.jets(0.0)[0] == 0.0

    def test_reweighted_shell_masses_decay(self):
        phi = parse("x1^2", n=1)
        tails = [quad(lambda x: math.exp(2 * abs(x)),
                      -math.sqrt(v + 1.0), math.sqrt(v + 1.0))[0]
                 for v in range(1, 5)]
        out = W.integrability_modifier(phi, 0.0, tails)
        for v in range(1, 5):
            mass = 2 * quad(
                lambda x: math.exp(-out.value(np.array([x])) + 2 * x),
                math.sqrt(float(v)), math.sqrt(v + 1.0))[0]
            assert mass < math.exp(-float(v))

    def test_untouched_below_cutoff(self):
        phi = parse("x1^2", n=1)
        out = W.integrability_modifier(phi, 2.0, [math.e ** 4, math.e ** 7])
        gamma = out.modifiers[-1].inner
        assert all(gamma.jets(t)[0] == 0.0 for t in [-3.0, 0.0, 1.99, 2.0])
        for x in [0.3, -1.0, 1.4]:
            assert out.value(np.array([x])) == phi.value(np.array([x]))

    def test_extra_weight_monotone_in_base(self):
        phi = parse("x1^2", n=1)
        out = W.integrability_modifier(phi, 1.0, [10.0, 200.0, 4000.0])
        gaps = [out.value(np.array([x])) - phi.value(np.array([x]))
                for x in np.linspace(0.0, 3.0, 50)]
        assert all(b >= a - 1e-15 for a, b in zip(gaps, gaps[1:]))

    def test_validation(self):
        phi = parse("x1^2", n=1)
        with pytest.raises(ValueError):
            W.integrability_modifier(phi, 0.0, [[1.0]])
        with pytest.raises(ValueError):
            W.integrability_modifier(phi, 0.0, [-1.0])
        with pytest.raises(ValueError):
            W.integrability_modifier(phi, 0.0, [np.inf])


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


# ---------------------------------------------------------------------------
# exponent/stiffness search
# ---------------------------------------------------------------------------

DISK = parse("x1^2+x2^2-1", n=2)


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
            W.stiffness_floor(DISK, PHI2, samples, 1, collar_fraction=0.0)
        with pytest.raises(ValueError):
            W.stiffness_floor(DISK, PHI2, samples, 0)

    def test_outside_sample_is_named(self):
        samples = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(PreconditionError) as exc:
            W.stiffness_floor(DISK, PHI2, samples, 1)
        assert str(exc.value) == ("all samples must lie strictly inside, but "
                                  "r = 0.000e+00 at x = [1.0, 0.0]")

    def test_non_psh_weight_names_the_first_sample(self):
        # D²phi = diag(6·x1, 2): the p-trace is -1.5 at row 2 and -3 at
        # row 3; the first, not the worst, is named
        samples = np.array([[0.5, 0.0], [0.99, 0.0], [-0.25, 0.0],
                            [-0.5, 0.0]])
        with pytest.raises(PreconditionError) as exc:
            W.stiffness_floor(DISK, parse("x1^3+x2^2", n=2), samples, 1)
        assert str(exc.value) == ("weight field is not strictly p-psh "
                                  "(minimal p-trace -1.500e+00) at "
                                  "x = [-0.25, 0.0]")

    def test_collar_critical_point_is_named(self):
        # r = -1/16 - (15/16)(1 - x1^2)^2 is critical at x1 = 0 (deep, not in
        # the collar) and at x1 = ±1 (depth 1/16, in the collar)
        r = parse("-0.0625-0.9375*(1-x1^2)^2", n=2)
        samples = np.array([[0.0, 0.0], [0.9, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(PreconditionError) as exc:
            W.stiffness_floor(r, PHI2, samples, 1)
        assert str(exc.value) == ("defining function has a critical point on "
                                  "the boundary collar at x = [1.0, 0.0]")
