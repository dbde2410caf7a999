"""Convexity certificates: eigenvalue-sum grading and curvature-term algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pconvex import convexity as C
from pconvex import exterior as X
from pconvex.errors import DegenerateGradient
from pconvex.fieldexpr import parse

import oracles as O


def sym(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


class QuadField:
    """Quadratic field x^T A x + b.x + c with exact batched jets (test
    stub); its Hessian does not vary by row, so it has leading axis 1."""

    def __init__(self, A, b=None, c=0.0):
        self.A = np.asarray(A, dtype=float)
        n = self.A.shape[0]
        self.b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
        self.c = float(c)

    def jets(self, X, order=2):
        X = np.asarray(X, dtype=float)
        S = self.A + self.A.T
        v = np.einsum("mi,ij,mj->m", X, self.A, X) + X @ self.b + self.c
        return v if not order else (v, X @ S.T + self.b, S[None])


# ---------------------------------------------------------------------------
# min_p_trace and verdicts
# ---------------------------------------------------------------------------

def test_min_p_trace_rejects_non_finite_matrices():
    # NaN used to give 0.0 here, which grades "semi"
    for bad in (np.array([[np.nan, 0.0], [0.0, 1.0]]),
                np.array([[[1.0, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]])):
        with pytest.raises(ValueError, match="theta must be finite"):
            C.min_p_trace(bad, 1)


def test_min_p_trace_rejects_asymmetric_matrices():
    # eigvalsh reads one triangle, so unchecked these would grade 1.0 and
    # -4.0: whichever triangle it read
    bad = np.array([[1.0, 5.0], [0.0, 1.0]])
    for theta in (bad, bad.T, np.stack([np.eye(2), bad, np.eye(2)])):
        with pytest.raises(ValueError, match="theta must be symmetric"):
            C.min_p_trace(theta, 1)


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_theta_symmetry_tolerance_is_per_matrix(scale):
    # asymmetry up to 1e-12 (1 + max|theta|) is rounding; twice that is
    # not, even beside a larger matrix of the same stack
    theta = scale * np.eye(2)
    theta[0, 1] = 0.5e-12 * (1.0 + scale)
    stack = np.stack([theta, 1e9 * np.eye(2)])
    assert C.min_p_trace(theta, 1) == pytest.approx(scale)
    assert C.min_p_trace(stack, 1) == pytest.approx([scale, 1e9])
    theta[0, 1] = stack[0, 0, 1] = 2e-12 * (1.0 + scale)
    for bad in (theta, stack):
        with pytest.raises(ValueError, match="theta must be symmetric"):
            C.min_p_trace(bad, 1)


def test_min_p_trace_frozen():
    th = np.diag([3.0, -1.0, 2.0])
    assert C.min_p_trace(th, 1) == pytest.approx(-1.0)
    assert C.min_p_trace(th, 2) == pytest.approx(1.0)
    assert C.min_p_trace(th, 3) == pytest.approx(4.0)


def test_min_p_trace_equals_bruteforce_over_subsets():
    import itertools

    def brute(th, p):
        w = np.linalg.eigvalsh(th)
        return min(sum(w[list(S)]) for S in itertools.combinations(range(len(w)), p))

    rng = np.random.default_rng(40)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        th = sym(rng, n)
        stack = np.stack([th, -th, sym(rng, n)])
        for p in range(1, n + 1):
            assert C.min_p_trace(th, p) == pytest.approx(brute(th, p), abs=1e-10)
            stacked = C.min_p_trace(stack, p)
            assert stacked.shape == (3,)
            assert stacked == pytest.approx([brute(m, p) for m in stack], abs=1e-10)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_p_positive_implies_p_plus_one_positive(n, seed):
    rng = np.random.default_rng(seed)
    th = sym(rng, n)
    for p in range(1, n):
        if C.min_p_trace(th, p) >= 0.0:
            assert C.min_p_trace(th, p + 1) >= -1e-12
        # the recursion that builds the next level
        w = np.linalg.eigvalsh(th)
        assert C.min_p_trace(th, p + 1) == pytest.approx(
            C.min_p_trace(th, p) + w[p], abs=1e-10)


def test_verdict_thresholds():
    # a quadratic field's Hessian is 2A at every sample
    def verdict(diagonal, p):
        field = QuadField(np.diag(diagonal) / 2.0)
        rep = C.field_p_psh_report(field, [[0.0, 0.0], [1.0, -1.0]], p)
        return rep.min_trace, rep.verdict

    assert verdict([1.0, 2.0], 1)[1] == "strict"
    assert verdict([0.0, 2.0], 1)[1] == "semi"
    assert verdict([-1.0, 2.0], 1)[1] == "fail"
    # the trace can be positive while 1-positivity fails
    assert verdict([-1.0, 5.0], 2)[1] == "strict"
    # the band edges: strict above 1e-12, semi within ±1e-12, fail below
    for value, want in ((2e-12, "strict"), (5e-13, "semi"),
                        (-5e-13, "semi"), (-2e-12, "fail")):
        assert verdict([value, 2.0], 1) == (value, want)


# ---------------------------------------------------------------------------
# sampled fields
# ---------------------------------------------------------------------------

def test_field_report_worst_sample():
    # Hessian diag(2, 2 - x1) on the line x2 = 0: fails 1-positivity once
    # x1 > 2
    phi = parse("x1^2+x2^2-x1*x2^2/2", n=2)
    pts = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([3.0, 0.0])]
    rep = C.field_p_psh_report(phi, pts, 1)
    assert rep.verdict == "fail"
    np.testing.assert_allclose(rep.points[rep.worst_index], [3.0, 0.0])
    assert rep.min_trace == pytest.approx(-1.0)
    # but 2-positivity still holds everywhere here
    rep2 = C.field_p_psh_report(phi, pts, 2)
    assert rep2.verdict == "strict"


def test_field_report_takes_constants():
    # a number is a field with zero Hessian: semi, not a TypeError
    rep = C.field_p_psh_report(2.0, [np.zeros(2), np.ones(2)], 1)
    assert rep.verdict == "semi" and rep.min_trace == 0.0
    assert rep.traces.tolist() == [0.0, 0.0]


def test_field_report_rejects_plain_callables():
    # a callable of one point has values only
    with pytest.raises(TypeError, match="no 2-jets; got function"):
        C.field_p_psh_report(lambda x: x @ x, [np.zeros(2)], 1)


# ---------------------------------------------------------------------------
# boundary convexity
# ---------------------------------------------------------------------------

def test_boundary_sphere_strictly_convex_every_degree():
    r = QuadField(np.eye(3), c=-1.0)             # |x|^2 - 1
    rng = np.random.default_rng(42)
    pts = rng.standard_normal((20, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    for p in (1, 2):
        rep = C.boundary_p_convexity(r, pts, p)
        assert rep.verdict == "strict"
        assert rep.min_trace == pytest.approx(2.0 * p, abs=1e-9)


def test_boundary_hyperboloid_is_2_but_not_1_convex():
    # r = x1^2 + x2^2 - x3^2 - 1; at (1,0,0) tangential Hessian = diag(2,-2)
    r = QuadField(np.diag([1.0, 1.0, -1.0]), c=-1.0)
    pts = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    rep1 = C.boundary_p_convexity(r, pts, 1)
    assert rep1.verdict == "fail"
    assert rep1.min_trace == pytest.approx(-2.0, abs=1e-9)
    rep2 = C.boundary_p_convexity(r, pts, 2)
    assert rep2.verdict == "semi"
    assert rep2.min_trace == pytest.approx(0.0, abs=1e-9)


def test_boundary_degenerate_gradient_raises():
    r = QuadField(np.eye(2))                     # grad vanishes at the origin
    with pytest.raises(DegenerateGradient, match="1.0e-08"):
        C.boundary_p_convexity(r, [np.zeros(2)], 1)


def test_boundary_degenerate_gradient_names_the_first_sample():
    # |grad r| = 2|x|: 2e-9 at row 1, 0 at row 2; row 1 is named
    r = QuadField(np.eye(2))
    pts = [np.array([1.0, 0.0]), np.array([0.0, 1e-9]), np.zeros(2)]
    with pytest.raises(DegenerateGradient) as exc:
        C.boundary_p_convexity(r, pts, 1)
    assert str(exc.value) == \
        "|grad r| = 2.000e-09 <= 1.0e-08 on the boundary at x = [0.0, 1e-09]"


def test_boundary_degree_cap():
    r = QuadField(np.eye(2), c=-1.0)
    with pytest.raises(ValueError):
        C.boundary_p_convexity(r, [np.array([1.0, 0.0])], 2)


# ---------------------------------------------------------------------------
# swap 2-forms and curvature term
# ---------------------------------------------------------------------------

def oracle_swap_two_forms(n, p, coeffs):
    """Independent dense-tensor assembly of the swap 2-forms."""
    import itertools
    T = O.t_from_lex(n, p, coeffs)
    rows = []
    for I in itertools.combinations(range(1, n + 1), p):
        Xi = np.zeros((n, n))
        for a in range(p):
            for i in range(1, n + 1):
                seq = list(I)
                seq[a] = i
                if len(set(seq)) != p:
                    continue
                coeff = T[tuple(s - 1 for s in seq)]
                Xi[i - 1, I[a] - 1] += coeff
                Xi[I[a] - 1, i - 1] -= coeff
        rows.append(O.t_to_lex(n, 2, Xi))
    return np.array(rows)


def test_swap_two_forms_frozen_hand_case():
    g = X.PointForm(2, 1, np.array([1.0, 0.0]))     # g = w1
    xis = C.index_swap_two_forms(g)
    np.testing.assert_allclose(xis, [[0.0], [1.0]])  # xi_1 = 0, xi_2 = w1^w2


def test_swap_two_forms_against_oracle():
    rng = np.random.default_rng(43)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, n + 1))
        coeffs = rng.standard_normal(X.dim_forms(n, p))
        got = C.index_swap_two_forms(X.PointForm(n, p, coeffs))
        want = oracle_swap_two_forms(n, p, coeffs)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_identity_operator_gives_signature_count_times_norm():
    rng = np.random.default_rng(44)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, n + 1))
        g = X.PointForm(n, p, rng.standard_normal(X.dim_forms(n, p)))
        term = C.curvature_bounds_check(np.eye(X.dim_forms(n, 2)), g).term
        assert term == pytest.approx(p * (n - p) * g.inner(g), rel=1e-12, abs=1e-12)
    # a non-finite R is named as such, before the symmetry test, with no
    # RuntimeWarning on the way
    g = X.PointForm(3, 1, np.array([1.0, 2.0, 3.0]))
    nan_entry = np.eye(3)
    nan_entry[0, 0] = np.nan
    for bad in (nan_entry, np.diag([np.inf, 1.0, 1.0])):
        with pytest.raises(ValueError, match="R must be finite"):
            C.curvature_bounds_check(bad, g)


def test_curvature_bounds_random_battery():
    rng = np.random.default_rng(45)
    for _ in range(500):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, n + 1))
        m = X.dim_forms(n, 2)
        R = sym(rng, m)
        g = X.PointForm(n, p, rng.standard_normal(X.dim_forms(n, p)))
        rep = C.curvature_bounds_check(R, g)
        assert rep.ok
        assert rep.count == p * (n - p)


def test_curvature_bounds_equality_for_scaled_identity():
    rng = np.random.default_rng(46)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, n + 1))
        c = float(rng.uniform(-2.0, 2.0))
        g = X.PointForm(n, p, rng.standard_normal(X.dim_forms(n, p)))
        rep = C.curvature_bounds_check(c * np.eye(X.dim_forms(n, 2)), g)
        assert rep.term == pytest.approx(rep.lower, rel=1e-10, abs=1e-10)
        assert rep.term == pytest.approx(rep.upper, rel=1e-10, abs=1e-10)


def test_signature_count_all_small_cases():
    for n in range(2, 9):
        for p in range(1, n + 1):
            assert C.signature_count(n, p) == p * (n - p)


# ---------------------------------------------------------------------------
# input checks: those of exterior's one matrix rule (shape, then
# finiteness, then symmetry), then the degree
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta, p, match", [
    (np.ones((2, 3)), 1, "theta must be square"),
    (np.ones(3), 1, "theta must be square"),
    (np.eye(2), 0, r"p must be in \[1, 2\], got 0"),
    (np.eye(2), 3, r"p must be in \[1, 2\], got 3"),
    (np.diag([-np.inf, 1.0]), 1, "theta must be finite"),
    (np.diag([np.nan, 1.0]), 3, "theta must be finite"),
    (np.array([[1.0, np.nan], [0.0, 1.0]]), 1, "theta must be finite"),
    (np.array([[1.0, 5.0], [0.0, 1.0]]), 3, "theta must be symmetric"),
], ids=["rectangular", "vector", "p-zero", "p-above-n",
        "minus-inf", "nan-before-p", "nan-before-symmetry",
        "asymmetric-before-p"])
def test_theta_checks(theta, p, match):
    with pytest.raises(ValueError, match=match):
        C.min_p_trace(theta, p)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_full_degree_p_trace_is_the_trace(n):
    th = sym(np.random.default_rng(60 + n), n)
    assert C.min_p_trace(th, n) == pytest.approx(np.trace(th), abs=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_stacked_p_traces_match_one_by_one(p):
    rng = np.random.default_rng(70 + p)
    stack = np.stack([sym(rng, 3) for _ in range(6)])
    one_by_one = [C.min_p_trace(th, p) for th in stack]
    np.testing.assert_allclose(C.min_p_trace(stack, p), one_by_one,
                               rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("R, match", [
    (np.full((3, 2), np.nan), r"R must be square, got shape \(3, 2\)"),
    (np.full((2, 2), np.nan), "R is 2x2, expected 3x3"),
    (np.array([[1.0, np.inf, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
     "R must be finite"),
    (np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
     "R must be symmetric"),
], ids=["not-square", "wrong-size", "non-finite", "asymmetric"])
def test_R_checks(R, match):
    g = X.PointForm(3, 1, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match=match):
        C.curvature_bounds_check(R, g)


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_R_symmetry_tolerance_scales_with_its_size(scale):
    # asymmetry up to 1e-12 (1 + max|R|) is rounding; twice that is not
    g = X.PointForm(3, 2, np.array([1.0, -1.0, 0.5]))
    R = scale * np.eye(3)
    R[0, 1] = 0.5e-12 * (1.0 + scale)
    C.curvature_bounds_check(R, g)
    R[0, 1] = 2e-12 * (1.0 + scale)
    with pytest.raises(ValueError, match="R must be symmetric"):
        C.curvature_bounds_check(R, g)


def test_swap_two_forms_need_two_dimensions():
    with pytest.raises(ValueError, match="need n >= 2"):
        C.index_swap_two_forms(X.PointForm(1, 1, np.array([1.0])))


@pytest.mark.parametrize("p", [0, 5])
def test_signature_count_rejects_degree_out_of_range(p):
    with pytest.raises(ValueError, match=r"p must be in \[1, 4\]"):
        C.signature_count(4, p)


@pytest.mark.parametrize("report", [C.field_p_psh_report,
                                    C.boundary_p_convexity],
                         ids=["field", "boundary"])
def test_reports_need_a_sample(report):
    # an empty list becomes one row of no columns under np.atleast_2d; it
    # used to slip past the row count to a broadcast or degree error
    with pytest.raises(ValueError, match="need at least one"):
        report(QuadField(np.eye(2), c=-1.0), [], 1)
