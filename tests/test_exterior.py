"""Exterior-algebra layer: frozen hand values, oracle cross-checks, properties.

The oracle (``tests/oracles.py``) stores forms as dense antisymmetric tensors
and computes wedge/contraction/operator action by alternation — a disjoint
algorithm from the library's ranked-coefficient sign tables.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pconvex import exterior as X
from pconvex.errors import MembershipError, PreconditionError

import oracles as O


def random_case(rng, nmax=5):
    n = int(rng.integers(2, nmax + 1))
    p = int(rng.integers(1, n + 1))
    return n, p


def sym(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


# ---------------------------------------------------------------------------
# multi-index bookkeeping
# ---------------------------------------------------------------------------

def test_index_roundtrip_matches_itertools():
    import itertools
    for n in range(1, 9):
        for p in range(0, n + 1):
            combos = list(itertools.combinations(range(1, n + 1), p))
            assert list(X.index_list(n, p)) == combos
            for r, idx in enumerate(combos):
                assert X.index_rank(idx, n) == r


def test_index_rank_rejects_bad_indices():
    with pytest.raises(ValueError):
        X.index_rank((2, 1), 4)
    with pytest.raises(ValueError):
        X.index_rank((1, 1), 4)
    with pytest.raises(ValueError):
        X.index_rank((0, 1), 4)


def test_dim_and_bounds():
    assert X.dim_forms(4, 2) == 6
    with pytest.raises(ValueError):
        X.index_list(13, 1)   # n cap
    with pytest.raises(ValueError):
        X.index_list(4, 5)


# ---------------------------------------------------------------------------
# wedge / interior: frozen cases
# ---------------------------------------------------------------------------

def test_wedge_frozen_hand_cases():
    # (w1 + 2 w2) ^ (w1 ^ w3) = -2 w1^2^3  on R^3
    a = X.PointForm(3, 1, np.array([1.0, 2.0, 0.0]))
    b = X.PointForm.basis(3, (1, 3))
    out = X.wedge(a, b)
    assert out.p == 3
    np.testing.assert_allclose(out.coeffs, [-2.0])

    # w2 ^ w1 = -w1^w2
    out = X.wedge(X.PointForm.basis(2, (2,)), X.PointForm.basis(2, (1,)))
    np.testing.assert_allclose(out.coeffs, [-1.0])

    # wedging with a 0-form is scaling
    s = X.PointForm(3, 0, np.array([2.5]))
    g = X.PointForm(3, 2, np.array([1.0, -1.0, 3.0]))
    np.testing.assert_allclose(X.wedge(s, g).coeffs, 2.5 * g.coeffs)


def test_wedge_degree_overflow_raises():
    with pytest.raises(ValueError):
        X.wedge(X.PointForm.basis(2, (1, 2)), X.PointForm.basis(2, (1,)))


def test_interior_frozen_hand_cases():
    w12 = X.PointForm.basis(2, (1, 2))
    np.testing.assert_allclose(X.interior(np.array([1.0, 0.0]), w12).coeffs, [0.0, 1.0])
    np.testing.assert_allclose(X.interior(np.array([0.0, 1.0]), w12).coeffs, [-1.0, 0.0])
    with pytest.raises(ValueError):
        X.interior(np.array([1.0, 0.0]), X.PointForm(2, 0, np.array([1.0])))


def test_wedge_interior_against_oracle():
    rng = np.random.default_rng(20)
    for _ in range(300):
        n, p = random_case(rng)
        q = int(rng.integers(0, n - p + 1))
        a = rng.standard_normal(X.dim_forms(n, p))
        b = rng.standard_normal(X.dim_forms(n, q))
        got = X.wedge(X.PointForm(n, p, a), X.PointForm(n, q, b)).coeffs
        want = O.t_to_lex(n, p + q, O.t_wedge(O.t_from_lex(n, p, a), O.t_from_lex(n, q, b)))
        np.testing.assert_allclose(got, want, atol=1e-12)

        v = rng.standard_normal(n)
        got = X.interior(v, X.PointForm(n, p, a)).coeffs
        want = O.t_to_lex(n, p - 1, O.t_interior(v, O.t_from_lex(n, p, a)))
        np.testing.assert_allclose(got, want, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_contraction_wedge_adjointness(n, data):
    """<v _| g, h> = <g, v^flat ^ h> for all degrees (Euclidean pairing)."""
    p = data.draw(st.integers(1, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = X.PointForm(n, p, rng.standard_normal(X.dim_forms(n, p)))
    h = X.PointForm(n, p - 1, rng.standard_normal(X.dim_forms(n, p - 1)))
    v = rng.standard_normal(n)
    lhs = X.interior(v, g).inner(h)
    rhs = g.inner(X.wedge(X.oneform(v), h))
    assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(lhs)))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.data())
def test_wedge_graded_anticommutativity(n, data):
    p = data.draw(st.integers(0, n))
    q = data.draw(st.integers(0, n - p))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = X.PointForm(n, p, rng.standard_normal(X.dim_forms(n, p)))
    b = X.PointForm(n, q, rng.standard_normal(X.dim_forms(n, q)))
    lhs = X.wedge(a, b).coeffs
    rhs = (-1.0) ** (p * q) * X.wedge(b, a).coeffs
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_interior_is_antiderivation_squared_zero():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n, p = random_case(rng)
        if p < 2:
            continue
        g = X.PointForm(n, p, rng.standard_normal(X.dim_forms(n, p)))
        v = rng.standard_normal(n)
        twice = X.interior(v, X.interior(v, g))
        np.testing.assert_allclose(twice.coeffs, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# operator action, pairing, spectrum
# ---------------------------------------------------------------------------

def test_quadform_action_frozen_cases():
    # diagonal theta scales each basis form by the index sum of eigenvalues
    th = np.diag([1.0, 10.0, 100.0])
    for idx in X.index_list(3, 2):
        out = X.quadform_action(th, X.PointForm.basis(3, idx))
        expect = sum({1: 1.0, 2: 10.0, 3: 100.0}[i] for i in idx)
        np.testing.assert_allclose(out.coeffs,
                                   expect * X.PointForm.basis(3, idx).coeffs)
    # off-diagonal mixing on a 1-form
    th = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = X.quadform_action(th, X.PointForm.basis(2, (1,)))
    np.testing.assert_allclose(out.coeffs, [0.0, 1.0])


def test_quadform_action_against_oracle_and_self_adjoint():
    rng = np.random.default_rng(21)
    for _ in range(300):
        n, p = random_case(rng)
        th = sym(rng, n)
        a = rng.standard_normal(X.dim_forms(n, p))
        b = rng.standard_normal(X.dim_forms(n, p))
        A = X.PointForm(n, p, a)
        B = X.PointForm(n, p, b)
        got = X.quadform_action(th, A).coeffs
        want = O.t_to_lex(n, p, O.t_quadform_apply(th, O.t_from_lex(n, p, a), n))
        np.testing.assert_allclose(got, want, atol=1e-10)
        # self-adjointness
        assert X.quadform_action(th, A).inner(B) == pytest.approx(
            X.quadform_action(th, B).inner(A), abs=1e-9)


def test_pairing_quadratic_identity():
    """<A_theta g, g> computed two ways agrees to 1e-10 (dual routes)."""
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(1000):
        n, p = random_case(rng)
        th = sym(rng, n)
        g = X.PointForm(n, p, rng.standard_normal(X.dim_forms(n, p)))
        direct = X.pairing_quadratic(th, g)
        via_action = X.quadform_action(th, g).inner(g)
        worst = max(worst, abs(direct - via_action) / (1 + abs(direct)))
    assert worst <= 1e-10


def test_pairing_frozen_value():
    th = np.diag([1.0, 100.0])
    g = X.PointForm.basis(2, (1, 2))
    assert X.pairing_quadratic(th, g) == pytest.approx(101.0, abs=1e-12)


def test_quadform_matrix_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        X.quadform_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


def test_quadform_action_checks_theta_against_its_form():
    # quadform_matrix reads n from theta; the action checks it against g.n
    with pytest.raises(ValueError, match="theta is 3x3, expected 2x2"):
        X.quadform_action(np.eye(3), X.PointForm(2, 1, np.ones(2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_theta_rejected(bad):
    # a NaN used to read as "not symmetric", and an inf passed the
    # symmetry test with a RuntimeWarning
    th = np.eye(2)
    th[1, 1] = bad
    with pytest.raises(ValueError, match="theta must be finite"):
        X.quadform_matrix(th, 1)
    with pytest.raises(ValueError, match="theta must be finite"):
        X.induced_pinv(np.stack([np.eye(2), th]), np.ones((2, 2)), 1)


def test_spectrum_matches_dense_eigendecomposition():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n, p = random_case(rng)
        th = sym(rng, n)
        spec = X.quadform_eigen(th, p)
        dense = np.linalg.eigvalsh(X.quadform_matrix(th, p))
        np.testing.assert_allclose(np.sort(spec.values), dense, atol=1e-10)
        # base data really is the eigendecomposition of theta
        np.testing.assert_allclose(
            spec.base_vectors @ np.diag(spec.base_values) @ spec.base_vectors.T,
            th, atol=1e-10)


def test_spectrum_frozen_case():
    spec = X.quadform_eigen(np.diag([3.0, -1.0, 2.0]), 2)
    # ascending base eigenvalues (-1, 2, 3); pair sums 1, 2, 5
    np.testing.assert_allclose(np.sort(spec.values), [1.0, 2.0, 5.0], atol=1e-12)


# ---------------------------------------------------------------------------
# pseudo-inverse
# ---------------------------------------------------------------------------

def test_pinv_left_right_identity_on_image():
    rng = np.random.default_rng(24)
    for _ in range(200):
        n, p = random_case(rng)
        th = sym(rng, n)
        g = X.PointForm(n, p, rng.standard_normal(X.dim_forms(n, p)))
        f = X.quadform_action(th, g)
        x = X.quadform_pinv(th, f)
        np.testing.assert_allclose(X.quadform_action(th, x).coeffs, f.coeffs,
                                   atol=1e-8 * (1 + f.norm()))


def test_pinv_composition_is_identity_off_kernel():
    """pinv o action restricted to (ker)^perp is the identity to 1e-10."""
    rng = np.random.default_rng(25)
    for _ in range(100):
        n, p = random_case(rng)
        th = sym(rng, n)
        M = X.quadform_matrix(th, p)
        w, V = np.linalg.eigh(M)
        keep = np.abs(w) > 1e-8 * np.abs(w).max()
        if not keep.any():
            continue
        # a random element of the orthogonal complement of the kernel
        c = rng.standard_normal(keep.sum())
        g = X.PointForm(n, p, V[:, keep] @ c)
        x = X.quadform_pinv(th, X.quadform_action(th, g))
        np.testing.assert_allclose(x.coeffs, g.coeffs, atol=1e-10 * (1 + g.norm()))


def test_pinv_membership_error_carries_residual():
    # theta = tau x tau has image = tau ^ (...), so w2 alone is outside
    tau = np.array([1.0, 0.0])
    th = np.outer(tau, tau)
    f = X.PointForm.basis(2, (2,))
    with pytest.raises(MembershipError) as err:
        X.quadform_pinv(th, f)
    assert err.value.residual == pytest.approx(1.0, abs=1e-12)
    assert err.value.rel_residual == pytest.approx(1.0, abs=1e-12)


def test_pinv_zero_operator_rejects_nonzero_rhs():
    th = np.zeros((3, 3))
    with pytest.raises(MembershipError):
        X.quadform_pinv(th, X.PointForm.basis(3, (1,)))


# ---------------------------------------------------------------------------
# stacked induced operators
# ---------------------------------------------------------------------------

def theta_stack(rng, n, m):
    """Symmetric, rank-deficient and zero matrices, in turn."""
    a = rng.standard_normal((m, n, n))
    low = rng.standard_normal((m, n, max(n - 2, 1)))
    kinds = np.arange(m) % 3
    return np.where((kinds == 0)[:, None, None], a + a.transpose(0, 2, 1),
                    np.where((kinds == 1)[:, None, None],
                             low @ low.transpose(0, 2, 1), 0.0))


def test_stacks_match_oracle_and_one_row_calls():
    rng = np.random.default_rng(31)
    for n in range(1, 6):
        for p in range(1, n + 1):
            d, m = X.dim_forms(n, p), 12
            th = theta_stack(rng, n, m)
            G = rng.standard_normal((m, d))
            mats = X.induced_matrices(th, p)
            pair = X.induced_pairings(th, G, p)
            # right-hand sides in the image, so every row has a pinv
            F = np.einsum("iab,ib->ia", mats, G)
            inv = np.einsum("ia,ia->i", X.induced_pinv(th, F, p), F)
            for i in range(m):
                np.testing.assert_allclose(
                    mats[i], O.t_quadform_matrix(th[i], n, p), atol=1e-10)
                g = X.PointForm(n, p, G[i])
                f = X.PointForm(n, p, F[i])
                assert pair[i] == pytest.approx(
                    X.pairing_quadratic(th[i], g), rel=1e-12, abs=1e-300)
                assert inv[i] == pytest.approx(
                    X.quadform_pinv(th[i], f).inner(f), rel=1e-12, abs=1e-300)


def test_induced_matrices_match_sparse_scatter_bit_for_bit():
    # exact zeros and -0.0 included: 0.0 + (-0.0) is 0.0 in both routes
    rng = np.random.default_rng(32)
    for n in range(1, 7):
        th = theta_stack(rng, n, 30)
        th = 0.5 * (th + th.transpose(0, 2, 1))
        th[1::5] *= -1.0
        th[2::5, 0, 0] = -0.0
        for p in range(n + 1):
            got = X.induced_matrices(th, p)
            ref = O.scatter_induced_matrices(th, p)
            assert np.array_equal(got, ref), (n, p)
            assert np.array_equal(np.signbit(got), np.signbit(ref)), (n, p)


def test_stacks_check_symmetry_row_by_row():
    th = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    for call in (lambda: X.induced_matrices(th, 1),
                 lambda: X.induced_pairings(th, np.ones((2, 2)), 1),
                 lambda: X.induced_pinv(th, np.ones((2, 2)), 1)):
        with pytest.raises(ValueError, match="symmetric"):
            call()


def test_stack_membership_error_names_first_bad_row():
    # theta = e1 x e1 everywhere: a row with a dx2 part is outside the image
    m, bad = 2500, [1500, 1700]
    th = np.zeros((m, 2, 2))
    th[:, 0, 0] = 1.0
    F = np.zeros((m, 2))
    F[:, 0] = 1.0
    F[bad, 1] = [0.5, 2.0]
    with pytest.raises(MembershipError) as err:
        X.induced_pinv(th, F, 1)
    with pytest.raises(MembershipError) as one:
        X.quadform_pinv(th[bad[0]], X.PointForm(2, 1, F[bad[0]]))
    assert err.value.row == bad[0]
    assert str(err.value) == str(one.value)
    assert (err.value.residual, err.value.rel_residual) == \
        (one.value.residual, one.value.rel_residual)


# ---------------------------------------------------------------------------
# inverse bound
# ---------------------------------------------------------------------------

def test_inverse_bound_frozen_case():
    rep = X.inverse_bound_check(np.diag([1.0, 100.0]), X.PointForm.basis(2, (1, 2)))
    assert rep.lhs == pytest.approx(1.0 / 101.0, abs=1e-14)
    assert rep.rhs == pytest.approx(1.01 / 4.0, abs=1e-14)
    assert rep.ok


def test_inverse_bound_equality_for_scaled_identity():
    rng = np.random.default_rng(26)
    for _ in range(50):
        n, p = random_case(rng)
        c = float(rng.uniform(0.5, 3.0))
        g = X.PointForm(n, p, rng.standard_normal(X.dim_forms(n, p)))
        rep = X.inverse_bound_check(c * np.eye(n), g)
        assert rep.lhs == pytest.approx(rep.rhs, abs=1e-12 * (1 + abs(rep.rhs)))
        assert rep.ok


def test_inverse_bound_random_spd_battery():
    rng = np.random.default_rng(27)
    for _ in range(500):
        n, p = random_case(rng)
        a = rng.standard_normal((n, n))
        th = a @ a.T + 0.2 * np.eye(n)
        g = X.PointForm(n, p, rng.standard_normal(X.dim_forms(n, p)))
        rep = X.inverse_bound_check(th, g)
        assert rep.ok
        assert rep.slack >= -1e-12 * (1 + abs(rep.rhs))


def test_inverse_bound_requires_positive_definite():
    with pytest.raises(PreconditionError):
        X.inverse_bound_check(np.diag([1.0, 0.0]), X.PointForm.basis(2, (1,)))
    with pytest.raises(PreconditionError):
        X.inverse_bound_check(np.diag([1.0, -2.0]), X.PointForm.basis(2, (1,)))


# ---------------------------------------------------------------------------
# rank-one shift battery
# ---------------------------------------------------------------------------

def test_rank_one_operator_identity():
    """The induced operator of tau (x) tau acts as tau ^ (tau _| .)."""
    rng = np.random.default_rng(28)
    for _ in range(200):
        n, p = random_case(rng)
        tau = rng.standard_normal(n)
        g = X.PointForm(n, p, rng.standard_normal(X.dim_forms(n, p)))
        lhs = X.quadform_action(np.outer(tau, tau), g).coeffs
        rhs = X.wedge(X.oneform(tau), X.interior(tau, g)).coeffs
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_rank_one_image_check_battery():
    rng = np.random.default_rng(29)
    for _ in range(300):
        n, p = random_case(rng)
        tau = rng.standard_normal(n)
        a = rng.standard_normal((n, n))
        th = np.outer(tau, tau) + a @ a.T
        xi = X.PointForm(n, p - 1, rng.standard_normal(X.dim_forms(n, p - 1)))
        f = X.quadform_action(th, X.PointForm(n, p, rng.standard_normal(X.dim_forms(n, p))))
        rep = X.rank_one_image_check(th, tau, xi, f)
        assert rep.all_ok
        assert rep.self_value <= rep.self_bound + 1e-10 * (1 + rep.self_bound)
        assert rep.cross_value <= rep.cross_bound + 1e-10 * (1 + rep.cross_bound)


def test_rank_one_equality_in_pure_rank_one_case():
    rng = np.random.default_rng(30)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        tau = rng.standard_normal(n)
        xi_c = rng.standard_normal(n)
        xi_c -= (xi_c @ tau) * tau / (tau @ tau)      # xi orthogonal to tau
        rep = X.rank_one_image_check(np.outer(tau, tau), tau, X.PointForm(n, 1, xi_c))
        assert rep.membership_ok
        assert rep.self_value == pytest.approx(rep.self_bound, rel=1e-10, abs=1e-12)


def test_rank_one_precondition_violation_raises():
    # theta strictly below tau (x) tau in every direction
    tau = np.array([2.0, 0.0])
    th = np.diag([1.0, 1.0])  # theta - tau tau^T has eigenvalue -3
    with pytest.raises(PreconditionError):
        X.rank_one_image_check(th, tau, X.PointForm(2, 1, np.array([0.0, 1.0])))


def test_rank_one_comparison_form_must_match_the_wedge():
    # f pairs with tau ^ xi, a 2-form on R^2 here; a 1-form on R^3 is
    # rejected by name before any pseudo-inverse
    tau, xi = np.array([1.0, 0.0]), X.PointForm(2, 1, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match=r"mismatch: \(2,2\) vs \(3,1\)"):
        X.rank_one_image_check(np.eye(2), tau, xi,
                               X.PointForm(3, 1, np.ones(3)))
