"""The reference integrals against routes that do not factor them."""

import math

import numpy as np
import pytest
from scipy import integrate

import reference as ref

CASES = [
    # (lo, hi, per-axis exponents, label)
    (0.25, 0.75, [ref.quadratic(1.0)] * 2, "phi"),
    (0.1875, 0.6875, [ref.quadratic(1.0, b=-0.3)] * 2, "nonpsh tilt"),
    (0.3125, 0.8125, [lambda u, c=c: u ** 2 - 0.075 * (u - c) ** 2
                      for c in (0.41, 0.62)], "cor42 tilt"),
]


def _dblquad(fn, lo, hi):
    val, err = integrate.dblquad(lambda y, x: fn(x, y), lo, hi, lo, hi,
                                 epsabs=1e-13, epsrel=1e-11)
    return val


@pytest.mark.parametrize("lo,hi,exps,label", CASES,
                         ids=[c[3] for c in CASES])
def test_gradient_and_square_integrals_match_2d_quadrature(lo, hi, exps,
                                                           label):
    def density(x, y):
        return math.exp(-exps[0](x) - exps[1](y))

    def grad_sq(x, y):
        bx, by = ref.bump(x, lo, hi), ref.bump(y, lo, hi)
        dx, dy = ref.bump_prime(x, lo, hi), ref.bump_prime(y, lo, hi)
        return float((dx * by) ** 2 + (bx * dy) ** 2) * density(x, y)

    def sq(x, y):
        return float(ref.bump(x, lo, hi) * ref.bump(y, lo, hi)) ** 2 \
            * density(x, y)

    assert ref.gradient_integral(lo, hi, exps) == pytest.approx(
        _dblquad(grad_sq, lo, hi), rel=1e-9)
    assert ref.square_integral(lo, hi, exps) == pytest.approx(
        _dblquad(sq, lo, hi), rel=1e-9)


def test_bump_prime_is_the_derivative():
    u = np.linspace(0.2, 0.8, 61)
    eps = 1e-6
    fd = (ref.bump(u + eps, 0.25, 0.75) - ref.bump(u - eps, 0.25, 0.75)) \
        / (2 * eps)
    assert np.allclose(ref.bump_prime(u, 0.25, 0.75), fd, atol=1e-6)


def test_known_values():
    q = ref.quadratic(1.0)
    # Hormander rhs of the shipped ladder and the 2-D energy gradient term
    assert ref.comparison_rhs(0.25, 0.75, [q, q], 2.0, 1.0) == \
        pytest.approx(1.04975, abs=5e-6)
    assert ref.gradient_integral(0.3, 0.7, [q, q]) == \
        pytest.approx(2.10493, abs=5e-6)


@pytest.mark.parametrize("h", [1 / 8, 1 / 32])
def test_potential_norm_matches_grid_sum(h):
    lo, hi, k = 0.21875, 0.71875, 30.0
    m = round(1 / h)
    t = np.linspace(0.0, 1.0, m + 1)
    X, Y = np.meshgrid(t, t, indexing="ij")
    w = np.full(m + 1, h)
    w[[0, -1]] = h / 2
    pot = ref.bump(X, lo, hi) * ref.bump(Y, lo, hi)
    direct = float(np.sum(pot ** 2 * np.exp(-k * (X ** 2 + Y ** 2))
                          * np.outer(w, w)))
    assert ref.potential_norm_sq(lo, hi, h, [ref.quadratic(k)] * 2) == \
        pytest.approx(direct, rel=1e-12)


def test_h2_tolerance_scales_like_h_squared():
    assert ref.h2_tolerance(40, 1 / 64, 0.25, 0.75) * 4 == pytest.approx(
        ref.h2_tolerance(40, 1 / 32, 0.25, 0.75))
