"""Reference values the benchmark checks pconvex's outputs against.

Nothing here imports pconvex.  Every datum the benchmark generates is the
closed 1-form ``f = d b`` of the product bump ``b(x) = prod_i beta(x_i)``
with ``beta(u) = ((u - lo)(hi - u) / w^2)^4`` on ``[lo, hi]`` and
``w = (hi - lo) / 2`` (the ``bump`` builtin of the config language).  Every
weight is a sum of per-axis quadratics and every comparison operator on
1-forms is a multiple of the identity, so each integral the program
approximates factors into one-dimensional integrals.  Those are taken with
Gauss-Legendre quadrature, which is exact to rounding for a polynomial
times a Gaussian at the node counts used here.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

import numpy as np

#: Betti numbers b_0, b_1, ... of the shapes the topology workload builds.
BETTI = {
    "box": (1, 0, 0),
    "ring": (1, 1, 0),
    "torus": (1, 1, 0, 0),
}

_GL_NODES = 96

# A per-axis weight exponent: the density on axis i is exp(-e_i(u)).
Exponent = Callable[[np.ndarray], np.ndarray]


def bump(u, lo: float, hi: float) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    w = (hi - lo) / 2.0
    return (np.maximum(0.0, (u - lo) * (hi - u)) / w ** 2) ** 4


def bump_prime(u, lo: float, hi: float) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    w = (hi - lo) / 2.0
    q = np.maximum(0.0, (u - lo) * (hi - u)) / w ** 2
    inside = (u > lo) & (u < hi)
    return np.where(inside, 4.0 * q ** 3 * (lo + hi - 2.0 * u) / w ** 2, 0.0)


def quadratic(a: float, c: float = 0.0, b: float = 0.0) -> Exponent:
    """The exponent ``a (u - c)^2 + b u``."""
    return lambda u: a * (u - c) ** 2 + b * u


def gauss_legendre(fn: Callable[[np.ndarray], np.ndarray], lo: float,
                   hi: float, nodes: int = _GL_NODES) -> float:
    t, wt = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
    return float(0.5 * (hi - lo) * np.dot(wt, fn(u)))


def axis_factors(lo: float, hi: float, e: Exponent) -> Tuple[float, float]:
    """``(∫beta'^2 e^{-e}, ∫beta^2 e^{-e})`` over the bump's support."""
    grad = gauss_legendre(lambda u: bump_prime(u, lo, hi) ** 2
                          * np.exp(-e(u)), lo, hi)
    square = gauss_legendre(lambda u: bump(u, lo, hi) ** 2
                            * np.exp(-e(u)), lo, hi)
    return grad, square


def gradient_integral(lo: float, hi: float,
                      exponents: Sequence[Exponent]) -> float:
    """``∫|∇b|^2 e^{-sum_i e_i(x_i)} dx``: a sum over axes of one
    derivative factor times the other axes' plain factors."""
    factors = [axis_factors(lo, hi, e) for e in exponents]
    return sum(factors[i][0] * math.prod(f[1] for j, f in enumerate(factors)
                                         if j != i)
               for i in range(len(factors)))


def square_integral(lo: float, hi: float,
                    exponents: Sequence[Exponent]) -> float:
    """``∫b^2 e^{-sum_i e_i(x_i)} dx``."""
    return math.prod(axis_factors(lo, hi, e)[1] for e in exponents)


def comparison_rhs(lo: float, hi: float, exponents: Sequence[Exponent],
                   operator_scale: float, constant: float) -> float:
    """The right-hand side ``constant · ∫⟨F⁻¹ db, db⟩ e^{-weight}`` of a
    bound report whose comparison operator on 1-forms is
    ``operator_scale · Id``."""
    return constant * gradient_integral(lo, hi, exponents) / operator_scale


def potential_norm_sq(lo: float, hi: float, h: float,
                      exponents: Sequence[Exponent]) -> float:
    """Weighted discrete norm² of the sampled potential on the unit box.

    The vertex mass is the trapezoid weight times ``e^{-weight}``, so the
    norm factors over axes.  Since ``d`` of the sampled potential is the
    datum, it is one solution of ``du = f``, and no minimal solution has a
    larger norm in the same weight.
    """
    m = int(round(1.0 / h))
    t = np.linspace(0.0, 1.0, m + 1)
    trap = np.full(m + 1, 1.0 / m)
    trap[[0, -1]] *= 0.5
    return math.prod(float(np.sum(bump(t, lo, hi) ** 2 * np.exp(-e(t)) * trap))
                     for e in exponents)


def h2_tolerance(k: float, h: float, lo: float, hi: float) -> float:
    """Relative tolerance ``k (h / (hi - lo))^2`` for an O(h²) discretization
    of a bump of width ``hi - lo``."""
    return k * (h / (hi - lo)) ** 2
