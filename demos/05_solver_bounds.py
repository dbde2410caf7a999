"""Minimal solutions of d u = f and the weighted estimates they satisfy.

A closed cochain built from a potential is solved minimally in a convex
weight, then measured against the full family of bounds: the baseline
(constant 1), the two-weight route with its closed-form second weight,
the minimal-solution estimate with a test function, its composite
restatement, and the variant tolerating a non-plurisubharmonic tilt.
"""

import math

import numpy as np

from pconvex import (GridDomain, berndtsson_report, build_complex,
                     closed_form_from_potential, composite_minimal_estimate,
                     diameter_weight, hormander_report,
                     minimal_estimate_report, minimal_solution,
                     nonpsh_report, parse)


def bump(u, a, b):
    width = (b - a) / 2.0
    return (max(0.0, (u - a) * (b - u)) / width ** 2) ** 4


def pot(x):
    return bump(x[0], 0.25, 0.75) * bump(x[1], 0.25, 0.75)


def main():
    phi = parse("x1^2+x2^2", n=2)
    cx = build_complex(GridDomain(((0.0, 1.0), (0.0, 1.0)), 1 / 32))
    f = closed_form_from_potential(cx, 1, [pot])

    print("== the solve itself ==")
    sol = minimal_solution(cx, f, phi)
    print(f"   {cx.num_cells(1)} edges; solved by {sol.method} in "
          f"{sol.iterations} iterations, coboundary residual "
          f"{sol.residual:.2e}")

    print("\n== one table, five estimates ==")
    dia = math.sqrt(2.0)
    psi_d = diameter_weight(1, dia, (0.5, 0.5))
    psi_q = parse("0.1*(x1^2+x2^2)", n=2)
    psi_l = parse("0.3*x1+0.3*x2", n=2)
    omega = lambda x: math.sqrt(0.2) * math.hypot(x[0], x[1])
    rows = [hormander_report(cx, f, phi),
            berndtsson_report(cx, f, phi, psi_d, 0.3,
                              rng=np.random.default_rng(5)),
            minimal_estimate_report(cx, f, phi, psi_q, omega, 0.5),
            *composite_minimal_estimate(cx, f, phi, psi_d, 0.25),
            nonpsh_report(cx, f, phi, psi_l, None, 0.3)]
    print(f"   {'test':28s} {'constant':>9s} {'lhs':>10s} "
          f"{'rhs':>10s} {'ratio':>8s}")
    for rep in rows:
        print(f"   {rep.test:28s} {rep.constant:9.4f} {rep.lhs:10.6f} "
              f"{rep.rhs:10.6f} {rep.ratio:8.4f}")
    print("   every ratio stays at or below 1 + slack; the apriori check "
          "on the two-weight row sampled")
    b = rows[1]
    print(f"   {b.apriori.samples} random coexact cochains with sigma = "
          f"{b.apriori.sigma} (worst ratio {b.apriori.worst_ratio:.2e}).")


if __name__ == "__main__":
    main()
