"""Graded convexity of fields and boundaries.

A field is p-plurisubharmonic where every sum of p Hessian eigenvalues is
nonnegative — a ladder of conditions that weakens as p grows.  The same
trace condition applied to a defining function's tangential Hessian grades
the convexity of a boundary.
"""

import numpy as np

from pconvex import (boundary_p_convexity, curvature_bounds_check,
                     field_p_psh_report, min_p_trace, parse, signature_count)
from pconvex.exterior import PointForm, dim_forms


def main():
    print("== the saddle x1^2 - 3*x2^2 + 4*x3^2 across the ladder ==")
    hess = np.diag([2.0, -6.0, 8.0])
    for p in (1, 2, 3):
        t = min_p_trace(hess, p)
        verdict = "ok" if t >= 0 else "fails"
        print(f"   p={p}: min {p}-trace {t:6.1f}  -> {verdict}")

    print("\n== sampled region report for x1^2 + x2^2 - 0.3*x1*x2 ==")
    phi = parse("x1^2+x2^2-0.3*x1*x2", n=2)
    grid = np.linspace(-1.0, 1.0, 9)
    pts = np.array([[a, b] for a in grid for b in grid])
    rep = field_p_psh_report(phi, pts, 1)
    print(f"   verdict '{rep.verdict}', worst trace "
          f"{rep.traces.min():.3f} over {len(rep.points)} samples")

    print("\n== boundary convexity: disk vs 4:1 ellipse ==")
    theta = np.linspace(0.0, 2 * np.pi, 60, endpoint=False)
    for name, r_expr, pts in [
            ("disk", parse("x1^2+x2^2-1", n=2),
             np.c_[np.cos(theta), np.sin(theta)]),
            ("ellipse", parse("x1^2/16+x2^2-1", n=2),
             np.c_[4 * np.cos(theta), np.sin(theta)])]:
        rep = boundary_p_convexity(r_expr, pts, 1)
        print(f"   {name:8s}: verdict '{rep.verdict}', worst tangential "
              f"trace {rep.traces.min():.4f}")

    print("\n== curvature-style pairing bounds ==")
    rng = np.random.default_rng(2)
    n, p = 4, 2
    m = dim_forms(n, 2)
    R = rng.standard_normal((m, m))
    R = R + R.T
    g = PointForm(n, p, rng.standard_normal(dim_forms(n, p)))
    rep = curvature_bounds_check(R, g)
    print(f"   {rep.count} signed pairs (= p(n-p) = "
          f"{signature_count(n, p)}), term {rep.term:8.3f} inside "
          f"[{rep.lower:8.3f}, {rep.upper:8.3f}] -> ok={rep.ok}")


if __name__ == "__main__":
    main()
