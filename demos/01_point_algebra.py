"""Pointwise operator algebra on alternating forms.

A symmetric matrix theta acts on p-forms through its induced operator:
each coefficient picks up the sum of theta over the indices it carries,
plus off-diagonal mixing between neighbouring index sets.  This script
shows the action, its spectrum, the rank-one image inequalities, and the
inverse bound that the solver layer leans on.
"""

import numpy as np

from pconvex import (PointForm, dim_forms, inverse_bound_check,
                     pairing_quadratic, quadform_action, quadform_eigen,
                     quadform_matrix, rank_one_image_check)


def main():
    rng = np.random.default_rng(1)

    print("== induced operator on 2-forms in dimension 3 ==")
    th = np.diag([1.0, 10.0, 100.0])
    for idx in [(1, 2), (1, 3), (2, 3)]:
        out = quadform_action(th, PointForm.basis(3, idx))
        lead = out.coeffs.max()
        print(f"   basis {idx}: eigencoefficient {lead:7.1f} "
              f"(= sum of the diagonal over {idx})")

    print("\n== spectrum vs dense matrix ==")
    a = rng.standard_normal((3, 3))
    th = a + a.T
    spec = np.sort(quadform_eigen(th, 2).values)
    dense = np.linalg.eigvalsh(quadform_matrix(th, 2))
    print(f"   pair-sum spectrum  {np.round(spec, 6)}")
    print(f"   dense eigenvalues  {np.round(dense, 6)}")
    print(f"   agreement {np.max(np.abs(spec - dense)):.2e}")

    print("\n== rank-one image inequalities ==")
    tau = rng.standard_normal(4)
    low = rng.standard_normal((4, 4))
    th = np.outer(tau, tau) + low @ low.T
    xi = PointForm(4, 1, rng.standard_normal(4))
    f = quadform_action(th, PointForm(4, 2, rng.standard_normal(dim_forms(4, 2))))
    rep = rank_one_image_check(th, tau, xi, f)
    print(f"   membership residual {rep.membership_residual:.2e}")
    print(f"   self:  {rep.self_value:10.4f} <= {rep.self_bound:10.4f}")
    print(f"   cross: {rep.cross_value:10.4f} <= {rep.cross_bound:10.4f}")
    print(f"   all inequalities hold: {rep.all_ok}")

    print("\n== inverse bound on a positive definite input ==")
    spd = low @ low.T + 0.5 * np.eye(4)
    g = PointForm(4, 2, rng.standard_normal(dim_forms(4, 2)))
    rep = inverse_bound_check(spd, g)
    print(f"   <F^-1 g, g> = {rep.lhs:.6f} <= {rep.rhs:.6f} "
          f"(slack {rep.slack:.2e}, ok={rep.ok})")
    c = 2.0
    eq = inverse_bound_check(c * np.eye(4), g)
    print(f"   scaled identity: lhs {eq.lhs:.10f} == rhs {eq.rhs:.10f} "
          f"(pairing {pairing_quadratic(np.eye(4) / c, g) / 4:.10f})")


if __name__ == "__main__":
    main()
