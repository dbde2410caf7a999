"""Harmonic ranks and log-marginal convexity.

The weighted cochain Laplacian's kernel dimension is the Betti number, a
topological invariant: a box has none above degree zero, a ring keeps its
loop, a solid torus keeps its loop and nothing higher.  So the ranks are
counted from the complex itself: its components, the components of its
complement, and its Euler characteristic.  Changing the weight moves the
harmonic basis but never the count, as long as the weight's mass stays
positive and finite.  Separately, integrating a convex weight over the last
variable leaves a convex marginal — checked by quadrature with exact second
differences for Gaussians.
"""

import numpy as np

from pconvex import (GridDomain, build_complex, cohomology_rank, parse,
                     prekopa_check)


def main():
    print("== harmonic ranks across three shapes ==")
    shapes = [
        ("box", ((0.0, 1.0), (0.0, 1.0)), 1 / 16, None),
        ("ring", ((-1.2, 1.2), (-1.2, 1.2)), 0.1,
         parse("(x1^2+x2^2-0.25)*(x1^2+x2^2-1)", n=2)),
        ("solid torus", ((-1.0, 1.0), (-1.0, 1.0), (-0.4, 0.4)), 1 / 16,
         parse(f"(x1^2+x2^2+x3^2+{0.55 ** 2 - 0.3 ** 2})^2"
               f"-{4 * 0.55 ** 2}*(x1^2+x2^2)", n=3)),
    ]
    for name, box, h, r in shapes:
        cx = build_complex(GridDomain(box, h, r))
        rep = cohomology_rank(cx)
        print(f"   {name:12s} ranks {list(rep.ranks)} (components "
              f"{rep.components}, voids {rep.voids}, Euler characteristic "
              f"{rep.euler})")
    print("   degree >= 2 vanishes everywhere: ring and torus are 2-convex.")

    print("\n== weight independence on the ring ==")
    ring = build_complex(GridDomain(
        ((-1.2, 1.2), (-1.2, 1.2)), 0.1,
        parse("(x1^2+x2^2-0.25)*(x1^2+x2^2-1)", n=2)))
    rng = np.random.default_rng(6)
    extra = []
    for _ in range(3):
        a, b, c = rng.uniform(0.2, 1.5, size=3)
        extra.append(parse(f"({a})*x1^2+({b})*x2^2+({c})*x1", n=2))
    rep = cohomology_rank(ring, [parse("x1^2+x2^2", n=2), *extra])
    print(f"   the round weight and 3 random quadratics have positive, "
          f"finite masses in every degree,\n   so under each of them the "
          f"degree-1 harmonic space has dimension {rep.ranks[1]}")

    print("\n== log-marginal convexity by quadrature ==")
    xs = np.linspace(-1.0, 1.0, 7)
    rep = prekopa_check(parse("x1^2+x2^2", n=2), xs, [(-6.0, 6.0)])
    print(f"   round Gaussian: marginal curvature "
          f"{rep.second_diffs.mean():.6f} (exactly 2)")
    rep = prekopa_check(parse("(x1+x2)^2+x2^2", n=2), xs, [(-8.0, 8.0)])
    print(f"   sheared Gaussian: marginal curvature "
          f"{rep.second_diffs.mean():.6f} (Schur complement 1)")
    rep = prekopa_check(parse("x1^2-x2^2", n=2), xs, [(-3.0, 3.0)])
    print(f"   non-convex joint: convex_input={rep.convex_input}, "
          f"skipped={rep.skipped}")


if __name__ == "__main__":
    main()
