"""Acceptance battery: the thirteen shipped checks, one test per check.

Every test runs the full battery its check calls for, at the stated
tolerance and problem scale, prints a single verdict line of the form

    [criterion NN] <name>: PASS|FAIL -- <measured margins>

and then asserts.  ``pytest -v tests/test_acceptance.py`` therefore emits
exactly one pass/fail line per criterion (plus the printed margins under
``-s`` or on failure).  Oracles come from ``tests/oracles.py`` — dense
tensor algebra, dense least squares and the spectrum of the weighted
cochain Laplacian, each a method the library's code paths do not use.
Everything stays at desk scale: dimension at most four (seven for the
exhaustive signature count), grids no finer than 1/64 in 2-D and 1/32 in
3-D, single-threaded, each test well under a minute.
"""

import json
import math

import numpy as np
import pytest

from pconvex import cli
from pconvex import convexity as C
from pconvex import discrete as D
from pconvex import exterior as X
from pconvex import solver as S
from pconvex import weights as W
from pconvex.fieldexpr import compose_df, parse
from pconvex.weights import diameter_weight

import oracles as O


# ---------------------------------------------------------------------------
# shared helpers and fixtures
# ---------------------------------------------------------------------------

UNIT2 = ((0.0, 1.0), (0.0, 1.0))
UNIT3 = ((0.0, 1.0),) * 3
PHI2 = parse("x1^2+x2^2", n=2)
PHI3 = parse("x1^2+x2^2+x3^2", n=3)
DISK = parse("x1^2+x2^2-1", n=2)
ANNULUS_R = parse("(x1^2+x2^2-0.25)*(x1^2+x2^2-1)", n=2)


def _conclude(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} "
          f"-- {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _case(rng, nmax=4):
    n = int(rng.integers(2, nmax + 1))
    p = int(rng.integers(1, n + 1))
    return n, p


def _sym(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


def _bump(u, a, b):
    width = (b - a) / 2.0
    return (max(0.0, (u - a) * (b - u)) / width ** 2) ** 4


def _g_first(x):
    return _bump(x[0], 0.3, 0.7) * _bump(x[1], 0.3, 0.75)


def _g_second(x):
    return _bump(x[0], 0.35, 0.7) * _bump(x[1], 0.3, 0.65)


def _g_cube(x):
    return _bump(x[0], 0.3, 0.7) * _bump(x[1], 0.3, 0.75) * _bump(x[2], 0.25, 0.7)


def _pot(x):
    return _bump(x[0], 0.25, 0.75) * _bump(x[1], 0.25, 0.75)


@pytest.fixture(scope="module")
def cx32():
    return D.build_complex(D.GridDomain(UNIT2, 1 / 32))


@pytest.fixture(scope="module")
def f32(cx32):
    return S.closed_form_from_potential(cx32, 1, [_pot])


@pytest.fixture(scope="module")
def cx64():
    return D.build_complex(D.GridDomain(UNIT2, 1 / 64))


@pytest.fixture(scope="module")
def f64(cx64):
    return S.closed_form_from_potential(cx64, 1, [_pot])


# ---------------------------------------------------------------------------
# 01 — operator algebra: action identity, self-adjointness, spectrum
# ---------------------------------------------------------------------------

def test_criterion_01_algebra_batteries():
    rng = np.random.default_rng(1001)
    worst_action = worst_pairing = worst_adjoint = worst_spec = 0.0
    for _ in range(1000):
        n, p = _case(rng)
        th = _sym(rng, n)
        dim = X.dim_forms(n, p)
        a = rng.standard_normal(dim)
        b = rng.standard_normal(dim)
        A = X.PointForm(n, p, a)
        B = X.PointForm(n, p, b)
        # action vs dense alternating-tensor oracle
        got = X.quadform_action(th, A).coeffs
        want = O.t_to_lex(n, p, O.t_quadform_apply(th, O.t_from_lex(n, p, a), n))
        worst_action = max(worst_action, float(
            np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want)))))
        # pairing identity: quadratic form equals action paired with itself
        direct = X.pairing_quadratic(th, A)
        via = X.quadform_action(th, A).inner(A)
        worst_pairing = max(worst_pairing,
                            abs(direct - via) / (1.0 + abs(direct)))
        # self-adjointness of the induced operator
        lhs = X.quadform_action(th, A).inner(B)
        rhs = X.quadform_action(th, B).inner(A)
        worst_adjoint = max(worst_adjoint,
                            abs(lhs - rhs) / (1.0 + abs(lhs)))
        # spectrum vs dense eigendecomposition of the assembled matrix
        spec = np.sort(X.quadform_eigen(th, p).values)
        dense = np.linalg.eigvalsh(X.quadform_matrix(th, p))
        worst_spec = max(worst_spec, float(
            np.max(np.abs(spec - dense)) / (1.0 + np.max(np.abs(dense)))))
    worst = max(worst_action, worst_pairing, worst_adjoint, worst_spec)
    _conclude(1, "algebra-batteries", worst <= 1e-10,
              f"1000 cases each; worst action {worst_action:.2e}, pairing "
              f"{worst_pairing:.2e}, adjoint {worst_adjoint:.2e}, spectrum "
              f"{worst_spec:.2e} (tol 1e-10)")


# ---------------------------------------------------------------------------
# 02 — rank-one image inequalities
# ---------------------------------------------------------------------------

def test_criterion_02_rank_one_batteries():
    rng = np.random.default_rng(1002)
    n_ok = 0
    min_slack = math.inf
    for _ in range(1000):
        n, p = _case(rng)
        tau = rng.standard_normal(n)
        a = rng.standard_normal((n, n))
        th = np.outer(tau, tau) + a @ a.T
        xi = X.PointForm(n, p - 1, rng.standard_normal(X.dim_forms(n, p - 1)))
        f = X.quadform_action(
            th, X.PointForm(n, p, rng.standard_normal(X.dim_forms(n, p))))
        rep = X.rank_one_image_check(th, tau, xi, f)
        n_ok += bool(rep.all_ok)
        min_slack = min(
            min_slack,
            (rep.self_bound - rep.self_value) / (1.0 + abs(rep.self_bound)),
            (rep.cross_bound - rep.cross_value) / (1.0 + abs(rep.cross_bound)))
    # equality in the pure rank-one configuration
    worst_eq = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        tau = rng.standard_normal(n)
        xi_c = rng.standard_normal(n)
        xi_c -= (xi_c @ tau) * tau / (tau @ tau)
        rep = X.rank_one_image_check(np.outer(tau, tau), tau,
                                     X.PointForm(n, 1, xi_c))
        worst_eq = max(worst_eq, abs(rep.self_value - rep.self_bound)
                       / (1e-12 + abs(rep.self_bound)))
    ok = n_ok == 1000 and min_slack >= -1e-10 and worst_eq <= 1e-10
    _conclude(2, "rank-one-image", ok,
              f"{n_ok}/1000 batteries ok, min slack {min_slack:.2e} "
              f"(floor -1e-10), pure-case equality gap {worst_eq:.2e}")


# ---------------------------------------------------------------------------
# 03 — inverse-operator bound on positive definite inputs
# ---------------------------------------------------------------------------

def test_criterion_03_inverse_bound():
    rng = np.random.default_rng(1003)
    n_ok = 0
    min_slack = math.inf
    for _ in range(500):
        n, p = _case(rng)
        a = rng.standard_normal((n, n))
        th = a @ a.T + (0.05 + rng.uniform()) * np.eye(n)
        g = X.PointForm(n, p, rng.standard_normal(X.dim_forms(n, p)))
        rep = X.inverse_bound_check(th, g)
        n_ok += bool(rep.ok)
        min_slack = min(min_slack,
                        (rep.rhs - rep.lhs) / (1.0 + abs(rep.rhs)))
    worst_eq = 0.0
    for _ in range(100):
        n, p = _case(rng)
        c = float(rng.uniform(0.1, 5.0))
        g = X.PointForm(n, p, rng.standard_normal(X.dim_forms(n, p)))
        rep = X.inverse_bound_check(c * np.eye(n), g)
        worst_eq = max(worst_eq,
                       abs(rep.lhs - rep.rhs) / (1e-300 + abs(rep.rhs)))
    ok = n_ok == 500 and min_slack >= -1e-12 and worst_eq <= 1e-12
    _conclude(3, "inverse-bound", ok,
              f"{n_ok}/500 ok, min slack {min_slack:.2e} (floor -1e-12), "
              f"scaled-identity equality gap {worst_eq:.2e} (tol 1e-12)")


# ---------------------------------------------------------------------------
# 04 — curvature pairing bounds and signature count
# ---------------------------------------------------------------------------

def test_criterion_04_curvature_bounds():
    sig_ok = all(C.signature_count(n, p) == p * (n - p)
                 for n in range(1, 8) for p in range(1, n + 1))
    rng = np.random.default_rng(1004)
    n_ok = 0
    for _ in range(500):
        n, p = _case(rng)
        m = X.dim_forms(n, 2)
        R = _sym(rng, m)
        g = X.PointForm(n, p, rng.standard_normal(X.dim_forms(n, p)))
        rep = C.curvature_bounds_check(R, g)
        n_ok += bool(rep.ok and rep.count == p * (n - p))
    worst_eq = 0.0
    for _ in range(100):
        n, p = _case(rng)
        c = float(rng.uniform(-2.0, 2.0))
        g = X.PointForm(n, p, rng.standard_normal(X.dim_forms(n, p)))
        rep = C.curvature_bounds_check(c * np.eye(X.dim_forms(n, 2)), g)
        scale = 1.0 + abs(rep.term)
        worst_eq = max(worst_eq, abs(rep.term - rep.lower) / scale,
                       abs(rep.term - rep.upper) / scale)
    ok = sig_ok and n_ok == 500 and worst_eq <= 1e-10
    _conclude(4, "curvature-bounds", ok,
              f"signature count exhaustive n<=7 {'ok' if sig_ok else 'BAD'}, "
              f"{n_ok}/500 pairings bounded, scaled-identity equality gap "
              f"{worst_eq:.2e} (tol 1e-10)")


# ---------------------------------------------------------------------------
# 05 — boundary-distance weight search on the disk; eccentricity trends
# ---------------------------------------------------------------------------

def test_criterion_05_weight_search():
    samples = W.lattice_samples(DISK, ([-1, -1], [1, 1]), per_axis=27)
    res = W.df_search(DISK, PHI2, samples, 1,
                      [0.25, 0.5, 1.0, 2.0, 4.0],
                      [0.05, 0.1, 0.2, 0.4, 0.6, 0.8])
    # certify the found pair through the composed expression tree: the
    # search scores a normalized core, the certificate differentiates the
    # actual field
    rho = compose_df(DISK, PHI2, res.K, res.eta)
    worst_trace = min(C.min_p_trace(rho.eval_jet2(x).hess, 1)
                      for x in samples)
    floors, etas = [], []
    for a in (1.0, 2.0, 4.0, 8.0):
        r = parse(f"x1^2/{a * a}+x2^2-1", n=2)
        pts = W.lattice_samples(r, ([-a, -1], [a, 1]), per_axis=41)
        floors.append(W.stiffness_floor(r, PHI2, pts, 1).K_floor)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", W.InfeasibleOnGrid)
            sub = W.df_search(r, PHI2, pts, 1,
                              [0.25, 0.5, 1, 2, 4, 8, 16],
                              [0.02, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8])
        etas.append(sub.eta_max_feasible or 0.0)
    trend_ok = (all(b > a for a, b in zip(floors, floors[1:]))
                and all(b <= a for a, b in zip(etas, etas[1:]))
                and etas[-1] < etas[0])
    ok = (res.feasible and res.n_samples >= 500 and worst_trace > 0.0
          and trend_ok)
    _conclude(5, "weight-search", ok,
              f"disk: feasible={res.feasible} (K={res.K}, eta={res.eta}) on "
              f"{res.n_samples} samples, certified min p-trace "
              f"{worst_trace:.3f}; eccentricity 1->8: stiffness floors "
              f"{[round(v, 1) for v in floors]} increasing, feasible eta "
              f"ceilings {etas} non-increasing")


# ---------------------------------------------------------------------------
# 06 — discrete energy identity: second-order residual decay
# ---------------------------------------------------------------------------

def test_criterion_06_energy_identity_ladders():
    res2 = [D.energy_identity_residual([_g_first, _g_second], PHI2,
                                       D.GridDomain(UNIT2, h), 1).residual
            for h in (1 / 16, 1 / 32, 1 / 64)]
    res3 = [D.energy_identity_residual([_g_cube, 0.0, 0.0], PHI3,
                                       D.GridDomain(UNIT3, h), 1).residual
            for h in (1 / 8, 1 / 16, 1 / 32)]
    restop = [D.energy_identity_residual([_pot], PHI2,
                                         D.GridDomain(UNIT2, h), 2).residual
              for h in (1 / 16, 1 / 32)]

    def ladder_ok(res):
        return all(nxt <= 1e-12 or cur / nxt >= 1.5
                   for cur, nxt in zip(res, res[1:]))

    ok = (ladder_ok(res2) and ladder_ok(res3) and ladder_ok(restop)
          and res2[-1] <= 2e-2)
    _conclude(6, "energy-identity", ok,
              f"2-D residuals {[f'{r:.2e}' for r in res2]} (final <= 2e-2), "
              f"3-D {[f'{r:.2e}' for r in res3]}, top-degree "
              f"{[f'{r:.2e}' for r in restop]}; every halving gains >= 1.5x")


# ---------------------------------------------------------------------------
# 07 — baseline estimate holds with constant 1 and tightens under refinement
# ---------------------------------------------------------------------------

def test_criterion_07_baseline_estimate():
    ratios = []
    passed = True
    for h in (1 / 16, 1 / 32, 1 / 64):
        cx = D.build_complex(D.GridDomain(UNIT2, h))
        f = S.closed_form_from_potential(cx, 1, [_pot])
        rep = S.hormander_report(cx, f, PHI2)
        passed = passed and rep.passed and rep.constant == 1.0
        ratios.append(rep.ratio)
    mono = all(b <= a for a, b in zip(ratios, ratios[1:]))
    ok = passed and mono and ratios[-1] <= 1.05
    _conclude(7, "baseline-estimate", ok,
              f"ratios {[f'{r:.4f}' for r in ratios]} non-increasing="
              f"{mono}, final {ratios[-1]:.4f} <= 1.05")


# ---------------------------------------------------------------------------
# 08 — two-weight estimate with constant 4/(1-alpha)^2; diameter bound
# ---------------------------------------------------------------------------

def test_criterion_08_two_weight_estimate(cx32, f32):
    dia = math.sqrt(2.0)
    psi = diameter_weight(1, dia, (0.5, 0.5))
    all_pass = True
    ratios = {}
    for alpha in (0.0, 0.3, 0.6):
        rep = S.berndtsson_report(cx32, f32, PHI2, psi, alpha,
                                  rng=np.random.default_rng(1008))
        want = 4.0 / (1.0 - alpha) ** 2
        all_pass = (all_pass and rep.passed and rep.apriori is not None
                    and abs(rep.constant - want) <= 1e-12 * want)
        ratios[alpha] = rep.ratio
    # diameter form of the alpha=0 case: the solution's plain weighted norm
    # against (2 D / p) times the datum's, measured route-independently
    rep0 = S.berndtsson_report(cx32, f32, PHI2, psi, 0.0,
                               rng=np.random.default_rng(1008))
    u = rep0.solve.u.values
    norm_u = math.sqrt(D.mass(cx32, PHI2, 0).inner(u, u))
    norm_f = math.sqrt(D.mass(cx32, PHI2, 1).inner(f32.values, f32.values))
    dia_ok = norm_u <= 2.0 * dia * 1.05 * norm_f
    ok = all_pass and dia_ok
    _conclude(8, "two-weight-estimate", ok,
              f"ratios {{0: {ratios[0.0]:.4f}, 0.3: {ratios[0.3]:.4f}, "
              f"0.6: {ratios[0.6]:.4f}}} all <= 1.05; diameter bound "
              f"{norm_u:.4f} <= {2.0 * dia * 1.05 * norm_f:.4f}")


# ---------------------------------------------------------------------------
# 09 — minimal-solution estimates, composite route, non-psh degeneration
# ---------------------------------------------------------------------------

def test_criterion_09_minimal_and_nonpsh(cx32, f32, cx64, f64):
    psi = parse("0.1*(x1^2+x2^2)", n=2)
    omega = lambda x: math.sqrt(0.2) * math.hypot(x[0], x[1])
    rep_min = S.minimal_estimate_report(cx32, f32, PHI2, psi, omega, 0.5)
    base_c, comp_c = S.composite_minimal_estimate(
        cx32, f32, PHI2, diameter_weight(1, math.sqrt(2.0), (0.5, 0.5)),
        0.25)
    psi_l = parse("0.3*x1+0.3*x2", n=2)
    rep_var = S.nonpsh_report(cx32, f32, PHI2, psi_l, 0.4, 0.4)
    rep_con = S.nonpsh_report(cx32, f32, PHI2, psi_l, None, 0.3)
    batteries_ok = (rep_min.passed and abs(rep_min.constant - 3.0) < 1e-12
                    and base_c.passed and comp_c.passed
                    and rep_var.passed
                    and abs(rep_var.constant - 2.4 / 1.6) < 1e-12
                    and rep_con.passed
                    and abs(rep_con.constant - 4.0 / 1.7 ** 2) < 1e-12)
    # alpha = 0, no comparison weight: must reproduce the baseline numbers
    # bit for bit on the criterion-07 fine grid
    base = S.hormander_report(cx64, f64, PHI2)
    red = S.nonpsh_report(cx64, f64, PHI2, None, None, 0.0)
    degen_ok = (red.constant == 1.0 and red.lhs == base.lhs
                and red.rhs == base.rhs and red.ratio == base.ratio)
    ok = batteries_ok and degen_ok
    _conclude(9, "minimal-and-nonpsh", ok,
              f"minimal ratio {rep_min.ratio:.4f}, composite ratios "
              f"({base_c.ratio:.4f}, {comp_c.ratio:.4f}), non-psh ratios "
              f"({rep_var.ratio:.4f}, {rep_con.ratio:.4f}) all <= 1.05; "
              f"alpha=0 degeneration bit-for-bit={degen_ok}")


# ---------------------------------------------------------------------------
# 10 — harmonic ranks: exact, weight-independent, refinement-stable
# ---------------------------------------------------------------------------

def _random_spd_quadratic(n, rng):
    a = rng.standard_normal((n, n))
    q = a @ a.T + 0.5 * np.eye(n)
    terms = []
    for i in range(n):
        terms.append(f"({q[i, i] / 2.0})*x{i + 1}^2")
        for j in range(i + 1, n):
            terms.append(f"({q[i, j]})*x{i + 1}*x{j + 1}")
    return parse("+".join(terms), n=n)


def test_criterion_10_harmonic_ranks(cx32):
    rng = np.random.default_rng(1010)
    wts2 = tuple(_random_spd_quadratic(2, rng) for _ in range(3))
    ann = D.build_complex(
        D.GridDomain(((-1.2, 1.2), (-1.2, 1.2)), 0.1, r=ANNULUS_R))
    fine = D.build_complex(
        D.GridDomain(((-1.2, 1.2), (-1.2, 1.2)), 0.05, r=ANNULUS_R))
    r_, a_ = 0.55, 0.3
    torus_r = parse(f"(x1^2+x2^2+x3^2+{r_ ** 2 - a_ ** 2})^2"
                    f"-{4 * r_ ** 2}*(x1^2+x2^2)", n=3)
    cx3 = D.build_complex(
        D.GridDomain(((-1.0, 1.0), (-1.0, 1.0), (-0.4, 0.4)), 1 / 16,
                     r=torus_r))
    # the count, which reads only the complex, and the spectral oracle,
    # which recounts the box and the ring under each of the three extra
    # weights, building their masses in every degree
    shapes = ((cx32, wts2), (ann, wts2), (fine, ()), (cx3, ()))
    counts = [list(S.cohomology_rank(cx).ranks) for cx, _ in shapes]
    spectral = [[O.spectral_rank(cx, q, 0.0, check_weights=wts).rank
                 for q in range(cx.n + 1)] for cx, wts in shapes]
    box_ranks, ann_ranks, fine_ranks, torus_ranks = counts
    exact = (box_ranks == [1, 0, 0] and ann_ranks == [1, 1, 0]
             and fine_ranks == [1, 1, 0] and torus_ranks == [1, 1, 0, 0])
    agree = spectral == counts
    # vanishing at and above each member's convexity degree: the box is
    # 1-convex, the ring and the solid torus are 2-convex
    vanish = (all(r == 0 for r in box_ranks[1:])
              and all(r == 0 for r in ann_ranks[2:])
              and all(r == 0 for r in torus_ranks[2:]))
    ok = exact and agree and vanish
    _conclude(10, "harmonic-ranks", ok,
              f"box {box_ranks}, ring {ann_ranks} (3 extra weights, "
              f"refined {fine_ranks}), solid torus {torus_ranks}; "
              f"spectral oracle agrees={agree}; "
              f"vanishing above convexity degree={vanish}")


# ---------------------------------------------------------------------------
# 11 — log-marginal convexity with quadrature
# ---------------------------------------------------------------------------

def test_criterion_11_log_marginal_convexity():
    xs = np.linspace(-1.0, 1.0, 7)
    round_rep = S.prekopa_check(PHI2, xs, [(-6.0, 6.0)])
    round_ok = (round_rep.passed
                and np.max(np.abs(round_rep.second_diffs - 2.0)) <= 1e-3)
    rng = np.random.default_rng(1011)
    worst_schur = 0.0
    min_diff = math.inf
    for _ in range(20):
        mat = rng.standard_normal((2, 2))
        q = mat @ mat.T + 0.3 * np.eye(2)
        expr = parse(f"({q[0, 0] / 2})*x1^2+({q[0, 1]})*x1*x2"
                     f"+({q[1, 1] / 2})*x2^2", n=2)
        box = 30.0 / math.sqrt(q[1, 1])
        rep = S.prekopa_check(expr, xs, [(-box, box)], y_points=2001)
        schur = q[0, 0] - q[0, 1] ** 2 / q[1, 1]
        worst_schur = max(worst_schur,
                          float(np.max(np.abs(rep.second_diffs - schur))))
        min_diff = min(min_diff, rep.min_second_diff)
    ok = round_ok and min_diff >= -1e-6 and worst_schur <= 1e-4
    _conclude(11, "log-marginal-convexity", ok,
              f"round case 2.0 +/- 1e-3 ok={round_ok}; 20 random quadratics: "
              f"min second diff {min_diff:.2e} (floor -1e-6), worst gap to "
              f"marginal closed form {worst_schur:.2e} (tol 1e-4)")


# ---------------------------------------------------------------------------
# 12 — iterative solver against a dense minimum-norm oracle
# ---------------------------------------------------------------------------

def test_criterion_12_solver_vs_dense_oracle():
    def pot1(x):
        return _bump(x[0], 0.25, 0.75)

    def pot_shell(x):
        return _bump(math.hypot(x[0], x[1]), 0.55, 0.95)

    def pot3(x):
        return _bump(x[0], 0.3, 0.7) * _bump(x[1], 0.3, 0.7) * _bump(x[2], 0.3, 0.7)

    cases = [
        ("interval", ((0.0, 1.0),), 1 / 64, None, "x1^2", 1, [pot1]),
        ("box-1/8", UNIT2, 1 / 8, None, "x1^2+x2^2", 1, [_pot]),
        ("box-1/16", UNIT2, 1 / 16, None,
         "0.5*x1^2+x2^2+0.25*x1*x2", 1, [_pot]),
        ("ring", ((-1.2, 1.2), (-1.2, 1.2)), 0.2, ANNULUS_R,
         "x1^2+x2^2", 1, [pot_shell]),
        ("cube", UNIT3, 1 / 4, None, "x1^2+x2^2+x3^2", 1, [pot3]),
        ("box-top", UNIT2, 1 / 8, None, "x1^2+x2^2", 2,
         [_pot, lambda x: _bump(x[0], 0.3, 0.8) * _bump(x[1], 0.2, 0.7)]),
    ]
    worst = 0.0
    sizes = []
    for name, box, h, r, phi_s, p, pots in cases:
        n = len(box)
        cx = D.build_complex(D.GridDomain(box, h, r))
        total = sum(cx.num_cells(q) for q in range(n + 1))
        assert total <= 2000, f"{name}: {total} cells exceeds oracle scale"
        phi = parse(phi_s, n=n)
        f = S.closed_form_from_potential(cx, p, pots)
        sol = S.minimal_solution(cx, f, phi)
        dense = O.dense_min_norm(D.coboundary(cx, p - 1).toarray(),
                                 D.mass(cx, phi, p - 1).diag, f.values)
        rel = float(np.linalg.norm(sol.u.values - dense)
                    / (np.linalg.norm(dense) or 1.0))
        worst = max(worst, rel)
        sizes.append(f"{name}:{total}")
    ok = worst <= 1e-8
    _conclude(12, "solver-vs-dense-oracle", ok,
              f"{len(cases)} complexes ({', '.join(sizes)} cells), worst "
              f"relative deviation {worst:.2e} (tol 1e-8)")


# ---------------------------------------------------------------------------
# 13 — command-line runs are deterministic
# ---------------------------------------------------------------------------

BOUNDS_CFG = """
[domain]
box = 0:1, 0:1
h = 1/16

[weights]
phi = x1^2+x2^2
psi = cor42(p=1, D=1.4142135623730951, center=0.5:0.5)

[task]
name = bounds
bound = berndtsson
p = 1
alpha = 0.3
potential = bump(0.25, 0.75)
seed = 7
"""

KMH_CFG = """
[domain]
box = 0:1, 0:1
ladder = 1/8, 1/16, 1/32

[weights]
phi = x1^2+x2^2

[task]
name = kmh
p = 1
g = bump(0.3, 0.7); 0
"""


def test_criterion_13_cli_determinism(tmp_path):
    identical = True
    n_lines = {}
    for label, cfg_text in (("bounds", BOUNDS_CFG), ("kmh", KMH_CFG)):
        cfg = tmp_path / f"{label}.ini"
        cfg.write_text(cfg_text, encoding="utf-8")
        runs = []
        for d in ("a", "b"):
            out = tmp_path / f"{label}-{d}"
            code = cli.main(["run", str(cfg), "--out", str(out)])
            assert code == 0, f"{label} run exited {code}"
            lines = (out / "report.jsonl").read_text().splitlines()
            header = json.loads(lines[0])
            assert "timestamp" in header
            extras = {p.name: p.read_text() for p in sorted(out.iterdir())
                      if p.name != "report.jsonl"}
            runs.append((lines, extras))
        identical = (identical and runs[0][0][1:] == runs[1][0][1:]
                     and runs[0][1] == runs[1][1])
        n_lines[label] = len(runs[0][0])
    _conclude(13, "cli-determinism", identical,
              f"two runs each of 2 configs: report.jsonl identical modulo "
              f"timestamp header ({n_lines}), side artifacts byte-identical")
