"""Parser + 2-jet evaluation tests.

Derivatives are checked against two independent oracles: sympy's symbolic
differentiation (exact, via a tree transcription that never touches the
library's evaluator) and central finite differences from tests/oracles.py.
"""

import math
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import pconvex.fieldexpr as FE
import pconvex.solver as S
from pconvex.errors import ArityError, DomainError, ParseError, UnknownVariable

from oracles import fd_jet


# ---------------------------------------------------------------------------
# sympy transcription (oracle)
# ---------------------------------------------------------------------------

def to_sympy(node, xs):
    if isinstance(node, FE.Num):
        return sp.Float(node.value)
    if isinstance(node, FE.Var):
        return xs[node.index - 1]
    if isinstance(node, FE.Call):
        return getattr(sp, node.fn)(to_sympy(node.arg, xs))
    left, right = to_sympy(node.left, xs), to_sympy(node.right, xs)
    return {"+": left + right, "-": left - right, "*": left * right,
            "/": left / right, "^": left ** right}[node.op]


def sympy_jet(field, x):
    xs = sp.symbols(f"x1:{field.n + 1}")
    s = to_sympy(field.root, xs)
    sub = dict(zip(xs, [sp.Float(v) for v in x]))
    val = float(s.subs(sub))
    grads = [sp.diff(s, v) for v in xs]
    g = np.array([float(gg.subs(sub)) for gg in grads])
    h = np.array([[float(sp.diff(gg, v).subs(sub)) for v in xs] for gg in grads])
    return val, g, h


def assert_jet_close(jet, val, g, h, tol):
    scale = 1.0 + abs(val) + np.abs(g).max() + np.abs(h).max()
    assert abs(jet.value - val) <= tol * scale
    np.testing.assert_allclose(jet.grad, g, atol=tol * scale, rtol=0)
    np.testing.assert_allclose(jet.hess, h, atol=tol * scale, rtol=0)


# ---------------------------------------------------------------------------
# grammar: frozen shapes
# ---------------------------------------------------------------------------

def test_precedence_frozen():
    t = FE.parse("1+2*3").root
    assert t == FE.BinOp("+", FE.Num(1.0), FE.BinOp("*", FE.Num(2.0), FE.Num(3.0)))

    t = FE.parse("2*x1^2").root
    assert t == FE.BinOp("*", FE.Num(2.0),
                         FE.BinOp("^", FE.Var(1), FE.Num(2.0)))

    # '^' is right-associative
    t = FE.parse("x1^2^3").root
    assert t == FE.BinOp("^", FE.Var(1), FE.BinOp("^", FE.Num(2.0), FE.Num(3.0)))

    # leading minus is sugar for 0 - e, binding below '*'
    t = FE.parse("-x1*x2").root
    assert t == FE.BinOp("-", FE.Num(0.0), FE.BinOp("*", FE.Var(1), FE.Var(2)))

    # subtraction associates left
    t = FE.parse("1-2-3").root
    assert t == FE.BinOp("-", FE.BinOp("-", FE.Num(1.0), FE.Num(2.0)), FE.Num(3.0))


def test_whitespace_and_number_formats():
    assert FE.parse(" 1 +  2*x1 ").root == FE.parse("1+2*x1").root
    assert FE.parse(".5").root == FE.Num(0.5)
    assert FE.parse("2.").root == FE.Num(2.0)
    assert FE.parse("1e-3").root == FE.Num(0.001)
    assert FE.parse("3E+2").root == FE.Num(300.0)


def test_dimension_inference_and_declaration():
    assert FE.parse("x2").n == 2
    assert FE.parse("1.5").n == 1
    assert FE.parse("x1", n=5).n == 5


# ---------------------------------------------------------------------------
# grammar: rejections, with offsets
# ---------------------------------------------------------------------------

def test_parse_error_offsets():
    with pytest.raises(ParseError) as exc:
        FE.parse("1+*2")
    assert exc.value.offset == 2

    with pytest.raises(ParseError) as exc:
        FE.parse("(1+2")
    assert exc.value.offset == 4

    with pytest.raises(ParseError) as exc:
        FE.parse("1+2)")
    assert exc.value.offset == 3

    with pytest.raises(ParseError) as exc:
        FE.parse("1 $ 2")
    assert exc.value.offset == 2


def test_unknown_variables():
    with pytest.raises(UnknownVariable):
        FE.parse("x3", n=2)
    with pytest.raises(UnknownVariable):
        FE.parse("x0")
    with pytest.raises(ParseError):
        FE.parse("y1")
    # constructing a field narrower than its tree is also rejected
    with pytest.raises(UnknownVariable):
        FE.ScalarFieldExpr(root=FE.Var(3), n=2)


def test_function_arity():
    with pytest.raises(ArityError):
        FE.parse("exp()")
    with pytest.raises(ArityError) as exc:
        FE.parse("exp(1,2)")
    assert exc.value.offset == 5
    with pytest.raises(ParseError):
        FE.parse("sin(x1)")


def test_literal_overflow_rejected():
    with pytest.raises(ParseError):
        FE.parse("1e999")


# ---------------------------------------------------------------------------
# evaluation: domains and exactness
# ---------------------------------------------------------------------------

def test_integer_powers_allow_negative_base():
    f = FE.parse("x1^3")
    assert f.value([-2.0]) == -8.0
    assert FE.parse("x1^4").value([-3.0]) == 81.0
    j = f.eval_jet2([-2.0])
    assert j.grad[0] == 12.0 and j.hess[0, 0] == -12.0


def test_domain_errors():
    with pytest.raises(DomainError):
        FE.parse("log(x1)").value([0.0])
    with pytest.raises(DomainError):
        FE.parse("log(x1)").eval_jet2([-1.0])
    with pytest.raises(DomainError):
        FE.parse("sqrt(x1)").eval_jet2([-0.5])
    with pytest.raises(DomainError):
        FE.parse("1/x1").value([0.0])
    with pytest.raises(DomainError):
        FE.parse("x1^0.5").value([-1.0])
    with pytest.raises(DomainError):
        FE.parse("x1^(0-1)").value([0.0])
    with pytest.raises(DomainError):          # overflow surfaces, never inf
        FE.parse("exp(x1)").value([1000.0])


@pytest.mark.parametrize("text, bad, expect", [
    ("log(x1)+x2", [-1.0, 0.0], "log of non-positive"),
    ("sqrt(x1)*x2", [0.0, 1.0], "sqrt of non-positive"),
    ("x2/x1", [0.0, 2.0], "division by zero"),
    ("exp(x1)-x2", [1000.0, 0.0], "exp overflow"),
    # the first bad row fails at the division, a later one at the log node
    # that the interpreter visits first: the error still names the first row
    ("log(x1+2)+1/x2", [0.5, 0.0], "division by zero"),
])
def test_batch_domain_error_names_first_bad_row(text, bad, expect):
    f = FE.parse(text, n=2)
    X = np.random.default_rng(8).uniform(0.5, 1.5, size=(2500, 2))
    X[1700] = bad                     # in the second block of rows
    X[2200] = [-3.0, 0.0]             # a later bad row for several cases
    for order in (2, 0):
        with pytest.raises(DomainError) as exc:
            f.jets(X, order=order)
        assert expect in str(exc.value)
        assert str([float(v) for v in bad]) in str(exc.value)
    assert np.array_equal(f.jets(X[:1700], order=0), f.jets(X[:1700])[0])


def test_point_shape_checked():
    f = FE.parse("x1+x2")
    with pytest.raises(ValueError):
        f.value([1.0])
    with pytest.raises(ValueError):
        f.eval_jet2([[1.0, 2.0]])


# battery of expressions with safe sampling regions
CASES = [
    ("x1^2+x2^2", 2, "normal"),
    ("exp(x1*x2)-log(x1^2+1)", 2, "normal"),
    ("sqrt(x1^2+x2^2+0.5)/(1+x2^2)", 2, "normal"),
    ("(x1+2*x2-0.3*x3)^3", 3, "normal"),
    ("x1^0.7", 1, "positive"),
    ("x1^x2", 2, "base_positive"),
    ("x1^(0-2)", 1, "positive"),
    ("-x1*exp(0-0.5*(x1^2+x2^2))", 2, "normal"),
    ("2/(x1^2+1)", 1, "normal"),
    ("log(exp(x1)+exp(x2))", 2, "normal"),
    ("sqrt(1+x1^2)*log(2+x2^2)-x1/(3+x2^4)", 2, "normal"),
]


def _sample(kind, n, rng):
    if kind == "positive":
        return np.abs(rng.normal(size=n)) + 0.3
    if kind == "base_positive":
        x = rng.normal(size=n)
        x[0] = abs(x[0]) + 0.3
        return x
    return rng.normal(size=n)


def _full(jets, m):
    """Jets with every array broadcast to one row per point."""
    v, g, h = jets
    n = g.shape[1]
    return v, np.broadcast_to(g, (m, n)), np.broadcast_to(h, (m, n, n))


def test_jets_match_sympy():
    rng = np.random.default_rng(20240811)
    for text, n, kind in CASES:
        f = FE.parse(text, n=n)
        X = np.array([_sample(kind, n, rng) for _ in range(10)])
        vals, grads, hessians = _full(f.jets(X), len(X))   # one batched call
        for x, v, g_row, h_row in zip(X, vals, grads, hessians):
            val, g, h = sympy_jet(f, x)
            assert_jet_close(f.eval_jet2(x), val, g, h, 5e-13)
            assert_jet_close(FE.Jet2(v, g_row, h_row), val, g, h, 5e-13)


def test_jets_match_finite_differences():
    rng = np.random.default_rng(3)
    for text, n, kind in CASES[:6]:
        f = FE.parse(text, n=n)
        x = _sample(kind, n, rng)
        val, g, h = fd_jet(f.value, x)
        jet = f.eval_jet2(x)
        scale = 1.0 + abs(val) + np.abs(g).max() + np.abs(h).max()
        assert abs(jet.value - val) <= 1e-10 * scale
        np.testing.assert_allclose(jet.grad, g, atol=5e-5 * scale, rtol=0)
        np.testing.assert_allclose(jet.hess, h, atol=5e-4 * scale, rtol=0)


def test_value_path_is_bit_identical_to_jet_value():
    rng = np.random.default_rng(99)
    for text, n, kind in CASES:
        f = FE.parse(text, n=n)
        for _ in range(10):
            x = _sample(kind, n, rng)
            assert f.value(x) == f.eval_jet2(x).value
        X = np.array([_sample(kind, n, rng) for _ in range(3000)])
        assert np.array_equal(f.jets(X, order=0), f.jets(X)[0])


# ---------------------------------------------------------------------------
# layout: a derivative that does not vary by row keeps a leading axis of 1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text, grad_rows, hess_rows", [
    ("x1^2+x2^2", 3000, 1),
    ("0.3*x1+0.3*x2", 1, 1),
    ("exp(x1)", 3000, 3000),
])
def test_row_independent_derivatives_keep_one_row(text, grad_rows, hess_rows):
    f = FE.parse(text, n=2)
    X = np.random.default_rng(13).normal(size=(3000, 2))   # three blocks
    assert X.shape[0] > 2 * FE.BLOCK_ROWS
    jets = f.jets(X)
    assert [a.shape for a in jets] == [(3000,), (grad_rows, 2),
                                       (hess_rows, 2, 2)]
    v, g, h = _full(jets, len(X))
    for i in (0, FE.BLOCK_ROWS + 7, len(X) - 1):
        # the oracles of test_jets_match_sympy and
        # test_jets_match_finite_differences, on rows of every block
        val, g_ref, h_ref = sympy_jet(f, X[i])
        assert_jet_close(FE.Jet2(v[i], g[i], h[i]), val, g_ref, h_ref, 5e-13)
        val, g_ref, h_ref = fd_jet(f.value, X[i])
        scale = 1.0 + abs(val) + np.abs(g_ref).max() + np.abs(h_ref).max()
        np.testing.assert_allclose(g[i], g_ref, atol=5e-5 * scale, rtol=0)
        np.testing.assert_allclose(h[i], h_ref, atol=5e-4 * scale, rtol=0)
        # one row on its own gives the same bits
        one = f.eval_jet2(X[i])
        assert one.value == v[i]
        assert np.array_equal(one.grad, g[i])
        assert np.array_equal(one.hess, h[i])


def test_row_independent_fault_names_row_zero():
    f = FE.parse("x1^2 + log(0-1)", n=2)
    X = np.random.default_rng(14).normal(size=(3000, 2))
    for order in (2, 0):
        with pytest.raises(DomainError, match="log of non-positive") as exc:
            f.jets(X, order=order)
        assert str(X[0].tolist()) in str(exc.value)


def test_row_dependent_fault_past_the_first_block_names_its_row():
    f = FE.parse("log(0.6-x1)", n=2)
    X = np.column_stack([np.linspace(0.0, 1.0, 40000), np.zeros(40000)])
    first = int(np.argmax(0.6 - X[:, 0] <= 0.0))
    # past the first block of a jet walk and of a value walk
    assert first > FE.VALUE_BLOCK_ROWS > FE.BLOCK_ROWS
    for order in (2, 0):
        with pytest.raises(DomainError, match="log of non-positive") as exc:
            f.jets(X, order=order)
        assert str(X[first].tolist()) in str(exc.value)


@pytest.mark.parametrize("text", [
    "exp(x1-x2)/log(x1+2)",
    "sqrt(x1^2+x2^2)*x2",
    "x1^(0-2)-x2^3",
    "x1^0.5+x1^x2",
    "x2*(0-x1)/(x1+1)",
    "log(x1)*x2^2-exp(0-x2)",
])
def test_value_walk_in_large_blocks_gives_the_same_bits(text):
    f = FE.parse(text, n=2)
    rng = np.random.default_rng(15)
    m = 2 * FE.VALUE_BLOCK_ROWS + 123          # three value blocks
    X = np.column_stack([rng.uniform(0.5, 2.0, m), rng.uniform(-1.0, 1.0, m)])
    X[::7, 1] = 0.0                            # signed zeros where x2 = 0
    values = f.jets(X, order=0)
    small = np.concatenate([FE._interpret(f.root, X[rows], 0)
                            for rows in FE.row_blocks(m)])
    jet_values = f.jets(X)[0]
    # bit for bit, the sign of zero included
    assert np.array_equal(values.view(np.int64), small.view(np.int64))
    assert np.array_equal(values.view(np.int64), jet_values.view(np.int64))


def test_field_jets_takes_the_four_kinds():
    X = np.array([[0.5, -1.0], [2.0, 3.0]])
    f = FE.parse("x1*x2", n=2)
    assert FE.field_jets(None, X, 0).tolist() == [0.0, 0.0]
    v, g, h = FE.field_jets(2.5, X)
    assert v.tolist() == [2.5, 2.5] and g.shape == (1, 2) and h.shape == (1, 2, 2)
    assert np.array_equal(FE.field_jets(f, X)[2], f.jets(X)[2])
    # a callable of one point gives values only, one call per row
    assert FE.field_jets(f.value, X, 0).tolist() == [-0.5, 6.0]
    assert [FE.field_kind(w) for w in (None, 2.5, f, f.value)] == \
        ["constant", "constant", "jets", "values"]


class _Jet2Only:
    def eval_jet2(self, x):
        return FE.parse("x1", n=1).eval_jet2(x)


class _ValueOnly:
    def value(self, x):
        return 1.0


@pytest.mark.parametrize("order", [2, 0])
@pytest.mark.parametrize("w, name", [(_Jet2Only(), "_Jet2Only"),
                                     (_ValueOnly(), "_ValueOnly"),
                                     ("x1", "str")])
def test_field_jets_rejects_other_objects(w, name, order):
    # no per-point eval_jet2 fallback and no .value lookup: the error
    # names the type, and field_kind raises it without evaluating
    with pytest.raises(TypeError, match=f"not a field: .* got {name}$"):
        FE.field_jets(w, np.zeros((3, 1)), order)
    with pytest.raises(TypeError, match=f"got {name}$"):
        FE.field_kind(w)


def test_field_jets_gives_a_callable_no_jets():
    calls = []
    with pytest.raises(TypeError, match="values only, no 2-jets; got function"):
        FE.field_jets(lambda x: calls.append(x) or 0.0, np.zeros((3, 1)))
    assert calls == []


# ---------------------------------------------------------------------------
# random trees parse back
# ---------------------------------------------------------------------------

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False).map(lambda v: FE.Num(abs(v))),
    st.integers(min_value=1, max_value=4).map(FE.Var),
)
_tree = st.recursive(
    _leaf,
    lambda children: st.one_of(
        st.builds(FE.BinOp, st.sampled_from("+-*/^"), children, children),
        st.builds(FE.Call, st.sampled_from(["exp", "log", "sqrt"]), children),
    ),
    max_leaves=25,
)


def _full_text(node):
    """``node`` as text with every operation in parentheses."""
    if isinstance(node, FE.Num):
        return repr(node.value)
    if isinstance(node, FE.Var):
        return f"x{node.index}"
    if isinstance(node, FE.Call):
        return f"{node.fn}({_full_text(node.arg)})"
    return f"({_full_text(node.left)}{node.op}{_full_text(node.right)})"


@settings(max_examples=300, deadline=None)
@given(_tree)
def test_fully_parenthesised_random_trees_parse_back(tree):
    assert FE.parse(_full_text(tree), n=4).root == tree


_number = st.floats(min_value=-1e3, max_value=1e3)
_expr = _tree.map(lambda tree: FE.ScalarFieldExpr(tree, 4))
_X4 = np.random.default_rng(16).uniform(-1.5, 1.5, size=(9, 4))


def _arrays(w, order):
    jets = FE.field_jets(w, _X4, order)
    return list(jets) if order else [jets]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.none(), _number, _expr), _number.filter(bool),
       st.one_of(_number, _expr), st.sampled_from([0, 2]))
def test_combined_weight_is_the_sum_of_its_parts(a, c, b, order):
    # a + c·b is one tree, and the interpreter's sum and product rules give
    # every bit of field_jets(a) + c·field_jets(b), up to the sign of zero;
    # a derivative keeps a leading axis of 1 when both parts' have one
    w = S._combine(a, c, b)
    try:
        parts = [_arrays(v, order) for v in (a, b)]
    except DomainError:
        with pytest.raises(DomainError):
            _arrays(w, order)
        return
    with np.errstate(all="ignore"):
        want = [u + c * v for u, v in zip(*parts)]
    if not all(np.isfinite(x).all() for x in want):
        with pytest.raises(DomainError):
            _arrays(w, order)
        return
    got = _arrays(w, order)
    assert [x.shape for x in got] == [x.shape for x in want]
    assert all(np.array_equal(x, y) for x, y in zip(got, want))


# ---------------------------------------------------------------------------
# composed defining-function ansatz
# ---------------------------------------------------------------------------

def _disk():
    r = FE.parse("x1^2+x2^2-1", n=2)
    phi = FE.parse("x1^2+x2^2", n=2)
    return r, phi


def test_compose_df_validation():
    r, phi = _disk()
    with pytest.raises(ValueError):
        FE.compose_df(r, phi, K=0.0, eta=0.5)
    with pytest.raises(ValueError):
        FE.compose_df(r, phi, K=1.0, eta=0.0)
    with pytest.raises(ValueError):
        FE.compose_df(r, phi, K=1.0, eta=1.2)
    with pytest.warns(UserWarning):
        FE.compose_df(r, phi, K=1.0, eta=1.0)


def test_compose_df_rejects_outside():
    r, phi = _disk()
    rho = FE.compose_df(r, phi, K=2.0, eta=0.5)
    with pytest.raises(DomainError):        # r = 0 on the boundary
        rho.eval_jet2([1.0, 0.0])
    with pytest.raises(DomainError):        # r > 0 outside
        rho.value([2.0, 0.0])


def test_compose_df_disk_center_hessian():
    # at the center of the unit disk with phi = |x|^2 the composed field has
    # value -1, zero gradient, and Hessian 2*eta*(1+K) * Id  (hand expansion)
    r, phi = _disk()
    for K, eta in [(1.0, 0.5), (2.0, 0.5), (3.0, 0.25), (0.5, 0.75)]:
        jet = FE.compose_df(r, phi, K=K, eta=eta).eval_jet2([0.0, 0.0])
        assert jet.value == pytest.approx(-1.0, abs=1e-14)
        np.testing.assert_allclose(jet.grad, 0.0, atol=1e-14)
        np.testing.assert_allclose(jet.hess, 2.0 * eta * (1.0 + K) * np.eye(2),
                                   atol=1e-12)


def test_compose_df_jet_matches_closed_formula():
    # independent route: with s = -r and t = s*exp(-K*phi),
    #   grad t = exp(-K*phi) * (grad s - K*s*grad phi)
    #   D2 t   = exp(-K*phi) * (D2 s - K (grad s ⊗ grad phi + sym) - K s D2 phi
    #                           + K^2 s grad phi ⊗ grad phi)
    # and rho = -t^eta gives
    #   D2 rho = -eta t^(eta-1) D2 t - eta (eta-1) t^(eta-2) grad t ⊗ grad t
    rng = np.random.default_rng(42)
    r, phi = _disk()
    K, eta = 2.5, 0.4
    rho = FE.compose_df(r, phi, K=K, eta=eta)
    for _ in range(50):
        x = rng.uniform(-0.6, 0.6, size=2)
        if r.value(x) >= -1e-3:
            continue
        jr, jp = r.eval_jet2(x), phi.eval_jet2(x)
        s, gs, hs = -jr.value, -jr.grad, -jr.hess
        e = math.exp(-K * jp.value)
        t = s * e
        gt = e * (gs - K * s * jp.grad)
        cross = np.outer(gs, jp.grad)
        ht = e * (hs - K * (cross + cross.T) - K * s * jp.hess
                  + K * K * s * np.outer(jp.grad, jp.grad))
        grad_rho = -eta * t ** (eta - 1.0) * gt
        hess_rho = (-eta * t ** (eta - 1.0) * ht
                    - eta * (eta - 1.0) * t ** (eta - 2.0) * np.outer(gt, gt))
        jet = rho.eval_jet2(x)
        assert jet.value == pytest.approx(-t ** eta, rel=1e-12)
        np.testing.assert_allclose(jet.grad, grad_rho, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(jet.hess, hess_rho, rtol=1e-9, atol=1e-10)


def test_compose_df_matches_sympy():
    r, phi = _disk()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rho = FE.compose_df(r, phi, K=1.5, eta=1.0)
    rho2 = FE.compose_df(r, phi, K=1.5, eta=0.3)
    rng = np.random.default_rng(5)
    for field in (rho, rho2):
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, size=2)
            val, g, h = sympy_jet(field, x)
            assert_jet_close(field.eval_jet2(x), val, g, h, 1e-12)
