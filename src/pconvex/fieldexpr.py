"""Scalar-field expressions: a tiny closed language with exact 2-jets.

Weights and defining functions enter the package as text in a deliberately
small grammar::

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := base ('^' factor)?            # '^' right-associative
    base    := NUMBER | VAR | '(' expr ')' | FUNC '(' expr ')'
    FUNC    := exp | log | sqrt
    VAR     := x1, x2, ...                   # 1-based coordinates

Unary minus is sugar for ``0 - e``.  Parsing produces an immutable AST;
:func:`to_text` serializes it back so that ``parse(to_text(e))`` reproduces
the tree node-for-node (for parser-produced trees; hand-built negative
literals serialize through the unary-minus sugar and so re-parse to the
sugared tree).

Evaluation is batched second-order forward mode.  :meth:`ScalarFieldExpr.jets`
takes points ``X`` of shape ``(m, n)`` and returns values ``(m,)``,
gradients ``(m, n)`` and dense symmetric Hessians ``(m, n, n)`` (or the
values alone), so Hessians are exact, not differenced.  A gradient or
Hessian that does not depend on the row keeps a leading axis of 1 instead
of m: ``x1^2+x2^2`` gives a ``(1, n, n)`` Hessian and ``0.3*x1+0.3*x2`` a
``(1, n)`` gradient, and consumers broadcast where they need one row per
point.  One interpreter walks the tree once per block of :data:`BLOCK_ROWS`
rows (:data:`VALUE_BLOCK_ROWS` for values alone), carrying numpy arrays; it
drops derivatives that are identically zero, so a value-only walk does no
derivative arithmetic.  The layout depends only on the tree, so the first
block of several rows shows it for every block.
Integer powers are expanded by repeated multiplication (valid for
negative bases); everything else routes through ``exp``/``log`` with strict
domain checks that surface as :class:`~pconvex.errors.DomainError` naming
the first offending point in row order.  ``value(x)`` and ``eval_jet2(x)``
are one-row wrappers over the same interpreter.

:func:`field_jets` evaluates every weight, potential and defining function
of the package.  A field is ``None`` (zero), a real number, an object with
a batched ``jets(X, order)``, or a plain callable of one point (values only).
"""

from __future__ import annotations

import math
import numbers
import re
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import (ArityError, DomainError, ParseError, UnknownVariable,
                     raise_first)

__all__ = [
    "Jet2",
    "Num",
    "Var",
    "BinOp",
    "Call",
    "ScalarFieldExpr",
    "BatchedField",
    "field_jets",
    "field_kind",
    "row_blocks",
    "parse",
    "to_text",
    "compose_df",
]

_FUNCS = ("exp", "log", "sqrt")
_MAX_INT_POW = 512

#: Rows interpreted per block of a jet walk.  Temporaries scale with the
#: block, not the point set, so evaluating 10^5 points costs a few MiB of
#: memory at most.  Value walks carry no derivatives and take 16 times more.
BLOCK_ROWS = 1024
VALUE_BLOCK_ROWS = 16 * BLOCK_ROWS


@dataclass
class Jet2:
    """Value, gradient, and dense symmetric Hessian at a point."""

    value: float
    grad: np.ndarray
    hess: np.ndarray


def row_blocks(m: int, size: int = BLOCK_ROWS):
    """Slices covering ``range(m)`` in consecutive blocks of ``size``."""
    return [slice(s, s + size) for s in range(0, m, size)]


def _outer(a, b):
    """Row-wise outer products of two gradient stacks; None (identically
    zero) when either is."""
    return None if a is None or b is None else a[:, :, None] * b[:, None, :]


def _times(c, a):
    """The derivative stack ``a`` times one factor per row, ``c``."""
    return None if a is None else c.reshape(c.shape + (1,) * (a.ndim - 1)) * a


def _over(a, c):
    return None if a is None else a / c.reshape(c.shape + (1,) * (a.ndim - 1))


def _t(a):
    return None if a is None else a.transpose(0, 2, 1)


def _add(a, b):
    return a if b is None else b if a is None else a + b


def _sub(a, b):
    return a if b is None else -b if a is None else a - b


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int            # 1-based


@dataclass(frozen=True)
class BinOp:
    op: str               # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str               # exp | log | sqrt
    arg: "Node"


Node = Union[Num, Var, BinOp, Call]


def _max_var(node: Node) -> int:
    if isinstance(node, Var):
        return node.index
    if isinstance(node, BinOp):
        return max(_max_var(node.left), _max_var(node.right))
    if isinstance(node, Call):
        return _max_var(node.arg)
    return 0


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),])"
    r")")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == m.start():
            # skip pure whitespace tail
            rest = text[pos:]
            if rest.strip() == "":
                break
            offset = pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {text[offset]!r}", offset)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: Optional[int]):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.declared_n = n

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind == "op" and val == op:
            return self.advance()
        raise ParseError(f"expected {op!r}", off)

    # grammar ------------------------------------------------------------
    def parse_expr(self) -> Node:
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            node: Node = BinOp("-", Num(0.0), self.parse_term())
        else:
            node = self.parse_term()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(val, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> Node:
        node = self.parse_base()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return BinOp("^", node, self.parse_factor())
        return node

    def parse_base(self) -> Node:
        kind, val, off = self.advance()
        if kind == "num":
            value = float(val)
            if not math.isfinite(value):
                raise ParseError(f"numeric literal {val!r} overflows", off)
            return Num(value)
        if kind == "name":
            if val in _FUNCS:
                self.expect_op("(")
                nkind, nval, noff = self.peek()
                if nkind == "op" and nval == ")":
                    raise ArityError(f"{val} expects exactly one argument, got 0", noff)
                arg = self.parse_expr()
                nkind, nval, noff = self.peek()
                if nkind == "op" and nval == ",":
                    raise ArityError(f"{val} expects exactly one argument", noff)
                self.expect_op(")")
                return Call(val, arg)
            m = re.fullmatch(r"x([1-9][0-9]*)", val)
            if m:
                index = int(m.group(1))
                if self.declared_n is not None and index > self.declared_n:
                    raise UnknownVariable(
                        f"variable {val} exceeds declared dimension {self.declared_n}", off)
                return Var(index)
            if re.fullmatch(r"x[0-9]*", val):
                raise UnknownVariable(
                    f"{val!r} is not a valid variable (variables are x1, x2, ...)", off)
            raise ParseError(f"unknown identifier {val!r}", off)
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"expected a number, variable, function, or '('", off)


def parse(text: str, n: Optional[int] = None) -> "ScalarFieldExpr":
    """Parse expression text into a :class:`ScalarFieldExpr`.

    ``n`` declares the ambient dimension; omitted, it is inferred as the
    largest variable index used (at least 1).  Variables beyond a declared
    ``n`` raise :class:`UnknownVariable`.
    """
    parser = _Parser(text, n)
    root = parser.parse_expr()
    kind, val, off = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", off)
    dim = n if n is not None else max(_max_var(root), 1)
    return ScalarFieldExpr(root=root, n=dim)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}
_ATOM = 4


def _prec(node: Node) -> int:
    return _PREC[node.op] if isinstance(node, BinOp) else _ATOM


def _node_text(node: Node) -> str:
    if isinstance(node, Num):
        if node.value < 0 or (node.value == 0.0 and math.copysign(1.0, node.value) < 0):
            return f"(0-{repr(-node.value)})"
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Call):
        return f"{node.fn}({_node_text(node.arg)})"
    op = node.op
    lt, rt = _node_text(node.left), _node_text(node.right)
    if op in "+-":
        if _prec(node.right) <= 1:
            rt = f"({rt})"
        return f"{lt}{op}{rt}"
    if op in "*/":
        if _prec(node.left) < 2:
            lt = f"({lt})"
        if _prec(node.right) <= 2:
            rt = f"({rt})"
        return f"{lt}{op}{rt}"
    # '^': base must be an atom; exponent is a factor
    if _prec(node.left) < _ATOM:
        lt = f"({lt})"
    if _prec(node.right) < 3:
        rt = f"({rt})"
    return f"{lt}^{rt}"


def to_text(obj: Union[Node, "ScalarFieldExpr"]) -> str:
    """Serialize an AST (or field) to grammar text; inverse of :func:`parse`."""
    node = obj.root if isinstance(obj, ScalarFieldExpr) else obj
    return _node_text(node)


# ---------------------------------------------------------------------------
# the batched interpreter
# ---------------------------------------------------------------------------

class _Block:
    """One block of rows under interpretation.

    A jet is a ``(value, grad, hess)`` triple.  Each part has leading axis
    ``m`` (the block's rows) or 1 when it does not depend on the row, and a
    derivative that is identically zero is ``None``: a constant is
    ``((1,), None, None)`` and ``x_i`` is ``((m,), e_i of shape (1, n),
    None)``.  So ``x1^2+x2^2`` carries a ``(1, n, n)`` Hessian and builds no
    stack of outer products, and a value-only walk (``order=0``, where every
    variable has gradient ``None``) does no derivative arithmetic at all.
    Broadcasting a part to ``m`` rows gives the bits of carrying it per row,
    up to the sign of an exact zero where a zero term is dropped.

    A row that leaves the domain is recorded rather than raised at once, so
    that the error can name the first bad row whichever node it failed at;
    the rows that follow it carry NaN harmlessly.  A fault of a
    row-independent part fails every row, so it names row 0.
    """

    def __init__(self, X: np.ndarray, order: int):
        self.X = X
        self.order = order
        self.bad = np.zeros(X.shape[0], dtype=bool)
        self.faults = []          # (rows first failing here, message, operand)

    def fault(self, mask, message: str, operand=None) -> None:
        new = mask & ~self.bad
        if new.any():
            self.bad |= new
            self.faults.append((new, message, operand))

    def message(self, i: int) -> str:
        """The fault of bad row ``i``, with its operand there."""
        for rows, message, operand in self.faults:
            if rows[i]:
                return message if operand is None else message.format(
                    float(np.broadcast_to(operand, rows.shape)[i]))

    @staticmethod
    def const(c: float):
        return np.full(1, c), None, None

    def run(self, node: Node):
        if isinstance(node, Num):
            return self.const(node.value)
        if isinstance(node, Var):
            i = node.index - 1
            g = np.eye(self.X.shape[1])[i:i + 1] if self.order else None
            return self.X[:, i], g, None
        if isinstance(node, Call):
            return getattr(self, node.fn)(self.run(node.arg))
        left = self.run(node.left)
        if node.op == "^":
            if (isinstance(node.right, Num)
                    and float(node.right.value).is_integer()
                    and abs(node.right.value) <= _MAX_INT_POW):
                return self.powi(left, int(node.right.value))
            right = self.run(node.right)
            self.fault(left[0] <= 0.0,
                       "fractional/variable power of non-positive base {!r}",
                       left[0])
            return self.exp(self.mul(right, self.log(left)))
        right = self.run(node.right)
        (lv, lg, lh), (rv, rg, rh) = left, right
        if node.op == "+":
            return lv + rv, _add(lg, rg), _add(lh, rh)
        if node.op == "-":
            return lv - rv, _sub(lg, rg), _sub(lh, rh)
        if node.op == "*":
            return self.mul(left, right)
        return self.div(left, right)

    def mul(self, a, b):
        (av, ag, ah), (bv, bg, bh) = a, b
        outer = _outer(ag, bg)
        hess = _add(_add(_times(av, bh), _times(bv, ah)), outer)
        return (av * bv, _add(_times(av, bg), _times(bv, ag)),
                _add(hess, _t(outer)))

    def div(self, a, b):
        (av, ag, ah), (bv, bg, bh) = a, b
        self.fault(bv == 0.0, "division by zero")
        q = av / bv
        gq = _over(_sub(ag, _times(q, bg)), bv)
        cross = _outer(gq, bg)
        return q, gq, _over(_sub(_sub(_sub(ah, cross), _t(cross)),
                                 _times(q, bh)), bv)

    def powi(self, a, k: int):
        """Integer power by repeated multiplication (negative bases allowed)."""
        if k == 0:
            return self.const(1.0)
        if k < 0:
            self.fault(a[0] == 0.0, "zero base with negative exponent")
            return self.div(self.const(1.0), self.powi(a, -k))
        out = a
        for _ in range(k - 1):
            out = self.mul(out, a)
        return out

    def exp(self, a):
        av, ag, ah = a
        e = np.exp(av)
        self.fault(np.isinf(e) & np.isfinite(av),
                   "exp overflow at argument {!r}", av)
        return e, _times(e, ag), _times(e, _add(ah, _outer(ag, ag)))

    def log(self, a):
        av, ag, ah = a
        self.fault(av <= 0.0, "log of non-positive value {!r}", av)
        if ag is None:
            return np.log(av), None, None
        return (np.log(av), _over(ag, av),
                _sub(_over(ah, av), _over(_outer(ag, ag), av**2)))

    def sqrt(self, a):
        av, ag, ah = a
        self.fault(av <= 0.0, "sqrt of non-positive value {!r} "
                   "(jets are singular at 0)", av)
        s = np.sqrt(av)
        if ag is None:
            return s, None, None
        return (s, _over(ag, 2.0 * s),
                _sub(_over(ah, 2.0 * s), _over(_outer(ag, ag), 4.0 * s**3)))


def _interpret(root: Node, X: np.ndarray, order: int):
    """Values ``(m,)``, or values with gradients and Hessians whose leading
    axis is ``m`` or 1, at the rows of one block ``X``."""
    m, n = X.shape
    block = _Block(X, order)
    with np.errstate(all="ignore"):
        v, g, h = block.run(root)
        finite = np.isfinite(v)
        for d in (g, h):
            if d is not None:
                finite = finite & np.isfinite(d).reshape(len(d), -1).all(axis=1)
    block.fault(~finite, "evaluation produced a non-finite "
                + ("jet" if order else "value"))
    raise_first(DomainError, block.bad, X, block.message)
    if len(v) != m:
        v = np.full(m, v[0])
    if not order:
        return v
    return (v, np.zeros((1, n)) if g is None else g,
            np.zeros((1, n, n)) if h is None else h)


def _join(parts):
    """One array from the per-block ones.  With several blocks the first
    is full, so a leading axis of 1 there means the part does not depend on
    the row, and it is the same in every block."""
    if len(parts) > 1 and len(parts[0]) == 1:
        return parts[0]
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# the public field type and the one coercion helper
# ---------------------------------------------------------------------------

def _one_row(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"point has shape {x.shape}, expected a flat vector")
    return x[None, :]


class BatchedField:
    """Point access for a field whose ``jets(X, order)`` is batched.

    ``value(x)`` and ``eval_jet2(x)`` evaluate one point as a batch of one
    row.  That costs far more per point than one batched call over many
    points, so code inside the package never loops over them.
    """

    def eval_jet2(self, x) -> Jet2:
        """Exact value/gradient/Hessian at the single point ``x``."""
        v, g, h = self.jets(_one_row(x))
        return Jet2(float(v[0]), g[0], h[0])

    def value(self, x) -> float:
        """Value at the single point ``x`` (same domain rules as the jet)."""
        return float(self.jets(_one_row(x), order=0)[0])

    __call__ = value


@dataclass(frozen=True)
class ScalarFieldExpr(BatchedField):
    """An immutable scalar field over R^n defined by an expression tree."""

    root: Node
    n: int

    def __post_init__(self):
        used = _max_var(self.root)
        if used > self.n:
            raise UnknownVariable(
                f"expression uses x{used} but n = {self.n}", 0)

    def jets(self, X, order: int = 2):
        """Exact 2-jets at the rows of ``X`` (shape ``(m, n)``).

        Returns values ``(m,)``, gradients ``(m, n)`` or ``(1, n)`` and
        Hessians ``(m, n, n)`` or ``(1, n, n)``: a leading axis of 1 means
        the array does not depend on the row (the Hessian of a quadratic,
        the gradient of a linear field), so broadcasting it over the rows
        gives every row's derivative.  With ``order=0`` the values alone,
        which skips the derivative work, checks only that values are finite
        and walks :data:`VALUE_BLOCK_ROWS` rows at a time.  A row outside
        the field's domain raises :class:`~pconvex.errors.DomainError`
        naming the first such point.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(
                f"points have shape {X.shape}, expected (m, {self.n})")
        size = BLOCK_ROWS if order else VALUE_BLOCK_ROWS
        parts = [_interpret(self.root, X[rows], order)
                 for rows in row_blocks(max(X.shape[0], 1), size)]
        if not order:
            return _join(parts)
        return tuple(_join(p) for p in zip(*parts))

    # Also bound in this class's own namespace: the benchmark's tracer
    # (bench/spans.py) wraps these three names through vars(ScalarFieldExpr).
    eval_jet2 = BatchedField.eval_jet2
    value = BatchedField.value
    __call__ = BatchedField.value

    def to_text(self) -> str:
        return to_text(self.root)


def field_kind(w) -> str:
    """``"constant"``, ``"jets"`` or ``"values"``: the kind of the field
    ``w``, found without evaluating it; anything else raises TypeError."""
    if w is None or isinstance(w, numbers.Real):
        return "constant"
    if hasattr(w, "jets"):
        return "jets"
    if callable(w):
        return "values"
    raise TypeError("not a field: field_jets evaluates None, a real number, "
                    "an object with jets(X, order) or a callable of one "
                    f"point; got {type(w).__name__}")


def field_jets(w, X, order: int = 2):
    """Values (``order=0``) or 2-jets of the field ``w`` at the rows of
    ``X``, in the layout of :meth:`ScalarFieldExpr.jets`: values have
    leading axis m, derivatives m or 1.  A constant's derivatives are one
    zero row; a plain callable is called once per row and has no 2-jets."""
    kind = field_kind(w)
    X = np.asarray(X, dtype=np.float64)
    m, n = X.shape
    if kind == "jets":
        return w.jets(X, order)
    if kind == "constant":
        v = np.full(m, 0.0 if w is None else float(w))
        return v if not order else (v, np.zeros((1, n)), np.zeros((1, n, n)))
    if order:
        raise TypeError("a callable field has values only, no 2-jets; got "
                        f"{type(w).__name__}")
    return np.fromiter((float(w(x)) for x in X), dtype=np.float64, count=m)


# ---------------------------------------------------------------------------
# composed defining-function ansatz
# ---------------------------------------------------------------------------

def compose_df(r: ScalarFieldExpr, phi: ScalarFieldExpr,
               K: float, eta: float) -> ScalarFieldExpr:
    """Build ``rho = -(-r * exp(-K*phi))^eta`` as an expression tree.

    ``K`` must be positive and finite, ``eta`` in ``(0, 1]``; ``eta = 1`` is
    accepted but degenerate (the power becomes linear) and warns.
    Evaluation is only defined where ``r < 0`` — at ``r = 0`` the fractional
    power's jet is singular and evaluation raises
    :class:`~pconvex.errors.DomainError`.
    """
    K = float(K)
    eta = float(eta)
    if not 0.0 < K < math.inf:
        raise ValueError(f"K must be positive and finite, got {K}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    if eta == 1.0:
        warnings.warn("eta = 1 makes the composed exponent linear (degenerate case)",
                      stacklevel=2)
    inner = BinOp("*",
                  BinOp("-", Num(0.0), r.root),
                  Call("exp", BinOp("-", Num(0.0), BinOp("*", Num(K), phi.root))))
    root = BinOp("-", Num(0.0), BinOp("^", inner, Num(eta)))
    return ScalarFieldExpr(root=root, n=max(r.n, phi.n))
