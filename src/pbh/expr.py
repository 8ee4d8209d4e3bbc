"""Closed-form scalar expressions over chart coordinates.

Expressions are immutable trees built from coordinates (``x1 .. xd``, with
``y1 .. yd`` accepted as an alias spelling for codomain charts), named real
parameters, real literals, the arithmetic operators ``+ - * / ^`` (``^`` takes
a coordinate-free exponent) and the functions ``sqrt exp log sin cos neg``
plus the two-argument ``abspow(u, q)`` for ``|u|^q``.

They evaluate over any scalar type supported by :mod:`pbh.jets` (floats or
jets) and are closed under exact symbolic differentiation. The only rewriting
ever performed is constant folding and the unit/zero identities that come
with it; no canonicalization is attempted.
"""

from __future__ import annotations

import math
import re

from . import jets
from .errors import ExprSyntaxError, UnknownIdentifierError
from .jets import lift_point

__all__ = [
    "Expression", "parse", "differentiate", "eval_jet",
]


class Expression:
    """Base node. Subclasses implement `_eval`, `_diff`, `_subst`, `to_string`."""

    __slots__ = ("_dcache",)

    PRECEDENCE = 0

    def evaluate(self, coords=(), params=None, memo=None):
        """Value at `coords` (floats or jets) with parameter bindings `params`.

        `memo` may share subtree values across evaluations at the same point.
        """
        return self._eval(coords, params or {}, {} if memo is None else memo)

    def _eval(self, coords, params, memo):
        # derivative trees share subtree objects; memoizing on node identity
        # keeps evaluation linear in the number of distinct nodes. Keys are the
        # nodes themselves (nodes hash by identity): no int per entry, and a
        # node cannot be freed and its address reused while a memo holds it.
        v = memo.get(self)
        if v is None:
            v = self._compute(coords, params, memo)
            memo[self] = v
        return v

    def diff(self, i: int) -> "Expression":
        """Exact partial derivative with respect to coordinate i (cached)."""
        cache = getattr(self, "_dcache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_dcache", cache)
        d = cache.get(i)
        if d is None:
            d = self._diff(i)
            cache[i] = d
        return d

    def substitute(self, replacements) -> "Expression":
        """Expression with Coord(i) replaced by replacements[i] (composition)."""
        return self._subst(list(replacements))

    def has_coords(self) -> bool:
        return any(isinstance(n, Coord) for n in self.walk())

    def max_coord_index(self) -> int:
        idx = [n.index for n in self.walk() if isinstance(n, Coord)]
        return max(idx) if idx else -1

    def params_used(self) -> set:
        return {n.name for n in self.walk() if isinstance(n, Param)}

    def walk(self):
        """Every node, in pre-order (a node, then each child's subtree in turn)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node._children()))

    def _children(self):
        return ()

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"<expr {self.to_string()}>"

    # builder sugar so geometric code can assemble trees naturally
    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return sub(self, _as_expr(other))

    def __rsub__(self, other):
        return sub(_as_expr(other), self)

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return div(_as_expr(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, other):
        return pow_(self, _as_expr(other))


def _as_expr(x):
    if isinstance(x, Expression):
        return x
    return Const(float(x))


class Const(Expression):
    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", float(value))

    def _eval(self, coords, params, memo):
        return self.value

    def _diff(self, i):
        return _ZERO

    def _subst(self, repl):
        return self

    def to_string(self, prec=0):
        if self.value < 0:
            return f"neg({-self.value!r})"
        return repr(self.value)


class Coord(Expression):
    __slots__ = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", int(index))

    def _eval(self, coords, params, memo):
        return coords[self.index]

    def _diff(self, i):
        return _ONE if i == self.index else _ZERO

    def _subst(self, repl):
        return repl[self.index]

    def to_string(self, prec=0):
        return f"x{self.index + 1}"


class Param(Expression):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def _eval(self, coords, params, memo):
        try:
            return params[self.name]
        except KeyError:
            raise UnknownIdentifierError(f"parameter '{self.name}' has no bound value") from None

    def _diff(self, i):
        return _ZERO

    def _subst(self, repl):
        return self

    def to_string(self, prec=0):
        return self.name


class _Unary(Expression):
    __slots__ = ("arg",)

    FUNC = ""

    def __init__(self, arg: Expression):
        object.__setattr__(self, "arg", arg)

    def _children(self):
        return (self.arg,)

    def to_string(self, prec=0):
        return f"{self.FUNC}({self.arg.to_string()})"


class Neg(_Unary):
    __slots__ = ()
    FUNC = "neg"

    def _compute(self, coords, params, memo):
        return -self.arg._eval(coords, params, memo)

    def _diff(self, i):
        return neg(self.arg.diff(i))

    def _subst(self, repl):
        return neg(self.arg._subst(repl))


class Sqrt(_Unary):
    __slots__ = ()
    FUNC = "sqrt"

    def _compute(self, coords, params, memo):
        return jets.sqrt(self.arg._eval(coords, params, memo))

    def _diff(self, i):
        return div(self.arg.diff(i), mul(Const(2.0), self))

    def _subst(self, repl):
        return sqrt_(self.arg._subst(repl))


class Exp(_Unary):
    __slots__ = ()
    FUNC = "exp"

    def _compute(self, coords, params, memo):
        return jets.exp(self.arg._eval(coords, params, memo))

    def _diff(self, i):
        return mul(self, self.arg.diff(i))

    def _subst(self, repl):
        return exp_(self.arg._subst(repl))


class Log(_Unary):
    __slots__ = ()
    FUNC = "log"

    def _compute(self, coords, params, memo):
        return jets.log(self.arg._eval(coords, params, memo))

    def _diff(self, i):
        return div(self.arg.diff(i), self.arg)

    def _subst(self, repl):
        return log_(self.arg._subst(repl))


class Sin(_Unary):
    __slots__ = ()
    FUNC = "sin"

    def _compute(self, coords, params, memo):
        return jets.sin(self.arg._eval(coords, params, memo))

    def _diff(self, i):
        return mul(cos_(self.arg), self.arg.diff(i))

    def _subst(self, repl):
        return sin_(self.arg._subst(repl))


class Cos(_Unary):
    __slots__ = ()
    FUNC = "cos"

    def _compute(self, coords, params, memo):
        return jets.cos(self.arg._eval(coords, params, memo))

    def _diff(self, i):
        return neg(mul(sin_(self.arg), self.arg.diff(i)))

    def _subst(self, repl):
        return cos_(self.arg._subst(repl))


class _Binary(Expression):
    __slots__ = ("left", "right")

    OP = ""
    PRECEDENCE = 0

    def __init__(self, left: Expression, right: Expression):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def _children(self):
        return (self.left, self.right)

    def to_string(self, prec=0):
        lp = self.left.to_string(self.PRECEDENCE)
        # - and / need a stronger right side to reparse identically
        rp = self.right.to_string(self.PRECEDENCE + (0 if self.OP in "+*" else 1))
        s = f"{lp} {self.OP} {rp}"
        if prec > self.PRECEDENCE:
            return f"({s})"
        return s


class Add(_Binary):
    __slots__ = ()
    OP = "+"
    PRECEDENCE = 1

    def _compute(self, coords, params, memo):
        return self.left._eval(coords, params, memo) + self.right._eval(coords, params, memo)

    def _diff(self, i):
        return add(self.left.diff(i), self.right.diff(i))

    def _subst(self, repl):
        return add(self.left._subst(repl), self.right._subst(repl))


class Sub(_Binary):
    __slots__ = ()
    OP = "-"
    PRECEDENCE = 1

    def _compute(self, coords, params, memo):
        return self.left._eval(coords, params, memo) - self.right._eval(coords, params, memo)

    def _diff(self, i):
        return sub(self.left.diff(i), self.right.diff(i))

    def _subst(self, repl):
        return sub(self.left._subst(repl), self.right._subst(repl))


class Mul(_Binary):
    __slots__ = ()
    OP = "*"
    PRECEDENCE = 2

    def _compute(self, coords, params, memo):
        return self.left._eval(coords, params, memo) * self.right._eval(coords, params, memo)

    def _diff(self, i):
        return add(mul(self.left.diff(i), self.right), mul(self.left, self.right.diff(i)))

    def _subst(self, repl):
        return mul(self.left._subst(repl), self.right._subst(repl))


class Div(_Binary):
    __slots__ = ()
    OP = "/"
    PRECEDENCE = 2

    def _compute(self, coords, params, memo):
        return self.left._eval(coords, params, memo) / self.right._eval(coords, params, memo)

    def _diff(self, i):
        num = sub(mul(self.left.diff(i), self.right), mul(self.left, self.right.diff(i)))
        return div(num, mul(self.right, self.right))

    def _subst(self, repl):
        return div(self.left._subst(repl), self.right._subst(repl))


class Pow(Expression):
    """base ^ exponent with a coordinate-free exponent expression."""

    __slots__ = ("base", "exponent")

    PRECEDENCE = 3

    def __init__(self, base: Expression, exponent: Expression):
        if exponent.has_coords():
            raise ExprSyntaxError("exponent must be coordinate-free", 0)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)

    def _children(self):
        return (self.base, self.exponent)

    def _compute(self, coords, params, memo):
        q = self.exponent._eval((), params, memo)
        return jets.powr(self.base._eval(coords, params, memo), q)

    def _diff(self, i):
        qm1 = sub(self.exponent, _ONE)
        return mul(mul(self.exponent, pow_(self.base, qm1)), self.base.diff(i))

    def _subst(self, repl):
        return pow_(self.base._subst(repl), self.exponent)

    def to_string(self, prec=0):
        b = self.base.to_string(self.PRECEDENCE + 1)
        e = self.exponent
        if isinstance(e, Const) and e.value >= 0:
            es = repr(e.value)
        else:
            es = f"({e.to_string()})"
        s = f"{b}^{es}"
        if prec > self.PRECEDENCE:
            return f"({s})"
        return s


class AbsPow(Expression):
    """|arg| ^ exponent, smooth away from arg = 0."""

    __slots__ = ("arg", "exponent")

    def __init__(self, arg: Expression, exponent: Expression):
        if exponent.has_coords():
            raise ExprSyntaxError("abspow exponent must be coordinate-free", 0)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "exponent", exponent)

    def _children(self):
        return (self.arg, self.exponent)

    def _compute(self, coords, params, memo):
        q = self.exponent._eval((), params, memo)
        return jets.abspow(self.arg._eval(coords, params, memo), q)

    def _diff(self, i):
        # d|u|^q = q |u|^(q-2) u du, valid away from u = 0
        qm2 = sub(self.exponent, Const(2.0))
        return mul(mul(self.exponent, mul(abspow_(self.arg, qm2), self.arg)), self.arg.diff(i))

    def _subst(self, repl):
        return abspow_(self.arg._subst(repl), self.exponent)

    def to_string(self, prec=0):
        return f"abspow({self.arg.to_string()}, {self.exponent.to_string()})"


_ZERO = Const(0.0)
_ONE = Const(1.0)


def _const_of(e):
    return e.value if isinstance(e, Const) else None


# ---------------------------------------------------------------------- #
# smart constructors: constant folding plus the 0/1 identities
# ---------------------------------------------------------------------- #

def add(a, b):
    ca, cb = _const_of(a), _const_of(b)
    if ca is not None and cb is not None:
        return Const(ca + cb)
    if ca == 0.0:
        return b
    if cb == 0.0:
        return a
    return Add(a, b)


def sub(a, b):
    ca, cb = _const_of(a), _const_of(b)
    if ca is not None and cb is not None:
        return Const(ca - cb)
    if cb == 0.0:
        return a
    if ca == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    ca, cb = _const_of(a), _const_of(b)
    if ca is not None and cb is not None:
        return Const(ca * cb)
    if ca == 0.0 or cb == 0.0:
        return _ZERO
    if ca == 1.0:
        return b
    if cb == 1.0:
        return a
    return Mul(a, b)


def div(a, b):
    ca, cb = _const_of(a), _const_of(b)
    if cb is not None:
        if cb == 0.0:
            raise ZeroDivisionError("constant division by zero in expression")
        if ca is not None:
            return Const(ca / cb)
        if cb == 1.0:
            return a
    return Div(a, b)


def neg(a):
    ca = _const_of(a)
    if ca is not None:
        return Const(-ca)
    return Neg(a)


def sqrt_(a):
    ca = _const_of(a)
    if ca is not None:
        return Const(jets.sqrt(ca))
    return Sqrt(a)


def exp_(a):
    ca = _const_of(a)
    if ca is not None:
        return Const(math.exp(ca))
    return Exp(a)


def log_(a):
    ca = _const_of(a)
    if ca is not None:
        return Const(jets.log(ca))
    return Log(a)


def sin_(a):
    ca = _const_of(a)
    if ca is not None:
        return Const(math.sin(ca))
    return Sin(a)


def cos_(a):
    ca = _const_of(a)
    if ca is not None:
        return Const(math.cos(ca))
    return Cos(a)


def pow_(a, q):
    cq = _const_of(q)
    if cq == 0.0:
        return _ONE
    if cq == 1.0:
        return a
    ca = _const_of(a)
    if ca is not None and cq is not None:
        return Const(jets.powr(ca, cq))
    return Pow(a, q)


def abspow_(a, q):
    ca, cq = _const_of(a), _const_of(q)
    if ca is not None and cq is not None:
        return Const(jets.abspow(ca, cq))
    return AbsPow(a, q)


def differentiate(e: Expression, coord_index: int) -> Expression:
    """Exact symbolic partial derivative of `e` with respect to a coordinate."""
    return e.diff(coord_index)


def eval_jet(e: Expression, point, order: int):
    """Evaluate `e` at the float `point` lifted to jets of total order `order`
    (every coordinate a jet variable). The result's coefficient for a
    multi-index alpha is the corresponding mixed partial of `e` divided by
    alpha!.
    """
    return e.evaluate(lift_point(point, order))


# ---------------------------------------------------------------------- #
# parser
# ---------------------------------------------------------------------- #

_TOKEN_RE = re.compile(r"""
    (?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)

_FUNCS = {"sqrt": sqrt_, "exp": exp_, "log": log_, "sin": sin_, "cos": cos_, "neg": neg}
_COORD_RE = re.compile(r"^[xy](\d+)$")
# `_eval` and `diff` recurse per level, and second derivatives of a quotient chain
# are 5x as tall: height 64 evaluates with 150 frames of callers below, 72 does not
_MAX_HEIGHT = 64


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, dim: int, params):
        self.text = text
        self.dim = dim
        self.params = set(params)
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text):
        kind, value, pos = self.next()
        if value != text:
            raise ExprSyntaxError(f"expected {text!r}, found {value!r}", pos)

    def parse(self) -> Expression:
        e = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing token {value!r}", pos)
        return e

    def expr(self) -> Expression:
        e = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expression:
        e = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self) -> Expression:
        e = self.base()
        if self.peek()[1] == "^":
            self.next()
            q = self.exponent()
            kind, value, pos = self.peek()
            if not q.has_coords():
                return pow_(e, q)
            raise ExprSyntaxError("exponent must be coordinate-free", pos)
        return e

    def exponent(self) -> Expression:
        kind, value, pos = self.peek()
        if value == "-":
            self.next()
            kind, value, pos = self.next()
            if kind != "number":
                raise ExprSyntaxError("expected a number after '-' in exponent", pos)
            return Const(-float(value))
        if kind == "number":
            self.next()
            return Const(float(value))
        if value == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if kind == "ident":
            return self.base()
        raise ExprSyntaxError(f"bad exponent token {value!r}", pos)

    def base(self) -> Expression:
        kind, value, pos = self.next()
        if kind == "number":
            return Const(float(value))
        if value == "-":
            return neg(self.base())
        if value == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "ident":
            if self.peek()[1] == "(":
                return self.call(value, pos)
            return self.name(value, pos)
        raise ExprSyntaxError(f"unexpected token {value!r}", pos)

    def call(self, name, pos) -> Expression:
        self.expect("(")
        first = self.expr()
        if name == "abspow":
            self.expect(",")
            q = self.expr()
            self.expect(")")
            if q.has_coords():
                raise ExprSyntaxError("abspow exponent must be coordinate-free", pos)
            return abspow_(first, q)
        if name not in _FUNCS:
            raise UnknownIdentifierError(f"unknown function '{name}' at position {pos}")
        if self.peek()[1] == ",":
            raise ExprSyntaxError(f"function '{name}' takes one argument", self.peek()[2])
        self.expect(")")
        return _FUNCS[name](first)

    def name(self, ident, pos) -> Expression:
        m = _COORD_RE.match(ident)
        if m:
            index = int(m.group(1)) - 1
            if not 0 <= index < self.dim:
                raise UnknownIdentifierError(
                    f"coordinate '{ident}' out of range for dimension {self.dim}")
            return Coord(index)
        if ident in self.params:
            return Param(ident)
        raise UnknownIdentifierError(f"unknown identifier '{ident}' at position {pos}")


def parse(text: str, dim: int, params=()) -> Expression:
    """Parse expression text over a chart of dimension `dim` with declared parameter names;
    a tree taller than `_MAX_HEIGHT` (a sum of n terms is n tall) is an ExprSyntaxError."""
    parser = _Parser(text, dim, params)
    try:
        e = parser.parse()
    except RecursionError:
        # the parser recurses once per nesting level
        pos = parser.tokens[min(parser.i, len(parser.tokens) - 1)][2]
        raise ExprSyntaxError("expression nests too deeply", pos) from None
    level = [e]
    for _ in range(_MAX_HEIGHT):
        level = [ch for node in level for ch in node._children()]
    if level:
        raise ExprSyntaxError("expression nests too deeply", 0)
    return e
