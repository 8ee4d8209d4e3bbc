"""Closed-form scalar expressions over chart coordinates.

Expressions are immutable trees built from coordinates (``x1 .. xd``, with
``y1 .. yd`` accepted as an alias spelling for codomain charts), named real
parameters, real literals, the arithmetic operators ``+ - * / ^`` (``^`` takes
a coordinate-free exponent) and the functions ``sqrt exp log sin cos neg``
plus the two-argument ``abspow(u, q)`` for ``|u|^q``.

They evaluate over any scalar type supported by :mod:`pbh.jets` (floats or
jets) and are closed under exact symbolic differentiation. The only rewriting
ever performed is constant folding and the unit/zero identities that come
with it. Where trees enter a map or a chart, structurally equal subtrees
become one object (`share_subtrees`); nothing else is rewritten.
"""

from __future__ import annotations

import math
import operator
import re
import struct

from . import jets
from .errors import ExprSyntaxError, UnknownIdentifierError
from .jets import lift_point

__all__ = [
    "Expression", "parse", "differentiate", "eval_jet",
]


class Expression:
    """Base node. Subclasses implement `_eval`, `_diff` (leaves: `diff` and
    `_subst`) and `to_string`. An inner node's `_eval` looks itself up in the
    memo and otherwise applies its class's `OPERATION` to its operands' values,
    in one frame per node. No node refers to its derivatives: partials are kept
    per axis, then by node, in a derivative table, a dict that its owner (a
    chart, a map, the caller of `differentiate`) passes to `diff`. The factor
    of a node's partials that does not depend on the axis (`Pow`: q*u^(q-1);
    `Sin`, `Cos`, `Sqrt`, `AbsPow`) is built once per table (`_factor`), and all
    its partials hold it; so is r*r (`_square`)."""

    __slots__ = ()

    PRECEDENCE = 0

    def evaluate(self, coords=(), params=None, memo=None):
        """Value at `coords` (floats or jets) with parameter bindings `params`.

        `memo` may share subtree values across evaluations at the same point.
        """
        return self._eval(coords, params or {}, {} if memo is None else memo)

    def diff(self, i: int, table=None) -> "Expression":
        """Exact partial derivative with respect to coordinate i, kept in the
        derivative `table` (a new one when None)."""
        if table is None:
            table = {}
        partials = table.get(i)
        if partials is None:
            partials = table[i] = {}
        d = partials.get(self)
        if d is None:
            d = partials[self] = self._diff(i, table)
        return d

    def _factor(self, table, build, kind="factor"):
        """build(), the axis-independent factor of this node's partials, built
        at the first partial in `table` and held by all of them, one object."""
        kept = table.get(kind)
        if kept is None:
            kept = table[kind] = {}
        f = kept.get(self)
        if f is None:
            f = kept[self] = build()
        return f

    def _square(self, table):
        """self * self for an inner node, one object in `table` for all quotients over it."""
        return self._factor(table, lambda: Mul(self, self), "square")

    def substitute(self, replacements) -> "Expression":
        """Expression with Coord(i) replaced by replacements[i] (composition)."""
        return self._subst(list(replacements))

    def _subst(self, repl):
        # an inner node, rebuilt by its smart constructor; a power's exponent
        # has no coordinates, so it comes back equal
        return _SMART[type(self)](*(ch._subst(repl) for ch in self._children()))

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


# leaves are not memoized, and their constant derivatives need no table

class Const(Expression):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def _eval(self, coords, params, memo):
        return self.value

    def diff(self, i, table=None):
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
        self.index = int(index)

    def _eval(self, coords, params, memo):
        return coords[self.index]

    def diff(self, i, table=None):
        return _ONE if i == self.index else _ZERO

    def _subst(self, repl):
        return repl[self.index]

    def to_string(self, prec=0):
        return f"x{self.index + 1}"


class Param(Expression):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def _eval(self, coords, params, memo):
        try:
            return params[self.name]
        except KeyError:
            raise UnknownIdentifierError(f"parameter '{self.name}' has no bound value") from None

    def diff(self, i, table=None):
        return _ZERO

    def _subst(self, repl):
        return self

    def to_string(self, prec=0):
        return self.name


# Inner nodes memoize their values on node identity: derivative trees share
# subtree objects, and the memo keeps evaluation linear in the number of
# distinct nodes. Keys are the nodes themselves (nodes hash by identity): no int
# per entry, and a node cannot be freed and its address reused while a memo
# holds it. A `SmoothMap` marks its two forests (`mark_reads`) when it is
# constructed. A node read once in every forest marked (`_once` True) skips the
# memo: its one reader computes it once per memo anyway, and at a batched point
# of 512 entries such memo entries would hold most of the memory. A node never
# marked (None) or read twice in some marked forest (False) memoizes. The
# axis-independent factor of a node's partials (`_factor`, `_square`) is one node
# per derivative table read by all of them, so a point computes it, and each of
# its derivatives, once. A node refers only to its operands, never to its
# derivatives: their tables belong to a chart, a map or a caller (`Expression`).

class _Unary(Expression):
    __slots__ = ("arg", "_once")

    FUNC = ""

    def __init__(self, arg: Expression):
        self.arg = arg
        self._once = None

    def _eval(self, coords, params, memo):
        if self._once:
            return self.OPERATION(self.arg._eval(coords, params, memo))
        v = memo.get(self)
        if v is None:
            v = memo[self] = self.OPERATION(self.arg._eval(coords, params, memo))
        return v

    def _children(self):
        return (self.arg,)

    def to_string(self, prec=0):
        return f"{self.FUNC}({self.arg.to_string()})"


class Neg(_Unary):
    __slots__ = ()
    FUNC = "neg"
    OPERATION = operator.neg

    def _diff(self, i, table):
        return neg(self.arg.diff(i, table))


class Sqrt(_Unary):
    __slots__ = ()
    FUNC = "sqrt"
    OPERATION = staticmethod(jets.sqrt)

    def _diff(self, i, table):
        return div(self.arg.diff(i, table), self._factor(table, lambda: mul(Const(2.0), self)))


class Exp(_Unary):
    __slots__ = ()
    FUNC = "exp"
    OPERATION = staticmethod(jets.exp)

    def _diff(self, i, table):
        return mul(self, self.arg.diff(i, table))


class Log(_Unary):
    __slots__ = ()
    FUNC = "log"
    OPERATION = staticmethod(jets.log)

    def _diff(self, i, table):
        return div(self.arg.diff(i, table), self.arg)


class Sin(_Unary):
    __slots__ = ()
    FUNC = "sin"
    OPERATION = staticmethod(jets.sin)

    def _diff(self, i, table):
        return mul(self._factor(table, lambda: cos_(self.arg)), self.arg.diff(i, table))


class Cos(_Unary):
    __slots__ = ()
    FUNC = "cos"
    OPERATION = staticmethod(jets.cos)

    def _diff(self, i, table):
        return neg(mul(self._factor(table, lambda: sin_(self.arg)), self.arg.diff(i, table)))


class _Binary(Expression):
    __slots__ = ("left", "right", "_once")

    OP = ""
    PRECEDENCE = 0

    def __init__(self, left: Expression, right: Expression):
        self.left = left
        self.right = right
        self._once = None

    def _eval(self, coords, params, memo):
        if self._once:
            return self.OPERATION(self.left._eval(coords, params, memo),
                                  self.right._eval(coords, params, memo))
        v = memo.get(self)
        if v is None:
            v = memo[self] = self.OPERATION(self.left._eval(coords, params, memo),
                                            self.right._eval(coords, params, memo))
        return v

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
    OPERATION = operator.add
    PRECEDENCE = 1

    def _diff(self, i, table):
        return add(self.left.diff(i, table), self.right.diff(i, table))


class Sub(_Binary):
    __slots__ = ()
    OP = "-"
    OPERATION = operator.sub
    PRECEDENCE = 1

    def _diff(self, i, table):
        return sub(self.left.diff(i, table), self.right.diff(i, table))


class Mul(_Binary):
    __slots__ = ()
    OP = "*"
    OPERATION = operator.mul
    PRECEDENCE = 2

    def _diff(self, i, table):
        return add(mul(self.left.diff(i, table), self.right),
                   mul(self.left, self.right.diff(i, table)))


class Div(_Binary):
    __slots__ = ()
    OP = "/"
    OPERATION = operator.truediv
    PRECEDENCE = 2

    def _diff(self, i, table):
        r = self.right
        num = sub(mul(self.left.diff(i, table), r), mul(self.left, r.diff(i, table)))
        return div(num, r._square(table) if isinstance(r, _INNER) else mul(r, r))


class _Power(Expression):
    """arg raised to a coordinate-free exponent expression."""

    __slots__ = ("arg", "exponent", "_once")

    def __init__(self, arg: Expression, exponent: Expression):
        if exponent.has_coords():
            raise ExprSyntaxError(self.EXPONENT_ERROR, 0)
        self.arg = arg
        self.exponent = exponent
        self._once = None

    def _eval(self, coords, params, memo):
        # the exponent first: an unbound parameter there raises before a
        # domain error of the base
        if self._once:
            q = self.exponent._eval((), params, memo)
            return self.OPERATION(self.arg._eval(coords, params, memo), q)
        v = memo.get(self)
        if v is None:
            q = self.exponent._eval((), params, memo)
            v = memo[self] = self.OPERATION(self.arg._eval(coords, params, memo), q)
        return v

    def _children(self):
        return (self.arg, self.exponent)


class Pow(_Power):
    __slots__ = ()
    OPERATION = staticmethod(jets.powr)
    EXPONENT_ERROR = "exponent must be coordinate-free"
    PRECEDENCE = 3

    def _diff(self, i, table):
        q = self.exponent
        return mul(self._factor(table, lambda: mul(q, pow_(self.arg, sub(q, _ONE)))),
                   self.arg.diff(i, table))

    def to_string(self, prec=0):
        b = self.arg.to_string(self.PRECEDENCE + 1)
        e = self.exponent
        if isinstance(e, Const) and e.value >= 0:
            es = repr(e.value)
        else:
            es = f"({e.to_string()})"
        s = f"{b}^{es}"
        if prec > self.PRECEDENCE:
            return f"({s})"
        return s


class AbsPow(_Power):
    """|arg| ^ exponent, smooth away from arg = 0."""

    __slots__ = ()
    OPERATION = staticmethod(jets.abspow)
    EXPONENT_ERROR = "abspow exponent must be coordinate-free"

    def _diff(self, i, table):
        # d|u|^q = q |u|^(q-2) u du, valid away from u = 0
        q, u = self.exponent, self.arg
        return mul(self._factor(table, lambda: mul(q, mul(abspow_(u, sub(q, Const(2.0))), u))),
                   u.diff(i, table))

    def to_string(self, prec=0):
        return f"abspow({self.arg.to_string()}, {self.exponent.to_string()})"


_ZERO = Const(0.0)
_ONE = Const(1.0)


_INNER = (_Unary, _Binary, _Power)


def mark_reads(roots):
    """Mark the inner nodes of the forest `roots`, evaluated on one memo with
    each root called once per entry of `roots`, by how many readers read them:
    a reader is a parent (once per operand slot) or an entry of `roots`. A
    node read once skips the memo, unless another marked forest reads it
    twice; marking the same forest again changes nothing."""
    reads = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        n = reads.get(node, 0)
        reads[node] = n + 1
        if not n:
            stack.extend(node._children())
    for node, n in reads.items():
        if isinstance(node, _INNER):
            if n > 1:
                node._once = False
            elif node._once is None:
                node._once = True


def share_subtrees(roots) -> list:
    """`roots` with structurally equal inner subtrees merged into one object,
    by a table local to this call. A node is keyed on its class and children,
    a leaf on its exact value (a Const's bit pattern keeps 0.0 and -0.0
    apart). Leaves are never replaced, and a node is rebuilt only when an
    inner child was merged, so an unchanged subtree keeps its objects and
    their entries in any derivative table. A merged node prints and
    evaluates as before."""
    table, seen = {}, {}
    return [_share(e, table, seen)[0] for e in roots]


def _share(node, table, seen):
    """(the object kept for `node`, its key) for share_subtrees; not a closure,
    which calling itself would be a cycle holding its tables until the cyclic GC."""
    got = seen.get(id(node))
    if got is None:
        if type(node) is Const:
            got = (node, struct.pack("<d", node.value))
        elif not isinstance(node, _INNER):  # a Coord by its index, a Param by its name
            got = (node, (type(node), node.index if type(node) is Coord else node.name))
        else:
            kids = [_share(ch, table, seen) for ch in node._children()]
            key = (type(node),) + tuple(k for _kept, k in kids)
            kept = table.get(key)
            if kept is None:
                changed = any(k is not ch for (k, _key), ch in zip(kids, node._children()))
                kept = table[key] = type(node)(*(k for k, _key in kids)) if changed else node
            got = (kept, id(kept))
        seen[id(node)] = got
    return got


# ---------------------------------------------------------------------- #
# smart constructors: constant folding plus the 0/1 identities
# ---------------------------------------------------------------------- #

def add(a, b):
    if type(a) is Const:
        if type(b) is Const:
            return Const(a.value + b.value)
        if a.value == 0.0:
            return b
    elif type(b) is Const and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a, b):
    if type(b) is Const:
        if type(a) is Const:
            return Const(a.value - b.value)
        if b.value == 0.0:
            return a
    elif type(a) is Const and a.value == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if type(a) is Const:
        if type(b) is Const:
            return Const(a.value * b.value)
        if a.value == 0.0:
            return _ZERO
        if a.value == 1.0:
            return b
    elif type(b) is Const:
        if b.value == 0.0:
            return _ZERO
        if b.value == 1.0:
            return a
    return Mul(a, b)


def div(a, b):
    if type(b) is Const:
        if b.value == 0.0:
            raise ZeroDivisionError("constant division by zero in expression")
        if type(a) is Const:
            return Const(a.value / b.value)
        if b.value == 1.0:
            return a
    return Div(a, b)


def neg(a):
    if type(a) is Const:
        return Const(-a.value)
    return Neg(a)


def sqrt_(a):
    if type(a) is Const:
        return Const(jets.sqrt(a.value))
    return Sqrt(a)


def exp_(a):
    if type(a) is Const:
        return Const(math.exp(a.value))
    return Exp(a)


def log_(a):
    if type(a) is Const:
        return Const(jets.log(a.value))
    return Log(a)


def sin_(a):
    if type(a) is Const:
        return Const(math.sin(a.value))
    return Sin(a)


def cos_(a):
    if type(a) is Const:
        return Const(math.cos(a.value))
    return Cos(a)


def pow_(a, q):
    if type(q) is Const:
        if q.value == 0.0:
            return _ONE
        if q.value == 1.0:
            return a
        if type(a) is Const:
            return Const(jets.powr(a.value, q.value))
    return Pow(a, q)


def abspow_(a, q):
    if type(a) is Const and type(q) is Const:
        return Const(jets.abspow(a.value, q.value))
    return AbsPow(a, q)


# the smart constructor of each inner node class (`Expression._subst`)
_SMART = {Neg: neg, Sqrt: sqrt_, Exp: exp_, Log: log_, Sin: sin_, Cos: cos_, Add: add,
          Sub: sub, Mul: mul, Div: div, Pow: pow_, AbsPow: abspow_}


def differentiate(e: Expression, coord_index: int, table=None) -> Expression:
    """Exact symbolic partial derivative of `e` with respect to a coordinate, kept
    in the caller's derivative `table` (`Expression.diff`; a new one when None)."""
    return e.diff(coord_index, table)


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
# `_eval` recurses one frame per level and `diff` two (`diff`, `_diff`), and the
# second derivatives of a quotient chain are taller than the chain: `pbh run` with
# p_biharmonic on a height-64 chain needs a recursion limit of 344 of the default
# 1000, and height 224 exceeds the default
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
