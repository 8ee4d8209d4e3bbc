"""Oracles for the evaluation fast paths: expressions built, evaluated and
differentiated through the class-level `OPERATION` tables and the inline
constant tests agree with a plain reference (per-class `_compute` bodies and
`_const_of` smart constructors) bit for bit, exception for exception; the flat
batched-float `powr` and `abspow` agree with one scalar call per entry; the
batched elementary functions of floats and jets agree with one scalar call
per entry and with the unbatched jet of each column; the Gauss grid of the
box quadrature agrees with nested loops."""

import itertools
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from pbh import expr, jets, mapcalc
from pbh.errors import DomainError, UnknownIdentifierError
from pbh.expr import (Add, AbsPow, Const, Coord, Cos, Div, Exp, Log, Mul, Neg, Param, Pow, Sin,
                      Sqrt, Sub)
from pbh.jets import lift_point

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# ---------------------------------------------------------------------- #
# the reference: smart constructors over `_const_of`, an evaluator that
# memoizes inner nodes and computes them with one `_compute` body per class,
# and the derivative rules, uncached
# ---------------------------------------------------------------------- #

_ZERO, _ONE = Const(0.0), Const(1.0)


def _const_of(e):
    return e.value if isinstance(e, Const) else None


def r_add(a, b):
    ca, cb = _const_of(a), _const_of(b)
    if ca is not None and cb is not None:
        return Const(ca + cb)
    if ca == 0.0:
        return b
    if cb == 0.0:
        return a
    return Add(a, b)


def r_sub(a, b):
    ca, cb = _const_of(a), _const_of(b)
    if ca is not None and cb is not None:
        return Const(ca - cb)
    if cb == 0.0:
        return a
    if ca == 0.0:
        return r_neg(b)
    return Sub(a, b)


def r_mul(a, b):
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


def r_div(a, b):
    ca, cb = _const_of(a), _const_of(b)
    if cb is not None:
        if cb == 0.0:
            raise ZeroDivisionError("constant division by zero in expression")
        if ca is not None:
            return Const(ca / cb)
        if cb == 1.0:
            return a
    return Div(a, b)


def _r_unary(cls, fold):
    def build(a):
        ca = _const_of(a)
        if ca is not None:
            return Const(fold(ca))
        return cls(a)
    return build


r_neg = _r_unary(Neg, lambda c: -c)
r_sqrt = _r_unary(Sqrt, jets.sqrt)
r_exp = _r_unary(Exp, math.exp)
r_log = _r_unary(Log, jets.log)
r_sin = _r_unary(Sin, math.sin)
r_cos = _r_unary(Cos, math.cos)


def r_pow(a, q):
    cq = _const_of(q)
    if cq == 0.0:
        return _ONE
    if cq == 1.0:
        return a
    ca = _const_of(a)
    if ca is not None and cq is not None:
        return Const(jets.powr(ca, cq))
    return Pow(a, q)


def r_abspow(a, q):
    ca, cq = _const_of(a), _const_of(q)
    if ca is not None and cq is not None:
        return Const(jets.abspow(ca, cq))
    return AbsPow(a, q)


def r_eval(node, coords, params, memo):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Coord):
        return coords[node.index]
    if isinstance(node, Param):
        try:
            return params[node.name]
        except KeyError:
            raise UnknownIdentifierError(f"parameter '{node.name}' has no bound value") from None
    v = memo.get(node)
    if v is None:
        v = _compute(node, coords, params, memo)
        memo[node] = v
    return v


def _compute(n, coords, params, memo):
    def ev(child):
        return r_eval(child, coords, params, memo)

    t = type(n)
    if t is Neg:
        return -ev(n.arg)
    if t in (Sqrt, Exp, Log, Sin, Cos):
        f = {Sqrt: jets.sqrt, Exp: jets.exp, Log: jets.log, Sin: jets.sin, Cos: jets.cos}[t]
        return f(ev(n.arg))
    if t is Add:
        return ev(n.left) + ev(n.right)
    if t is Sub:
        return ev(n.left) - ev(n.right)
    if t is Mul:
        return ev(n.left) * ev(n.right)
    if t is Div:
        return ev(n.left) / ev(n.right)
    q = r_eval(n.exponent, (), params, memo)
    return (jets.powr if t is Pow else jets.abspow)(ev(n.arg), q)


def r_diff(n, i):
    t = type(n)
    if t in (Const, Param):
        return _ZERO
    if t is Coord:
        return _ONE if i == n.index else _ZERO
    if t is Neg:
        return r_neg(r_diff(n.arg, i))
    if t is Sqrt:
        return r_div(r_diff(n.arg, i), r_mul(Const(2.0), n))
    if t is Exp:
        return r_mul(n, r_diff(n.arg, i))
    if t is Log:
        return r_div(r_diff(n.arg, i), n.arg)
    if t is Sin:
        return r_mul(r_cos(n.arg), r_diff(n.arg, i))
    if t is Cos:
        return r_neg(r_mul(r_sin(n.arg), r_diff(n.arg, i)))
    if t is Add:
        return r_add(r_diff(n.left, i), r_diff(n.right, i))
    if t is Sub:
        return r_sub(r_diff(n.left, i), r_diff(n.right, i))
    if t is Mul:
        return r_add(r_mul(r_diff(n.left, i), n.right), r_mul(n.left, r_diff(n.right, i)))
    if t is Div:
        num = r_sub(r_mul(r_diff(n.left, i), n.right), r_mul(n.left, r_diff(n.right, i)))
        return r_div(num, r_mul(n.right, n.right))
    if t is Pow:
        qm1 = r_sub(n.exponent, _ONE)
        return r_mul(r_mul(n.exponent, r_pow(n.arg, qm1)), r_diff(n.arg, i))
    qm2 = r_sub(n.exponent, Const(2.0))
    return r_mul(r_mul(n.exponent, r_mul(r_abspow(n.arg, qm2), n.arg)), r_diff(n.arg, i))


REFERENCE = {"add": r_add, "sub": r_sub, "mul": r_mul, "div": r_div, "neg": r_neg,
             "sqrt": r_sqrt, "exp": r_exp, "log": r_log, "sin": r_sin, "cos": r_cos,
             "pow": r_pow, "abspow": r_abspow}
FAST = {"add": expr.add, "sub": expr.sub, "mul": expr.mul, "div": expr.div, "neg": expr.neg,
        "sqrt": expr.sqrt_, "exp": expr.exp_, "log": expr.log_, "sin": expr.sin_,
        "cos": expr.cos_, "pow": expr.pow_, "abspow": expr.abspow_}

# ---------------------------------------------------------------------- #
# random trees, as recipes built by either set of constructors
# ---------------------------------------------------------------------- #

CONSTANTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -1.5, 3.0, 0.25])
EXPONENTS = st.recursive(
    st.one_of(st.tuples(st.just("const"), CONSTANTS), st.just(("param",))),
    lambda inner: st.tuples(st.sampled_from(["add", "sub", "mul"]), inner, inner), max_leaves=3)
TREES = st.recursive(
    st.one_of(st.tuples(st.just("const"), CONSTANTS),
              st.tuples(st.just("coord"), st.integers(0, 1)), st.just(("param",))),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), inner, inner),
        st.tuples(st.sampled_from(["neg", "sqrt", "exp", "log", "sin", "cos"]), inner),
        st.tuples(st.sampled_from(["pow", "abspow"]), inner, EXPONENTS)),
    max_leaves=8)
COORDS = st.tuples(*[st.sampled_from([0.0, -0.0, 0.7, -1.3, 2.0, 1.0])] * 2)


def build(recipe, cons):
    kind = recipe[0]
    if kind == "const":
        return Const(recipe[1])
    if kind == "coord":
        return Coord(recipe[1])
    if kind == "param":
        return Param("q")
    return cons[kind](*(build(r, cons) for r in recipe[1:]))


def outcome(compute):
    """repr of the value (the coefficient list of a jet), or the exception's type and message."""
    try:
        v = compute()
    except Exception as exc:
        return type(exc), str(exc)
    return repr(v.c.tolist() if isinstance(v, jets.JetScalar) else v)


# every partial of order 1 to 3 in two variables
DERIVATIVES = [axes for k in (1, 2, 3) for axes in itertools.product((0, 1), repeat=k)]
QUOTIENT_CHAIN = ("div", ("coord", 0), ("div", ("add", ("coord", 1), ("const", -0.0)),
                                        ("div", ("coord", 0), ("sub", ("const", 2.0),
                                                                ("coord", 1)))))
FACTORS = ("mul", ("pow", ("sqrt", ("add", ("coord", 0), ("const", 3.0))), ("param",)),
           ("abspow", ("sin", ("mul", ("coord", 0), ("coord", 1))),
            ("add", ("param",), ("const", 0.5))))


def _partial(e, axes, step):
    for i in axes:
        e = step(e, i)
    return e


def _diff(e, i):
    return e.diff(i)


@SETTINGS
@given(TREES, COORDS, CONSTANTS)
@example(QUOTIENT_CHAIN, (0.7, -1.3), 2.0)
@example(FACTORS, (0.7, 2.0), -1.5)
@example(("cos", ("div", ("coord", 1), ("coord", 0))), (-0.0, 0.7), 0.5)
def test_fast_expressions_equal_the_reference(recipe, x, q):
    built = outcome(lambda: build(recipe, FAST))
    assert built == outcome(lambda: build(recipe, REFERENCE))
    if isinstance(built, tuple):
        return  # constant folding raised in both
    fast, ref = build(recipe, FAST), build(recipe, REFERENCE)
    assert fast.to_string() == ref.to_string()
    params = {"q": q}
    for point in (x, lift_point(x, 4)):
        assert (outcome(lambda: fast.evaluate(point, params))
                == outcome(lambda: r_eval(ref, point, params, {})))
    partials = []
    for axes in DERIVATIVES:
        got = outcome(lambda: _partial(fast, axes, _diff).to_string())
        assert got == outcome(lambda: _partial(ref, axes, r_diff).to_string())
        if not isinstance(got, tuple):
            partials.append((_partial(fast, axes, _diff), _partial(ref, axes, r_diff)))
    # the partials share each node's axis-independent factor, which `r_diff`
    # builds again for each axis: marked as one forest and read on one memo,
    # they give the bits of the reference's, each read on a memo of its own
    expr.mark_reads([d for d, _ in partials])
    for point in (x, lift_point(x, 2)):
        memo = {}
        for d, r in partials:
            assert (_bits(lambda: d.evaluate(point, params, memo))
                    == _bits(lambda: r_eval(r, point, params, {})))


def test_an_unbound_exponent_raises_before_a_base_out_of_domain():
    e = expr.pow_(expr.log_(Coord(0)), Param("q"))
    for point in ((-1.0,), lift_point((-1.0,), 2)):
        assert (outcome(lambda: e.evaluate(point))
                == outcome(lambda: r_eval(e, point, {}, {}))
                == (UnknownIdentifierError, "parameter 'q' has no bound value"))


# ---------------------------------------------------------------------- #
# batched floats: one flat pass against one scalar call per entry
# ---------------------------------------------------------------------- #

# huge, subnormal, zero and negative entries, next to ordinary ones
EXTREMES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-200, 1e154, 1e300, -1e300,
                            710.0, -750.0, math.inf, -math.inf, math.nan])
ENTRIES = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan]),
                             st.floats(-4.0, 4.0), EXTREMES), min_size=1, max_size=8)
POWERS = st.sampled_from([0, 1, 2, 3, -1, -2, 0.5, 1.5, -0.5, -2.5, 2.0, 7.0, 0.0])


def _per_entry(f, u, q):
    """The entries' bits from one scalar call per entry, or the first exception raised."""
    try:
        return np.array([f(t, q) for t in u.tolist()]).view(np.int64).tolist()
    except Exception as exc:
        return type(exc), str(exc)


def _flat(f, u, q):
    try:
        return f(u, q).view(np.int64).tolist()
    except Exception as exc:
        return type(exc), str(exc)


@SETTINGS
@given(ENTRIES, POWERS)
def test_batched_powr_and_abspow_equal_scalar_calls_per_entry(entries, q):
    u = np.array(entries)
    for f in (jets.powr, jets.abspow):
        assert _flat(f, u, q) == _per_entry(f, u, q)


def test_batched_powr_raises_at_the_first_entry_out_of_domain():
    u = np.array([1.0, 0.0, -2.0])
    # an earlier entry that overflows raises before a later one out of domain
    assert _flat(jets.abspow, np.array([1e-200, 0.0]), -2) == (OverflowError, "math range error")
    assert _flat(jets.powr, u, -0.5) == (DomainError, "zero base raised to exponent -0.5")
    assert _flat(jets.powr, u, 0.5) == (
        DomainError, "negative base -2.0 raised to fractional exponent 0.5")
    assert _flat(jets.powr, u, -1) == (DomainError, "zero base raised to exponent -1.0")
    assert _flat(jets.abspow, u, -1) == (DomainError, "abspow at zero with negative exponent")


def test_batched_log_and_sqrt_name_the_first_entry_out_of_domain():
    u = np.array([1.0, 0.0, -2.0, -3.0])
    sp = jets.space_for(1, 2, batched=True)
    jet = jets.JetScalar(sp, np.vstack([u, np.ones(4), np.zeros(4)]))
    negative = jets.JetScalar(sp, np.vstack([[1.0, -2.0, -3.0], np.ones(3), np.zeros(3)]))
    assert outcome(lambda: jets.log(u)) == (DomainError, "log of non-positive value 0.0")
    assert outcome(lambda: jets.log(jet)) == (DomainError, "log of non-positive value 0.0")
    assert outcome(lambda: jets.sqrt(u)) == (DomainError, "sqrt of negative value -2.0")
    for f in (jets.sqrt, lambda v: jets.powr(v, 1.5)):
        assert outcome(lambda: f(negative))[1].startswith("negative base -2.0 raised to")


# ---------------------------------------------------------------------- #
# batched elementary functions: one scalar libm call per entry, driven from
# C, against a call per entry, the unbatched jet of each column, and the
# per-entry comprehensions they replaced (copied here as the oracle of every
# value and exception)
# ---------------------------------------------------------------------- #

def _comprehension_libm(f, x):
    if isinstance(x, np.ndarray):
        return np.array([f(t) for t in x.tolist()])
    return f(x)


def _comprehension_powers(x, exponents):
    if isinstance(x, np.ndarray):
        return [np.array(col) for col in zip(*([t ** e for e in exponents] for t in x.tolist()))]
    return [x ** e for e in exponents]


def _with_comprehensions(compute):
    saved = jets._libm, jets._powers
    jets._libm, jets._powers = _comprehension_libm, _comprehension_powers
    try:
        return compute()
    finally:
        jets._libm, jets._powers = saved


ORDINARY = st.builds(lambda s, t: s * t, st.sampled_from([-1.0, 1.0]), st.floats(0.05, 4.0))
WIDE_ENTRIES = st.lists(st.one_of(EXTREMES, ORDINARY), min_size=1, max_size=6)
UNARY = {"exp": jets.exp, "log": jets.log, "sin": jets.sin, "cos": jets.cos, "sqrt": jets.sqrt}


def _bits(compute):
    """The float bits of a result (a coefficient array, a batch of values), or
    the exception's type and message."""
    try:
        v = compute()
    except Exception as exc:
        return type(exc), str(exc)
    c = v.c if isinstance(v, jets.JetScalar) else np.asarray(v, dtype=float)
    return np.ascontiguousarray(c).view(np.int64).tolist()


@SETTINGS
@given(WIDE_ENTRIES)
def test_batched_elementary_functions_equal_scalar_calls_per_entry(entries):
    u = np.array(entries)
    for name, f in UNARY.items():
        batched = _bits(lambda: f(u))
        assert batched == _with_comprehensions(lambda: _bits(lambda: f(u))), name
        # a domain error names the first entry out of domain, as a call per entry does
        assert batched == _bits(lambda: [f(t) for t in entries]), name


@st.composite
def _batched_jet(draw):
    """A batched jet of order 0..4 in one or two variables whose base values
    may be huge, subnormal, zero or negative."""
    nvars, order, size = draw(st.integers(1, 2)), draw(st.integers(0, 4)), draw(st.integers(1, 4))
    sp = jets.space_for(nvars, order, batched=True)
    c = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=sp.size * size,
                               max_size=sp.size * size))).reshape(sp.size, size)
    c[0] = draw(st.lists(st.one_of(EXTREMES, ORDINARY), min_size=size, max_size=size))
    return jets.JetScalar(sp, c)


def _assert_same_column(batched, column):
    """A batched jet's column against the unbatched jet: bit for bit when it
    is finite, up to the sign of a NaN (the batch-axis paragraph of
    `pbh.jets`) when it holds one, so equal by repr."""
    if np.isnan(column).any():
        assert repr(batched.tolist()) == repr(column.tolist())
    else:
        assert batched.tobytes() == column.tobytes()


@SETTINGS
@given(_batched_jet(), POWERS)
# cos and sin give column 1 a NaN whose sign bit the unbatched jet may not share
@example(jets.JetScalar(jets.space_for(1, 1, batched=True), np.array([[0.0, math.nan],
                                                                      [1.0, 1.0]])), 2)
def test_batched_jet_functions_equal_the_unbatched_jet_of_each_column(u, q):
    sp = u.space
    scalar_sp = jets.space_for(sp.nvars, sp.order)
    columns = [jets.JetScalar(scalar_sp, u.c[:, e].copy()) for e in range(u.c.shape[1])]
    ordinary = all(0.05 <= abs(t) <= 4.0 for t in u.value.tolist())
    functions = {"powr": lambda v: jets.powr(v, q), "log": jets.log, "exp": jets.exp,
                 "sin": jets.sin, "cos": jets.cos}
    for name, f in functions.items():
        # the floating-point signals of a batched evaluation in pbh.mapcalc
        with np.errstate(all="raise", under="ignore"):
            batched = _bits(lambda: f(u))
            assert batched == _with_comprehensions(lambda: _bits(lambda: f(u))), name
            per_column = [_bits(lambda: f(col)) for col in columns]
        if isinstance(batched, list):
            coefficients = np.array(batched).view(np.float64)
            for e, column in enumerate(per_column):
                assert isinstance(column, list), (name, e, column)
                _assert_same_column(coefficients[:, e], np.array(column).view(np.float64))
        else:
            # the batch raised: so does a column, or a base value is extreme
            assert not (ordinary and all(isinstance(col, list) for col in per_column)), name


def _generator_gauss_legendre_box(box, order):
    """The tensor-product grid as a nested-loop generator (the grid's oracle)."""
    nodes_1d, weights_1d = np.polynomial.legendre.leggauss(order)
    axes = []
    for lo, hi in box:
        lo, hi = float(lo), float(hi)
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        axes.append([(float(mid + half * t), float(half * w))
                     for t, w in zip(nodes_1d, weights_1d)])
    for combo in itertools.product(*axes):
        point = tuple(c[0] for c in combo)
        weight = 1.0
        for c in combo:
            weight *= c[1]
        yield point, weight


BOUNDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]),
                   st.floats(-100.0, 100.0))


@SETTINGS
@given(st.lists(st.tuples(BOUNDS, BOUNDS), min_size=0, max_size=3), st.integers(1, 8))
def test_gauss_legendre_box_equals_the_nested_loops(box, order):
    nodes = mapcalc.gauss_legendre_box(box, order)
    assert isinstance(nodes, list)
    assert repr(nodes) == repr(list(_generator_gauss_legendre_box(box, order)))
