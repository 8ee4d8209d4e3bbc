"""Jet arithmetic: Taylor coefficients against the symbolic derivative oracle."""

import math

import numpy as np
import pytest

from pbh.errors import DomainError, JetOrderError
from pbh.expr import Add, Const, Coord, Div, differentiate, eval_jet, parse
from pbh.geometry import space_form_chart
from pbh.jets import JetScalar, JetSpace, lift_point, space_for, value
from pbh import jets, linalg, verify
from pbh.verify import random_expression_with_point

ORDERS_1_TO_4 = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2),
                 (0, 3), (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]


def test_square_taylor_coefficients():
    j = eval_jet(parse("x1^2", 1), (3.0,), 2)
    assert [j.coefficient((k,)) for k in range(3)] == [9.0, 6.0, 1.0]


def test_sine_maclaurin():
    j = eval_jet(parse("sin(x1)", 1), (0.0,), 3)
    coeffs = [j.coefficient((k,)) for k in range(4)]
    assert coeffs == pytest.approx([0.0, 1.0, 0.0, -1.0 / 6.0], abs=1e-16)


def test_jets_match_symbolic_derivatives():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(200):
        e, x, _ = random_expression_with_point(rng, 2)
        J = eval_jet(e, x, 4)
        for alpha in ORDERS_1_TO_4:
            d = e
            for axis, count in enumerate(alpha):
                for _ in range(count):
                    d = differentiate(d, axis)
            sym = d.evaluate(x)
            rel = abs(J.derivative(alpha) - sym) / max(abs(sym), 1.0)
            worst = max(worst, rel)
    assert worst < 1e-10


def test_order_zero_matches_plain_float():
    rng = np.random.default_rng(22)
    for _ in range(100):
        e, x, _ = random_expression_with_point(rng, 2)
        plain = e.evaluate(x)
        jet = eval_jet(e, x, 3).value
        assert jet == pytest.approx(plain, rel=5e-15, abs=5e-15)


def test_partial_shift_equals_symbolic():
    e = parse("exp(x1*x2) * sin(x1) + log(3 + x2)", 2)
    X = lift_point((0.7, 0.4), 3)
    F = e.evaluate(X)
    d10 = differentiate(e, 0)
    d11 = differentiate(d10, 1)
    assert F.partial(0).value == pytest.approx(d10.evaluate((0.7, 0.4)), rel=1e-13)
    assert F.partial(0).partial(1).value == pytest.approx(d11.evaluate((0.7, 0.4)), rel=1e-13)


def test_arithmetic_identities_on_jets():
    sp = space_for(2, 3)
    a = sp.variable(0, 1.3)
    b = sp.variable(1, 0.7)
    u = a * b + 2.0
    restored = (u * b) / b
    assert np.allclose(restored.c, u.c, atol=1e-14)
    logexp = jets.log(jets.exp(u))
    assert np.allclose(logexp.c, u.c, atol=1e-12)
    root = jets.sqrt(u * u)
    assert np.allclose(root.c, u.c, atol=1e-13)


def test_integer_power_at_zero_base():
    sp = space_for(1, 3)
    x = sp.variable(0, 0.0)
    cube = jets.powr(x, 3)
    assert cube.coefficient((3,)) == 1.0
    assert cube.value == 0.0


def test_order_cap():
    with pytest.raises(JetOrderError):
        JetSpace(2, 5)
    assert JetSpace(2, 4).size == 15


def test_domain_errors():
    sp = space_for(1, 2)
    x = sp.variable(0, -1.0)
    with pytest.raises(DomainError):
        jets.sqrt(x)
    with pytest.raises(DomainError):
        jets.log(sp.variable(0, 0.0))
    with pytest.raises(ZeroDivisionError):
        _ = 1.0 / sp.variable(0, 0.0)
    with pytest.raises(DomainError):
        jets.powr(sp.variable(0, 0.0), -1.0)


def test_mixed_space_operands_rejected():
    a = space_for(1, 2).variable(0, 1.0)
    b = space_for(2, 2).variable(0, 1.0)
    with pytest.raises(ValueError):
        _ = a + b


def test_value_helper():
    assert value(2.5) == 2.5
    assert value(space_for(1, 1).constant(4.0)) == 4.0


def test_abspow_at_negative_base():
    sp = space_for(1, 2)
    u = sp.variable(0, -1.2)
    j = jets.abspow(u, 2.5)
    assert j.value == pytest.approx(1.2 ** 2.5, rel=1e-14)
    # d/du |u|^q = q |u|^(q-1) sgn(u)
    assert j.coefficient((1,)) == pytest.approx(-2.5 * 1.2 ** 1.5, rel=1e-13)


def test_jet_repr_mentions_order():
    sp = space_for(2, 2)
    assert "order=2" in repr(sp.variable(0, 1.0))
    assert "nvars=2" in repr(sp)


@pytest.mark.parametrize("v", [-1, 2, 5])
def test_partial_rejects_a_variable_outside_the_space(v):
    x = lift_point((0.5, 0.7), 3)[0]
    with pytest.raises(ValueError, match="out of range"):
        x.partial(v)
    assert x.partial(1).value == 0.0


@pytest.mark.parametrize("operand", ["a", [1.0]])
@pytest.mark.parametrize("op", [lambda a, j: a - j, lambda a, j: a / j, lambda a, j: j + a],
                         ids=["rsub", "rtruediv", "add"])
def test_unsupported_operands_raise_type_error(op, operand):
    for order in (1, 3):
        with pytest.raises(TypeError):
            op(operand, lift_point((0.5, 0.7), order)[0])


def test_reflected_operators_still_take_numbers():
    x = lift_point((0.5, 0.7), 2)[0]
    assert ((1.0 - x).value, (1.0 - x).coefficient((1, 0))) == (0.5, -1.0)
    assert (2 / x).value == 4.0
    assert (np.float64(1.5) - x).value == 1.0


OPERATORS = {"add": lambda a, b: a + b, "radd": lambda a, b: b + a,
             "sub": lambda a, b: a - b, "rsub": lambda a, b: b - a,
             "mul": lambda a, b: a * b, "rmul": lambda a, b: b * a,
             "truediv": lambda a, b: a / b, "rtruediv": lambda a, b: b / a}


@pytest.mark.parametrize("op", OPERATORS.values(), ids=OPERATORS.keys())
@pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
def test_misshaped_array_operands_are_rejected_by_jet_arithmetic(op, batched):
    x0 = (np.array([0.5, 0.6, 0.8]), np.array([0.7, 0.9, 1.1])) if batched else (0.5, 0.7)
    x = lift_point(x0, 3)[0]
    # among them np.array([1.0]) - x, x + np.array([1.0, 2.0]), x * np.array([1.0, 2.0])
    for operand in (np.array([1.0]), np.array([1.0, 2.0]), np.ones((3, 2))):
        with pytest.raises(ValueError, match="different jet spaces"):
            op(x, operand)
    # the inline shapes: () always, and one value per entry in a batched space
    inline = (np.array(2.0), np.array([2.0, 3.0, 4.0])) if batched else (np.array(2.0),)
    for operand in inline:
        want = op(x, x.space.constant(np.broadcast_to(operand, x.value.shape).copy()
                                      if batched else float(operand)))
        assert np.allclose(op(x, operand).c, want.c, rtol=1e-15, atol=0.0)


def test_lift_point_needs_a_coordinate():
    with pytest.raises(ValueError, match="at least one coordinate"):
        lift_point((), 3)


# ---------------------------------------------------------------------- #
# structural zeros: a Python float 0.0 or 1.0 operand never becomes a jet
# ---------------------------------------------------------------------- #

BATCHED = pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])


def _point(batched):
    return ((np.array([0.5, 0.6, 0.8]), np.array([0.7, 0.9, 1.1])) if batched
            else (0.5, 0.7))


@BATCHED
def test_float_zero_and_one_operands_keep_their_structure(batched):
    J = lift_point(_point(batched), 3)[0]
    for zero in (0.0, -0.0):
        for product in (J * zero, zero * J):
            assert type(product) is float and repr(product) == "0.0"
    assert J * 1.0 is J and 1.0 * J is J
    assert J + 0.0 is J and 0.0 + J is J and J - 0.0 is J


def test_a_zero_factor_annihilates_non_finite_coefficients():
    """The symbolic fold's convention: expr.mul folds 0 * x to 0 whatever x is."""
    sp = space_for(2, 3)
    coeffs = np.zeros(sp.size)
    coeffs[:3] = (1.0, math.inf, math.nan)
    J = JetScalar(sp, coeffs)
    assert repr(J * 0.0) == repr(0.0 * J) == "0.0"
    assert parse("0 * log(x1)", 2).evaluate((0.0, 1.0)) == 0.0


@BATCHED
def test_other_zero_operands_keep_their_arithmetic(batched):
    J = lift_point(_point(batched), 3)[0]
    neg = -J.c
    neg[0] += 0.0
    assert (0.0 - J).c.tobytes() == neg.tobytes()
    # an int (the start of sum()) and a numpy scalar are not Python floats
    for zero in (0, np.float64(0.0)):
        assert type(J * zero) is JetScalar and (J * zero).c.tobytes() == (J.c * 0.0).tobytes()
        assert (zero + J) is not J and (zero + J).c.tobytes() == J.c.tobytes()
    if batched:
        zeros = np.zeros(3)
        assert (J * zeros).c.tobytes() == (J.c * zeros).tobytes()
        assert (J + zeros) is not J and (J - zeros) is not J
    # float mode is Python's arithmetic
    assert math.isnan(parse("x1 * x2", 2).evaluate((0.0, math.inf)))


@BATCHED
def test_results_that_alias_an_operand_never_write_it(batched):
    """x + 0.0 and x * 1.0 return x itself: the functions that write
    coefficients in place (`_compose`) must write only arrays they made."""
    J = lift_point(_point(batched), 3)[0]
    before = J.c.copy()
    readers = (jets.exp, jets.log, jets.sqrt, jets.sin, lambda u: jets.powr(u, -1.5),
               lambda u: jets.powr(u, 1), lambda u: 1.0 / u, lambda u: u.partial(0))
    for u in (J + 0.0, J - 0.0, 0.0 + J, J * 1.0):
        for read in readers:
            read(u)
    assert J.c.tobytes() == before.tobytes()


@BATCHED
def test_inverse_of_a_diagonal_jet_metric_has_float_zeros_off_the_diagonal(batched):
    X = lift_point(_point(batched), 2)
    g = space_form_chart(1.0, 2).metric_at(X)
    assert type(g[0][1]) is float
    ginv = linalg.inverse(g)
    assert repr(ginv[0][1]) == repr(ginv[1][0]) == "0.0"
    assert np.allclose((ginv[0][0] * g[0][0]).c[1:], 0.0, atol=1e-15)


def test_drawn_expressions_read_structural_zero_subtrees(monkeypatch):
    """0.0 / x1 evaluates to the float 0.0 at a jet point: a root that is such a
    float is drawn again, a subtree that is one is read as its value."""
    zero = Div(Const(0.0), Coord(0))
    drawn = iter([zero, Add(zero, Coord(1))])
    monkeypatch.setattr(verify, "random_expression", lambda rng, dim, depth: next(drawn))
    e, x, J = random_expression_with_point(np.random.default_rng(0), 2)
    assert e.to_string() == "0.0 / x1 + x2"
    assert J.c.tobytes() == lift_point(x, 4)[1].c.tobytes()


@BATCHED
def test_order_one_product_equals_the_two_term_formula(batched):
    """Row 0 of an order-1 product is a0*b0 and row k >= 1 is a_k*b0 + b_k*a0,
    bit for bit, signed zeros and coefficients far apart in scale included."""
    rng = np.random.default_rng(23)
    J = lift_point(_point(batched), 1)[0]
    sp, shape = J.space, J.c.shape
    for _ in range(20):
        a, b = (rng.normal(size=shape) * 10.0 ** rng.integers(-150, 150, size=shape)
                for _ in range(2))
        a[rng.random(shape) < 0.2] = -0.0
        b[rng.random(shape) < 0.2] = 0.0
        old = a * b[0] + b * a[0]
        old[0] = a[0] * b[0]
        assert (JetScalar(sp, a) * JetScalar(sp, b)).c.tobytes() == old.tobytes()


@BATCHED
def test_zero_over_a_jet_is_the_float_zero_without_a_reciprocal(batched, operation_counts):
    """0.0 / J is what reciprocal * 0.0 gives, the float 0.0 (also for -0.0),
    and forms no reciprocal; a zero base still raises."""
    J = lift_point(_point(batched), 3)[0]
    for zero in (0.0, -0.0):
        quotient = zero / J
        assert type(quotient) is float and repr(quotient) == "0.0"
    assert operation_counts["composes"] == 0
    Z = J - J.value  # base value zero in every entry
    with pytest.raises(ZeroDivisionError, match="zero base value"):
        0.0 / Z
    if batched:  # one zero entry is enough
        Z = J - np.array([0.5, 0.0, 0.0])
        with pytest.raises(ZeroDivisionError, match="zero base value"):
            0.0 / Z


@BATCHED
def test_a_jet_keeps_its_reciprocal(batched, operation_counts):
    """Every quotient over one jet reads one reciprocal, composed once, with
    the coefficients a fresh reciprocal has."""
    x1, x2 = lift_point(_point(batched), 3)
    J = x1 * x2 + 1.5
    fresh = JetScalar(J.space, J.c.copy())
    operation_counts.reset()
    r = 1.0 / J
    assert 1.0 / J is r and (x1 / J).c.tobytes() == (x1 * r).c.tobytes()
    assert (2.5 / J).c.tobytes() == (r * 2.5).c.tobytes()
    assert operation_counts["composes"] == 1
    assert r.c.tobytes() == (1.0 / fresh).c.tobytes()
