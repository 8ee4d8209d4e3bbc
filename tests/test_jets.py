"""Jet arithmetic: Taylor coefficients against the symbolic derivative oracle."""

import numpy as np
import pytest

from pbh.errors import DomainError, JetOrderError
from pbh.expr import differentiate, eval_jet, parse
from pbh.jets import JetSpace, lift_point, space_for, value
from pbh import jets
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
