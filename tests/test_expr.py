"""Parser, evaluation, symbolic differentiation, and round-trip properties."""

import gc
import math

import numpy as np
import pytest

from pbh.errors import DomainError, ExprSyntaxError, UnknownIdentifierError
from pbh.expr import Const, Expression, differentiate, parse, share_subtrees
from pbh.verify import random_expression_with_point


def finite_difference(e, x, coord, params=None, step=1e-5):
    """Richardson-extrapolated central difference, the independent oracle."""
    params = params or {}

    def central(h):
        xp = list(x)
        xm = list(x)
        xp[coord] += h
        xm[coord] -= h
        return (e.evaluate(xp, params) - e.evaluate(xm, params)) / (2 * h)

    d1 = central(step)
    d2 = central(step / 2)
    return (4 * d2 - d1) / 3


class TestParse:
    def test_sum_of_squares(self):
        e = parse("x1^2 + x2^2", 2)
        assert e.evaluate((3.0, 4.0)) == 25.0

    def test_conformal_factor(self):
        e = parse("(x1^2 + x2^2)^(-1/p)", 2, ["p"])
        assert e.evaluate((1.0, 1.0), {"p": 2.0}) == pytest.approx(2 ** -0.5, rel=1e-15)

    def test_inversion_component(self):
        e = parse("x1/(x1^2+x2^2)^(l/2)", 2, ["l"])
        assert e.evaluate((3.0, 4.0), {"l": 2.0}) == pytest.approx(3.0 / 25.0, rel=1e-15)

    def test_functions_and_scientific_notation(self):
        e = parse("sqrt(exp(x1)) * 1e-2 + sin(x2)*cos(x2) + log(2.5)", 2)
        x = (0.4, 1.1)
        expected = math.sqrt(math.exp(0.4)) * 1e-2 + math.sin(1.1) * math.cos(1.1) + math.log(2.5)
        assert e.evaluate(x) == pytest.approx(expected, rel=1e-15)

    def test_y_alias_for_codomain_coordinates(self):
        e = parse("y1^2 + y2", 2)
        assert e.evaluate((3.0, 4.0)) == 13.0

    def test_unary_minus(self):
        assert parse("-x1 + 2", 1).evaluate((0.5,)) == 1.5

    def test_abspow(self):
        e = parse("abspow(x1, 2.5)", 1)
        assert e.evaluate((-2.0,)) == pytest.approx(2 ** 2.5, rel=1e-15)

    def test_syntax_error_reports_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x1 + * x2", 2)
        assert err.value.position == 5

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            parse("x1 + q", 2)

    def test_coordinate_out_of_range(self):
        with pytest.raises(UnknownIdentifierError):
            parse("x3", 2)

    def test_arity_mismatch(self):
        with pytest.raises(ExprSyntaxError):
            parse("sqrt(x1, x2)", 2)

    def test_coordinate_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("x1^(x2)", 2)

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError):
            parse("x1 ? 2", 2)


class TestDifferentiate:
    def test_product(self):
        d = differentiate(parse("x1*x2", 2), 0)
        assert d.evaluate((7.0, 4.0)) == 4.0

    def test_norm_gradient(self):
        d = differentiate(parse("(x1^2 + x2^2)^(0.5)", 2), 0)
        assert d.evaluate((3.0, 4.0)) == pytest.approx(0.6, rel=1e-14)

    def test_conformal_factor_against_finite_differences(self):
        e = parse("(x1^2 + x2^2)^(-1/p)", 2, ["p"])
        d = differentiate(e, 0)
        x = (1.0, 1.0)
        oracle = finite_difference(e, x, 0, params={"p": 2.0})
        assert d.evaluate(x, {"p": 2.0}) == pytest.approx(oracle, abs=1e-9)

    def test_chain_rules_against_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            e, x, _ = random_expression_with_point(rng, 2, depth=5)
            for coord in (0, 1):
                sym = differentiate(e, coord).evaluate(x)
                if abs(sym) > 1e3:
                    continue
                assert sym == pytest.approx(finite_difference(e, x, coord),
                                            rel=1e-6, abs=1e-6)

    def test_abspow_derivative_away_from_zero(self):
        e = parse("abspow(x1, 3.0)", 1)
        d = differentiate(e, 0)
        assert d.evaluate((-1.5,)) == pytest.approx(3.0 * 1.5 ** 2 * -1.0, rel=1e-14)

    def test_abspow_derivative_errors_at_zero(self):
        d = differentiate(parse("abspow(x1, 1.5)", 1), 0)
        with pytest.raises(DomainError):
            d.evaluate((0.0,))

    @pytest.mark.parametrize("text, factor", [
        ("(x1*x2)^q", "q * (x1 * x2)^(q - 1.0)"),
        ("x1 / (x1*x2 + 1)", "(x1 * x2 + 1.0) * (x1 * x2 + 1.0)"),
        ("sin(x1*x2)", "cos(x1 * x2)"),
        ("cos(x1*x2)", "sin(x1 * x2)"),
        ("sqrt(x1*x2)", "2.0 * sqrt(x1 * x2)"),
        ("abspow(x1*x2, 3.5)", "3.5 * abspow(x1 * x2, 1.5) * x1 * x2"),
    ])
    def test_partials_share_one_factor(self, text, factor):
        """The axis-independent factor of a node's partials is one object in
        a derivative table, which both partials built in it hold."""
        e, table = parse(text, 2, ["q"]), {}
        found = [{id(n) for n in differentiate(e, i, table).walk() if n.to_string() == factor}
                 for i in (0, 1)]
        assert len(found[0]) == 1 and found[0] == found[1]

    @pytest.mark.parametrize("text, square", [
        ("x1 / (x1*x2 + 1) + x2 / (x1*x2 + 1)", "(x1 * x2 + 1.0) * (x1 * x2 + 1.0)"),
        ("sqrt(x1*x2)", "2.0 * sqrt(x1 * x2) * 2.0 * sqrt(x1 * x2)"),
        ("log(x1*x2 + 1)", "(x1 * x2 + 1.0) * (x1 * x2 + 1.0)"),
    ])
    def test_quotients_over_one_denominator_share_its_square(self, text, square):
        """Every second partial built in one derivative table divides by one
        r * r for each denominator r, whichever quotient and axis it comes from."""
        e, table = share_subtrees([parse(text, 2)])[0], {}
        found = {id(n) for i in (0, 1) for j in (0, 1)
                 for n in differentiate(differentiate(e, i, table), j, table).walk()
                 if str(n) == square}
        assert len(found) == 1

    def test_a_table_and_its_trees_die_without_the_cyclic_gc(self):
        """No node refers to its derivatives, so a derivative table, its
        partials and the square its quotients share form no reference cycle:
        they go with the table and the trees, without the cyclic collector."""
        def live_nodes():
            return sum(isinstance(o, Expression) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = live_nodes()
            e, table = parse("x1 / (x1*x2 + 1) * exp(x2) + sqrt(x1)", 2), {}
            partials = [differentiate(differentiate(e, i, table), j, table)
                        for i in (0, 1) for j in (0, 1)]
            assert live_nodes() > before
            del e, table, partials
            assert live_nodes() == before
        finally:
            gc.enable()

    def test_linearity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            e1, x, _ = random_expression_with_point(rng, 2, depth=4)
            e2, _, _ = random_expression_with_point(rng, 2, depth=4)
            a = Const(float(rng.uniform(-2, 2)))
            combined = differentiate(a * e1 + e2, 0)
            split = a * differentiate(e1, 0) + differentiate(e2, 0)
            try:
                lhs, rhs = combined.evaluate(x), split.evaluate(x)
            except (DomainError, ZeroDivisionError):
                continue
            assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-14)


class TestRoundTrip:
    def test_spec_examples(self):
        for text, dim, params in [("x1^2 + x2^2", 2, []),
                                  ("(x1^2 + x2^2)^(-1/p)", 2, ["p"]),
                                  ("x1/(x1^2+x2^2)^(l/2)", 2, ["l"]),
                                  ("abspow(x1 - x2, 2.5) + neg(x2)", 2, [])]:
            e = parse(text, dim, params)
            back = parse(str(e), dim, params)
            vals = {"p": 2.0, "l": 3.0}
            for x in [(1.0, 1.0), (0.5, 2.0), (3.0, 4.0)]:
                assert back.evaluate(x, vals) == pytest.approx(
                    e.evaluate(x, vals), rel=1e-14)

    def test_random_round_trip(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 50:
            e, x, _ = random_expression_with_point(rng, 2, depth=6)
            back = parse(str(e), 2)
            assert back.evaluate(x) == pytest.approx(e.evaluate(x), rel=1e-14, abs=1e-14)
            checked += 1


def test_substitute_rebuilds_each_inner_node_through_its_smart_constructor():
    """Composition: every inner node class takes the substituted children, a
    power's coordinate-free exponent comes back equal, and constants fold."""
    text = "neg(sqrt(x1)) + exp(x2) - log(x1) * sin(x2) / cos(x1) + x1^(q - 1) + abspow(x2, q)"
    x1, x2 = "(x1 + 2*x2)", "(x1*x2)"
    composed = parse(text.replace("x1", "X").replace("x2", x2).replace("X", x1), 2, ["q"])
    got = parse(text, 2, ["q"]).substitute([parse(x1, 2), parse(x2, 2)])
    assert got.to_string() == composed.to_string()
    x, params = (0.7, 1.3), {"q": 2.5}
    assert repr(got.evaluate(x, params)) == repr(composed.evaluate(x, params))
    folded = parse("sqrt(x1) * x2^2", 2).substitute([Const(4.0), Const(3.0)])
    assert type(folded) is Const and folded.value == 18.0
