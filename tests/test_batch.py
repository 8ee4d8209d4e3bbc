"""The batch axis: expressions and map points evaluated at many points at once
must give exactly what one evaluation per point gives, and the chunked energy
quadrature must equal a plain per-node loop bit for bit, failures included."""

import numpy as np
import pytest

from pbh import linalg, mapcalc
from pbh.errors import BatchSplit, JetOrderError, PbhError, SingularityError
from pbh.expr import parse
from pbh.geometry import ChartMetric, euclidean_chart, space_form_chart
from pbh.jets import lift_point, point_value, space_for, sqrt, value
from pbh.mapcalc import SmoothMap, gauss_legendre_box, p_bienergy_box, p_energy_box
from pbh.scenarios import builtin
from pbh.verify import corpus_maps, random_expression_with_point

FIRST_PARTIALS = [(1, 0), (0, 1)]


def _batch(points):
    return tuple(np.array(axis) for axis in zip(*points))


def _entries(v, size):
    return [repr(t) for t in np.broadcast_to(v, size).tolist()]


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_batched_expression_equals_per_point(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        e, x = random_expression_with_point(rng, 2)
        points = [tuple(c + float(d) for c, d in zip(x, rng.uniform(-0.05, 0.05, 2)))
                  for _ in range(6)]
        good = []
        for pt in points:
            try:
                good.append((pt, e.evaluate(pt), e.evaluate(lift_point(pt, 1))))
            except (PbhError, ArithmeticError, ValueError):
                continue  # a point outside the expression's domain
        if not good:
            continue
        X = _batch([pt for pt, _f, _j in good])
        with np.errstate(all="raise", under="ignore"):
            flt = e.evaluate(X)
            jet = e.evaluate(lift_point(X, 1))
        size = len(good)
        assert _entries(flt, size) == [repr(f) for _pt, f, _j in good], str(e)
        assert _entries(jet.value, size) == [repr(j.value) for _pt, _f, j in good], str(e)
        for alpha in FIRST_PARTIALS:
            assert (_entries(jet.coefficient(alpha), size)
                    == [repr(j.coefficient(alpha)) for _pt, _f, j in good]), str(e)


def test_batched_jets_reject_order_two_and_mixing():
    with pytest.raises(JetOrderError):
        lift_point(_batch([(0.5, 1.0), (0.7, 1.1)]), 2)
    scalar = lift_point((0.5, 1.0), 1)
    batched = lift_point(_batch([(0.5, 1.0), (0.7, 1.1)]), 1)
    with pytest.raises(ValueError):
        scalar[0] + batched[0]


def test_batched_point_value_is_hashable():
    X = lift_point(_batch([(0.5, 1.0), (0.7, 1.1)]), 1)
    assert point_value(X) == ((0.5, 0.7), (1.0, 1.1))
    assert hash(point_value(X)) == hash(((0.5, 0.7), (1.0, 1.1)))


def test_batched_partial_and_constant_keep_the_batch_shape():
    sp = space_for(2, 1, batched=True)
    x = sp.variable(0, np.array([0.5, 0.7, 0.9]))
    assert x.partial(0).value.tolist() == [1.0, 1.0, 1.0]
    assert (x ** 0).value.tolist() == [1.0, 1.0, 1.0]
    assert (x ** 0).c.shape == x.c.shape


# ---------------------------------------------------------------------- #
# the quadrature against a per-node loop
# ---------------------------------------------------------------------- #

def _volume(pt):
    return sqrt(value(linalg.det(pt.g)))


def loop_energy(phi, box, p, order):
    total = 0.0
    for x, w in gauss_legendre_box(box, order):
        if not phi.source.contains(x):
            raise SingularityError("quadrature node outside source domain", point=x)
        pt = phi.at(x)
        total += w * value(pt.norm_power(p)) * _volume(pt)
    return total / p


def loop_bienergy(phi, box, p, order):
    total = 0.0
    for x, w in gauss_legendre_box(box, order):
        if not phi.source.contains(x):
            raise SingularityError("quadrature node outside source domain", point=x)
        pt = phi.at(lift_point(x, 1) if p != 2.0 else x)
        taup = pt.p_tension(p)
        total += 0.5 * w * value(pt.h_inner(taup, taup)) * _volume(pt)
    return total


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # the class and message must match too
        return f"{type(exc).__name__}: {exc}"


@pytest.fixture
def node_calls(monkeypatch):
    """Counts of batched and single-node evaluations inside the quadrature."""
    calls = {"batched": 0, "single": 0}
    inner = mapcalc._node_terms

    def counting(phi, X, jet_order, integrand):
        calls["batched" if isinstance(X[0], np.ndarray) else "single"] += 1
        return inner(phi, X, jet_order, integrand)

    monkeypatch.setattr(mapcalc, "_node_terms", counting)
    return calls


def _corpus():
    maps = [(name, phi, box) for name, phi, box in corpus_maps()]
    inv3, inv2 = builtin("inversion(3)"), builtin("inversion(2)")
    maps.append(("inversion3_l2", lambda p: inv3.build({"l": 2.0, "p": p}), inv3.box))
    maps.append(("inversion2_l1.7", lambda p: inv2.build({"l": 1.7, "p": p}), inv2.box))
    return [pytest.param(phi, box, id=name) for name, phi, box in maps]


@pytest.mark.parametrize("phi, box", _corpus())
def test_quadrature_matches_per_node_loop(phi, box, node_calls):
    # order 5: one chunk in two dimensions, a full and a partial chunk in three
    for p in (2.0, 3.0):
        f = phi(p) if callable(phi) else phi
        assert repr(p_energy_box(f, box, p, order=5)) == repr(loop_energy(f, box, p, 5))
        assert repr(p_bienergy_box(f, box, p, order=5)) == repr(loop_bienergy(f, box, p, 5))
    assert node_calls["single"] == 0 and node_calls["batched"] > 0


def test_vanishing_differential_mid_chunk(node_calls):
    e2 = euclidean_chart(2)
    phi = SmoothMap(e2, e2, [parse("x1^2", 2), parse("x2^2", 2)])
    box = [(-1.0, 1.0)] * 2  # order 9: the center node is node 40 of the first chunk
    for fn, loop in ((p_energy_box, loop_energy), (p_bienergy_box, loop_bienergy)):
        got = _outcome(fn, phi, box, 3.0, 9)
        assert got.startswith("SingularityError: vanishing |dphi|")
        assert got == _outcome(loop, phi, box, 3.0, 9)
    assert node_calls["single"] > 0


def test_node_outside_domain_mid_chunk():
    phi = SmoothMap(space_form_chart(-1.0, 2), euclidean_chart(2),
                    [parse("x1", 2), parse("x2", 2)])
    box = [(0.0, 3.0), (0.0, 0.5)]  # order 4: node 8 of 16 leaves the ball
    for fn, loop in ((p_energy_box, loop_energy), (p_bienergy_box, loop_bienergy)):
        got = _outcome(fn, phi, box, 3.0, 4)
        assert got.startswith("SingularityError: quadrature node outside source domain")
        assert got == _outcome(loop, phi, box, 3.0, 4)


def test_pivot_rows_that_differ_across_nodes_split_the_batch(node_calls):
    # column 0 pivots on row 0 where 0.3 + x1^2 > 0.8 and on row 1 elsewhere
    g = [[parse("0.3 + x1^2", 2), parse("0.8", 2)], [parse("0.8", 2), parse("3 + x2", 2)]]
    source = ChartMetric(2, g)
    phi = SmoothMap(source, euclidean_chart(2),
                    [parse("x1 + 0.2*x2^2", 2), parse("x2 - 0.1*x1*x2", 2)])
    X = _batch([(0.2, 0.5), (0.9, 0.5)])
    with pytest.raises(BatchSplit):
        linalg.inverse(source.metric_at(X))
    box = [(0.0, 1.0)] * 2
    for p in (2.0, 3.0):
        assert repr(p_energy_box(phi, box, p, order=6)) == repr(loop_energy(phi, box, p, 6))
        assert repr(p_bienergy_box(phi, box, p, order=6)) == repr(loop_bienergy(phi, box, p, 6))
    assert node_calls["single"] > 0
