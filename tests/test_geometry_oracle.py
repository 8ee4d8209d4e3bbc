"""The Christoffel, curvature and divergence kernels of `pbh.geometry` form
each distinct jet product once, with the operands, operand order and
summation order of a plain loop over every index. The plain loops are copied
here as the oracle: every entry must have the same bits (`tobytes` of a jet's
coefficients or of an array, `repr` of a float) at float points, order-3 jet
points and batched points of every chart the corpus maps and immersions use.
The kernels multiply through `_product_memo`, tested last."""

import itertools

import numpy as np
import pytest

from pbh import linalg
from pbh.geometry import _product_memo, divergence_2tensor_at, euclidean_chart, space_form_chart
from pbh.jets import JetScalar, lift_point, partial
from pbh.verify import corpus_immersions, corpus_maps


# ---------------------------------------------------------------------- #
# the oracle: one loop over every index, each product formed where it is read
# ---------------------------------------------------------------------- #

def christoffel(ginv, dg):
    d = len(dg)
    gamma = [[[None] * d for _ in range(d)] for _ in range(d)]
    for k, i in itertools.product(range(d), repeat=2):
        for j in range(i, d):
            s = 0.0
            for l in range(d):
                s = s + ginv[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
            s = 0.5 * s
            gamma[k][i][j] = s
            gamma[k][j][i] = s
    return gamma


def christoffel_derivative(ginv, dg, d2g):
    d = len(dg)
    dginv = [[[None] * d for _ in range(d)] for _ in range(d)]
    for m in range(d):
        tmp = linalg.mat_mul(ginv, linalg.mat_mul(dg[m], ginv))
        for k in range(d):
            for l in range(d):
                dginv[m][k][l] = -tmp[k][l]
    out = [[[[None] * d for _ in range(d)] for _ in range(d)] for _ in range(d)]
    for m, k, i, j in itertools.product(range(d), repeat=4):
        s = 0.0
        for l in range(d):
            s = s + dginv[m][k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
            s = s + ginv[k][l] * (d2g[m][i][j][l] + d2g[m][j][i][l] - d2g[m][l][i][j])
        out[m][k][i][j] = 0.5 * s
    return out


def curvature(gamma, dgamma):
    d = len(gamma)
    R = [[[[None] * d for _ in range(d)] for _ in range(d)] for _ in range(d)]
    for l, i, j, k in itertools.product(range(d), repeat=4):
        s = dgamma[i][l][j][k] - dgamma[j][l][i][k]
        for m in range(d):
            s = s + gamma[l][i][m] * gamma[m][j][k] - gamma[l][j][m] * gamma[m][i][k]
        R[l][i][j][k] = s
    return R


def divergence_2tensor(ginv, gamma, T):
    d = len(T)
    out = []
    for k in range(d):
        s = 0.0
        for i in range(d):
            for j in range(d):
                cov = partial(T[j][k], i)
                for l in range(d):
                    cov = cov - gamma[l][i][j] * T[l][k] - gamma[l][i][k] * T[j][l]
                s = s + ginv[i][j] * cov
        out.append(s)
    return out


# ---------------------------------------------------------------------- #

def _bits(v):
    """Nested entries as comparable bits: a float's repr keeps -0.0 and the type."""
    if isinstance(v, list):
        return [_bits(e) for e in v]
    if isinstance(v, JetScalar):
        return ("jet", v.c.shape, v.c.tobytes())
    if isinstance(v, np.ndarray):
        return ("array", v.tobytes())
    return (type(v).__name__, repr(v))


def _charts():
    """(name, chart, box) for each distinct chart of the corpus, plus the flat
    and space-form charts; a target chart is sampled on (0.3, 0.9)^d."""
    out, seen = [], set()
    maps = [(name, phi(3.0) if callable(phi) else phi, box) for name, phi, box in corpus_maps()]
    maps += corpus_immersions()
    for name, phi, box in maps:
        for side, chart, chart_box in (("source", phi.source, box),
                                       ("target", phi.target, [(0.3, 0.9)] * phi.target.dim)):
            if id(chart) not in seen:
                seen.add(id(chart))
                out.append((f"{name}.{side}", chart, chart_box))
    out += [("euclidean3", euclidean_chart(3), [(0.3, 0.9)] * 3),
            ("sphere3", space_form_chart(1.0, 3), [(0.3, 0.9)] * 3),
            ("ball3", space_form_chart(-0.7, 3), [(0.3, 0.9)] * 3)]
    return out


CHARTS = _charts()
POINT_KINDS = ["float", "order3", "batched"]


def _point(box, kind):
    rng = np.random.default_rng(5)
    xs = [[float(rng.uniform(lo, hi)) for lo, hi in box] for _ in range(3)]
    if kind == "float":
        return tuple(xs[0])
    if kind == "order3":
        return lift_point(xs[0], 3)
    return lift_point(tuple(np.array(column) for column in zip(*xs)), 3)


@pytest.mark.parametrize("kind", POINT_KINDS)
@pytest.mark.parametrize("name, chart, box", CHARTS, ids=[c[0] for c in CHARTS])
def test_connection_and_curvature_equal_the_plain_loops(name, chart, box, kind):
    X, memo = _point(box, kind), {}
    ginv = chart.inverse_metric_at(X, memo)
    dg, d2g = chart.dmetric_at(X, memo), chart.d2metric_at(X, memo)
    gamma = chart.christoffel_at(X, ginv=ginv, dg=dg)
    dgamma = chart.christoffel_derivative_at(X, ginv=ginv, dg=dg, memo=memo)
    assert _bits(gamma) == _bits(christoffel(ginv, dg))
    assert _bits(dgamma) == _bits(christoffel_derivative(ginv, dg, d2g))
    R = chart.curvature_at(X, ginv=ginv, dg=dg, gamma=gamma, memo=memo)
    assert _bits(R) == _bits(curvature(gamma, dgamma))
    # the defaults evaluate what the callers pass
    assert _bits(chart.christoffel_at(X, memo={})) == _bits(gamma)
    assert _bits(chart.curvature_at(X, memo={})) == _bits(R)


def _copy(e):
    """An equal value in a new object."""
    return JetScalar(e.space, e.c.copy()) if isinstance(e, JetScalar) else e * 1.0


def _tensors(X, d):
    """2-tensors at the point X: symmetric by object, with float zeros of both
    signs; with T[j][i] a copy of T[i][j]; and not symmetric at all."""
    x = list(X) + [X[0]] * d
    sym = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            sym[i][j] = sym[j][i] = x[i] * x[j + 1] + 0.25 * (i + 1) * x[j]
    if d > 1:
        sym[0][1] = sym[1][0] = 0.0
    sym[d - 1][d - 1] = -0.0
    copied = [[sym[i][j] if j >= i else _copy(sym[i][j]) for j in range(d)] for i in range(d)]
    skew = [[x[i] - 0.5 * x[j] for j in range(d)] for i in range(d)]
    return {"symmetric": sym, "copied": copied, "not_symmetric": skew}


@pytest.mark.parametrize("kind", POINT_KINDS)
@pytest.mark.parametrize("name, chart, box", CHARTS, ids=[c[0] for c in CHARTS])
def test_tensor_divergence_equals_the_plain_loop(name, chart, box, kind):
    X, memo = _point(box, kind), {}
    ginv = chart.inverse_metric_at(X, memo)
    gamma = chart.christoffel_at(X, ginv=ginv, memo=memo)
    d = chart.dim
    # a structural zero of either sign in g^{-1}: its terms are skipped
    signed = [row[:] for row in ginv]
    if d > 1:
        signed[0][1], signed[1][0] = -0.0, 0.0
    for label, T in _tensors(X, d).items():
        for g in (ginv, signed):
            assert _bits(divergence_2tensor_at(g, gamma, T)) == \
                _bits(divergence_2tensor(g, gamma, T)), label


@pytest.mark.parametrize("batched", [False, True])
def test_the_product_memo_multiplies_each_ordered_pair_of_jets_once(batched, operation_counts):
    point = (np.array([0.3, 0.4]), np.array([0.7, 0.9])) if batched else (0.3, 0.7)
    x, y = lift_point(point, 2)
    y_copy = _copy(y)  # equal coefficients, another object
    expected = {pair: (a * b).c.tobytes() for pair, (a, b) in
                {"xy": (x, y), "yx": (y, x), "x_copy": (x, y_copy)}.items()}
    mul = _product_memo()
    operation_counts.reset()
    xy = mul(x, y)
    assert mul(x, y) is xy
    assert operation_counts["products"] == 1
    yx, x_copy = mul(y, x), mul(x, y_copy)
    assert operation_counts["products"] == 3
    assert operation_counts["repeated_products"] == 0
    assert {"xy": xy.c.tobytes(), "yx": yx.c.tobytes(), "x_copy": x_copy.c.tobytes()} == expected
    # a memo of its own multiplies the pair again
    assert _product_memo()(x, y) is not xy


def test_the_product_memo_passes_floats_and_arrays_to_the_product(operation_counts):
    x, _y = lift_point((0.3, 0.7), 2)
    mul = _product_memo()
    operation_counts.reset()
    # structural zeros and ones: 0.0 stays the float, 1.0 returns the jet itself
    assert _bits(mul(x, 0.0)) == _bits(mul(0.0, x)) == ("float", "0.0")
    assert mul(x, 1.0) is x and mul(1.0, x) is x
    assert _bits(mul(x, 2.5)) == _bits(x * 2.5)
    assert _bits(mul(-0.0, 0.5)) == ("float", "-0.0")
    a, b = np.array([0.25, -1.5]), np.array([3.0, 0.0])
    assert _bits(mul(a, b)) == _bits(a * b) and mul(a, b) is not mul(a, b)
    assert operation_counts["products"] == 0
