"""Charts, connections, curvature, frames, and first-order operators."""

import itertools
import math

import numpy as np
import pytest

from pbh.errors import RankDeficiencyError, SingularMatrixError
from pbh.expr import Const, parse
from pbh.geometry import (ChartMetric, divergence_2tensor_at, divergence_at, euclidean_chart,
                          sectional_curvature, space_form_chart)
from pbh.jets import lift_point, value
from pbh.mapcalc import SmoothMap, _stack
from pbh.scenarios import builtin
from pbh.submanifold import Immersion
from pbh.verify import corpus_immersions


def conformal_chart(f_text, dim):
    factor = parse(f"exp(2*({f_text}))", dim)
    zero = Const(0.0)
    return ChartMetric(dim, [[factor if i == j else zero for j in range(dim)]
                             for i in range(dim)])


def curvature_up_low(chart, x):
    """(R^l_ijk, R_ijkl) at a float point; R_ijkl = g(R(d_i,d_j)d_k, d_l)."""
    R = chart.curvature_at(x)
    g = chart.metric_at(x)
    d = chart.dim
    low = [[[[sum(R[m][i][j][k] * g[m][l] for m in range(d)) for l in range(d)]
             for k in range(d)] for j in range(d)] for i in range(d)]
    return R, low


def plane_frames(ambient):
    """ImmersionPoint.frames of x -> (x1, x2, 0) into a constant 3-dimensional
    ambient metric, as floats: (tangent frame, normal frame)."""
    imm = Immersion(2, ambient, [parse("x1", 2), parse("x2", 2), parse("0", 2)])
    return tuple([[value(c) for c in vec] for vec in frame]
                 for frame in imm.at((0.1, 0.2)).frames)


def constant_chart(M):
    d = len(M)
    return ChartMetric(d, [[Const(float(M[i][j])) for j in range(d)] for i in range(d)])


def context_gradient(chart, f, x):
    """grad f = g^{ij} (d_j f) d_i of an expression, read from a point context."""
    d = chart.dim
    mp = SmoothMap(chart, euclidean_chart(d), [parse(f"x{i + 1}", d) for i in range(d)]).at(x)
    return [value(v) for v in mp.grad_scalar([f.diff(j).evaluate(x) for j in range(d)])]


class TestChartMetric:
    def test_constructor_symmetrizes(self):
        chart = ChartMetric(2, [[Const(1.0), parse("x1", 2)],
                                [parse("x2", 2), Const(1.0)]])
        x = (0.3, 0.9)
        g = chart.metric_at(x)
        assert g[0][1] == g[1][0] == pytest.approx(0.6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ChartMetric(2, [[Const(1.0)]])

    def test_singular_metric_inversion(self):
        chart = ChartMetric(2, [[parse("x1", 2), Const(0.0)],
                                [Const(0.0), Const(1.0)]])
        with pytest.raises(SingularMatrixError):
            chart.inverse_metric_at((0.0, 1.0))

    def test_domain_of_negative_space_form(self):
        chart = space_form_chart(-1.0, 2)
        assert chart.contains((0.5, 0.5))
        assert not chart.contains((2.0, 0.1))


class TestChristoffel:
    def test_euclidean_zero(self):
        G = euclidean_chart(3).christoffel_at((0.3, -0.2, 1.0))
        assert max(abs(G[k][i][j]) for k in range(3) for i in range(3)
                   for j in range(3)) == 0.0

    def test_conformal_closed_form(self):
        # g = exp(2 f) delta: Gamma^k_ij = d^k_i f_j + d^k_j f_i - d_ij f_k
        f = parse("0.3*x1*x2 + 0.1*x1^2", 2)
        chart = conformal_chart("0.3*x1*x2 + 0.1*x1^2", 2)
        rng = np.random.default_rng(31)
        for _ in range(5):
            x = tuple(rng.uniform(-0.8, 0.8, size=2))
            G = chart.christoffel_at(x)
            df = [f.diff(0).evaluate(x), f.diff(1).evaluate(x)]
            for k, i, j in itertools.product(range(2), repeat=3):
                expect = ((k == i) * df[j] + (k == j) * df[i] - (i == j) * df[k])
                assert G[k][i][j] == pytest.approx(expect, abs=1e-12)

    def test_symmetry_in_lower_indices(self):
        chart = space_form_chart(0.7, 3)
        G = chart.christoffel_at((0.2, 0.4, -0.1))
        for k, i, j in itertools.product(range(3), repeat=3):
            assert G[k][i][j] == G[k][j][i]

    def test_sphere_chart_origin_is_critical(self):
        G = space_form_chart(1.0, 2).christoffel_at((0.0, 0.0))
        assert max(abs(G[k][i][j]) for k in range(2) for i in range(2)
                   for j in range(2)) == 0.0


def _pullback_chart(imm):
    """The source chart of `imm` rebuilt with the induced metric it pulls back."""
    return Immersion(imm.m, imm.target, imm.components, params=imm.params).source


class TestCurvature:
    def test_euclidean_flat(self):
        up, low = curvature_up_low(euclidean_chart(2), (0.5, 0.5))
        assert max(abs(v) for plane in low for mat in plane for row in mat
                   for v in row) == 0.0

    def test_space_form_lowered_tensor(self):
        for c in (1.0, -0.6):
            chart = space_form_chart(c, 3)
            rng = np.random.default_rng(32)
            for _ in range(3):
                x = tuple(rng.uniform(-0.4, 0.4, size=3))
                _, low = curvature_up_low(chart, x)
                g = [[comp.evaluate(x, {}) for comp in row] for row in chart.components]
                for i, j, k, l in itertools.product(range(3), repeat=4):
                    expect = c * (g[j][k] * g[i][l] - g[i][k] * g[j][l])
                    assert low[i][j][k][l] == pytest.approx(expect, abs=1e-8)

    def test_sectional_curvature_constancy(self):
        chart = space_form_chart(1.0, 3)
        rng = np.random.default_rng(33)
        x = (0.2, -0.1, 0.3)
        for _ in range(10):
            u = list(rng.uniform(-1, 1, size=3))
            v = list(rng.uniform(-1, 1, size=3))
            assert sectional_curvature(chart, x, u, v) == pytest.approx(1.0, abs=1e-8)
        assert sectional_curvature(space_form_chart(-1.0, 2), (0.0, 0.0),
                                   [1, 0], [0, 1]) == pytest.approx(-1.0, abs=1e-8)

    @pytest.mark.parametrize("chart_dim, x, u, v", [
        (2, (0.1, 0.2, 5.0), [1, 0], [0, 1]),  # a point with a coordinate too many
        (3, (0.1, 0.2), [1, 0, 0], [0, 1, 0]),  # a point with one too few
        (2, (0.1, 0.2), [1, 0, 0], [0, 1]),
        (2, (0.1, 0.2), [1, 0], [0]),
    ])
    def test_sectional_curvature_checks_sizes(self, chart_dim, x, u, v):
        with pytest.raises(ValueError, match=f"need {chart_dim} coordinates"):
            sectional_curvature(space_form_chart(1.0, chart_dim), x, u, v)

    @pytest.mark.parametrize("u, v", [([1, 0], [2, 0]), ([1, 0], [1, 1e-9])])
    def test_sectional_curvature_rejects_vectors_that_span_no_plane(self, u, v):
        # [1, 0] and [1, 1e-9] span a plane, but |u|^2 |v|^2 - g(u, v)^2 cancels to 0
        chart = space_form_chart(1.0, 2)
        with pytest.raises(ValueError, match="span no plane"):
            sectional_curvature(chart, (0.2, 0.5), u, v)
        # one such entry of a batched point, where numpy divides without raising
        x, U, V = _stack([(0.1, -0.3), (0.2, 0.5)]), _stack([[1, 0], u]), _stack([[0, 1], v])
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="span no plane"):
            sectional_curvature(chart, x, U, V)

    @pytest.mark.parametrize("chart", [
        space_form_chart(1.0, 2), space_form_chart(1.0, 3), space_form_chart(-0.7, 3),
        next(imm.source for name, imm, _box in corpus_immersions() if name == "paraboloid"),
        _pullback_chart(builtin("small_hypersphere(2, 0.8)").build()),
    ], ids=["S2", "S3", "H3", "paraboloid", "latitude_sphere_pullback"])
    def test_sectional_curvature_at_a_batched_point_equals_the_per_point_floats(self, chart):
        """The charts of the space-form criterion; the pull-back metric of the
        corpus paraboloid, which is not conformal to flat: its g_12 is nonzero, so
        the inverse metric eliminates at every entry; and the pull-back metric of a
        latitude sphere, conformal to flat up to rounding: its g_12 is exactly zero
        at some entries and not at others, so the batch splits (BatchSplit) and its
        entries are evaluated one at a time."""
        rng, d = np.random.default_rng(34), chart.dim
        draws = [[tuple(float(rng.uniform(-a, a)) for _ in range(d)) for a in (0.4, 1.0, 1.0)]
                 for _ in range(20)]
        expect = [sectional_curvature(chart, x, u, v) for x, u, v in draws]
        with np.errstate(all="raise", under="ignore"):
            K = sectional_curvature(chart, *(_stack(axis) for axis in zip(*draws)))
        assert K.view(np.int64).tolist() == np.array(expect).view(np.int64).tolist()

    def test_two_sphere_scalar_curvature(self):
        # in dimension 2 the scalar curvature is twice the sectional curvature
        K = sectional_curvature(space_form_chart(1.0, 2), (0.2, 0.5), [1, 0], [0, 1])
        assert 2.0 * K == pytest.approx(2.0, abs=1e-8)

    def test_antisymmetry_and_first_bianchi(self):
        chart = conformal_chart("0.2*x1^2 - 0.3*x1*x2", 2)
        x = (0.4, -0.6)
        up, low = curvature_up_low(chart, x)
        for i, j, k, l in itertools.product(range(2), repeat=4):
            assert low[i][j][k][l] == pytest.approx(-low[j][i][k][l], abs=1e-10)
        for l, i, j, k in itertools.product(range(2), repeat=4):
            cyc = up[l][i][j][k] + up[l][j][k][i] + up[l][k][i][j]
            assert cyc == pytest.approx(0.0, abs=1e-10)


class TestFrames:
    def test_euclidean_standard_basis(self):
        tangent, normal = plane_frames(euclidean_chart(3))
        assert tangent + normal == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    def test_diagonal_rescaling(self):
        tangent, normal = plane_frames(constant_chart([[4.0, 0.0, 0.0], [0.0, 9.0, 0.0],
                                                       [0.0, 0.0, 1.0]]))
        assert tangent[0] == pytest.approx([0.5, 0.0, 0.0])
        assert tangent[1] == pytest.approx([0.0, 1.0 / 3.0, 0.0])
        assert normal == [[0.0, 0.0, 1.0]]

    def test_random_spd_metric_orthonormality(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            A = rng.uniform(-1, 1, size=(3, 3))
            M = A @ A.T + 3 * np.eye(3)
            tangent, normal = plane_frames(constant_chart(M))
            vectors = tangent + normal
            assert len(vectors) == 3
            for i in range(3):
                for j in range(3):
                    ip = sum(M[a][b] * vectors[i][a] * vectors[j][b]
                             for a in range(3) for b in range(3))
                    assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_breakdown_on_degenerate_metric(self):
        # dphi(d_2) - dphi(d_1) has zero length under this metric
        with pytest.raises(RankDeficiencyError):
            plane_frames(constant_chart([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


class TestOperators:
    def test_gradient_coordinate_function(self):
        g = context_gradient(euclidean_chart(3), parse("x1", 3), (0.1, 0.2, 0.3))
        assert g == pytest.approx([1.0, 0.0, 0.0])

    def test_gradient_respects_inverse_metric(self):
        chart = conformal_chart("0.4*x1", 2)
        x = (0.3, 0.8)
        g = context_gradient(chart, parse("x2^2", 2), x)
        lam = math.exp(2 * 0.4 * 0.3)
        assert g == pytest.approx([0.0, 2 * 0.8 / lam], rel=1e-12)

    def test_divergence_of_position_field(self):
        X = lift_point((0.4, 0.5, -0.2), 1)
        div = divergence_at(euclidean_chart(3).christoffel_at(X), list(X))
        assert value(div) == pytest.approx(3.0)

    def test_divergence_2tensor_product_rule(self):
        # T = f g  =>  div T = df
        chart = conformal_chart("0.2*x1*x2", 2)
        f = parse("x1^2 + 0.5*x2", 2)
        rng = np.random.default_rng(35)

        def T(X):
            fx = f.evaluate(X)
            g = chart.metric_at(X)
            return [[fx * g[i][j] for j in range(2)] for i in range(2)]

        for _ in range(4):
            x = tuple(rng.uniform(-0.7, 0.7, size=2))
            X = lift_point(x, 1)
            div = [value(s) for s in divergence_2tensor_at(chart.inverse_metric_at(X),
                                                           chart.christoffel_at(X), T(X))]
            df = [f.diff(0).evaluate(x), f.diff(1).evaluate(x)]
            assert div == pytest.approx(df, abs=1e-9)

    def test_metric_compatibility(self):
        charts = [space_form_chart(1.0, 3), conformal_chart("0.3*x1 - 0.2*x2^2", 2)]
        rng = np.random.default_rng(36)
        for chart in charts:
            d = chart.dim
            for _ in range(3):
                x = tuple(rng.uniform(-0.4, 0.4, size=d))
                dg = chart.dmetric_at(x)
                G = chart.christoffel_at(x)
                g = chart.metric_at(x)
                for k, i, j in itertools.product(range(d), repeat=3):
                    cov = dg[k][i][j]
                    for l in range(d):
                        cov -= G[l][k][i] * g[l][j] + G[l][k][j] * g[i][l]
                    assert cov == pytest.approx(0.0, abs=1e-9)
