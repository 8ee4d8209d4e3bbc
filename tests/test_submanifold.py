"""Extrinsic geometry of immersions and the p-biharmonic residual systems."""

import functools
import itertools
import math
import operator

import numpy as np
import pytest

from pbh.errors import DomainError, RankDeficiencyError
from pbh.expr import parse
from pbh.geometry import divergence_2tensor_at, sectional_curvature, space_form_chart
from pbh.jets import JetScalar, lift_point, partial, sqrt, value
from pbh.mapcalc import SmoothMap, _stack, p_bitension, p_tension, tension
from pbh.scenarios import SCHEMA_VERSION, Scenario, builtin
from pbh.stress import (_stress_matrix, stress_divergence_check, stress_tensor, stress_trace,
                        trace_identity_at)
from pbh.submanifold import (Immersion, ImmersionPoint, bitension_split, cmc_proper_p,
                             theorem21_residuals, theorem23_residuals)
from pbh.verify import corpus_immersions, corpus_maps

SPHERE_BOX = [(-0.6, 0.7)] * 2
CORPUS = {name: imm for name, imm, _box in corpus_immersions()}


def plane_immersion():
    """Affine 2-plane inside Euclidean 3-space."""
    ambient = space_form_chart(0.0, 3)
    comps = [parse("x1", 2), parse("x2", 2), parse("0.5*x1 - 0.25*x2 + 1", 2)]
    return Immersion(2, ambient, comps, name="plane")


def euclidean_immersion(name, components, box, params=None):
    """The scenario of an immersion into Euclidean space with the induced metric."""
    return Scenario.from_dict({
        "schema": SCHEMA_VERSION, "name": name, "kind": "immersion",
        "source": {"dim": len(box)}, "target": {"dim": len(components), "space_form": 0.0},
        "components": components, "params": params or {},
        "samples": {"box": box, "points_per_axis": 2}, "checks": ["theorem_2_1"]})


# the round circle of radius r in the angle chart, and the flat torus
# S^1(0.7) x S^1(1.3) in R^4, an immersion of codimension 2
CIRCLE = euclidean_immersion("circle", ["r*cos(x1)", "r*sin(x1)"], [[0.3, 2.8]], {"r": 0.8})
TORUS = euclidean_immersion(
    "flat_torus", ["0.7*cos(x1)", "0.7*sin(x1)", "1.3*cos(x2)", "1.3*sin(x2)"], [[0.3, 2.8]] * 2)


def floats(t):
    """Base values of a nested list of float-or-jet scalars."""
    return [floats(v) for v in t] if isinstance(t, list) else value(t)


def sample(rng, box, count):
    return [tuple(float(rng.uniform(lo, hi)) for lo, hi in box) for _ in range(count)]


class TestImmersionBasics:
    def test_isometric_source_metric(self):
        imm = builtin("small_hypersphere(2, 0.8)").build()
        rng = np.random.default_rng(51)
        assert imm.isometry_defect(sample(rng, SPHERE_BOX, 5)) < 1e-10

    def test_induced_metric_curvature_is_gauss(self):
        # induced round metric of the radius-a sphere has curvature 1/a^2
        for a in (0.6, 0.8):
            imm = builtin(f"small_hypersphere(2, {a!r})").build()
            K = sectional_curvature(imm.source, (0.3, -0.2), [1, 0], [0, 1])
            assert K == pytest.approx(1.0 / a ** 2, abs=1e-8)

    def test_rank_deficiency_detected(self):
        ambient = space_form_chart(0.0, 3)
        # second column of dphi vanishes along x2 = 0
        comps = [parse("x1", 2), parse("x2^2", 2), parse("0", 2)]
        imm = Immersion(2, ambient, comps, name="degenerate")
        with pytest.raises(RankDeficiencyError):
            imm.at((0.4, 0.0)).frames

    def test_codimension_validation(self):
        with pytest.raises(ValueError):
            Immersion(2, space_form_chart(0.0, 2), [parse("x1", 2), parse("x2", 2)])

    def test_normal_frame_orthonormal_and_normal(self):
        imm = builtin("small_hypersphere(2, 0.7)").build()
        x = (0.3, 0.25)
        F = floats(imm.at(x).normal_frame)
        assert len(F) == 1
        ip = imm.at(x)
        xi = F[0]
        assert value(ip.h_inner(xi, xi)) == pytest.approx(1.0, abs=1e-12)
        for i in range(2):
            col = [value(ip.dphi[a][i]) for a in range(3)]
            assert value(ip.h_inner(xi, col)) == pytest.approx(0.0, abs=1e-12)


MAP_WRAPPERS = {"tension": lambda phi, x, p: tension(phi, x), "p_tension": p_tension,
                "p_bitension": p_bitension, "stress_tensor": stress_tensor,
                "stress_divergence_check": stress_divergence_check}


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("name, imm, box", corpus_immersions(),
                         ids=[name for name, _imm, _box in corpus_immersions()])
def test_map_wrappers_accept_an_immersion(name, imm, box, p):
    """An immersion is its inclusion map: every map wrapper reads it as it
    reads the SmoothMap of the same components, to the last bit."""
    phi = SmoothMap(imm.source, imm.target, imm.components, params=imm.params)
    x = tuple(0.5 * (lo + hi) for lo, hi in box)
    for wrapper, read in MAP_WRAPPERS.items():
        assert repr(read(imm, x, p)) == repr(read(phi, x, p)), wrapper


class TestSecondFundamentalForm:
    def test_plane_is_totally_geodesic(self):
        imm = plane_immersion()
        B = floats(imm.at((0.4, -0.7)).second_fundamental)
        assert max(abs(v) for mat in B for row in mat for v in row) < 1e-14

    def test_small_sphere_is_umbilical(self):
        # B_ij = coeff * g_ij with |coeff| = 1/r = b/a
        a = 0.8
        b = math.sqrt(1 - a * a)
        imm = builtin(f"small_hypersphere(2, {a!r})").build()
        x = (0.2, -0.4)
        B = floats(imm.at(x).second_fundamental)[0]
        g = [[value(v) for v in row] for row in imm.source.metric_at(x)]
        ratio = B[0][0] / g[0][0]
        assert abs(ratio) == pytest.approx(b / a, rel=1e-10)
        for i in range(2):
            for j in range(2):
                assert B[i][j] == pytest.approx(ratio * g[i][j], abs=1e-10)

    def test_circle_curvature(self):
        rho = 0.8
        imm = CIRCLE.build({"r": rho})
        B = floats(imm.at((1.1,)).second_fundamental)[0]
        g = value(imm.source.metric_at((1.1,))[0][0])
        assert abs(B[0][0]) / g == pytest.approx(1.0 / rho, rel=1e-10)


class TestShapeOperator:
    def test_plane_vanishes(self):
        imm = plane_immersion()
        xi = floats(imm.at((0.1, 0.2)).normal_frame)[0]
        A = floats(imm.at((0.1, 0.2)).shape_matrix(xi))
        assert max(abs(v) for row in A for v in row) < 1e-14

    def test_sphere_is_proportional_to_identity(self):
        a = 0.6
        b = math.sqrt(1 - a * a)
        imm = builtin(f"small_hypersphere(2, {a!r})").build()
        x = (0.15, 0.3)
        H = floats(imm.at(x).mean_curvature)
        hn = math.sqrt(sum(value(imm.at(x).h_inner(H, H)) for _ in [0]))
        eta = [c / hn for c in H]
        A = floats(imm.at(x).shape_matrix(eta))
        for i in range(2):
            for j in range(2):
                assert A[i][j] == pytest.approx((b / a) * (i == j), abs=1e-8)

    def test_self_adjointness(self):
        imm = CORPUS["paraboloid"]
        x = (0.3, -0.2)
        xi = floats(imm.at(x).normal_frame)[0]
        A = floats(imm.at(x).shape_matrix(xi))
        g = [[value(v) for v in row] for row in imm.source.metric_at(x)]
        gA = [[sum(g[i][k] * A[k][j] for k in range(2)) for j in range(2)]
              for i in range(2)]
        assert gA[0][1] == pytest.approx(gA[1][0], abs=1e-12)

    def test_hypersurface_shape_identity(self):
        # A_H = <H, eta> A_eta on hypersurfaces
        rng = np.random.default_rng(52)
        imm = CORPUS["paraboloid"]
        for x in sample(rng, [(-0.7, 0.7)] * 2, 5):
            ip = imm.at(x)
            eta = [value(c) for c in ip.normal_frame[0]]
            H = [value(c) for c in ip.mean_curvature]
            h_eta = value(ip.h_inner(H, eta))
            A_eta = floats(imm.at(x).shape_matrix(eta))
            A_H = floats(imm.at(x).shape_matrix(H))
            for i in range(2):
                for j in range(2):
                    assert A_H[i][j] == pytest.approx(h_eta * A_eta[i][j], abs=1e-9)


class TestMeanCurvature:
    def test_plane_minimal(self):
        assert floats(plane_immersion().at((0.9, 0.1)).mean_curvature) == pytest.approx(
            [0.0, 0.0, 0.0], abs=1e-14)

    def test_small_sphere_norm(self):
        for a in (0.6, 1 / math.sqrt(2), 0.8):
            b = math.sqrt(1 - a * a)
            imm = builtin(f"small_hypersphere(2, {a!r})").build()
            ip = imm.at((0.22, -0.31))
            assert math.sqrt(value(ip.mean_curvature_norm2)) == pytest.approx(
                b / a, rel=1e-10)

    def test_tension_is_m_times_H(self):
        rng = np.random.default_rng(53)
        for imm, box in [(builtin("small_hypersphere(2, 0.7)").build(), SPHERE_BOX),
                         (CORPUS["paraboloid"], [(-0.7, 0.7)] * 2),
                         (CIRCLE.build({"r": 1.3}), [(0.3, 2.8)])]:
            m = imm.m
            for x in sample(rng, box, 3):
                tau = tension(imm, x)
                H = floats(imm.at(x).mean_curvature)
                assert max(abs(t - m * h) for t, h in zip(tau, H)) < 1e-9

    def test_p_tension_is_m_to_p_half_H(self):
        imm = builtin("small_hypersphere(2, 0.75)").build()
        x = (0.2, 0.4)
        H = floats(imm.at(x).mean_curvature)
        for p in (2.0, 3.0, 4.0):
            tp = p_tension(imm, x, p)
            assert max(abs(t - 2 ** (p / 2.0) * h) for t, h in zip(tp, H)) < 1e-9


class TestNormalConnection:
    def test_parallel_mean_curvature_on_spheres(self):
        imm = builtin("small_hypersphere(2, 0.8)").build()
        x = (0.3, -0.1)

        def H_field(X):
            return imm.at(X).mean_curvature

        X = lift_point(x, 1)
        for i in range(2):
            W = floats(imm.at(X).nabla_perp(i, H_field(X)))
            assert max(abs(v) for v in W) < 1e-10
        assert max(abs(v) for v in floats(imm.at(lift_point(x, 2)).laplacian_perp_H)) < 1e-9

    def test_normal_laplacian_is_normal(self):
        rng = np.random.default_rng(54)
        for imm, box in [(CORPUS["paraboloid"], [(-0.6, 0.6)] * 2),
                         (builtin("small_hypersphere(2, 0.6)").build(), SPHERE_BOX)]:
            for x in sample(rng, box, 3):
                lap = floats(imm.at(lift_point(x, 2)).laplacian_perp_H)
                ip = imm.at(x)
                for i in range(imm.m):
                    col = [value(ip.dphi[a][i]) for a in range(imm.n)]
                    assert value(ip.h_inner(lap, col)) == pytest.approx(
                        0.0, abs=1e-10)

    def test_scalar_laplacian_oracle_on_hypersurface(self):
        # hypersurfaces have parallel unit normal in the normal bundle, so
        # Delta_perp H = (Delta_g <H, eta>) eta
        from pbh.geometry import divergence_at
        imm = CORPUS["paraboloid"]
        x = (0.25, -0.15)

        def f(X):
            ip = imm.at(X)
            return ip.h_inner(ip.mean_curvature, ip.normal_frame[0])

        def grad_f(X):
            ip = imm.at(X)
            from pbh.jets import partial
            fx = f(X)
            return ip.grad_scalar([partial(fx, j) for j in range(2)])

        X = lift_point(x, 2)  # grad_f consumes one shift, the divergence one more
        lap_scalar = value(divergence_at(imm.source.christoffel_at(X), grad_f(X)))
        ip = imm.at(x)
        eta = [value(c) for c in ip.normal_frame[0]]
        lap = floats(imm.at(lift_point(x, 2)).laplacian_perp_H)
        for a in range(3):
            assert lap[a] == pytest.approx(lap_scalar * eta[a], abs=1e-8)


def jet_laplacian_perp_H(ip):
    """The normal Laplacian as a loop of jet operations: the normal projection
    of each pull-back derivative, the Christoffel correction and the g^ij sum
    all on jets, the base values read off at the end."""
    W = ip.nabla_perp_H
    out = [0.0] * ip.n
    for i, j, gij in ip.ginv_terms:
        term = ip.nabla_perp(i, W[j])
        for k in range(ip.m):
            gam = ip.gammaM[k][i][j]
            term = [t - gam * wk for t, wk in zip(term, W[k])]
        for al in range(ip.n):
            out[al] = out[al] + gij * term[al]
    return out


def bits(values, size):
    """The int64 views of a list of base values, each broadcast to `size`
    entries (a float is shared by all entries), so the sign of zero counts."""
    return [np.broadcast_to(np.asarray(value(v), float), (size,)).view(np.int64).tolist()
            for v in values]


LAPLACIAN_CASES = list(corpus_immersions()) + [
    ("small_hypersphere(3, 0.5)", builtin("small_hypersphere(3, 0.5)").build(), [(-0.6, 0.7)] * 3),
    ("flat_torus", TORUS.build(), TORUS.box)]


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("name, imm, box", LAPLACIAN_CASES, ids=[c[0] for c in LAPLACIAN_CASES])
def test_normal_laplacian_equals_the_jet_loop_bit_for_bit(name, imm, box, order):
    """`laplacian_perp_H` takes its last stage on base values; every base value
    equals the jet loop's, at single points and at one batched point."""
    points = sample(np.random.default_rng(60), box, 4)
    for X, size in [(x, 1) for x in points] + [(_stack(points), len(points))]:
        ip = imm.at(lift_point(X, order))
        assert bits(ip.laplacian_perp_H, size) == bits(jet_laplacian_perp_H(ip), size)


# ---------------------------------------------------------------------- #
# the contractions with g^-1 and h, against full loops over every entry
# ---------------------------------------------------------------------- #

def _full_zero(u):
    return isinstance(u, float) and u == 0.0


def _full_times(a, b):
    return 0.0 if _full_zero(a) or _full_zero(b) else a * b


def _full_sum(terms):
    return functools.reduce(operator.add, terms, 0.0)


def _full_base(t):
    return [_full_base(u) for u in t] if isinstance(t, list) else value(t)


def full_h_inner(pt, u, v):
    h = pt.h
    return sum((h[a][b] * u[a] * v[b] for a in range(pt.n) for b in range(pt.n)), 0.0)


def full_lower_base(pt, v):
    h, dphi, r = _full_base(pt.h), _full_base(pt.dphi), range(pt.n)
    return [_full_sum(_full_times(_full_times(h[a][b], v[a]), dphi[b][i]) for a in r for b in r)
            for i in range(pt.m)]


def full_grad_scalar(pt, partials):
    return [sum((pt.ginv[i][j] * partials[j] for j in range(pt.m)), 0.0) for i in range(pt.m)]


def full_g_trace(pt, T):
    r = range(pt.m)
    return sum((pt.ginv[i][j] * T[i][j] for i in r for j in r), 0.0)


def full_norm2(pt):
    s = 0.0
    for i, j in itertools.product(range(pt.m), repeat=2):
        s = s + pt.ginv[i][j] * full_h_inner(pt, pt.dphi_cols[i], pt.dphi_cols[j])
    return s


def full_tension_pairing(pt, p):
    pairing = 0.0
    for i, j in itertools.product(range(pt.m), repeat=2):
        pairing = pairing + pt.ginv[i][j] * full_h_inner(pt, pt.dp_tension(p)[i],
                                                         pt.dphi_cols[j])
    return pairing


def full_trace_B_shape_H(pt):
    ginv, r = pt.ginv, range(pt.m)
    M = pt.shape_matrix(pt.mean_curvature)
    out = [0.0] * pt.n
    for a, xi in enumerate(pt.normal_frame):
        B = pt.second_fundamental[a]
        coeff = sum((ginv[i][j] * M[k][j] * B[i][k] for i in r for j in r for k in r), 0.0)
        for al in range(pt.n):
            out[al] = out[al] + coeff * xi[al]
    return out


def full_trace_A(pt):
    W, m = pt.nabla_perp_H, pt.m
    trA = [0.0] * m
    A_W = [pt.shape_matrix(W[i]) for i in range(m)]
    for i, j in itertools.product(range(m), repeat=2):
        for k in range(m):
            trA[k] = trA[k] + pt.ginv[i][j] * A_W[i][k][j]
    return trA


def full_laplacian_perp_H(pt):
    W, r = pt.nabla_perp_H, range(pt.n)
    w, gm = _full_base(W), _full_base(pt.gammaM)
    h, frame = _full_base(pt.h), _full_base(pt.tangent_frame)
    out = [0.0] * pt.n
    for i, j in itertools.product(range(pt.m), repeat=2):
        V = term = pt._pullback_base(W[j], w[j], i)
        for t in frame:
            c = _full_sum(_full_times(_full_times(h[a][b], V[a]), t[b]) for a in r for b in r)
            term = [o - _full_times(c, ti) for o, ti in zip(term, t)]
        for k in range(pt.m):
            term = [o - _full_times(gm[k][i][j], wk) for o, wk in zip(term, w[k])]
        for al in r:
            out[al] = out[al] + _full_times(value(pt.ginv[i][j]), term[al])
    return out


def full_divergence_2tensor(ginv, gamma, T):
    d = len(T)
    out = [0.0] * d
    for i in range(d):
        for k, j in itertools.product(range(d), repeat=2):
            cov = partial(T[j][k], i)
            for l in range(d):
                cov = cov - gamma[l][i][j] * T[l][k] - gamma[l][i][k] * T[j][l]
            out[k] = out[k] + ginv[i][j] * cov
    return out


def _contractions(pt, order, p):
    """{site: (contraction, full loop)} for every site defined at a point of `order`
    (0: a float point)."""
    cols, tension_base = pt.dphi_cols, _full_base(pt.tension)
    sites = {
        "h_inner": ([pt.h_inner(u, v) for u in cols for v in cols],
                    [full_h_inner(pt, u, v) for u in cols for v in cols]),
        "lower_base": (pt.lower_base(tension_base), full_lower_base(pt, tension_base)),
        "grad_scalar": (pt.grad_scalar(pt.dphi[0]), full_grad_scalar(pt, pt.dphi[0])),
        "norm2": (pt.norm2, full_norm2(pt)),
        "tension": (pt.tension, [full_g_trace(pt, s) for s in pt.sff]),
    }
    if order >= 2:
        S = _stress_matrix(pt, p)[0]
        sites["tension_pairing"] = (pt.tension_pairing(p), full_tension_pairing(pt, p))
        sites["trace_identity"] = (trace_identity_at(pt, p)[0], value(full_g_trace(pt, S)))
    if order >= 3:
        sites["divergence_2tensor"] = (divergence_2tensor_at(pt.ginv, pt.gammaM, S),
                                       full_divergence_2tensor(pt.ginv, pt.gammaM, S))
    if isinstance(pt, ImmersionPoint):
        sites["mean_curvature_frame"] = (
            pt.mean_curvature_frame,
            [full_g_trace(pt, B) * (1.0 / pt.m) for B in pt.second_fundamental])
        # these two return base values, the jet loops' order-0 coefficients
        sites["trace_B_shape_H"] = (pt.trace_B_shape_H(), _full_base(full_trace_B_shape_H(pt)))
        if order >= 1:
            sites["trace_A"] = (pt._general_terms[3], _full_base(full_trace_A(pt)))
        if order >= 2:
            sites["laplacian_perp_H"] = (pt.laplacian_perp_H, full_laplacian_perp_H(pt))
    return sites


def _bit_pattern(t):
    """t with every scalar replaced by its type and the int64 view of its
    coefficients (a jet), entries (an array) or value, so the sign of zero counts."""
    if isinstance(t, (list, tuple)):
        return [_bit_pattern(u) for u in t]
    c = t.c if isinstance(t, JetScalar) else np.asarray(t, float)
    return type(t).__name__, c.view(np.int64).tolist()


CONTRACTION_CASES = [(name, obj, box) for name, obj, box in corpus_maps()] + LAPLACIAN_CASES


@pytest.mark.parametrize("name, obj, box", CONTRACTION_CASES,
                         ids=[c[0] for c in CONTRACTION_CASES])
def test_contractions_equal_the_full_loops_bit_for_bit(name, obj, box):
    """Every contraction with g^-1 or h adds the terms of the entries that are not
    structural zeros only; each equals the loop over every entry bit for bit, at
    float points, single jet points and a batched jet point of orders 1 to 3."""
    p = 3.0
    phi = obj(p) if callable(obj) else obj
    points = sample(np.random.default_rng(61), box, 4)
    cases = [(x, 0) for x in points] + [(X, order) for order in (1, 2, 3)
                                        for X in (points[0], _stack(points))]
    for X, order in cases:
        pt = phi.at(lift_point(X, order) if order else X)
        for site, (got, want) in _contractions(pt, order, p).items():
            assert _bit_pattern(got) == _bit_pattern(want), (site, order)
        if order == 0:  # the float-point wrapper lifts X to order 2 itself
            q = phi.at(lift_point(X, 2))
            want = value(full_g_trace(q, _stress_matrix(q, p)[0]))
            assert _bit_pattern(stress_trace(phi, X, p)) == _bit_pattern(want)


def test_a_dropped_term_with_an_infinite_operand_adds_no_nan():
    """g^21 is a structural zero on a flat source, so g^2j d_j f drops the term
    g^21 d_1 f. With an infinite d_1 f, the full loop gave 0 * inf = NaN at a
    float point; a jet point already gave the finite value, as both do now."""
    phi = next(obj for name, obj, _box in corpus_maps() if name == "cubic2")
    x = (0.7, 0.9)
    pt = phi.at(x)
    assert _full_zero(pt.ginv[1][0])
    got, want = pt.grad_scalar([math.inf, 0.5]), full_grad_scalar(pt, [math.inf, 0.5])
    assert got[0] == want[0] == math.inf
    assert math.isnan(want[1]) and got[1] == pt.ginv[1][1] * 0.5
    jt = phi.at(lift_point(x, 1))
    partials = [jt.X[0] + math.inf, jt.X[1]]
    got, want = jt.grad_scalar(partials), full_grad_scalar(jt, partials)
    assert _bit_pattern(got) == _bit_pattern(want)
    assert np.isfinite(got[1].c).all()


# ---------------------------------------------------------------------- #
# the residual systems and the target curvature in base values, against the
# jet-valued bodies they replace
# ---------------------------------------------------------------------- #

def jet_trace_B_shape_H(ip):
    M, r = ip.shape_matrix(ip.mean_curvature), range(ip.m)
    out = [0.0] * ip.n
    for a, xi in enumerate(ip.normal_frame):
        B = ip.second_fundamental[a]
        coeff = sum((gij * M[k][j] * B[i][k] for i, j, gij in ip.ginv_terms for k in r), 0.0)
        for al in range(ip.n):
            out[al] = out[al] + coeff * xi[al]
    return out


def jet_general_terms(ip):
    m, h2 = ip.m, ip.mean_curvature_norm2
    W = ip.nabla_perp_H
    A_W = [ip.shape_matrix(W[i]) for i in range(m)]
    trA = [_full_sum(gij * A_W[i][k][j] for i, j, gij in ip.ginv_terms) for k in range(m)]
    grad = ip.grad_scalar([partial(h2, j) for j in range(m)])
    return ip.mean_curvature, h2, jet_trace_B_shape_H(ip), trA, grad


def jet_general_residuals(ip, p):
    m = ip.m
    c = ip.map.ambient_curvature
    H, h2, trB, trA, grad = jet_general_terms(ip)
    lap = ip.laplacian_perp_H
    h_coeff = m * (c - (p - 2.0) * h2)
    grad_coeff = p - 2.0 + 0.5 * m
    normal = [-lap[al] + trB[al] - h_coeff * H[al] for al in range(ip.n)]
    tangent = [2.0 * trA[k] + grad_coeff * grad[k] for k in range(m)]
    return normal, tangent


def jet_hypersurface_terms(ip):
    m, h2 = ip.m, ip.mean_curvature_norm2
    hnorm = sqrt(h2)
    eta = [Hc / hnorm for Hc in ip.mean_curvature]
    A = ip.shape_matrix(eta)
    A2 = sum((A[i][j] * A[j][i] for i in range(m) for j in range(m)), 0.0)
    neg_lap_eta = -ip.h_inner(ip.laplacian_perp_H, eta)
    grad_absH = ip.grad_scalar([partial(hnorm, j) for j in range(m)])
    A_grad = [sum((A[k][j] * grad_absH[j] for j in range(m)), 0.0) for k in range(m)]
    return h2, hnorm, A2, neg_lap_eta, grad_absH, A_grad


def jet_hypersurface_residuals(ip, p):
    m = ip.m
    c = ip.map.ambient_curvature
    h2, hnorm, A2, neg_lap_eta, grad_absH, A_grad = jet_hypersurface_terms(ip)
    normal_scalar = neg_lap_eta + (A2 + m * (p - 2.0) * h2 - m * c) * hnorm
    grad_coeff = (2.0 * (p - 2.0) + m) * hnorm
    tangent = [2.0 * A_grad[k] + grad_coeff * grad_absH[k] for k in range(m)]
    return normal_scalar, tangent


def jet_target_curvature(mp):
    hinv, dh = mp._hinv_dh
    return mp.map.target.curvature_at(mp.phiX, ginv=hinv, dg=dh, gamma=mp.gammaN,
                                      memo=mp._tgt_memo)


def base_bits(t, size):
    """The int64 views of the base values in a nested list or tuple, each
    broadcast to `size` entries, so the sign of zero counts."""
    if isinstance(t, (list, tuple)):
        return [base_bits(u, size) for u in t]
    return np.broadcast_to(np.asarray(value(t), float), (size,)).view(np.int64).tolist()


def _oracle_points(box, order):
    """(point lifted to `order`, batch size): one single point and one 4-point batch."""
    points = sample(np.random.default_rng(62), box, 4)
    return [(lift_point(points[1], order), 1), (lift_point(_stack(points), order), 4)]


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("name, imm, box", LAPLACIAN_CASES, ids=[c[0] for c in LAPLACIAN_CASES])
def test_residual_systems_equal_their_jet_bodies_bit_for_bit(name, imm, box, order):
    """The residual systems hold their p-independent terms as base values; every
    base value, the sign of a zero included, equals the order-0 coefficient of
    the jet body it replaces, for each p read on one point, as a sweep reads it,
    and for one p per batch entry, as `cmc_proper_p` passes p*."""
    for X, size in _oracle_points(box, order):
        ip, jet = imm.at(X), imm.at(X)
        assert base_bits(ip.trace_B_shape_H(), size) == base_bits(jet_trace_B_shape_H(jet), size)
        assert base_bits(ip._general_terms, size) == base_bits(jet_general_terms(jet), size)
        ps = [2.0, 3.0, 4.5] + ([np.array([2.0, 2.75, 3.5, 5.0])] if size > 1 else [])
        for p in ps:
            assert (base_bits(ip.general_residuals(p), size)
                    == base_bits(jet_general_residuals(jet, p), size)), p
            ip.forget_scratch()
        if ip.k != 1:
            with pytest.raises(DomainError):
                ip.hypersurface_residuals(3.0)
            continue
        assert base_bits(ip._hypersurface_terms, size) == base_bits(jet_hypersurface_terms(jet),
                                                                    size)
        for p in ps:
            assert (base_bits(ip.hypersurface_residuals(p), size)
                    == base_bits(jet_hypersurface_residuals(jet, p), size)), p


CURVED_TARGET_CASES = ([c for c in corpus_maps() if c[0] == "curved_target"]
                       + [c for c in LAPLACIAN_CASES if c[1].target.space_form_c != 0.0])


@pytest.mark.parametrize("name, obj, box", CURVED_TARGET_CASES,
                         ids=[c[0] for c in CURVED_TARGET_CASES])
def test_the_target_curvature_in_base_values_gives_the_jet_bitension(name, obj, box):
    """The target curvature is built from base values; each entry has the bits
    of the jet curvature's base value, a structural zero stays the float 0.0
    (at a single point, so does an entry whose base value is 0.0, which adds
    nothing), and the p-bitension and its split read from it equal those read
    from the jets."""
    for X, size in _oracle_points(box, 3):
        mp, jet = obj.at(X), obj.at(X)
        R, R_jet = mp.target_curvature, jet_target_curvature(jet)
        jet.__dict__["target_curvature"] = R_jet
        assert base_bits(R, size) == base_bits(R_jet, size)
        flat = [t for a in R for b in a for c in b for t in c]
        flat_jet = [t for a in R_jet for b in a for c in b for t in c]
        assert all(_full_zero(t) for t, u in zip(flat, flat_jet) if _full_zero(u))
        assert not any(isinstance(t, JetScalar) for t in flat)
        for p in (2.0, 3.0, 4.5):
            assert base_bits(mp.p_bitension(p), size) == base_bits(jet.p_bitension(p), size)
            if isinstance(obj, Immersion) and size == 1:
                assert base_bits(mp.bitension_split(p), 1) == base_bits(jet.bitension_split(p), 1)


class TestResidualSystems:
    def test_sphere_residuals_vanish_exactly_at_proper_p(self):
        rng = np.random.default_rng(55)
        for a in (0.6, 1 / math.sqrt(2), 0.8):
            b = math.sqrt(1 - a * a)
            p_star = 1.0 / (b * b)
            imm = builtin(f"small_hypersphere(2, {a!r})").build()
            for x in sample(rng, SPHERE_BOX, 3):
                normal, tangent = theorem21_residuals(imm, x, p_star)
                assert max(abs(v) for v in normal) < 1e-8
                assert max(abs(v) for v in tangent) < 1e-8
                ns, ts = theorem23_residuals(imm, x, p_star)
                assert abs(ns) < 1e-8
                assert max(abs(v) for v in ts) < 1e-8

    def test_sphere_residuals_nonzero_off_critical(self):
        a = 0.8
        b = math.sqrt(1 - a * a)
        imm = builtin(f"small_hypersphere(2, {a!r})").build()
        x = (0.3, 0.2)
        normal, _ = theorem21_residuals(imm, x, 1.0 / (b * b) + 0.5)
        assert max(abs(v) for v in normal) > 1e-3

    def test_plane_residuals_vanish(self):
        imm = plane_immersion()
        normal, tangent = theorem21_residuals(imm, (0.4, 0.5), 3.0)
        assert max(abs(v) for v in normal) < 1e-12
        assert max(abs(v) for v in tangent) < 1e-12

    def test_hypersurface_system_matches_general_system(self):
        # via A_H = <H,eta> A and the umbilic trace identities
        rng = np.random.default_rng(56)
        cases = [(CORPUS["paraboloid"], [(-0.6, 0.6)] * 2),
                 (builtin("small_hypersphere(2, 0.7)").build(), SPHERE_BOX),
                 (CIRCLE.build({"r": 0.9}), [(0.3, 2.8)])]
        for imm, box in cases:
            for p in (2.0, 3.0):
                for x in sample(rng, box, 4):
                    normal, tangent = theorem21_residuals(imm, x, p)
                    ns, ts = theorem23_residuals(imm, x, p)
                    ip = imm.at(x)
                    h2 = value(ip.mean_curvature_norm2)
                    H = [value(c) for c in ip.mean_curvature]
                    eta = [c / math.sqrt(h2) for c in H]
                    proj = value(ip.h_inner(normal, eta))
                    assert proj == pytest.approx(ns, abs=1e-8)
                    assert tangent == pytest.approx(ts, abs=1e-8)

    def test_theorem23_requires_codimension_one(self):
        ambient = space_form_chart(0.0, 3)
        curve = Immersion(1, ambient, [parse("cos(x1)", 1), parse("sin(x1)", 1),
                                       parse("0.2*x1", 1)], name="helix")
        with pytest.raises(DomainError):
            theorem23_residuals(curve, (0.7,), 2.0)

    def test_theorem23_requires_nonzero_mean_curvature(self):
        with pytest.raises(DomainError):
            theorem23_residuals(plane_immersion(), (0.1, 0.1), 2.0)


class TestCmcProperP:
    def test_sphere_values(self):
        for a in (0.6, 1 / math.sqrt(2), 0.8):
            b = math.sqrt(1 - a * a)
            imm = builtin(f"small_hypersphere(2, {a!r})").build()
            rng = np.random.default_rng(57)
            result = cmc_proper_p(imm, (0.2, 0.3), sample_points=sample(rng, SPHERE_BOX, 5))
            assert result.p_star == pytest.approx(1.0 / (b * b), abs=1e-8)
            assert result.mean_curvature_norm == pytest.approx(b / a, abs=1e-10)
            assert result.shape_norm2 == pytest.approx(2 * b * b / (a * a), abs=1e-8)

    def test_admissibility_boundary(self):
        a = 1 / math.sqrt(2)
        result = cmc_proper_p(builtin(f"small_hypersphere(2, {a!r})").build(), (0.2, 0.3))
        assert result.p_star == pytest.approx(2.0, abs=1e-8)
        assert result.admissible
        small = cmc_proper_p(builtin("small_hypersphere(2, 0.6)").build(), (0.2, 0.3))
        assert not small.admissible
        assert small.message == "no admissible p >= 2"

    def test_empty_sample_list_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            cmc_proper_p(builtin("small_hypersphere(2, 0.8)").build(), (0.2, 0.3),
                         sample_points=[])

    def test_zero_mean_curvature_rejected(self):
        with pytest.raises(DomainError):
            cmc_proper_p(plane_immersion(), (0.1, 0.1))

    def test_shape_norm_is_the_norm_of_the_second_fundamental_form(self):
        # |A|^2 = g^ik g^jl B_ij B_kl, from B and the source metric alone; on
        # the paraboloid it differs from m |H|^2, which only an umbilical
        # hypersurface attains
        imm = CORPUS["paraboloid"]
        x = (0.3, -0.2)
        B = np.array(floats(imm.at(x).second_fundamental)[0])
        ginv = np.linalg.inv([[value(v) for v in row] for row in imm.source.metric_at(x)])
        a2 = float(np.einsum("ik,jl,ij,kl->", ginv, ginv, B, B))
        result = cmc_proper_p(imm, x)
        assert result.shape_norm2 == pytest.approx(a2, rel=1e-12)
        assert abs(a2 - 2 * result.mean_curvature_norm ** 2) > 0.1

    def test_non_cmc_rejected(self):
        rng = np.random.default_rng(58)
        with pytest.raises(DomainError):
            cmc_proper_p(CORPUS["paraboloid"], (0.2, 0.1),
                         sample_points=sample(rng, [(-0.6, 0.6)] * 2, 5))

    def test_hyperbolic_geodesic_sphere_inadmissible(self):
        # umbilic in N(-1): |A|^2 = m |H|^2 forces p* = 1 - 1/|H|^2 < 2
        result = cmc_proper_p(CORPUS["hyperbolic_sphere"], (0.2, -0.3))
        assert not result.admissible
        h2 = result.mean_curvature_norm ** 2
        assert result.p_star == pytest.approx(1.0 - 1.0 / h2, abs=1e-8)


class TestBitensionCrossCheck:
    def test_split_reconstructs_bitension(self):
        imm = builtin("small_hypersphere(2, 0.8)").build()
        x = (0.25, 0.1)
        from pbh.mapcalc import p_bitension
        for p in (2.0, 3.0):
            normal, t = bitension_split(imm, x, p)
            mp = imm.at(lift_point(x, 1))
            pushed = [value(c) for c in mp.push(t)]
            total = p_bitension(imm, x, p)
            assert [n + q for n, q in zip(normal, pushed)] == pytest.approx(
                total, abs=1e-9)

    def test_master_factor(self):
        # tau_{2,p}(inclusion) = m^(p-1) (normal system, pushed tangent system)
        rng = np.random.default_rng(59)
        for imm, box in [(builtin("small_hypersphere(2, 0.6)").build(), SPHERE_BOX),
                         (CORPUS["paraboloid"], [(-0.6, 0.6)] * 2),
                         (CORPUS["circle"], [(0.3, 2.8)]),
                         (TORUS.build(), TORUS.box)]:
            m = imm.m
            for p in (2.0, 3.0, 4.0):
                factor = m ** (p - 1.0)
                for x in sample(rng, box, 2):
                    normal_b, tangent_b = bitension_split(imm, x, p)
                    normal_r, tangent_r = theorem21_residuals(imm, x, p)
                    for bb, rr in zip(normal_b + tangent_b, normal_r + tangent_r):
                        assert bb == pytest.approx(factor * rr, abs=1e-7)
