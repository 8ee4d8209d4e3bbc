"""Extrinsic geometry of immersions and the p-biharmonic residual systems."""

import math

import numpy as np
import pytest

from pbh.errors import DomainError, RankDeficiencyError
from pbh.expr import parse
from pbh.geometry import sectional_curvature, space_form_chart
from pbh.jets import lift_point, value
from pbh.mapcalc import SmoothMap, _stack, p_bitension, p_tension, tension
from pbh.scenarios import SCHEMA_VERSION, Scenario, builtin
from pbh.stress import stress_divergence_check, stress_tensor
from pbh.submanifold import (Immersion, bitension_split, cmc_proper_p, theorem21_residuals,
                             theorem23_residuals)
from pbh.verify import corpus_immersions

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
