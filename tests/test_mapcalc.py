"""Map calculus: differentials, tension fields, pull-back derivatives, the
p-bitension field, and energy quadrature. The products MapPoint hoists out of
its loops give, bit for bit, what loops forming them at every use give."""

import itertools
import math
import warnings

import numpy as np
import pytest

from pbh import mapcalc
from pbh.errors import JetOrderError, SingularityError
from pbh.expr import Const, parse
from pbh.geometry import euclidean_chart, space_form_chart
from pbh.jets import JetScalar, lift_point, partial, value
from pbh.linalg import det
from pbh.mapcalc import (SmoothMap, gauss_legendre_box, p_bienergy_box, p_bitension,
                         p_energy_box, p_tension, perturbed_map, tension)
from pbh.scenarios import builtin
from pbh.stress import stress_divergence_check, stress_tensor, stress_trace, theta_divergence
from pbh.submanifold import bitension_split, theorem21_residuals
from pbh.verify import _points, corpus_immersions, corpus_maps


def identity_map(dim):
    e = euclidean_chart(dim)
    return SmoothMap(e, e, [parse(f"x{i + 1}", dim) for i in range(dim)], name="identity")


def inversion(n, l):
    en = euclidean_chart(n)
    r2 = " + ".join(f"x{i + 1}^2" for i in range(n))
    comps = [parse(f"x{i + 1}/({r2})^(l/2)", n, ["l"]) for i in range(n)]
    return SmoothMap(en, en, comps, {"l": l}, name=f"inversion({n})")


def cylinder(p):
    return builtin("proper_pbh_cylinder").build({"p": p})


RNG_BOX = [(0.5, 2.0)] * 3


def sample(rng, box, count):
    return [tuple(float(rng.uniform(lo, hi)) for lo, hi in box) for _ in range(count)]


def floats(t):
    """Base values of a nested list of float-or-jet scalars."""
    return [floats(v) for v in t] if isinstance(t, list) else value(t)


class TestDifferential:
    def test_identity_norm(self):
        phi = identity_map(3)
        assert value(phi.at((0.3, 0.4, 0.5)).norm2) == pytest.approx(3.0, rel=1e-14)

    def test_dmap_shape_and_values(self):
        phi = SmoothMap(euclidean_chart(2), euclidean_chart(3),
                        [parse("x1*x2", 2), parse("x1", 2), parse("x2^2", 2)])
        J = floats(phi.at((2.0, 3.0)).dphi_cols)
        assert J == [[3.0, 1.0, 0.0], [2.0, 0.0, 6.0]]

    def test_inclusion_norm_is_dimension(self):
        imm = builtin("small_hypersphere(2, 0.7)").build()
        assert value(imm.at((0.2, -0.3)).norm2) == pytest.approx(2.0, rel=1e-12)

    def test_cylinder_norm_against_index_sum(self):
        # independent oracle: explicit g^{ij} h_ab dphi^a_i dphi^b_j sum
        p = 2.0
        phi = cylinder(p)
        x = (1.0, 1.0, 1.0)
        J = floats(phi.at(x).dphi_cols)
        ginv = [[value(v) for v in row] for row in phi.source.inverse_metric_at(x)]
        total = sum(ginv[i][j] * J[i][a] * J[j][a]
                    for i in range(3) for j in range(3) for a in range(2))
        assert value(phi.at(x).norm2) == pytest.approx(total, rel=1e-13)
        assert total == pytest.approx(2.0 * 2.0 ** (1.0 / p), rel=1e-13)


class TestSecondFundamentalForm:
    def test_euclidean_isometry_vanishes(self):
        e2 = euclidean_chart(2)
        rot = SmoothMap(e2, e2, [parse("0.6*x1 - 0.8*x2", 2),
                                 parse("0.8*x1 + 0.6*x2", 2)])
        sff = floats(rot.at((0.4, 0.9)).sff)
        assert max(abs(v) for plane in sff for row in plane for v in row) == 0.0

    def test_identity_on_curved_chart_vanishes(self):
        chart = space_form_chart(1.0, 2)
        phi = SmoothMap(chart, chart, [parse("x1", 2), parse("x2", 2)])
        sff = floats(phi.at((0.3, -0.2)).sff)
        assert max(abs(v) for plane in sff for row in plane
                   for v in row) == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_map_hessian_oracle(self):
        e2 = euclidean_chart(2)
        comps = [parse("0.5*x1^2 + 0.3*x1*x2", 2), parse("x2^2 - 0.2*x1^2", 2)]
        phi = SmoothMap(e2, e2, comps)
        x = (0.7, -0.4)
        sff = floats(phi.at(x).sff)
        for a, c in enumerate(comps):
            for i in range(2):
                for j in range(2):
                    hess = c.diff(i).diff(j).evaluate(x)
                    assert sff[a][i][j] == pytest.approx(hess, abs=1e-14)

    def test_symmetry(self):
        phi = cylinder(3.0)
        sff = floats(phi.at((0.9, 1.1, 0.7)).sff)
        for a in range(2):
            for i in range(3):
                for j in range(3):
                    assert sff[a][i][j] == pytest.approx(sff[a][j][i], abs=1e-10)


class TestTension:
    def test_affine_map_harmonic(self):
        e2 = euclidean_chart(2)
        phi = SmoothMap(e2, e2, [parse("2*x1 + x2 - 1", 2), parse("x1 - 3*x2", 2)])
        assert tension(phi, (0.4, 0.8)) == [0.0, 0.0]

    def test_inversion_harmonic_at_critical_l(self):
        rng = np.random.default_rng(41)
        phi = inversion(3, 3.0)
        for x in sample(rng, RNG_BOX, 10):
            assert max(abs(v) for v in tension(phi, x)) < 1e-12

    def test_p2_reduction_exact(self):
        rng = np.random.default_rng(42)
        phi = cylinder(2.0)
        for x in sample(rng, RNG_BOX, 5):
            t = tension(phi, x)
            tp = p_tension(phi, x, 2.0)
            assert max(abs(a - b) for a, b in zip(t, tp)) < 1e-12

    def test_inversion_p_harmonic_family(self):
        rng = np.random.default_rng(43)
        pts = sample(rng, RNG_BOX, 10)
        phi = inversion(3, 2.0)  # l = (3 + 3 - 2)/(3 - 1)
        assert max(abs(v) for x in pts for v in p_tension(phi, x, 3.0)) < 1e-8
        off = inversion(3, 2.3)
        assert max(abs(v) for x in pts for v in p_tension(off, x, 3.0)) > 1e-3

    def test_p_below_two_rejected(self):
        with pytest.raises(ValueError):
            p_tension(identity_map(2), (0.1, 0.2), 1.5)

    def test_singularity_reports_point(self):
        e2 = euclidean_chart(2)
        phi = SmoothMap(e2, e2, [parse("x1^2", 2), parse("x2^2", 2)])
        with pytest.raises(SingularityError) as err:
            p_tension(phi, (0.0, 0.0), 3.0)
        assert err.value.point == (0.0, 0.0)

    def test_float_point_needs_lift_for_p_tension(self):
        phi = cylinder(3.0)
        with pytest.raises(JetOrderError):
            phi.at((1.0, 1.0, 1.0)).p_tension(3.0)


class TestPullbackDerivative:
    def test_constant_field_flat_target(self):
        mp = identity_map(2).at(lift_point((0.3, 0.4), 1))
        assert [value(c) for c in mp.pullback_derivative([1.0, -2.0], 0)] == [0.0, 0.0]

    @pytest.mark.parametrize("field", ["tangent", "constant"])
    def test_direction_outside_the_source_rejected(self, field):
        # a negative index would silently read the last direction, and a
        # constant field never reaches JetScalar.partial: the method checks
        mp = builtin("small_hypersphere(2, 0.8)").build().at(lift_point((0.1, 0.2), 1))
        V = mp.dphi_cols[0] if field == "tangent" else [1.0, 0.0, 0.0]
        for i in (-1, 2):
            with pytest.raises(ValueError, match=f"direction {i} is not one of the 2"):
                mp.pullback_derivative(V, i)

    def test_second_fundamental_form_cross_check(self):
        # nabla^phi_i dphi(d_j) - dphi(nabla^M_i d_j) = (nabla dphi)(d_i, d_j)
        phi = cylinder(3.0)
        x = (1.1, 0.8, 1.3)
        X = lift_point(x, 1)
        mp = phi.at(X)
        sff = floats(phi.at(x).sff)
        for i in range(3):
            for j in range(3):
                dcol = [mp.dphi[a][j] for a in range(2)]
                cov = mp.pullback_derivative(dcol, i)
                pushed = mp.push([mp.gammaM[k][i][j] for k in range(3)])
                for a in range(2):
                    assert value(cov[a]) - value(pushed[a]) == pytest.approx(
                        sff[a][i][j], abs=1e-9)

    def test_metric_compatibility_of_pullback_connection(self):
        phi = builtin("small_hypersphere(2, 0.75)").build()
        x = (0.25, -0.35)
        X = lift_point(x, 1)
        mp = phi.at(X)
        V = [mp.dphi[a][0] for a in range(3)]
        W = [mp.dphi[a][1] for a in range(3)]
        pairing = mp.h_inner(V, W)
        for i in range(2):
            lhs = pairing.partial(i).value
            rhs = value(mp.h_inner(mp.pullback_derivative(V, i), W)
                        + mp.h_inner(V, mp.pullback_derivative(W, i)))
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestPBitension:
    def test_p_harmonic_maps_are_p_biharmonic(self):
        rng = np.random.default_rng(44)
        phi = inversion(3, 2.0)
        for x in sample(rng, RNG_BOX, 5):
            assert max(abs(v) for v in p_bitension(phi, x, 3.0)) < 1e-7

    def test_identity_map(self):
        phi = identity_map(3)
        assert p_bitension(phi, (0.2, 0.4, 0.1), 4.0) == [0.0, 0.0, 0.0]

    def test_cylinder_is_proper_p_biharmonic(self):
        rng = np.random.default_rng(45)
        pts = sample(rng, RNG_BOX, 10)
        for p in (2.0, 3.0, 4.0):
            phi = cylinder(p)
            for x in pts:
                assert max(abs(v) for v in p_bitension(phi, x, p)) < 1e-7
                norm = math.hypot(*p_tension(phi, x, p))
                assert norm > 1e-2

    def test_p2_matches_independent_classical_bitension(self):
        # tau_2(phi) = -trace R^N(tau, dphi) dphi - trace (nabla^phi)^2 tau
        rng = np.random.default_rng(46)
        e2 = euclidean_chart(2)
        sphere2 = space_form_chart(1.0, 2)
        cases = [
            (SmoothMap(e2, sphere2, [parse("x1 + 0.1*x2^2", 2),
                                     parse("x2 - 0.2*x1*x2", 2)], name="curved"),
             [(0.3, 1.2)] * 2),
            (SmoothMap(e2, e2, [parse("x1 + 0.1*x2^3 + 0.05*x1^2", 2),
                                parse("x2 - 0.07*x1^3 + 0.04*x1*x2", 2)], name="cubic"),
             [(0.4, 1.4)] * 2),
            (cylinder(2.0), [(0.5, 2.0)] * 3),
        ]
        for phi, box in cases:
            m, n = phi.source.dim, phi.target.dim
            for x in sample(rng, box, 3):
                X = lift_point(x, 3)
                mp = phi.at(X)
                tau = mp.tension
                dtau = [mp.pullback_derivative(tau, i) for i in range(m)]
                expected = [0.0] * n
                if phi.target.space_form_c != 0.0:
                    Rn = phi.target.curvature_at(mp.phiX)
                    for i, j in itertools.product(range(m), repeat=2):
                        gij = mp.ginv[i][j]
                        for d in range(n):
                            s = 0.0
                            for al, be, ga in itertools.product(range(n), repeat=3):
                                s = s + (Rn[d][al][be][ga] * tau[al]
                                         * mp.dphi[be][i] * mp.dphi[ga][j])
                            expected[d] = expected[d] - gij * s
                tr2 = mp.trace_pullback_gradient(dtau)
                expected = [value(e - t) for e, t in zip(expected, tr2)]
                got = p_bitension(phi, x, 2.0)
                assert got == pytest.approx(expected, abs=1e-10)


class TestEnergies:
    def test_identity_unit_cube(self):
        for p, m in ((2.0, 2), (3.0, 3)):
            phi = identity_map(m)
            box = [(0.0, 1.0)] * m
            assert p_energy_box(phi, box, p, order=4) == pytest.approx(
                m ** (p / 2.0) / p, rel=1e-12)

    def test_scaling_map(self):
        lam, m, p = 1.7, 3, 2.0
        e = euclidean_chart(m)
        phi = SmoothMap(e, e, [parse(f"{lam}*x{i + 1}", m) for i in range(m)])
        assert p_energy_box(phi, [(0.0, 1.0)] * m, p, order=4) == pytest.approx(
            (lam * lam * m) ** (p / 2.0) / p, rel=1e-12)

    def test_bienergy_of_p_harmonic_map_vanishes(self):
        phi = inversion(3, 2.0)
        assert p_bienergy_box(phi, [(0.5, 1.0)] * 3, 3.0, order=4) < 1e-20

    def test_quadrature_node_outside_domain(self):
        chart = space_form_chart(-1.0, 2)
        phi = SmoothMap(chart, euclidean_chart(2), [parse("x1", 2), parse("x2", 2)])
        with pytest.raises(SingularityError):
            p_energy_box(phi, [(0.0, 3.0), (0.0, 0.5)], 2.0, order=4)


class TestVariationalConsistency:
    def _bump(self, box, weights):
        m = len(box)
        comps = []
        for w in weights:
            e = Const(w)
            for i, (lo, hi) in enumerate(box):
                half = (hi - lo) / 2.0
                e = e * parse(f"((x{i + 1} - {lo!r}) * ({hi!r} - x{i + 1}))^2", m) \
                    * Const(half ** -4.0)
            comps.append(e)
        return comps

    def test_first_variation_of_p_energy(self):
        e2 = euclidean_chart(2)
        phi = SmoothMap(e2, e2, [parse("x1 + 0.1*x2^3 + 0.05*x1^2", 2),
                                 parse("x2 - 0.07*x1^3 + 0.04*x1*x2", 2)])
        box = [(0.4, 1.4)] * 2
        p, eps = 3.0, 1e-4
        v = self._bump(box, (0.8, 0.3))
        e_plus, e_minus = (p_energy_box(psi, box, p)
                           for psi in perturbed_map(phi, v, eps, -eps))
        lhs = (e_plus - e_minus) / (2 * eps)
        rhs = 0.0
        for x, w in gauss_legendre_box(box, 8):
            mp = phi.at(lift_point(x, 1))
            taup = mp.p_tension(p)
            vx = [c.evaluate(x, {}) for c in v]
            rhs -= w * value(mp.h_inner(taup, vx)) * math.sqrt(value(det(mp.g)))
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-4

    @pytest.mark.parametrize("c, p, components, box, tol", [
        (0.0, 3.0, ["x1 + 0.1*x2^3 + 0.05*x1^2", "x2 - 0.07*x1^3 + 0.04*x1*x2"],
         [(0.4, 1.4)] * 2, 1e-3),
        # the image stays well inside the ball |y|^2 < 4 of the c = -1 chart,
        # where the conformal factor and the quadrature error stay small
        *((c, p, ["x1 + 0.1*x2^2", "x2 - 0.2*x1*x2"], [(-0.5, 0.5)] * 2, 1e-4)
          for c in (1.0, -1.0) for p in (2.0, 3.0, 4.0))],
        ids=["flat", *(f"c={c:g}-p={p:g}" for c in (1, -1) for p in (2, 3, 4))])
    def test_second_variation_smoke_for_p_bienergy(self, c, p, components, box, tol):
        # d/dt E_{2,p}(phi_t)|_0 = -int h(tau_{2,p}, v), into the space form of curvature c
        phi = SmoothMap(euclidean_chart(2), space_form_chart(c, 2),
                        [parse(text, 2) for text in components])
        eps = 1e-4
        v = self._bump(box, (0.9, -0.5))
        e_plus, e_minus = (p_bienergy_box(psi, box, p)
                           for psi in perturbed_map(phi, v, eps, -eps))
        lhs = (e_plus - e_minus) / (2 * eps)
        rhs = 0.0
        for x, w in gauss_legendre_box(box, 8):
            mp = phi.at(lift_point(x, 3))
            tau2p = mp.p_bitension(p)
            vx = [comp.evaluate(x, {}) for comp in v]
            rhs -= w * value(mp.h_inner(tau2p, vx)) * math.sqrt(value(det(mp.g)))
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < tol


class TestFields:
    def test_tension_field_depths(self):
        # a field's depth is the jet shifts its rule consumes: differentiating
        # it once needs a point lifted to depth + 1
        phi = cylinder(3.0)
        x = (1.0, 1.0, 1.0)
        fields = [(lambda X: phi.at(X).tension, 0),
                  (lambda X: phi.at(X).p_tension(3.0), 1),
                  (lambda X: phi.at(X).p_tension(2.0), 0)]
        for rule, depth in fields:
            X = lift_point(x, depth + 1)
            assert len(phi.at(X).pullback_derivative(rule(X), 0)) == 2

    def test_p_tension_field_evaluates(self):
        phi = cylinder(3.0)
        X = lift_point((1.0, 1.0, 1.0), 2)
        vals = [value(c) for c in phi.at(X).p_tension(3.0)]
        assert vals == pytest.approx(p_tension(phi, (1.0, 1.0, 1.0), 3.0), rel=1e-12)


class TestArguments:
    @pytest.mark.parametrize("read", [
        lambda: stress_tensor(cylinder(3.0), (1.0, 1.0, 1.0), 1.5),
        lambda: stress_trace(cylinder(3.0), (1.0, 1.0, 1.0), 1.5),
        lambda: theta_divergence(cylinder(3.0), (1.0, 1.0, 1.0), 1.5),
        lambda: stress_divergence_check(cylinder(3.0), (1.0, 1.0, 1.0), 1.5),
        lambda: bitension_split(builtin("small_hypersphere(2, 0.7)").build(), (0.1, 0.2), 1.5),
        lambda: p_bienergy_box(inversion(3, 2.0), [(0.5, 1.0)] * 3, 1.5, order=2),
    ], ids=["stress_tensor", "stress_trace", "theta_divergence", "stress_divergence_check",
            "bitension_split", "p_bienergy_box"])
    def test_p_below_two_rejected_by_every_p_field(self, read):
        with pytest.raises(ValueError, match="p must be >= 2"):
            read()

    def test_float_point_wrappers_give_a_result_without_numpy_warnings(self):
        """An overflowing float point gives NaN silently, as a single item of
        `replay_chunks` does; a caller that has numpy raise still gets the raise."""
        phi = builtin("proper_pbh_cylinder").build()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = p_bitension(phi, (1.0, 1.0, 1.0), 1e308)
        assert len(result) == 2 and all(math.isnan(v) for v in result)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            p_bitension(phi, (1.0, 1.0, 1.0), 1e308)

    def test_point_with_too_many_coordinates(self):
        imm = builtin("small_hypersphere(2, 0.7)").build()
        with pytest.raises(ValueError, match="needs 2 coordinates, got 3"):
            p_tension(imm, (0.1, 0.2, 0.3), 3.0)
        with pytest.raises(ValueError, match="needs 2 coordinates, got 3"):
            imm.at((np.array([0.1, 0.2]),) * 3)

    def test_point_with_too_few_coordinates(self):
        imm = builtin("small_hypersphere(2, 0.7)").build()
        with pytest.raises(ValueError, match="needs 2 coordinates, got 1"):
            theorem21_residuals(imm, (0.1,), 3.0)
        with pytest.raises(ValueError, match="needs 2 coordinates, got 1"):
            imm.at((np.array([0.1, 0.2]),))


# ---------------------------------------------------------------------- #
# hoisted products against loops that form every product where it is used
# ---------------------------------------------------------------------- #

def _zero(t):
    return isinstance(t, float) and t == 0.0


def _loop_sff(mp):
    """(nabla dphi)[a][i][j] with Gamma^N * dphi_i formed in every (a, i, j) term."""
    m, n = mp.m, mp.n
    dphi, d2phi, gm, gn = mp.dphi, mp.d2phi, mp.gammaM, mp.gammaN
    out = [[[None] * m for _ in range(m)] for _ in range(n)]
    for a in range(n):
        for i in range(m):
            for j in range(i, m):
                s = d2phi[a][i][j]
                for k in range(m):
                    s = s - gm[k][i][j] * dphi[a][k]
                for mu, sg in itertools.product(range(n), repeat=2):
                    gam = gn[a][mu][sg]
                    if _zero(gam):
                        continue
                    s = s + gam * dphi[mu][i] * dphi[sg][j]
                out[a][i][j] = s
                out[a][j][i] = s
    return out


def _loop_pullback_derivative(mp, V, i):
    """(nabla^phi_{d_i} V)^a with Gamma^N * dphi_i formed for every V."""
    out = []
    for a in range(mp.n):
        s = partial(V[a], i)
        for mu, sg in itertools.product(range(mp.n), repeat=2):
            gam = mp.gammaN[a][mu][sg]
            if _zero(gam):
                continue
            s = s + gam * mp.dphi[mu][i] * V[sg]
        out.append(s)
    return out


def _loop_trace_pullback_gradient(mp, W):
    """g^{ij} [nabla^phi_i W_j - Gamma^M{}^k_{ij} W_k] on jets, through the
    point's pull-back derivative: every coefficient, placeholders included."""
    out = [0.0] * mp.n
    for i, j, gij in mp.ginv_terms:
        cov = mp.pullback_derivative(W[j], i)
        for a in range(mp.n):
            corr = cov[a]
            for k in range(mp.m):
                corr = corr - mp.gammaM[k][i][j] * W[k][a]
            out[a] = out[a] + gij * corr
    return out


def _loop_p_bitension(mp, p):
    """The p-bitension on jets, with R * tau_p * dphi_i * dphi_j formed per (i, j)."""
    m, n = mp.m, mp.n
    taup = mp.p_tension(p)
    dtaup = mp.dp_tension(p)
    fac = mp.norm_power(p - 2.0)
    result = [0.0] * n
    if mp.map.target.space_form_c != 0.0:
        Rn = mp.target_curvature
        for i, j, gij in mp.ginv_terms:
            for d in range(n):
                s = 0.0
                for al, be, ga in itertools.product(range(n), repeat=3):
                    R = Rn[d][al][be][ga]
                    if _zero(R):
                        continue
                    s = s + R * taup[al] * mp.dphi[be][i] * mp.dphi[ga][j]
                result[d] = result[d] - fac * gij * s
    W = [[fac * dtaup[j][a] for a in range(n)] for j in range(m)]
    tr2 = _loop_trace_pullback_gradient(mp, W)
    for a in range(n):
        result[a] = result[a] - tr2[a]
    if p != 2.0:
        pairing = mp.tension_pairing(p)
        fac4 = mp.norm_power(p - 4.0)
        U = [[pairing * fac4 * mp.dphi[a][j] for a in range(n)] for j in range(m)]
        tr3 = _loop_trace_pullback_gradient(mp, U)
        for a in range(n):
            result[a] = result[a] - (p - 2.0) * tr3[a]
    return result


def _loop_point(phi, X):
    """A MapPoint whose sff and pull-back derivatives come from the loops above."""
    mp = phi.at(X)
    mp.__dict__["sff"] = _loop_sff(mp)
    mp.pullback_derivative = lambda V, i: _loop_pullback_derivative(mp, V, i)
    return mp


def _bits(v):
    """Every coefficient of a nested list of float-or-jet scalars or base
    values, as repr: the sign of a zero shows, and an array is not a float."""
    if isinstance(v, list):
        return [_bits(t) for t in v]
    if isinstance(v, np.ndarray):
        return "array" + repr(v.tolist())
    return repr(v.c.tolist()) if isinstance(v, JetScalar) else repr(v)


def _base_bits(v):
    """_bits of the base values of a nested list of float-or-jet scalars."""
    return [_base_bits(t) for t in v] if isinstance(v, list) else _bits(value(v))


HOIST_CASES = [*corpus_maps(), *corpus_immersions()]


@pytest.mark.parametrize("name, phi, box", HOIST_CASES, ids=[c[0] for c in HOIST_CASES])
def test_hoisted_products_equal_the_per_use_loops(name, phi, box):
    points = _points(np.random.default_rng(14), box, 3)
    X = lift_point(mapcalc._stack(points), 3)
    for p in (2.0, 3.0, 4.0):
        smooth = phi(p) if callable(phi) else phi
        mp, loop = smooth.at(X), _loop_point(smooth, X)
        assert _bits(mp.sff) == _bits(loop.sff)
        assert _bits(mp.dp_tension(p)) == _bits(loop.dp_tension(p))
        # the p-bitension holds base values: a third shift leaves only order 0 valid
        assert _bits(mp.p_bitension(p)) == _base_bits(_loop_p_bitension(loop, p))
        flt = smooth.at(points[0])
        assert _bits(flt.sff) == _bits(_loop_sff(flt))


@pytest.mark.parametrize("name", ["curved_target", "cubic2"])
def test_the_p_bitension_at_a_batched_point_is_base_values_equal_to_the_jet_loops(name):
    """Into the 2-sphere and into the plane: no jet comes back, and each base
    value, its type (float or array) and the sign of a zero equal the jet
    loops' order-0 coefficients."""
    phi, box = {n: (phi, box) for n, phi, box in HOIST_CASES}[name]
    X = lift_point(mapcalc._stack(_points(np.random.default_rng(15), box, 4)), 3)
    for p in (2.0, 3.0, 4.0):
        got = phi.at(X).p_bitension(p)
        assert not any(isinstance(v, JetScalar) for v in got)
        assert all(isinstance(v, np.ndarray) and v.shape == (4,) for v in got)
        assert _bits(got) == _base_bits(_loop_p_bitension(_loop_point(phi, X), p))
