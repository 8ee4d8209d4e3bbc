"""The acceptance suite: every headline claim the engine certifies, runnable
both from pytest and from `pbh verify-paper`.

Each criterion function returns a :class:`CriterionResult`; `run_all` prints
one pass/fail line per criterion. Tolerances are fixed here, not tunable.

Every entry of the corpus (`corpus_maps`, `corpus_immersions`) is a
scenario, built with `Scenario.build`: the latitude spheres, the cylinder and
the inversion are built-in scenarios, and the other entries are the rows of
`_ROWS` (`corpus_scenarios`). Each scenario is parsed and built once per
process, and every criterion and pass reads what it built, or `with_params`
copies of it (`cylinder_map`, `inversion_map`). Built at each pass: the
perturbed maps of the first variation, and the two `inversion(3)` runs of the
byte-identical-report check, which is about independent builds.

The point-wise criteria evaluate the sample points of one map or immersion as
one batched point (see :mod:`pbh.jets`), lifted to the jet order their checks
need, and read every p and both pipelines from it (`_point_floats`). A batch
that raises is evaluated again by halves, down to single points
(`mapcalc._read_points`, the chunk reader the energy quadrature uses for its
Gauss nodes). A criterion's reader is a library reader, such as
`stress_divergence_sides`, or a tuple of fields; `_read_points` splits what it
returns into per-point floats. The criteria take norms and gaps of these
floats in the order of a loop over p, point and component, so every reported
value is the one a fresh context per point and call gives. Only one object's
batch is alive at a time.
The cylinder's metric reads p, so it gets a batch per p; the inversion maps are
read at float points at p = 2, as `p_tension` does. The p = 2 reductions
compare the public wrappers with an independent p = 2 coding, each called on
the batched float point of one map's sample points.

The bitension/residual cross-check uses the proportionality factor m^(p-1)
between the p-bitension of an inclusion and the residual pair of the general
system; the factor is also re-fitted empirically on every run and reported,
so the consistency of the two pipelines never rests on the constant alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DomainError
from .expr import Const, Coord, Expression, _FUNCS, differentiate, parse
from .geometry import sectional_curvature, space_form_chart
from .jets import JetScalar, lift_point, value
from .mapcalc import (MapPoint, SmoothMap, _box_sum, _read_points, _stack, p_energy_box,
                      p_tension, perturbed_map, tension)
from .scenarios import DEFAULT_TOLERANCE, Scenario, builtin, run as run_scenario
from .stress import (_scaled_divergence_gap, stress_divergence_sides, stress_tensor,
                     trace_identity_at)
from .submanifold import cmc_proper_p

P_VALUES = (2.0, 3.0, 4.0)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------- #
# corpus
# ---------------------------------------------------------------------- #

@cache
def _builtin(name: str):
    """The built-in scenario `name`, parsed once; its builds are with_params copies."""
    return builtin(name)


def cylinder_map(p: float) -> SmoothMap:
    return _builtin("proper_pbh_cylinder").build({"p": p})


def inversion_map(n: int, l: float) -> SmoothMap:
    return _builtin(f"inversion({n})").build({"l": l})


def _space(dim: int, c: float = 0.0) -> dict:
    return {"dim": dim, "space_form": c}


# the denominator of the stereographic chart of a unit 2-sphere
_DEN = "(1 + (x1^2 + x2^2)/4)"

# the corpus entries that are not built-in scenarios, as scenario data:
# (name, kind, source, target, components, box)
_ROWS = (
    ("identity2", "map", _space(2), _space(2), ["x1", "x2"], [[0.4, 1.6]] * 2),
    ("cubic2", "map", _space(2), _space(2),
     ["x1 + 0.1*x2^3 + 0.05*x1^2", "x2 - 0.07*x1^3 + 0.04*x1*x2"], [[0.4, 1.4]] * 2),
    ("quadratic32", "map", _space(3), _space(2),
     ["x1 + 0.2*x2*x3", "x2 - 0.1*x1^2 + 0.1*x3^2"], [[0.5, 1.5]] * 3),
    ("curved_target", "map", _space(2), _space(2, 1.0),
     ["x1 + 0.1*x2^2", "x2 - 0.2*x1*x2"], [[0.3, 1.2]] * 2),
    ("curved_source", "map", _space(2, -1.0), _space(2),
     ["x1 + 0.3*x2", "x1*x2 + 2"], [[0.4, 0.9]] * 2),
    ("circle", "immersion", {"dim": 1}, _space(2), ["0.8*cos(x1)", "0.8*sin(x1)"], [[0.3, 2.8]]),
    ("paraboloid", "immersion", {"dim": 2}, _space(3),
     ["x1", "x2", "0.3*x1^2 + 0.2*x1*x2 + 0.4*x2^2 + 0.1*x1"], [[-0.7, 0.7]] * 2),
    # the sphere |y| = 1 of the ball chart of curvature -1, a geodesic sphere,
    # with its round metric supplied: the chart's factor at |y| = 1 times the
    # unit sphere's
    ("hyperbolic_sphere", "immersion",
     {"dim": 2, "metric": [[f"(1 - 1/4)^(-2) * {_DEN}^(-2)", "0"],
                           ["0", f"(1 - 1/4)^(-2) * {_DEN}^(-2)"]]},
     _space(3, -1.0), [f"x1 / {_DEN}", f"x2 / {_DEN}", f"(1 - (x1^2 + x2^2)/4) / {_DEN}"],
     [[-0.5, 0.6]] * 2),
)


@cache
def corpus_scenarios() -> dict:
    """The scenarios of `_ROWS`, by name, in order. Each declares p and lists
    the two stress identities, which hold for every map."""
    return {name: Scenario(name=name, kind=kind, source_spec=source, target_spec=target,
                           component_text=components, params={"p": 2.0}, sweeps={},
                           box=box, points_per_axis=2, random_points=0, seed=0,
                           exclude_text=[], checks=["stress_divergence", "trace_identity"],
                           tolerance=DEFAULT_TOLERANCE)
            for name, kind, source, target, components, box in _ROWS}


def _built(kind: str):
    """(name, built object, box) of each corpus scenario of `kind`."""
    return tuple((name, sc.build(), tuple(map(tuple, sc.box)))
                 for name, sc in corpus_scenarios().items() if sc.kind == kind)


@cache
def corpus_maps():
    """(name, map or p->map factory, sample box) triples used by the stress criteria."""
    return (*_built("map"),
            ("cylinder", cylinder_map, ((0.5, 2.0),) * 3),
            ("inversion_critical_p3", inversion_map(3, 2.0), ((0.5, 2.0),) * 3))


# the latitude spheres of the corpus: (name, radius a)
_SPHERES = (("sphere_a0.6", 0.6), ("sphere_critical", 1.0 / math.sqrt(2.0)),
            ("sphere_a0.8", 0.8))


@cache
def corpus_immersions():
    """(name, immersion, sample box) triples used by the submanifold criteria."""
    return (*((name, _builtin(f"small_hypersphere(2, {a!r})").build(), ((-0.6, 0.7),) * 2)
              for name, a in _SPHERES),
            *_built("immersion"))


def _corpus(name: str):
    """(map or factory, or immersion; sample box) of the corpus entry `name`."""
    return next((obj, box) for table in (corpus_maps, corpus_immersions)
                for entry, obj, box in table() if entry == name)


def _points(rng, box, count):
    return [tuple(float(rng.uniform(lo, hi)) for lo, hi in box) for _ in range(count)]


def _point_floats(obj, pts, order, read, ps=P_VALUES):
    """[[read(ctx, p) at each point] for p in ps], in base values: read(ctx, p)
    reads a context of all the points of obj, and `mapcalc._read_points`
    splits its result per point.

    The points are evaluated as one batched point lifted to `order` (0: float
    points) and evaluated again by halves, down to single points, if that
    raises. An obj that is a factory obj(p), a map whose metric reads p, gets
    a batch per p.
    """
    if callable(obj):
        return [_point_floats(obj(p), pts, order, read, (p,))[0] for p in ps]
    per_point = _read_points(obj, pts, order, lambda ctx, X: [read(ctx, p) for p in ps])
    return [list(col) for col in zip(*per_point)]


def _norm(v):
    """Euclidean norm of a list of floats."""
    return math.sqrt(sum(c ** 2 for c in v))


# ---------------------------------------------------------------------- #
# independent p = 2 stress coding (reduction oracle)
# ---------------------------------------------------------------------- #

def classical_bienergy_stress(phi: SmoothMap, x):
    """The p = 2 stress tensor written directly from the tension field."""
    mp = phi.at(lift_point(x, 2))
    m, n = mp.m, mp.n
    tau = mp.tension
    dtau = [mp.pullback_derivative(tau, i) for i in range(m)]
    tau2 = mp.h_inner(tau, tau)
    pairing = sum((mp.ginv[i][j] * mp.h_inner(dtau[i], [mp.dphi[a][j] for a in range(n)])
                   for i in range(m) for j in range(m)), 0.0)
    cols = [[mp.dphi[a][i] for a in range(n)] for i in range(m)]
    S = [[value((-0.5 * tau2 - pairing) * mp.g[i][j]
                + mp.h_inner(cols[i], dtau[j]) + mp.h_inner(cols[j], dtau[i]))
          for j in range(m)] for i in range(m)]
    return S


# ---------------------------------------------------------------------- #
# random expression generator (infrastructure criterion + property tests)
# ---------------------------------------------------------------------- #

_POW_CHOICES = (2.0, 3.0, 0.5, -1.0, -2.0, 1.5)


def random_expression(rng, dim: int, depth: int) -> Expression:
    """One random closed-form expression; domain safety is the caller's rejection loop."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.45:
            return Const(round(float(rng.uniform(0.2, 2.5)), 3))
        return Coord(int(rng.integers(dim)))
    roll = rng.random()
    if roll < 0.45:
        ops = ("add", "sub", "mul", "div")
        op = ops[int(rng.integers(len(ops)))]
        a = random_expression(rng, dim, depth - 1)
        b = random_expression(rng, dim, depth - 1)
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        return a / b
    if roll < 0.6:
        q = _POW_CHOICES[int(rng.integers(len(_POW_CHOICES)))]
        return random_expression(rng, dim, depth - 1) ** Const(q)
    funcs = ("sqrt", "exp", "log", "sin", "cos", "neg")
    fname = funcs[int(rng.integers(len(funcs)))]
    return _FUNCS[fname](random_expression(rng, dim, depth - 1))


def random_expression_with_point(rng, dim: int, depth: int = 6):
    """Rejection-sample an expression, an in-domain point and the expression's
    order-4 jet there, `(e, x, J)`, with tame derivatives.

    Every subexpression must have finite jet coefficients of at most 1e4 at
    the point, so the evaluation path is well-conditioned: derivative
    comparisons are then meaningful at full precision (no hidden
    blow-up/cancellation pairs).
    """
    while True:
        # constant folding may already hit a domain error at construction
        try:
            e = random_expression(rng, dim, depth)
        except (DomainError, ZeroDivisionError):
            continue
        if not e.has_coords():
            continue
        x = tuple(float(rng.uniform(0.35, 1.65)) for _ in range(dim))
        X, memo = lift_point(x, 4), {}
        try:
            J = e.evaluate(X, None, memo)
        except Exception:
            continue
        # a structurally zero root (0.0 / x) is the float 0.0: nothing to compare
        if not isinstance(J, JetScalar):
            continue
        # every subtree's coefficients at once: the memo holds the inner nodes
        # (structural zeros as floats), not the leaves or a bare-coordinate root
        leaves = {ch for node in memo for ch in node._children()}.difference(memo)
        coeffs = np.concatenate([J.c, *(v.c if isinstance(v, JetScalar) else [v]
                                        for v in memo.values()),
                                 *(X[n.index].c for n in leaves if type(n) is Coord),
                                 [n.value for n in leaves if type(n) is Const]])
        if np.all(np.isfinite(coeffs)) and np.max(np.abs(coeffs)) <= 1e4:
            return e, x, J


# ---------------------------------------------------------------------- #
# criteria
# ---------------------------------------------------------------------- #

def criterion_inversion_p_harmonicity() -> CriterionResult:
    """Inversion maps are p-harmonic exactly at the critical exponent l."""
    n = 3
    rng = np.random.default_rng(101)
    pts = _points(rng, [(0.5, 2.0)] * n, 10)

    def residual(phi, p):
        # at p = 2 the p-tension is the tension, a float reader (`p_tension`)
        taus = _point_floats(phi, pts, 0 if p == 2.0 else 1, MapPoint.p_tension, (p,))[0]
        return max(_norm(v) for v in taus)

    worst_crit, worst_off = 0.0, math.inf
    for p in P_VALUES:
        l_crit = (n + p - 2.0) / (p - 1.0)
        worst_crit = max(worst_crit, residual(inversion_map(n, l_crit), p))
        for dl in (-0.2, 0.2):
            worst_off = min(worst_off, residual(inversion_map(n, l_crit + dl), p))
    passed = worst_crit < 1e-7 and worst_off > 1e-4
    return CriterionResult(
        "inversion_p_harmonicity", passed,
        f"critical residual {worst_crit:.2e} (< 1e-7), "
        f"off-critical residual {worst_off:.2e} (> 1e-4)")


def criterion_cylinder_proper_p_biharmonicity() -> CriterionResult:
    """The conformal cylinder projection has vanishing p-bitension but nonzero p-tension."""
    rng = np.random.default_rng(102)
    pts = _points(rng, [(0.5, 2.0)] * 3, 10)

    def fields(mp, p):
        return mp.p_bitension(p), mp.p_tension(p)

    worst_bi, least_tension = 0.0, math.inf
    for per_point in _point_floats(cylinder_map, pts, 3, fields):
        for bi, tau in per_point:
            worst_bi = max(worst_bi, _norm(bi))
            least_tension = min(least_tension, _norm(tau))
    passed = worst_bi < 1e-6 and least_tension > 1e-3
    return CriterionResult(
        "cylinder_proper_p_biharmonicity", passed,
        f"|tau_2p| max {worst_bi:.2e} (< 1e-6), |tau_p| min {least_tension:.2e} (> 1e-3)")


def criterion_small_hypersphere() -> CriterionResult:
    """Latitude spheres: extrinsic invariants and the proper-p characterization."""
    rng = np.random.default_rng(103)
    m = 2

    def residuals(ip, p):
        """Both residual pairs of the two systems."""
        return (*ip.general_residuals(p), *ip.hypersurface_residuals(p))

    failures = []
    worst = 0.0
    for name, a in _SPHERES:
        b = math.sqrt(1.0 - a * a)
        imm, box = _corpus(name)
        pts = _points(rng, box, 4)
        x = pts[0]
        result = cmc_proper_p(imm, x, sample_points=pts)
        gaps = [abs(result.mean_curvature_norm - b / a),
                abs(result.shape_norm2 - m * b * b / (a * a)),
                abs(result.p_star - 1.0 / (b * b))]
        worst = max(worst, *gaps)
        if max(gaps) > 1e-8:
            failures.append(f"a={a}: invariant gap {max(gaps):.2e}")
        p_star = 1.0 / (b * b)
        at_star, *off_star = _point_floats(imm, pts, 2, residuals,
                                           (p_star, *(p_star + dp for dp in (-0.5, 0.5))))
        for k, (normal, tangent, scalar, scalar_tangent) in enumerate(at_star):
            residual = max(_norm(normal), _norm(tangent), abs(scalar), _norm(scalar_tangent))
            if residual > 1e-7:
                failures.append(f"a={a}: residual {residual:.2e} at p*")
            for per_point in off_star:
                normal, _, scalar, _ = per_point[k]
                off = max(_norm(normal), abs(scalar))
                if off < 1e-4:
                    failures.append(f"a={a}: off-critical residual {off:.2e}")
        if abs(a - 1.0 / math.sqrt(2.0)) < 1e-12 and abs(result.p_star - 2.0) > 1e-8:
            failures.append(f"critical radius gives p* = {result.p_star}")
    passed = not failures
    return CriterionResult(
        "small_hypersphere_characterization", passed,
        failures[0] if failures else f"invariant gaps < {worst:.2e}, residuals certified "
                                     f"at p* = 1/b^2 and rejected at p* +/- 0.5")


def criterion_bitension_cross_check() -> CriterionResult:
    """p_bitension of inclusions equals m^(p-1) x the general-system residual pair.

    The factor is also fitted empirically from the data and reported.
    """
    rng = np.random.default_rng(104)

    def pairs(ip, p):
        return ip.bitension_split(p), ip.general_residuals(p)

    worst = 0.0
    ratios = []
    for name, imm, box in corpus_immersions():
        per_p = _point_floats(imm, _points(rng, box, 5), 3, pairs)
        for p, per_point in zip(P_VALUES, per_p):
            factor = imm.m ** (p - 1.0)
            for (normal_b, tangent_b), (normal_r, tangent_r) in per_point:
                for bb, rr in zip(normal_b + tangent_b, normal_r + tangent_r):
                    worst = max(worst, abs(bb - factor * rr))
                    if abs(rr) > 1e-6:
                        ratios.append(bb / rr / factor)
    fitted = sum(ratios) / len(ratios) if ratios else float("nan")
    passed = worst < 1e-7 and abs(fitted - 1.0) < 1e-9
    return CriterionResult(
        "bitension_residual_cross_check", passed,
        f"componentwise gap {worst:.2e} (< 1e-7) with factor m^(p-1); "
        f"empirical factor / m^(p-1) = {fitted:.12f}")


def criterion_stress_divergence() -> CriterionResult:
    """div S_{2,p}(d_k) = -h(tau_2p, dphi(d_k)) across the map corpus."""
    rng = np.random.default_rng(105)

    worst = 0.0
    checked = 0
    cubic_scale = 0.0
    for name, phi, box in corpus_maps():
        per_p = _point_floats(phi, _points(rng, box, 5), 3, stress_divergence_sides)
        for p, per_point in zip(P_VALUES, per_p):
            for lhs, rhs in per_point:
                worst = max(worst, _scaled_divergence_gap(lhs, rhs))
                checked += 1
                if name == "cubic2" and p >= 3.0:
                    cubic_scale = max(cubic_scale, max(abs(v) for v in rhs))
    passed = worst < 1e-6 and cubic_scale > 1e-2
    return CriterionResult(
        "stress_divergence_identity", passed,
        f"{checked} (map, point, p) triples, max scaled gap {worst:.2e} (< 1e-6); "
        f"generic cubic side magnitude {cubic_scale:.2e}")


def criterion_stress_trace() -> CriterionResult:
    """Trace of S_{2,p} against both closed forms, and the p = m reduction."""
    rng = np.random.default_rng(106)

    worst, worst_pm = 0.0, 0.0
    for name, phi, box in corpus_maps():
        m = len(box)  # the source dimension
        per_p = _point_floats(phi, _points(rng, box, 4), 2, trace_identity_at)
        for p, per_point in zip(P_VALUES, per_p):
            for tr, tau2, form_alg, form_div in per_point:
                worst = max(worst, abs(tr - form_alg), abs(tr - form_div))
                if p == float(m):  # the p = m reduction to -(m/2)|tau_p|^2
                    worst_pm = max(worst_pm, abs(tr + (m / 2.0) * tau2))
    passed = worst < 1e-7 and worst_pm < 1e-8
    return CriterionResult(
        "stress_trace_identities", passed,
        f"max trace-form gap {worst:.2e} (< 1e-7), p = m reduction gap {worst_pm:.2e} (< 1e-8)")


def criterion_p2_reductions() -> CriterionResult:
    """p = 2 collapses the p-tension to the tension and S_{2,p} to the classical tensor."""
    rng = np.random.default_rng(107)

    def wrappers(mp, p):
        """The tension, the p-tension, S_{2,p} and the classical tensor, each
        read by a public wrapper at the context's point."""
        phi, X = mp.map, mp.X
        return (tension(phi, X), p_tension(phi, X, p), stress_tensor(phi, X, p),
                classical_bienergy_stress(phi, X))

    worst_tau, worst_S = 0.0, 0.0
    for name, phi, box in corpus_maps():
        per_point = _point_floats(phi, _points(rng, box, 4), 0, wrappers, (2.0,))[0]
        for tau, tau_p, S, S2 in per_point:
            worst_tau = max(worst_tau, max(abs(a - b) for a, b in zip(tau, tau_p)))
            worst_S = max(worst_S, max(abs(a - b) for row, row2 in zip(S, S2)
                                       for a, b in zip(row, row2)))
    passed = worst_tau < 1e-9 and worst_S < 1e-9
    return CriterionResult(
        "p2_reductions", passed,
        f"tau gap {worst_tau:.2e}, stress gap {worst_S:.2e} (both < 1e-9)")


def _bump_variation(box, weights):
    """Variation components vanishing to second order on the box boundary."""
    m = len(box)
    comps = []
    for w in weights:
        e = Const(w)
        for i, (lo, hi) in enumerate(box):
            half = (hi - lo) / 2.0
            bump = parse(f"((x{i + 1} - {lo!r}) * ({hi!r} - x{i + 1}))^2", m)
            e = e * bump * Const(half ** -4.0)
        comps.append(e)
    return comps


def _variation_gap(phi, box, p, weights):
    """Relative gap between central-difference dE_p/dt and the tension pairing."""
    eps, order = 1e-4, 8  # difference step, Gauss rule order
    v = _bump_variation(box, weights)
    e_plus, e_minus = (p_energy_box(psi, box, p, order=order)
                       for psi in perturbed_map(phi, v, eps, -eps))
    lhs = (e_plus - e_minus) / (2.0 * eps)

    def pairing(mp, x):
        taup = mp.p_tension(p)
        return value(mp.h_inner(taup, [c.evaluate(x, {}) for c in v]))
    rhs = -_box_sum(phi, box, order, 1, pairing)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def criterion_first_variation() -> CriterionResult:
    """d/dt E_p(phi_t)|_0 matches -integral h(tau_p, v) for bump variations.

    Variations are chosen to pair non-trivially with tau_p, so the relative
    comparison is well-posed.
    """
    cubic, cubic_box = _corpus("cubic2")
    cases = [(cubic, cubic_box, 3.0, (0.8, 0.3)),
             (cubic, cubic_box, 2.0, (-0.4, 1.1)),
             (cylinder_map(3.0), [(0.7, 1.5)] * 3, 3.0, (0.5, -0.7))]
    worst = 0.0
    for phi, box, p, weights in cases:
        worst = max(worst, _variation_gap(phi, box, p, weights))
    passed = worst < 1e-4
    return CriterionResult(
        "first_variation_consistency", passed,
        f"{len(cases)} bump variations, worst relative gap {worst:.2e} (< 1e-4)")


def criterion_infrastructure() -> CriterionResult:
    """Jets vs symbolic derivatives, metric compatibility, space-form curvature,
    and byte-stable reports."""
    failures = []

    # jets against iterated symbolic differentiation
    rng = np.random.default_rng(108)
    worst_jet = 0.0
    for _ in range(200):
        e, x, J = random_expression_with_point(rng, 2)
        # the derivative trees, built in one table, share subtrees, so they
        # share one memo at x; each is one partial of an earlier one, in x1
        # first: d^alpha e = d_2 d^(a1, a2 - 1) e, or d_1 d^(a1 - 1, 0) e
        memo, table, partials = {}, {}, {(0, 0): e}
        for alpha in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1),
                      (1, 2), (0, 3), (4, 0), (2, 2), (0, 4), (3, 1), (1, 3)]:
            a1, a2 = alpha
            d = partials[alpha] = (differentiate(partials[a1, a2 - 1], 1, table) if a2 else
                                   differentiate(partials[a1 - 1, 0], 0, table))
            sym = d.evaluate(x, None, memo)
            jet = J.derivative(alpha)
            rel = abs(jet - sym) / max(abs(sym), 1.0)
            worst_jet = max(worst_jet, rel)
    if worst_jet > 1e-10:
        failures.append(f"jet-vs-symbolic gap {worst_jet:.2e}")

    # metric compatibility nabla g = 0 on a few charts
    rng2 = np.random.default_rng(109)
    sphere, sphere_box = _corpus("sphere_a0.8")
    charts = [
        (space_form_chart(1.0, 3), [(-0.5, 0.5)] * 3),
        (space_form_chart(-1.0, 2), [(-0.6, 0.6)] * 2),
        (cylinder_map(3.0).source, [(0.5, 2.0)] * 3),
        (sphere.source, sphere_box),
    ]
    worst_compat = 0.0
    for chart, box in charts:
        for x in _points(rng2, box, 3):
            memo = {}
            dg = chart.dmetric_at(x, memo)
            gamma = chart.christoffel_at(x, dg=dg, memo=memo)
            g = chart.metric_at(x, memo)
            d = chart.dim
            for k in range(d):
                for i in range(d):
                    for j in range(d):
                        cov = value(dg[k][i][j])
                        for l in range(d):
                            cov -= value(gamma[l][k][i]) * value(g[l][j])
                            cov -= value(gamma[l][k][j]) * value(g[i][l])
                        worst_compat = max(worst_compat, abs(cov))
    if worst_compat > 1e-9:
        failures.append(f"metric compatibility {worst_compat:.2e}")

    # space-form curvature constancy
    rng3 = np.random.default_rng(110)
    worst_curv = 0.0
    for c, dim in ((1.0, 2), (1.0, 3), (-0.7, 3)):
        # x, u and v of 20 points, drawn point by point, read as one batched point
        draws = [[tuple(float(rng3.uniform(-a, a)) for _ in range(dim)) for a in (0.4, 1.0, 1.0)]
                 for _ in range(20)]
        x, u, v = (_stack(axis) for axis in zip(*draws))
        with np.errstate(all="raise", under="ignore"):
            K = sectional_curvature(space_form_chart(c, dim), x, u, v)
        for k in K.tolist():
            worst_curv = max(worst_curv, abs(k - c))
    if worst_curv > 1e-8:
        failures.append(f"space-form curvature drift {worst_curv:.2e}")

    # byte-identical reports
    rep_a = run_scenario(builtin("inversion(3)"), overrides={"l": 2.0, "p": 3.0})
    rep_b = run_scenario(builtin("inversion(3)"), overrides={"l": 2.0, "p": 3.0})
    if rep_a.to_csv() != rep_b.to_csv() or rep_a.to_json() != rep_b.to_json():
        failures.append("reports are not byte-identical across runs")

    passed = not failures
    detail = ("; ".join(failures) if failures else
              f"jets {worst_jet:.2e}, compatibility {worst_compat:.2e}, "
              f"curvature {worst_curv:.2e}, reports byte-identical")
    return CriterionResult("infrastructure_properties", passed, detail)


CRITERIA = (
    criterion_inversion_p_harmonicity,
    criterion_cylinder_proper_p_biharmonicity,
    criterion_small_hypersphere,
    criterion_bitension_cross_check,
    criterion_stress_divergence,
    criterion_stress_trace,
    criterion_p2_reductions,
    criterion_first_variation,
    criterion_infrastructure,
)


def run_all(emit=None):
    """Run every acceptance criterion; returns (all_passed, results)."""
    results = []
    for fn in CRITERIA:
        result = fn()
        results.append(result)
        if emit is not None:
            status = "PASS" if result.passed else "FAIL"
            emit(f"{status} {result.name}: {result.detail}")
    ok = all(r.passed for r in results)
    if emit is not None:
        emit(f"{'PASS' if ok else 'FAIL'} overall: "
             f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    return ok, results
