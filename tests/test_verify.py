"""The acceptance criteria read shared, batched point contexts: the sample
points of one map or immersion are lifted once, as one batched point, which
serves every p and both pipelines. The per-point floats split from it, and
every criterion result, equal those of one fresh context per point and call,
whether the batch is never tried (one-point chunks) or raises and is replayed.
Sampling random expressions with one memo draws what a memo per subtree
draws and returns the drawn expression's jet at the point, and the two
heaviest criteria and a cylinder run stay within a fixed count of jet
products and node evaluations; a batched point inverts no jet twice."""

import math

import numpy as np
import pytest

from pbh import mapcalc, scenarios, verify
from pbh.errors import BatchSplit, DomainError
from pbh.expr import Expression, eval_jet
from pbh.geometry import ChartMetric
from pbh.jets import lift_point, value
from pbh.scenarios import builtin, run as run_scenario, sweep
from pbh.stress import (divergence_gap, stress_divergence_check, stress_divergence_sides,
                        trace_identity_at)
from pbh.submanifold import (ImmersionPoint, bitension_split, theorem21_residuals,
                             theorem23_residuals)
from pbh.verify import (P_VALUES, _points, corpus_immersions, corpus_maps, corpus_scenarios,
                        criterion_bitension_cross_check, criterion_cylinder_proper_p_biharmonicity,
                        criterion_inversion_p_harmonicity, criterion_p2_reductions,
                        criterion_small_hypersphere, criterion_stress_divergence,
                        criterion_stress_trace)

IMMERSIONS = corpus_immersions()
FIXED_MAPS = [entry for entry in corpus_maps() if not callable(entry[1])]


def _values(pair):
    """A residual pair with jet entries replaced by their values, as the wrappers return it."""
    first, second = pair
    first = [value(v) for v in first] if isinstance(first, list) else value(first)
    return first, [value(v) for v in second]


@pytest.mark.parametrize("name, imm, box", IMMERSIONS, ids=[e[0] for e in IMMERSIONS])
def test_shared_immersion_point_equals_wrappers(name, imm, box):
    for x in _points(np.random.default_rng(11), box, 2):
        ip = imm.at(lift_point(x, 3))
        for p in P_VALUES:
            assert repr(ip.bitension_split(p)) == repr(bitension_split(imm, x, p))
            assert (repr(_values(ip.general_residuals(p)))
                    == repr(theorem21_residuals(imm, x, p)))
            assert (repr(_values(ip.hypersurface_residuals(p)))
                    == repr(theorem23_residuals(imm, x, p)))


@pytest.mark.parametrize("name, phi, box", FIXED_MAPS, ids=[e[0] for e in FIXED_MAPS])
def test_shared_map_point_equals_stress_wrappers(name, phi, box):
    for x in _points(np.random.default_rng(12), box, 2):
        mp = phi.at(lift_point(x, 3))
        for p in P_VALUES:
            lhs, rhs = stress_divergence_sides(mp, p)
            assert (repr((lhs, rhs, divergence_gap(lhs, rhs)))
                    == repr(stress_divergence_check(phi, x, p)))
            assert (repr(trace_identity_at(mp, p))
                    == repr(trace_identity_at(phi.at(lift_point(x, 2)), p)))


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("name", list(corpus_scenarios()))
def test_a_corpus_entry_runs_as_a_scenario(name, p):
    """The corpus entries written as scenario data run as scenarios: the two
    stress identities they list hold at every sample point."""
    rep = run_scenario(corpus_scenarios()[name], {"p": p})
    assert rep.verdict
    assert {r.check for r in rep.rows} == {"stress_divergence", "trace_identity"}


def test_target_curvature_is_computed_once_per_point(monkeypatch):
    phi = dict((e[0], e[1]) for e in FIXED_MAPS)["curved_target"]
    calls = []
    curvature_at = ChartMetric.curvature_at
    monkeypatch.setattr(ChartMetric, "curvature_at",
                        lambda self, *a, **k: calls.append(a) or curvature_at(self, *a, **k))
    mp = phi.at(lift_point((0.7, 0.5), 3))
    for p in P_VALUES:
        mp.p_bitension(p)
    mp.forget_scratch()
    mp.p_bitension(3.0)
    assert len(calls) == 1


def test_bitension_cross_check_lifts_each_point_once(monkeypatch):
    built = []
    init = ImmersionPoint.__init__
    monkeypatch.setattr(ImmersionPoint, "__init__",
                        lambda self, imm, X: built.append(X) or init(self, imm, X))
    assert criterion_bitension_cross_check().passed
    # one batched order-3 context of the 5 sample points per immersion
    assert len(built) == len(IMMERSIONS) == 6
    assert all(X[0].space.order == 3 and X[0].space.batched and X[0].value.shape == (5,)
               for X in built)


BATCHED_CRITERIA = (criterion_inversion_p_harmonicity, criterion_cylinder_proper_p_biharmonicity,
                    criterion_bitension_cross_check, criterion_stress_divergence,
                    criterion_stress_trace, criterion_small_hypersphere,
                    criterion_p2_reductions)


def _recorded(criterion, *patches):
    """(result, repr of the per-point floats of every `_point_floats` call) of
    one criterion run, with each (module, attribute, value) of `patches` set."""
    floats = []
    point_floats = verify._point_floats

    def recording(*args, **kwargs):
        out = point_floats(*args, **kwargs)
        floats.append(out)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_point_floats", recording)
        for module, attr, new in patches:
            patch.setattr(module, attr, new)
        result = criterion()
    return result, repr(floats)


@pytest.fixture(scope="module")
def batched():
    """criterion -> its recorded batched run, each run once for the module."""
    runs = {}

    def run(criterion):
        if criterion not in runs:
            runs[criterion] = _recorded(criterion)
        return runs[criterion]
    return run


@pytest.mark.parametrize("criterion", BATCHED_CRITERIA, ids=lambda fn: fn.__name__)
def test_one_point_chunks_give_the_batched_result(criterion, batched):
    result, floats = batched(criterion)
    assert result.passed
    assert _recorded(criterion, (mapcalc, "_CHUNK", 1)) == (result, floats)


def _raise_batch_split(points):
    raise BatchSplit("forced")


# one criterion per kind of batch: float and order-1 points read at one p, a
# map factory batched per p, an immersion read at its own p values, public
# wrappers called at the batched point
@pytest.mark.parametrize("criterion", (criterion_inversion_p_harmonicity,
                                       criterion_cylinder_proper_p_biharmonicity,
                                       criterion_small_hypersphere,
                                       criterion_p2_reductions),
                         ids=lambda fn: fn.__name__)
def test_a_raising_batch_is_replayed_point_by_point(criterion, batched):
    assert (_recorded(criterion, (mapcalc, "_stack", _raise_batch_split))
            == batched(criterion))


# ---------------------------------------------------------------------- #
# shared subtree values and the jet work of the heaviest criteria
# ---------------------------------------------------------------------- #

def _per_subtree_draw(rng, dim, depth=6, bound=1e4):
    """random_expression_with_point with a fresh memo and lift per subtree."""
    while True:
        try:
            e = verify.random_expression(rng, dim, depth)
        except (DomainError, ZeroDivisionError):
            continue
        if not e.has_coords():
            continue
        x = tuple(float(rng.uniform(0.35, 1.65)) for _ in range(dim))
        try:
            ok = True
            for sub in e.walk():
                J = eval_jet(sub, x, 4)
                coeffs = np.asarray(J.c) if hasattr(J, "c") else np.asarray([float(J)])
                if not np.all(np.isfinite(coeffs)) or np.max(np.abs(coeffs)) > bound:
                    ok = False
                    break
        except Exception:
            continue
        if ok:
            return e, x


@pytest.mark.parametrize("seed", range(104, 111))
def test_shared_subtree_memo_draws_what_a_memo_per_subtree_draws(seed):
    shared, per_subtree = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(50):
        e, x, _ = verify.random_expression_with_point(shared, 2)
        e_old, x_old = _per_subtree_draw(per_subtree, 2)
        assert (e.to_string(), x) == (e_old.to_string(), x_old)


@pytest.mark.parametrize("seed", [104, 108])
def test_the_drawn_jet_is_the_expressions_jet_at_the_point(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        e, x, J = verify.random_expression_with_point(rng, 2)
        assert J.c.tobytes() == eval_jet(e, x, 4).c.tobytes()


def test_jet_products_and_node_evaluations_stay_within_budget(operation_counts):
    """Counts, not times: losing a hoisted product or a shared memo shows here
    without machine noise. A node counts each time it is computed, that is
    each time its class applies its `OPERATION`."""
    counts = operation_counts
    assert criterion_bitension_cross_check().passed
    assert counts["products"] <= 4_582
    counts.reset()
    assert verify.criterion_infrastructure().passed
    assert counts["products"] <= 3_384
    assert counts["nodes"] <= 71_484
    counts.reset()
    assert len(run_scenario(builtin("proper_pbh_cylinder"), {"p": 3.0}).rows) == 24
    assert counts["products"] <= 170
    counts.reset()
    assert verify.criterion_small_hypersphere().passed
    assert counts["products"] <= 1_806
    counts.reset()
    assert len(sweep(builtin("small_hypersphere(2, 0.8)"), "p", 2.0, 6.0, 41).reports) == 41
    assert counts["products"] <= 830


def test_the_perturbed_maps_of_a_variation_build_its_partials_once(monkeypatch):
    """Counts, not times: the maps phi + t v at t = +eps and -eps build their
    partials in one copy of phi's derivative table, so those of v are built
    once. A warm first-variation pass makes 726 `Expression.diff` calls; with
    a table copy per perturbed map it made 958."""
    assert verify.criterion_first_variation().passed  # the corpus is built
    calls = 0
    diff = Expression.diff

    def counting(self, *args):
        nonlocal calls
        calls += 1
        return diff(self, *args)

    monkeypatch.setattr(Expression, "diff", counting)
    assert verify.criterion_first_variation().passed
    assert calls <= 726


def _object_and_points(name, p):
    """A corpus map and four points of its box, or a built-in scenario's object
    and its first four sample points."""
    corpus = {n: (phi, box) for n, phi, box in corpus_maps()}
    if name in corpus:
        phi, box = corpus[name]
        return phi, _points(np.random.default_rng(3), box, 4)
    scenario = builtin(name)
    return scenario.build({"p": p}), scenario.sample_points()[:4]


@pytest.mark.parametrize("name, p, order, checks", [
    ("proper_pbh_cylinder", 3.0, 3, ["p_biharmonic", "stress_divergence", "trace_identity"]),
    ("small_hypersphere(2, 0.8)", 3.0, 2, ["theorem_2_1", "theorem_2_3", "cmc_proper_p"]),
    # into the 2-sphere: the target curvature and its Christoffel derivatives at jets
    ("curved_target", 3.0, 3, ["p_biharmonic", "stress_divergence"]),
])
def test_a_point_inverts_no_jet_twice_and_repeats_no_geometry_product(
        name, p, order, checks, operation_counts):
    """At one batched jet point, every check forms each reciprocal once per
    jet, and the kernels of `pbh.geometry` multiply each ordered pair of jets
    once: a quotient over a shared denominator, a pivot inverted again in
    back-substitution, or a Christoffel, curvature or divergence product
    formed again for a symmetric index pair shows here."""
    obj, points = _object_and_points(name, p)
    contexts = scenarios._ChunkContexts(obj, points, order)
    operation_counts.reset()
    for check in checks:
        assert not any(math.isnan(r) for r, _ok, _s, _x in contexts.results(check, p, 1e-6))
    counts = operation_counts
    assert counts["products"] > 0 and counts["composes"] > 0
    assert counts["repeated_inversions"] == 0
    assert counts["repeated_products:pbh.geometry"] == 0
