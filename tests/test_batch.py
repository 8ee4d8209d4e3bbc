"""The batch axis: expressions, jets and map points evaluated at many points
at once must give exactly what one evaluation per point gives, and the chunked
energy quadrature and scenario runs must equal a plain per-node or per-point
loop bit for bit, failures included."""

import itertools
import json
import math
import sys

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_scenarios import cusp_immersion_dict

from pbh import expr, jets, linalg, mapcalc, scenarios
from pbh.cli import main as cli_main
from pbh.errors import BatchSplit, PbhError, SingularityError
from pbh.expr import parse
from pbh.geometry import ChartMetric, euclidean_chart, space_form_chart
from pbh.jets import JetScalar, lift_point, point_value, space_for, sqrt, value
from pbh.mapcalc import SmoothMap, gauss_legendre_box, p_bienergy_box, p_energy_box
from pbh.scenarios import SCHEMA_VERSION, Scenario, builtin, run, sweep
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
        e, x, _ = random_expression_with_point(rng, 2)
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


def test_batched_jets_reject_mixing():
    for order in (1, 3):
        scalar = lift_point((0.5, 1.0), order)
        batched = lift_point(_batch([(0.5, 1.0), (0.7, 1.1)]), order)
        with pytest.raises(ValueError):
            scalar[0] + batched[0]
        with pytest.raises(ValueError):
            scalar[0] * batched[0]


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
    inner = mapcalc._read_points

    def spying(obj, points, order, read):
        def counting(ctx, X, size):
            calls["batched" if isinstance(X[0], np.ndarray) else "single"] += 1
            return read(ctx, X, size)
        return inner(obj, points, order, counting)

    monkeypatch.setattr(mapcalc, "_read_points", spying)
    return calls


@pytest.fixture
def attempts(monkeypatch):
    """The size of every batched attempt of `replay_chunks`, in order, and a 1
    for each single-item call (a batched attempt never holds one item); an
    attempt counts before the quadrature's domain check of its nodes."""
    sizes = []
    inner = mapcalc.replay_chunks

    def spying(items, batched, single):
        def batched_attempt(chunk):
            sizes.append(len(chunk))
            return batched(chunk)

        def single_call(item):
            sizes.append(1)
            return single(item)
        return inner(items, batched_attempt, single_call)

    monkeypatch.setattr(mapcalc, "replay_chunks", spying)
    return sizes


def _corpus():
    maps = [(name, phi, box) for name, phi, box in corpus_maps()]
    inv3, inv2 = builtin("inversion(3)"), builtin("inversion(2)")
    maps.append(("inversion3_l2", lambda p: inv3.build({"l": 2.0, "p": p}), inv3.box))
    maps.append(("inversion2_l1.7", lambda p: inv2.build({"l": 1.7, "p": p}), inv2.box))
    return [pytest.param(phi, box, id=name) for name, phi, box in maps]


@pytest.mark.parametrize("phi, box", _corpus())
def test_quadrature_matches_per_node_loop(phi, box, node_calls):
    # order 5: one chunk of 25 nodes in two dimensions, of 125 in three
    for p in (2.0, 3.0):
        f = phi(p) if callable(phi) else phi
        assert repr(p_energy_box(f, box, p, order=5)) == repr(loop_energy(f, box, p, 5))
        assert repr(p_bienergy_box(f, box, p, order=5)) == repr(loop_bienergy(f, box, p, 5))
    assert node_calls["single"] == 0 and node_calls["batched"] > 0


def test_quadrature_over_two_chunks_matches_per_node_loop(node_calls, attempts):
    # order 23 in two dimensions: 529 nodes, a full chunk of 512 and one of 17
    inv2 = builtin("inversion(2)")
    phi = inv2.build({"l": 1.7, "p": 3.0})
    assert repr(p_energy_box(phi, inv2.box, 3.0, order=23)) == repr(
        loop_energy(phi, inv2.box, 3.0, 23))
    assert repr(p_bienergy_box(phi, inv2.box, 3.0, order=23)) == repr(
        loop_bienergy(phi, inv2.box, 3.0, 23))
    assert attempts == [512, 17] * 2
    assert node_calls == {"batched": 4, "single": 0}


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


def test_point_failure_before_a_node_outside_domain(node_calls, attempts):
    # order 4: node 0 (x1 = -0.72) is inside the ball but log(x1) fails there;
    # nodes 12-15 (x1 = 2.72) leave the ball, which fails the chunk's domain
    # check first, so only halves that leave them out find the loop's
    # exception: nodes 0-7, 0-3 and 0-1 raise it as batches, node 0 alone
    phi = SmoothMap(space_form_chart(-1.0, 2), euclidean_chart(2),
                    [parse("log(x1)", 2), parse("x2", 2)])
    box = [(-1.0, 3.0), (0.0, 0.5)]
    for fn, loop in ((p_energy_box, loop_energy), (p_bienergy_box, loop_bienergy)):
        got = _outcome(fn, phi, box, 3.0, 4)
        assert got.startswith("DomainError")
        assert got == _outcome(loop, phi, box, 3.0, 4)
    assert attempts == [16, 8, 4, 2, 1] * 2
    assert node_calls == {"batched": 6, "single": 2}


def test_late_node_outside_domain_takes_few_attempts(attempts):
    # one chunk of 512 Gauss nodes whose first node outside the ball
    # |x|^2 < 4 is node 448, the first of the last x1 plane: the halving finds
    # it in 12 batched attempts and one single call (a node-by-node replay of
    # the chunk would make 449 single calls)
    sc = Scenario.from_dict({
        "schema": SCHEMA_VERSION, "name": "late_exit", "kind": "map",
        "source": {"dim": 3, "space_form": -1.0}, "target": {"dim": 3, "space_form": 0.0},
        "components": ["x1", "x2 + 0.1*x1^2", "x3"], "params": {"p": 3.0},
        "samples": {"box": [[-0.5, 1.98], [-0.5, 0.5], [-0.5, 0.5]], "points_per_axis": 2},
        "checks": ["energy_quadrature"]})
    nodes = [x for x, _w in gauss_legendre_box(sc.box, scenarios.QUADRATURE_ORDER)]
    phi = sc.build(sc.params)
    assert len(nodes) == 512
    assert min(k for k, x in enumerate(nodes) if not phi.source.contains(x)) == 448
    halving = [512, 256, 256, 128, 128, 64, 64, 32, 16, 8, 4, 2, 1]
    [row] = run(sc).rows
    assert attempts == halving
    ref = _outcome(loop_energy, phi, sc.box, 3.0, 8)
    assert ref.startswith("SingularityError: quadrature node outside source domain")
    assert math.isnan(row.residual) and f"SingularityError: {row.note}" == ref
    for fn, loop in ((p_energy_box, loop_energy), (p_bienergy_box, loop_bienergy)):
        attempts.clear()
        assert _outcome(fn, phi, sc.box, 3.0, 8) == _outcome(loop, phi, sc.box, 3.0, 8)
        assert attempts == halving
        assert attempts.count(1) <= 2 and len(attempts) - attempts.count(1) <= 2 * 9


def test_pivot_rows_that_differ_across_nodes_split_the_batch(node_calls, attempts):
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
    # the 36 nodes and the halves holding both pivot rows raise; halves of
    # one pivot row evaluate as batches, none down to a single node
    assert attempts == [36, 18, 18, 9, 4, 5, 2, 3, 9] * 4
    assert node_calls == {"batched": 36, "single": 0}


# ---------------------------------------------------------------------- #
# batched jet arithmetic of order 2..4 against one column at a time
# ---------------------------------------------------------------------- #

@st.composite
def _batched_jets(draw, positive):
    """(space, [batched coefficient arrays]) of two operands in a batched
    space of order 2..4, base values in [0.1, 3] (negated at random unless
    `positive`)."""
    nvars, order, size = (draw(st.integers(1, 3)), draw(st.integers(2, 4)),
                          draw(st.integers(2, 5)))
    sp = space_for(nvars, order, batched=True)
    operands = []
    for _ in range(2):
        c = draw(hnp.arrays(np.float64, (sp.size, size), elements=st.floats(-2.0, 2.0)))
        c[0] = draw(hnp.arrays(np.float64, size, elements=st.floats(0.1, 3.0)))
        if not positive:
            c[0] *= draw(hnp.arrays(np.float64, size, elements=st.sampled_from([-1.0, 1.0])))
        operands.append(c)
    return sp, operands


BATCHED_OPS = {
    "multiply": (False, lambda a, b: a * b),
    "divide": (False, lambda a, b: a / b),
    "integer_powr": (False, lambda a, b: jets.powr(a, 3) + jets.powr(b, -2)),
    "fractional_powr": (True, lambda a, b: jets.powr(a, 0.7) * jets.powr(b, -1.5)),
    "exp": (False, lambda a, b: jets.exp(a)),
    "log": (True, lambda a, b: jets.log(a)),
    "sin": (False, lambda a, b: jets.sin(a)),
    "cos": (False, lambda a, b: jets.cos(b)),
    "sqrt": (True, lambda a, b: jets.sqrt(a)),
    "partial": (False, lambda a, b: (a * b).partial(a.space.nvars - 1)),
}


@pytest.mark.parametrize("name", BATCHED_OPS)
def test_batched_op_equals_each_column(name):
    positive, op = BATCHED_OPS[name]

    @settings(derandomize=True, database=None, max_examples=15, deadline=None)
    @given(_batched_jets(positive))
    def check(case):
        sp, (a, b) = case
        scalar_sp = space_for(sp.nvars, sp.order)
        batched = op(JetScalar(sp, a), JetScalar(sp, b)).c
        for e in range(a.shape[1]):
            column = op(JetScalar(scalar_sp, a[:, e].copy()), JetScalar(scalar_sp, b[:, e].copy()))
            assert repr(batched[:, e].tolist()) == repr(column.c.tolist())

    check()


# operand entries of every kind a product kernel may meet: signed zeros,
# subnormals, ordinary values, and values whose products overflow to +-inf
_ENTRY_KINDS = (lambda rng, n: rng.choice([0.0, -0.0], n),
                lambda rng, n: rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-323.5, -308.0, n),
                lambda rng, n: rng.uniform(-2.0, 2.0, n),
                lambda rng, n: rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(150.0, 308.0, n))


def _mixed_entries(rng, shape, weights):
    kinds = rng.choice(len(_ENTRY_KINDS), size=shape, p=weights)
    out = np.empty(shape)
    for k, draw in enumerate(_ENTRY_KINDS):
        mask = kinds == k
        out[mask] = draw(rng, int(mask.sum()))
    return out


@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.floats(0.05, 1.0), min_size=len(_ENTRY_KINDS), max_size=len(_ENTRY_KINDS)))
def test_batched_product_columns_are_bit_equal_to_unbatched_products(seed, weights):
    rng = np.random.default_rng(seed)
    weights = np.array(weights) / sum(weights)
    with np.errstate(all="ignore"):
        for nvars, order, width in itertools.product((1, 2, 3), (2, 3, 4), (1, 2, 5, 24, 64, 65)):
            sp, scalar_sp = space_for(nvars, order, batched=True), space_for(nvars, order)
            a, b = (_mixed_entries(rng, (sp.size, width), weights) for _ in range(2))
            batched = (JetScalar(sp, a) * JetScalar(sp, b)).c
            assert batched.shape == (sp.size, width)
            for e in range(width):
                column = JetScalar(scalar_sp, a[:, e].copy()) * JetScalar(scalar_sp, b[:, e].copy())
                assert (batched[:, e].view(np.int64) == column.c.view(np.int64)).all(), \
                    (nvars, order, width, e)


# ---------------------------------------------------------------------- #
# sample points evaluated in chunks against one point at a time
# ---------------------------------------------------------------------- #

@pytest.fixture
def check_sizes(monkeypatch):
    """The number of points of every check evaluation in a scenario run."""
    sizes = []
    inner = scenarios._check_results

    def counting(check, jet, flts, p, tol):
        sizes.append(len(flts))
        return inner(check, jet, flts, p, tol)

    monkeypatch.setattr(scenarios, "_check_results", counting)
    return sizes


def _one_point_chunks(monkeypatch, fn):
    with monkeypatch.context() as patch:
        patch.setattr(mapcalc, "_CHUNK", 1)
        return fn()


@pytest.mark.parametrize("name, p", [
    ("proper_pbh_cylinder", 2.0), ("proper_pbh_cylinder", 3.0), ("proper_pbh_cylinder", 4.0),
    ("small_hypersphere(2, 0.8)", 3.0), ("small_hypersphere(2, 0.8)", 2.5),
    ("inversion(3)", 2.0), ("inversion(3)", 3.0)])
def test_reports_equal_one_point_chunks(name, p, monkeypatch, check_sizes):
    sc = builtin(name)
    npoints = len(sc.sample_points())
    checks = len([c for c in sc.checks if c != "energy_quadrature"])
    rep = run(sc, overrides={"p": p})
    assert check_sizes == [npoints] * checks  # one chunk, no replay
    check_sizes.clear()
    single = _one_point_chunks(monkeypatch, lambda: run(sc, overrides={"p": p}))
    assert check_sizes == [1] * (npoints * checks)
    assert rep.to_csv() == single.to_csv()
    assert rep.to_json() == single.to_json()


# check sizes of a cusp run: every batch of two or more of its 9 points
# raises on its first check (a BatchSplit: the Gram-Schmidt pivots differ
# across its points), so the halving goes down to single points, where each
# of the 3 checks runs on its own: [9], [0-3], [0-1], 0, 1, [2-3], 2, 3,
# [4-8], [4-5], 4, 5, [6-8], 6, [7-8], 7, 8
_CUSP_HALVING = [9, 4, 2, *[1] * 6, 2, *[1] * 6, 5, 2, *[1] * 6, 3, *[1] * 3, 2, *[1] * 6]


def test_failure_mid_chunk_replays_each_point(monkeypatch, check_sizes, tmp_path, capsys):
    # the cusp drops rank on x1 = 0: points 3, 4 and 5 of the 9-point chunk
    data = cusp_immersion_dict(checks=["theorem_2_1", "theorem_2_3", "cmc_proper_p"])
    sc = Scenario.from_dict(data)
    points = sc.sample_points()
    assert [k for k, x in enumerate(points) if x[0] == 0.0] == [3, 4, 5]
    rep = run(sc)
    assert check_sizes == _CUSP_HALVING
    swept = sweep(sc, "p", 2.0, 4.0, 3)
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(data))
    argv = ["run", str(path), "--strict"]
    strict = cli_main(argv), capsys.readouterr().err

    def per_point():
        return (run(sc), sweep(sc, "p", 2.0, 4.0, 3), (cli_main(argv), capsys.readouterr().err))

    ref_rep, ref_swept, ref_strict = _one_point_chunks(monkeypatch, per_point)
    assert any(r.note and "rank" in r.note for r in rep.rows)
    assert [(r.check, r.point, repr(r.residual), r.signed, r.note) for r in rep.rows] == [
        (r.check, r.point, repr(r.residual), r.signed, r.note) for r in ref_rep.rows]
    assert rep.to_json() == ref_rep.to_json() and rep.extras == ref_rep.extras
    assert swept.to_json() == ref_swept.to_json() and swept.crossings == ref_swept.crossings
    assert strict == ref_strict and strict[0] == 3


def test_sweep_attempts_a_failing_batch_once(monkeypatch, check_sizes):
    # every batch of the cusp raises at every p; after the first step the
    # sweep goes straight to the halves of each, down to single points, where
    # cmc_proper_p runs again only at the 3 rank-deficient points, which raise
    sc = Scenario.from_dict(cusp_immersion_dict(
        checks=["theorem_2_1", "theorem_2_3", "cmc_proper_p"]))
    npoints = len(sc.sample_points())
    swept = sweep(sc, "p", 2.0, 6.0, 41)
    assert check_sizes == _CUSP_HALVING + [1] * (40 * (2 * npoints + 3))
    ref = _one_point_chunks(monkeypatch, lambda: sweep(sc, "p", 2.0, 6.0, 41))
    assert swept.to_csv() == ref.to_csv()
    assert swept.to_json() == ref.to_json() and swept.crossings == ref.crossings


def test_quadrature_makes_no_python_frame_per_node():
    """Counts, not times: the energy and bienergy of inversion(3) (l = 2, p = 3)
    over its 512 Gauss nodes start about 5100 Python frames (generator
    resumptions included). A Python loop per node or per batch entry shows as
    thousands more: with per-entry comprehensions for the libm calls and the
    Gauss grid it read 41 066."""
    sc = builtin("inversion(3)")
    phi = sc.build({"l": 2.0, "p": 3.0})

    def energies():
        order = scenarios.QUADRATURE_ORDER
        return (p_energy_box(phi, sc.box, 3.0, order=order),
                p_bienergy_box(phi, sc.box, 3.0, order=order))

    warm = energies()  # derivative tables and jet spaces are built once
    calls = 0

    def counting(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(counting)
    try:
        got = energies()
    finally:
        sys.setprofile(None)
    assert repr(got) == repr(warm)
    assert calls <= 5_100


def test_quadrature_run_computes_each_shared_factor_once(monkeypatch):
    """Counts, not times: a run of inversion(3) (l = 2, p = 3), its 8 sample
    points and its energy quadrature, makes 14 per-entry libm passes
    (`np.fromiter`) and 617 node computations. A power, quotient or trig
    factor built again for each axis of a derivative table is computed once
    per copy: with a copy per axis the run made 134 passes and 1473 nodes,
    and with equal subtrees of the map's trees kept apart 32 and 1041."""
    counts = {"passes": 0, "nodes": 0}
    fromiter = np.fromiter

    def counting_fromiter(*args):
        counts["passes"] += 1
        return fromiter(*args)

    monkeypatch.setattr(np, "fromiter", counting_fromiter)
    for cls in [c for c in vars(expr).values() if isinstance(c, type) and "OPERATION" in vars(c)]:
        def counting(*operands, _operation=cls.OPERATION):
            counts["nodes"] += 1
            return _operation(*operands)
        monkeypatch.setattr(cls, "OPERATION", staticmethod(counting))
    rows = run(builtin("inversion(3)"), overrides={"l": 2.0, "p": 3.0}).rows
    assert len(rows) == 9 and all(r.passed for r in rows)
    assert counts["passes"] <= 14
    assert counts["nodes"] <= 617
