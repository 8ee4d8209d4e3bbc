"""Shared subtrees (`expr.share_subtrees`): a map's, a chart's and an
immersion's trees hold one object per distinct inner subtree. Against the
oracle of the same objects built without sharing, every table prints the same,
evaluates to the same bits and holds no more nodes."""

import math

import numpy as np
import pytest
from test_acceptance import VERIFY_CACHES

from pbh import geometry, mapcalc, verify
from pbh.expr import Add, Const, Coord, Mul, Param, Sin, parse, share_subtrees
from pbh.jets import JetScalar, lift_point
from pbh.mapcalc import _roots, _stack
from pbh.scenarios import builtin

BUILTINS = [("inversion(3)", {"l": 2.0, "p": 3.0}), ("proper_pbh_cylinder", {"p": 3.0}),
            ("small_hypersphere(2, 0.8)", {})]


def _objects():
    """(name, map or immersion, box) of the corpora and the built-ins. The
    corpus is built once per process: `_unshared` empties the verify caches
    to build it afresh."""
    out = [(name, phi(3.0) if callable(phi) else phi, box)
           for name, phi, box in verify.corpus_maps()]
    out += list(verify.corpus_immersions())
    for name, overrides in BUILTINS:
        sc = builtin(name)
        out.append((name, sc.build(overrides), sc.box))
    return out


NAMES = [name for name, _obj, _box in _objects()]


def _unshared(monkeypatch):
    """_objects() built afresh with sharing switched off."""
    with monkeypatch.context() as m:
        for module in (geometry, mapcalc):
            m.setattr(module, "share_subtrees", list)
        for cache in VERIFY_CACHES:
            cache.cache_clear()
        try:
            return _objects()
        finally:
            for cache in VERIFY_CACHES:
                cache.cache_clear()


def _tables(obj):
    """Every tree a map or immersion holds: (those over the source
    coordinates, those over the target coordinates), each in a fixed order."""
    phi = getattr(obj, "map", obj)
    src, tgt = phi.source, phi.target
    return (_roots([phi.components, phi._first(), phi._second(), src.components,
                    src._first_derivs(), src._second_derivs(),
                    getattr(obj, "pullback_components", [])]),
            _roots([tgt.components, tgt._first_derivs(), tgt._second_derivs()]))


def _nodes(roots):
    seen = {}
    stack = list(roots)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            stack.extend(e._children())
    return list(seen.values())


def _bits(v):
    if isinstance(v, JetScalar):
        return v.c.tobytes()
    if isinstance(v, np.ndarray):
        return v.tobytes()
    return repr(v)  # NaN equals itself only as text


def _pair(monkeypatch, name):
    shared = {n: (obj, box) for n, obj, box in _objects()}[name]
    plain = {n: (obj, box) for n, obj, box in _unshared(monkeypatch)}[name]
    return shared, plain


@pytest.mark.parametrize("name", NAMES)
def test_every_table_prints_as_the_unshared_build(monkeypatch, name):
    (shared, _box), (plain, _) = _pair(monkeypatch, name)
    got, ref = _roots(_tables(shared)), _roots(_tables(plain))
    assert [e.to_string() for e in got] == [e.to_string() for e in ref]


@pytest.mark.parametrize("name", NAMES)
def test_every_table_evaluates_to_the_unshared_bits(monkeypatch, name):
    (shared, box), (plain, _) = _pair(monkeypatch, name)
    rng = np.random.default_rng(17)
    phi, phi_plain = getattr(shared, "map", shared), getattr(plain, "map", plain)
    pts = [tuple(float(rng.uniform(lo, hi)) for lo, hi in box) for _ in range(3)]
    images = [tuple(float(rng.uniform(0.2, 0.6)) for _ in range(phi.target.dim)) for _ in range(3)]
    for lift in (lambda p: p[0], lambda p: lift_point(p[1], 3),
                 lambda p: lift_point(_stack(p), 2)):
        X, Y = lift(pts), lift(images)
        got, ref = [], []
        for obj, out in ((shared, got), (plain, ref)):
            for trees, point in zip(_tables(obj), (X, Y)):
                memo = {}  # one memo per point, as a MapPoint's
                for e in trees:
                    out.append(_bits(e.evaluate(point, phi.params, memo)))
        assert got == ref
        if isinstance(X[0], JetScalar):
            mp, mp_plain = phi.at(X), phi_plain.at(X)
            for field in ("d2phi", "sff", "tension"):
                assert (_roots_bits(getattr(mp, field))
                        == _roots_bits(getattr(mp_plain, field)))


def _roots_bits(v):
    return [_roots_bits(t) for t in v] if isinstance(v, list) else _bits(v)


@pytest.mark.parametrize("name", NAMES)
def test_no_forest_grows(monkeypatch, name):
    (shared, _box), (plain, _) = _pair(monkeypatch, name)
    assert len(_nodes(_roots(_tables(shared)))) <= len(_nodes(_roots(_tables(plain))))


@pytest.mark.parametrize("name", NAMES)
def test_sharing_again_returns_the_same_objects(name):
    obj = {n: o for n, o, _box in _objects()}[name]
    phi = getattr(obj, "map", obj)
    for trees in (phi.components, _roots(phi.source.components),
                  _roots(phi.target.components)):
        again = share_subtrees(trees)
        assert all(a is b for a, b in zip(again, trees))
    again = mapcalc.share_with_metric(phi.source.components, phi.components)
    assert all(a is b for a, b in zip(again, phi.components))


def test_inner_subtrees_merge_and_leaves_stay():
    x1 = Coord(0)
    a = Add(Sin(x1), Const(2.0))
    b = Add(Sin(Coord(0)), Const(2.0))
    root = Mul(a, b)
    (shared,) = share_subtrees([root])
    assert shared is not root and shared.left is a and shared.right is a
    # leaves are never replaced, and an unchanged subtree keeps its object
    assert shared.left.left.arg is x1 and shared.left.right is a.right
    assert shared.to_string() == root.to_string()


def test_unchanged_trees_keep_their_objects_and_derivative_caches():
    """An unchanged tree is the same object, so its partials stay in any derivative table."""
    e, table = parse("sin(x1) * exp(x2) + p", 2, ["p"]), {}
    d = e.diff(0, table)
    (same,) = share_subtrees([e])
    assert same is e and same.diff(0, table) is d


@pytest.mark.parametrize("zero, other", [(0.0, -0.0), (-0.0, 0.0)])
def test_signed_zeros_are_never_merged(zero, other):
    x1 = Coord(0)
    a, b = Add(x1, Const(zero)), Add(x1, Const(other))
    shared = share_subtrees([a, b, Mul(a, b)])
    assert shared[0] is a and shared[1] is b and shared[2].left is a and shared[2].right is b
    # -0.0 + -0.0 is -0.0, -0.0 + 0.0 is 0.0
    assert [math.copysign(1.0, s.evaluate((-0.0,))) for s in shared[:2]] == \
        [math.copysign(1.0, zero), math.copysign(1.0, other)]


def test_leaves_key_on_their_exact_value():
    x1, x2 = Coord(0), Coord(1)
    trees = [Sin(x1), Sin(x2), Sin(Param("a")), Sin(Param("b")), Sin(Const(1.0)),
             Sin(Const(float.fromhex("0x1.0000000000001p+0"))), Sin(Param("a"))]
    shared = share_subtrees(trees)
    assert len({id(s) for s in shared}) == 6 and shared[6] is shared[2]


def test_with_params_copies_share_their_tables_and_own_their_params():
    phi = builtin("inversion(3)")._parsed()
    imm = builtin("small_hypersphere(2, 0.8)")._parsed()
    phi2, imm2 = phi.with_params(l=2.5), imm.with_params(a=0.7)
    cases = [(phi.source, phi.source.with_params(l=2.5), ("components", "dg", "d2g")),
             (imm, imm2, ("pullback_components",))]
    for orig, copy in ((phi, phi2), (imm, imm2)):
        cases.append((orig, copy, ("components", "d1", "d2")))
        for side in ("source", "target"):
            cases.append((getattr(orig, side), getattr(copy, side), ("components", "dg", "d2g")))
    for orig, copy, tables in cases:
        assert all(getattr(copy, name) is getattr(orig, name) for name in tables)
        if hasattr(orig, "params"):
            assert copy.params is not orig.params and copy.params != orig.params
    before = dict(phi.params)
    phi2.params["l"] = 9.0
    assert phi.params == before


def test_one_chart_per_space_form():
    """A space form's chart is built once per (c, dim), so the corpus maps
    into one Euclidean space share its trees."""
    assert geometry.space_form_chart(1.0, 3) is geometry.space_form_chart(1.0, 3)
    assert geometry.space_form_chart(0.0, 2) is geometry.euclidean_chart(2)
    flat = {}
    for _name, phi, _box in verify.corpus_maps():
        if not callable(phi) and phi.target.space_form_c == 0.0:
            flat.setdefault(phi.target.dim, []).append(phi.target.components)
    assert len(flat[2]) >= 4
    assert all(c is comps[0] for comps in flat.values() for c in comps)


def test_a_map_writes_nothing_into_the_table_of_its_chart_or_base_map():
    """A map differentiates in a copy of its source chart's derivative table,
    and a perturbed map in a copy of its base map's: the tables of what
    outlives them do not grow, and the partials they read from them stay the
    same objects."""
    phi = builtin("proper_pbh_cylinder").build({"p": 3.0})

    def sizes(table):
        return {kind: len(kept) for kind, kept in table.items()}

    chart, base = sizes(phi.source.table), sizes(phi.table)
    moved, = mapcalc.perturbed_map(phi, [parse("x1*x2", 3), parse("sin(x3)", 3)], 0.1)
    other = mapcalc.SmoothMap(phi.source, phi.target,
                              [parse("exp(x1^2 + x2^2)", 3), parse("x2", 3)], phi.params)
    assert sizes(phi.source.table) == chart and sizes(phi.table) == base
    assert all(moved.d1[0][i].left is phi.d1[0][i] for i in (0, 1))
    # exp(u) shares u with the metric, whose partial the chart built
    assert other.d1[0][0].right is phi.source.table[0][other.components[0].arg]


@pytest.mark.parametrize("imm", [
    verify.corpus_scenarios()["paraboloid"].build(),
    builtin("small_hypersphere(2, 0.8)").build()], ids=["induced", "declared"])
def test_an_immersion_builds_its_pullback_chart_and_map_in_one_table(imm):
    assert imm.table is imm.source.table
    dcomp = {id(d) for row in imm.d1 for d in row}
    assert dcomp & {id(n) for e in _roots(imm.pullback_components) for n in e.walk()}
