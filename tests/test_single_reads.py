"""Memo marking: an inner node that one reader reads skips the memo
(`expr.mark_reads`). That must never make a node be computed twice where the
memo would have served it, marking must be idempotent, and the batched runs
must leave no reference cycle that keeps their points alive; no run, sweep or
criterion may leave a pbh object for the cyclic garbage collector."""

import gc
import weakref

import pytest
from test_acceptance import VERIFY_CACHES
from test_scenarios import cusp_immersion_dict

from pbh import expr, mapcalc, verify
from pbh.mapcalc import _roots, p_bienergy_box
from pbh.scenarios import SCHEMA_VERSION, Scenario, builtin, run, sweep

# charts given by metric expressions, whose diagonal entries each appear once
# in their tables: the target's are read by the metric, the Christoffel
# symbols and the curvature of one point
CUSTOM_CHARTS = {
    "schema": SCHEMA_VERSION, "name": "custom_charts", "kind": "map",
    "source": {"dim": 2, "metric": [["1 + x2^2", "0.1*x1"], ["0.1*x1", "exp(x1)"]]},
    "target": {"dim": 2, "metric": [["exp(x2)", "0"], ["0", "1 + x1^2"]]},
    "components": ["x1 + 0.3*x2^2", "x2 + 0.2*x1*x2"], "params": {"p": 3.0},
    "samples": {"box": [[0.1, 0.6], [0.2, 0.7]], "points_per_axis": 3},
    "checks": ["p_harmonic", "p_biharmonic", "stress_divergence", "trace_identity",
               "energy_quadrature"]}

# each builds its maps afresh (the criteria with the verify caches emptied
# before and after), so a run marks its own trees
WORKLOADS = {
    "custom_charts": lambda: run(Scenario.from_dict(CUSTOM_CHARTS)),
    "cylinder": lambda: [run(builtin("proper_pbh_cylinder"), overrides={"p": p})
                         for p in (2.0, 3.0, 4.0)],
    "hypersphere": lambda: run(builtin("small_hypersphere(2, 0.8)"), overrides={"p": 3.0}),
    "inversion": lambda: run(builtin("inversion(3)"), overrides={"l": 2.0, "p": 3.0}),
    "sweep": lambda: sweep(builtin("small_hypersphere(2, 0.8)"), "p", 2.0, 6.0, 41),
    **{fn.__name__: fn for fn in verify.CRITERIA},
}


def _inner_nodes(roots):
    seen = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen[node] = None
            stack.extend(node._children())
    return [n for n in seen if isinstance(n, expr._INNER)]


@pytest.mark.parametrize("name", WORKLOADS)
def test_marking_computes_no_node_twice(name, monkeypatch, operation_counts):
    """A node counts each time it is computed (its class applies its
    `OPERATION`); with every mark cleared every inner node memoizes, and the
    marked run must compute exactly as many."""
    monkeypatch.setattr(mapcalc, "_CHUNK", 64)
    counts = operation_counts
    mark = mapcalc.mark_reads

    def marking(roots):
        mark(roots)
        counts["single_use"] += sum(n._once is True for n in _inner_nodes(roots))

    def fresh_run():
        for cache in VERIFY_CACHES:
            cache.cache_clear()
        try:
            WORKLOADS[name]()
        finally:
            for cache in VERIFY_CACHES:
                cache.cache_clear()

    monkeypatch.setattr(mapcalc, "mark_reads", marking)
    fresh_run()
    marked = counts["nodes"]
    assert counts["single_use"] > 0  # the marking did mark nodes single-use

    def clearing(roots):
        for node in _inner_nodes(roots):
            node._once = None
        counts["cleared"] += 1

    counts.reset()
    monkeypatch.setattr(mapcalc, "mark_reads", clearing)
    fresh_run()
    assert counts["cleared"] > 0
    assert marked == counts["nodes"]


def _forests(phi):
    """The two forests a map marks: the trees a MapPoint evaluates on its
    source memo, and those it evaluates on its target memo."""
    src, tgt = phi.source, phi.target
    return (_roots([phi.components, phi._first(), phi._second(), src.components,
                    src._first_derivs(), src._second_derivs()]),
            _roots([tgt.components, tgt._first_derivs(), tgt._second_derivs()]))


def _single_use(phi):
    roots = [e for forest in _forests(phi) for e in forest]
    return {n for n in _inner_nodes(roots) if n._once}, roots


def _marks(phi):
    """The mark of every inner node of the map's tables."""
    return {n: n._once for n in _inner_nodes(_single_use(phi)[1])}


def test_marking_is_idempotent():
    sc = builtin("inversion(3)")
    overrides = {"l": 2.0, "p": 3.0}
    phi = sc.build({**sc.params, **overrides})
    first, roots = _single_use(phi)
    assert first
    run(sc, overrides=overrides)
    assert _single_use(phi)[0] == first
    for forest in _forests(phi):
        expr.mark_reads(forest)
    assert _single_use(phi)[0] == first
    # a second map over the same trees, differentiated in the first map's
    # derivative table, marks the same forests again
    again = mapcalc.SmoothMap(phi.source, phi.target, phi.components, phi.params,
                              table=phi.table)
    assert _single_use(again) == (first, roots)
    expr.mark_reads(roots)
    assert _single_use(phi)[0] == first


@pytest.mark.parametrize("name", ["inversion(3)", "proper_pbh_cylinder",
                                  "small_hypersphere(2, 0.8)"])
def test_marks_are_set_when_the_map_is_built(name):
    """A map's marks are final once it is constructed: a run and a 41-step
    sweep over its with_params copies mark nothing more."""
    sc = builtin(name)
    obj = sc._parsed()
    phi = getattr(obj, "map", obj)
    built = _marks(phi)
    assert any(built.values())
    run(sc)
    assert _marks(phi) == built
    sweep(sc, "p", 2.0, 6.0, 41)
    assert _marks(phi) == built


def _quadrature():
    sc = builtin("inversion(3)")
    return p_bienergy_box(sc.build({**sc.params, "l": 2.0, "p": 3.0}), sc.box, 3.0)


@pytest.mark.parametrize("call", [
    lambda: run(builtin("inversion(3)"), overrides={"l": 2.0, "p": 3.0}),
    lambda: run(Scenario.from_dict(cusp_immersion_dict(checks=["theorem_2_1"]))),
    _quadrature,
], ids=["run", "run_with_failures", "p_bienergy_box"])
def test_points_are_freed_without_the_cyclic_gc(call, monkeypatch):
    refs = []
    init = mapcalc.MapPoint.__init__

    def recording(self, *args):
        init(self, *args)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(mapcalc.MapPoint, "__init__", recording)
    gc.collect()
    gc.disable()
    try:
        call()
        alive = sum(r() is not None for r in refs)
    finally:
        gc.enable()
    assert refs and alive == 0


# each call of the cyclic-garbage guard: the built-ins, a short sweep, the criteria
GC_GUARDED = {
    **{name: (lambda name=name: run(builtin(name)))
       for name in ("inversion(3)", "proper_pbh_cylinder", "small_hypersphere(2, 0.8)")},
    "sweep": lambda: sweep(builtin("small_hypersphere(2, 0.8)"), "p", 2.0, 6.0, 3),
    **{fn.__name__: fn for fn in verify.CRITERIA},
}


def test_no_pbh_object_waits_for_the_cyclic_gc():
    """Every object a run, a sweep or a criterion leaves behind is freed by
    reference counting: with the collector disabled, a collection then finds
    no object whose type comes from pbh among the unreachable ones."""
    left = {}
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for name, call in GC_GUARDED.items():
            call()
            gc.collect()
            pbh_types = {type(o).__qualname__ for o in gc.garbage
                         if type(o).__module__.startswith("pbh.")}
            if pbh_types:
                left[name] = sorted(pbh_types)
            gc.garbage.clear()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == {}
