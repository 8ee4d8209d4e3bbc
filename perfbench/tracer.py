"""Spans and counters for the traced benchmark run, installed from outside pbh.

The tracer wraps the public functions and methods of each pbh layer where
they are looked up (every module namespace that holds the function, class
attributes for methods, `verify.CRITERIA` for the criteria) and restores the
originals on `uninstall`. Spans record (name, start, end, parent) and stay in
memory until the run ends. Jet arithmetic is only counted: one span per
microsecond-scale jet operation would cost as much as the operation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from functools import cached_property

LAYERS = ("expr", "linalg", "geometry", "mapcalc", "stress", "submanifold",
          "scenarios", "verify")

# methods whose time belongs to a layer; module-level public functions are
# found by introspection
METHODS = {
    "expr": {"Expression": ("evaluate", "diff")},
    "geometry": {"ChartMetric": ("metric_at", "inverse_metric_at", "dmetric_at",
                                 "d2metric_at", "christoffel_at",
                                 "christoffel_derivative_at", "curvature_at")},
    "mapcalc": {"MapPoint": ("h_inner", "push", "norm_power", "grad_scalar", "p_tension",
                             "pullback_derivative", "trace_pullback_gradient",
                             "p_bitension")},
    "submanifold": {"Immersion": ("__init__", "isometry_defect"),
                    "ImmersionPoint": ("normal_projection", "shape_matrix", "nabla_perp",
                                       "trace_B_shape_H", "grad_H_norm2",
                                       "general_residuals", "hypersurface_residuals")},
    "scenarios": {"Scenario": ("sample_points", "build"),
                  "ResidualReport": ("to_csv", "to_json", "summary"),
                  "SweepResult": ("to_csv", "to_json")},
}

# module-level functions left out: the expression smart constructors run once
# per node built and each call costs less than a span would
SKIP_FUNCTIONS = {"expr": {"const", "coord", "param", "add", "sub", "mul", "div", "neg",
                           "sqrt_", "exp_", "log_", "sin_", "cos_", "pow_", "abspow_"}}


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self):
        self.names = []          # span name table
        self._name_ids = {}
        self.spans = []          # [name_id, start, end, parent, nested_same_name]
        self.counts = Counter()
        self.points = set()      # (base point, parameters) of every MapPoint built
        self._stack = []
        self._active = Counter()
        self._undo = []

    # -- recording -------------------------------------------------------- #
    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, fn, name):
        nid = self._name_id(name)
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, active[nid] > 0]
            spans.append(rec)
            stack.append(idx)
            active[nid] += 1
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                active[nid] -= 1
                stack.pop()

        return wrapper

    # -- patching --------------------------------------------------------- #
    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import pbh
        from pbh import jets, mapcalc, submanifold, verify

        modules = {layer: importlib.import_module(f"pbh.{layer}") for layer in LAYERS}
        namespaces = [pbh] + [m for m in vars(pbh).values() if inspect.ismodule(m)]
        for layer, mod in modules.items():
            skip = SKIP_FUNCTIONS.get(layer, set())
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or name in skip or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn)):
                    continue
                wrapped = self.span(fn, f"{layer}.{name}")
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._set(ns, key, wrapped)
            for cls_name, attrs in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for attr in attrs:
                    name = f"{layer}.{cls_name}.{attr}"
                    self._set(cls, attr, self.span(cls.__dict__[attr], name))
                for attr, prop in list(vars(cls).items()):
                    if isinstance(prop, cached_property):
                        self._undo.append((prop, "func", prop.func))
                        prop.func = self.span(prop.func, f"{layer}.{cls_name}.{attr}")
        # run_all and the benchmark read the criteria from this tuple
        self._set(verify, "CRITERIA", tuple(getattr(verify, fn.__name__)
                                            for fn in verify.CRITERIA))
        self._install_counters(jets, mapcalc, submanifold)

    def _install_counters(self, jets, mapcalc, submanifold):
        counts, points = self.counts, self.points
        J = jets.JetScalar
        mul, rmul = J.__dict__["__mul__"], J.__dict__["__rmul__"]
        add, radd = J.__dict__["__add__"], J.__dict__["__radd__"]
        sub, rsub = J.__dict__["__sub__"], J.__dict__["__rsub__"]
        mul_keys = {k: f"jets.mul_o{k}" for k in range(jets.MAX_ORDER + 1)}

        def c_mul(a, b):
            if type(b) is J:
                counts[mul_keys[a.space.order]] += 1
            else:
                counts["jets.scale"] += 1
            return mul(a, b)

        def c_rmul(a, b):
            counts["jets.scale"] += 1
            return rmul(a, b)

        def counted(fn, key):
            def op(a, b):
                counts[key] += 1
                return fn(a, b)
            return op

        self._set(J, "__mul__", c_mul)
        self._set(J, "__rmul__", c_rmul)
        for attr, fn in (("__add__", add), ("__radd__", radd), ("__sub__", sub),
                         ("__rsub__", rsub)):
            self._set(J, attr, counted(fn, "jets.add"))
        self._set(jets, "_compose", counted(jets._compose, "jets.compose"))

        mp_init = mapcalc.MapPoint.__dict__["__init__"]
        point_value = jets.point_value

        def c_mp_init(mp, smooth_map, X):
            counts["mapcalc.points_lifted"] += 1
            points.add((point_value(X), tuple(sorted(smooth_map.params.items()))))
            mp_init(mp, smooth_map, X)

        ip_init = submanifold.ImmersionPoint.__dict__["__init__"]

        def c_ip_init(ip, immersion, X):
            counts["submanifold.points_lifted"] += 1
            ip_init(ip, immersion, X)

        self._set(mapcalc.MapPoint, "__init__", c_mp_init)
        self._set(submanifold.ImmersionPoint, "__init__", c_ip_init)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- summaries -------------------------------------------------------- #
    def summarize(self):
        """Per-name and per-layer aggregates of all spans, and the share of the
        time in spans named `bench.*` (the benchmark's parts) spent in child spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        by_name = {}
        layer_self = Counter()
        entries = Counter()
        for idx, (nid, start, end, parent, nested) in enumerate(spans):
            name = self.names[nid]
            layer = name.split(".", 1)[0]
            dur = end - start
            agg = by_name.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            if not nested:
                agg[1] += dur
            agg[2] += dur - child_time[idx]
            layer_self[layer] += dur - child_time[idx]
            parent_layer = (self.names[spans[parent][0]].split(".", 1)[0]
                            if parent >= 0 else None)
            if parent_layer != layer:
                entries[layer] += 1
        parts = [idx for idx, rec in enumerate(spans) if self.names[rec[0]].startswith("bench.")]
        part_time = sum(spans[i][2] - spans[i][1] for i in parts)
        return {
            "by_name": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                        for k, v in sorted(by_name.items())},
            "layer_self_s": dict(layer_self),
            "layer_entries": dict(entries),
            "coverage": sum(child_time[i] for i in parts) / part_time if part_time else 0.0,
        }

    def dump(self):
        """Spans as plain lists, times in microseconds from the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        return {"names": self.names,
                "fields": ["name", "start_us", "end_us", "parent"],
                "spans": [[r[0], round((r[1] - base) * 1e6, 3), round((r[2] - base) * 1e6, 3),
                           r[3]] for r in self.spans]}
