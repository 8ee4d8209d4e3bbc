"""Scenario files, built-in examples, the check runner, and report generation.

A scenario bundles a map or immersion (as expression text plus chart specs),
parameter bindings, a sampling plan, and a list of named checks, keys of
`CHECKS`, whose reductions say what their rows report. Its texts are parsed
when it is constructed, whichever way it is made, and its map or immersion
is assembled from them at the first build. Reports are deterministic: same
scenario and overrides give byte-identical CSV/JSON.

`run` evaluates the sample points in chunks of up to 512. A chunk gets one
float context per point and one jet context for all its points, a batched
point (see :mod:`pbh.jets`) lifted to the highest jet order its checks need
(a higher order is always valid); every check reads these
contexts. All checks run on the batch under np.errstate(all="raise",
under="ignore"); one function, `mapcalc._per_point`, splits each check's
fields per point, and each point's rows are reduced from floats alone, in
point-major order. If anything in a chunk raises (a point failure, a
floating-point exception, a `pbh.errors.BatchSplit` where points need
different branches), each half of the chunk is evaluated the same way in
turn, down to single points. One function evaluates a chunk of any size
(`_run`, `mapcalc.replay_chunks`); at a chunk of one point, on unbatched
contexts, a point failure of a check becomes that check's row
(`_ChunkContexts.results`; a point outside the source chart's domain fails
every check). So the NaN rows, their notes and the exit under `--strict` are
those of a per-point run. Float readers (map value, metric norms, signed
normal residual, proper p) stay on the per-point float contexts, since jet
and float evaluation of one expression can differ in the last bit.

`run` is `_run` of one step; `sweep` hands all its steps to one `_run`
unless a component, metric or exclude expression reads the swept parameter
(p, unless a metric reads it), and otherwise runs each step on its own. In
one `_run` the sample points are drawn once, at the first step's parameters,
and each chunk's contexts are built once and read by every step in turn;
between steps they keep only their cached properties, with every
p-independent term, and the rows of p-free checks, which a check that raised
does not leave. A chunk is attempted once for all the steps: if its batched
evaluation raises at any step, its halves give every step's rows. Its
contexts are dropped before the next chunk, so no more than one chunk's are
alive at a time.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, PbhError, RankDeficiencyError, SchemaError,
                     SingularityError, SingularMatrixError)
from .expr import parse
from .geometry import ChartMetric, space_form_chart
from .jets import lift_point, value
from .mapcalc import (SmoothMap, _per_point, _stack, p_bienergy_box, p_energy_box,
                      replay_chunks)
from .stress import _scaled_divergence_gap, stress_divergence_sides, trace_identity_at
from .submanifold import Immersion

SCHEMA_VERSION = "pbh/1"

DEFAULT_TOLERANCE = 1e-7
QUADRATURE_ORDER = 8


def _require(cond, field_name, message):
    if not cond:
        raise SchemaError(field_name, message)


def _is_int(v) -> bool:
    """JSON integer; booleans are not numbers here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """A number that converts to a finite float (a JSON integer may not)."""
    return _is_number(v) and abs(v) <= sys.float_info.max


def _require_tolerance(tol):
    _require(_is_finite(tol) and tol > 0, "tolerance",
             f"must be a positive finite number, got {tol!r}")


def _require_finite(v, field_name):
    _require(_is_finite(v), field_name, f"must be a finite number, got {v!r}")


def _sweep_range(lo, hi, steps, prefix=""):
    """(from, to, steps) of a sweep range, checked; `prefix` leads the field names."""
    _require(_is_int(steps) and steps >= 2, f"{prefix}steps", "must be an integer >= 2")
    _require_finite(lo, f"{prefix}from")
    _require_finite(hi, f"{prefix}to")
    return float(lo), float(hi), steps


def _require_p(p, checks):
    """The map checks read the p-tension, defined for p >= 2 only (`mapcalc.check_p`)."""
    map_checks = sorted(c for c in checks if CHECKS[c].kind == "map")
    if map_checks:
        _require(p >= 2.0, "p", f"must be >= 2 for the checks {map_checks}, got {p!r}")


def _parse_field(text, field_name, dim, declared):
    """The tree of one expression field of a scenario; a SchemaError unless a string that parses."""
    _require(isinstance(text, str), field_name, "must be an expression string")
    try:
        return parse(text, dim, declared)
    except PbhError as exc:
        raise SchemaError(field_name, str(exc)) from exc


def _chart_from_spec(chart, params: dict) -> ChartMetric:
    """The chart of a `_chart_spec` triple, bound to params."""
    dim, c, comps = chart
    if comps is None:
        return space_form_chart(c, dim).with_params(**params)
    return ChartMetric(dim, comps, params=params)


def _chart_spec(spec: dict, field_name: str, declared: list):
    """(dim, curvature, metric expressions) of a valid chart spec, whose dim
    `Scenario` has checked: a space form has no metric expressions (None), a
    metric no curvature (None)."""
    dim = spec["dim"]
    if "space_form" in spec:
        _require_finite(spec["space_form"], f"{field_name}.space_form")
        return dim, float(spec["space_form"]), None
    _require("metric" in spec, field_name, "needs either 'space_form' or 'metric'")
    rows = spec["metric"]
    _require(isinstance(rows, list) and len(rows) == dim
             and all(isinstance(r, list) and len(r) == dim for r in rows),
             f"{field_name}.metric", f"must be a {dim}x{dim} matrix of expression strings")
    comps = [[_parse_field(text, f"{field_name}.metric[{i}][{j}]", dim, declared)
              for j, text in enumerate(row)] for i, row in enumerate(rows)]
    return dim, None, comps


@dataclass
class Scenario:
    """Validated scenario: charts, components, params, sampling plan, checks.
    However it is made, it checks every field and parses its texts at
    construction (`from_dict` only reshapes JSON); `_parsed` assembles its map
    or immersion from them at the first build."""

    name: str
    kind: str
    source_spec: dict
    target_spec: dict
    component_text: list
    params: dict
    sweeps: dict
    box: list
    points_per_axis: int
    random_points: int
    seed: int
    exclude_text: list
    checks: list
    tolerance: float

    def __post_init__(self):
        # every way of making a scenario checks its fields here, before it parses a text
        _require(isinstance(self.name, str) and self.name, "name", "must be a non-empty string")
        _require(isinstance(self.params, dict) and all(isinstance(k, str) for k in self.params)
                 and isinstance(self.sweeps, dict) and set(self.sweeps) <= set(self.params),
                 "params", "must map names to values, and sweep ranges over declared names")
        params, sweeps = {}, {}
        for key, val in self.params.items():
            if key in self.sweeps:
                rng = self.sweeps[key]
                _require(isinstance(rng, (tuple, list)) and len(rng) == 3, f"params.{key}",
                         "must be a (from, to, steps) sweep range")
                sweeps[key] = _sweep_range(*rng, f"params.{key}.")
                _require(val == sweeps[key][0], f"params.{key}",
                         "must equal the from value of its sweep range")
            _require(_is_number(val), f"params.{key}", "must be a number or a sweep range")
            _require_finite(val, f"params.{key}")
            params[key] = float(val)
        self.params, self.sweeps = params, sweeps
        _require(self.kind in ("map", "immersion"), "kind", "must be 'map' or 'immersion'")
        for side, spec in (("source", self.source_spec), ("target", self.target_spec)):
            _require(isinstance(spec, dict) and _is_int(spec.get("dim")) and spec["dim"] >= 1,
                     f"{side}.dim", "must be a positive integer")
        m, n, declared = self.source_spec["dim"], self.target_spec["dim"], sorted(self.params)
        if self.kind == "immersion":
            _require(n > m, "target.dim", "must exceed source.dim for an immersion")
            _require("space_form" in self.target_spec, "target.space_form",
                     "immersion checks need a space-form ambient")
        _require(isinstance(self.component_text, list) and len(self.component_text) == n,
                 "components", f"must list {n} expression strings")
        _require(isinstance(self.box, list) and len(self.box) == m
                 and all(isinstance(b, list) and len(b) == 2 for b in self.box),
                 "samples.box", f"must list {m} [lo, hi] pairs")
        _require(all(_is_finite(v) for b in self.box for v in b),
                 "samples.box", "bounds must be finite numbers")
        self.box = [[float(lo), float(hi)] for lo, hi in self.box]
        _require(all(lo < hi for lo, hi in self.box), "samples.box", "needs lo < hi per axis")
        _require(all(math.isfinite(hi - lo) for lo, hi in self.box), "samples.box",
                 "needs a finite width hi - lo per axis")
        for key in ("points_per_axis", "random_points"):
            count = getattr(self, key)
            _require(_is_int(count) and count >= 0, f"samples.{key}",
                     "must be a non-negative integer")
        _require(self.points_per_axis > 0 or self.random_points > 0, "samples",
                 "needs points_per_axis or random_points")
        _require(self.points_per_axis ** m <= 10 ** 6, "samples.points_per_axis",
                 f"makes a grid of more than 10^6 points in {m} dimensions")
        _require(self.random_points <= 10 ** 6, "samples.random_points", "must be at most 10^6")
        _require(_is_int(self.seed) and self.seed >= 0, "samples.seed",
                 "must be a non-negative integer")
        _require(isinstance(self.exclude_text, list), "samples.exclude", "must be a list")
        _require(isinstance(self.checks, list) and self.checks, "checks",
                 "must be a non-empty list")
        self.component_text, self.exclude_text, self.checks = (
            list(self.component_text), list(self.exclude_text), list(self.checks))
        for c in self.checks:
            _require(isinstance(c, str) and c in CHECKS, "checks", f"unknown check {c!r}")
            _require(self.checks.count(c) == 1, "checks", f"lists {c!r} more than once")
            _require(CHECKS[c].kind in ("map", self.kind), "checks",
                     f"{c!r} applies to immersions only")
        _require_tolerance(self.tolerance)
        self.tolerance = float(self.tolerance)
        for p in self.sweeps["p"][:2] if "p" in self.sweeps else [self.params.get("p", 2.0)]:
            _require_p(p, self.checks)
        # energy_quadrature holds every Gauss node of the box at once
        _require("energy_quadrature" not in self.checks or QUADRATURE_ORDER ** m <= 8 ** 6,
                 "checks", f"'energy_quadrature' takes at most 8^6 Gauss nodes (a source "
                 f"of dim <= 6); this one needs {QUADRATURE_ORDER}^{m}")
        self._components = [_parse_field(text, f"components[{k}]", m, declared)
                            for k, text in enumerate(self.component_text)]
        # None: an induced source metric
        self._charts = (_chart_spec(self.source_spec, "source", declared)
                        if self.kind == "map" or "metric" in self.source_spec else None,
                        _chart_spec(self.target_spec, "target", declared))
        self._exclude = [_parse_field(text, f"samples.exclude[{k}]", m, declared)
                         for k, text in enumerate(self.exclude_text)]
        # the parameters the component, metric and exclude trees read
        metrics = [e for chart in self._charts if chart and chart[2] for row in chart[2]
                   for e in row]
        self._params_read = set().union(
            *(e.params_used() for e in [*self._components, *self._exclude, *metrics]))

    @staticmethod
    def from_dict(data: dict) -> "Scenario":
        """The scenario of a JSON document. This only reshapes the JSON into the
        constructor's fields, which checks their values."""
        _require(isinstance(data, dict), "(root)", "scenario must be a JSON object")
        _require(data.get("schema") == SCHEMA_VERSION, "schema",
                 f"must be {SCHEMA_VERSION!r}")
        raw_params = data.get("params", {})
        _require(isinstance(raw_params, dict), "params", "must be an object")
        params, sweeps = {}, {}
        for key, val in raw_params.items():
            if isinstance(val, dict):  # a sweep range; the parameter starts at its `from`
                for f in ("from", "to", "steps"):
                    _require(f in val, f"params.{key}.{f}", "is required in a sweep range")
                sweeps[key] = (val["from"], val["to"], val["steps"])
                val = val["from"]
            params[key] = val

        _require("source" in data, "source", "is required")
        _require("target" in data, "target", "is required")
        samples = data.get("samples", {})
        _require(isinstance(samples, dict), "samples", "must be an object")
        return Scenario(
            name=data.get("name"), kind=data.get("kind"), source_spec=data["source"],
            target_spec=data["target"], component_text=data.get("components"),
            params=params, sweeps=sweeps,
            box=samples.get("box"), points_per_axis=samples.get("points_per_axis", 0),
            random_points=samples.get("random_points", 0), seed=samples.get("seed", 0),
            exclude_text=samples.get("exclude", []), checks=data.get("checks"),
            tolerance=data.get("tolerance", DEFAULT_TOLERANCE))

    def to_dict(self) -> dict:
        ranges = {k: {"from": lo, "to": hi, "steps": steps}
                  for k, (lo, hi, steps) in self.sweeps.items()}
        samples = {"box": self.box, "seed": self.seed}
        if self.points_per_axis:
            samples["points_per_axis"] = self.points_per_axis
        if self.random_points:
            samples["random_points"] = self.random_points
        if self.exclude_text:
            samples["exclude"] = self.exclude_text
        return {
            "schema": SCHEMA_VERSION, "name": self.name, "kind": self.kind,
            "source": self.source_spec, "target": self.target_spec,
            "components": self.component_text, "params": {**self.params, **ranges},
            "samples": samples, "checks": self.checks, "tolerance": self.tolerance,
        }

    # -- sampling --------------------------------------------------------- #
    def sample_points(self, params=None) -> list:
        """Deterministic sample points: interior grid, then seeded uniform draws."""
        params = {**self.params, **(params or {})}

        def excluded(x):
            return any(e.evaluate(x, params) < 0.0 for e in self._exclude)

        points = []
        if self.points_per_axis:
            axes = [np.linspace(lo, hi, self.points_per_axis + 2)[1:-1]
                    for lo, hi in self.box]
            grids = np.meshgrid(*axes, indexing="ij")
            for idx in range(grids[0].size):
                x = tuple(float(g.flat[idx]) for g in grids)
                if not excluded(x):
                    points.append(x)
        if self.random_points:
            rng = np.random.default_rng(self.seed)
            count, guard = 0, 0
            while count < self.random_points and guard < 1000 * self.random_points:
                guard += 1
                x = tuple(float(rng.uniform(lo, hi)) for lo, hi in self.box)
                if not excluded(x):
                    points.append(x)
                    count += 1
            if count < self.random_points:
                raise SchemaError("samples", "exclusions reject nearly all of the box")
        return points

    # -- construction ------------------------------------------------------ #
    def _parsed(self):
        """The map or immersion, assembled once, at the first build, from the
        trees parsed at construction; later builds only rebind parameters."""
        obj = getattr(self, "_base", None)
        if obj is None:
            params = dict(self.params)
            source, target = self._charts
            target = _chart_from_spec(target, params)
            if self.kind == "map":
                obj = SmoothMap(_chart_from_spec(source, params), target, self._components,
                                params=params, name=self.name)
            else:  # the immersion builds its source chart from the metric trees
                obj = Immersion(self.source_spec["dim"], target, self._components,
                                params=params, name=self.name,
                                source_metric=None if source is None else source[2])
            self._base = obj
        return obj

    def build(self, overrides=None):
        """Instantiate the scenario's map or immersion with bound parameters."""
        params = {**self.params, **(overrides or {})}
        return self._parsed().with_params(**params)


# ---------------------------------------------------------------------- #
# reports
# ---------------------------------------------------------------------- #

@dataclass
class CheckRow:
    scenario: str
    check: str
    p: float
    params: tuple  # ((name, value), ...) sorted by name, p excluded
    point: tuple
    residual: float
    passed: bool
    signed: float | None = None
    note: str = ""


@dataclass
class ResidualReport:
    scenario: str
    tolerance: float
    rows: list
    extras: dict

    @property
    def verdict(self) -> bool:
        """Pass only when some row was checked and every row passed."""
        return bool(self.rows) and all(r.passed for r in self.rows)

    def summary(self) -> dict:
        """The verdict, and per check its pass flag and largest non-NaN residual (NaN if none)."""
        checks = {}
        for r in self.rows:
            entry = checks.setdefault(r.check, {"max_residual": math.nan, "pass": True})
            if not math.isnan(r.residual):
                worst = entry["max_residual"]
                entry["max_residual"] = max(0.0 if math.isnan(worst) else worst, r.residual)
            entry["pass"] = entry["pass"] and r.passed
        return {"verdict": "pass" if self.verdict else "fail", "checks": checks,
                **({"extras": self.extras} if self.extras else {})}

    def _param_names(self):
        names = set()
        for r in self.rows:
            names |= {k for k, _ in r.params}
        return sorted(names)

    def to_csv(self) -> str:
        m = max((len(r.point) for r in self.rows), default=0)
        pnames = self._param_names()
        header = (["scenario", "check", "p"] + [f"param:{n}" for n in pnames]
                  + [f"x{i + 1}" for i in range(m)] + ["residual_norm", "pass"])
        lines = [",".join(header)]
        for r in self.rows:
            pmap = dict(r.params)
            cells = [r.scenario, r.check, repr(r.p)]
            cells += [repr(pmap[n]) if n in pmap else "" for n in pnames]
            cells += [repr(c) for c in r.point]
            cells += ["" for _ in range(m - len(r.point))]
            cells += [repr(r.residual), "true" if r.passed else "false"]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        summary = self.summary()
        for entry in summary["checks"].values():
            entry["max_residual"] = _json_float(entry["max_residual"])
        doc = {
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario,
            "tolerance": self.tolerance,
            "summary": summary,
            "rows": [
                {"check": r.check, "p": r.p, "params": dict(r.params),
                 "point": list(r.point), "residual": _json_float(r.residual),
                 "pass": r.passed,
                 **({"signed": r.signed} if r.signed is not None else {}),
                 **({"note": r.note} if r.note else {})}
                for r in self.rows
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _json_float(v: float):
    return None if math.isnan(v) else v


# ---------------------------------------------------------------------- #
# check evaluation
# ---------------------------------------------------------------------- #

def _norm(metric, v) -> float:
    """|v| in a float context's metric (`h` or `g`), whose entries are floats."""
    n = len(v)
    return math.sqrt(max(sum(metric[a][b] * v[a] * v[b]
                             for a in range(n) for b in range(n)), 0.0))


def _p_harmonic(jet, flts, p):
    """|tau_p| at each point."""
    # at p = 2 the p-tension is the tension, a float reader
    vecs = ([[value(c) for c in f.p_tension(p)] for f in flts] if p == 2.0
            else _per_point(jet.p_tension(p), len(flts)))
    return [(_norm(f.h, v), None, {}) for f, v in zip(flts, vecs)]


def _p_biharmonic(jet, flts, p):
    """|tau_{2,p}| at each point."""
    vecs = _per_point(jet.p_bitension(p), len(flts))
    return [(_norm(f.h, v), None, {}) for f, v in zip(flts, vecs)]


def _stress_divergence(jet, flts, p):
    """The gap in div S_{2,p}(X) = -h(tau_{2,p}, dphi(X)), scaled by max(1, side magnitude)."""
    return [(_scaled_divergence_gap(lhs, rhs), None, {})
            for lhs, rhs in _per_point(stress_divergence_sides(jet, p), len(flts))]


def _trace_identity(jet, flts, p):
    """The gap between the trace of S_{2,p} and each of its two closed forms."""
    return [(max(abs(t - a), abs(t - d)), None, {})
            for t, _, a, d in _per_point(trace_identity_at(jet, p), len(flts))]


def _general_system(jet, flts, p):
    """The general system's (normal, tangent) residuals per point, and the larger norm of each."""
    rows = _per_point(jet.general_residuals(p), len(flts))
    return rows, [max(_norm(f.h, n), _norm(f.g, t)) for f, (n, t) in zip(flts, rows)]


def _theorem_2_1(jet, flts, p):
    """The residual of the general submanifold system, signed by the normal part along H/|H|."""
    rows, res = _general_system(jet, flts, p)
    out = []
    for f, (n, _t), r in zip(flts, rows, res):
        h2, signed = value(f.mean_curvature_norm2), None
        if h2 > 1e-18:
            signed = value(f.h_inner(n, [value(c) for c in f.mean_curvature])) / math.sqrt(h2)
        out.append((r, signed, {}))
    return out


def _theorem_2_3(jet, flts, p):
    """The residual of the CMC hypersurface system, signed by its normal part."""
    rows = _per_point(jet.hypersurface_residuals(p), len(flts))
    return [(max(abs(s), _norm(f.g, t)), s, {}) for f, (s, t) in zip(flts, rows)]


def _cmc_proper_p(jet, flts, p):
    """The proper p* of a CMC hypersurface, and the general system's residual at p*."""
    solved = [f.proper_p for f in flts]
    # one p per point: an array of shape (P,) at a batched point
    p_star = solved[0].p_star if len(flts) == 1 else np.array([r.p_star for r in solved])
    return [(r, None, {"p_star": s.p_star, "admissible": s.admissible})
            for s, r in zip(solved, _general_system(jet, flts, p_star)[1])]


def _energy_quadrature(obj, box, p):
    """E_{2,p} over the sample box, zero exactly for a p-harmonic map; E_p, E_{2,p} as extras."""
    ep = p_energy_box(obj, box, p, order=QUADRATURE_ORDER)
    e2p = p_bienergy_box(obj, box, p, order=QUADRATURE_ORDER)
    return e2p, {"E_p": ep, "E_2p": e2p}


@dataclass(frozen=True)
class _Check:
    """An entry of `CHECKS`. A point check's `reduce(jet, flts, p)` gives
    [(residual, signed, extras)] per point; a box check's `reduce(map, box, p)`
    gives (residual, extras)."""

    kind: str  # the scenarios it applies to: "map" (every scenario) or "immersion"
    order: int | None  # the jet order its readers need; None for a box check
    reduce: Callable
    reads_p: bool  # False: a sweep over p reuses its rows (cmc_proper_p reads p*)


# every check a scenario may list, in the order of the README
CHECKS = {
    "p_harmonic": _Check("map", 1, _p_harmonic, True),
    "p_biharmonic": _Check("map", 3, _p_biharmonic, True),
    "theorem_2_1": _Check("immersion", 2, _theorem_2_1, True),
    "theorem_2_3": _Check("immersion", 2, _theorem_2_3, True),
    "cmc_proper_p": _Check("immersion", 2, _cmc_proper_p, False),
    "stress_divergence": _Check("map", 3, _stress_divergence, True),
    "trace_identity": _Check("map", 2, _trace_identity, True),
    "energy_quadrature": _Check("map", None, _energy_quadrature, True),
}


def _check_results(check, jet, flts, p, tol) -> list:
    """[(residual, passed, signed, extras)] of a point check, one per float
    context in `flts`, read on `jet`, the same points as one jet context; each
    row is reduced from floats alone, so it does not depend on the batch."""
    return [(r, r < tol, s, x) for r, s, x in CHECKS[check].reduce(jet, flts, p)]


# failures that turn the row of one sample point into NaN (SingularityError under strict)
POINT_FAILURES = (SingularityError, DomainError, ZeroDivisionError, SingularMatrixError,
                  RankDeficiencyError, OverflowError)


def _point_failure(exc, strict, point=None):
    if strict:
        if isinstance(exc, SingularityError):
            raise exc
        raise SingularityError(str(exc), point=point) from exc


def run(scenario: Scenario, overrides=None, tolerance=None, strict=False) -> ResidualReport:
    """Execute every requested check at every sample point."""
    return _run(scenario, [overrides], tolerance, strict)[0]


def _run_params(scenario, overrides, tolerance):
    """(parameters, tolerance) of a run, after checking its overrides, its
    tolerance and p; nothing is built before these input errors are raised."""
    overrides = dict(overrides or {})
    unknown = set(overrides) - set(scenario.params)
    if unknown:
        raise SchemaError("params", f"override of undeclared parameters {sorted(unknown)}")
    for k, v in overrides.items():
        _require_finite(v, f"params.{k}")
    params = {**scenario.params, **overrides}
    if tolerance is not None:
        _require_tolerance(tolerance)
    _require_p(params.get("p", 2.0), scenario.checks)
    return params, tolerance if tolerance is not None else scenario.tolerance


class _ChunkContexts:
    """The evaluation contexts of one chunk of sample points: a float context
    per point and one jet context for the whole chunk, batched unless the
    chunk is one point, built on first use. `p_free` keeps the results of the
    checks that do not read p and have run on the chunk without raising.
    `outside` is the chunk's first point outside the source domain, or None."""

    def __init__(self, obj, chunk, order, strict=False):
        self.obj, self.chunk, self.order, self.strict = obj, chunk, order, strict
        self.outside = next((x for x in chunk if not obj.source.contains(x)), None)
        self.flts = [obj.at(x) for x in chunk]
        self._jet = None
        self.p_free = {}

    def results(self, check, p, tol):
        """`_check_results` of a check on the chunk; a p-free check's, once. At a
        chunk of one point, a point failure is the check's outcome instead (a
        SingularityError under strict), stored without its traceback: its
        frames would hold the exception, a cycle that keeps the point's
        contexts alive until the cyclic GC runs."""
        try:
            if self.outside is not None:
                raise SingularityError("sample point outside source domain", point=self.outside)
            out = self.p_free.get(check) or _check_results(check, self.jet(), self.flts, p, tol)
        except POINT_FAILURES as exc:
            if len(self.chunk) > 1:
                raise
            _point_failure(exc, self.strict, self.chunk[0])
            return [exc.with_traceback(None)]
        if not CHECKS[check].reads_p:
            self.p_free[check] = out
        return out

    def jet(self):
        if self._jet is None:
            X = _stack(self.chunk) if len(self.chunk) > 1 else self.chunk[0]
            self._jet = self.obj.at(lift_point(X, self.order))
        return self._jet

    def forget_scratch(self):
        for c in self.flts if self._jet is None else [*self.flts, self._jet]:
            c.forget_scratch()


def _run(scenario, steps, tolerance, strict) -> list:
    """The `run` report of each override dict in `steps`, all on the sample
    points drawn at the first step's parameters (see the module docstring).

    Every step is checked before anything is built. Each chunk of points gets
    one `_ChunkContexts`, which every step reads in turn, keeping only its
    cached properties and the rows of the checks that do not read p between
    steps (`forget_scratch`), and which is dropped before the next chunk. So
    the steps must not change what the contexts hold: no component, metric or
    exclude tree may read a parameter they vary, and they share one tolerance.
    """
    checked = [_run_params(scenario, overrides, tolerance) for overrides in steps]
    objs = [scenario.build(params) for params, _ in checked]
    points = scenario.sample_points(checked[0][0])
    checks = [c for c in scenario.checks if CHECKS[c].order is not None]
    order = max((CHECKS[c].order for c in checks), default=0)

    # per point, per step, one outcome per check: a result tuple or, at a chunk
    # of one point, the exception raised; each later step first forgets the
    # scratch of the one before
    def attempt(chunk):
        ctx = _ChunkContexts(objs[0], chunk, order, strict)
        per_step = []
        for k, (params, tol) in enumerate(checked):
            if k:
                ctx.forget_scratch()
            p = params.get("p", 2.0)
            per_step.append(list(zip(*[ctx.results(check, p, tol) for check in checks])))
        return list(zip(*per_step))

    outcomes_per_point = list(replay_chunks(tuple(points), attempt)) if checks else []
    reports = []
    for k, (obj, (params, tol)) in enumerate(zip(objs, checked)):
        p = params.get("p", 2.0)
        row_params = tuple(sorted((n, v) for n, v in params.items() if n != "p"))
        rows = []
        extras = {}
        for x, outcomes in zip(points, outcomes_per_point):
            for check, outcome in zip(checks, outcomes[k]):
                if isinstance(outcome, Exception):
                    rows.append(CheckRow(scenario.name, check, p, row_params, x,
                                         float("nan"), False, None, note=str(outcome)))
                    continue
                res, ok, signed, extra = outcome
                rows.append(CheckRow(scenario.name, check, p, row_params, x, res, ok, signed))
                for n, v in extra.items():
                    extras.setdefault(check, {})[n] = v
        if not points:  # a point check that saw no point fails; it is not a singularity
            rows += [CheckRow(scenario.name, check, p, row_params, (), float("nan"), False,
                              note="no sample point is left after the exclusions")
                     for check in checks]
        for check in (c for c in scenario.checks if CHECKS[c].order is None):  # one row each
            try:
                res, extras[check] = CHECKS[check].reduce(obj, scenario.box, p)
                rows.append(CheckRow(scenario.name, check, p, row_params, (), res, res < tol))
            except POINT_FAILURES as exc:
                _point_failure(exc, strict)
                rows.append(CheckRow(scenario.name, check, p, row_params,
                                     (), float("nan"), False, note=str(exc)))
        reports.append(ResidualReport(scenario.name, tol, rows, extras))
    return reports


@dataclass
class SweepResult:
    scenario: str
    param: str
    values: list
    reports: list
    crossings: list

    def to_csv(self) -> str:
        """Every step's rows under one header, which covers the columns of all of them."""
        rows = [r for rep in self.reports for r in rep.rows]
        return ResidualReport(self.scenario, None, rows, {}).to_csv()

    def to_json(self) -> str:
        doc = {
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario,
            "sweep": {"param": self.param, "values": self.values},
            "crossings": self.crossings,
            "reports": [json.loads(r.to_json()) for r in self.reports],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def sweep(scenario: Scenario, param: str, lo=None, hi=None, steps=None,
          overrides=None, tolerance=None, strict=False) -> SweepResult:
    """Run the scenario over a parameter grid; report sign crossings of signed residuals.

    Each step gives the report `run` would give. Unless a component, metric
    or exclude expression reads `param`, all the steps are one `_run`: the
    sample points are drawn once, and each chunk of them is lifted once and
    read by every step in turn, so its p-independent terms and its
    cmc_proper_p rows are computed once for the whole sweep, and a step
    evaluates only the checks that read p. Otherwise each step is a `run`.

    Crossing locations come from linear interpolation of the mean signed
    normal residual between adjacent grid values, and a grid value where
    that mean is zero is a crossing itself; no root polishing.
    """
    if param not in scenario.params:
        raise SchemaError("params", f"cannot sweep undeclared parameter {param!r}")
    if lo is None or hi is None or steps is None:
        if param not in scenario.sweeps:
            raise SchemaError("params", f"no sweep range given or declared for {param!r}")
        d_lo, d_hi, d_steps = scenario.sweeps[param]
        lo = d_lo if lo is None else lo
        hi = d_hi if hi is None else hi
        steps = d_steps if steps is None else steps
    lo, hi, steps = _sweep_range(lo, hi, steps)
    for v in (lo, hi) if param == "p" else ():  # every step's p lies between them
        _require_p(v, scenario.checks)
    values = [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]

    grid = [{**(overrides or {}), param: v} for v in values]
    if param in scenario._params_read:  # other points or contexts at each step
        reports = [_run(scenario, [step], tolerance, strict)[0] for step in grid]
    else:
        reports = _run(scenario, grid, tolerance, strict)
    means = {}
    for rep in reports:
        for check in scenario.checks:
            signed = [r.signed for r in rep.rows if r.check == check and r.signed is not None]
            means.setdefault(check, []).append(sum(signed) / len(signed) if signed else None)
    crossings = []
    for check, series in means.items():
        for k, (a, b) in enumerate(zip(series, series[1:] + [None])):
            if a == 0.0:
                crossings.append({"check": check, "param": param, "value": values[k]})
            elif a is not None and b is not None and a * b < 0.0:  # False for a NaN
                t = a / (a - b)
                crossings.append({"check": check, "param": param,
                                  "value": values[k] + t * (values[k + 1] - values[k])})
    return SweepResult(scenario.name, param, values, reports, crossings)


# ---------------------------------------------------------------------- #
# built-in scenarios
# ---------------------------------------------------------------------- #

_BUILTIN_RE = re.compile(r"^(\w+)\s*(?:\(([^)]*)\))?$")

BUILTIN_TEMPLATES = {
    "inversion(n)": "p-harmonic inversion family x -> x / |x|^l on punctured R^n",
    "proper_pbh_cylinder": "proper p-biharmonic cylinder-projection map on a conformal chart",
    "small_hypersphere(m, a)": "radius-a latitude m-sphere inside the unit (m+1)-sphere",
}


def builtin(name: str) -> Scenario:
    """Construct a built-in scenario; see BUILTIN_TEMPLATES for the names."""
    m = _BUILTIN_RE.match(name.strip())
    if not m:
        raise SchemaError("name", f"cannot parse builtin name {name!r}")
    base, args = m.group(1), m.group(2)
    arglist = [a.strip() for a in args.split(",")] if args else []

    def arg(k, kind):
        try:
            return kind(arglist[k])
        except ValueError:
            raise SchemaError("name", f"{base} argument {arglist[k]!r} is not "
                                      f"{'an integer' if kind is int else 'a number'}") from None

    if base == "inversion":
        if len(arglist) != 1:
            raise SchemaError("name", "inversion takes one argument: inversion(n)")
        return _inversion_scenario(arg(0, int))
    if base == "proper_pbh_cylinder":
        if arglist:
            raise SchemaError("name", "proper_pbh_cylinder takes no arguments")
        return _cylinder_scenario()
    if base == "small_hypersphere":
        if len(arglist) != 2:
            raise SchemaError(
                "name", "small_hypersphere takes two arguments: small_hypersphere(m, a)")
        return _small_hypersphere_scenario(arg(0, int), arg(1, float))
    raise SchemaError("name", f"unknown builtin {base!r}")


def _inversion_scenario(n: int) -> Scenario:
    if n < 2:
        raise SchemaError("name", "inversion needs n >= 2")
    r2 = " + ".join(f"x{i + 1}^2" for i in range(n))
    data = {
        "schema": SCHEMA_VERSION,
        "name": f"inversion({n})",
        "kind": "map",
        "source": {"dim": n, "space_form": 0.0},
        "target": {"dim": n, "space_form": 0.0},
        "components": [f"x{i + 1} / ({r2})^(l/2)" for i in range(n)],
        "params": {"l": float(n), "p": 2.0},
        "samples": {"box": [[0.5, 2.0]] * n, "points_per_axis": 2, "seed": 11,
                    "exclude": [f"{r2} - 0.01"]},
        "checks": ["p_harmonic", "energy_quadrature"],
    }
    return Scenario.from_dict(data)


def _cylinder_scenario() -> Scenario:
    factor = "(x1^2 + x2^2)^(-1/p)"
    zero = "0"
    data = {
        "schema": SCHEMA_VERSION,
        "name": "proper_pbh_cylinder",
        "kind": "map",
        "source": {"dim": 3, "metric": [[factor, zero, zero],
                                        [zero, factor, zero],
                                        [zero, zero, factor]]},
        "target": {"dim": 2, "space_form": 0.0},
        "components": ["sqrt(x1^2 + x2^2)", "x3"],
        "params": {"p": 2.0},
        "samples": {"box": [[0.5, 2.0]] * 3, "points_per_axis": 2, "seed": 12,
                    "exclude": ["x1^2 + x2^2 - 0.01"]},
        "checks": ["p_biharmonic", "stress_divergence", "trace_identity"],
    }
    return Scenario.from_dict(data)


def _latitude_sphere_text(m: int):
    """The m + 1 ambient components of the latitude m-sphere (the unit m-sphere's
    stereographic chart, placed by u -> (a u, b) and read back through the
    ambient one) and its round metric factor, as text in the parameters a and b."""
    t2 = " + ".join(f"x{i + 1}^2" for i in range(m))
    den = f"(1 + ({t2})/4)"
    scale = "(2*a/(1 + b))"
    comps = [f"{scale} * x{i + 1} / {den}" for i in range(m)]
    comps.append(f"{scale} * (1 - ({t2})/4) / {den}")
    return comps, f"a^2 * {den}^(-2)"


def _small_hypersphere_scenario(m: int, a: float) -> Scenario:
    if m < 1:
        raise SchemaError("name", f"small_hypersphere needs m >= 1, got {m}")
    if not 0.0 < a < 1.0:
        raise SchemaError("name", f"small_hypersphere needs a in (0, 1), got {a}")
    b = math.sqrt(1.0 - a * a)
    comps, round_factor = _latitude_sphere_text(m)
    metric = [[round_factor if i == j else "0" for j in range(m)] for i in range(m)]
    data = {
        "schema": SCHEMA_VERSION,
        "name": f"small_hypersphere({m},{a})",
        "kind": "immersion",
        "source": {"dim": m, "metric": metric},
        "target": {"dim": m + 1, "space_form": 1.0},
        "components": comps,
        "params": {"a": a, "b": b, "p": 1.0 / (b * b)},
        "samples": {"box": [[-0.6, 0.7]] * m, "points_per_axis": 2, "seed": 13},
        "checks": ["theorem_2_1", "theorem_2_3", "cmc_proper_p"],
    }
    return Scenario.from_dict(data)


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario file (UTF-8 JSON); any failure to read or
    decode it is a SchemaError."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError("(file)", f"invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError("(file)", f"cannot read {path!r}: {exc}") from exc
    return Scenario.from_dict(data)
