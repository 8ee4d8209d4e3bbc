"""Scenario files, built-in examples, the check runner, and report generation.

A scenario bundles a map or immersion (as expression text plus chart specs),
parameter bindings, a sampling plan, and a list of named checks. Reports are
deterministic: same scenario and overrides give byte-identical CSV/JSON.

Check vocabulary:

==================  ========================================================
p_harmonic          |tau_p| at each sample point
p_biharmonic        |tau_{2,p}| at each sample point
theorem_2_1         residuals of the general submanifold system
theorem_2_3         residuals of the CMC hypersurface system
cmc_proper_p        solves for the proper p on a CMC hypersurface, then
                    certifies the general system at that p
stress_divergence   gap in div S_{2,p}(X) = -h(tau_{2,p}, dphi(X)), scaled
                    by max(1, side magnitude)
trace_identity      trace of S_{2,p} against both closed trace forms
energy_quadrature   E_p and E_{2,p} over the sample box; the recorded
                    residual is E_{2,p} (zero exactly for p-harmonic maps)
==================  ========================================================

`run` lifts each sample point once, to the highest jet order its checks need
(`CHECK_ORDER`; a higher order is always valid), and also evaluates it in
floats; every check reads these two contexts. Float readers (map value, metric
norms, signed normal residual, proper p) stay on the float context, since jet
and float evaluation of one expression can differ in the last bit.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, NotPositiveDefiniteError, PbhError, RankDeficiencyError,
                     SchemaError, SingularityError, SingularMatrixError)
from .expr import parse
from .geometry import ChartMetric, space_form_chart
from .jets import lift_point, value
from .mapcalc import SmoothMap, check_p, p_bienergy_box, p_energy_box
from .stress import stress_divergence_at, trace_identity_at
from .submanifold import Immersion, ImmersionPoint

SCHEMA_VERSION = "pbh/1"

MAP_CHECKS = ("p_harmonic", "p_biharmonic", "stress_divergence", "trace_identity",
              "energy_quadrature")
IMMERSION_CHECKS = ("theorem_2_1", "theorem_2_3", "cmc_proper_p")
ALL_CHECKS = MAP_CHECKS + IMMERSION_CHECKS

# jet order each point check needs: the shifts its readers perform
CHECK_ORDER = {"p_harmonic": 1, "trace_identity": 2, "theorem_2_1": 2, "theorem_2_3": 2,
               "cmc_proper_p": 2, "p_biharmonic": 3, "stress_divergence": 3}

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


def _require_tolerance(tol):
    _require(_is_number(tol) and 0 < tol < math.inf, "tolerance",
             f"must be a positive finite number, got {tol!r}")


def _require_p(p, checks):
    """The map checks read the p-tension, defined for p >= 2 only (`check_p`)."""
    map_checks = sorted(set(checks) & set(MAP_CHECKS))
    if map_checks:
        _require(p >= 2.0, "p", f"must be >= 2 for the checks {map_checks}, got {p!r}")


def _chart_from_spec(spec: dict, field_name: str, params: dict,
                     declared: list) -> ChartMetric:
    _require(isinstance(spec, dict), field_name, "must be an object")
    _require("dim" in spec, f"{field_name}.dim", "is required")
    dim = spec["dim"]
    _require(_is_int(dim) and dim >= 1, f"{field_name}.dim",
             "must be a positive integer")
    if "space_form" in spec:
        c = spec["space_form"]
        _require(_is_number(c), f"{field_name}.space_form",
                 "must be a number")
        return space_form_chart(float(c), dim).with_params(**params)
    _require("metric" in spec, field_name, "needs either 'space_form' or 'metric'")
    rows = spec["metric"]
    _require(isinstance(rows, list) and len(rows) == dim
             and all(isinstance(r, list) and len(r) == dim for r in rows),
             f"{field_name}.metric", f"must be a {dim}x{dim} matrix of expression strings")
    comps = []
    for i, row in enumerate(rows):
        out = []
        for j, text in enumerate(row):
            try:
                out.append(parse(text, dim, declared))
            except PbhError as exc:
                raise SchemaError(f"{field_name}.metric[{i}][{j}]", str(exc)) from exc
        comps.append(out)
    return ChartMetric(dim, comps, params=params)


@dataclass
class Scenario:
    """Validated scenario: charts, components, params, sampling plan, checks."""

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
    source_supplies_metric: bool = field(default=False)

    @staticmethod
    def from_dict(data: dict) -> "Scenario":
        _require(isinstance(data, dict), "(root)", "scenario must be a JSON object")
        _require(data.get("schema") == SCHEMA_VERSION, "schema",
                 f"must be {SCHEMA_VERSION!r}")
        name = data.get("name")
        _require(isinstance(name, str) and name, "name", "must be a non-empty string")
        kind = data.get("kind")
        _require(kind in ("map", "immersion"), "kind", "must be 'map' or 'immersion'")

        raw_params = data.get("params", {})
        _require(isinstance(raw_params, dict), "params", "must be an object")
        params, sweeps = {}, {}
        for key, val in raw_params.items():
            if _is_number(val):
                params[key] = float(val)
            elif isinstance(val, dict):
                for f in ("from", "to", "steps"):
                    _require(f in val, f"params.{key}.{f}", "is required in a sweep range")
                _require(_is_int(val["steps"]) and val["steps"] >= 2,
                         f"params.{key}.steps", "must be an integer >= 2")
                _require(_is_number(val["from"]) and _is_number(val["to"]), f"params.{key}",
                         "sweep bounds must be numbers")
                sweeps[key] = (float(val["from"]), float(val["to"]), val["steps"])
                params[key] = float(val["from"])
            else:
                raise SchemaError(f"params.{key}", "must be a number or a sweep range")
        declared = sorted(params.keys())

        _require("source" in data, "source", "is required")
        _require("target" in data, "target", "is required")
        source_spec, target_spec = data["source"], data["target"]
        _require(isinstance(source_spec, dict) and _is_int(source_spec.get("dim")),
                 "source.dim", "must be an integer")
        _require(isinstance(target_spec, dict) and _is_int(target_spec.get("dim")),
                 "target.dim", "must be an integer")
        m, n = source_spec["dim"], target_spec["dim"]
        if kind == "immersion":
            _require(n > m, "target.dim", "must exceed source.dim for an immersion")
            _require("space_form" in target_spec, "target.space_form",
                     "immersion checks need a space-form ambient")

        comp_text = data.get("components")
        _require(isinstance(comp_text, list) and len(comp_text) == n, "components",
                 f"must list {n} expression strings")
        used = set()
        for k, text in enumerate(comp_text):
            try:
                e = parse(text, m, declared)
            except PbhError as exc:
                raise SchemaError(f"components[{k}]", str(exc)) from exc
            used |= e.params_used()
        missing = used - set(declared)
        _require(not missing, "params", f"unbound parameters {sorted(missing)}")

        samples = data.get("samples", {})
        _require(isinstance(samples, dict), "samples", "must be an object")
        box = samples.get("box")
        _require(isinstance(box, list) and len(box) == m
                 and all(isinstance(b, list) and len(b) == 2 for b in box),
                 "samples.box", f"must list {m} [lo, hi] pairs")
        _require(all(_is_number(v) for b in box for v in b), "samples.box",
                 "bounds must be numbers")
        box = [[float(b[0]), float(b[1])] for b in box]
        _require(all(b[0] < b[1] for b in box), "samples.box", "needs lo < hi per axis")
        ppa = samples.get("points_per_axis", 0)
        rnd = samples.get("random_points", 0)
        _require(_is_int(ppa) and ppa >= 0, "samples.points_per_axis",
                 "must be a non-negative integer")
        _require(_is_int(rnd) and rnd >= 0, "samples.random_points",
                 "must be a non-negative integer")
        _require(ppa > 0 or rnd > 0, "samples",
                 "needs points_per_axis or random_points")
        seed = samples.get("seed", 0)
        _require(_is_int(seed), "samples.seed", "must be an integer")
        exclude = samples.get("exclude", [])
        _require(isinstance(exclude, list), "samples.exclude", "must be a list")
        for k, text in enumerate(exclude):
            try:
                parse(text, m, declared)
            except PbhError as exc:
                raise SchemaError(f"samples.exclude[{k}]", str(exc)) from exc

        checks = data.get("checks")
        _require(isinstance(checks, list) and checks, "checks",
                 "must be a non-empty list")
        for c in checks:
            _require(c in ALL_CHECKS, "checks", f"unknown check {c!r}")
            if c in IMMERSION_CHECKS:
                _require(kind == "immersion", "checks",
                         f"{c!r} applies to immersions only")
        tol = data.get("tolerance", DEFAULT_TOLERANCE)
        _require_tolerance(tol)
        for p in sweeps["p"][:2] if "p" in sweeps else [params.get("p", 2.0)]:
            _require_p(p, checks)

        return Scenario(
            name=name, kind=kind, source_spec=source_spec, target_spec=target_spec,
            component_text=list(comp_text), params=params, sweeps=sweeps, box=box,
            points_per_axis=ppa, random_points=rnd, seed=seed,
            exclude_text=list(exclude), checks=list(checks), tolerance=float(tol),
            source_supplies_metric="metric" in source_spec)

    def to_dict(self) -> dict:
        params = {}
        for k, v in self.params.items():
            if k in self.sweeps:
                lo, hi, steps = self.sweeps[k]
                params[k] = {"from": lo, "to": hi, "steps": steps}
            else:
                params[k] = v
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
            "components": self.component_text, "params": params,
            "samples": samples, "checks": self.checks, "tolerance": self.tolerance,
        }

    # -- sampling --------------------------------------------------------- #
    def _excluded(self, x, params) -> bool:
        m = self.source_spec["dim"]
        declared = sorted(self.params.keys())
        for text in self.exclude_text:
            if parse(text, m, declared).evaluate(x, params) < 0.0:
                return True
        return False

    def sample_points(self, params=None) -> list:
        """Deterministic sample points: interior grid, then seeded uniform draws."""
        params = {**self.params, **(params or {})}
        m = self.source_spec["dim"]
        points = []
        if self.points_per_axis:
            axes = [np.linspace(lo, hi, self.points_per_axis + 2)[1:-1]
                    for lo, hi in self.box]
            grids = np.meshgrid(*axes, indexing="ij")
            for idx in range(grids[0].size):
                x = tuple(float(g.flat[idx]) for g in grids)
                if not self._excluded(x, params):
                    points.append(x)
        if self.random_points:
            rng = np.random.default_rng(self.seed)
            count, guard = 0, 0
            while count < self.random_points and guard < 1000 * self.random_points:
                guard += 1
                x = tuple(float(rng.uniform(lo, hi)) for lo, hi in self.box)
                if not self._excluded(x, params):
                    points.append(x)
                    count += 1
            if count < self.random_points:
                raise SchemaError("samples", "exclusions reject nearly all of the box")
        return points

    # -- construction ------------------------------------------------------ #
    def _base_object(self):
        """Parse and assemble once; later builds only rebind parameters."""
        base = getattr(self, "_base", None)
        if base is not None:
            return base
        params = dict(self.params)
        declared = sorted(self.params.keys())
        m = self.source_spec["dim"]
        target = _chart_from_spec(self.target_spec, "target", params, declared)
        components = [parse(t, m, declared) for t in self.component_text]
        if self.kind == "map":
            source = _chart_from_spec(self.source_spec, "source", params, declared)
            base = SmoothMap(source, target, components, params=params, name=self.name)
        else:
            source_metric = None
            if self.source_supplies_metric:
                chart = _chart_from_spec(self.source_spec, "source", params, declared)
                source_metric = chart.components
            base = Immersion(m, target, components, params=params,
                             source_metric=source_metric, name=self.name)
        object.__setattr__(self, "_base", base)
        return base

    def build(self, overrides=None):
        """Instantiate the scenario's map or immersion with bound parameters."""
        params = {**self.params, **(overrides or {})}
        return self._base_object().with_params(**params)


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

    def max_residual(self, check=None) -> float:
        vals = [r.residual for r in self.rows
                if (check is None or r.check == check) and not math.isnan(r.residual)]
        return max(vals) if vals else 0.0

    def summary(self) -> dict:
        checks = {}
        for r in self.rows:
            entry = checks.setdefault(r.check, {"max_residual": 0.0, "pass": True})
            if not math.isnan(r.residual):
                entry["max_residual"] = max(entry["max_residual"], r.residual)
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
        doc = {
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario,
            "tolerance": self.tolerance,
            "summary": self.summary(),
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
    n = len(v)
    return math.sqrt(max(sum(value(metric[a][b]) * v[a] * v[b]
                             for a in range(n) for b in range(n)), 0.0))


def _values(vec):
    return [value(c) for c in vec]


def _run_point_check(check, jet, flt, p, tol):
    """(residual, passed, signed, extras) of one check at a point's jet and float contexts."""
    ip, fip = (jet, flt) if isinstance(jet, ImmersionPoint) else (None, None)
    mp, fmp = (jet.mp, flt.mp) if ip is not None else (jet, flt)
    signed, extras = None, {}
    if check == "p_harmonic":
        check_p(p)
        # at p = 2 the p-tension is the tension, a float reader
        res = _norm(fmp.h, _values((fmp if p == 2.0 else mp).p_tension(p)))
    elif check == "p_biharmonic":
        check_p(p)
        res = _norm(fmp.h, _values(mp.p_bitension(p)))
    elif check == "stress_divergence":
        lhs, rhs, gap = stress_divergence_at(mp, p)
        res = gap / max(max(abs(v) for v in lhs), max(abs(v) for v in rhs), 1.0)
    elif check == "trace_identity":
        tr, _, form_alg, form_div = trace_identity_at(mp, p)
        res = max(abs(tr - form_alg), abs(tr - form_div))
    elif check == "theorem_2_3":
        scalar, tangent = ip.hypersurface_residuals(p)
        signed = value(scalar)
        res = max(abs(signed), _norm(fmp.g, _values(tangent)))
    else:  # theorem_2_1, and cmc_proper_p at the p it solves for
        if check == "cmc_proper_p":
            result = fip.proper_p()
            p = result.p_star
            extras = {"p_star": result.p_star, "admissible": result.admissible}
        normal, tangent = (_values(v) for v in ip.general_residuals(p))
        res = max(_norm(fmp.h, normal), _norm(fmp.g, tangent))
        if check == "theorem_2_1":  # projection of the normal residual on H/|H|
            h2 = value(fip.mean_curvature_norm2)
            if h2 > 1e-18:
                H = _values(fip.mean_curvature)
                signed = value(fip.mp.h_inner(normal, H)) / math.sqrt(h2)
    return res, res < tol, signed, extras


# failures that turn the row of one sample point into NaN (SingularityError under strict)
POINT_FAILURES = (SingularityError, DomainError, ZeroDivisionError, SingularMatrixError,
                  RankDeficiencyError, NotPositiveDefiniteError, OverflowError)


def _point_failure(exc, strict, point=None):
    if strict:
        if isinstance(exc, SingularityError):
            raise exc
        raise SingularityError(str(exc), point=point) from exc


def run(scenario: Scenario, overrides=None, tolerance=None, strict=False) -> ResidualReport:
    """Execute every requested check at every sample point."""
    overrides = dict(overrides or {})
    unknown = set(overrides) - set(scenario.params)
    if unknown:
        raise SchemaError("params", f"override of undeclared parameters {sorted(unknown)}")
    params = {**scenario.params, **overrides}
    if tolerance is not None:
        _require_tolerance(tolerance)
    tol = tolerance if tolerance is not None else scenario.tolerance
    p = params.get("p", 2.0)
    _require_p(p, scenario.checks)
    obj = scenario.build(params)
    points = scenario.sample_points(params)
    row_params = tuple(sorted((k, v) for k, v in params.items() if k != "p"))
    checks = [c for c in scenario.checks if c in CHECK_ORDER]
    order = max((CHECK_ORDER[c] for c in checks), default=0)

    rows = []
    extras = {}
    for x in points if checks else ():
        jet, flt = obj.at(lift_point(x, order)), obj.at(x)
        for check in checks:
            try:
                res, ok, signed, extra = _run_point_check(check, jet, flt, p, tol)
                rows.append(CheckRow(scenario.name, check, p, row_params, x,
                                     res, ok, signed))
                for k, v in extra.items():
                    extras.setdefault(check, {})[k] = v
            except POINT_FAILURES as exc:
                _point_failure(exc, strict, x)
                rows.append(CheckRow(scenario.name, check, p, row_params, x,
                                     float("nan"), False, None, note=str(exc)))
    if "energy_quadrature" in scenario.checks:
        phi = obj.map if isinstance(obj, Immersion) else obj
        try:
            ep = p_energy_box(phi, scenario.box, p, order=QUADRATURE_ORDER)
            e2p = p_bienergy_box(phi, scenario.box, p, order=QUADRATURE_ORDER)
            extras["energy_quadrature"] = {"E_p": ep, "E_2p": e2p}
            rows.append(CheckRow(scenario.name, "energy_quadrature", p, row_params,
                                 (), e2p, e2p < tol))
        except POINT_FAILURES as exc:
            _point_failure(exc, strict)
            rows.append(CheckRow(scenario.name, "energy_quadrature", p, row_params,
                                 (), float("nan"), False, note=str(exc)))
    return ResidualReport(scenario.name, tol, rows, extras)


@dataclass
class SweepResult:
    scenario: str
    param: str
    values: list
    reports: list
    crossings: list

    def to_csv(self) -> str:
        chunks = []
        for k, rep in enumerate(self.reports):
            csv = rep.to_csv()
            chunks.append(csv if k == 0 else csv.split("\n", 1)[1])
        return "".join(chunks)

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

    Crossing locations come from linear interpolation of the mean signed
    normal residual between adjacent grid values; no root polishing.
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
    _require(_is_int(steps) and steps >= 2, "steps", "must be an integer >= 2")
    values = [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]

    reports = []
    means = {}
    for v in values:
        rep = run(scenario, overrides={**(overrides or {}), param: v},
                  tolerance=tolerance, strict=strict)
        reports.append(rep)
        for check in scenario.checks:
            signed = [r.signed for r in rep.rows if r.check == check and r.signed is not None]
            if signed:
                means.setdefault(check, []).append(sum(signed) / len(signed))
            else:
                means.setdefault(check, []).append(None)
    crossings = []
    for check, series in means.items():
        for k in range(len(values) - 1):
            a, b = series[k], series[k + 1]
            if a is None or b is None or math.isnan(a) or math.isnan(b):
                continue
            if a == 0.0:
                crossings.append({"check": check, "param": param, "value": values[k]})
            elif a * b < 0.0:
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
        "tolerance": DEFAULT_TOLERANCE,
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
        "tolerance": DEFAULT_TOLERANCE,
    }
    return Scenario.from_dict(data)


def _small_hypersphere_scenario(m: int, a: float) -> Scenario:
    if m < 1:
        raise SchemaError("name", f"small_hypersphere needs m >= 1, got {m}")
    if not 0.0 < a < 1.0:
        raise SchemaError("name", f"small_hypersphere needs a in (0, 1), got {a}")
    b = math.sqrt(1.0 - a * a)
    t2 = " + ".join(f"x{i + 1}^2" for i in range(m))
    den = f"(1 + ({t2})/4)"
    scale = "(2*a/(1 + b))"
    comps = [f"{scale} * x{i + 1} / {den}" for i in range(m)]
    comps.append(f"{scale} * (1 - ({t2})/4) / {den}")
    round_factor = f"a^2 * {den}^(-2)"
    zero = "0"
    metric = [[round_factor if i == j else zero for j in range(m)] for i in range(m)]
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
        "tolerance": DEFAULT_TOLERANCE,
    }
    return Scenario.from_dict(data)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError("(file)", f"invalid JSON: {exc}") from exc
    return Scenario.from_dict(data)
