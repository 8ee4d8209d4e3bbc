"""Scenario schema, built-ins, run/sweep engine, reports, and the CLI."""

import dataclasses
import functools
import json
import math
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pbh import expr, scenarios
from pbh.cli import main as cli_main
from pbh.errors import ExprSyntaxError, SchemaError, SingularityError
from pbh.geometry import ChartMetric
from pbh.jets import JetScalar, lift_point, point_value, value
from pbh.mapcalc import MapPoint, p_bitension, p_tension
from pbh.scenarios import (SCHEMA_VERSION, Scenario, builtin, load_scenario,
                           run, sweep)
from pbh.stress import stress_divergence_check, trace_identity_at
from pbh.submanifold import (ImmersionPoint, cmc_proper_p, theorem21_residuals,
                             theorem23_residuals)


def entry_points(X):
    """The base points a float-or-jet point holds: one per batch entry."""
    x = point_value(X)
    return list(zip(*x)) if isinstance(x[0], tuple) else [x]


def make_scenario_dict(**overrides):
    data = {
        "schema": SCHEMA_VERSION,
        "name": "test_map",
        "kind": "map",
        "source": {"dim": 2, "space_form": 0.0},
        "target": {"dim": 2, "space_form": 0.0},
        "components": ["x1 + 0.1*x2^2", "x2"],
        "params": {"p": 2.0},
        "samples": {"box": [[0.2, 1.0], [0.2, 1.0]], "points_per_axis": 2, "seed": 3},
        "checks": ["p_harmonic"],
        "tolerance": 1e-7,
    }
    data.update(overrides)
    return data


class TestSchema:
    def test_roundtrip_through_dict(self):
        sc = Scenario.from_dict(make_scenario_dict())
        again = Scenario.from_dict(sc.to_dict())
        assert again.name == sc.name
        assert again.checks == sc.checks

    @pytest.mark.parametrize("mutation, field", [
        ({"schema": "bogus/9"}, "schema"),
        ({"name": ""}, "name"),
        ({"kind": "flow"}, "kind"),
        ({"components": ["x1"]}, "components"),
        ({"components": ["x1 + unknown_param", "x2"]}, "components[0]"),
        ({"components": ["x1", 2]}, "components[1]"),
        ({"source": {"dim": 2, "metric": [["1", "0"], ["0", 1.0]]}}, "source.metric[1][1]"),
        ({"checks": ["not_a_check"]}, "checks"),
        ({"checks": []}, "checks"),
        ({"tolerance": -1.0}, "tolerance"),
        ({"samples": {"box": [[0.2, 1.0]], "points_per_axis": 2}}, "samples.box"),
        ({"samples": {"box": [[0.2, 1.0], [0.2, 1.0]]}}, "samples"),
        ({"params": {"p": "two"}}, "params.p"),
        ({"checks": ["theorem_2_1"]}, "checks"),
        # the chart specs are checked at load, though the charts are built at a run
        ({"source": {"dim": 2}}, "source"),
        ({"source": {"dim": 2, "space_form": "flat"}}, "source.space_form"),
        ({"target": {"dim": 2, "metric": [["1", "0"], ["0"]]}}, "target.metric"),
        ({"target": {"dim": 2, "metric": [["1", "0"], ["0", "exp("]]}}, "target.metric[1][1]"),
        ({"checks": ["p_harmonic", "p_harmonic", "energy_quadrature", "energy_quadrature"]},
         "checks"),
        ({"checks": [["p_harmonic"]]}, "checks"),
    ])
    def test_rejection_names_offending_field(self, mutation, field):
        data = make_scenario_dict(**mutation)
        with pytest.raises(SchemaError) as err:
            Scenario.from_dict(data)
        assert err.value.field == field

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_scenario(str(path))

    def test_sweep_range_declaration(self):
        data = make_scenario_dict(params={"p": {"from": 2.0, "to": 4.0, "steps": 3}})
        sc = Scenario.from_dict(data)
        assert sc.sweeps["p"] == (2.0, 4.0, 3)


# a target chart given by a metric, where an immersion needs a space form
FLAT_METRIC_3 = {"dim": 3, "metric": [["1" if i == j else "0" for j in range(3)]
                                      for i in range(3)]}


def _fields(sc):
    """The constructor arguments that remake `sc`."""
    return {f.name: getattr(sc, f.name) for f in dataclasses.fields(Scenario)}


class TestConstruction:
    @pytest.mark.parametrize("name", ["inversion(3)", "small_hypersphere(2, 0.8)"])
    def test_a_constructor_made_scenario_runs_to_the_builtin_report(self, name):
        made, ref = run(Scenario(**_fields(builtin(name)))), run(builtin(name))
        assert (made.to_csv(), made.to_json()) == (ref.to_csv(), ref.to_json())

    def test_every_way_of_making_a_scenario_parses_its_texts(self):
        sc = builtin("inversion(3)")
        for make in (lambda texts: Scenario(**{**_fields(sc), "component_text": texts}),
                     lambda texts: dataclasses.replace(sc, component_text=texts)):
            with pytest.raises(SchemaError) as err:
                make(["x1 +", "x2", "x3"])
            assert err.value.field == "components[0]"

    @pytest.mark.parametrize("name, changes, edit, field", [
        ("inversion(3)", {"checks": ["p_harmonc"]}, lambda d: d.update(checks=["p_harmonc"]),
         "checks"),
        ("inversion(3)", {"points_per_axis": 0, "random_points": 0},
         lambda d: d["samples"].update(points_per_axis=0, random_points=0), "samples"),
        ("inversion(3)", {"kind": "flow"}, lambda d: d.update(kind="flow"), "kind"),
        ("inversion(3)", {"component_text": ["x1", "x2"]},
         lambda d: d.update(components=["x1", "x2"]), "components"),
        ("inversion(3)", {"source_spec": {}}, lambda d: d.update(source={}), "source.dim"),
        ("small_hypersphere(2, 0.8)", {"target_spec": FLAT_METRIC_3},
         lambda d: d.update(target=FLAT_METRIC_3), "target.space_form"),
        ("inversion(3)", {"name": 3}, lambda d: d.update(name=3), "name"),
        ("inversion(3)", {"name": ""}, lambda d: d.update(name=""), "name"),
        ("inversion(3)", {"params": {"l": "x", "p": 2.0}},
         lambda d: d["params"].update(l="x"), "params.l"),
        ("inversion(3)", {"params": {"l": math.nan, "p": 2.0}},
         lambda d: d["params"].update(l=math.nan), "params.l"),
        ("inversion(3)", {"params": {"l": True, "p": 2.0}},
         lambda d: d["params"].update(l=True), "params.l"),
        ("inversion(3)", {"sweeps": {"p": (2.0, 4.0, 1)}},
         lambda d: d["params"].update(p={"from": 2.0, "to": 4.0, "steps": 1}), "params.p.steps"),
        ("inversion(3)", {"sweeps": {"p": (2.0, math.inf, 3)}},
         lambda d: d["params"].update(p={"from": 2.0, "to": math.inf, "steps": 3}),
         "params.p.to"),
        # a scenario file declares a swept parameter with its range: no file form
        ("inversion(3)", {"sweeps": {"q": (2.0, 4.0, 3)}}, None, "params"),
        ("inversion(3)", {"sweeps": {"p": (2.0, 4.0)}},
         lambda d: d["params"].update(p=[2.0, 4.0]), "params.p"),
        # 101^3 grid points: more than 10^6
        ("inversion(3)", {"points_per_axis": 101},
         lambda d: d["samples"].update(points_per_axis=101), "samples.points_per_axis"),
        # finite bounds whose difference overflows
        ("inversion(3)", {"box": [[-1e308, 1e308]] * 3},
         lambda d: d["samples"].update(box=[[-1e308, 1e308]] * 3), "samples.box"),
        # more random draws than a grid may hold points; every draw excluded, so
        # sampling would draw 1000 times as many before it gave up
        ("inversion(3)", {"random_points": 10 ** 6 + 1, "exclude_text": ["-1"]},
         lambda d: d["samples"].update(random_points=10 ** 6 + 1, exclude=["-1"]),
         "samples.random_points"),
    ], ids=["misspelt_check", "no_sample_points", "unknown_kind", "two_components",
            "no_source_dim", "metric_ambient", "int_name", "empty_name", "string_param",
            "nan_param", "bool_param", "one_step_sweep", "infinite_sweep_end",
            "undeclared_sweep", "two_value_sweep", "huge_grid", "box_width_overflows",
            "huge_random"])
    def test_every_way_of_making_a_scenario_checks_its_fields(self, name, changes, edit, field):
        sc = builtin(name)
        data = sc.to_dict()
        makes = [lambda: Scenario(**{**_fields(sc), **changes}),
                 lambda: dataclasses.replace(sc, **changes)]
        if edit is not None:
            edit(data)
            makes.append(lambda: Scenario.from_dict(data))
        for make in makes:
            with pytest.raises(SchemaError) as err:
                make()
            assert err.value.field == field

    def test_sampling_assembles_no_map(self):
        sc = builtin("proper_pbh_cylinder")
        assert sc.sample_points()
        assert "_base" not in vars(sc)

    def test_a_subclass_with_fixed_points_gives_the_base_rows_there(self):
        @dataclasses.dataclass
        class FixedPoints(Scenario):
            points: list = dataclasses.field(default_factory=list)

            def sample_points(self, params=None):
                return list(self.points)

        base = builtin("proper_pbh_cylinder")
        points = base.sample_points()[1::2]
        fixed = FixedPoints(**_fields(base), points=points)
        want = [r for r in run(base, overrides={"p": 3.0}).rows if r.point in points]
        assert want and run(fixed, overrides={"p": 3.0}).rows == want


# single-field edits of the built-ins: each field of each built-in replaced by
# each value of the pool. Counts stay at 3 or below and p stays small, so that
# no case runs long; the pool is small enough that Hypothesis tries every edit.
EDIT_BUILTINS = ("inversion(3)", "proper_pbh_cylinder", "small_hypersphere(2, 0.8)")
EDIT_POOL = ("", "x", "immersion", math.nan, math.inf, -math.inf, True, False, None,
             [], ["x"], [[0.0, 1.0]], ["p_harmonic"], {}, {"dim": 2}, {"p": 3.0}, {"p": "x"},
             {"p": [2.0, 3.0, 2]}, {0: 1.0}, -1, 0, 1, 3)
single_field_edits = given(st.sampled_from(EDIT_BUILTINS),
                           st.sampled_from([f.name for f in dataclasses.fields(Scenario)]),
                           st.sampled_from(EDIT_POOL))
EDIT_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=2000)


@functools.cache
def _edit_base(name):
    return builtin(name)


def _edited(name, field, value):
    """The built-in `name` with one field replaced, or None if construction
    rejects it with a SchemaError; any other exception propagates."""
    try:
        return dataclasses.replace(_edit_base(name), **{field: value})
    except SchemaError:
        return None


@EDIT_SETTINGS
@single_field_edits
def test_a_single_field_edit_is_a_schema_error_or_a_report(name, field, value):
    sc = _edited(name, field, value)
    if sc is not None:
        report = run(sc)
        assert report.to_csv() and report.to_json()


@EDIT_SETTINGS
@single_field_edits
def test_an_accepted_scenario_survives_a_json_round_trip(name, field, value):
    sc = _edited(name, field, value)
    if sc is not None:
        again = Scenario.from_dict(json.loads(json.dumps(sc.to_dict())))
        assert _fields(again) == _fields(sc)


class TestBuiltins:
    def test_unknown_name(self):
        with pytest.raises(SchemaError):
            builtin("nonexistent(1)")

    def test_invalid_radius(self):
        with pytest.raises(SchemaError):
            builtin("small_hypersphere(2, 1.5)")

    def test_inversion_scenario_shape(self):
        sc = builtin("inversion(3)")
        assert sc.kind == "map"
        assert sc.source_spec["dim"] == 3
        assert "p_harmonic" in sc.checks
        # exclusion keeps samples away from the puncture
        assert all(sum(v * v for v in x) > 0.01 for x in sc.sample_points())

    def test_builtins_pass_with_default_parameters(self):
        # each built-in defaults to its certified parameter point
        for name in ("inversion(3)", "proper_pbh_cylinder",
                     "small_hypersphere(2, 0.8)"):
            rep = run(builtin(name))
            assert rep.verdict, (name, rep.summary())

    def test_run_inversion_critical_passes(self):
        rep = run(builtin("inversion(3)"), overrides={"l": 2.0, "p": 3.0})
        assert rep.verdict
        assert rep.summary()["checks"]["p_harmonic"]["max_residual"] < 1e-8
        # p-harmonic maps on the box have vanishing p-bienergy
        assert rep.extras["energy_quadrature"]["E_2p"] < 1e-12
        assert rep.extras["energy_quadrature"]["E_p"] > 0.0

    def test_run_inversion_off_critical_fails_with_magnitude(self):
        rep = run(builtin("inversion(3)"), overrides={"l": 2.2, "p": 3.0})
        assert not rep.verdict
        assert rep.summary()["checks"]["p_harmonic"]["max_residual"] > 1e-3

    def test_run_cylinder(self):
        for p in (2.0, 3.0, 4.0):
            rep = run(builtin("proper_pbh_cylinder"), overrides={"p": p})
            assert rep.verdict, rep.summary()

    def test_run_small_hypersphere(self):
        a = 1.0 / math.sqrt(2.0)
        rep = run(builtin(f"small_hypersphere(2, {a})"))
        assert rep.verdict
        assert rep.extras["cmc_proper_p"]["p_star"] == pytest.approx(2.0, abs=1e-8)
        assert rep.extras["cmc_proper_p"]["admissible"]

    def test_quadrature_over_more_than_8_to_the_6_nodes_is_an_input_error(self, capsys):
        # constructed only: inversion(7) would hold 8^7 Gauss nodes
        builtin("inversion(6)")
        for n in (7, 9):
            with pytest.raises(SchemaError, match="energy_quadrature") as err:
                builtin(f"inversion({n})")
            assert err.value.field == "checks"
        assert cli_main(["run", "inversion(9)"]) == 2
        assert "scenario field 'checks'" in capsys.readouterr().err

    def test_override_of_undeclared_parameter(self):
        with pytest.raises(SchemaError):
            run(builtin("inversion(3)"), overrides={"zeta": 1.0})


class TestReports:
    def test_csv_column_contract(self):
        rep = run(builtin("inversion(3)"), overrides={"l": 2.0, "p": 3.0})
        lines = rep.to_csv().strip().split("\n")
        header = lines[0].split(",")
        assert header[:3] == ["scenario", "check", "p"]
        assert header[-2:] == ["residual_norm", "pass"]
        assert "param:l" in header
        assert "x1" in header and "x3" in header
        assert all(line.count(",") == len(header) - 1 for line in lines[1:])

    def test_json_structure(self):
        rep = run(builtin("proper_pbh_cylinder"), overrides={"p": 3.0})
        doc = json.loads(rep.to_json())
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["summary"]["verdict"] == "pass"
        assert {"p_biharmonic", "stress_divergence", "trace_identity"} <= set(
            doc["summary"]["checks"])
        assert all("residual" in row for row in doc["rows"])

    def test_reports_byte_identical_across_runs(self):
        a = run(builtin("inversion(3)"), overrides={"l": 2.0, "p": 3.0})
        b = run(builtin("inversion(3)"), overrides={"l": 2.0, "p": 3.0})
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()

    def test_singular_points_recorded_not_fatal(self):
        data = make_scenario_dict(
            components=["x1 / (x1^2 + x2^2)", "x2 / (x1^2 + x2^2)"],
            samples={"box": [[-0.3, 0.3], [-0.3, 0.3]], "points_per_axis": 1,
                     "seed": 1},
            params={"p": 3.0})
        # the single interior grid point is the origin, a genuine singularity
        rep = run(Scenario.from_dict(data))
        assert not rep.verdict
        assert any(math.isnan(r.residual) for r in rep.rows)
        assert any(r.note for r in rep.rows)

    def test_strict_mode_raises_singularity(self):
        from pbh.errors import SingularityError
        data = make_scenario_dict(
            components=["x1 / (x1^2 + x2^2)", "x2 / (x1^2 + x2^2)"],
            samples={"box": [[-0.3, 0.3], [-0.3, 0.3]], "points_per_axis": 1,
                     "seed": 1},
            params={"p": 3.0})
        with pytest.raises(SingularityError):
            run(Scenario.from_dict(data), strict=True)


def cusp_immersion_dict(**overrides):
    """(x1^3, x2, x2^2) in R^3: the differential drops rank on x1 = 0."""
    data = {
        "schema": SCHEMA_VERSION, "name": "cusp", "kind": "immersion",
        "source": {"dim": 2}, "target": {"dim": 3, "space_form": 0.0},
        "components": ["x1^3", "x2", "x2^2"], "params": {"p": 3.0},
        "samples": {"box": [[-1.0, 1.0], [-1.0, 1.0]], "points_per_axis": 3},
        "checks": ["theorem_2_1"],
    }
    data.update(overrides)
    return data


class TestPointFailures:
    def test_rank_deficient_points_yield_nan_rows(self):
        rep = run(Scenario.from_dict(cusp_immersion_dict()))
        assert len(rep.rows) == 9
        for r in rep.rows:
            if r.point[0] == 0.0:
                assert math.isnan(r.residual) and not r.passed and r.note
            else:
                assert math.isfinite(r.residual) and not r.note
        assert not rep.verdict

    def test_rank_deficient_point_under_strict(self, tmp_path):
        with pytest.raises(SingularityError):
            run(Scenario.from_dict(cusp_immersion_dict()), strict=True)
        path = tmp_path / "cusp.json"
        path.write_text(json.dumps(cusp_immersion_dict()))
        assert cli_main(["run", str(path), "--strict"]) == 3

    def test_sample_points_outside_the_source_domain_yield_nan_rows(self, tmp_path):
        # the hyperbolic chart is the ball |x|^2 < 4; of the 4 x 4 grid only
        # (1.4, 1.4) lies inside it
        data = make_scenario_dict(
            source={"dim": 2, "space_form": -1.0}, params={"p": 3.0},
            samples={"box": [[1.0, 3.0], [1.0, 3.0]], "points_per_axis": 4,
                     "random_points": 4, "seed": 2},
            checks=["p_harmonic", "stress_divergence", "energy_quadrature"])
        sc = Scenario.from_dict(data)
        rep = run(sc)
        rows = [r for r in rep.rows if r.check != "energy_quadrature"]
        inside = [r for r in rows if sum(v * v for v in r.point) < 4.0]
        assert inside and len(inside) < len(rows)
        for r in rows:
            if r in inside:
                assert math.isfinite(r.residual) and not r.note
            else:
                assert math.isnan(r.residual) and not r.passed
                assert r.note == f"sample point outside source domain at point {r.point}"
        result = sweep(sc, "p", 2.0, 4.0, 3)
        for v, step in zip(result.values, result.reports):
            assert step.to_csv() == run(sc, overrides={"p": v}).to_csv()
        with pytest.raises(SingularityError, match="sample point outside source domain"):
            run(sc, strict=True)
        path = tmp_path / "outside.json"
        path.write_text(json.dumps(data))
        assert cli_main(["run", str(path), "--strict"]) == 3
        assert cli_main(["sweep", str(path), "--param", "p", "--from", "2", "--to", "4",
                         "--steps", "3", "--strict"]) == 3

    def test_all_points_excluded_fails(self, tmp_path, capsys):
        data = make_scenario_dict(samples={"box": [[0.2, 1.0], [0.2, 1.0]],
                                           "points_per_axis": 2, "exclude": ["-1"]})
        rep = run(Scenario.from_dict(data))
        # one NaN row per point check, at no point
        assert [(r.check, r.point, r.passed, r.note) for r in rep.rows] == [
            ("p_harmonic", (), False, "no sample point is left after the exclusions")]
        assert math.isnan(rep.rows[0].residual)
        assert not rep.verdict
        assert rep.summary()["verdict"] == "fail"
        path = tmp_path / "excluded.json"
        path.write_text(json.dumps(data))
        assert cli_main(["run", str(path)]) == 1
        assert "p_harmonic: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("strict", [False, True])
    def test_a_point_check_without_points_fails_beside_a_box_check(self, tmp_path, capsys,
                                                                 strict):
        # energy_quadrature passes over the box; p_harmonic, with every sample
        # point excluded, must not vanish from the report and let the run pass
        data = builtin("inversion(3)").to_dict()
        data["samples"]["exclude"] = ["-1"]
        rep = run(Scenario.from_dict(data), overrides={"l": 2.0, "p": 3.0}, strict=strict)
        assert [(r.check, r.point, r.passed) for r in rep.rows] == [
            ("p_harmonic", (), False), ("energy_quadrature", (), True)]
        assert rep.rows[0].note == "no sample point is left after the exclusions"
        path = tmp_path / "excluded.json"
        path.write_text(json.dumps(data))
        argv = ["run", str(path), "--set", "l=2", "--p", "3"] + ["--strict"] * strict
        assert cli_main(argv) == 1
        out = capsys.readouterr().out
        assert "p_harmonic: FAIL" in out and "energy_quadrature: pass" in out


def _public_residual(check, phi, x, p, part=None):
    """A report row's residual, recomputed from the float-point public wrappers;
    of an immersion check, `part` "normal" or "tangent" gives that norm alone."""

    def h_norm(v):
        h = phi.target.metric_at(tuple(value(c) for c in phi.at(x).phiX))
        return math.sqrt(max(sum(value(h[a][b]) * v[a] * v[b]
                                 for a in range(len(v)) for b in range(len(v))), 0.0))

    def g_norm(v):
        g = phi.source.metric_at(x)
        return math.sqrt(max(sum(value(g[i][j]) * v[i] * v[j]
                                 for i in range(len(v)) for j in range(len(v))), 0.0))

    if check == "p_harmonic":
        return h_norm(p_tension(phi, x, p))
    if check == "p_biharmonic":
        return h_norm(p_bitension(phi, x, p))
    if check == "stress_divergence":
        lhs, rhs, gap = stress_divergence_check(phi, x, p)
        return gap / max(max(abs(v) for v in lhs), max(abs(v) for v in rhs), 1.0)
    if check == "trace_identity":
        tr, _, form_alg, form_div = trace_identity_at(phi.at(lift_point(x, 2)), p)
        return max(abs(tr - form_alg), abs(tr - form_div))
    if check == "theorem_2_3":
        scalar, tangent = theorem23_residuals(phi, x, p)
        norms = {"normal": abs(scalar), "tangent": g_norm(tangent)}
    else:
        if check == "cmc_proper_p":
            p = cmc_proper_p(phi, x).p_star
        normal, tangent = theorem21_residuals(phi, x, p)
        norms = {"normal": h_norm(normal), "tangent": g_norm(tangent)}
    return norms[part] if part else max(norms.values())


# a graph over the induced metric whose mean curvature is not constant
PARABOLOID = {
    "schema": SCHEMA_VERSION, "name": "paraboloid", "kind": "immersion",
    "source": {"dim": 2}, "target": {"dim": 3, "space_form": 0.0},
    "components": ["x1", "x2", "0.3*x1^2 + 0.2*x1*x2 + 0.4*x2^2 + 0.1*x1"],
    "params": {"p": 3.0},
    "samples": {"box": [[-0.7, 0.7], [-0.7, 0.7]], "points_per_axis": 2},
    "checks": ["theorem_2_1", "theorem_2_3"],
}


# the runs whose rows `_public_residual` recomputes: together they list every point check
ORACLE_RUNS = [
    ("proper_pbh_cylinder", 2.0), ("proper_pbh_cylinder", 3.0),
    ("proper_pbh_cylinder", 4.0), ("small_hypersphere(2, 0.8)", 3.0),
    ("inversion(3)", 2.0), ("inversion(3)", 3.0), ("paraboloid", 3.0)]


def _oracle_scenario(name):
    return Scenario.from_dict(PARABOLOID) if name == "paraboloid" else builtin(name)


class TestEvaluationContexts:
    @pytest.mark.parametrize("name, p", ORACLE_RUNS)
    def test_run_rows_equal_public_wrappers(self, name, p):
        sc = _oracle_scenario(name)
        obj = sc.build({"p": p})
        rep = run(sc, overrides={"p": p})
        point_rows = [r for r in rep.rows if r.point]
        assert len(point_rows) == len(sc.sample_points()) * len(
            [c for c in sc.checks if c != "energy_quadrature"])
        for r in point_rows:
            assert repr(r.residual) == repr(_public_residual(r.check, obj, r.point, p)), r
        if name == "paraboloid":
            # the tangential part decides a theorem_2_3 row, so a residual
            # without it would differ
            assert any(_public_residual("theorem_2_3", obj, x, p, part="tangent")
                       > _public_residual("theorem_2_3", obj, x, p, part="normal")
                       for x in sc.sample_points())

    def test_the_oracle_runs_cover_every_point_check(self):
        # a new entry of CHECKS needs a `_public_residual` case and a run here
        listed = {c for name, _p in ORACLE_RUNS for c in _oracle_scenario(name).checks
                  if scenarios.CHECKS[c].order is not None}
        assert listed == {c for c, entry in scenarios.CHECKS.items() if entry.order is not None}

    @pytest.mark.parametrize("a", [0.6, 0.8, 0.999999999999])
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.5])
    def test_signed_normal_residual_of_a_latitude_sphere(self, a, p):
        # on the radius-a latitude m-sphere of the unit sphere (b^2 = 1 - a^2)
        # the normal residual along H/|H| is m (b/a) ((p - 1) b^2/a^2 - 1);
        # at a = 1 - 1e-12, |H|^2 = b^2/a^2 is about 2e-12, still signed
        m, b = 2, math.sqrt(1.0 - a * a)
        rep = run(builtin(f"small_hypersphere({m}, {a})"), overrides={"p": p})
        signed = [r.signed for r in rep.rows if r.check == "theorem_2_1"]
        assert signed
        assert signed == pytest.approx([m * (b / a) * ((p - 1.0) * b * b / (a * a) - 1.0)]
                                       * len(signed), rel=0, abs=1e-10)

    def test_one_jet_lift_per_sample_point(self, monkeypatch):
        lifted = []
        init = MapPoint.__init__

        def counting_init(self, smooth_map, X):
            if isinstance(X[0], JetScalar):
                lifted.extend(entry_points(X))
            init(self, smooth_map, X)

        monkeypatch.setattr(MapPoint, "__init__", counting_init)
        sc = builtin("proper_pbh_cylinder")
        run(sc, overrides={"p": 3.0})
        assert sorted(lifted) == sorted(sc.sample_points())


class TestSweep:
    def test_crossing_at_proper_p(self):
        a = 0.8
        b2 = 1.0 - a * a
        sc = builtin(f"small_hypersphere(2, {a})")
        result = sweep(sc, "p", 2.0, 6.0, 41)
        # both signed residuals are affine in p, so interpolation finds the
        # root to rounding
        for check in ("theorem_2_1", "theorem_2_3"):
            crossings = [c["value"] for c in result.crossings if c["check"] == check]
            assert crossings == [pytest.approx(1.0 / b2, rel=0, abs=1e-12)], check

    @pytest.mark.parametrize("series, zeros", [
        ([-1.0, -0.5, 0.0], [2]), ([-1.0, 0.0, None], [1]), ([0.0, 1.0, 2.0], [0]),
        ([0.0, -1.0, 0.0], [0, 2])])
    def test_each_zero_mean_is_one_crossing_at_its_grid_value(self, monkeypatch, series,
                                                              zeros):
        # each step's mean signed residual is given; None: no signed rows
        means = iter(series)

        def step(scenario, overrides):
            mean = next(means)
            rows = [] if mean is None else [scenarios.CheckRow(
                scenario.name, "theorem_2_1", overrides["p"], (), (0.0, 0.0), abs(mean),
                False, mean)]
            return scenarios.ResidualReport(scenario.name, 1e-7, rows, {})

        monkeypatch.setattr(scenarios, "_run", lambda scenario, steps, tol, strict:
                            [step(scenario, overrides) for overrides in steps])
        result = sweep(builtin("small_hypersphere(2, 0.8)"), "p", 2.0, 4.0, len(series))
        assert result.crossings == [{"check": "theorem_2_1", "param": "p",
                                     "value": result.values[k]} for k in zeros]

    def test_sweep_uses_declared_range(self):
        data = make_scenario_dict(params={"p": {"from": 2.0, "to": 3.0, "steps": 3}})
        sc = Scenario.from_dict(data)
        result = sweep(sc, "p")
        assert result.values == [2.0, 2.5, 3.0]

    def test_a_p_sweep_is_checked_at_both_ends_before_its_first_step(self, monkeypatch):
        builds, build = [], Scenario.build
        monkeypatch.setattr(Scenario, "build",
                            lambda self, *args: builds.append(args) or build(self, *args))
        with pytest.raises(SchemaError) as err:
            sweep(builtin("inversion(3)"), "p", 3.0, 1.0, 5)
        assert err.value.field == "p" and builds == []

    def test_sweep_undeclared_parameter(self):
        with pytest.raises(SchemaError):
            sweep(builtin("inversion(3)"), "zeta", 0.0, 1.0, 3)

    @pytest.mark.parametrize("kwargs, field", [
        ({"tolerance": -1.0}, "tolerance"), ({"overrides": {"zz": 1.0}}, "params")])
    def test_input_errors_come_before_the_chart_errors_of_a_scenario(self, kwargs, field):
        # a run's own inputs are checked before its charts are built
        sc = Scenario.from_dict(make_scenario_dict(
            source={"dim": 2, "metric": [["1 + x1^2", "0"], ["0", "1"]]}))
        for call in (lambda: run(sc, **kwargs), lambda: sweep(sc, "p", 2.0, 3.0, 2, **kwargs)):
            with pytest.raises(SchemaError) as err:
                call()
            assert err.value.field == field
        assert "_base" not in vars(sc)

    def test_a_metric_that_does_not_parse_is_an_error_at_load(self, tmp_path):
        path = tmp_path / "metric.json"
        path.write_text(json.dumps(make_scenario_dict(
            source={"dim": 2, "metric": [["x1 +", "0"], ["0", "1"]]})))
        with pytest.raises(SchemaError) as err:
            load_scenario(str(path))
        assert err.value.field == "source.metric[0][0]"

    def test_sweep_csv_has_single_header(self):
        sc = builtin("inversion(3)")
        result = sweep(sc, "l", 1.8, 2.2, 3, overrides={"p": 3.0})
        text = result.to_csv()
        assert text.count("scenario,check,p") == 1

    def test_sweep_csv_header_covers_every_step(self, tmp_path, capsys):
        # at r = 2 every grid point is excluded and the step has no point
        # columns; the later steps have two
        data = make_scenario_dict(
            name="disc", params={"p": 3.0, "r": 10.0},
            samples={"box": [[0.2, 1.0], [0.2, 1.0]], "points_per_axis": 2,
                     "exclude": ["x1^2 + x2^2 - r"]},
            checks=["p_harmonic", "energy_quadrature"])
        path = tmp_path / "disc.json"
        path.write_text(json.dumps(data))
        cli_main(["sweep", str(path), "--param", "r", "--from", "2", "--to", "0.1",
                  "--steps", "3", "--format", "csv"])
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith(("scenario,", "disc,"))]
        assert lines[0] == "scenario,check,p,param:r,x1,x2,residual_norm,pass"
        assert len(lines) > 3 and all(line.count(",") == 7 for line in lines)


def _count_immersion_points(monkeypatch):
    """Counter of ImmersionPoint constructions by (float) base point; a
    batched construction counts once for each point it holds."""
    built = {}
    init = ImmersionPoint.__init__

    def counting_init(self, immersion, X):
        for x in entry_points(X):
            built[x] = built.get(x, 0) + 1
        init(self, immersion, X)

    monkeypatch.setattr(ImmersionPoint, "__init__", counting_init)
    return built


class TestSharedSweepContexts:
    @pytest.mark.parametrize("name, param, lo, hi, steps, overrides", [
        ("small_hypersphere(2, 0.8)", "p", 2.0, 6.0, 9, None),  # contexts reused
        ("proper_pbh_cylinder", "p", 2.0, 4.0, 3, None),  # p in the metric
        ("small_hypersphere(2, 0.8)", "a", 0.5, 0.9, 3, None),
        ("inversion(3)", "l", 1.8, 2.2, 3, {"p": 3.0}),
        # contexts reused; p-dependent fields and the target curvature per step
        ("curved_target", "p", 2.0, 4.0, 3, None),
        # the exclude tree reads r: other sample points at each step
        ("excluded_disc", "r", 0.4, 1.2, 3, {"p": 3.0}),
        # every batch raises; single-point contexts and their cmc_proper_p rows reused
        ("cusp", "p", 2.0, 4.0, 4, None),
    ])
    def test_sweep_equals_independent_runs(self, monkeypatch, name, param, lo, hi,
                                           steps, overrides):
        if name == "curved_target":
            sc = Scenario.from_dict(make_scenario_dict(
                target={"dim": 2, "space_form": 1.0},
                components=["0.3*x1 + 0.1*x2^2", "0.2*x2 + 0.1*x1*x2"],
                checks=["p_harmonic", "p_biharmonic", "stress_divergence",
                        "trace_identity"]))
        elif name == "excluded_disc":
            sc = Scenario.from_dict(make_scenario_dict(
                params={"p": 2.0, "r": 1.0}, checks=["p_harmonic", "p_biharmonic"],
                samples={"box": [[0.2, 1.0], [0.2, 1.0]], "points_per_axis": 3,
                         "exclude": ["x1^2 + x2^2 - r"]}))
        elif name == "cusp":
            sc = Scenario.from_dict(cusp_immersion_dict(
                checks=["theorem_2_1", "theorem_2_3", "cmc_proper_p"]))
        else:
            sc = builtin(name)
        shared = sweep(sc, param, lo, hi, steps, overrides=overrides)
        # each step as a `run` call: no contexts shared
        independent = [run(sc, overrides={**(overrides or {}), param: v})
                       for v in shared.values]
        assert [rep.to_csv() for rep in shared.reports] == [
            rep.to_csv() for rep in independent]
        assert [rep.to_json() for rep in shared.reports] == [
            rep.to_json() for rep in independent]
        if name.startswith("small_hypersphere") and param == "p":
            assert shared.crossings
        if name == "excluded_disc":
            assert len({len(rep.rows) for rep in shared.reports}) == steps
        if name == "cusp":
            assert any(math.isnan(r.residual) for r in shared.reports[-1].rows)

    def test_p_sweep_evaluates_p_free_rows_and_draws_points_once(self, monkeypatch):
        sc = builtin("small_hypersphere(2, 0.8)")
        calls = Counter()
        check_results, sample_points = scenarios._check_results, Scenario.sample_points

        def counting(check, *args):
            calls[check] += 1
            return check_results(check, *args)

        def counting_points(self, params=None):
            calls["sample_points"] += 1
            return sample_points(self, params)

        monkeypatch.setattr(scenarios, "_check_results", counting)
        monkeypatch.setattr(Scenario, "sample_points", counting_points)
        sweep(sc, "p", 2.0, 6.0, 41)
        # one chunk: cmc_proper_p reads each point's own p*, not the swept p
        assert calls == {"theorem_2_1": 41, "theorem_2_3": 41, "cmc_proper_p": 1,
                         "sample_points": 1}

    def test_p_sweep_checks_each_point_against_the_domain_once(self, monkeypatch):
        # when its chunk's contexts are built, not at each check of each step
        # (the 41 steps made 492 calls for the 4 points)
        calls = []
        contains = ChartMetric.contains
        monkeypatch.setattr(ChartMetric, "contains",
                            lambda self, x: calls.append(x) or contains(self, x))
        sc = builtin("small_hypersphere(2, 0.8)")
        sweep(sc, "p", 2.0, 6.0, 41)
        assert calls == sc.sample_points() and len(calls) == 4

    def test_p_sweep_builds_each_point_once(self, monkeypatch):
        built = _count_immersion_points(monkeypatch)
        sc = builtin("small_hypersphere(2, 0.8)")
        sweep(sc, "p", 2.0, 6.0, 41)
        # one jet and one float context per point, for all 41 steps
        assert built == {x: 2 for x in sc.sample_points()}

    def test_sweep_of_a_read_parameter_rebuilds_every_step(self, monkeypatch):
        built = _count_immersion_points(monkeypatch)
        sc = builtin("small_hypersphere(2, 0.8)")
        sweep(sc, "a", 0.5, 0.9, 3)
        assert built == {x: 2 * 3 for x in sc.sample_points()}

    def test_contexts_do_not_outlive_a_call(self, monkeypatch):
        built = _count_immersion_points(monkeypatch)
        sc = builtin("small_hypersphere(2, 0.8)")
        points = sc.sample_points()
        for calls, call in enumerate((lambda: sweep(sc, "p", 2.0, 3.0, 3),
                                      lambda: sweep(sc, "p", 2.0, 3.0, 3),
                                      lambda: run(sc, overrides={"p": 2.0})), start=1):
            call()
            assert built == {x: 2 * calls for x in points}

    def test_a_sweep_shares_contexts_unless_a_tree_reads_its_parameter(self, monkeypatch):
        # the exclude tree reads r: each step of an r sweep is a one-step
        # `_run` on the points drawn at its own r; the steps of a p sweep are
        # one `_run`, on the points drawn once
        sc = Scenario.from_dict(make_scenario_dict(
            params={"p": 3.0, "r": 1.0}, checks=["p_harmonic", "p_biharmonic"],
            samples={"box": [[0.2, 1.0], [0.2, 1.0]], "points_per_axis": 3,
                     "exclude": ["x1^2 + x2^2 - r"]}))
        held, draws = [], []
        step_run, sample_points = scenarios._run, Scenario.sample_points

        def recording(scenario, steps, tol, strict):
            reports = step_run(scenario, steps, tol, strict)
            held.append([sorted({r.point for r in rep.rows}) for rep in reports])
            return reports

        monkeypatch.setattr(scenarios, "_run", recording)
        monkeypatch.setattr(Scenario, "sample_points",
                            lambda self, params=None: draws.append(params)
                            or sample_points(self, params))
        sweep(sc, "r", 0.4, 1.2, 41)
        assert len(held) == 41 and all(len(steps) == 1 for steps in held)
        assert len({len(points) for (points,) in held}) > 1 and len(draws) == 41
        held.clear()
        draws.clear()
        sweep(sc, "p", 2.0, 4.0, 5)
        (steps,) = held
        assert len(steps) == 5 and all(points == steps[0] for points in steps)
        assert len(draws) == 1 and sorted(sc.sample_points()) == steps[0]

    def test_point_failures_repeat_at_every_step(self, tmp_path):
        sc = Scenario.from_dict(cusp_immersion_dict())
        result = sweep(sc, "p", 2.0, 4.0, 5)
        failed = [[(r.point, r.note) for r in rep.rows if math.isnan(r.residual)]
                  for rep in result.reports]
        assert failed[0] and all(f == failed[0] for f in failed)
        assert all(r.point[0] == 0.0 and "rank" in r.note
                   for rep in result.reports for r in rep.rows if math.isnan(r.residual))
        for v, rep in zip(result.values, result.reports):
            assert rep.to_csv() == run(sc, overrides={"p": v}).to_csv()
        path = tmp_path / "cusp.json"
        path.write_text(json.dumps(cusp_immersion_dict()))
        assert cli_main(["sweep", str(path), "--param", "p", "--from", "2", "--to", "4",
                         "--steps", "3", "--strict"]) == 3

    def test_sample_points_parse_nothing_after_the_first_build(self, monkeypatch):
        sc = builtin("proper_pbh_cylinder")
        sc.build()
        calls = []
        parse = scenarios.parse
        monkeypatch.setattr(scenarios, "parse", lambda *a: calls.append(a) or parse(*a))
        points = sc.sample_points()
        for p in (2.0, 3.0, 4.0):
            assert sc.sample_points({"p": p}) == points
        sweep(sc, "p", 2.0, 4.0, 3)
        assert calls == []


class TestCli:
    def test_builtin_list(self, capsys):
        assert cli_main(["builtin", "list"]) == 0
        out = capsys.readouterr().out
        assert "inversion(n)" in out
        assert "proper_pbh_cylinder" in out

    def test_run_builtin_pass_and_fail(self, capsys):
        assert cli_main(["run", "inversion(3)", "--set", "l=2", "--p", "3"]) == 0
        assert cli_main(["run", "inversion(3)", "--set", "l=2.3", "--p", "3"]) == 1

    @pytest.mark.parametrize("operator, code", [("+", 0), ("/", 1)], ids=["sum", "quotient"])
    def test_the_tallest_parseable_trees_end_in_a_report(self, operator, code, tmp_path, capsys):
        """A chain of `_MAX_HEIGHT` terms is as tall as `parse` accepts; its
        second derivatives (p_biharmonic) are taller still."""
        terms = (["x1", "x2"] * expr._MAX_HEIGHT)[:expr._MAX_HEIGHT]
        component = f" {operator} ".join(terms)
        with pytest.raises(ExprSyntaxError, match="nests too deeply"):
            expr.parse(f"{component} {operator} x1", 2)
        path = tmp_path / "tall.json"
        path.write_text(json.dumps(make_scenario_dict(
            components=[component, "x2"], params={"p": 3.0},
            checks=["p_harmonic", "p_biharmonic"])))
        assert cli_main(["run", str(path)]) == code
        assert "test_map: verdict" in capsys.readouterr().out

    def test_run_scenario_file_with_csv_output(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(make_scenario_dict()))
        out = tmp_path / "report.csv"
        code = cli_main(["run", str(path), "--out", str(out), "--format", "csv"])
        assert code == 1  # the test map is not harmonic
        assert out.read_text().startswith("scenario,check,p")

    def test_run_json_format(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli_main(["run", "proper_pbh_cylinder", "--p", "3",
                         "--out", str(out), "--format", "json"])
        assert code == 0
        assert json.loads(out.read_text())["summary"]["verdict"] == "pass"

    def test_schema_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(make_scenario_dict(schema="nope/0")))
        assert cli_main(["run", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_missing_file_is_treated_as_builtin_then_rejected(self, capsys):
        assert cli_main(["run", "no_such_scenario(1)"]) == 2

    def test_strict_singularity_exit_code(self, tmp_path, capsys):
        data = make_scenario_dict(
            components=["x1 / (x1^2 + x2^2)", "x2 / (x1^2 + x2^2)"],
            samples={"box": [[-0.3, 0.3], [-0.3, 0.3]], "points_per_axis": 1,
                     "seed": 1},
            params={"p": 3.0})
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(data))
        assert cli_main(["run", str(path), "--strict"]) == 3

    def test_sweep_cli(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli_main(["sweep", "small_hypersphere(2, 0.8)", "--param", "p",
                         "--from", "2", "--to", "4", "--steps", "9",
                         "--out", str(out)])
        captured = capsys.readouterr().out
        assert "crosses zero" in captured
        assert out.exists()
        # residuals off the critical p fail tolerance, so the sweep exits 1
        assert code == 1

    @pytest.mark.parametrize("steps", ["1", "0", "-3"])
    def test_sweep_steps_below_two_is_input_error(self, steps, capsys):
        assert cli_main(["sweep", "inversion(3)", "--param", "l", "--from", "1.8",
                         "--to", "2.2", "--steps", steps]) == 2
        assert "steps" in capsys.readouterr().err

    def test_summary_line_counts_nan_rows(self, tmp_path, capsys):
        path = tmp_path / "cusp.json"
        path.write_text(json.dumps(cusp_immersion_dict()))
        assert cli_main(["run", str(path)]) == 1
        out = capsys.readouterr().out
        assert "cusp: theorem_2_1: FAIL (max residual " in out
        assert out.split("\n")[0].endswith(", 3 of 9 rows NaN)")
        assert cli_main(["run", "inversion(3)", "--set", "l=2", "--p", "3"]) == 0
        out = capsys.readouterr().out
        assert "NaN" not in out
        assert "inversion(3): p_harmonic: pass (max residual " in out

    def test_a_check_whose_rows_are_all_nan_has_a_nan_max_residual(self, tmp_path, capsys):
        # p = 1e308 overflows every field of the cylinder
        out = tmp_path / "report.json"
        assert cli_main(["run", "proper_pbh_cylinder", "--p", "1e308",
                         "--out", str(out), "--format", "json"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("proper_pbh_cylinder: p_biharmonic: FAIL "
                            "(max residual nan, 8 of 8 rows NaN)")
        text = out.read_text()
        assert "NaN" not in text
        checks = json.loads(text)["summary"]["checks"]
        assert len(checks) == 3
        assert all(entry["max_residual"] is None for entry in checks.values())

    def test_an_overflowing_run_warns_nothing(self, tmp_path, capsys):
        # the single-point path overflows to inf and NaN silently, as floats do
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["run", "proper_pbh_cylinder", "--p", "1e308",
                             "--out", str(out), "--format", "json"]) == 1
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["summary"]["verdict"] == "fail"

    def test_bad_set_syntax(self, capsys):
        assert cli_main(["run", "inversion(3)", "--set", "l"]) == 2

    @pytest.mark.parametrize("command", [
        ["run", "proper_pbh_cylinder"],
        ["sweep", "small_hypersphere(2, 0.8)", "--param", "p", "--steps", "3",
         "--from", "2", "--to", "4"]])
    @pytest.mark.parametrize("out", ["directory", "missing_parent"])
    def test_unwritable_out_fails_before_the_run(self, command, out, tmp_path, capsys,
                                                 monkeypatch):
        checked = []
        monkeypatch.setattr(scenarios, "_check_results", lambda *a: checked.append(a))
        path = tmp_path if out == "directory" else tmp_path / "missing" / "report.csv"
        assert cli_main([*command, "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and checked == []
        assert captured.err.startswith("input error: ") and "'--out'" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_input_error_leaves_no_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert cli_main(["run", "inversion(3)", "--p", "1.5", "--out", str(out)]) == 2
        assert not out.exists()


# a directory argument
TMP_DIR = "<tmp dir>"

# a scenario-file argument: the make_scenario_dict() fields updated with the
# mapping; bytes: a file holding those bytes; TMP_DIR: a directory
HOSTILE_INPUTS = [
    (["run", "inversion(3)", "--p", "1.5"], 2),
    (["run", "inversion(3)", "--set", "p=1.5"], 2),
    (["run", "inversion(3)", "--p", "nan"], 2),
    (["run", "inversion(3)", "--tol", "nan"], 2),
    (["run", "inversion(3)", "--tol", "-1"], 2),
    (["run", "inversion(3)", "--set", "l=2.3", "--p", "3", "--tol", "inf"], 2),
    (["sweep", "proper_pbh_cylinder", "--param", "p", "--from", "1.5", "--to", "3",
      "--steps", "3"], 2),
    # the far end of a p sweep is checked before the first step runs
    (["sweep", "inversion(3)", "--param", "p", "--from", "3", "--to", "1", "--steps", "5"], 2),
    (["run", "inversion(abc)"], 2),
    (["run", "inversion(2.5)"], 2),
    (["run", "small_hypersphere(2, x)"], 2),
    (["run", "small_hypersphere(0, 0.5)"], 2),
    (["run", {"params": {"p": 1.5}}], 2),
    (["run", {"params": {"p": {"from": 1.5, "to": 3.0, "steps": 3}}}], 2),
    (["run", {"samples": {"box": [["a", 1.0], [0.2, 1.0]], "points_per_axis": 2}}], 2),
    (["run", {"source": {"dim": True, "space_form": 0.0}}], 2),
    (["run", {"target": {"dim": True, "space_form": 0.0}}], 2),
    (["run", {"params": {"p": True}}], 2),
    (["run", {"tolerance": float("nan")}], 2),
    (["run", {"tolerance": float("inf")}], 2),
    # the p >= 2 rule covers the map checks only: p* = 1/b^2 = 4/3 here
    (["run", "small_hypersphere(2, 0.5)"], 0),
    (["run", "inversion(3)", "--tol", "1e-7"], 0),
    (["run", {"components": ["x1", "x2"]}], 0),
    (["run", {"components": ["x1 + 0.1*x2^2", "x2"]}], 1),
    # deeper nesting than the recursive parser allows
    (["run", {"components": ["(" * 2000 + "x1" + ")" * 2000, "x2"]}], 2),
    # a tree taller than the recursive evaluation and `diff` allow
    (["run", {"components": [" + ".join(["x1"] * 3000), "x2"]}], 2),
    (["run", TMP_DIR], 2),
    (["run", "inversion(3)", "--out", TMP_DIR], 2),
    (["run", b"\xff\xfe{}"], 2),
    (["run", "small_hypersphere(2,0.8)", "--p", "nan"], 2),
    (["run", "small_hypersphere(2,0.8)", "--set", "a=nan"], 2),
    (["run", "small_hypersphere(2,0.8)", "--set", "b=-inf"], 2),
    (["run", "proper_pbh_cylinder", "--p", "inf"], 2),
    (["sweep", "small_hypersphere(2,0.8)", "--param", "p", "--from", "nan", "--to", "4",
      "--steps", "3"], 2),
    (["sweep", "small_hypersphere(2,0.8)", "--param", "p", "--from", "2", "--to", "inf",
      "--steps", "3"], 2),
    # finite bounds whose difference overflows give non-finite steps
    (["sweep", "small_hypersphere(2,0.8)", "--param", "p", "--from=-1e308", "--to=1e308",
      "--steps", "3"], 2),
    (["run", {"params": {"p": float("nan")}}], 2),
    (["run", {"params": {"p": float("inf")}}], 2),
    (["run", {"params": {"p": 2.0, "c": float("-inf")}}], 2),
    (["run", {"params": {"p": {"from": 2.0, "to": float("inf"), "steps": 3}}}], 2),
    (["run", {"params": {"p": {"from": float("nan"), "to": 3.0, "steps": 3}}}], 2),
    (["run", {"samples": {"box": [[float("-inf"), 1.0], [0.2, 1.0]], "points_per_axis": 2}}],
     2),
    (["run", {"samples": {"box": [[0.2, 1.0], [0.2, float("inf")]], "points_per_axis": 2}}],
     2),
    (["run", {"target": {"dim": 2, "space_form": float("nan")}}], 2),
    # JSON integers too large for a float
    (["run", {"params": {"p": 2.0, "c": 10 ** 400}}], 2),
    (["run", {"tolerance": 10 ** 400}], 2),
    (["run", {"samples": {"box": [[0.2, 10 ** 400], [0.2, 1.0]], "points_per_axis": 2}}], 2),
    # a seed that numpy's generator rejects
    (["run", {"samples": {"box": [[0.2, 1.0], [0.2, 1.0]], "random_points": 2, "seed": -1}}],
     2),
    # a grid of 10^18 points, which numpy cannot allocate
    (["run", {"source": {"dim": 3, "space_form": 0.0}, "target": {"dim": 3, "space_form": 0.0},
              "components": ["x1", "x2", "x3 + 0.1*x1^2"],
              "samples": {"box": [[0.2, 1.0]] * 3, "points_per_axis": 1000000}}], 2),
    # finite box bounds whose width overflows, which numpy's uniform draw rejects
    (["run", {"samples": {"box": [[-1e308, 1e308]] * 2, "random_points": 2, "seed": 3}}], 2),
    # 10^15 draws, each excluded: sampling would give up only after 10^18 of them
    (["run", {"samples": {"box": [[0.2, 1.0]] * 2, "random_points": 10 ** 15,
                          "exclude": ["-1"]}}], 2),
    # a 0-dimensional immersion source, whose induced metric has no chart spec
    (["run", {"kind": "immersion", "source": {"dim": 0}, "target": {"dim": 1, "space_form": 0.0},
              "components": ["1"], "samples": {"box": [], "points_per_axis": 2},
              "checks": ["theorem_2_1"]}], 2),
]


@pytest.mark.parametrize("argv, code", HOSTILE_INPUTS)
def test_input_table_exit_codes(argv, code, tmp_path, capsys):
    args = []
    for a in argv:
        if isinstance(a, dict):
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(make_scenario_dict(**a)))
            a = str(path)
        elif isinstance(a, bytes):
            path = tmp_path / "scenario.json"
            path.write_bytes(a)
            a = str(path)
        elif a == TMP_DIR:
            a = str(tmp_path)
        args.append(a)
    assert cli_main(args) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("input error: ") and err.count("\n") == 1, err
