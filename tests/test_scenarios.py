"""Scenario schema, built-ins, run/sweep engine, reports, and the CLI."""

import json
import math

import pytest

from pbh.cli import main as cli_main
from pbh.errors import SchemaError, SingularityError
from pbh.jets import JetScalar, value
from pbh.mapcalc import MapPoint, p_bitension, p_tension
from pbh.scenarios import (SCHEMA_VERSION, Scenario, builtin, load_scenario,
                           run, sweep)
from pbh.stress import stress_divergence_check, trace_identity
from pbh.submanifold import (Immersion, cmc_proper_p, theorem21_residuals,
                             theorem23_residuals)


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
        ({"checks": ["not_a_check"]}, "checks"),
        ({"checks": []}, "checks"),
        ({"tolerance": -1.0}, "tolerance"),
        ({"samples": {"box": [[0.2, 1.0]], "points_per_axis": 2}}, "samples.box"),
        ({"samples": {"box": [[0.2, 1.0], [0.2, 1.0]]}}, "samples"),
        ({"params": {"p": "two"}}, "params.p"),
        ({"checks": ["theorem_2_1"]}, "checks"),
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
        assert rep.max_residual("p_harmonic") < 1e-8
        # p-harmonic maps on the box have vanishing p-bienergy
        assert rep.extras["energy_quadrature"]["E_2p"] < 1e-12
        assert rep.extras["energy_quadrature"]["E_p"] > 0.0

    def test_run_inversion_off_critical_fails_with_magnitude(self):
        rep = run(builtin("inversion(3)"), overrides={"l": 2.2, "p": 3.0})
        assert not rep.verdict
        assert rep.max_residual("p_harmonic") > 1e-3

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

    def test_all_points_excluded_fails(self, tmp_path, capsys):
        data = make_scenario_dict(samples={"box": [[0.2, 1.0], [0.2, 1.0]],
                                           "points_per_axis": 2, "exclude": ["-1"]})
        rep = run(Scenario.from_dict(data))
        assert rep.rows == []
        assert not rep.verdict
        assert rep.summary()["verdict"] == "fail"
        path = tmp_path / "excluded.json"
        path.write_text(json.dumps(data))
        assert cli_main(["run", str(path)]) == 1
        assert "no rows checked" in capsys.readouterr().err


def _public_residual(check, obj, x, p):
    """A report row's residual, recomputed from the float-point public wrappers."""
    imm = obj if isinstance(obj, Immersion) else None
    phi = imm.map if imm is not None else obj

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
        tr, _, form_alg, form_div = trace_identity(phi, x, p)
        return max(abs(tr - form_alg), abs(tr - form_div))
    if check == "theorem_2_3":
        scalar, tangent = theorem23_residuals(imm, x, p)
        return max(abs(scalar), g_norm(tangent))
    if check == "cmc_proper_p":
        p = cmc_proper_p(imm, x).p_star
    normal, tangent = theorem21_residuals(imm, x, p)
    return max(h_norm(normal), g_norm(tangent))


class TestEvaluationContexts:
    @pytest.mark.parametrize("name, p", [
        ("proper_pbh_cylinder", 2.0), ("proper_pbh_cylinder", 3.0),
        ("proper_pbh_cylinder", 4.0), ("small_hypersphere(2, 0.8)", 3.0),
        ("inversion(3)", 2.0), ("inversion(3)", 3.0)])
    def test_run_rows_equal_public_wrappers(self, name, p):
        sc = builtin(name)
        obj = sc.build({"p": p})
        rep = run(sc, overrides={"p": p})
        point_rows = [r for r in rep.rows if r.point]
        assert len(point_rows) == len(sc.sample_points()) * len(
            [c for c in sc.checks if c != "energy_quadrature"])
        for r in point_rows:
            assert repr(r.residual) == repr(_public_residual(r.check, obj, r.point, p)), r

    def test_one_jet_lift_per_sample_point(self, monkeypatch):
        lifted = []
        init = MapPoint.__init__

        def counting_init(self, smooth_map, X):
            if isinstance(X[0], JetScalar):
                lifted.append(tuple(value(c) for c in X))
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
        crossings = [c for c in result.crossings if c["check"] == "theorem_2_1"]
        assert crossings, "expected a sign crossing of the normal residual"
        assert crossings[0]["value"] == pytest.approx(1.0 / b2, abs=0.1)

    def test_sweep_uses_declared_range(self):
        data = make_scenario_dict(params={"p": {"from": 2.0, "to": 3.0, "steps": 3}})
        sc = Scenario.from_dict(data)
        result = sweep(sc, "p")
        assert result.values == [2.0, 2.5, 3.0]

    def test_sweep_undeclared_parameter(self):
        with pytest.raises(SchemaError):
            sweep(builtin("inversion(3)"), "zeta", 0.0, 1.0, 3)

    def test_sweep_csv_has_single_header(self):
        sc = builtin("inversion(3)")
        result = sweep(sc, "l", 1.8, 2.2, 3, overrides={"p": 3.0})
        text = result.to_csv()
        assert text.count("scenario,check,p") == 1


class TestCli:
    def test_builtin_list(self, capsys):
        assert cli_main(["builtin", "list"]) == 0
        out = capsys.readouterr().out
        assert "inversion(n)" in out
        assert "proper_pbh_cylinder" in out

    def test_run_builtin_pass_and_fail(self, capsys):
        assert cli_main(["run", "inversion(3)", "--set", "l=2", "--p", "3"]) == 0
        assert cli_main(["run", "inversion(3)", "--set", "l=2.3", "--p", "3"]) == 1

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

    def test_bad_set_syntax(self, capsys):
        assert cli_main(["run", "inversion(3)", "--set", "l"]) == 2


# a scenario-file argument: the make_scenario_dict() fields updated with the mapping
HOSTILE_INPUTS = [
    (["run", "inversion(3)", "--p", "1.5"], 2),
    (["run", "inversion(3)", "--set", "p=1.5"], 2),
    (["run", "inversion(3)", "--p", "nan"], 2),
    (["run", "inversion(3)", "--tol", "nan"], 2),
    (["run", "inversion(3)", "--tol", "-1"], 2),
    (["run", "inversion(3)", "--set", "l=2.3", "--p", "3", "--tol", "inf"], 2),
    (["sweep", "proper_pbh_cylinder", "--param", "p", "--from", "1.5", "--to", "3",
      "--steps", "3"], 2),
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
]


@pytest.mark.parametrize("argv, code", HOSTILE_INPUTS)
def test_input_table_exit_codes(argv, code, tmp_path, capsys):
    args = []
    for a in argv:
        if isinstance(a, dict):
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(make_scenario_dict(**a)))
            a = str(path)
        args.append(a)
    assert cli_main(args) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("input error: ") and err.count("\n") == 1, err
