"""The public surface of pbh: the names a fresh `import pbh` exports, the
`python -m pbh` entry point (also with a closed stdout pipe), every module's
`__all__` (each entry exists and something outside the tests uses it), the
methods the benchmark tracer wraps by name, and the README's check lists."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import pbh

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

PUBLIC_NAMES = [
    # errors
    "DomainError", "ExprSyntaxError", "JetOrderError", "PbhError", "RankDeficiencyError",
    "SchemaError", "SingularMatrixError", "SingularityError", "UnknownIdentifierError",
    # expr, jets
    "Expression", "differentiate", "eval_jet", "parse", "JetScalar", "JetSpace", "lift_point",
    # geometry
    "ChartMetric", "euclidean_chart", "sectional_curvature", "space_form_chart",
    # mapcalc
    "SmoothMap", "p_bienergy_box", "p_bitension", "p_energy_box", "p_tension", "tension",
    # scenarios
    "ResidualReport", "Scenario", "builtin", "load_scenario", "run", "sweep",
    # stress
    "stress_divergence_check", "stress_tensor", "stress_trace",
    # submanifold
    "CmcResult", "Immersion", "bitension_split", "cmc_proper_p", "theorem21_residuals",
    "theorem23_residuals",
    # submodules the imports above load
    "errors", "expr", "geometry", "jets", "linalg", "mapcalc", "scenarios", "stress",
    "submanifold",
]


def _modules():
    return [importlib.import_module(f"pbh.{info.name}")
            for info in pkgutil.iter_modules(pbh.__path__)]


def _env():
    """The environment of a fresh interpreter that imports pbh from this checkout."""
    src = str(Path(pbh.__file__).resolve().parent.parent)
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _fresh_python(*args) -> str:
    """stdout of a fresh interpreter that imports pbh from this checkout."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=True, timeout=60, env=_env()).stdout


def test_public_names_of_a_fresh_import():
    # a fresh interpreter: importing pbh.verify or pbh.cli, as other tests
    # do, adds them to the package namespace
    out = _fresh_python(
        "-c", "import pbh; print(' '.join(n for n in dir(pbh) if not n.startswith('_')))").split()
    assert len(PUBLIC_NAMES) == 50
    assert sorted(out) == sorted(PUBLIC_NAMES)


def test_python_m_pbh_runs_the_cli():
    out = _fresh_python("-m", "pbh", "builtin", "list")
    assert out.splitlines()[0].startswith("inversion(n)")
    assert "proper_pbh_cylinder" in out


@pytest.mark.parametrize("args, status", [
    (["run", "inversion(3)"], 0),
    (["run", "inversion(3)", "--format", "json"], 0),
    (["sweep", "small_hypersphere(2, 0.8)", "--param", "p", "--from", "2", "--to", "6",
      "--steps", "3"], 1),
    (["verify-paper"], 0),
    (["builtin", "list"], 0),
])
def test_a_closed_stdout_pipe_ends_the_output_not_the_command(args, status):
    """A reader that has closed stdout (`pbh run ... | head -0`) gets no more
    output; the command ends without a traceback or a shutdown message, with
    the exit status of its verdict."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "pbh", *args], stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=120, env=_env())
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (status, "")


def test_every_all_entry_resolves():
    for mod in _modules():
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert missing == [], f"{mod.__name__}.__all__ names missing objects: {missing}"


def _assigned(tree, name):
    """The literal a module-level assignment gives `name`, or None."""
    return next((ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == name for t in node.targets)), None)


def _identifiers(tree) -> Counter:
    """How often each name and attribute name is used in tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _package_uses():
    """{path: `_identifiers`} of the pbh modules and the benchmark scripts, and
    {path: syntax tree} of the pbh modules. The package itself (not the
    re-exports of its __init__) or the benchmark must use each name: a name
    only the tests reach is dead code."""
    modules = sorted((ROOT / "src" / "pbh").glob("*.py"))
    trees = {path: ast.parse(path.read_text())
             for path in [*modules, *sorted((ROOT / "perfbench").glob("*.py"))]
             if path.name != "__init__.py"}
    return ({path: _identifiers(tree) for path, tree in trees.items()},
            {path: tree for path, tree in trees.items() if path.parent.name == "pbh"})


def _unused(uses, path, tree, names) -> list:
    """The `names` of module `path` that no other tree uses, and its own tree
    only inside the definition of that name."""
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    others = set().union(*(u for p, u in uses.items() if p != path))
    return [f"{path.stem}.{name}" for name in names if name not in others
            and uses[path][name] <= (_identifiers(defs[name])[name] if name in defs else 0)]


def test_every_all_entry_is_used_outside_the_tests():
    uses, modules = _package_uses()
    exported, unused = 0, []
    for path, tree in modules.items():
        names = _assigned(tree, "__all__")
        if names:
            exported += len(names)
            unused += _unused(uses, path, tree, names)
    assert exported > 0
    assert unused == []


def test_every_module_level_function_and_class_is_used_outside_the_tests():
    # private names too: a helper that only its tests call is dead code
    uses, modules = _package_uses()
    defined, unused = 0, []
    for path, tree in modules.items():
        names = [node.name for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defined += len(names)
        unused += _unused(uses, path, tree, names)
    assert defined > 100
    assert unused == []


def test_traced_methods_exist():
    methods = _assigned(ast.parse(TRACER.read_text()), "METHODS")
    assert methods
    for layer, classes in methods.items():
        mod = importlib.import_module(f"pbh.{layer}")
        for cls_name, attrs in classes.items():
            cls = getattr(mod, cls_name)
            missing = [attr for attr in attrs if attr not in vars(cls)]
            assert missing == [], f"pbh.{layer}.{cls_name} lacks {missing}"


def test_tracer_counts_lifted_points_and_uninstalls():
    """The benchmark's counters, installed and removed around one run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    hooked = [(pbh.mapcalc.MapPoint, "__init__"), (pbh.submanifold.ImmersionPoint, "__init__"),
              (pbh.jets.JetScalar, "__mul__")]
    originals = [cls.__dict__[attr] for cls, attr in hooked]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        pbh.run(pbh.builtin("small_hypersphere(2, 0.8)"))
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["mapcalc.points_lifted"] == counts["submanifold.points_lifted"] == 5
    assert [cls.__dict__[attr] for cls, attr in hooked] == originals


def test_readme_lists_the_checks_of_the_check_table():
    readme = (ROOT / "README.md").read_text()
    listed = re.search(r"^- Checks: (.*?)\.$", readme, re.M | re.S).group(1)
    needs_p_at_least_2 = re.search(r"the map checks \((.*?)\)", readme, re.S).group(1)
    checks = pbh.scenarios.CHECKS
    assert re.findall(r"`(\w+)`", listed) == list(checks)
    assert (re.findall(r"`(\w+)`", needs_p_at_least_2)
            == [c for c, entry in checks.items() if entry.kind == "map"])
