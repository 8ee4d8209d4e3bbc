"""The public surface of pbh: the names a fresh `import pbh` exports, every
module's `__all__`, and the methods the benchmark tracer wraps by name."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pbh

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

PUBLIC_NAMES = [
    # errors
    "DomainError", "ExprSyntaxError", "JetOrderError", "NotPositiveDefiniteError", "PbhError",
    "RankDeficiencyError", "SchemaError", "SingularMatrixError", "SingularityError",
    "UnknownIdentifierError",
    # expr, jets
    "Expression", "differentiate", "eval_jet", "parse", "JetScalar", "JetSpace", "lift_point",
    # geometry
    "ChartMetric", "christoffel", "divergence", "divergence_2tensor", "euclidean_chart",
    "sectional_curvature", "space_form_chart",
    # mapcalc
    "FieldAlongMap", "SmoothMap", "p_bienergy_box", "p_bitension", "p_energy_box", "p_tension",
    "pullback_derivative", "tension",
    # scenarios
    "ResidualReport", "Scenario", "builtin", "load_scenario", "run", "sweep",
    # stress
    "stress_divergence_check", "stress_tensor", "stress_trace",
    # submanifold
    "CmcResult", "Immersion", "bitension_split", "circle_immersion", "cmc_proper_p",
    "graph_hypersurface_immersion", "small_hypersphere_immersion", "theorem21_residuals",
    "theorem23_residuals",
    # submodules the imports above load
    "errors", "expr", "geometry", "jets", "linalg", "mapcalc", "scenarios", "stress",
    "submanifold",
]


def _modules():
    return [importlib.import_module(f"pbh.{info.name}")
            for info in pkgutil.iter_modules(pbh.__path__)]


def test_public_names_of_a_fresh_import():
    # a fresh interpreter: importing pbh.verify or pbh.cli, as other tests
    # do, adds them to the package namespace
    src = str(Path(pbh.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         "import pbh; print(' '.join(n for n in dir(pbh) if not n.startswith('_')))"],
        capture_output=True, text=True, check=True, timeout=60, env=env).stdout.split()
    assert len(PUBLIC_NAMES) == 59
    assert sorted(out) == sorted(PUBLIC_NAMES)


def test_every_all_entry_resolves():
    for mod in _modules():
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert missing == [], f"{mod.__name__}.__all__ names missing objects: {missing}"


def test_traced_methods_exist():
    tree = ast.parse(TRACER.read_text())
    methods = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "METHODS" for t in node.targets))
    assert methods
    for layer, classes in methods.items():
        mod = importlib.import_module(f"pbh.{layer}")
        for cls_name, attrs in classes.items():
            cls = getattr(mod, cls_name)
            missing = [attr for attr in attrs if attr not in vars(cls)]
            assert missing == [], f"pbh.{layer}.{cls_name} lacks {missing}"
