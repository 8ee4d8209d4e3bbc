"""The four benchmark workloads and their correctness checks.

Each workload builds its inputs from the benchmark seed, makes one cold pass
for the set-up measurement, and splits one steady-state iteration into parts
(public pbh calls). Every part's output is compared with the golden outputs
captured at the seed commit: report CSV lines keyed by (check, p, point),
sweep crossings, and the acceptance criteria's verdicts.

Why these four:

- cylinder_checks: order-3 jets in 3 variables and the stress pipeline, with
  every point lifted 7 times across its three checks.
- quadrature: float mode and order-1 jets at 1024 Gauss nodes that share no
  work; an order >= 2 kernel change should not move it.
- hypersphere_sweep: 2-variable order-2 jets, re-run 41 times on the same
  points with only p changing (p-independent caching shows only here).
- paper: `pbh verify-paper`, the only workload that builds fresh expressions
  in its steady state (symbolic diff, order-4 jets).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

CYLINDER_POOL = {"random_points": 48, "seed": 12}
CYLINDER_RANDOM = 16
CYLINDER_P = (2.0, 3.0, 4.0)
QUADRATURE_OVERRIDES = {"l": 2.0, "p": 3.0}
SWEEP_SCENARIO = "small_hypersphere(2, 0.8)"
SWEEP_GRID = (2.0, 6.0, 41)
SWEEP_P_STAR = 1.0 / (1.0 - 0.8 ** 2)


def ulp_distance(a: float, b: float) -> int:
    def ordered(x):
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)
    return abs(ordered(a) - ordered(b))


@dataclass
class Tally:
    """Correctness bookkeeping over every operation a run attempted."""

    attempted: int = 0
    failed: int = 0
    nan_rows: int = 0
    changed: set = field(default_factory=set)
    max_ulp: int = 0
    crossing_err: float = 0.0
    gate_errors: list = field(default_factory=list)

    def gate(self, ok: bool, message: str):
        if not ok and message not in self.gate_errors:
            self.gate_errors.append(message)

    def merge(self, other: "Tally"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.nan_rows += other.nan_rows
        self.changed |= other.changed
        self.max_ulp = max(self.max_ulp, other.max_ulp)
        self.crossing_err = max(self.crossing_err, other.crossing_err)
        for message in other.gate_errors:
            self.gate(False, message)


def _csv_rows(text: str) -> dict:
    """Report CSV body lines keyed by everything before the residual column."""
    out = {}
    for line in text.splitlines()[1:]:
        key, _residual, _flag = line.rsplit(",", 2)
        out[key] = line
    return out


def _check_csv(tally: Tally, csv_text: str, golden: dict, what: str):
    for key, line in _csv_rows(csv_text).items():
        tally.attempted += 1
        _k, residual, flag = line.rsplit(",", 2)
        if residual == "nan":
            tally.nan_rows += 1
        ref = golden.get(key)
        if ref is None:
            tally.failed += 1
            tally.changed.add(key)
            tally.gate(False, f"{what}: row not in golden output: {key}")
            continue
        _k, ref_residual, ref_flag = ref.rsplit(",", 2)
        if residual == "nan" or flag != ref_flag:
            tally.failed += 1
            tally.gate(False, f"{what}: row differs from its known answer: {line}")
        if line != ref:
            tally.changed.add(key)
            if residual != "nan":
                tally.max_ulp = max(tally.max_ulp,
                                    ulp_distance(float(residual), float(ref_residual)))


class Workload:
    name = ""
    rows_per_iteration = 0

    def __init__(self, seed: int):
        self.seed = seed

    def build(self):
        """Import pbh and construct the scenarios or maps (part of set-up)."""

    def cold_pass(self):
        """One pass over a single sample point per check (part of set-up)."""

    def parts(self):
        """[(label, callable)] making up one steady-state iteration."""
        raise NotImplementedError

    def check(self, tally: Tally, label: str, output):
        raise NotImplementedError

    def expected_ops(self, label: str) -> int:
        """Operations a part counts when it raises instead of returning."""
        return self.rows_per_iteration // len(self.parts())

    def dag_roots(self):
        """Maps and immersions whose trees the DAG size count walks."""
        return []


def _flat(nested):
    return [x for item in nested for x in (_flat(item) if isinstance(item, list) else [item])]


def dag_trees(obj, baseline_rule=False):
    """Component, metric and derivative trees (order <= 2) of a map or immersion.

    With `baseline_rule`, leave out first-derivative and pull-back metric
    trees: the subset the first DAG count in ROADMAP.md used.
    """
    phi = getattr(obj, "map", obj)
    charts = (phi.source, phi.target)
    roots = _flat([phi.components, phi._second()]
                  + [[c.components, c._second_derivs()] for c in charts])
    if not baseline_rule:
        roots += _flat([phi._first(), [c._first_derivs() for c in charts],
                        getattr(obj, "pullback_components", [])])
    return roots


def dag_size(roots):
    """(distinct node objects, distinct printed structures) reachable from roots."""
    seen = {}
    stack = list(roots)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            stack.extend(e._children())
    return len(seen), len({e.to_string() for e in seen.values()})


# ---------------------------------------------------------------------- #

def _fixed_points_scenario(base, points):
    """The scenario `base` evaluated at an explicit list of sample points."""
    from pbh.scenarios import Scenario

    @dataclass
    class FixedPoints(Scenario):
        points: list = field(default_factory=list)

        def sample_points(self, params=None):
            return list(self.points)

    scenario = FixedPoints(**{f.name: getattr(base, f.name) for f in fields(Scenario)},
                           points=list(points))
    if hasattr(base, "_base"):
        # share the parsed objects, so derivative trees built by one are reused
        object.__setattr__(scenario, "_base", base._base)
    return scenario


def cylinder_pool_scenario():
    from pbh import scenarios
    data = scenarios.builtin("proper_pbh_cylinder").to_dict()
    data["samples"].update(CYLINDER_POOL)
    return scenarios.Scenario.from_dict(data)


class CylinderChecks(Workload):
    """proper_pbh_cylinder: 8 grid points plus 16 points the seed draws from a
    golden pool of 48, three checks at p = 2, 3, 4 (216 rows)."""

    name = "cylinder_checks"
    rows_per_iteration = 3 * 3 * (8 + CYLINDER_RANDOM)

    def build(self):
        import numpy as np
        from pbh import scenarios
        self.scenarios = scenarios
        golden_csv = (GOLDEN / "cylinder_checks.csv").read_text()
        self.golden = _csv_rows(golden_csv)
        base = scenarios.builtin("proper_pbh_cylinder")
        grid = base.sample_points()
        pool = [pt for pt in (tuple(float(c) for c in line.split(",")[3:6])
                              for line in golden_csv.splitlines()[1:]
                              if line.split(",")[1:3] == ["p_biharmonic", "2.0"])
                if pt not in grid]
        chosen = np.random.default_rng(self.seed).choice(len(pool), CYLINDER_RANDOM,
                                                         replace=False)
        self.points = grid + [pool[int(i)] for i in chosen]
        self.scenario = _fixed_points_scenario(base, self.points)
        self.scenario.build()

    def cold_pass(self):
        one = _fixed_points_scenario(self.scenario, self.points[:1])
        self.scenarios.run(one, overrides={"p": 3.0})

    def parts(self):
        return [(f"p={p}", lambda p=p: self.scenarios.run(self.scenario, overrides={"p": p}))
                for p in CYLINDER_P]

    def check(self, tally, label, report):
        _check_csv(tally, report.to_csv(), self.golden, self.name)
        tally.gate(report.verdict, f"{self.name}: verdict fails at {label}")

    def dag_roots(self):
        return [self.scenario.build({"p": 3.0})]


class Quadrature(Workload):
    """inversion(3) at l = 2, p = 3: p_harmonic at 8 points and
    energy_quadrature over 2 x 512 Gauss nodes."""

    name = "quadrature"
    rows_per_iteration = 9

    def build(self):
        from pbh import mapcalc, scenarios
        self.scenarios, self.mapcalc = scenarios, mapcalc
        self.golden = _csv_rows((GOLDEN / "quadrature.csv").read_text())
        self.scenario = scenarios.builtin("inversion(3)")
        self.scenario.build(QUADRATURE_OVERRIDES)

    def cold_pass(self):
        params = {**self.scenario.params, **QUADRATURE_OVERRIDES}
        phi = self.scenario.build(params)
        x = self.scenario.sample_points(params)[0]
        p = params["p"]
        self.mapcalc.p_tension(phi, x, p)
        self.mapcalc.p_energy_box(phi, self.scenario.box, p, order=1)
        self.mapcalc.p_bienergy_box(phi, self.scenario.box, p, order=1)

    def parts(self):
        return [("run", lambda: self.scenarios.run(self.scenario,
                                                   overrides=QUADRATURE_OVERRIDES))]

    def check(self, tally, label, report):
        _check_csv(tally, report.to_csv(), self.golden, self.name)
        tally.gate(report.verdict, f"{self.name}: verdict fails")

    def dag_roots(self):
        return [self.scenario.build(QUADRATURE_OVERRIDES)]


class HypersphereSweep(Workload):
    """small_hypersphere(2, 0.8) swept over p in [2, 6] with 41 steps (492 rows);
    the crossing must lie within one grid step of p* = 1/(1 - a^2)."""

    name = "hypersphere_sweep"
    rows_per_iteration = 41 * 4 * 3

    def build(self):
        from pbh import scenarios
        self.scenarios = scenarios
        self.golden = _csv_rows((GOLDEN / "hypersphere_sweep.csv").read_text())
        self.golden_crossings = json.loads(
            (GOLDEN / "hypersphere_sweep.crossings.json").read_text())
        self.scenario = scenarios.builtin(SWEEP_SCENARIO)
        self.scenario.build()

    def cold_pass(self):
        one = _fixed_points_scenario(self.scenario, self.scenario.sample_points()[:1])
        self.scenarios.run(one, overrides={"p": SWEEP_GRID[0]})

    def parts(self):
        lo, hi, steps = SWEEP_GRID
        return [("sweep", lambda: self.scenarios.sweep(self.scenario, "p", lo, hi, steps))]

    def check(self, tally, label, result):
        _check_csv(tally, result.to_csv(), self.golden, self.name)
        lo, hi, steps = SWEEP_GRID
        step = (hi - lo) / (steps - 1)
        normal = [c["value"] for c in result.crossings if c["check"] == "theorem_2_1"]
        err = max((abs(v - SWEEP_P_STAR) for v in normal), default=math.inf)
        tally.crossing_err = max(tally.crossing_err, err)
        tally.gate(len(normal) == 1 and err <= step,
                   f"{self.name}: theorem_2_1 crossings {normal} not within {step} "
                   f"of p* = {SWEEP_P_STAR}")
        if result.crossings != self.golden_crossings:
            tally.changed.add("crossings")

    def dag_roots(self):
        return [self.scenario.build()]


class Paper(Workload):
    """pbh verify-paper: the nine acceptance criteria, all of which must pass."""

    name = "paper"
    rows_per_iteration = 9

    def build(self):
        from pbh import verify
        self.verify = verify
        self.golden = {c["name"]: c for c in
                       json.loads((GOLDEN / "paper.json").read_text())}
        self.maps = [(name, phi(3.0) if callable(phi) else phi)
                     for name, phi, _box in verify.corpus_maps()]
        self.immersions = [imm for _name, imm, _box in verify.corpus_immersions()]

    def cold_pass(self):
        from pbh import mapcalc, stress, submanifold
        from pbh.expr import eval_jet, parse
        phi = dict(self.maps)["cylinder"]
        x = (0.9, 1.1, 1.3)
        mapcalc.p_tension(phi, x, 3.0)
        mapcalc.p_bitension(phi, x, 3.0)
        stress.stress_divergence_check(phi, x, 3.0)
        stress.stress_trace(phi, x, 3.0)
        stress.stress_tensor(phi, x, 3.0)
        stress.theta_divergence(phi, x, 3.0)
        imm = self.immersions[0]
        y = (0.1, 0.2)
        submanifold.theorem21_residuals(imm, y, 3.0)
        submanifold.theorem23_residuals(imm, y, 3.0)
        submanifold.cmc_proper_p(imm, y)
        submanifold.bitension_split(imm, y, 3.0)
        eval_jet(parse("sin(x1) * exp(x2) / (1 + x1^2)", 2), (0.5, 0.7), 4)

    def parts(self):
        # looked up at call time, so the traced run sees the wrapped criteria
        return [(fn.__name__, lambda k=k: self.verify.CRITERIA[k]())
                for k, fn in enumerate(self.verify.CRITERIA)]

    def expected_ops(self, label):
        return 1

    def check(self, tally, label, result):
        tally.attempted += 1
        ref = self.golden.get(result.name)
        if not result.passed or ref is None:
            tally.failed += 1
            tally.gate(False, f"{self.name}: {label} failed: {result.detail}")
        elif result.detail != ref["detail"]:
            tally.changed.add(result.name)

    def dag_roots(self):
        return [phi for _name, phi in self.maps] + self.immersions


WORKLOADS = {w.name: w for w in (CylinderChecks, Quadrature, HypersphereSweep, Paper)}
