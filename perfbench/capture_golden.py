"""Write the golden outputs the benchmark compares every run against.

Run from the repository root at the commit whose reports are the reference:

    PYTHONPATH=src python3 perfbench/capture_golden.py

Files under perfbench/golden/:
  cylinder_checks.csv               run() at p = 2, 3, 4 over the 8 grid points
                                    and the 48-point pool the seed draws from
  quadrature.csv                    run("inversion(3)", l = 2, p = 3)
  hypersphere_sweep.csv             the 41-step sweep report
  hypersphere_sweep.crossings.json  its sign crossings
  paper.json                        the acceptance criteria's verdicts and details
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (CYLINDER_P, GOLDEN, QUADRATURE_OVERRIDES,  # noqa: E402
                       SWEEP_GRID, SWEEP_SCENARIO, cylinder_pool_scenario)


def main():
    from pbh import scenarios, verify

    GOLDEN.mkdir(exist_ok=True)
    pool = cylinder_pool_scenario()
    chunks = [scenarios.run(pool, overrides={"p": p}).to_csv() for p in CYLINDER_P]
    (GOLDEN / "cylinder_checks.csv").write_text(
        chunks[0] + "".join(c.split("\n", 1)[1] for c in chunks[1:]))

    quad = scenarios.run(scenarios.builtin("inversion(3)"), overrides=QUADRATURE_OVERRIDES)
    (GOLDEN / "quadrature.csv").write_text(quad.to_csv())

    lo, hi, steps = SWEEP_GRID
    result = scenarios.sweep(scenarios.builtin(SWEEP_SCENARIO), "p", lo, hi, steps)
    (GOLDEN / "hypersphere_sweep.csv").write_text(result.to_csv())
    (GOLDEN / "hypersphere_sweep.crossings.json").write_text(
        json.dumps(result.crossings, indent=1) + "\n")

    ok, results = verify.run_all()
    if not ok:
        raise SystemExit("acceptance criteria fail; refusing to record them as golden")
    (GOLDEN / "paper.json").write_text(json.dumps(
        [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        indent=1) + "\n")


if __name__ == "__main__":
    main()
