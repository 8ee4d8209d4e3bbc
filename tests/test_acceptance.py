"""Acceptance suite: every headline criterion, one pass/fail line each.

The same criterion functions back `pbh verify-paper`; here one `run_all`
runs them, with the fixed tolerances baked into pbh.verify, and each result
is its own test. The printed
`verify-paper` lines are also held to the ones the benchmark keeps in
`perfbench/golden/paper.json` (read only), so a drift in a criterion's detail
fails here and not only in the benchmark. So are the reports of the
benchmark's other workloads, byte for byte, to the rest of `perfbench/golden/`.

The corpus maps and immersions are built once per process and kept by
`pbh.verify`: later passes print the same lines and construct only the
objects that stay fresh.
"""

import json
from pathlib import Path

import pytest

from pbh import mapcalc, submanifold, verify
from pbh.scenarios import Scenario, builtin, run, sweep
from pbh.verify import CRITERIA, run_all

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"

# the parsed scenarios and the corpus that the criteria keep for the process
VERIFY_CACHES = [fn for fn in vars(verify).values()
                 if hasattr(fn, "cache_clear") and fn.__module__ == verify.__name__]


@pytest.fixture(scope="module")
def results():
    """The criterion results of one `run_all`, by criterion function."""
    _ok, results = run_all()
    return dict(zip(CRITERIA, results))


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(criterion, results):
    result = results[criterion]
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_verify_paper_output_equals_golden(results):
    golden = json.loads((GOLDEN / "paper.json").read_text())
    assert ([(r.name, r.passed, r.detail) for r in results.values()]
            == [(c["name"], c["passed"], c["detail"]) for c in golden])


def test_benchmark_reports_equal_golden():
    # the cylinder over a pool of 48 random points at p = 2, 3, 4, under one header
    data = builtin("proper_pbh_cylinder").to_dict()
    data["samples"].update(random_points=48, seed=12)
    pool = Scenario.from_dict(data)
    csvs = [run(pool, overrides={"p": p}).to_csv() for p in (2.0, 3.0, 4.0)]
    assert (csvs[0] + "".join(c.split("\n", 1)[1] for c in csvs[1:])
            == (GOLDEN / "cylinder_checks.csv").read_text())
    quadrature = run(builtin("inversion(3)"), overrides={"l": 2.0, "p": 3.0})
    assert quadrature.to_csv() == (GOLDEN / "quadrature.csv").read_text()
    swept = sweep(builtin("small_hypersphere(2, 0.8)"), "p", 2.0, 6.0, 41)
    assert swept.to_csv() == (GOLDEN / "hypersphere_sweep.csv").read_text()
    assert (json.dumps(swept.crossings, indent=1) + "\n"
            == (GOLDEN / "hypersphere_sweep.crossings.json").read_text())


@pytest.fixture(scope="module")
def passes():
    """(printed lines, (SmoothMap, Immersion) constructions) of each of three
    consecutive `run_all` calls, the first with the verify caches emptied."""
    built = []
    out = []
    with pytest.MonkeyPatch.context() as patch:
        for cls in (mapcalc.SmoothMap, submanifold.Immersion):
            def counting(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
                built.append(_cls)
                _init(self, *args, **kwargs)
            patch.setattr(cls, "__init__", counting)
        for cache in VERIFY_CACHES:
            cache.cache_clear()
        for _ in range(3):
            built.clear()
            lines = []
            run_all(lines.append)
            out.append((lines, (built.count(mapcalc.SmoothMap),
                                built.count(submanifold.Immersion))))
    return out


def test_consecutive_passes_print_the_golden_lines(passes):
    golden = [f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}"
              for c in json.loads((GOLDEN / "paper.json").read_text())]
    golden.append(f"PASS overall: {len(golden)}/{len(golden)} criteria passed")
    assert [lines for lines, _built in passes] == [golden] * 3


def test_later_passes_build_only_the_fresh_objects(passes):
    """The first pass builds the corpus (the inversion, cylinder and latitude
    sphere scenarios once each); every pass builds the two independent `inversion(3)` runs and
    the six perturbed maps of the first variation, and no immersion after
    the first."""
    assert [counts for _lines, counts in passes] == [(21, 6), (8, 0), (8, 0)]
