"""Acceptance suite: every headline criterion, one pass/fail line each.

The same criterion functions back `pbh verify-paper`; here one `run_all`
runs them, with the fixed tolerances baked into pbh.verify, and each result
is its own test. The printed
`verify-paper` lines are also held to the ones the benchmark keeps in
`perfbench/golden/paper.json` (read only), so a drift in a criterion's detail
fails here and not only in the benchmark.
"""

import json
from pathlib import Path

import pytest

from pbh.verify import CRITERIA, run_all

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "paper.json"


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
    golden = json.loads(GOLDEN.read_text())
    assert ([(r.name, r.passed, r.detail) for r in results.values()]
            == [(c["name"], c["passed"], c["detail"]) for c in golden])
