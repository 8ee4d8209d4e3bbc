"""The acceptance criteria read shared point contexts: one lifted context per
(object, sample point) serves every p and both pipelines, with the values of
one fresh context per call."""

import numpy as np
import pytest

from pbh.geometry import ChartMetric
from pbh.jets import lift_point, value
from pbh.stress import (stress_divergence_at, stress_divergence_check, trace_identity,
                        trace_identity_at)
from pbh.submanifold import (ImmersionPoint, bitension_split, theorem21_residuals,
                             theorem23_residuals)
from pbh.verify import (P_VALUES, _points, corpus_immersions, corpus_maps,
                        criterion_bitension_cross_check)

IMMERSIONS = corpus_immersions()
FIXED_MAPS = [entry for entry in corpus_maps() if not callable(entry[1])]


def _values(pair):
    """A residual pair with jet entries replaced by their values, as the wrappers return it."""
    first, second = pair
    first = [value(v) for v in first] if isinstance(first, list) else value(first)
    return first, [value(v) for v in second]


@pytest.mark.parametrize("name, imm, box", IMMERSIONS, ids=[e[0] for e in IMMERSIONS])
def test_shared_immersion_point_equals_wrappers(name, imm, box):
    for x in _points(np.random.default_rng(11), box, 2):
        ip = imm.at(lift_point(x, 3))
        for p in P_VALUES:
            assert repr(ip.bitension_split(p)) == repr(bitension_split(imm, x, p))
            assert (repr(_values(ip.general_residuals(p)))
                    == repr(theorem21_residuals(imm, x, p)))
            assert (repr(_values(ip.hypersurface_residuals(p)))
                    == repr(theorem23_residuals(imm, x, p)))


@pytest.mark.parametrize("name, phi, box", FIXED_MAPS, ids=[e[0] for e in FIXED_MAPS])
def test_shared_map_point_equals_stress_wrappers(name, phi, box):
    for x in _points(np.random.default_rng(12), box, 2):
        mp = phi.at(lift_point(x, 3))
        for p in P_VALUES:
            assert repr(stress_divergence_at(mp, p)) == repr(stress_divergence_check(phi, x, p))
            assert repr(trace_identity_at(mp, p)) == repr(trace_identity(phi, x, p))


def test_target_curvature_is_computed_once_per_point(monkeypatch):
    phi = dict((e[0], e[1]) for e in FIXED_MAPS)["curved_target"]
    calls = []
    curvature_at = ChartMetric.curvature_at
    monkeypatch.setattr(ChartMetric, "curvature_at",
                        lambda self, *a, **k: calls.append(a) or curvature_at(self, *a, **k))
    mp = phi.at(lift_point((0.7, 0.5), 3))
    for p in P_VALUES:
        mp.p_bitension(p)
    mp.forget_scratch()
    mp.p_bitension(3.0)
    assert len(calls) == 1


def test_bitension_cross_check_lifts_each_point_once(monkeypatch):
    built = []
    init = ImmersionPoint.__init__
    monkeypatch.setattr(ImmersionPoint, "__init__",
                        lambda self, imm, X: built.append(X) or init(self, imm, X))
    assert criterion_bitension_cross_check().passed
    assert len(built) == len(IMMERSIONS) * 5 == 30
    assert all(X[0].space.order == 3 for X in built)
