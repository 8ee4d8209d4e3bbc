"""Structural zeros stay floats through jet arithmetic, and nothing changes
but the cost: every field the paper's systems are built from, evaluated with
the rule (a float 0.0 or 1.0 operand never becomes a jet), equals the same
field evaluated with jet arithmetic that turns every float operand into
coefficients, coefficient for coefficient (up to the sign of an exact zero),
on every corpus map and immersion."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbh.jets import JetScalar, lift_point
from pbh.scenarios import builtin, run
from pbh.stress import _stress_matrix
from pbh.verify import corpus_immersions, corpus_maps

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=2)

# ---------------------------------------------------------------------- #
# the oracle: jet arithmetic without the structural-zero rule, in which an
# inline operand always becomes coefficients
# ---------------------------------------------------------------------- #


def oracle_add(self, other):
    o = self._coerce(other)
    if o is NotImplemented:
        return NotImplemented
    if o is None:
        c = self.c.copy()
        c[0] += other
        return JetScalar(self.space, c)
    return JetScalar(self.space, self.c + o.c)


def oracle_sub(self, other):
    o = self._coerce(other)
    if o is NotImplemented:
        return NotImplemented
    if o is None:
        c = self.c.copy()
        c[0] -= other
        return JetScalar(self.space, c)
    return JetScalar(self.space, self.c - o.c)


def oracle_mul(self, other):
    o = self._coerce(other)
    if o is NotImplemented:
        return NotImplemented
    if o is None:
        return JetScalar(self.space, self.c * other)
    sp = self.space
    if sp.order <= 1:
        a0, b0 = self.c[0], o.c[0]
        prod = self.c * b0 + o.c * a0
        prod[0] = a0 * b0
        return JetScalar(sp, prod)
    if not sp.batched:
        terms = self.c[sp._mul_i] * o.c[sp._mul_j]
        return JetScalar(sp, np.bincount(sp._mul_k, terms, sp.size))
    terms = self.c.take(sp._mul_i, 0)
    terms *= o.c.take(sp._mul_j, 0)
    size = terms.shape[1]
    prod = np.bincount(sp.batch_bins(size), terms.ravel(), sp.size * size)
    return JetScalar(sp, prod.reshape(sp.size, size))


@contextlib.contextmanager
def oracle_arithmetic():
    names = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__")
    saved = {name: JetScalar.__dict__[name] for name in names}
    for name, op in zip(names, (oracle_add, oracle_add, oracle_sub, oracle_mul, oracle_mul)):
        setattr(JetScalar, name, op)
    try:
        yield
    finally:
        for name, op in saved.items():
            setattr(JetScalar, name, op)


# ---------------------------------------------------------------------- #
# the fields, and their coefficients
# ---------------------------------------------------------------------- #

MAPS = [(name, obj, box, False) for name, obj, box in corpus_maps()]
IMMERSIONS = [(name, obj, box, True) for name, obj, box in corpus_immersions()]


def _fields(obj, is_immersion, X, p):
    """Each field at the batched point X, or the class of the exception it raised."""
    mp = (obj(p) if callable(obj) else obj).at(X)
    readers = {"sff": lambda: mp.sff, "p_tension": lambda: mp.p_tension(p),
               "dp_tension": lambda: mp.dp_tension(p), "p_bitension": lambda: mp.p_bitension(p),
               "stress_matrix": lambda: _stress_matrix(mp, p)}
    if is_immersion:
        readers.update(bitension_split=lambda: mp.bitension_split(p),
                       general_residuals=lambda: mp.general_residuals(p))
    out = {}
    for name, read in readers.items():
        try:
            out[name] = read()
        except Exception as exc:  # the class is compared
            out[name] = type(exc)
    return out


def _leaves(v):
    if isinstance(v, (list, tuple)):
        for item in v:
            yield from _leaves(item)
    else:
        yield v


def _coefficients(v, like):
    """repr of every coefficient of v, laid out as the oracle's value `like`: a
    float stands for the constant jet (or the array of base values) it replaces.
    The sign of an exact zero is not compared (t + 0.0 is 0.0 for t = -0.0):
    x - 0.0 * y gives a zero the sign of x where the rule gives x itself."""
    if isinstance(v, JetScalar):
        c = v.c
    else:
        c = np.zeros(np.shape(like.c if isinstance(like, JetScalar) else like))
        if isinstance(like, JetScalar):
            c[0] = v
        else:
            c[...] = v
    return [repr(t + 0.0) for t in c.ravel().tolist()]


def _batched_point(box):
    coordinate = [st.floats(lo, hi, allow_nan=False) for lo, hi in box]
    return st.lists(st.tuples(*coordinate), min_size=3, max_size=3).map(
        lambda pts: tuple(np.array(axis) for axis in zip(*pts)))


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("name, obj, box, is_immersion", MAPS + IMMERSIONS,
                         ids=[entry[0] for entry in MAPS + IMMERSIONS])
@SETTINGS
@given(data=st.data())
def test_fields_equal_the_oracle_coefficient_for_coefficient(name, obj, box, is_immersion, p,
                                                             data):
    X0 = data.draw(_batched_point(box))
    got = _fields(obj, is_immersion, lift_point(X0, 3), p)
    with oracle_arithmetic():
        want = _fields(obj, is_immersion, lift_point(X0, 3), p)
    for field, oracle in want.items():
        if isinstance(oracle, type):
            assert got[field] is oracle, field
            continue
        pairs = list(zip(_leaves(got[field]), _leaves(oracle), strict=True))
        for v, w in pairs:
            # the rule only keeps floats floats; a jet of the oracle may be a float here
            assert isinstance(v, JetScalar) <= isinstance(w, JetScalar), field
            assert _coefficients(v, w) == _coefficients(w, w), field


def test_a_cylinder_run_adds_no_int_to_a_jet(monkeypatch):
    """Sums of jets start from the float 0.0, which the rule hands through;
    sum()'s default start, the int 0, would copy the first term."""
    int_adds = []
    radd = JetScalar.__radd__

    def spying(self, other):
        if type(other) is int:
            int_adds.append(other)
        return radd(self, other)

    monkeypatch.setattr(JetScalar, "__radd__", spying)
    assert len(run(builtin("proper_pbh_cylinder"), {"p": 3.0}).rows) == 24
    assert int_adds == []
    sum(lift_point((0.5, 0.7), 1))  # the spy sees an int start
    assert int_adds == [0]
