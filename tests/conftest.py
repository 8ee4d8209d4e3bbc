"""Shared fixtures: counts of the work a computation does, for the guards that
pin it (counts, not times, so they do not drift with machine noise)."""

import functools
import sys
from collections import Counter

import pytest

from pbh import expr, jets
from pbh.jets import JetScalar


def _node_classes(cls=expr.Expression):
    for sub in cls.__subclasses__():
        yield sub
        yield from _node_classes(sub)


class OperationCounts(Counter):
    """Counts while the test runs:

    - ``nodes``: node computations (a node class applies its `OPERATION`);
    - ``products``: jet x jet products, and ``repeated_products`` those whose
      ordered operand pair (by object) was multiplied before;
      ``repeated_products:<module>`` splits them by the calling module;
    - ``composes``: `jets._compose` calls, and ``repeated_inversions`` the
      reciprocals formed of a jet that was inverted before.

    The operands are kept alive until `reset`, so an id is never reused."""

    def __init__(self):
        super().__init__()
        self.pairs, self.inverted = {}, {}

    def reset(self):
        self.clear()
        self.pairs.clear()
        self.inverted.clear()


@pytest.fixture
def operation_counts(monkeypatch):
    counts = OperationCounts()
    mul, compose = JetScalar.__mul__, jets._compose
    reciprocal = jets._reciprocal.__code__

    def counting_mul(a, b):
        if isinstance(b, JetScalar):
            counts["products"] += 1
            key = (id(a), id(b))
            if key in counts.pairs:
                counts["repeated_products"] += 1
                caller = sys._getframe(1)  # a node's OPERATION runs in `counting` below
                module = caller.f_globals["__name__"]
                if caller.f_code is counting.__code__:
                    module = "pbh.expr"
                counts[f"repeated_products:{module}"] += 1
            counts.pairs[key] = (a, b)
        return mul(a, b)

    def counting_compose(u, taylor):
        counts["composes"] += 1
        if sys._getframe(1).f_code is reciprocal:
            counts["repeated_inversions"] += id(u) in counts.inverted
            counts.inverted[id(u)] = u
        return compose(u, taylor)

    def counting(*operands, _operation=None):
        counts["nodes"] += 1
        return _operation(*operands)

    monkeypatch.setattr(JetScalar, "__mul__", counting_mul)
    monkeypatch.setattr(jets, "_compose", counting_compose)
    for cls in _node_classes():
        if "OPERATION" in cls.__dict__:
            monkeypatch.setattr(cls, "OPERATION",
                                staticmethod(functools.partial(counting, _operation=cls.OPERATION)))
    # every node class with derivative rules (all but the leaves) is counted
    assert all(getattr(cls.OPERATION, "func", None) is counting for cls in _node_classes()
               if "_diff" in cls.__dict__)
    return counts
