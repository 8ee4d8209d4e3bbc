"""Charts with metrics: Levi-Civita connection, curvature, and the divergence
operators on a chart.

All evaluation methods are generic over float-or-jet points. Metric
derivatives are taken symbolically (the components are expressions), so
Christoffel symbols and the curvature tensor are exact at any point type; a
chart builds its derivative tables (`dg`, `d2g`) when it is constructed.
The divergence operators take the Christoffel symbols (and inverse metric) and
the field's components at a jet point, and differentiate the components by one
jet shift; a caller lifts its point to the order its field consumes plus one.
`sectional_curvature` is the one reader over a float point, or a batched
float point (one (P,) array per coordinate). The kernels are plain loops
over every index that multiply through one memo per call (`_product_memo`),
so an ordered pair of jets that several entries read is multiplied once,
and the floats are those of the loops.
"""

from __future__ import annotations

import itertools
from functools import cache

from . import linalg
from .expr import Const, parse, share_subtrees
from .jets import JetScalar, any_entry, partial, value

__all__ = [
    "ChartMetric", "space_form_chart", "euclidean_chart", "divergence_at",
    "divergence_2tensor_at", "sectional_curvature",
]


class ChartMetric:
    """A single coordinate chart of dimension d with metric components g_ij.

    Components are expressions over the chart's own coordinates; the
    constructor symmetrizes them. `params` holds the bound values for any
    named parameters appearing in the component expressions. The chart keeps
    `table`, the derivative table it builds dg and d2g in (a new one when None).
    """

    def __init__(self, dim, components, params=None, space_form_c=None, domain=None,
                 table=None):
        d = self.dim = int(dim)
        if len(components) != d or any(len(r) != d for r in components):
            raise ValueError(f"metric components must form a {d}x{d} matrix")
        comps = [[None] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                a, b = components[i][j], components[j][i]
                same = a is b or a.to_string() == b.to_string()
                comps[i][j] = comps[j][i] = a if same else Const(0.5) * (a + b)
        flat = iter(share_subtrees([e for row in comps for e in row]))
        g = self.components = [[next(flat) for _j in range(d)] for _i in range(d)]
        t = self.table = {} if table is None else table
        # dg[k][i][j] = d g_ij / d x_k, d2g[l][k][i][j] = d dg[k][i][j] / d x_l
        self.dg = [[[g[i][j].diff(k, t) for j in range(d)] for i in range(d)] for k in range(d)]
        self.d2g = [[[[self.dg[k][i][j].diff(l, t) for j in range(d)] for i in range(d)]
                     for k in range(d)] for l in range(d)]
        self.params = dict(params or {})
        self.space_form_c = space_form_c
        self.domain = domain

    def with_params(self, **updates) -> "ChartMetric":
        """Copy of this chart with parameter bindings updated (trees and tables shared)."""
        chart = object.__new__(ChartMetric)
        chart.__dict__.update(self.__dict__)  # copy.copy's result at a quarter of its cost
        chart.params = {**self.params, **updates}
        return chart

    def contains(self, x) -> bool:
        return True if self.domain is None else bool(self.domain(tuple(x)))

    def _first_derivs(self):
        return self.dg

    def _second_derivs(self):
        return self.d2g

    # -- pointwise evaluation ------------------------------------------- #
    def metric_at(self, X, memo=None):
        p = self.params
        return [[self.components[i][j].evaluate(X, p, memo) for j in range(self.dim)]
                for i in range(self.dim)]

    def inverse_metric_at(self, X, memo=None):
        return linalg.inverse(self.metric_at(X, memo))

    def dmetric_at(self, X, memo=None):
        """dg[k][i][j] = d g_ij / d x_k."""
        p, dg, d = self.params, self.dg, self.dim
        return [[[dg[k][i][j].evaluate(X, p, memo) for j in range(d)] for i in range(d)]
                for k in range(d)]

    def d2metric_at(self, X, memo=None):
        """d2g[l][k][i][j] = d^2 g_ij / (d x_l d x_k)."""
        p, d2g, d = self.params, self.d2g, self.dim
        return [[[[d2g[l][k][i][j].evaluate(X, p, memo) for j in range(d)] for i in range(d)]
                 for k in range(d)] for l in range(d)]

    def _ginv_dg(self, X, ginv, dg, memo):
        return (self.inverse_metric_at(X, memo) if ginv is None else ginv,
                self.dmetric_at(X, memo) if dg is None else dg)

    def christoffel_at(self, X, ginv=None, dg=None, memo=None):
        """Gamma[k][i][j] = Gamma^k_ij of the Levi-Civita connection."""
        ginv, dg = self._ginv_dg(X, ginv, dg, memo)
        return _lowered_sums(self.dim, [(ginv, _brackets(dg))], _product_memo())

    def christoffel_derivative_at(self, X, ginv=None, dg=None, memo=None):
        """dGamma[m][k][i][j] = d Gamma^k_ij / d x_m, from symbolic metric derivatives."""
        d = self.dim
        ginv, dg = self._ginv_dg(X, ginv, dg, memo)
        d2g = self.d2metric_at(X, memo)
        # d(g^{kl})/dx_m = -g^{ka} dg_ab/dx_m g^{bl}
        dginv = [[[-t for t in row] for row in linalg.mat_mul(ginv, linalg.mat_mul(dg[m], ginv))]
                 for m in range(d)]
        br, mul = _brackets(dg), _product_memo()
        return [_lowered_sums(d, [(dginv[m], br), (ginv, _brackets(d2g[m]))], mul)
                for m in range(d)]

    def curvature_at(self, X, ginv=None, dg=None, gamma=None, memo=None):
        """R[l][i][j][k] with R(d_i, d_j) d_k = R^l_ijk d_l."""
        d = self.dim
        ginv, dg = self._ginv_dg(X, ginv, dg, memo)
        if gamma is None:
            gamma = self.christoffel_at(X, ginv=ginv, dg=dg)
        dgamma = self.christoffel_derivative_at(X, ginv=ginv, dg=dg, memo=memo)
        mul = _product_memo()  # R^l_ijk subtracts the product R^l_jik adds
        R = [[[[None] * d for _ in range(d)] for _ in range(d)] for _ in range(d)]
        for l, i, j, k in itertools.product(range(d), repeat=4):
            s = dgamma[i][l][j][k] - dgamma[j][l][i][k]
            for m in range(d):
                s = s + mul(gamma[l][i][m], gamma[m][j][k]) - mul(gamma[l][j][m], gamma[m][i][k])
            R[l][i][j][k] = s
        return R

    def __repr__(self):
        tag = f", space_form({self.space_form_c})" if self.space_form_c is not None else ""
        return f"ChartMetric(dim={self.dim}{tag})"


@cache
def euclidean_chart(dim: int) -> ChartMetric:
    """The flat chart of R^dim, one per dim: a chart is never written."""
    comps = [[Const(1.0) if i == j else Const(0.0) for j in range(dim)] for i in range(dim)]
    return ChartMetric(dim, comps, space_form_c=0.0)


@cache
def space_form_chart(c: float, dim: int) -> ChartMetric:
    """Conformal-to-flat chart of the simply connected space form of curvature c,
    one per (c, dim), as `euclidean_chart` is one per dim.

    g_ij = (1 + (c/4)|x|^2)^(-2) delta_ij; for c < 0 the chart is the ball
    |x|^2 < 4/|c| where the conformal factor stays positive.
    """
    c = float(c)
    if c == 0.0:
        return euclidean_chart(dim)
    r2 = " + ".join(f"x{i + 1}^2" for i in range(dim))
    factor = parse(f"(1 + {c / 4.0!r}*({r2}))^(-2)", dim)
    zero = Const(0.0)
    comps = [[factor if i == j else zero for j in range(dim)] for i in range(dim)]
    domain = None
    if c < 0.0:
        bound = 4.0 / abs(c)

        def domain(x, _bound=bound):
            return sum(v * v for v in x) < _bound

    return ChartMetric(dim, comps, space_form_c=c, domain=domain)


# ---------------------------------------------------------------------- #
# differential operators on fields
# ---------------------------------------------------------------------- #

def divergence_at(gamma, comps):
    """div X = d_i X^i + Gamma^i_ik X^k from components and Christoffel symbols at a jet point."""
    d = len(comps)
    s = 0.0
    for i in range(d):
        s = s + partial(comps[i], i)
        for k in range(d):
            s = s + gamma[i][i][k] * comps[k]
    return s


def divergence_2tensor_at(ginv, gamma, T):
    """(div T)(d_k) = g^{ij} (nabla_i T)(d_j, d_k) for a symmetric 2-tensor at a jet point."""
    d = len(T)
    out = [0.0] * d
    for i in range(d):  # each out[k] adds its terms in (i, j) order, as a loop over k, i, j
        # where T[j][l] is T[l][j], the second product of (k, i, j) is the first of
        # (j, i, k), so a memo per i holds every product read twice
        mul = _product_memo()
        for k, j in itertools.product(range(d), repeat=2):
            if type(ginv[i][j]) is float and ginv[i][j] == 0.0:
                continue  # the term adds nothing
            cov = partial(T[j][k], i)
            for l in range(d):
                cov = cov - mul(gamma[l][i][j], T[l][k]) - mul(gamma[l][i][k], T[j][l])
            out[k] = out[k] + ginv[i][j] * cov
    return out


def _lowered_sums(d, factors, mul):
    """[k][i][j] = [k][j][i] = 0.5 * sum over l, then factors (f, br), of f[k][l] * br[i][j][l]."""
    out = [[[None] * d for _ in range(d)] for _ in range(d)]
    for k, i in itertools.product(range(d), repeat=2):
        for j in range(i, d):
            s = 0.0
            for l in range(d):
                for f, br in factors:
                    s = s + mul(f[k][l], br[i][j][l])
            out[k][i][j] = out[k][j][i] = 0.5 * s
    return out


def _brackets(dg):
    """[i][j][l] = dg[i][j][l] + dg[j][i][l] - dg[l][i][j] for j >= i, None below."""
    r = range(len(dg))
    return [[[dg[i][j][l] + dg[j][i][l] - dg[l][i][j] for l in r] if j >= i else None
             for j in r] for i in r]


def _product_memo():
    """mul(x, y) = x * y, each ordered pair of jets multiplied once per memo. The
    keys are the operands themselves (jets hash by identity), so the memo keeps
    them alive and a freed temporary cannot alias one. A float or array operand
    goes straight to x * y."""
    kept = {}

    def mul(x, y):
        if type(x) is not JetScalar or type(y) is not JetScalar:
            return x * y
        p = kept.get((x, y))
        if p is None:
            p = kept[(x, y)] = x * y
        return p

    return mul


# ---------------------------------------------------------------------- #
# curvature diagnostics (used by space-form validation)
# ---------------------------------------------------------------------- #

def sectional_curvature(chart: ChartMetric, x, u, v):
    """K(u, v) = R(u,v,v,u) / (|u|^2 |v|^2 - g(u,v)^2), R_ijkl = g(R(d_i,d_j)d_k, d_l), at a
    float point, or as a (P,) array at a batched one (x, u, v of (P,) arrays)."""
    d = chart.dim
    if (len(x), len(u), len(v)) != (d, d, d):
        raise ValueError(f"the point and both vectors need {d} coordinates, got "
                         f"{len(x)}, {len(u)} and {len(v)}")
    X = tuple(x)
    memo = {}  # the metric derivative trees share subtrees
    g = [[value(c) for c in row] for row in chart.metric_at(X, memo)]
    R = chart.curvature_at(X, memo=memo)
    low = [[[[sum(value(R[m][i][j][k]) * g[m][l] for m in range(d)) for l in range(d)]
             for k in range(d)] for j in range(d)] for i in range(d)]

    def ip(a, b):
        return sum(g[i][j] * a[i] * b[j] for i in range(d) for j in range(d))

    num = sum(low[i][j][k][l] * u[i] * v[j] * v[k] * u[l]
              for i in range(d) for j in range(d) for k in range(d) for l in range(d))
    den = ip(u, u) * ip(v, v) - ip(u, v) ** 2
    if any_entry(den <= 0.0):
        raise ValueError("u and v span no plane: |u|^2 |v|^2 - g(u, v)^2 <= 0")
    return num / den
