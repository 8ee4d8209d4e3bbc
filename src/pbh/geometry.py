"""Charts with metrics: Levi-Civita connection, curvature, and the divergence
operators on a chart.

All evaluation methods are generic over float-or-jet points. Metric
derivatives are taken symbolically (the components are expressions), so
Christoffel symbols and the curvature tensor are exact at any point type.
The divergence operators take the Christoffel symbols (and inverse metric) and
the field's components at a jet point, and differentiate the components by one
jet shift; a caller lifts its point to the order its field consumes plus one.
`sectional_curvature` is the one reader over a float point.
"""

from __future__ import annotations

import itertools

from . import linalg
from .expr import Const, parse, share_subtrees
from .jets import partial, value

__all__ = [
    "ChartMetric", "space_form_chart", "euclidean_chart", "divergence_at",
    "divergence_2tensor_at", "sectional_curvature",
]


class ChartMetric:
    """A single coordinate chart of dimension d with metric components g_ij.

    Components are expressions over the chart's own coordinates; the
    constructor symmetrizes them. `params` holds the bound values for any
    named parameters appearing in the component expressions.
    """

    def __init__(self, dim, components, params=None, space_form_c=None, domain=None):
        self.dim = int(dim)
        if len(components) != self.dim or any(len(r) != self.dim for r in components):
            raise ValueError(f"metric components must form a {self.dim}x{self.dim} matrix")
        comps = [[None] * self.dim for _ in range(self.dim)]
        for i in range(self.dim):
            for j in range(i, self.dim):
                a, b = components[i][j], components[j][i]
                if a is b or a.to_string() == b.to_string():
                    sym = a
                else:
                    sym = Const(0.5) * (a + b)
                comps[i][j] = comps[j][i] = sym
        flat = iter(share_subtrees([e for row in comps for e in row]))
        self.components = [[next(flat) for _j in range(self.dim)] for _i in range(self.dim)]
        self.params = dict(params or {})
        self.space_form_c = space_form_c
        self.domain = domain
        # derivative tables, shared with every with_params copy
        self._tables = {}

    def with_params(self, **updates) -> "ChartMetric":
        """Copy of this chart with parameter bindings updated (expressions shared)."""
        chart = ChartMetric.__new__(ChartMetric)
        chart.dim = self.dim
        chart.components = self.components
        chart.params = {**self.params, **updates}
        chart.space_form_c = self.space_form_c
        chart.domain = self.domain
        chart._tables = self._tables
        return chart

    def contains(self, x) -> bool:
        return True if self.domain is None else bool(self.domain(tuple(x)))

    # -- symbolic derivative caches ------------------------------------- #
    def _first_derivs(self):
        dg = self._tables.get("dg")
        if dg is None:
            d = self.dim
            dg = self._tables["dg"] = [[[self.components[i][j].diff(k) for j in range(d)]
                                        for i in range(d)] for k in range(d)]
        return dg

    def _second_derivs(self):
        d2g = self._tables.get("d2g")
        if d2g is None:
            d = self.dim
            dg = self._first_derivs()
            d2g = self._tables["d2g"] = [[[[dg[k][i][j].diff(l) for j in range(d)]
                                           for i in range(d)] for k in range(d)]
                                         for l in range(d)]
        return d2g

    # -- pointwise evaluation ------------------------------------------- #
    def metric_at(self, X, memo=None):
        p = self.params
        return [[self.components[i][j].evaluate(X, p, memo) for j in range(self.dim)]
                for i in range(self.dim)]

    def inverse_metric_at(self, X, memo=None):
        return linalg.inverse(self.metric_at(X, memo))

    def dmetric_at(self, X, memo=None):
        """dg[k][i][j] = d g_ij / d x_k."""
        p = self.params
        dg = self._first_derivs()
        d = self.dim
        return [[[dg[k][i][j].evaluate(X, p, memo) for j in range(d)] for i in range(d)]
                for k in range(d)]

    def d2metric_at(self, X, memo=None):
        """d2g[l][k][i][j] = d^2 g_ij / (d x_l d x_k)."""
        p = self.params
        d2g = self._second_derivs()
        d = self.dim
        return [[[[d2g[l][k][i][j].evaluate(X, p, memo) for j in range(d)] for i in range(d)]
                 for k in range(d)] for l in range(d)]

    def christoffel_at(self, X, ginv=None, dg=None, memo=None):
        """Gamma[k][i][j] = Gamma^k_ij of the Levi-Civita connection."""
        d = self.dim
        if ginv is None:
            ginv = self.inverse_metric_at(X, memo)
        if dg is None:
            dg = self.dmetric_at(X, memo)
        gamma = [[[None] * d for _ in range(d)] for _ in range(d)]
        for k, i in itertools.product(range(d), repeat=2):
            for j in range(i, d):
                s = 0.0
                for l in range(d):
                    s = s + ginv[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                s = 0.5 * s
                gamma[k][i][j] = s
                gamma[k][j][i] = s
        return gamma

    def christoffel_derivative_at(self, X, ginv=None, dg=None, d2g=None, memo=None):
        """dGamma[m][k][i][j] = d Gamma^k_ij / d x_m, from symbolic metric derivatives."""
        d = self.dim
        if ginv is None:
            ginv = self.inverse_metric_at(X, memo)
        if dg is None:
            dg = self.dmetric_at(X, memo)
        if d2g is None:
            d2g = self.d2metric_at(X, memo)
        # d(g^{kl})/dx_m = -g^{ka} dg_ab/dx_m g^{bl}
        dginv = [[[None] * d for _ in range(d)] for _ in range(d)]
        for m in range(d):
            tmp = linalg.mat_mul(ginv, linalg.mat_mul(dg[m], ginv))
            for k in range(d):
                for l in range(d):
                    dginv[m][k][l] = -tmp[k][l]
        out = [[[[None] * d for _ in range(d)] for _ in range(d)] for _ in range(d)]
        for m, k, i, j in itertools.product(range(d), repeat=4):
            s = 0.0
            for l in range(d):
                s = s + dginv[m][k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                s = s + ginv[k][l] * (d2g[m][i][j][l] + d2g[m][j][i][l] - d2g[m][l][i][j])
            out[m][k][i][j] = 0.5 * s
        return out

    def curvature_at(self, X, ginv=None, dg=None, gamma=None, memo=None):
        """R[l][i][j][k] with R(d_i, d_j) d_k = R^l_ijk d_l."""
        d = self.dim
        if ginv is None:
            ginv = self.inverse_metric_at(X, memo)
        if dg is None:
            dg = self.dmetric_at(X, memo)
        if gamma is None:
            gamma = self.christoffel_at(X, ginv=ginv, dg=dg)
        dgamma = self.christoffel_derivative_at(X, ginv=ginv, dg=dg, memo=memo)
        R = [[[[None] * d for _ in range(d)] for _ in range(d)] for _ in range(d)]
        for l, i, j, k in itertools.product(range(d), repeat=4):
            s = dgamma[i][l][j][k] - dgamma[j][l][i][k]
            for m in range(d):
                s = s + gamma[l][i][m] * gamma[m][j][k] - gamma[l][j][m] * gamma[m][i][k]
            R[l][i][j][k] = s
        return R

    def __repr__(self):
        tag = f", space_form({self.space_form_c})" if self.space_form_c is not None else ""
        return f"ChartMetric(dim={self.dim}{tag})"


def euclidean_chart(dim: int) -> ChartMetric:
    comps = [[Const(1.0) if i == j else Const(0.0) for j in range(dim)] for i in range(dim)]
    return ChartMetric(dim, comps, space_form_c=0.0)


def space_form_chart(c: float, dim: int) -> ChartMetric:
    """Conformal-to-flat chart of the simply connected space form of curvature c.

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
    out = []
    for k in range(d):
        s = 0.0
        for i in range(d):
            for j in range(d):
                cov = partial(T[j][k], i)
                for l in range(d):
                    cov = cov - gamma[l][i][j] * T[l][k] - gamma[l][i][k] * T[j][l]
                s = s + ginv[i][j] * cov
        out.append(s)
    return out


# ---------------------------------------------------------------------- #
# curvature diagnostics (used by space-form validation)
# ---------------------------------------------------------------------- #

def sectional_curvature(chart: ChartMetric, x, u, v) -> float:
    """K(u, v) = R(u,v,v,u) / (|u|^2 |v|^2 - g(u,v)^2), R_ijkl = g(R(d_i,d_j)d_k, d_l)."""
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
    return num / den
