"""Extrinsic geometry of isometric immersions into space forms.

An `Immersion` is its inclusion map, a `SmoothMap`, and its point context
`ImmersionPoint` (`Immersion.at`) a `MapPoint` with the extrinsic data: the
tangent and normal frames, the second fundamental form, shape operators, mean
curvature, the normal connection and normal Laplacian, and the residuals of
the coupled normal/tangential systems characterizing p-biharmonic
submanifolds (the general codimension system and its constant-mean-curvature
hypersurface specialization). The systems cache their p-independent terms as
base values, so a p step after the first at a point makes no jet operation.

The normal Laplacian is the rough trace of the squared normal connection,
with no sign flip; the bitension cross-check in the test suite certifies that
convention against the general Euler-Lagrange field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DomainError, RankDeficiencyError
from .expr import Const
from .geometry import ChartMetric
from .jets import (_times, any_entry, lift_point, partial_value, point_value,
                   same_in_every_entry, sqrt, value)
from .mapcalc import MapPoint, SmoothMap, _base, _float_wrapper, _sum, share_with_metric

__all__ = [
    "Immersion", "ImmersionPoint", "theorem21_residuals", "theorem23_residuals",
    "cmc_proper_p", "CmcResult", "bitension_split",
]

_PIVOT_REL_TOL = 1e-12


def pullback_metric_components(ambient: ChartMetric, components, source_dim: int, table):
    """Induced metric h_ab(phi) dphi^a_i dphi^b_j by substitution, dphi built in `table`."""
    n = ambient.dim
    dcomp = [[components[a].diff(i, table) for i in range(source_dim)] for a in range(n)]
    pull = [[Const(0.0)] * source_dim for _ in range(source_dim)]
    for i in range(source_dim):
        for j in range(i, source_dim):
            acc = Const(0.0)
            for a in range(n):
                for b in range(n):
                    hab = ambient.components[a][b]
                    if isinstance(hab, Const) and hab.value == 0.0:
                        continue
                    acc = acc + hab.substitute(components) * dcomp[a][i] * dcomp[b][j]
            pull[i][j] = pull[j][i] = acc
    return pull


class Immersion(SmoothMap):
    """An isometric immersion of an m-chart into an n-dimensional ambient
    chart, as the `SmoothMap` of the inclusion.

    The source chart carries the induced (pull-back) metric unless an
    equivalent metric is supplied explicitly; `isometry_defect` measures the
    agreement when one is. Its pull-back, source chart and map share one derivative table.
    """

    def __init__(self, source_dim: int, ambient: ChartMetric, components,
                 params=None, source_metric=None, name: str = ""):
        self.codim = ambient.dim - source_dim
        if self.codim < 1:
            raise ValueError("ambient dimension must exceed source dimension")
        source = None if source_metric is None else ChartMetric(source_dim, source_metric,
                                                                params=params)
        table = {} if source is None else source.table
        # shared, with a declared metric's trees, before the pull-back differentiates them
        components = share_with_metric(source.components if source else [], components)
        self.pullback_components = pullback_metric_components(ambient, components, source_dim,
                                                              table)
        source = source or ChartMetric(source_dim, self.pullback_components, params=params,
                                       table=table)
        super().__init__(source, ambient, components, params=params, name=name, table=table)

    @property
    def m(self):
        return self.source.dim

    @property
    def n(self):
        return self.target.dim

    @property
    def ambient_curvature(self) -> float:
        c = self.target.space_form_c
        if c is None:
            raise DomainError("ambient chart is not tagged as a space form")
        return c

    def at(self, X) -> "ImmersionPoint":
        return ImmersionPoint(self, X)

    def isometry_defect(self, points) -> float:
        """Max componentwise gap between the declared source metric and the pull-back."""
        worst = 0.0
        params = self.params
        for x in points:
            g = self.source.metric_at(tuple(x))
            for i in range(self.m):
                for j in range(self.m):
                    pb = self.pullback_components[i][j].evaluate(tuple(x), params)
                    worst = max(worst, abs(value(g[i][j]) - value(pb)))
        return worst

    def __repr__(self):
        return f"Immersion({self.name or 'unnamed'}: {self.m} -> {self.n})"


class ImmersionPoint(MapPoint):
    """The `MapPoint` of an immersion, with its per-point extrinsic data;
    generic over float-or-jet points."""

    def __init__(self, immersion: Immersion, X):
        super().__init__(immersion, X)
        self.k = immersion.codim

    @cached_property
    def frames(self):
        """(tangent frame, normal frame): Gram-Schmidt over dphi columns then ambient axes."""
        candidates = [[self.dphi[a][i] for a in range(self.n)] for i in range(self.m)]
        candidates += [[1.0 if a == e else 0.0 for a in range(self.n)] for e in range(self.n)]
        basis = []
        for idx, v in enumerate(candidates):
            u = list(v)
            for b in basis:
                c = self.h_inner(u, b)
                u = [ui - c * bi for ui, bi in zip(u, b)]
            n2 = self.h_inner(u, u)
            scale = value(self.h_inner(v, v))
            if same_in_every_entry(value(n2) <= _PIVOT_REL_TOL * np.maximum(scale, 1.0)):
                if idx < self.m:
                    raise RankDeficiencyError(
                        f"differential drops rank at {point_value(self.X)}")
                continue
            basis.append([ui * (1.0 / sqrt(n2)) for ui in u])
            if len(basis) == self.n:
                break
        if len(basis) != self.n:
            raise RankDeficiencyError("could not complete an ambient frame")
        return basis[:self.m], basis[self.m:]

    @property
    def tangent_frame(self):
        return self.frames[0]

    @property
    def normal_frame(self):
        return self.frames[1]

    def normal_projection(self, V):
        """Component of an ambient vector orthogonal to the tangent space."""
        out = list(V)
        for t in self.tangent_frame:
            c = self.h_inner(V, t)
            out = [o - c * ti for o, ti in zip(out, t)]
        return out

    def sff_pairing(self, xi):
        """[h((nabla dphi)(d_i, d_j), xi)]_ij for an ambient vector xi."""
        sff, n = self.sff, self.n
        return [[self.h_inner([sff[a][i][j] for a in range(n)], xi) for j in range(self.m)]
                for i in range(self.m)]

    @cached_property
    def second_fundamental(self):
        """B[a][i][j] = h((nabla dphi)(d_i, d_j), xi_a), in normal-frame coefficients."""
        return [self.sff_pairing(xi) for xi in self.normal_frame]

    def shape_matrix(self, xi):
        """Matrix of A_xi: g(A_xi d_i, d_j) = h(B(d_i, d_j), xi)."""
        return linalg.solve(self.g, self.sff_pairing(xi))

    @cached_property
    def mean_curvature_frame(self):
        """H^a = (1/m) g^{ij} B^a_ij."""
        return [self.g_trace(B) * (1.0 / self.m) for B in self.second_fundamental]

    @cached_property
    def mean_curvature(self):
        """H as an ambient vector."""
        Hf = self.mean_curvature_frame
        out = [0.0] * self.n
        for a, xi in enumerate(self.normal_frame):
            for al in range(self.n):
                out[al] = out[al] + Hf[a] * xi[al]
        return out

    @cached_property
    def mean_curvature_norm2(self):
        return self.h_inner(self.mean_curvature, self.mean_curvature)

    def nabla_perp(self, i, V):
        """Normal connection: normal projection of the pull-back derivative."""
        return self.normal_projection(self.pullback_derivative(V, i))

    @cached_property
    def nabla_perp_H(self):
        """W[j] = normal connection of H in direction j (one jet shift)."""
        H = self.mean_curvature
        return [self.nabla_perp(j, H) for j in range(self.m)]

    @cached_property
    def laplacian_perp_H(self):
        """Rough normal Laplacian g^{ij}(nabla_perp_i nabla_perp_j - Gamma-corrected) H in
        base values (floats, or (P,) arrays), as every reader takes it: its second shift of
        H leaves only order 0 valid at the residual systems' order-2 point."""
        W, r = self.nabla_perp_H, range(self.n)
        w, gm, frame = _base(W), _base(self.gammaM), _base(self.tangent_frame)
        out = [0.0] * self.n
        for i, j, gij in self.ginv_terms:
            V = term = self._pullback_base(W[j], w[j], i)
            for t in frame:  # the normal projection of V
                c = self._h_inner_base(V, t)
                term = [o - _times(c, ti) for o, ti in zip(term, t)]
            for k in range(self.m):
                term = [o - _times(gm[k][i][j], wk) for o, wk in zip(term, w[k])]
            for al in r:
                out[al] = out[al] + _times(value(gij), term[al])
        return out

    @cached_property
    def proper_p(self) -> "CmcResult":
        """Solve |A|^2 = m c - m (p - 2) |H|^2 for p; a float reader (no jets needed)."""
        if self.k != 1:
            raise DomainError("proper-p computation needs a hypersurface")
        m = self.m
        c = self.map.ambient_curvature
        h2 = value(self.mean_curvature_norm2)
        if h2 <= 0.0:
            raise DomainError("zero mean curvature: no proper p exists")
        hnorm = math.sqrt(h2)
        eta = [value(v) / hnorm for v in self.mean_curvature]
        A = self.shape_matrix(eta)
        A2 = value(sum((A[i][j] * A[j][i] for i in range(m) for j in range(m)), 0.0))
        p_star = 2.0 + (m * c - A2) / (m * h2)
        # rounding guard: the boundary case p* = 2 must stay admissible
        return CmcResult(p_star=p_star, admissible=p_star >= 2.0 - 1e-9,
                         mean_curvature_norm=hnorm, shape_norm2=A2)

    def bitension_split(self, p: float):
        """Normal / tangential decomposition of the p-bitension of the inclusion
        (3 shifts). Returns floats: (normal ambient components, tangential source
        components t with tangential part = dphi(t))."""
        tau2p = self.p_bitension(p)
        t = [value(v) for v in self.grad_scalar(self.lower_base(tau2p))]
        normal = [b - value(v) for b, v in zip(tau2p, self.push(t))]
        return normal, t

    # -- residual systems ------------------------------------------------- #
    # p enters both systems only through scalar factors. The other terms are
    # cached per point in base values, so a point reused across values of p
    # computes them once and a later p makes no jet operation; a term that
    # raises is not cached and raises again when read. Shape operators stay jet
    # solves: a base-value solve may split a batch (`linalg._skips`) that a jet one runs whole.
    def trace_B_shape_H(self):
        """trace_g B(., A_H(.)) as an ambient (normal) vector, in base values."""
        M, r = _base(self.shape_matrix(self.mean_curvature)), range(self.m)
        out = [0.0] * self.n
        for B, xi in zip(_base(self.second_fundamental), _base(self.normal_frame)):
            coeff = _sum(_times(_times(value(gij), M[k][j]), B[i][k])
                         for i, j, gij in self.ginv_terms for k in r)
            out = [o + _times(coeff, x) for o, x in zip(out, xi)]
        return out

    def grad_H_norm2(self):
        """grad^M |H|^2 as a source vector, in base values."""
        return self._grad_base(self.mean_curvature_norm2)

    def _grad_base(self, f):
        """`grad_scalar` of the partials of f in base values, d_j f read off f's order 1."""
        d = [partial_value(f, j) for j in range(self.m)]
        return [_sum(_times(value(gij), d[j]) for r, j, gij in self.ginv_terms if r == i)
                for i in range(self.m)]

    @cached_property
    def _general_terms(self):
        """(H, |H|^2, trace_g B(., A_H(.)), trace_g A_{nabla_perp H}, grad^M |H|^2)."""
        W, m = self.nabla_perp_H, self.m
        A_W = [_base(self.shape_matrix(W[i])) for i in range(m)]
        trA = [_sum(_times(value(gij), A_W[i][k][j]) for i, j, gij in self.ginv_terms)
               for k in range(m)]
        return (_base(self.mean_curvature), value(self.mean_curvature_norm2),
                self.trace_B_shape_H(), trA, self.grad_H_norm2())

    def general_residuals(self, p: float):
        """Normal and tangential residuals of the general p-biharmonic system."""
        m, c = self.m, self.map.ambient_curvature
        H, h2, trB, trA, grad = self._general_terms
        lap = self.laplacian_perp_H
        h_coeff = m * (c - _times(p - 2.0, h2))
        grad_coeff = p - 2.0 + 0.5 * m
        normal = [-lap[al] + trB[al] - _times(h_coeff, H[al]) for al in range(self.n)]
        tangent = [2.0 * trA[k] + _times(grad_coeff, grad[k]) for k in range(m)]
        return normal, tangent

    @cached_property
    def _hypersurface_terms(self):
        """(|H|^2, |H|, |A|^2, -h(Laplacian_perp H, eta), grad |H|, A(grad |H|)) for
        eta = H / |H| and A = A_eta; needs |H| > 0."""
        m, h2 = self.m, self.mean_curvature_norm2
        if any_entry(value(h2) <= 0.0):
            raise DomainError("hypersurface system needs nowhere-zero mean curvature")
        hnorm = sqrt(h2)
        eta = [Hc / hnorm for Hc in self.mean_curvature]
        A = _base(self.shape_matrix(eta))
        A2 = _sum(_times(A[i][j], A[j][i]) for i in range(m) for j in range(m))
        neg_lap_eta = -self._h_inner_base(self.laplacian_perp_H, _base(eta))
        grad_absH = self._grad_base(hnorm)
        A_grad = [_sum(_times(A[k][j], grad_absH[j]) for j in range(m)) for k in range(m)]
        return value(h2), value(hnorm), A2, neg_lap_eta, grad_absH, A_grad

    def hypersurface_residuals(self, p: float):
        """Scalar normal residual and tangential residual of the CMC hypersurface system."""
        if self.k != 1:
            raise DomainError("hypersurface system needs codimension 1")
        m, c = self.m, self.map.ambient_curvature
        h2, hnorm, A2, neg_lap_eta, grad_absH, A_grad = self._hypersurface_terms
        normal_scalar = neg_lap_eta + _times(A2 + _times(m * (p - 2.0), h2) - m * c, hnorm)
        grad_coeff = _times(2.0 * (p - 2.0) + m, hnorm)
        tangent = [2.0 * A_grad[k] + _times(grad_coeff, grad_absH[k]) for k in range(m)]
        return normal_scalar, tangent


# ---------------------------------------------------------------------- #
# public wrappers
# ---------------------------------------------------------------------- #

@_float_wrapper
def theorem21_residuals(imm: Immersion, x, p: float):
    """(normal residual vector, tangential residual vector) of the general system."""
    normal, tangent = imm.at(lift_point(x, 2)).general_residuals(p)
    return [value(v) for v in normal], [value(v) for v in tangent]


@_float_wrapper
def theorem23_residuals(imm: Immersion, x, p: float):
    """(scalar normal residual, tangential residual vector) of the hypersurface system."""
    normal, tangent = imm.at(lift_point(x, 2)).hypersurface_residuals(p)
    return value(normal), [value(v) for v in tangent]


@dataclass
class CmcResult:
    """Outcome of the proper-p computation for a CMC hypersurface."""

    p_star: float
    admissible: bool
    mean_curvature_norm: float
    shape_norm2: float

    @property
    def message(self):
        return "" if self.admissible else "no admissible p >= 2"


@_float_wrapper
def cmc_proper_p(imm: Immersion, x, sample_points=None) -> CmcResult:
    """Solve |A|^2 = m c - m (p - 2) |H|^2 for p on a CMC hypersurface.

    When `sample_points` are given, |H| constancy is verified across them
    (std dev at most 1e-8) before solving at x.
    """
    if sample_points is not None:
        if not sample_points:
            raise ValueError("sample_points must hold at least one point")
        norms = [math.sqrt(max(value(imm.at(tuple(q)).mean_curvature_norm2), 0.0))
                 for q in sample_points]
        mean = sum(norms) / len(norms)
        std = math.sqrt(sum((v - mean) ** 2 for v in norms) / len(norms))
        if std > 1e-8:
            raise DomainError(f"mean curvature is not constant (std {std:.3e})")
    return imm.at(tuple(x)).proper_p


@_float_wrapper
def bitension_split(imm: Immersion, x, p: float):
    """`ImmersionPoint.bitension_split` at a float point x."""
    return imm.at(lift_point(x, 3)).bitension_split(p)

