"""Extrinsic geometry of isometric immersions into space forms.

`ImmersionPoint` (`Immersion.at`) holds the per-point extrinsic data: the
tangent and normal frames, the second fundamental form, shape operators, mean
curvature, the normal connection and normal Laplacian, and the residuals of
the coupled normal/tangential systems characterizing p-biharmonic
submanifolds (the general codimension system and its constant-mean-curvature
hypersurface specialization).

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
from .expr import Const, Expression, parse
from .geometry import ChartMetric, space_form_chart
from .jets import any_entry, lift_point, partial, point_value, same_in_every_entry, sqrt, value
from .mapcalc import SmoothMap, share_with_metric

__all__ = [
    "Immersion", "ImmersionPoint", "theorem21_residuals", "theorem23_residuals",
    "cmc_proper_p", "CmcResult", "bitension_split", "small_hypersphere_immersion",
    "graph_hypersurface_immersion", "circle_immersion",
]

_PIVOT_REL_TOL = 1e-12


def pullback_metric_components(ambient: ChartMetric, components, source_dim: int):
    """Induced metric expressions h_ab(phi) dphi^a_i dphi^b_j via symbolic substitution."""
    n = ambient.dim
    dcomp = [[components[a].diff(i) for i in range(source_dim)] for a in range(n)]
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


class Immersion:
    """An isometric immersion of an m-chart into an n-dimensional ambient chart.

    The source chart carries the induced (pull-back) metric unless an
    equivalent metric is supplied explicitly; `isometry_defect` measures the
    agreement when one is.
    """

    def __init__(self, source_dim: int, ambient: ChartMetric, components,
                 params=None, source_metric=None, name: str = ""):
        self.codim = ambient.dim - source_dim
        if self.codim < 1:
            raise ValueError("ambient dimension must exceed source dimension")
        source = None if source_metric is None else ChartMetric(source_dim, source_metric,
                                                                params=params)
        # shared, with a declared metric's trees, before the pull-back differentiates them
        components = share_with_metric(source.components if source else [], components)
        self.pullback_components = pullback_metric_components(ambient, components, source_dim)
        source = source or ChartMetric(source_dim, self.pullback_components, params=params)
        self.map = SmoothMap(source, ambient, components, params=params, name=name)
        self.name = name

    def with_params(self, **updates) -> "Immersion":
        """Copy with rebound parameters; expression trees (and their derivative
        caches) are shared."""
        imm = Immersion.__new__(Immersion)
        imm.codim = self.codim
        imm.pullback_components = self.pullback_components
        imm.map = self.map.with_params(**updates)
        imm.name = self.name
        return imm

    @property
    def m(self):
        return self.map.source.dim

    @property
    def n(self):
        return self.map.target.dim

    @property
    def ambient_curvature(self) -> float:
        c = self.map.target.space_form_c
        if c is None:
            raise DomainError("ambient chart is not tagged as a space form")
        return c

    def at(self, X) -> "ImmersionPoint":
        return ImmersionPoint(self, X)

    def isometry_defect(self, points) -> float:
        """Max componentwise gap between the declared source metric and the pull-back."""
        worst = 0.0
        params = self.map.params
        for x in points:
            g = self.map.source.metric_at(tuple(x))
            for i in range(self.m):
                for j in range(self.m):
                    pb = self.pullback_components[i][j].evaluate(tuple(x), params)
                    worst = max(worst, abs(value(g[i][j]) - value(pb)))
        return worst

    def __repr__(self):
        return f"Immersion({self.name or 'unnamed'}: {self.m} -> {self.n})"


class ImmersionPoint:
    """Per-point extrinsic data; generic over float-or-jet points."""

    def __init__(self, immersion: Immersion, X):
        self.immersion = immersion
        self.mp = immersion.map.at(tuple(X))
        self.m = immersion.m
        self.n = immersion.n
        self.k = immersion.codim

    @cached_property
    def frames(self):
        """(tangent frame, normal frame): Gram-Schmidt over dphi columns then ambient axes."""
        mp = self.mp
        candidates = [[mp.dphi[a][i] for a in range(self.n)] for i in range(self.m)]
        candidates += [[1.0 if a == e else 0.0 for a in range(self.n)] for e in range(self.n)]
        basis = []
        for idx, v in enumerate(candidates):
            u = list(v)
            for b in basis:
                c = mp.h_inner(u, b)
                u = [ui - c * bi for ui, bi in zip(u, b)]
            n2 = mp.h_inner(u, u)
            scale = value(mp.h_inner(v, v))
            if same_in_every_entry(value(n2) <= _PIVOT_REL_TOL * np.maximum(scale, 1.0)):
                if idx < self.m:
                    raise RankDeficiencyError(
                        f"differential drops rank at {point_value(self.mp.X)}")
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
        mp = self.mp
        out = list(V)
        for t in self.tangent_frame:
            c = mp.h_inner(V, t)
            out = [o - c * ti for o, ti in zip(out, t)]
        return out

    def sff_pairing(self, xi):
        """[h((nabla dphi)(d_i, d_j), xi)]_ij for an ambient vector xi."""
        mp, n = self.mp, self.n
        return [[mp.h_inner([mp.sff[a][i][j] for a in range(n)], xi) for j in range(self.m)]
                for i in range(self.m)]

    @cached_property
    def second_fundamental(self):
        """B[a][i][j] = h((nabla dphi)(d_i, d_j), xi_a), in normal-frame coefficients."""
        return [self.sff_pairing(xi) for xi in self.normal_frame]

    def shape_matrix(self, xi):
        """Matrix of A_xi: g(A_xi d_i, d_j) = h(B(d_i, d_j), xi)."""
        return linalg.solve(self.mp.g, self.sff_pairing(xi))

    @cached_property
    def mean_curvature_frame(self):
        """H^a = (1/m) g^{ij} B^a_ij."""
        mp = self.mp
        return [sum((mp.ginv[i][j] * B[i][j] for i in range(self.m) for j in range(self.m)), 0.0)
                * (1.0 / self.m)
                for B in self.second_fundamental]

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
        return self.mp.h_inner(self.mean_curvature, self.mean_curvature)

    def nabla_perp(self, i, V):
        """Normal connection: normal projection of the pull-back derivative."""
        return self.normal_projection(self.mp.pullback_derivative(V, i))

    @cached_property
    def nabla_perp_H(self):
        """W[j] = normal connection of H in direction j (one jet shift)."""
        H = self.mean_curvature
        return [self.nabla_perp(j, H) for j in range(self.m)]

    @cached_property
    def laplacian_perp_H(self):
        """Rough normal Laplacian g^{ij}(nabla_perp_i nabla_perp_j - Gamma-corrected) H."""
        mp = self.mp
        W = self.nabla_perp_H
        out = [0.0] * self.n
        for i, j, gij in mp.ginv_terms:
            term = self.nabla_perp(i, W[j])
            for k in range(self.m):
                gam = mp.gammaM[k][i][j]
                term = [t - gam * wk for t, wk in zip(term, W[k])]
            for al in range(self.n):
                out[al] = out[al] + gij * term[al]
        return out

    @cached_property
    def proper_p(self) -> "CmcResult":
        """Solve |A|^2 = m c - m (p - 2) |H|^2 for p; a float reader (no jets needed)."""
        if self.k != 1:
            raise DomainError("proper-p computation needs a hypersurface")
        m = self.m
        c = self.immersion.ambient_curvature
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
        mp, m = self.mp, self.m
        tau2p = mp.p_bitension(p)
        low = [mp.h_inner(tau2p, col) for col in mp.dphi_cols]
        t = [value(sum((mp.ginv[i][j] * low[j] for j in range(m)), 0.0)) for i in range(m)]
        pushed = mp.push(t)
        normal = [value(tau2p[a]) - value(pushed[a]) for a in range(self.n)]
        return normal, t

    # -- residual systems ------------------------------------------------- #
    # p enters both systems only through scalar factors. The other terms are
    # cached per point, so a point reused across values of p computes them
    # once; a term that raises is not cached and raises again when read.
    def trace_B_shape_H(self):
        """trace_g B(., A_H(.)) as an ambient (normal) vector."""
        mp, r = self.mp, range(self.m)
        M = self.shape_matrix(self.mean_curvature)
        out = [0.0] * self.n
        for a, xi in enumerate(self.normal_frame):
            B = self.second_fundamental[a]
            coeff = sum((mp.ginv[i][j] * M[k][j] * B[i][k] for i in r for j in r for k in r), 0.0)
            for al in range(self.n):
                out[al] = out[al] + coeff * xi[al]
        return out

    def grad_H_norm2(self):
        """grad^M |H|^2 as a source vector (one jet shift)."""
        h2 = self.mean_curvature_norm2
        return self.mp.grad_scalar([partial(h2, j) for j in range(self.m)])

    @cached_property
    def _general_terms(self):
        """(trace_g B(., A_H(.)), trace_g A_{nabla_perp H}, grad^M |H|^2)."""
        mp, m = self.mp, self.m
        trB = self.trace_B_shape_H()
        W = self.nabla_perp_H
        trA = [0.0] * m
        A_W = [self.shape_matrix(W[i]) for i in range(m)]
        for i, j, gij in mp.ginv_terms:
            for k in range(m):
                trA[k] = trA[k] + gij * A_W[i][k][j]
        return trB, trA, self.grad_H_norm2()

    def general_residuals(self, p: float):
        """Normal and tangential residuals of the general p-biharmonic system."""
        m = self.m
        c = self.immersion.ambient_curvature
        H = self.mean_curvature
        h2 = self.mean_curvature_norm2
        lap = self.laplacian_perp_H
        trB, trA, grad = self._general_terms
        h_coeff = m * (c - (p - 2.0) * h2)
        grad_coeff = p - 2.0 + 0.5 * m
        normal = [-lap[al] + trB[al] - h_coeff * H[al] for al in range(self.n)]
        tangent = [2.0 * trA[k] + grad_coeff * grad[k] for k in range(m)]
        return normal, tangent

    @cached_property
    def _hypersurface_terms(self):
        """(|H|, |A|^2, -h(Laplacian_perp H, eta), grad |H|, A(grad |H|)) for
        eta = H / |H| and A = A_eta; needs |H| > 0."""
        mp, m = self.mp, self.m
        hnorm = sqrt(self.mean_curvature_norm2)
        eta = [Hc / hnorm for Hc in self.mean_curvature]
        A = self.shape_matrix(eta)
        A2 = sum((A[i][j] * A[j][i] for i in range(m) for j in range(m)), 0.0)
        neg_lap_eta = -mp.h_inner(self.laplacian_perp_H, eta)
        grad_absH = mp.grad_scalar([partial(hnorm, j) for j in range(m)])
        A_grad = [sum((A[k][j] * grad_absH[j] for j in range(m)), 0.0) for k in range(m)]
        return hnorm, A2, neg_lap_eta, grad_absH, A_grad

    def hypersurface_residuals(self, p: float):
        """Scalar normal residual and tangential residual of the CMC hypersurface system."""
        if self.k != 1:
            raise DomainError("hypersurface system needs codimension 1")
        m = self.m
        c = self.immersion.ambient_curvature
        h2 = self.mean_curvature_norm2
        if any_entry(value(h2) <= 0.0):
            raise DomainError("hypersurface system needs nowhere-zero mean curvature")
        hnorm, A2, neg_lap_eta, grad_absH, A_grad = self._hypersurface_terms
        normal_scalar = neg_lap_eta + (A2 + m * (p - 2.0) * h2 - m * c) * hnorm
        grad_coeff = (2.0 * (p - 2.0) + m) * hnorm
        tangent = [2.0 * A_grad[k] + grad_coeff * grad_absH[k] for k in range(m)]
        return normal_scalar, tangent


# ---------------------------------------------------------------------- #
# public wrappers
# ---------------------------------------------------------------------- #

def theorem21_residuals(imm: Immersion, x, p: float):
    """(normal residual vector, tangential residual vector) of the general system."""
    normal, tangent = imm.at(lift_point(x, 2)).general_residuals(p)
    return [value(v) for v in normal], [value(v) for v in tangent]


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


def bitension_split(imm: Immersion, x, p: float):
    """`ImmersionPoint.bitension_split` at a float point x."""
    return imm.at(lift_point(x, 3)).bitension_split(p)


# ---------------------------------------------------------------------- #
# standard immersions
# ---------------------------------------------------------------------- #

def small_hypersphere_immersion(m: int, a: float) -> Immersion:
    """The radius-a latitude m-sphere inside the unit (m+1)-sphere.

    Realized by composing the stereographic chart of the unit m-sphere with
    the affine placement u -> (a u, b), b = sqrt(1 - a^2), read back through
    the stereographic chart of the ambient sphere. The source carries the
    round metric of radius a; the constructor's pull-back expressions allow
    verifying that choice numerically.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"radius parameter must lie in (0, 1), got {a}")
    b = math.sqrt(1.0 - a * a)
    ambient = space_form_chart(1.0, m + 1)
    t2 = " + ".join(f"x{i + 1}^2" for i in range(m))
    den = f"(1 + ({t2})/4)"
    scale = f"(2*a/(1 + b))"
    comps = [parse(f"{scale} * x{i + 1} / {den}", m, ["a", "b"]) for i in range(m)]
    comps.append(parse(f"{scale} * (1 - ({t2})/4) / {den}", m, ["a", "b"]))
    round_factor = parse(f"a^2 * {den}^(-2)", m, ["a", "b"])
    zero = Const(0.0)
    source_metric = [[round_factor if i == j else zero for j in range(m)] for i in range(m)]
    return Immersion(m, ambient, comps, params={"a": a, "b": b},
                     source_metric=source_metric, name=f"small_hypersphere({m},{a})")


def graph_hypersurface_immersion(height: Expression, dim: int, name: str = "graph") -> Immersion:
    """Graph x -> (x, q(x)) in Euclidean space, with the induced metric."""
    ambient = space_form_chart(0.0, dim + 1)
    comps = [parse(f"x{i + 1}", dim) for i in range(dim)]
    comps.append(height)
    return Immersion(dim, ambient, comps, name=name)


def circle_immersion(radius: float) -> Immersion:
    """Round circle of the given radius in the Euclidean plane (angle chart)."""
    ambient = space_form_chart(0.0, 2)
    comps = [parse(f"{radius!r}*cos(x1)", 1), parse(f"{radius!r}*sin(x1)", 1)]
    return Immersion(1, ambient, comps, name=f"circle({radius})")
