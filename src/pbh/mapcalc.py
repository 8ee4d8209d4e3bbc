"""Calculus of maps between charts: differential, tension fields, the
p-tension and p-bitension fields, pull-back derivatives, and box quadrature
of the p-energy and p-bienergy.

Everything funnels through :class:`MapPoint`, a per-point evaluation context
generic over float-or-jet points. Derivatives of map components and metric
components are symbolic; derivatives of computed fields (the p-tension as a
field along the map, scalars like |dphi|) are jet shifts, so the trace
formulas carry explicit Christoffel corrections and hold at every chart
point, not just at centers of normal coordinates.

Jet budget per operation (shifts consumed internally): tension 0, p_tension 1,
pull-back derivative of a field adds 1, p_bitension 3. A point lifted to the
highest order of several readers serves all of them, and p-dependent fields
are computed once per point and p. Public wrappers lift a float point to
their own minimum order and call the same reader. A MapPoint may also hold a
batch of points (see :mod:`pbh.jets`); the box quadrature uses that for its
Gauss nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Callable

import numpy as np

from . import linalg
from .errors import BatchSplit, JetOrderError, PbhError, SingularityError
from .expr import Const
from .geometry import ChartMetric
from .jets import JetScalar, any_entry, lift_point, partial, point_value, powr, sqrt, value

__all__ = [
    "SmoothMap", "FieldAlongMap", "MapPoint",
    "dmap", "dmap_norm", "second_fundamental_form_map", "tension", "p_tension",
    "pullback_derivative", "p_bitension", "tension_field", "p_tension_field",
    "p_energy_box", "p_bienergy_box", "perturbed_map", "gauss_legendre_box",
]

_NORM2_FLOOR = 1e-30


class SmoothMap:
    """A map between charts given by component expressions over source coordinates."""

    def __init__(self, source: ChartMetric, target: ChartMetric, components,
                 params=None, name: str = ""):
        if len(components) != target.dim:
            raise ValueError(
                f"map needs {target.dim} component expressions, got {len(components)}")
        for k, c in enumerate(components):
            if c.max_coord_index() >= source.dim:
                raise ValueError(
                    f"component {k} references coordinate x{c.max_coord_index() + 1} "
                    f"beyond source dimension {source.dim}")
        self.params = dict(params or {})
        self.source = source.with_params(**self.params) if self.params else source
        self.target = target.with_params(**self.params) if self.params else target
        self.components = list(components)
        self.name = name
        self._d1 = None
        self._d2 = None

    def with_params(self, **updates) -> "SmoothMap":
        merged = {**self.params, **updates}
        return SmoothMap(self.source, self.target, self.components, merged, self.name)

    def _first(self):
        if self._d1 is None:
            m = self.source.dim
            self._d1 = [[c.diff(i) for i in range(m)] for c in self.components]
        return self._d1

    def _second(self):
        if self._d2 is None:
            m = self.source.dim
            d1 = self._first()
            self._d2 = [[[d1[a][i].diff(j) for j in range(m)] for i in range(m)]
                        for a in range(len(self.components))]
        return self._d2

    def at(self, X) -> "MapPoint":
        return MapPoint(self, X)

    def __repr__(self):
        return f"SmoothMap({self.name or 'unnamed'}: dim {self.source.dim} -> {self.target.dim})"


@dataclass
class FieldAlongMap:
    """A section of the pulled-back target tangent bundle, as an evaluation rule.

    `rule(X)` returns target components at the source point X; `depth` is the
    number of jet shifts the rule performs internally, which callers must add
    to their own budget when differentiating the field.
    """

    base_map: SmoothMap
    rule: Callable
    depth: int = 0

    def __call__(self, X):
        return self.rule(X)


def once_per_p(field):
    """Decorate field(point, p) to be computed once per MapPoint and p; every
    reader of the point shares the result."""
    @wraps(field)
    def shared(mp, p):
        return mp.once((field.__name__, p), lambda: field(mp, p))
    return shared


class MapPoint:
    """All per-point data of a map evaluation, computed lazily and shared."""

    def __init__(self, smooth_map: SmoothMap, X):
        self.map = smooth_map
        self.X = tuple(X)
        self.m = smooth_map.source.dim
        self.n = smooth_map.target.dim
        # subtree values shared across every expression evaluated at this
        # point (source trees) and at its image (target trees)
        self._src_memo = {}
        self._tgt_memo = {}
        self._shared = {}

    def once(self, key, compute):
        """compute(), evaluated once per key at this point."""
        if key not in self._shared:
            self._shared[key] = compute()
        return self._shared[key]

    # -- raw ingredients -------------------------------------------------- #
    @cached_property
    def phiX(self):
        p = self.map.params
        return [c.evaluate(self.X, p, self._src_memo) for c in self.map.components]

    @cached_property
    def dphi(self):
        """dphi[a][i] = d phi^a / d x_i (symbolic, exact)."""
        p = self.map.params
        d1 = self.map._first()
        return [[d1[a][i].evaluate(self.X, p, self._src_memo) for i in range(self.m)]
                for a in range(self.n)]

    @cached_property
    def d2phi(self):
        p = self.map.params
        d2 = self.map._second()
        return [[[d2[a][i][j].evaluate(self.X, p, self._src_memo) for j in range(self.m)]
                 for i in range(self.m)] for a in range(self.n)]

    @cached_property
    def dphi_cols(self):
        """dphi(d_i) as target vectors, i = 1..m."""
        return [[self.dphi[a][i] for a in range(self.n)] for i in range(self.m)]

    @cached_property
    def g(self):
        return self.map.source.metric_at(self.X, self._src_memo)

    @cached_property
    def ginv(self):
        return linalg.inverse(self.g)

    @cached_property
    def ginv_terms(self):
        """(i, j, g^{ij}) for the entries of g^{-1} that are not structurally zero."""
        return [(i, j, gij) for i, row in enumerate(self.ginv) for j, gij in enumerate(row)
                if not (isinstance(gij, float) and gij == 0.0)]

    @cached_property
    def gammaM(self):
        return self.map.source.christoffel_at(self.X, ginv=self.ginv,
                                              memo=self._src_memo)

    @cached_property
    def h(self):
        return self.map.target.metric_at(self.phiX, self._tgt_memo)

    @cached_property
    def gammaN(self):
        return self.map.target.christoffel_at(self.phiX, memo=self._tgt_memo)

    def h_inner(self, u, v):
        h = self.h
        return sum(h[a][b] * u[a] * v[b] for a in range(self.n) for b in range(self.n))

    def push(self, v):
        """dphi applied to a source vector."""
        return [sum(self.dphi[a][i] * v[i] for i in range(self.m)) for a in range(self.n)]

    # -- first-order invariants ------------------------------------------- #
    @cached_property
    def norm2(self):
        """|dphi|^2, the squared Hilbert-Schmidt norm of the differential."""
        s = 0.0
        for i, j, gij in self.ginv_terms:
            s = s + gij * self.h_inner(self.dphi_cols[i], self.dphi_cols[j])
        return s

    def norm_power(self, q: float):
        """|dphi|^q with the singularity guard for non-trivial exponents."""
        if q == 0.0:
            return 1.0
        if any_entry(value(self.norm2) <= _NORM2_FLOOR):
            raise SingularityError("vanishing |dphi| under a norm power",
                                   point=point_value(self.X))
        return self.once(("norm_power", q), lambda: powr(self.norm2, 0.5 * q))

    def _require_jets(self, op: str):
        if not isinstance(self.X[0], JetScalar):
            raise JetOrderError(f"{op} differentiates computed fields and needs a "
                                f"jet-lifted point (got floats)")

    # -- second fundamental form and tension ------------------------------ #
    @cached_property
    def sff(self):
        """(nabla dphi)[a][i][j], symmetric in (i, j)."""
        m, n = self.m, self.n
        dphi, d2phi = self.dphi, self.d2phi
        gm, gn = self.gammaM, self.gammaN
        out = [[[None] * m for _ in range(m)] for _ in range(n)]
        for a in range(n):
            for i in range(m):
                for j in range(i, m):
                    s = d2phi[a][i][j]
                    for k in range(m):
                        s = s - gm[k][i][j] * dphi[a][k]
                    for mu, sg in itertools.product(range(n), repeat=2):
                        gam = gn[a][mu][sg]
                        if isinstance(gam, float) and gam == 0.0:
                            continue
                        s = s + gam * dphi[mu][i] * dphi[sg][j]
                    out[a][i][j] = s
                    out[a][j][i] = s
        return out

    @cached_property
    def tension(self):
        """tau(phi)^a = g^{ij} (nabla dphi)^a_ij."""
        return [sum(self.ginv[i][j] * self.sff[a][i][j]
                    for i in range(self.m) for j in range(self.m))
                for a in range(self.n)]

    def grad_scalar(self, partials):
        """g^{ij} (d_j f) from a list of coordinate partials of a scalar."""
        return [sum(self.ginv[i][j] * partials[j] for j in range(self.m))
                for i in range(self.m)]

    @once_per_p
    def p_tension(self, p: float):
        """tau_p(phi) = |dphi|^{p-2} tau(phi) + (p-2)|dphi|^{p-3} dphi(grad |dphi|)."""
        if p == 2.0:
            return self.tension
        self._require_jets("p_tension")
        norm = self.norm_power(1.0)
        pushed = self.push(self.grad_scalar([partial(norm, j) for j in range(self.m)]))
        fac1 = self.norm_power(p - 2.0)
        fac2 = (p - 2.0) * self.norm_power(p - 3.0)
        return [fac1 * self.tension[a] + fac2 * pushed[a] for a in range(self.n)]

    @once_per_p
    def dp_tension(self, p: float):
        """[nabla^phi_i tau_p for each i] (two shifts)."""
        return [self.pullback_derivative(self.p_tension(p), i) for i in range(self.m)]

    @once_per_p
    def tension_pairing(self, p: float):
        """<dphi, nabla^phi tau_p> = g^{ij} h(nabla^phi_i tau_p, dphi(d_j)) (two shifts)."""
        pairing = 0.0
        for i, j, gij in self.ginv_terms:
            pairing = pairing + gij * self.h_inner(self.dp_tension(p)[i], self.dphi_cols[j])
        return pairing

    # -- pull-back covariant derivative ----------------------------------- #
    def pullback_derivative(self, V, i: int):
        """(nabla^phi_{d_i} V)^a = d_i V^a + Gamma^N{}^a_{mu sigma} (d_i phi^mu) V^sigma."""
        self._require_jets("pullback_derivative")
        n = self.n
        gn = self.gammaN
        out = []
        for a in range(n):
            s = partial(V[a], i)
            for mu, sg in itertools.product(range(n), repeat=2):
                gam = gn[a][mu][sg]
                if isinstance(gam, float) and gam == 0.0:
                    continue
                s = s + gam * self.dphi[mu][i] * V[sg]
            out.append(s)
        return out

    def trace_pullback_gradient(self, W):
        """trace_g of the pull-back gradient of a dphi-indexed family W.

        W[j] is a target vector (the one-form slot j); returns
        g^{ij} [ nabla^phi_i W_j - Gamma^M{}^k_{ij} W_k ].
        """
        m, n = self.m, self.n
        out = [0.0] * n
        for i, j, gij in self.ginv_terms:
            cov = self.pullback_derivative(W[j], i)
            for a in range(n):
                corr = cov[a]
                for k in range(m):
                    corr = corr - self.gammaM[k][i][j] * W[k][a]
                out[a] = out[a] + gij * corr
        return out

    # -- the p-bitension field --------------------------------------------- #
    @once_per_p
    def p_bitension(self, p: float):
        """Euler-Lagrange field of the p-bienergy, as three trace terms."""
        self._require_jets("p_bitension")
        m, n = self.m, self.n
        taup = self.p_tension(p)
        dtaup = self.dp_tension(p)
        fac = self.norm_power(p - 2.0)

        # curvature term: -|dphi|^{p-2} g^{ij} R^N(tau_p, dphi_i) dphi_j
        result = [0.0] * n
        if self.map.target.space_form_c != 0.0:
            Rn = self.map.target.curvature_at(self.phiX, memo=self._tgt_memo)
            for i, j, gij in self.ginv_terms:
                for d in range(n):
                    s = 0.0
                    for al, be, ga in itertools.product(range(n), repeat=3):
                        R = Rn[d][al][be][ga]
                        if isinstance(R, float) and R == 0.0:
                            continue
                        s = s + R * taup[al] * self.dphi[be][i] * self.dphi[ga][j]
                    result[d] = result[d] - fac * gij * s

        # second-order term: -trace_g nabla^phi |dphi|^{p-2} nabla^phi tau_p
        W = [[fac * dtaup[j][a] for a in range(n)] for j in range(m)]
        tr2 = self.trace_pullback_gradient(W)
        for a in range(n):
            result[a] = result[a] - tr2[a]

        # gradient-pairing term: -(p-2) trace_g nabla <nabla^phi tau_p, dphi> |dphi|^{p-4} dphi
        if p != 2.0:
            pairing = self.tension_pairing(p)
            fac4 = self.norm_power(p - 4.0)
            U = [[pairing * fac4 * self.dphi[a][j] for a in range(n)] for j in range(m)]
            tr3 = self.trace_pullback_gradient(U)
            for a in range(n):
                result[a] = result[a] - (p - 2.0) * tr3[a]
        return result


# ---------------------------------------------------------------------- #
# public wrappers over float points
# ---------------------------------------------------------------------- #

def dmap(phi: SmoothMap, x):
    """m x n matrix [i][a] of d phi^a / d x_i at x."""
    return [[value(c) for c in col] for col in phi.at(tuple(x)).dphi_cols]


def dmap_norm(phi: SmoothMap, x) -> float:
    """Hilbert-Schmidt norm |dphi| at x."""
    return sqrt(value(phi.at(tuple(x)).norm2))


def second_fundamental_form_map(phi: SmoothMap, x):
    """(nabla dphi)[a][i][j] at x."""
    return [[[value(v) for v in row] for row in plane] for plane in phi.at(tuple(x)).sff]


def tension(phi: SmoothMap, x):
    return [value(t) for t in phi.at(tuple(x)).tension]


def check_p(p: float):
    """The p-tension and p-bitension are defined here for p >= 2 only."""
    if p < 2.0:
        raise ValueError(f"p must be >= 2, got {p}")


def p_tension(phi: SmoothMap, x, p: float):
    check_p(p)
    # at p = 2 the p-tension is the tension, which needs no jets
    return [value(t) for t in phi.at(tuple(x) if p == 2.0 else lift_point(x, 1)).p_tension(p)]


def pullback_derivative(V: FieldAlongMap, direction: int, x):
    """(nabla^phi_{d_direction} V) at x, for a field along V.base_map."""
    X = lift_point(x, V.depth + 1)
    return [value(c) for c in V.base_map.at(X).pullback_derivative(V(X), direction)]


def p_bitension(phi: SmoothMap, x, p: float):
    check_p(p)
    return [value(t) for t in phi.at(lift_point(x, 3)).p_bitension(p)]


def tension_field(phi: SmoothMap) -> FieldAlongMap:
    return FieldAlongMap(phi, lambda X: phi.at(X).tension, depth=0)


def p_tension_field(phi: SmoothMap, p: float) -> FieldAlongMap:
    if p == 2.0:
        return tension_field(phi)
    return FieldAlongMap(phi, lambda X: phi.at(X).p_tension(p), depth=1)


# ---------------------------------------------------------------------- #
# box quadrature of the energy functionals
# ---------------------------------------------------------------------- #

def gauss_legendre_box(box, order: int = 8):
    """Tensor-product Gauss-Legendre nodes and weights over an axis-aligned box."""
    nodes_1d, weights_1d = np.polynomial.legendre.leggauss(order)
    axes = []
    for lo, hi in box:
        lo, hi = float(lo), float(hi)
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        axes.append([(float(mid + half * t), float(half * w))
                     for t, w in zip(nodes_1d, weights_1d)])
    for combo in itertools.product(*axes):
        point = tuple(c[0] for c in combo)
        weight = 1.0
        for c in combo:
            weight *= c[1]
        yield point, weight


def _volume_density(pt: MapPoint):
    from .linalg import det
    return sqrt(value(det(pt.g)))


# Gauss nodes evaluated together as one batched point
_CHUNK = 64

# what a batched chunk may raise; the per-node replay then raises or not exactly
# as a per-node loop would (numpy signals FloatingPointError where Python floats
# raise ZeroDivisionError, or silently overflow)
_REPLAYED = (PbhError, ArithmeticError, ValueError, BatchSplit)


def _require_in_domain(phi, x):
    if not phi.source.contains(x):
        raise SingularityError("quadrature node outside source domain", point=x)


def _node_terms(phi, X, jet_order, integrand):
    """(integrand(pt, X), sqrt(det g)) at the point X lifted to `jet_order`
    (0: floats); X is one node or a batch of nodes."""
    pt = phi.at(lift_point(X, jet_order) if jet_order else X)
    return integrand(pt, X), _volume_density(pt)


def _chunk_terms(phi, chunk, jet_order, integrand):
    """[(integrand, density)] per node of a chunk, from one batched evaluation."""
    for x, _w in chunk:
        _require_in_domain(phi, x)
    X = tuple(np.array(axis) for axis in zip(*(x for x, _w in chunk)))
    with np.errstate(all="raise", under="ignore"):
        v, d = _node_terms(phi, X, jet_order, integrand)
    size = len(chunk)
    return list(zip(np.broadcast_to(v, size).tolist(), np.broadcast_to(d, size).tolist()))


def _box_sum(phi, box, order, jet_order, integrand, factor=1.0):
    """Sum over the Gauss nodes of the box, in node order, of
    factor * w * integrand(pt, x) * sqrt(det g) at pt = phi.at(x lifted to jet_order).

    Nodes are taken _CHUNK at a time, each chunk evaluated as one batched point
    (coordinate arrays in float mode, (size, P) jets at order 1). If a chunk
    raises (a node outside the source domain, a point failure, a floating-point
    exception, a BatchSplit), the chunk is replayed node by node through the same code
    without a batch axis, so the exception and its message are those of a
    per-node loop. Terms are added one node at a time, in node order and with
    the per-node association, so the sum is bit-identical to that loop.
    """
    nodes = list(gauss_legendre_box(box, order))
    total = 0.0
    for start in range(0, len(nodes), _CHUNK):
        chunk = nodes[start:start + _CHUNK]
        try:
            terms = _chunk_terms(phi, chunk, jet_order, integrand)
        except _REPLAYED:
            terms = None
        for k, (x, w) in enumerate(chunk):
            if terms is None:
                _require_in_domain(phi, x)
                v, d = _node_terms(phi, x, jet_order, integrand)
            else:
                v, d = terms[k]
            total += factor * w * v * d
    return total


def p_energy_box(phi: SmoothMap, box, p: float, order: int = 8) -> float:
    """(1/p) integral of |dphi|^p over the box, against the metric volume.

    Float mode. Gauss nodes are evaluated 64 at a time as one batched point; a
    chunk in which anything raises is replayed node by node, so the result and
    any exception equal those of a per-node loop bit for bit (see `_box_sum`)."""
    return _box_sum(phi, box, order, 0, lambda pt, x: value(pt.norm_power(p))) / p


def p_bienergy_box(phi: SmoothMap, box, p: float, order: int = 8) -> float:
    """(1/2) integral of |tau_p(phi)|^2 over the box, against the metric volume.

    Order-1 jets (floats at p = 2). Gauss nodes are evaluated 64 at a time as
    one batched point; a chunk in which anything raises is replayed node by
    node, so the result and any exception equal those of a per-node loop bit
    for bit (see `_box_sum`)."""
    def integrand(pt, x):
        taup = pt.p_tension(p)
        return value(pt.h_inner(taup, taup))
    return _box_sum(phi, box, order, 0 if p == 2.0 else 1, integrand, factor=0.5)


def perturbed_map(phi: SmoothMap, variation, t: float) -> SmoothMap:
    """The map with components phi^a + t * v^a (a straight-line variation in chart coordinates)."""
    comps = [c + Const(float(t)) * v for c, v in zip(phi.components, variation)]
    return SmoothMap(phi.source, phi.target, comps, phi.params,
                     name=f"{phi.name}+{t}*v")
