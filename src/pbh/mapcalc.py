"""Calculus of maps between charts: differential, tension fields, the
p-tension and p-bitension fields, pull-back derivatives, and box quadrature
of the p-energy and p-bienergy.

Every quantity at a point is read from :class:`MapPoint`, the per-point
evaluation context `SmoothMap.at(lift_point(x, k))`, generic over
float-or-jet points. Derivatives of map components and metric components are
symbolic (of d^2 phi only the upper triangle, j >= i, is built and evaluated,
and `d2phi` mirrors it); derivatives of computed fields (the p-tension as a
field along the map, scalars like |dphi|) are jet shifts, so the trace
formulas carry explicit Christoffel corrections and hold at every chart
point, not just at centers of normal coordinates.

Jet budget per operation (shifts consumed internally): tension 0, p_tension 1,
pull-back derivative of a field adds 1, p_bitension 3. A point lifted to the
highest order of several readers serves all of them; p-dependent fields are
computed once per point and p, the target curvature once per point. So are
the products Gamma^N{}^a_{mu sigma} * dphi^mu_i that every Christoffel term of
`sff` and `pullback_derivative` starts with (`_gamma_dphi`, p-independent, so
kept across the steps of a sweep); the p-bitension's curvature term forms
R * tau_p * dphi_i once per index and i, not once per (i, j). Structural
zeros stay the float 0.0 at jet points (:mod:`pbh.jets`), so `ginv_terms` and
`_gamma_dphi` drop the zeros of g^{-1} and Gamma^N there too. Hoisted
products keep the left-to-right order and every sum its order, so each float
equals the one the unhoisted loops give. The
functions `tension`, `p_tension` and `p_bitension` take a float point, lift
it to their own minimum order and call the same reader. A MapPoint may also
hold a batch of points (see :mod:`pbh.jets`), at any jet order;
`replay_chunks` evaluates items in batched chunks of up to 512 and evaluates
a chunk that raises again by halves, down to single items. `pbh.scenarios`
uses it for its sample points; the box quadrature (its Gauss nodes) and the
acceptance criteria of `pbh.verify` (their sample points) read through one
chunk reader on top of it, `_read_points`.
"""

from __future__ import annotations

import copy
import itertools
from functools import cached_property, lru_cache, wraps

import numpy as np

from . import linalg
from .errors import BatchSplit, JetOrderError, PbhError, SingularityError
from .expr import Const, Expression, mark_reads, share_subtrees
from .geometry import ChartMetric
from .jets import JetScalar, any_entry, lift_point, partial, point_value, powr, sqrt, value

__all__ = [
    "SmoothMap", "MapPoint", "tension", "p_tension", "p_bitension",
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
        self.components = share_with_metric(self.source.components, components)
        self.name = name
        # derivative tables, shared with every with_params copy
        self._tables = {}

    def with_params(self, **updates) -> "SmoothMap":
        """Copy with rebound parameters; trees, derivative tables and their
        marking are shared."""
        phi = copy.copy(self)
        phi.params = {**self.params, **updates}
        if phi.params:
            phi.source = self.source.with_params(**phi.params)
            phi.target = self.target.with_params(**phi.params)
        return phi

    def _first(self):
        d1 = self._tables.get("d1")
        if d1 is None:
            m = self.source.dim
            d1 = self._tables["d1"] = [[c.diff(i) for i in range(m)] for c in self.components]
        return d1

    def _second(self):
        """d2[a][i][j - i] = d^2 phi^a / dx_i dx_j for j >= i, all `MapPoint.d2phi` reads."""
        d2 = self._tables.get("d2")
        if d2 is None:
            m = self.source.dim
            d1 = self._first()
            d2 = self._tables["d2"] = [[[d1[a][i].diff(j) for j in range(i, m)] for i in range(m)]
                                       for a in range(len(self.components))]
        return d2

    def _mark_reads(self):
        """Mark the nodes that one reader reads (`expr.mark_reads`), once per
        family of with_params copies and before any point evaluates: every
        tree a MapPoint evaluates on its source memo is one forest, every tree
        it evaluates on its target memo another. The source forest holds the
        source metric, which for an immersion is the pull-back metric built
        from the map's first derivative trees."""
        if "marked" not in self._tables:
            src, tgt = self.source, self.target
            mark_reads(_roots([self.components, self._first(), self._second(), src.components,
                               src._first_derivs(), src._second_derivs()]))
            mark_reads(_roots([tgt.components, tgt._first_derivs(), tgt._second_derivs()]))
            self._tables["marked"] = True

    def at(self, X) -> "MapPoint":
        return MapPoint(self, X)

    def __repr__(self):
        return f"SmoothMap({self.name or 'unnamed'}: dim {self.source.dim} -> {self.target.dim})"


def share_with_metric(metric, trees) -> list:
    """`trees` with equal subtrees merged (`expr.share_subtrees`), among
    themselves and with the kept trees of the metric matrix `metric`: a
    MapPoint evaluates a map's trees and its source metric on one memo."""
    known = [e for row in metric for e in row]
    return share_subtrees(known + list(trees))[len(known):]


def _roots(tables) -> list:
    """The expressions of nested lists of expressions, in order."""
    return [e for t in tables for e in ([t] if isinstance(t, Expression) else _roots(t))]


def check_p(p: float):
    """The p-tension, and every field built on it, is defined here for p >= 2 only."""
    if p < 2.0:
        raise ValueError(f"p must be >= 2, got {p}")


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
        if len(self.X) != self.m:
            raise ValueError(f"a point of the source needs {self.m} coordinates, "
                             f"got {len(self.X)}")
        self.n = smooth_map.target.dim
        smooth_map._mark_reads()
        # subtree values shared across every expression evaluated at this
        # point (source trees) and at its image (target trees); each table of
        # trees is evaluated once per memo, as `_mark_reads` counts it
        self._src_memo = {}
        self._tgt_memo = {}
        self._shared = {}

    def once(self, key, compute):
        """compute(), evaluated once per key at this point."""
        if key not in self._shared:
            self._shared[key] = compute()
        return self._shared[key]

    def forget_scratch(self):
        """Drop the subtree values shared between evaluations and the fields
        computed per p; cached properties stay. A later reader recomputes what
        it needs, with the same values."""
        self._src_memo.clear()
        self._tgt_memo.clear()
        self._shared.clear()

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
        """d2phi[a][i][j] = d^2 phi^a / dx_i dx_j: entries j >= i evaluated, the rest mirrored."""
        p, m = self.map.params, self.m
        out = [[[None] * m for _ in range(m)] for _ in range(self.n)]
        for d2, rows in zip(out, self.map._second()):
            for i, row in enumerate(rows):
                for j, e in enumerate(row, i):
                    d2[i][j] = d2[j][i] = e.evaluate(self.X, p, self._src_memo)
        return out

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
    def _hinv_dh(self):
        """(h^{-1}, dh) at phi(X), read by both gammaN and target_curvature."""
        return linalg.inverse(self.h), self.map.target.dmetric_at(self.phiX, self._tgt_memo)

    @cached_property
    def gammaN(self):
        hinv, dh = self._hinv_dh
        return self.map.target.christoffel_at(self.phiX, ginv=hinv, dg=dh)

    @cached_property
    def _gamma_dphi(self):
        """[i][a]: (sigma, Gamma^N{}^a_{mu sigma} * dphi[mu][i]) for each
        Gamma^N{}^a_{mu sigma} that is not structurally zero, in
        itertools.product order of (mu, sigma). p-independent: it is the
        left factor of every Christoffel term of `sff` and
        `pullback_derivative`, formed once per point."""
        n, gn, dphi = self.n, self.gammaN, self.dphi
        nonzero = [[(mu, sg, gn[a][mu][sg]) for mu, sg in itertools.product(range(n), repeat=2)
                    if not (isinstance(gn[a][mu][sg], float) and gn[a][mu][sg] == 0.0)]
                   for a in range(n)]
        return [[[(sg, gam * dphi[mu][i]) for mu, sg, gam in row] for row in nonzero]
                for i in range(self.m)]

    @cached_property
    def target_curvature(self):
        """R^N at phi(X); p-independent, so every p reads the same tensor."""
        hinv, dh = self._hinv_dh
        return self.map.target.curvature_at(self.phiX, ginv=hinv, dg=dh, gamma=self.gammaN,
                                            memo=self._tgt_memo)

    def h_inner(self, u, v):
        h = self.h
        return sum((h[a][b] * u[a] * v[b] for a in range(self.n) for b in range(self.n)), 0.0)

    def push(self, v):
        """dphi applied to a source vector."""
        return [sum((self.dphi[a][i] * v[i] for i in range(self.m)), 0.0) for a in range(self.n)]

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
        gm = self.gammaM
        out = [[[None] * m for _ in range(m)] for _ in range(n)]
        for a in range(n):
            for i in range(m):
                for j in range(i, m):
                    s = d2phi[a][i][j]
                    for k in range(m):
                        s = s - gm[k][i][j] * dphi[a][k]
                    for sg, gam_dphi in self._gamma_dphi[i][a]:
                        s = s + gam_dphi * dphi[sg][j]
                    out[a][i][j] = s
                    out[a][j][i] = s
        return out

    @cached_property
    def tension(self):
        """tau(phi)^a = g^{ij} (nabla dphi)^a_ij."""
        return [sum((self.ginv[i][j] * self.sff[a][i][j]
                     for i in range(self.m) for j in range(self.m)), 0.0)
                for a in range(self.n)]

    def grad_scalar(self, partials):
        """g^{ij} (d_j f) from a list of coordinate partials of a scalar."""
        return [sum((self.ginv[i][j] * partials[j] for j in range(self.m)), 0.0)
                for i in range(self.m)]

    @once_per_p
    def p_tension(self, p: float):
        """tau_p(phi) = |dphi|^{p-2} tau(phi) + (p-2)|dphi|^{p-3} dphi(grad |dphi|)."""
        check_p(p)
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
        """(nabla^phi_{d_i} V)^a = d_i V^a + Gamma^N{}^a_{mu sigma} (d_i phi^mu) V^sigma,
        for a direction 0 <= i < m."""
        if not 0 <= i < self.m:
            raise ValueError(f"direction {i} is not one of the {self.m} source directions")
        self._require_jets("pullback_derivative")
        out = []
        for a, row in enumerate(self._gamma_dphi[i]):
            s = partial(V[a], i)
            for sg, gam_dphi in row:
                s = s + gam_dphi * V[sg]
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
            Rn, dphi = self.target_curvature, self.dphi
            # per d: (gamma, [R^d_{al be ga} * taup^al * dphi^be_i for each i]),
            # the left factors of the (i, j) sums, formed once
            left = [[] for _ in range(n)]
            for d, al, be, ga in itertools.product(range(n), repeat=4):
                R = Rn[d][al][be][ga]
                if isinstance(R, float) and R == 0.0:
                    continue
                R_taup = R * taup[al]
                left[d].append((ga, [R_taup * dphi[be][i] for i in range(m)]))
            for i, j, gij in self.ginv_terms:
                for d in range(n):
                    s = 0.0
                    for ga, R_taup_dphi in left[d]:
                        s = s + R_taup_dphi[i] * dphi[ga][j]
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

def tension(phi: SmoothMap, x):
    return [value(t) for t in phi.at(tuple(x)).tension]


def p_tension(phi: SmoothMap, x, p: float):
    # at p = 2 the p-tension is the tension, which needs no jets
    return [value(t) for t in phi.at(tuple(x) if p == 2.0 else lift_point(x, 1)).p_tension(p)]


def p_bitension(phi: SmoothMap, x, p: float):
    return [value(t) for t in phi.at(lift_point(x, 3)).p_bitension(p)]


# ---------------------------------------------------------------------- #
# box quadrature of the energy functionals
# ---------------------------------------------------------------------- #

@lru_cache(maxsize=None)
def _gauss_legendre_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order, read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_legendre_box(box, order: int = 8) -> list:
    """Tensor-product Gauss-Legendre nodes and weights over an axis-aligned box.

    A list of (point tuple, weight) pairs in `itertools.product` order of the
    axes' nodes (the last axis varies fastest). A weight is the product of
    its axis weights, taken axis by axis starting from 1.0; the grid is built
    by numpy broadcasting."""
    nodes_1d, weights_1d = _gauss_legendre_rule(order)
    dim = len(box)
    points = np.empty((order,) * dim + (dim,))
    weights = np.ones((order,) * dim)
    for k, (lo, hi) in enumerate(box):
        lo, hi = float(lo), float(hi)
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        axis = (order,) + (1,) * (dim - 1 - k)  # broadcasts along axis k of the grid
        points[..., k] = (mid + half * nodes_1d).reshape(axis)
        weights *= (half * weights_1d).reshape(axis)
    return list(zip(map(tuple, points.reshape(order ** dim, dim).tolist()),
                    weights.ravel().tolist()))


def _volume_density(pt: MapPoint):
    from .linalg import det
    return sqrt(value(det(pt.g)))


# points (sample points, Gauss nodes) evaluated together as one batched point:
# the 8^3 Gauss nodes of a 3-D box
_CHUNK = 512

# what a batched chunk may raise; evaluating its halves, down to single items,
# then raises or not exactly as a per-item loop would (numpy signals
# FloatingPointError where Python floats raise ZeroDivisionError, or silently
# overflow)
_REPLAYED = (PbhError, ArithmeticError, ValueError, BatchSplit)


def _stack(points):
    """The batched point of a list of float points: one array per coordinate."""
    return tuple(np.array(axis) for axis in zip(*points))


def _entries(v, size) -> list:
    """The `size` per-point floats of a base value: an array holds one per
    batch entry, a float is shared by all."""
    return v.tolist() if isinstance(v, np.ndarray) else [v] * size


def _split(vec, size) -> list:
    """Per point, the base values of a vector of float-or-jet scalars."""
    return [list(col) for col in zip(*(_entries(value(c), size) for c in vec))]


def replay_chunks(items, batched, single):
    """Yield one result per item, in order, evaluating _CHUNK items at a time.

    batched(chunk) evaluates a chunk as one batched point, under
    np.errstate(all="raise", under="ignore"), and returns one result per item.
    If it raises (a point failure, a floating-point exception, a BatchSplit)
    or returns None, each half of the chunk is tried the same way in turn,
    down to single items. single(item) evaluates one item without a batch
    axis: it is the unbatched path, and a chunk of one item goes to it
    directly. Results and exceptions are those of a per-item loop, in item
    order; a chunk with one bad item late in it costs about 2 log2(size)
    batched attempts instead of size single ones.
    """
    for start in range(0, len(items), _CHUNK):
        yield from _halving(items[start:start + _CHUNK], batched, single)


def _halving(chunk, batched, single) -> list:
    """The results of `chunk` for replay_chunks: one batched attempt, then
    each half in turn. (At module level: a closure calling itself would be a
    reference cycle holding every run's contexts until the cyclic GC runs.)"""
    if len(chunk) == 1:
        return [single(chunk[0])]
    try:
        with np.errstate(all="raise", under="ignore"):
            results = batched(chunk)
    except _REPLAYED:
        results = None
    if results is None:
        half = len(chunk) // 2
        return (_halving(chunk[:half], batched, single)
                + _halving(chunk[half:], batched, single))
    return results


def _read_points(obj, points, order, read):
    """Yield one result per point, in order, read from the points in batched chunks.

    obj is a SmoothMap or an Immersion. A chunk is one batched point X (one
    point alone is the unbatched point X), and read(obj.at(X lifted to `order`;
    0: floats), X, size) returns the results of its `size` points. Every point
    of a chunk is checked against the source domain before any is evaluated;
    a chunk that raises is evaluated again by halves, down to single points
    (`replay_chunks`), so the exception and its message are those of a
    per-point loop.
    """
    source = obj.source if isinstance(obj, SmoothMap) else obj.map.source

    def at(chunk):
        for x in chunk:
            if not source.contains(x):
                raise SingularityError("quadrature node outside source domain", point=x)
        X = _stack(chunk) if len(chunk) > 1 else chunk[0]
        return read(obj.at(lift_point(X, order) if order else X), X, len(chunk))

    return replay_chunks(points, at, lambda x: at((x,))[0])


def _box_sum(phi, box, order, jet_order, integrand, factor=1.0):
    """Sum over the Gauss nodes of the box, in node order, of
    factor * w * integrand(pt, x) * sqrt(det g) at pt = phi.at(x lifted to jet_order).

    Nodes are read in batched chunks (`_read_points`: coordinate arrays in
    float mode, (size, P) jets at order 1), and a chunk that raises is
    evaluated again by halves, down to single nodes. Terms are added one node
    at a time, in node order and with the per-node association, so the sum is
    bit-identical to a per-node loop.
    """
    nodes = list(gauss_legendre_box(box, order))

    def terms(pt, X, size):
        return list(zip(*(np.broadcast_to(t, size).tolist()
                          for t in (integrand(pt, X), _volume_density(pt)))))

    points = [x for x, _w in nodes]
    total = 0.0
    for (_x, w), (v, d) in zip(nodes, _read_points(phi, points, jet_order, terms)):
        total += factor * w * v * d
    return total


def p_energy_box(phi: SmoothMap, box, p: float, order: int = 8) -> float:
    """(1/p) integral of |dphi|^p over the box, against the metric volume.

    Float mode. The Gauss nodes are evaluated up to 512 at a time (8^3, a
    whole box of the default order in three dimensions) as one batched point;
    a chunk in which anything raises is evaluated again by halves, down to
    single nodes, so the result and any exception equal those of a per-node
    loop bit for bit (see `_box_sum`)."""
    return _box_sum(phi, box, order, 0, lambda pt, x: value(pt.norm_power(p))) / p


def p_bienergy_box(phi: SmoothMap, box, p: float, order: int = 8) -> float:
    """(1/2) integral of |tau_p(phi)|^2 over the box, against the metric volume.

    Order-1 jets (floats at p = 2). The Gauss nodes are evaluated up to 512 at
    a time as one batched point; a chunk in which anything raises is
    evaluated again by halves, down to single nodes, so the result and any
    exception equal those of a per-node loop bit for bit (see `_box_sum`)."""
    def integrand(pt, x):
        taup = pt.p_tension(p)
        return value(pt.h_inner(taup, taup))
    return _box_sum(phi, box, order, 0 if p == 2.0 else 1, integrand, factor=0.5)


def perturbed_map(phi: SmoothMap, variation, t: float) -> SmoothMap:
    """The map with components phi^a + t * v^a (a straight-line variation in chart coordinates)."""
    comps = [c + Const(float(t)) * v for c, v in zip(phi.components, variation)]
    return SmoothMap(phi.source, phi.target, comps, phi.params,
                     name=f"{phi.name}+{t}*v")
