"""Truncated multivariate Taylor ("jet") arithmetic.

A :class:`JetScalar` stores the Taylor coefficients of a scalar quantity with
respect to a fixed set of seed variables, up to a fixed total order K <= 4.
Arithmetic on jets propagates derivatives exactly (Leibniz / chain rule in
coefficient space), so any numeric pipeline written generically over
float-or-jet inputs can be differentiated by evaluating it at a seeded point
and reading coefficients off the result.

Derivatives of *computed* quantities are taken with :meth:`JetScalar.partial`,
which shifts the coefficient table. Each shift consumes one order of validity:
after s shifts, coefficients of total order > K - s are garbage (they would
need order K + s data). Truncated multiplication only mixes orders upward, so
the garbage never contaminates lower-order coefficients. Callers are expected
to lift points with enough order for the shifts their pipeline performs.

The generic elementary functions (:func:`sqrt`, :func:`exp`, ...) accept plain
floats as well, so the same kernel code runs in float mode when no derivatives
are requested.

Batch axis. The same code also evaluates many points at once. In float mode a
batched point is a tuple of coordinate arrays of shape (P,); in jet mode
(:func:`lift_point` of such a point) each scalar lives in a batched jet space
and its coefficient array has shape (size, P): the monomial axis first, one
column per batch entry. Base values (:func:`value`, ``JetScalar.value``) are
then arrays of shape (P,). Batched jets reach the same orders as unbatched
ones (<= 4). An order >= 2 product gathers the rows of its two operands that
the multiplication table pairs (``take`` along the monomial axis, one (terms,
P) array each), multiplies them in place and sums the terms with one
``bincount`` over the flattened bins ``k * P + entry``, weights laid out
term-major. Each entry's terms are the unbatched kernel's products, summed in
its order, so every column equals the product of that column alone, bit for
bit up to the sign of a NaN, which numpy's vectorized loops may propagate
otherwise than its scalar operations do (both print as nan). Scalar and
batched jets live in different spaces, so mixing them fails loudly instead
of broadcasting. Domain checks fail when any entry is out of
domain. For bit identity with the unbatched path, elementary functions,
:func:`powr` and :func:`abspow` compute their base values with the same
scalar libm call per entry (``math.exp``, ``pow``, ...), driven from C with no
Python frame per entry: ``np.fromiter(map(f, entries), float, P)``. Numpy's
ufuncs ``power``, ``exp``, ``log``, ``sin``, ... are not used: they have their
own implementations (SIMD ones on some CPUs), which may differ from libm in
the last bit. Numpy's ``+ - * /`` are exactly rounded IEEE operations and stay
vectorized. Code that branches on base values per point (pivoting in
:mod:`pbh.linalg`, the frame in :mod:`pbh.submanifold`) decides through
:func:`same_in_every_entry`, which raises :class:`pbh.errors.BatchSplit` when
the entries of a batch disagree.

Structural zeros. A Python float operand 0.0 or 1.0 never becomes a jet:
``u * 0.0`` and ``0.0 * u`` are the float 0.0 (shared by every batch entry);
``u * 1.0``, ``1.0 * u``, ``u + 0.0``, ``0.0 + u`` and ``u - 0.0`` are ``u``.
The zero components of metrics, Christoffel symbols, curvatures and
differentials then stay floats through later products and sums, at the cost
of a float operation each. ``u * 0.0`` is 0.0 even for infinite or NaN
coefficients, as the symbolic fold 0 * x -> 0 of :mod:`pbh.expr`. Otherwise
every coefficient equals the one a zero jet in the float's place gives (zero
times finite is zero; adding a zero keeps a nonzero), up to the sign of an
exact zero: x - 0.0 * y keeps a -0.0 of x that a zero jet makes 0.0. An int,
a numpy operand, ``0.0 - u`` and float mode keep their arithmetic; sums of
jets therefore start from 0.0 (``sum(terms, 0.0)``), which hands the first
term through, not from ``sum()``'s default int 0, which copies it.
"""

from __future__ import annotations

import math
from itertools import product as _iterproduct, repeat

import numpy as np

from .errors import BatchSplit, DomainError, JetOrderError

MAX_ORDER = 4

_SPACES: dict[tuple[int, int, bool], "JetSpace"] = {}


def space_for(nvars: int, order: int, batched: bool = False) -> "JetSpace":
    """Return the (cached) jet space with `nvars` seed variables and total order
    `order`; a `batched` space holds one coefficient column per batch entry."""
    key = (nvars, order, batched)
    space = _SPACES.get(key)
    if space is None:
        space = JetSpace(nvars, order, batched)
        _SPACES[key] = space
    return space


def _monomials(nvars: int, order: int) -> list[tuple[int, ...]]:
    monos = [alpha for alpha in _iterproduct(range(order + 1), repeat=nvars)
             if sum(alpha) <= order]
    monos.sort(key=lambda a: (sum(a), a))
    return monos


class JetSpace:
    """Shape data and precomputed tables for one (nvars, order) configuration,
    unbatched (coefficients of shape (size,)) or batched (shape (size, P))."""

    def __init__(self, nvars: int, order: int, batched: bool = False):
        if nvars < 1:
            raise ValueError("jet space needs at least one seed variable")
        if not 0 <= order <= MAX_ORDER:
            raise JetOrderError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
        self.nvars = nvars
        self.order = order
        self.batched = batched
        self.monomials = _monomials(nvars, order)
        self.size = len(self.monomials)
        self.index = {alpha: i for i, alpha in enumerate(self.monomials)}

        # dense multiplication table: c[kk] += a[ii] * b[jj]
        ii, jj, kk = [], [], []
        for i, a in enumerate(self.monomials):
            for j, b in enumerate(self.monomials):
                if sum(a) + sum(b) <= order:
                    ii.append(i)
                    jj.append(j)
                    kk.append(self.index[tuple(x + y for x, y in zip(a, b))])
        self._mul_i = np.array(ii, dtype=np.intp)
        self._mul_j = np.array(jj, dtype=np.intp)
        self._mul_k = np.array(kk, dtype=np.intp)
        self._batch_bins = {}

        # partial-derivative shift tables, one per seed variable
        self._shift_src = []
        self._shift_dst = []
        self._shift_fac = []
        for v in range(nvars):
            src, dst, fac = [], [], []
            for i, a in enumerate(self.monomials):
                if sum(a) < order:
                    up = tuple(x + (1 if w == v else 0) for w, x in enumerate(a))
                    src.append(self.index[up])
                    dst.append(i)
                    fac.append(a[v] + 1.0)
            self._shift_src.append(np.array(src, dtype=np.intp))
            self._shift_dst.append(np.array(dst, dtype=np.intp))
            # a column in a batched space, broadcast over the batch entries
            self._shift_fac.append(np.array(fac)[:, None] if batched else np.array(fac))

        self._alpha_factorials = np.array(
            [float(math.prod(math.factorial(x) for x in a)) for a in self.monomials])

    def batch_bins(self, size: int) -> np.ndarray:
        """Bincount bins of a batched product with `size` entries (cached per
        size). The product's weights are its gathered operand rows, a[i[t]] *
        b[j[t]] for term t of the multiplication table, an array of shape
        (terms, size) flattened term-major; term t of entry e lands in bin
        k[t] * size + e."""
        bins = self._batch_bins.get(size)
        if bins is None:
            bins = (self._mul_k[:, None] * size + np.arange(size)).ravel()
            self._batch_bins[size] = bins
        return bins

    def constant(self, x) -> "JetScalar":
        """Constant jet of value x (in a batched space, one value per entry)."""
        c = np.zeros((self.size, len(x)) if self.batched else self.size)
        c[0] = x
        return JetScalar(self, c)

    def variable(self, v: int, x0) -> "JetScalar":
        """Seeded coordinate: value x0, unit first-order coefficient in slot v."""
        if not 0 <= v < self.nvars:
            raise ValueError(f"seed index {v} out of range for {self.nvars} variables")
        c = np.zeros((self.size, len(x0)) if self.batched else self.size)
        c[0] = x0
        e_v = tuple(1 if w == v else 0 for w in range(self.nvars))
        c[self.index[e_v]] = 1.0
        return JetScalar(self, c)

    def __repr__(self):
        batched = ", batched" if self.batched else ""
        return f"JetSpace(nvars={self.nvars}, order={self.order}{batched})"


class JetScalar:
    """One truncated Taylor scalar, never changed once returned, so it keeps its
    reciprocal once formed (``_inv``): arithmetic may return an operand itself
    (``u + 0.0`` is ``u``), so code writes only into a jet it made, before returning it."""

    __slots__ = ("space", "c", "_inv")

    # numpy operands defer to the jet's reflected operators (array * jet)
    __array_ufunc__ = None

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.c = coeffs

    def _row(self, row):
        return row if self.space.batched else float(row)

    @property
    def value(self):
        """Base value: a float, or an array of shape (P,) in a batched space."""
        c0 = self.c[0]
        return c0 if self.space.batched else float(c0)

    def coefficient(self, alpha):
        """Taylor coefficient of the monomial `alpha` (derivative / alpha!)."""
        return self._row(self.c[self.space.index[tuple(alpha)]])

    def derivative(self, alpha):
        """Mixed partial derivative of multi-index `alpha`."""
        i = self.space.index[tuple(alpha)]
        return self._row(self.c[i] * self.space._alpha_factorials[i])

    def partial(self, v: int) -> "JetScalar":
        """First partial with respect to seed variable v, as a jet.

        Consumes one order of validity: coefficients of top total order in the
        result are zero-filled placeholders, not true values.
        """
        sp = self.space
        if not 0 <= v < sp.nvars:
            raise ValueError(f"seed index {v} out of range for {sp.nvars} variables")
        out = np.zeros(self.c.shape)
        out[sp._shift_dst[v]] = sp._shift_fac[v] * self.c[sp._shift_src[v]]
        return JetScalar(sp, out)

    # ------------------------------------------------------------------ #
    def _coerce(self, other):
        """`other` as a jet of this space; None for an operand taken inline
        (cheaper than building a constant jet): a number, or an array of shape
        () or, in a batched space, one value per entry."""
        if isinstance(other, JetScalar):
            if other.space is not self.space:
                raise ValueError("jet operands belong to different jet spaces")
            return other
        if isinstance(other, (int, float)):
            return None
        if isinstance(other, np.ndarray):
            if other.shape in ((), self.c.shape[1:]):
                return None
            raise ValueError("jet operands belong to different jet spaces")
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            if type(other) is float and other == 0.0:
                return self
            c = self.c.copy()
            c[0] += other
            return JetScalar(self.space, c)
        return JetScalar(self.space, self.c + o.c)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            if type(other) is float and other == 0.0:
                return self
            c = self.c.copy()
            c[0] -= other
            return JetScalar(self.space, c)
        return JetScalar(self.space, self.c - o.c)

    def __rsub__(self, other):
        if self._coerce(other) is not None:
            return NotImplemented
        c = -self.c
        c[0] += other
        return JetScalar(self.space, c)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            if type(other) is float:
                if other == 0.0:
                    return 0.0
                if other == 1.0:
                    return self
            return JetScalar(self.space, self.c * other)
        sp = self.space
        if sp.order <= 1:
            a0 = self.c[0]  # row 0: a0*b0; row k >= 1: a_k*b0 + b_k*a0
            prod = self.c * o.c[0]
            prod[1:] += o.c[1:] * a0
            return JetScalar(sp, prod)
        if not sp.batched:
            terms = self.c[sp._mul_i] * o.c[sp._mul_j]
            return JetScalar(sp, np.bincount(sp._mul_k, terms, sp.size))
        terms = self.c.take(sp._mul_i, 0)
        terms *= o.c.take(sp._mul_j, 0)
        size = terms.shape[1]
        prod = np.bincount(sp.batch_bins(size), terms.ravel(), sp.size * size)
        return JetScalar(sp, prod.reshape(sp.size, size))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            if any_entry(other == 0.0):
                raise ZeroDivisionError("jet divided by zero constant")
            return JetScalar(self.space, self.c / other)
        return self * _reciprocal(o)

    def __rtruediv__(self, other):
        if self._coerce(other) is not None:
            return NotImplemented
        if type(other) is float and other == 0.0 and not any_entry(self.value == 0.0):
            return 0.0  # reciprocal * 0.0, without forming the reciprocal
        return _reciprocal(self) * other

    def __neg__(self):
        return JetScalar(self.space, -self.c)

    def __pow__(self, q):
        return powr(self, q)

    def __repr__(self):
        return f"JetScalar(value={self.value!r}, order={self.space.order}, nvars={self.space.nvars})"


# ---------------------------------------------------------------------- #
# analytic functions of one jet via Horner on the nilpotent part
# ---------------------------------------------------------------------- #

def _compose(u: JetScalar, taylor: list) -> JetScalar:
    """Evaluate f(u) given taylor[k] = f^(k)(u.value) / k! (arrays for a batch)."""
    sp = u.space
    t = JetScalar(sp, u.c.copy())
    t.c[0] = 0.0
    acc = sp.constant(taylor[sp.order])
    for k in range(sp.order - 1, -1, -1):
        acc = acc * t
        acc.c[0] += taylor[k]
    return acc


def any_entry(mask) -> bool:
    """A comparison result taken over every batch entry (a plain bool passes through)."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else mask


def same_in_every_entry(mask) -> bool:
    """A comparison result that every batch entry must share: its value when
    all entries agree (a plain bool passes through), BatchSplit otherwise."""
    if not isinstance(mask, np.ndarray):
        return mask
    if mask.all():
        return True
    if mask.any():
        raise BatchSplit("batch entries disagree on a branch")
    return False


def _libm(f, x):
    """f(x) for a float, or per entry of a batch array through the same scalar
    call, so batched and unbatched values agree bit for bit."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(f, x.tolist()), float, len(x))
    return f(x)


def _powers(x, exponents) -> list:
    """[x ** e for e in exponents] with Python's float pow, per entry for a batch."""
    if isinstance(x, np.ndarray):
        ts = x.tolist()
        return [np.fromiter(map(pow, ts, repeat(e)), float, len(ts)) for e in exponents]
    return [x ** e for e in exponents]


def _reciprocal(u: JetScalar) -> JetScalar:
    # `_compose` by its module-global name: the benchmark's tracer wraps it there
    if getattr(u, "_inv", None) is None:
        u0 = u.value
        if any_entry(u0 == 0.0):
            raise ZeroDivisionError("jet division by zero base value")
        taylor = [1.0 / u0]
        for _ in range(u.space.order):
            taylor.append(-taylor[-1] * taylor[0])
        u._inv = _compose(u, taylor)
    return u._inv


def value(u):
    """Base (order-zero) value of a float-or-jet scalar; an array for a batch."""
    if isinstance(u, JetScalar):
        return u.value
    if isinstance(u, np.ndarray):
        return u
    return float(u)


def partial(u, v: int):
    """First partial of a float-or-jet scalar; a plain float is a constant."""
    if isinstance(u, JetScalar):
        return u.partial(v)
    return 0.0


def partial_value(u, v: int):
    """value(partial(u, v)), read off u's table without the shift: its x_v coefficient."""
    if not isinstance(u, JetScalar):
        return 0.0
    if not (0 <= v < u.space.nvars and u.space.order):
        return value(u.partial(v))  # a bad seed index raises; order 0 has no x_v
    return u._row(u.c[u.space._shift_src[v][0]])  # the row the shift moves to the base


def _first(u, mask):
    """A batch's first entry where mask holds, as a float (a scalar u itself)."""
    return float(u[mask][0]) if isinstance(u, np.ndarray) else u


def sqrt(u):
    if isinstance(u, JetScalar):
        return powr(u, 0.5)
    if any_entry(u < 0.0):
        raise DomainError(f"sqrt of negative value {_first(u, u < 0.0)}")
    return _libm(math.sqrt, u)


def exp(u):
    if isinstance(u, JetScalar):
        e0 = _libm(math.exp, u.value)
        taylor = [e0 / math.factorial(k) for k in range(u.space.order + 1)]
        return _compose(u, taylor)
    return _libm(math.exp, u)


def log(u):
    if isinstance(u, JetScalar):
        u0 = u.value
        if any_entry(u0 <= 0.0):
            raise DomainError(f"log of non-positive value {_first(u0, u0 <= 0.0)}")
        order = u.space.order
        taylor = [_libm(math.log, u0)]
        for k, u0k in zip(range(1, order + 1), _powers(u0, range(1, order + 1))):
            taylor.append((-1.0) ** (k - 1) / (k * u0k))
        return _compose(u, taylor)
    if any_entry(u <= 0.0):
        raise DomainError(f"log of non-positive value {_first(u, u <= 0.0)}")
    return _libm(math.log, u)


def sin(u):
    if isinstance(u, JetScalar):
        s0, c0 = _libm(math.sin, u.value), _libm(math.cos, u.value)
        cycle = (s0, c0, -s0, -c0)
        taylor = [cycle[k % 4] / math.factorial(k) for k in range(u.space.order + 1)]
        return _compose(u, taylor)
    return _libm(math.sin, u)


def cos(u):
    if isinstance(u, JetScalar):
        s0, c0 = _libm(math.sin, u.value), _libm(math.cos, u.value)
        cycle = (c0, -s0, -c0, s0)
        taylor = [cycle[k % 4] / math.factorial(k) for k in range(u.space.order + 1)]
        return _compose(u, taylor)
    return _libm(math.cos, u)


def _int_power(u: JetScalar, n: int) -> JetScalar:
    if n == 0:
        one = np.zeros_like(u.c)  # keeps u's batch shape
        one[0] = 1.0
        return JetScalar(u.space, one)
    result = None
    base = u
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return result


def powr(u, q):
    """u raised to a real constant exponent q.

    Non-negative integer exponents work for any base (repeated multiplication);
    other exponents need a base with nonzero (negative integer q) or positive
    (fractional q) value.
    """
    q = float(q)
    is_int = q == int(q)
    if isinstance(u, JetScalar):
        if is_int and q >= 0:
            return _int_power(u, int(q))
        u0 = u.value
        if any_entry(u0 == 0.0):
            raise DomainError(f"zero base raised to exponent {q}")
        if not is_int and any_entry(u0 < 0.0):
            raise DomainError(f"negative base {_first(u0, u0 < 0.0)} raised to "
                              f"fractional exponent {q}")
        taylor = []
        coeff = 1.0
        order = u.space.order
        for k, u0qk in enumerate(_powers(u0, [q - k for k in range(order + 1)])):
            taylor.append(coeff * u0qk)
            coeff *= (q - k) / (k + 1)
        return _compose(u, taylor)
    if isinstance(u, np.ndarray):
        # the float path below, flat over the entries; entry by entry when one
        # is out of its domain, so that the same exception is raised first
        if (not is_int and (u < 0.0).any()) or (q < 0 and (u == 0.0).any()):
            for t in u.tolist():
                powr(t, q)
        ts = u.tolist()
        values = map(pow, ts, repeat(int(q))) if is_int else map(math.pow, ts, repeat(q))
        return np.fromiter(values, float, len(ts))
    u = float(u)
    if is_int:
        if u == 0.0 and q < 0:
            raise DomainError(f"zero base raised to exponent {q}")
        return u ** int(q)
    if u < 0.0:
        raise DomainError(f"negative base {u} raised to fractional exponent {q}")
    if u == 0.0 and q < 0:
        raise DomainError(f"zero base raised to exponent {q}")
    return math.pow(u, q)


def abspow(u, q):
    """|u|^q for real constant q; smooth away from u = 0 where it is computed as (u^2)^(q/2)."""
    q = float(q)
    if isinstance(u, JetScalar):
        return powr(u * u, 0.5 * q)
    if isinstance(u, np.ndarray):
        # as powr; the float path's value at zero is math.pow(0.0, q) for q >= 0
        if not q >= 0.0 and (u == 0.0).any():
            for t in u.tolist():
                abspow(t, q)
        return np.fromiter(map(math.pow, map(abs, u.tolist()), repeat(q)), float, len(u))
    u = float(u)
    if u == 0.0:
        if q > 0:
            return 0.0
        if q == 0:
            return 1.0
        raise DomainError("abspow at zero with negative exponent")
    return math.pow(abs(u), q)


# ---------------------------------------------------------------------- #
# point lifting
# ---------------------------------------------------------------------- #

def lift_point(x, order: int) -> tuple:
    """Turn a float point into a tuple of seeded jets of the given total order.

    Every coordinate becomes a seed variable; `order` must cover the number of
    `partial` shifts the downstream pipeline performs. A batched point (one
    array of P values per coordinate) lifts into the batched space.
    """
    if not len(x):
        raise ValueError("a point needs at least one coordinate")
    if isinstance(x[0], np.ndarray):
        sp = space_for(len(x), order, batched=True)
        return tuple(sp.variable(i, v) for i, v in enumerate(np.broadcast_arrays(*x)))
    x = [float(v) for v in x]
    sp = space_for(len(x), order)
    return tuple(sp.variable(i, v) for i, v in enumerate(x))


def point_value(X) -> tuple:
    """Base values of a float-or-jet point; a tuple of tuples for a batched
    point, so that it stays hashable."""
    return tuple(v if isinstance(v, float) else tuple(v.tolist())
                 for v in (value(c) for c in X))
