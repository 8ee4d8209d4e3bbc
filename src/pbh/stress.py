"""The stress p-bienergy tensor, its trace and auxiliary one-form, and the
divergence identity linking it to the p-bitension field.

All five terms of the tensor are assembled from the map-calculus primitives;
the divergence side jet-differentiates the full stress pipeline (one shift on
top of the two the tensor consumes), so a divergence check needs an order-3
point. The two readers, `trace_identity_at` and `stress_divergence_sides`,
work on an already lifted `MapPoint` (`SmoothMap.at(lift_point(x, k))`), so
the tensor is assembled once per point and p and shared by both identities.
They also take a batched point (see :mod:`pbh.jets`) and then return arrays
of per-entry values. `stress_tensor`, `stress_trace`, `theta_divergence` and
`stress_divergence_check` take a float point, lift it to their own minimum
order and assemble the same fields; `stress_divergence_check` adds the gap
of `divergence_gap` to the two sides.
"""

from __future__ import annotations

from .geometry import divergence_at, divergence_2tensor_at
from .jets import lift_point, value
from .mapcalc import MapPoint, SmoothMap, _float_wrapper, once_per_p

__all__ = [
    "stress_tensor", "stress_trace", "theta_divergence", "stress_divergence_check",
    "trace_identity_at", "stress_divergence_sides", "divergence_gap",
]


@once_per_p
def _stress_matrix(mp: MapPoint, p: float):
    """(S matrix, |tau_p|^2, |dphi|^{p-2}<dphi, nabla tau_p>) at a jet point (2 shifts)."""
    m, cols, dtaup = mp.m, mp.dphi_cols, mp.dp_tension(p)
    taup = mp.p_tension(p)
    fac = mp.norm_power(p - 2.0)
    tau2 = mp.h_inner(taup, taup)
    pairing = mp.tension_pairing(p)
    scaled_pairing = fac * pairing
    fac4s = None
    if p != 2.0:
        fac4s = (p - 2.0) * mp.norm_power(p - 4.0) * pairing
    S = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            s = (-0.5 * tau2 - scaled_pairing) * mp.g[i][j]
            s = s + fac * mp.h_inner(cols[i], dtaup[j])
            s = s + fac * mp.h_inner(cols[j], dtaup[i])
            if fac4s is not None:
                s = s + fac4s * mp.h_inner(cols[i], cols[j])
            S[i][j] = S[j][i] = s
    return S, tau2, scaled_pairing


def _trace(mp: MapPoint, S):
    m = mp.m
    return sum((mp.ginv[i][j] * S[i][j] for i in range(m) for j in range(m)), 0.0)


def _theta_divergence(mp: MapPoint, p: float) -> float:
    """div of theta with the index raised, at a jet point (2 shifts); theta is
    the pairing one-form theta(d_i) = h(|dphi|^{p-2} dphi(d_i), tau_p)."""
    taup, fac = mp.p_tension(p), mp.norm_power(p - 2.0)
    low = [fac * mp.h_inner(col, taup) for col in mp.dphi_cols]
    return value(divergence_at(mp.gammaM, mp.grad_scalar(low)))


def trace_identity_at(mp: MapPoint, p: float):
    """(tr S, |tau_p|^2, algebraic form, divergence form) at a jet point (2 shifts).

    The closed forms of the trace are -(m/2)|tau_p|^2 + (p-m)|dphi|^{p-2}<dphi, nabla tau_p>
    and (m/2 - p)|tau_p|^2 + (p-m) div theta^sharp.
    """
    S, tau2, pairing = _stress_matrix(mp, p)
    m, tau2 = mp.m, value(tau2)
    form_alg = -(m / 2.0) * tau2 + (p - m) * value(pairing)
    form_div = (m / 2.0 - p) * tau2 + (p - m) * _theta_divergence(mp, p)
    return value(_trace(mp, S)), tau2, form_alg, form_div


def stress_divergence_sides(mp: MapPoint, p: float):
    """Base values of both sides of div S(d_k) = -h(tau_2p, dphi(d_k)) at a jet
    point (3 shifts); arrays of shape (P,) at a batched point."""
    S = _stress_matrix(mp, p)[0]
    lhs = [value(s) for s in divergence_2tensor_at(mp.ginv, mp.gammaM, S)]
    return lhs, [-v for v in mp.lower_base(mp.p_bitension(p))]


def divergence_gap(lhs, rhs) -> float:
    """Largest componentwise gap between the two sides at one point."""
    return max(abs(a - b) for a, b in zip(lhs, rhs))


def _scaled_divergence_gap(lhs, rhs) -> float:
    """`divergence_gap` over max(1, the largest side magnitude), as checks report it."""
    scale = max(max(abs(v) for v in lhs), max(abs(v) for v in rhs), 1.0)
    return divergence_gap(lhs, rhs) / scale


# ---------------------------------------------------------------------- #
# public wrappers over float points
# ---------------------------------------------------------------------- #

@_float_wrapper
def stress_tensor(phi: SmoothMap, x, p: float):
    """Stress p-bienergy tensor S_ij at a float point."""
    return [[value(s) for s in row] for row in _stress_matrix(phi.at(lift_point(x, 2)), p)[0]]


@_float_wrapper
def stress_trace(phi: SmoothMap, x, p: float) -> float:
    """g^{ij} S_ij; equals -(m/2)|tau_p|^2 + (p-m)|dphi|^{p-2}<dphi, nabla tau_p>."""
    mp = phi.at(lift_point(x, 2))
    return value(_trace(mp, _stress_matrix(mp, p)[0]))


@_float_wrapper
def theta_divergence(phi: SmoothMap, x, p: float) -> float:
    """div of the sharped theta form; equals |tau_p|^2 + |dphi|^{p-2}<dphi, nabla tau_p>."""
    return _theta_divergence(phi.at(lift_point(x, 2)), p)


@_float_wrapper
def stress_divergence_check(phi: SmoothMap, x, p: float):
    """Both sides of div S(d_k) = -h(tau_2p, dphi(d_k)) at x, plus the max gap."""
    lhs, rhs = stress_divergence_sides(phi.at(lift_point(x, 3)), p)
    return lhs, rhs, divergence_gap(lhs, rhs)
