"""Kinetics, Jacobians, equilibria, and temporal bifurcation thresholds.

The non-dimensional planar kinetics are

    F1(u, v) = sigma*u**2*(1 - u) - eta*u - u*v/(alpha + u + beta*v)
    F2(u, v) = gamma*u*v/(alpha + u + beta*v) - v

with prey growth reduced at low density (the sigma*u**2 factor), a linear
prey mortality, and predator interference through beta. alpha = 0 is the
ratio-dependent limit; beta = 0 the interference-free saturating limit.
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import (
    C1Violated,
    DegenerateKinetics,
    NonFinite,
    NoSignChange,
    NotAtHopf,
    OutOfRange,
)
from .rootfind import bracketed_root, real_cubic_roots

__all__ = [
    "KineticParams",
    "Stability",
    "EquilibriumKind",
    "Equilibrium",
    "kinetics",
    "jacobian",
    "jacobian_fields",
    "trivial_equilibrium",
    "axial_equilibria",
    "coexisting_equilibria",
    "all_equilibria",
    "upper_coexisting",
    "sigma_sn",
    "sigma_tc",
    "sigma_s",
    "hopf_sigma",
    "first_lyapunov_coefficient",
]


@dataclass(frozen=True)
class KineticParams:
    """Dimensionless kinetic parameters.

    alpha: self-saturation of the functional response, >= 0
    beta: predator interference, >= 0
    gamma: conversion efficiency, > 0
    sigma: prey growth scale, > 0
    eta: prey mortality, > 0
    """

    alpha: float
    beta: float
    gamma: float
    sigma: float
    eta: float

    def __post_init__(self) -> None:
        vals = (self.alpha, self.beta, self.gamma, self.sigma, self.eta)
        if not all(math.isfinite(x) for x in vals):
            raise NonFinite(f"kinetic parameters must be finite, got {vals}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError(
                f"alpha and beta must be >= 0, got alpha={self.alpha}, beta={self.beta}"
            )
        if self.gamma <= 0 or self.sigma <= 0 or self.eta <= 0:
            raise ValueError(
                "gamma, sigma, eta must be > 0, got "
                f"gamma={self.gamma}, sigma={self.sigma}, eta={self.eta}"
            )

    def with_sigma(self, sigma: float) -> "KineticParams":
        return replace(self, sigma=sigma)


class Stability(Enum):
    STABLE_NODE = "StableNode"
    STABLE_FOCUS = "StableFocus"
    UNSTABLE_NODE = "UnstableNode"
    UNSTABLE_FOCUS = "UnstableFocus"
    SADDLE = "Saddle"
    NON_HYPERBOLIC = "NonHyperbolic"


class EquilibriumKind(Enum):
    TRIVIAL = "Trivial"
    AXIAL1 = "Axial1"
    AXIAL2 = "Axial2"
    COEXISTING = "Coexisting"


@dataclass(frozen=True)
class Equilibrium:
    kind: EquilibriumKind
    u: float
    v: float
    trace: float
    det: float
    stability: Stability

    @property
    def eigenvalues(self) -> tuple[complex, complex]:
        half = 0.5 * self.trace
        disc = half * half - self.det
        if disc >= 0.0:
            s = math.sqrt(disc)
            return (half - s, half + s)
        s = math.sqrt(-disc)
        return (complex(half, -s), complex(half, s))


def _classify(trace: float, det: float) -> Stability:
    """Standard planar classification from (trace, det).

    A determinant or trace within 1e-9 (scaled) of zero is NonHyperbolic;
    disc = 0 (repeated eigenvalue) counts as a node.
    """
    scale = max(1.0, abs(trace), abs(det))
    t = 1e-9 * scale
    if det < -t:
        return Stability.SADDLE
    if abs(det) <= t:
        return Stability.NON_HYPERBOLIC
    if abs(trace) <= t:
        return Stability.NON_HYPERBOLIC
    disc = trace * trace - 4.0 * det
    if trace < 0:
        return Stability.STABLE_NODE if disc >= 0 else Stability.STABLE_FOCUS
    return Stability.UNSTABLE_NODE if disc >= 0 else Stability.UNSTABLE_FOCUS


def _masked_div(num, den):
    """num / den, with 0 where den == 0 (the origin convention)."""
    if isinstance(den, float):
        return num / den if den != 0.0 else 0.0
    out = np.zeros_like(den)
    np.divide(num, den, out=out, where=den != 0.0)
    return out


def _rates(u, v, p: KineticParams):
    den = p.alpha + u + p.beta * v
    inter = _masked_div(u * v, den)
    f1 = p.sigma * u * u * (1.0 - u) - p.eta * u - inter
    f2 = p.gamma * inter - v
    return f1, f2


def _derivatives(u, v, p: KineticParams):
    inv = _masked_div(1.0, p.alpha + u + p.beta * v)
    inv2 = inv * inv
    a10 = p.sigma * u * (2.0 - 3.0 * u) - p.eta - v * inv + u * v * inv2
    a01 = -u * (p.alpha + u) * inv2
    b10 = p.gamma * v * (p.alpha + p.beta * v) * inv2
    b01 = p.gamma * u * inv - p.gamma * p.beta * u * v * inv2 - 1.0
    return a10, a01, b10, b01


def kinetics(u, v, p: KineticParams):
    """Reaction rates (F1, F2). Accepts scalars or same-shape arrays.

    Scalar contract: when u and v are both floats (np.float64 included),
    the rates are computed in plain Python arithmetic and returned as
    Python floats, bit for bit equal to the array path at the same point.

    At (0, 0) with alpha = 0 the interaction terms are defined as 0 (the
    limit along any ray is bounded). Slightly negative trial states from
    adaptive steppers are evaluated as written rather than rejected; only
    non-finite input is an error.
    """
    if isinstance(u, float) and isinstance(v, float):
        if not (math.isfinite(u) and math.isfinite(v)):
            raise NonFinite("kinetics called with non-finite state")
        f1, f2 = _rates(float(u), float(v), p)
        return float(f1), float(f2)
    ua = np.asarray(u, dtype=float)
    va = np.asarray(v, dtype=float)
    if not (np.all(np.isfinite(ua)) and np.all(np.isfinite(va))):
        raise NonFinite("kinetics called with non-finite state")
    # overflow on a diverging state is reported by the caller's finiteness
    # check, not as a warning here
    with np.errstate(over="ignore", invalid="ignore"):
        f1, f2 = _rates(ua, va, p)
    if np.isscalar(u) and np.isscalar(v):
        return float(f1), float(f2)
    return f1, f2


def jacobian_fields(u, v, p: KineticParams):
    """Pointwise Jacobian entries (a10, a01, b10, b01) of the kinetics.

    Vectorized counterpart of :func:`jacobian`; at points where the
    response denominator vanishes (origin, alpha = 0) the interaction
    derivatives are taken as 0, matching the origin convention. Float
    inputs take the same plain-Python path as :func:`kinetics` and give
    Python floats.
    """
    if isinstance(u, float) and isinstance(v, float):
        a10, a01, b10, b01 = _derivatives(float(u), float(v), p)
        return float(a10), float(a01), float(b10), float(b01)
    return _derivatives(np.asarray(u, dtype=float), np.asarray(v, dtype=float), p)


def _jacobian_entries(u: float, v: float,
                      p: KineticParams) -> tuple[float, float, float, float]:
    if not (math.isfinite(u) and math.isfinite(v)):
        raise NonFinite(f"jacobian called at non-finite point ({u}, {v})")
    return jacobian_fields(float(u), float(v), p)


def jacobian(u: float, v: float, p: KineticParams) -> np.ndarray:
    """2x2 Jacobian of the kinetics at a point."""
    a10, a01, b10, b01 = _jacobian_entries(u, v, p)
    return np.array([[a10, a01], [b10, b01]])


def _make_equilibrium(kind: EquilibriumKind, u: float, v: float, p: KineticParams,
                      *, force_nonhyperbolic: bool = False) -> Equilibrium:
    a10, a01, b10, b01 = _jacobian_entries(u, v, p)
    tr = a10 + b01
    det = a10 * b01 - a01 * b10
    stab = Stability.NON_HYPERBOLIC if force_nonhyperbolic else _classify(tr, det)
    return Equilibrium(kind=kind, u=u, v=v, trace=tr, det=det, stability=stab)


def trivial_equilibrium(p: KineticParams) -> Equilibrium:
    """The extinction state (0, 0); a stable node for every valid parameter set."""
    return _make_equilibrium(EquilibriumKind.TRIVIAL, 0.0, 0.0, p)


def axial_equilibria(p: KineticParams) -> list[Equilibrium]:
    """Predator-free equilibria on the u axis.

    sigma*u*(1-u) = eta has two roots u1 > u2 when sigma > 4*eta, one
    (u = 1/2) at equality, none below. Returned in descending u (Axial1
    first), so the list is [u1, u2], [u = 1/2], or [].
    """
    disc = p.sigma * p.sigma - 4.0 * p.sigma * p.eta
    # sigma = 4*eta exactly is a legal input; absorb float noise around it.
    if abs(disc) <= 1e-14 * p.sigma * p.sigma:
        return [_make_equilibrium(EquilibriumKind.AXIAL1, 0.5, 0.0, p)]
    if disc < 0.0:
        return []
    s = math.sqrt(disc)
    u1 = (p.sigma + s) / (2.0 * p.sigma)
    u2 = (p.sigma - s) / (2.0 * p.sigma)
    return [
        _make_equilibrium(EquilibriumKind.AXIAL1, u1, 0.0, p),
        _make_equilibrium(EquilibriumKind.AXIAL2, u2, 0.0, p),
    ]


def _feasibility_window(p: KineticParams) -> tuple[float, float] | None:
    """(lo, hi) such that coexisting states need lo < u < hi; None if empty."""
    if p.gamma <= 1.0 or p.sigma <= 4.0 * p.eta:
        return None
    s = math.sqrt(p.sigma * p.sigma - 4.0 * p.sigma * p.eta)
    u1 = (p.sigma + s) / (2.0 * p.sigma)
    u2 = (p.sigma - s) / (2.0 * p.sigma)
    lo = max(p.alpha / (p.gamma - 1.0), u2)
    return (lo, u1) if lo < u1 else None


def coexisting_equilibria(p: KineticParams) -> list[Equilibrium]:
    """Interior equilibria (u > 0, v > 0), ascending in u.

    For beta > 0 these are roots of the cubic

        Q(u) = sigma*gamma*beta*u**3 - sigma*gamma*beta*u**2
               + (beta*eta*gamma + gamma - 1)*u - alpha

    filtered by the feasibility window max{alpha/(gamma-1), u2} < u < u1
    and v = ((gamma-1)*u - alpha)/beta > 0. For beta = 0 the predator
    nullcline pins u = alpha/(gamma-1) directly. A double root inside the
    window (tangent nullclines) is reported once, tagged NonHyperbolic.
    """
    if p.beta == 0.0:
        if p.gamma <= 1.0:
            raise DegenerateKinetics(
                "beta = 0 with gamma <= 1: the predator nullcline "
                f"u = alpha/(gamma-1) is undefined (gamma={p.gamma})"
            )
        # With beta = 0 the predator nullcline pins u* = alpha/(gamma-1)
        # exactly, so the generic strict window (which uses that same value
        # as its lower edge) does not apply; feasibility is just v* > 0,
        # i.e. the prey nullcline positive at u*, i.e. u2 < u* < u1.
        ustar = p.alpha / (p.gamma - 1.0)
        vstar = (p.sigma * ustar * (1.0 - ustar) - p.eta) * (p.alpha + ustar)
        if vstar <= 0.0:
            return []
        return [_make_equilibrium(EquilibriumKind.COEXISTING, ustar, vstar, p)]

    window = _feasibility_window(p)
    if window is None:
        return []
    c3 = p.sigma * p.gamma * p.beta
    c2 = -c3
    c1 = p.beta * p.eta * p.gamma + p.gamma - 1.0
    c0 = -p.alpha
    roots = real_cubic_roots(c3, c2, c1, c0)
    out: list[Equilibrium] = []
    lo, hi = window
    for u in roots:
        if not (lo < u < hi):
            continue
        v = ((p.gamma - 1.0) * u - p.alpha) / p.beta
        if v <= 0.0:
            continue
        dq = (3.0 * c3 * u + 2.0 * c2) * u + c1
        scale = max(abs(c3), abs(c1), abs(c0), 1e-30)
        double_root = abs(dq) <= 1e-6 * scale
        out.append(
            _make_equilibrium(
                EquilibriumKind.COEXISTING, u, v, p, force_nonhyperbolic=double_root
            )
        )
    return out


def all_equilibria(p: KineticParams) -> list[Equilibrium]:
    """Trivial + axial + coexisting, in that order.

    A beta = 0, gamma <= 1 parameter set has no coexisting state at all;
    here that is an empty tail rather than an error.
    """
    eqs = [trivial_equilibrium(p)]
    eqs.extend(axial_equilibria(p))
    try:
        eqs.extend(coexisting_equilibria(p))
    except DegenerateKinetics:
        pass
    return eqs


def sigma_sn(p: KineticParams) -> float:
    """Growth threshold where the two axial states merge: sigma = 4*eta."""
    return 4.0 * p.eta


def sigma_tc(p: KineticParams) -> float:
    """Growth threshold of the exchange of stability on the u axis.

    sigma_TC = eta*(gamma-1)**2 / (alpha*(gamma-alpha-1)); needs alpha > 0
    and gamma > alpha + 1 for the crossing to exist at positive u.
    """
    if p.alpha <= 0.0 or p.gamma <= p.alpha + 1.0:
        raise OutOfRange(
            "sigma_tc needs alpha > 0 and gamma > alpha + 1, got "
            f"alpha={p.alpha}, gamma={p.gamma}"
        )
    return p.eta * (p.gamma - 1.0) ** 2 / (p.alpha * (p.gamma - p.alpha - 1.0))


def sigma_s(e: Equilibrium, p: KineticParams) -> float:
    """Sufficient growth level for local stability of a coexisting state.

    Evaluates v*/(gamma**2 u***3 (2u* - 1)). This upper-bounds the sharp
    trace-sign threshold for u* < 1, so sigma > sigma_s still implies the
    prey self-term is negative; it is a sufficient bound, not the exact
    stability boundary.
    """
    if e.kind is not EquilibriumKind.COEXISTING:
        raise OutOfRange(f"sigma_s applies to coexisting equilibria, got {e.kind.value}")
    if e.u <= 0.5:
        raise OutOfRange(f"sigma_s as stated needs u* > 1/2, got u*={e.u}")
    return e.v / (p.gamma**2 * e.u**3 * (2.0 * e.u - 1.0))


def upper_coexisting(p: KineticParams) -> Equilibrium:
    """The largest-u coexisting equilibrium; OutOfRange when there is none."""
    eqs = coexisting_equilibria(p)
    if not eqs:
        raise OutOfRange(f"no coexisting equilibrium at sigma={p.sigma}")
    return eqs[-1]


def hopf_sigma(p: KineticParams, bracket: tuple[float, float]) -> tuple[float, Equilibrium]:
    """sigma at which trace(J(E*(sigma))) = 0 on the upper coexisting branch.

    Follows the largest-u coexisting equilibrium across the bracket, locates
    the trace zero to ROOT_TOL (1e-10) in sigma, then checks the genericity
    conditions: det(J) > 0 at the zero and d(trace)/d sigma bounded away
    from 0 (central difference). Returns (sigma_H, equilibrium at sigma_H).
    """
    def trace_at(sigma: float) -> float:
        try:
            return upper_coexisting(p.with_sigma(sigma)).trace
        except OutOfRange as exc:
            raise NoSignChange(
                f"{exc}; the bracket must lie inside the coexistence range"
            ) from exc

    lo, hi = bracket
    root = bracketed_root(trace_at, lo, hi)
    e = upper_coexisting(p.with_sigma(root))
    if e.det <= 0.0:
        raise C1Violated(
            f"det(J) = {e.det:.6g} <= 0 at the trace zero sigma={root:.10g}; "
            "the crossing pair is not complex"
        )
    h = 1e-5 * max(1.0, abs(root))
    dtrace = (trace_at(root + h) - trace_at(root - h)) / (2.0 * h)
    if abs(dtrace) < 1e-6:
        raise C1Violated(
            f"d(trace)/d(sigma) = {dtrace:.3g} at sigma={root:.10g}; "
            "the eigenvalue pair does not cross transversally"
        )
    return root, e


def _taylor_coefficients(p: KineticParams, u0: float, v0: float):
    """Taylor coefficients a_ij, b_ij (coefficient of x^i y^j) of the kinetics
    about (u0, v0), orders 2 and 3, by central differences of step 1e-4."""
    h = 1e-4
    def f(du: float, dv: float) -> tuple[float, float]:
        return kinetics(u0 + du, v0 + dv, p)

    # Cache the stencil values once; both components come for free.
    pts = {}
    offsets = [-2, -1, 0, 1, 2]
    for i in offsets:
        for j in offsets:
            pts[(i, j)] = f(i * h, j * h)

    def g(c: int, i: int, j: int) -> float:
        return pts[(i, j)][c]

    out = []
    for c in (0, 1):
        fxx = (g(c, 1, 0) - 2 * g(c, 0, 0) + g(c, -1, 0)) / h**2
        fyy = (g(c, 0, 1) - 2 * g(c, 0, 0) + g(c, 0, -1)) / h**2
        fxy = (g(c, 1, 1) - g(c, 1, -1) - g(c, -1, 1) + g(c, -1, -1)) / (4 * h**2)
        fxxx = (g(c, 2, 0) - 2 * g(c, 1, 0) + 2 * g(c, -1, 0) - g(c, -2, 0)) / (2 * h**3)
        fyyy = (g(c, 0, 2) - 2 * g(c, 0, 1) + 2 * g(c, 0, -1) - g(c, 0, -2)) / (2 * h**3)
        fxxy = (
            g(c, 1, 1) - 2 * g(c, 0, 1) + g(c, -1, 1)
            - g(c, 1, -1) + 2 * g(c, 0, -1) - g(c, -1, -1)
        ) / (2 * h**3)
        fxyy = (
            g(c, 1, 1) - 2 * g(c, 1, 0) + g(c, 1, -1)
            - g(c, -1, 1) + 2 * g(c, -1, 0) - g(c, -1, -1)
        ) / (2 * h**3)
        out.append({
            (2, 0): fxx / 2.0,
            (1, 1): fxy,
            (0, 2): fyy / 2.0,
            (3, 0): fxxx / 6.0,
            (2, 1): fxxy / 2.0,
            (1, 2): fxyy / 2.0,
            (0, 3): fyyy / 6.0,
        })
    return out[0], out[1]


def first_lyapunov_coefficient(p: KineticParams, sigma_h: float, estar: Equilibrium) -> float:
    """First Lyapunov number of the Hopf point at (sigma_h, estar).

    Planar normal-form expression in terms of the Taylor coefficients of
    the kinetics at the equilibrium (the classical formula for a system
    x' = a x + b y + p(x,y), y' = c x + d y + q(x,y) with a + d = 0 and
    Delta = ad - bc > 0); derivatives by central differences with step
    1e-4. Negative sign means the emerging small cycle is stable.
    """
    ph = p.with_sigma(sigma_h)
    j = jacobian(estar.u, estar.v, ph)
    a, b = float(j[0, 0]), float(j[0, 1])
    c, d = float(j[1, 0]), float(j[1, 1])
    tr = a + d
    delta = a * d - b * c
    if abs(tr) > 1e-6 * max(1.0, abs(a), abs(d)):
        raise NotAtHopf(f"trace(J) = {tr:.3g} is not ~0 at sigma={sigma_h}")
    if delta <= 0.0:
        raise NotAtHopf(f"det(J) = {delta:.3g} <= 0: no pure-imaginary pair")
    acoef, bcoef = _taylor_coefficients(ph, estar.u, estar.v)
    a20, a11, a02 = acoef[(2, 0)], acoef[(1, 1)], acoef[(0, 2)]
    a30, a21, a12 = acoef[(3, 0)], acoef[(2, 1)], acoef[(1, 2)]
    b20, b11, b02 = bcoef[(2, 0)], bcoef[(1, 1)], bcoef[(0, 2)]
    b21, b12, b03 = bcoef[(2, 1)], bcoef[(1, 2)], bcoef[(0, 3)]
    cubic = (a * a + b * c) * (
        3.0 * (c * b03 - b * a30) + 2.0 * a * (a21 + b12) + (c * a12 - b * b21)
    )
    quad = (
        a * c * (a11**2 + a11 * b02 + a02 * b11)
        + a * b * (b11**2 + a20 * b11 + a11 * b02)
        + c * c * (a11 * a02 + 2.0 * a02 * b02)
        - 2.0 * a * c * (b02**2 - a20 * a02)
        - 2.0 * a * b * (a20**2 - b20 * b02)
        - b * b * (2.0 * a20 * b20 + b11 * b20)
        + (b * c - 2.0 * a * a) * (b11 * b02 - a11 * a20)
    )
    return float(-3.0 * math.pi / (2.0 * b * delta**1.5) * (quad - cubic))
