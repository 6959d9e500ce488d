"""Kinetics, Jacobians, equilibria, and temporal bifurcation thresholds.

The non-dimensional planar kinetics are

    F1(u, v) = sigma*u**2*(1 - u) - eta*u - u*v/(alpha + u + beta*v)
    F2(u, v) = gamma*u*v/(alpha + u + beta*v) - v

with prey growth reduced at low density (the sigma*u**2 factor), a linear
prey mortality, and predator interference through beta. alpha = 0 is the
ratio-dependent limit; beta = 0 the interference-free saturating limit.

This module also owns the mode algebra of a homogeneous state E = (u, v).
With diffusion ratio d, each Neumann mode of wavenumber-squared k sees the
2x2 block L(k) = J(E) - k*diag(1, d), of trace tr - (1+d)*k and determinant
det L(k) = d*k**2 - s*k + D (``_det_l``), where

    tr = a10 + b01         (kinetic trace)
    s = d*a10 + b01        (cross-diffusion weighted trace)
    D = a10*b01 - a01*b10  (kinetic determinant)

come from ``_mode_scalars``, and the roots of det L(k) are the Turing band
(``_band``, ``kpm_roots``). :mod:`alleekit.linear` builds its thresholds
from them, :mod:`alleekit.pde` sizes its default grid from the band, and
:mod:`alleekit.continuation` counts the symbol's eigenvalues with them.

``kinetics`` and ``jacobian_fields`` are the one entry for the rates and
for the Jacobian entries: floats take plain Python arithmetic and raise
NonFinite at a non-finite point, and arrays go through ``_ArrayKinetics``,
sized to them, which the :mod:`alleekit.pde` steppers also hold, sized to
their grid. Everything here is a pure function of its inputs. numpy is
imported only inside the branches that take arrays, so the scalar path
runs without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .errors import HypothesisFailed, NonFinite, NoRoot, OutOfRange
from .rootfind import bracketed_root, real_cubic_roots

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "KineticParams",
    "Stability",
    "EquilibriumKind",
    "Equilibrium",
    "kinetics",
    "jacobian_fields",
    "trivial_equilibrium",
    "axial_equilibria",
    "coexisting_equilibria",
    "all_equilibria",
    "upper_axial",
    "upper_coexisting",
    "sigma_sn",
    "sigma_tc",
    "sigma_s",
    "hopf_sigma",
    "first_lyapunov_coefficient",
    "kpm_roots",
]


@dataclass(frozen=True)
class KineticParams:
    """Dimensionless kinetic parameters.

    alpha: self-saturation of the functional response, >= 0
    beta: predator interference, >= 0
    gamma: conversion efficiency, > 0
    sigma: prey growth scale, > 0
    eta: prey mortality, > 0

    The fields are stored as Python floats, whatever real numbers they are
    given, so the scalar kinetics return Python floats.
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
        if any(type(x) is not float for x in vals):
            for name, x in zip(("alpha", "beta", "gamma", "sigma", "eta"), vals):
                object.__setattr__(self, name, float(x))

    def with_sigma(self, sigma: float) -> "KineticParams":
        return KineticParams(self.alpha, self.beta, self.gamma, sigma, self.eta)


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


def _rates(u: float, v: float, p: KineticParams) -> tuple[float, float]:
    den = p.alpha + u + p.beta * v
    inter = u * v / den if den != 0.0 else 0.0
    f1 = p.sigma * u * u * (1.0 - u) - p.eta * u - inter
    f2 = p.gamma * inter - v
    return f1, f2


def _derivatives(u: float, v: float,
                 p: KineticParams) -> tuple[float, float, float, float]:
    den = p.alpha + u + p.beta * v
    inv = 1.0 / den if den != 0.0 else 0.0
    inv2 = inv * inv
    a10 = p.sigma * u * (2.0 - 3.0 * u) - p.eta - v * inv + u * v * inv2
    a01 = -u * (p.alpha + u) * inv2
    b10 = p.gamma * v * (p.alpha + p.beta * v) * inv2
    b01 = p.gamma * u * inv - p.gamma * p.beta * u * v * inv2 - 1.0
    return a10, a01, b10, b01


class _ArrayKinetics:
    """The array formulas of the kinetics, for arrays u and v of the shape
    the instance is sized to.

    Each call takes one denominator alpha + u + beta*v and one den != 0
    mask per state; where the mask is off the interaction terms are 0, the
    origin convention. Every array follows the order of operations of
    ``_rates`` / ``_derivatives``, so it equals the scalar path bit for bit.

    The instance holds one buffer per array, the float ones as the rows of
    one block, and each call overwrites the arrays the previous call
    returned. There is no finiteness check: callers check the state they
    go on to produce, and wrap the call in
    ``np.errstate(over="ignore", invalid="ignore")`` where a diverging state
    must not warn.
    """

    def __init__(self, p: KineticParams, shape: tuple[int, ...]):
        import numpy as np

        self.p = p
        self._mask = np.empty(shape, dtype=bool)
        (self._au, self._bv, self._den, self._uv, self._tmp, self._inter,
         self._f1, self._f2, self._inv, self._inv2, self._a10, self._a01,
         self._b10, self._b01) = np.empty((14, *shape))

    def _share(self, u, v):
        """(alpha + u, beta*v, den, den != 0, u*v)."""
        import numpy as np

        au = np.add(u, self.p.alpha, out=self._au)
        bv = np.multiply(v, self.p.beta, out=self._bv)
        den = np.add(au, bv, out=self._den)
        mask = np.not_equal(den, 0.0, out=self._mask)
        return au, bv, den, mask, np.multiply(u, v, out=self._uv)

    def rates(self, u, v) -> tuple[np.ndarray, np.ndarray]:
        """(F1, F2) at the state (u, v)."""
        import numpy as np

        p = self.p
        _, _, den, mask, uv = self._share(u, v)
        self._inter.fill(0.0)
        inter = np.divide(uv, den, out=self._inter, where=mask)
        # f1 = sigma*u*u*(1 - u) - eta*u - inter
        f1 = np.multiply(u, p.sigma, out=self._f1)
        f1 *= u
        f1 *= np.subtract(1.0, u, out=self._tmp)
        f1 -= np.multiply(u, p.eta, out=self._tmp)
        f1 -= inter
        # f2 = gamma*inter - v
        f2 = np.multiply(inter, p.gamma, out=self._f2)
        f2 -= v
        return f1, f2

    def derivatives(self, u, v) -> tuple[np.ndarray, ...]:
        """The Jacobian entries (a10, a01, b10, b01) at the state (u, v)."""
        import numpy as np

        p = self.p
        au, bv, den, mask, uv = self._share(u, v)
        self._inv.fill(0.0)
        inv = np.divide(1.0, den, out=self._inv, where=mask)
        inv2 = np.multiply(inv, inv, out=self._inv2)
        # a10 = sigma*u*(2 - 3*u) - eta - v*inv + u*v*inv2
        a10 = np.multiply(u, p.sigma, out=self._a10)
        tmp = np.multiply(u, 3.0, out=self._tmp)
        a10 *= np.subtract(2.0, tmp, out=self._tmp)
        a10 -= p.eta
        a10 -= np.multiply(v, inv, out=self._tmp)
        a10 += np.multiply(uv, inv2, out=self._tmp)
        # a01 = -u*(alpha + u)*inv2
        a01 = np.negative(u, out=self._a01)
        a01 *= au
        a01 *= inv2
        # b10 = gamma*v*(alpha + beta*v)*inv2
        b10 = np.multiply(v, p.gamma, out=self._b10)
        b10 *= np.add(bv, p.alpha, out=self._tmp)
        b10 *= inv2
        # b01 = gamma*u*inv - gamma*beta*u*v*inv2 - 1
        b01 = np.multiply(u, p.gamma, out=self._b01)
        b01 *= inv
        tmp = np.multiply(u, p.gamma * p.beta, out=self._tmp)
        tmp *= v
        tmp *= inv2
        b01 -= tmp
        b01 -= 1.0
        return a10, a01, b10, b01


def kinetics(u, v, p: KineticParams):
    """Reaction rates (F1, F2). Accepts floats or same-shape arrays.

    Scalar contract: when u and v are both floats (np.float64 included),
    the rates are computed in plain Python arithmetic and returned as
    Python floats, bit for bit equal to the array path at the same point.
    Arrays go through an ``_ArrayKinetics`` sized to them, one per call,
    so the arrays of two calls never share memory.

    At (0, 0) with alpha = 0 the interaction terms are defined as 0 (the
    limit along any ray is bounded). Slightly negative trial states from
    adaptive steppers are evaluated as written rather than rejected; only
    non-finite input is an error.
    """
    if (type(u) is float and type(v) is float
            and math.isfinite(u) and math.isfinite(v)):
        return _rates(u, v, p)  # the integrators' case, with nothing to convert
    if isinstance(u, float) and isinstance(v, float):
        if not (math.isfinite(u) and math.isfinite(v)):
            raise NonFinite("kinetics called with non-finite state")
        return _rates(float(u), float(v), p)
    import numpy as np

    ua = np.asarray(u, dtype=float)
    va = np.asarray(v, dtype=float)
    if not (np.all(np.isfinite(ua)) and np.all(np.isfinite(va))):
        raise NonFinite("kinetics called with non-finite state")
    # overflow on a diverging state is reported by the caller's finiteness
    # check, not as a warning here
    with np.errstate(over="ignore", invalid="ignore"):
        return _ArrayKinetics(p, ua.shape).rates(ua, va)


def jacobian_fields(u, v, p: KineticParams):
    """Pointwise Jacobian entries (a10, a01, b10, b01) of the kinetics.

    For floats or same-shape arrays, as :func:`kinetics`: float inputs
    take the plain-Python path, give Python floats and raise NonFinite at
    a non-finite point; arrays go through a fresh sized
    ``_ArrayKinetics``, unchecked. At points where the response
    denominator vanishes (origin, alpha = 0) the interaction derivatives
    are taken as 0, matching the origin convention.
    """
    if isinstance(u, float) and isinstance(v, float):
        if not (math.isfinite(u) and math.isfinite(v)):
            raise NonFinite(f"jacobian called at non-finite point ({u}, {v})")
        return _derivatives(float(u), float(v), p)
    import numpy as np

    ua = np.asarray(u, dtype=float)
    va = np.asarray(v, dtype=float)
    return _ArrayKinetics(p, ua.shape).derivatives(ua, va)


def _mode_scalars(u: float, v: float, p: KineticParams,
                  d: float) -> tuple[float, float, float]:
    """(tr, s, D) of J at the homogeneous state (u, v), as in the module
    docstring."""
    a10, a01, b10, b01 = jacobian_fields(u, v, p)
    return a10 + b01, d * a10 + b01, a10 * b01 - a01 * b10


def _det_l(k, s: float, det0: float, d: float):
    """det L(k) = d*k**2 - s*k + D, for a float k or an array of them."""
    return d * k * k - s * k + det0


def _band(s: float, det0: float, d: float) -> tuple[float, float] | None:
    """The roots (k-, k+) of det L(k), or None when they are complex."""
    disc = s * s - 4.0 * d * det0
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    return (s - root) / (2.0 * d), (s + root) / (2.0 * d)


def kpm_roots(e: Equilibrium, p: KineticParams, d: float) -> tuple[float, float]:
    """Edges (k-, k+) of the unstable wavenumber band: roots of det L(k).

    Hypothesis: a10 > 0 and s = d*a10 + b01 > 2*sqrt(d*D) > 0; then both
    roots are real positive and det L(k) < 0 exactly on (k-, k+).
    """
    if d <= 0:
        raise ValueError(f"need d > 0, got {d}")
    a10, a01, b10, b01 = jacobian_fields(e.u, e.v, p)
    s, det0 = d * a10 + b01, a10 * b01 - a01 * b10
    if a10 <= 0.0:
        raise HypothesisFailed(f"needs a10 > 0, got a10={a10:.6g}")
    if det0 <= 0.0:
        raise HypothesisFailed(f"needs D > 0, got D={det0:.6g}")
    gap = s - 2.0 * math.sqrt(d * det0)
    if s <= 0.0 or gap <= 0.0:
        raise HypothesisFailed(
            f"needs s > 2*sqrt(d*D) > 0, got s={s:.6g}, 2*sqrt(dD)={2*math.sqrt(d*det0):.6g}"
        )
    return _band(s, det0, d)


def _make_equilibrium(kind: EquilibriumKind, u: float, v: float, p: KineticParams,
                      *, force_nonhyperbolic: bool = False) -> Equilibrium:
    a10, a01, b10, b01 = jacobian_fields(u, v, p)
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
    # sigma = 4*eta exactly is a legal input; absorb float noise around it.
    # The discriminant sigma*(sigma - 4*eta) is tested divided by sigma
    # (> 0): sigma**2 overflows past sigma ~ 1.34e154, where inf <= inf
    # would take every larger sigma for this double root.
    if abs(p.sigma - 4.0 * p.eta) <= 1e-14 * p.sigma:
        return [_make_equilibrium(EquilibriumKind.AXIAL1, 0.5, 0.0, p)]
    prey = _prey_window(p)
    if prey is None:
        return []
    u2, u1 = prey
    return [
        _make_equilibrium(EquilibriumKind.AXIAL1, u1, 0.0, p),
        _make_equilibrium(EquilibriumKind.AXIAL2, u2, 0.0, p),
    ]


def _prey_window(p: KineticParams) -> tuple[float, float] | None:
    """(u2, u1), where the prey nullcline v > 0 exactly on u2 < u < u1;
    None unless sigma > 4*eta.

    u1 and u2 are the roots of sigma*u^2 - sigma*u + eta. The small root
    comes from their product eta/sigma, not from sigma - s, which cancels
    to 0 once 4*eta/sigma is below an ulp of 1.
    """
    if p.sigma <= 4.0 * p.eta:
        return None
    s = math.sqrt(p.sigma * p.sigma - 4.0 * p.sigma * p.eta)
    u1 = (p.sigma + s) / (2.0 * p.sigma)
    return p.eta / (p.sigma * u1), u1


def coexisting_equilibria(p: KineticParams) -> list[Equilibrium]:
    """Interior equilibria (u > 0, v > 0), ascending in u, for every
    beta >= 0: the roots of the cubic

        Q(u) = sigma*gamma*beta*u**3 - sigma*gamma*beta*u**2
               + (beta*eta*gamma + gamma - 1)*u - alpha

    in the prey window u2 < u < u1, with v = gamma*u*g(u), g(u) =
    sigma*u*(1-u) - eta, from the prey nullcline (alpha + u + beta*v =
    gamma*u on the predator one). At beta = 0, Q is linear with root
    alpha/(gamma-1), so the Holling-II state is the beta -> 0 limit. A u
    that rounds v to <= 0 beside an axial state is no state. A double root
    (tangent nullclines) is reported once, tagged NonHyperbolic. With
    gamma <= 1 there is none at any beta: on the window (gamma-1)*u -
    alpha <= 0 < beta*gamma*u*g(u).
    """
    prey = _prey_window(p)
    if p.gamma <= 1.0 or prey is None:
        return []
    c3 = p.sigma * p.gamma * p.beta
    c2 = -c3
    c1 = p.beta * p.eta * p.gamma + p.gamma - 1.0
    c0 = -p.alpha
    out: list[Equilibrium] = []
    for u in real_cubic_roots(c3, c2, c1, c0):
        v = p.gamma * u * (p.sigma * u * (1.0 - u) - p.eta)
        if not (prey[0] < u < prey[1] and v > 0.0):
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
    """Trivial, then the prey-only states by descending u, then the
    coexisting ones by ascending u; the coexisting tail is empty where
    there is no such state, as with gamma <= 1."""
    return [trivial_equilibrium(p), *axial_equilibria(p),
            *coexisting_equilibria(p)]


def sigma_sn(p: KineticParams) -> float:
    """Growth threshold where the two axial states merge: sigma = 4*eta."""
    return 4.0 * p.eta


def sigma_tc(p: KineticParams) -> float:
    """Growth threshold of the exchange of stability on the u axis.

    sigma_TC = eta*(gamma-1)**2 / (alpha*(gamma-alpha-1)); needs alpha > 0
    and gamma > alpha + 1 for the crossing to exist at positive u. A
    product of ratios, so no square overflows (float ``**`` would raise).
    """
    if p.alpha <= 0.0 or p.gamma <= p.alpha + 1.0:
        raise OutOfRange(
            "sigma_tc needs alpha > 0 and gamma > alpha + 1, got "
            f"alpha={p.alpha}, gamma={p.gamma}"
        )
    g = p.gamma - 1.0
    return p.eta * (g / p.alpha) * (g / (p.gamma - p.alpha - 1.0))


def sigma_s(e: Equilibrium, p: KineticParams) -> float:
    """Sufficient growth level for local stability of a coexisting state.

    Evaluates v/(gamma**2 u**3 (2u - 1)) at the state e = (u, v). This
    upper-bounds the sharp trace-sign threshold for u < 1, so sigma >
    sigma_s still implies the prey self-term is negative; it is a
    sufficient bound, not the exact stability boundary.
    """
    if e.kind is not EquilibriumKind.COEXISTING:
        raise OutOfRange(f"sigma_s applies to coexisting equilibria, got {e.kind.value}")
    if e.u <= 0.5:
        raise OutOfRange(f"sigma_s as stated needs u* > 1/2, got u*={e.u}")
    return e.v / (p.gamma**2 * e.u**3 * (2.0 * e.u - 1.0))


def upper_axial(p: KineticParams) -> Equilibrium:
    """The prey-only state u1 (the larger-u axial one); OutOfRange when
    there is none (sigma < 4*eta)."""
    ax = axial_equilibria(p)
    if not ax:
        raise OutOfRange(f"no prey-only state at sigma={p.sigma} (< 4*eta)")
    return ax[0]


def upper_coexisting(p: KineticParams) -> Equilibrium:
    """The largest-u coexisting equilibrium; OutOfRange when there is none,
    as with gamma <= 1."""
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
            raise NoRoot(
                f"{exc}; the bracket must lie inside the coexistence range"
            ) from exc

    lo, hi = bracket
    root = bracketed_root(trace_at, lo, hi)
    e = upper_coexisting(p.with_sigma(root))
    if e.det <= 0.0:
        raise HypothesisFailed(
            f"det(J) = {e.det:.6g} <= 0 at the trace zero sigma={root:.10g}; "
            "the crossing pair is not complex"
        )
    h = 1e-5 * max(1.0, abs(root))
    dtrace = (trace_at(root + h) - trace_at(root - h)) / (2.0 * h)
    if abs(dtrace) < 1e-6:
        raise HypothesisFailed(
            f"d(trace)/d(sigma) = {dtrace:.3g} at sigma={root:.10g}; "
            "the eigenvalue pair does not cross transversally"
        )
    return root, e


def _taylor_coefficients(p: KineticParams, u0: float, v0: float):
    """Taylor coefficients a_ij, b_ij (coefficient of x^i y^j) of the kinetics
    about (u0, v0), orders 2 and 3, in closed form.

    With x = u - u0, y = v - v0 and D0 = alpha + u0 + beta*v0, the
    interaction uv/D is (u0 + x)(v0 + y) times 1/D = sum_n (-(x + beta*y))^n
    / D0^(n+1), whose x^i y^j coefficient is (-1)^(i+j) C(i+j, i) beta^j /
    D0^(i+j+1). The rest of the kinetics is a cubic in u alone.
    """
    d0 = p.alpha + u0 + p.beta * v0

    def inv(i: int, j: int) -> float:  # x^i y^j coefficient of 1/D
        if i < 0 or j < 0:
            return 0.0
        n = i + j
        return (-1.0) ** n * math.comb(n, i) * p.beta**j / d0 ** (n + 1)

    uv = {(0, 0): u0 * v0, (1, 0): v0, (0, 1): u0, (1, 1): 1.0}
    inter = {(i, j): sum(c * inv(i - a, j - b) for (a, b), c in uv.items())
             for i, j in ((2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))}
    acoef = {ij: -c for ij, c in inter.items()}
    acoef[(2, 0)] += p.sigma * (1.0 - 3.0 * u0)
    acoef[(3, 0)] -= p.sigma
    bcoef = {ij: p.gamma * c for ij, c in inter.items()}
    return acoef, bcoef


def first_lyapunov_coefficient(p: KineticParams, sigma_h: float, estar: Equilibrium) -> float:
    """First Lyapunov number of the Hopf point at (sigma_h, estar).

    Planar normal-form expression in terms of the Taylor coefficients of
    the kinetics at the equilibrium (the classical formula for a system
    x' = a x + b y + p(x,y), y' = c x + d y + q(x,y) with a + d = 0 and
    Delta = ad - bc > 0), with the Taylor coefficients in closed form; at
    the tested Hopf points it agrees with a 50-digit evaluation of the same
    formula to 1e-14 relative. Negative sign means the emerging small
    cycle is stable.
    """
    ph = p.with_sigma(sigma_h)
    a, b, c, d = jacobian_fields(estar.u, estar.v, ph)
    tr = a + d
    delta = a * d - b * c
    if abs(tr) > 1e-6 * max(1.0, abs(a), abs(d)):
        raise HypothesisFailed(f"trace(J) = {tr:.3g} is not ~0 at sigma={sigma_h}")
    if delta <= 0.0:
        raise HypothesisFailed(f"det(J) = {delta:.3g} <= 0: no pure-imaginary pair")
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
