"""Mode-wise linear algebra around homogeneous steady states.

With Neumann modes cos(j*pi*x/L) and wavenumber-squared k_j = (j*pi/L)**2,
the linearization about a homogeneous state E decomposes into 2x2 blocks
L_j = J(E) - k_j*diag(1, d). Everything in this module is built from the
two scalars

    s(sigma) = d*a10 + b01        (cross-diffusion weighted trace)
    D(sigma) = a10*b01 - a01*b10  (kinetic determinant)

evaluated at the upper coexisting state E*(sigma).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import HypothesisFailed, NoRoot, NotApplicable, OutOfRange
from .model import (
    Equilibrium,
    EquilibriumKind,
    KineticParams,
    jacobian,
    upper_coexisting,
)
from .rootfind import roots_from_scan, scan_grid, scan_roots

__all__ = [
    "ModeReport",
    "Regime",
    "SpatialSpectrum",
    "mode_reports",
    "turing_bd_thresholds",
    "spatial_spectrum",
    "branch_point_table",
    "branch_point_sigmas",
    "nonexistence_dstar",
    "dstar_parts",
    "kpm_roots",
    "band_modes",
    "vbounds",
]

# scan cells on the sigma bracket behind every threshold and branch point
N_SCAN = 400


@dataclass(frozen=True)
class ModeReport:
    j: int
    k_j: float
    trace: float
    det: float

    @property
    def unstable(self) -> bool:
        return self.trace > 0.0 or self.det < 0.0


class Regime(Enum):
    TURING_SIDE = "TuringSide"
    BD_SIDE = "BDSide"
    GENERIC = "Generic"


@dataclass(frozen=True)
class SpatialSpectrum:
    """The four spatial eigenvalues of the steady-state linearization.

    Roots of H(lam**2) = d*lam**4 + s*lam**2 + D, which come in exact
    (+lam, -lam) pairs. K = -s/(2d) is the repeated lam**2 at a threshold
    (where the discriminant of H in lam**2 vanishes): K < 0 means the
    double pair is pure imaginary (Turing side), K > 0 real (BD side).
    """

    lambdas: tuple[complex, complex, complex, complex]
    K: float
    regime: Regime


def _entries(e: Equilibrium, p: KineticParams) -> tuple[float, float, float, float]:
    j = jacobian(e.u, e.v, p)
    return float(j[0, 0]), float(j[0, 1]), float(j[1, 0]), float(j[1, 1])


def _upper_estar(p: KineticParams, sigma: float) -> tuple[Equilibrium, KineticParams]:
    """Upper coexisting state at the swept sigma, paired with the matching
    parameter set (the Jacobian depends on sigma explicitly, so the two
    must never be mixed across sigma values)."""
    ps = p.with_sigma(sigma)
    return upper_coexisting(ps), ps


def _s_and_d(e: Equilibrium, p: KineticParams, d: float) -> tuple[float, float]:
    a10, a01, b10, b01 = _entries(e, p)
    return d * a10 + b01, a10 * b01 - a01 * b10


def _default_j_max(e: Equilibrium, p: KineticParams, d: float, L: float) -> int:
    """Smallest scan that provably covers every possibly-unstable mode.

    Beyond k = max(trace(J)/(1+d), upper root of det L(k)) both the trace
    and determinant conditions are stable, so modes past that wavenumber
    cannot flip. Falls back to a fixed floor when everything is stable.
    """
    a10, a01, b10, b01 = _entries(e, p)
    k_trace = max((a10 + b01) / (1.0 + d), 0.0)
    s = d * a10 + b01
    det0 = a10 * b01 - a01 * b10
    disc = s * s - 4.0 * d * det0
    k_det = (s + math.sqrt(disc)) / (2.0 * d) if disc >= 0.0 else 0.0
    k_top = max(k_trace, k_det)
    j = math.ceil(L * math.sqrt(k_top) / math.pi) + 5 if k_top > 0 else 0
    return max(j, 8)


def mode_reports(
    e: Equilibrium,
    p: KineticParams,
    d: float,
    L: float,
    j_max: int | None = None,
) -> list[ModeReport]:
    """trace/det of L_j = J(E) - k_j diag(1, d) for j = 0 .. j_max.

    The default j_max extends past the largest wavenumber that could still
    be unstable, so "no unstable mode in the list" means linear stability.
    """
    if d <= 0 or L <= 0:
        raise ValueError(f"need d > 0 and L > 0, got d={d}, L={L}")
    if j_max is None:
        j_max = _default_j_max(e, p, d, L)
    if j_max < 1:
        raise ValueError(f"j_max must be >= 1, got {j_max}")
    a10, a01, b10, b01 = _entries(e, p)
    tr0 = a10 + b01
    det0 = a10 * b01 - a01 * b10
    s = d * a10 + b01
    out = []
    for j in range(j_max + 1):
        k = (j * math.pi / L) ** 2
        out.append(
            ModeReport(
                j=j,
                k_j=k,
                trace=tr0 - (1.0 + d) * k,
                det=d * k * k - s * k + det0,
            )
        )
    return out


def turing_bd_thresholds(
    p: KineticParams,
    d: float,
    bracket: tuple[float, float],
) -> list[tuple[float, Regime]]:
    """All roots of G(sigma) = 4 d D - s**2 on the bracket, tagged by side.

    G = 0 is where H(lam**2) has a repeated root lam**2 = K = -s/(2d);
    K < 0 tags the Turing threshold, K > 0 the BD transition.
    """
    if d <= 0:
        raise ValueError(f"need d > 0, got {d}")

    def g(sigma: float) -> float:
        e, ps = _upper_estar(p, sigma)
        s, det0 = _s_and_d(e, ps, d)
        return 4.0 * d * det0 - s * s

    roots = scan_roots(g, bracket[0], bracket[1], n=N_SCAN)
    out = []
    for r in roots:
        e, ps = _upper_estar(p, r)
        s, _ = _s_and_d(e, ps, d)
        K = -s / (2.0 * d)
        out.append((r, Regime.TURING_SIDE if K < 0 else Regime.BD_SIDE))
    return out


def spatial_spectrum(e: Equilibrium, p: KineticParams, d: float) -> SpatialSpectrum:
    """Exact roots of the spatial quartic H(lam**2) = d lam**4 + s lam**2 + D."""
    if e.kind is not EquilibriumKind.COEXISTING:
        raise OutOfRange(
            f"spatial spectrum is defined about a coexisting state, got {e.kind.value}"
        )
    if d <= 0:
        raise ValueError(f"need d > 0, got {d}")
    s, det0 = _s_and_d(e, p, d)
    disc = s * s - 4.0 * d * det0
    sq = cmath.sqrt(complex(disc, 0.0))
    lam2 = ((-s + sq) / (2.0 * d), (-s - sq) / (2.0 * d))
    pairs = []
    for z in lam2:
        r = cmath.sqrt(z)
        pairs.extend((r, -r))
    lambdas = tuple(sorted(pairs, key=lambda z: (z.real, z.imag)))

    tol = 1e-12 * max(1.0, s * s, abs(4.0 * d * det0))
    if disc >= -tol:
        r_lo = (-s - abs(sq)) / (2.0 * d)
        r_hi = (-s + abs(sq)) / (2.0 * d)
        if r_hi <= tol:
            regime = Regime.TURING_SIDE
        elif r_lo >= -tol:
            regime = Regime.BD_SIDE
        else:
            regime = Regime.GENERIC
    else:
        regime = Regime.GENERIC
    return SpatialSpectrum(lambdas=lambdas, K=-s / (2.0 * d), regime=regime)


def branch_point_table(
    p: KineticParams,
    d: float,
    L: float,
    modes: Iterable[int],
    bracket: tuple[float, float],
) -> list[tuple[int, float]]:
    """(n, sigma) pairs where Neumann mode n is marginally stable, for each
    requested mode in turn, sigma ascending within a mode.

    Solves det L_n(sigma) = d k_n**2 - s(sigma) k_n + D(sigma) = 0 with
    k_n = (n*pi/L)**2, implicitly through E*(sigma), on the bracket.
    s and D do not depend on n, so they are scanned once on the N_SCAN-cell
    grid and every mode's sign changes come from those cached values; a
    mode whose scan sees no sign change contributes no pair.
    """
    modes = list(modes)
    if any(n < 1 for n in modes):
        raise ValueError(f"mode indices must be >= 1, got {modes}")
    if d <= 0 or L <= 0:
        raise ValueError(f"need d > 0 and L > 0, got d={d}, L={L}")

    def s_and_d(sigma: float) -> tuple[float, float]:
        e, ps = _upper_estar(p, sigma)
        return _s_and_d(e, ps, d)

    xs, sd = scan_grid(s_and_d, bracket[0], bracket[1], n=N_SCAN)
    out = []
    for n in modes:
        k = (n * math.pi / L) ** 2

        def det_n(sigma: float) -> float:
            s, det0 = s_and_d(sigma)
            return d * k * k - s * k + det0

        fs = [d * k * k - s * k + det0 for s, det0 in sd]
        out.extend((n, sigma) for sigma in roots_from_scan(det_n, xs, fs))
    return out


def branch_point_sigmas(
    p: KineticParams,
    d: float,
    L: float,
    n: int,
    bracket: tuple[float, float],
) -> list[float]:
    """sigma values where Neumann mode n is marginally stable.

    The one-mode case of :func:`branch_point_table`, which scans s and D
    once for many modes; raises :class:`NoRoot` when the scan sees no sign
    change of det L_n.
    """
    roots = [sigma for _, sigma in branch_point_table(p, d, L, (n,), bracket)]
    if not roots:
        raise NoRoot(
            f"no sign change of det L_{n} on [{bracket[0]}, {bracket[1]}] "
            f"with {N_SCAN} scan cells"
        )
    return roots


def dstar_parts(p: KineticParams, L: float) -> dict[str, float]:
    """Ingredients of the non-existence bound: u1, u2, A, B, k1, dstar."""
    if p.alpha == 0.0 or p.beta == 0.0:
        raise NotApplicable(
            "the non-existence bound needs alpha > 0 and beta > 0, got "
            f"alpha={p.alpha}, beta={p.beta}"
        )
    if p.sigma <= 4.0 * p.eta or p.gamma <= 1.0:
        raise OutOfRange(
            "the non-existence bound needs sigma > 4*eta and gamma > 1, got "
            f"sigma={p.sigma}, eta={p.eta}, gamma={p.gamma}"
        )
    if L <= 0:
        raise ValueError(f"need L > 0, got {L}")
    root = math.sqrt(p.sigma * p.sigma - 4.0 * p.sigma * p.eta)
    u1 = (p.sigma + root) / (2.0 * p.sigma)
    u2 = (p.sigma - root) / (2.0 * p.sigma)
    a = p.gamma / (2.0 * p.beta) + u1 / (2.0 * p.alpha) + u1 * (2.0 - u2)
    b = p.gamma / (2.0 * p.beta) + (p.gamma - 1.0) + u1 / (2.0 * p.alpha)
    k1 = (math.pi / L) ** 2
    return {
        "u1": u1,
        "u2": u2,
        "A": a,
        "B": b,
        "k1": k1,
        "dstar": max(a, b) / k1,
    }


def nonexistence_dstar(p: KineticParams, L: float) -> float:
    """Diffusion level below which no non-constant steady state exists
    (sufficient bound; see dstar_parts for the pieces)."""
    return dstar_parts(p, L)["dstar"]


def kpm_roots(e: Equilibrium, p: KineticParams, d: float) -> tuple[float, float]:
    """Edges (k-, k+) of the unstable wavenumber band: roots of det L(k).

    Hypothesis: a10 > 0 and s = d*a10 + b01 > 2*sqrt(d*D) > 0; then both
    roots are real positive and det L(k) < 0 exactly on (k-, k+).
    """
    if d <= 0:
        raise ValueError(f"need d > 0, got {d}")
    a10, a01, b10, b01 = _entries(e, p)
    s = d * a10 + b01
    det0 = a10 * b01 - a01 * b10
    if a10 <= 0.0:
        raise HypothesisFailed(f"needs a10 > 0, got a10={a10:.6g}")
    if det0 <= 0.0:
        raise HypothesisFailed(f"needs D > 0, got D={det0:.6g}")
    gap = s - 2.0 * math.sqrt(d * det0)
    if s <= 0.0 or gap <= 0.0:
        raise HypothesisFailed(
            f"needs s > 2*sqrt(d*D) > 0, got s={s:.6g}, 2*sqrt(dD)={2*math.sqrt(d*det0):.6g}"
        )
    root = math.sqrt(s * s - 4.0 * d * det0)
    return ((s - root) / (2.0 * d), (s + root) / (2.0 * d))


def band_modes(e: Equilibrium, p: KineticParams, d: float, L: float) -> list[int]:
    """Neumann mode indices whose k_j falls in the open band (k-, k+).

    In 1D each Neumann eigenspace is simple, so the parity of this list's
    length is the index-count parity used by degree arguments.
    """
    km, kp = kpm_roots(e, p, d)
    j_lo = math.floor(L * math.sqrt(km) / math.pi) + 1
    j_hi = math.ceil(L * math.sqrt(kp) / math.pi) - 1
    out = []
    for j in range(max(j_lo, 1), j_hi + 1):
        k = (j * math.pi / L) ** 2
        if km < k < kp:
            out.append(j)
    return out


def vbounds(p: KineticParams) -> tuple[float, float]:
    """A-priori bounds for steady states: sup u < u1, sup v < M*.

    M* = gamma*u1*(sigma/4 - eta); at sigma = 4*eta the bound degenerates
    to 0 together with the axial fold.
    """
    if p.sigma < 4.0 * p.eta:
        raise OutOfRange(
            f"bounds need sigma >= 4*eta, got sigma={p.sigma}, eta={p.eta}"
        )
    disc = max(p.sigma * p.sigma - 4.0 * p.sigma * p.eta, 0.0)
    u1 = (p.sigma + math.sqrt(disc)) / (2.0 * p.sigma)
    return u1, p.gamma * u1 * (p.sigma / 4.0 - p.eta)
