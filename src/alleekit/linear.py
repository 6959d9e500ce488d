"""Spatial mode analysis and instability thresholds of homogeneous states.

With Neumann modes cos(j*pi*x/L) and wavenumber-squared k_j = (j*pi/L)**2,
written once (``_wavenumber``), the linearization about a homogeneous state
E decomposes into 2x2 blocks L_j = J(E) - k_j*diag(1, d) of trace
tr - (1+d)*k_j and determinant det L(k_j) = d*k_j**2 - s*k_j + D. That
mode algebra, the scalars (tr, s, D), det L(k) and its roots (the Turing
band, ``kpm_roots``), lives in :mod:`alleekit.model`, which every command
loads. Everything in this module is built from those scalars evaluated at
the upper coexisting state E*(sigma) (``_estar_scalars``), and only the
``thresholds`` command loads it. Of the spatial spectrum, the roots lam
of d*lam**4 + s*lam**2 + D, the thresholds need only K = -s/(2d), the
repeated lam**2 where the four roots collide, which
``turing_bd_thresholds`` returns with each root. Both the thresholds and
the branch points are sign changes on one scan of those scalars over a
sigma bracket (``estar_scan``), which a ``thresholds`` run builds once
and hands to both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import HypothesisFailed, NoRoot, OutOfRange
from .model import (
    Equilibrium,
    KineticParams,
    _band,
    _det_l,
    _mode_scalars,
    _prey_window,
    upper_axial,
    upper_coexisting,
)
from .rootfind import roots_from_scan, scan_grid

__all__ = [
    "ModeReport",
    "Regime",
    "estar_scan",
    "mode_reports",
    "turing_bd_thresholds",
    "branch_point_table",
    "branch_point_sigmas",
    "dstar_parts",
    "vbounds",
]

# scan cells on the sigma bracket behind every threshold and branch point
N_SCAN = 400
# the most Neumann modes a run may list; each mode's branch points take a
# root refinement of their own, about 0.45 ms a mode on the benchmark
# kinetics (11 to 13 s for the 27 700 modes at L = 2e5, on a 2-core x86-64
# Xeon), so more modes would run for minutes to hours. It sits here, not
# beside pde.MAX_STEPS, since ``thresholds`` loads no pde.
MAX_MODES = 10 ** 5


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


def _estar_scalars(p: KineticParams, d: float, sigma: float) -> tuple[float, float, float]:
    """(tr, s, D) at E*(sigma), with J at the same sigma: J depends on sigma
    explicitly, so state and parameters must never mix sigma values."""
    ps = p.with_sigma(sigma)
    e = upper_coexisting(ps)
    return _mode_scalars(e.u, e.v, ps, d)


def estar_scan(
    p: KineticParams, d: float, bracket: tuple[float, float],
) -> tuple[list[float], list[tuple[float, float, float]]]:
    """(sigmas, scalars): the N_SCAN-cell grid of the bracket and (tr, s, D)
    at E*(sigma) on it, one evaluation per grid point."""
    return scan_grid(lambda sigma: _estar_scalars(p, d, sigma),
                     bracket[0], bracket[1], n=N_SCAN)


def _wavenumber(j: int, L: float) -> float:
    """k_j = (j*pi/L)**2 of the Neumann mode cos(j*pi*x/L) on [0, L];
    OutOfRange for a mode j >= 1 unless 2**-510 <= j*pi/L < 2**511, where
    k_j is a normal float."""
    root = j * math.pi / L
    if j and not 2.0 ** -510 <= root < 2.0 ** 511:
        raise OutOfRange(f"k_{j} = ({j}*pi/L)**2 leaves the float range "
                         f"at L={L:.3g}")
    return root ** 2


def _mode_index(k: float, L: float) -> float:
    """The real j with _wavenumber(j, L) = k, for k >= 0: L*sqrt(k)/pi."""
    return L * math.sqrt(k) / math.pi


def _check_modes(count: int, L: float) -> None:
    """OutOfRange, before the first mode, when a run lists more than
    MAX_MODES modes."""
    if not count <= MAX_MODES:
        raise OutOfRange(f"the run lists {count:.3g} Neumann modes at "
                         f"L={L:.3g}, more than {MAX_MODES:.0e}; set a "
                         "smaller [spatial] l")


def mode_reports(
    e: Equilibrium,
    p: KineticParams,
    d: float,
    L: float,
) -> list[ModeReport]:
    """trace/det of L_j = J(E) - k_j diag(1, d) for j = 0 .. j_max.

    Beyond k = max(trace(J)/(1+d), upper root of det L(k)) both the trace
    and determinant conditions are stable, so modes past that wavenumber
    cannot flip. j_max runs 5 modes past it, and is at least 8, so "no
    unstable mode in the list" means linear stability. OutOfRange when
    that lists more than MAX_MODES modes.
    """
    if d <= 0 or L <= 0:
        raise ValueError(f"need d > 0 and L > 0, got d={d}, L={L}")
    tr0, s, det0 = _mode_scalars(e.u, e.v, p, d)
    band = _band(s, det0, d)
    k_top = max(tr0 / (1.0 + d), 0.0, band[1] if band else 0.0)
    j_max = max(math.ceil(_mode_index(k_top, L)) + 5, 8)
    _check_modes(j_max + 1, L)
    ks = [_wavenumber(j, L) for j in range(j_max + 1)]
    return [ModeReport(j, k, tr0 - (1.0 + d) * k, _det_l(k, s, det0, d))
            for j, k in enumerate(ks)]


def turing_bd_thresholds(
    p: KineticParams,
    d: float,
    bracket: tuple[float, float],
    *,
    scan: tuple[list[float], list[tuple[float, float, float]]] | None = None,
) -> list[tuple[float, Regime, float]]:
    """(sigma, side, K) for every root of G(sigma) = 4 d D - s**2 on the
    bracket, sigma ascending.

    G = 0 is where the spatial quartic H(lam**2) = d*lam**4 + s*lam**2 + D
    has a repeated root lam**2 = K = -s/(2d), so its four spatial
    eigenvalues collide in two pairs: K < 0 (a pure imaginary pair) tags
    the Turing threshold, K > 0 (a real pair) the BD transition. The sign
    changes come from ``scan``, the bracket's ``estar_scan``, made here
    when it is None. Raises :class:`NoRoot` when the scan sees none.
    """
    if d <= 0:
        raise ValueError(f"need d > 0, got {d}")
    xs, scalars = estar_scan(p, d, bracket) if scan is None else scan

    def g(x: tuple[float, float, float]) -> float:
        _, s, det0 = x
        return 4.0 * d * det0 - s * s

    roots = roots_from_scan(lambda sigma: g(_estar_scalars(p, d, sigma)),
                            xs, [g(x) for x in scalars])
    if not roots:
        raise NoRoot(f"no sign change of 4dD - s**2 on [{bracket[0]}, "
                     f"{bracket[1]}] with {N_SCAN} scan cells")
    out = []
    for r in roots:
        K = -_estar_scalars(p, d, r)[1] / (2.0 * d)
        out.append((r, Regime.TURING_SIDE if K < 0 else Regime.BD_SIDE, K))
    return out


def branch_point_table(
    p: KineticParams,
    d: float,
    L: float,
    modes: Iterable[int] | None,
    bracket: tuple[float, float],
    *,
    scan: tuple[list[float], list[tuple[float, float, float]]] | None = None,
) -> list[tuple[int, float]]:
    """(n, sigma) pairs where Neumann mode n is marginally stable, for each
    requested mode in turn, sigma ascending within a mode.

    Solves det L_n(sigma) = d k_n**2 - s(sigma) k_n + D(sigma) = 0 with
    k_n = (n*pi/L)**2, implicitly through E*(sigma), on the bracket.
    s and D do not depend on n, so every mode's sign changes come from one
    ``scan``, the bracket's ``estar_scan``, made here when it is None; a
    mode whose scan sees no sign change contributes no pair. ``modes=None``
    takes modes 1 .. floor(L*sqrt(k+)/pi) + 1, k+ the scan's largest band
    top, and raises OutOfRange when those are more than MAX_MODES.
    """
    if modes is not None:
        modes = list(modes)
        if any(n < 1 for n in modes):
            raise ValueError(f"mode indices must be >= 1, got {modes}")
    if d <= 0 or L <= 0:
        raise ValueError(f"need d > 0 and L > 0, got d={d}, L={L}")

    xs, scalars = estar_scan(p, d, bracket) if scan is None else scan
    if modes is None:
        bands = [_band(s, det0, d) for _, s, det0 in scalars]
        k_top = max([0.0] + [band[1] for band in bands if band])
        modes = range(1, math.floor(_mode_index(k_top, L)) + 2)
        _check_modes(len(modes), L)
    out = []
    for n in modes:
        k = _wavenumber(n, L)

        def det_n(sigma: float) -> float:
            _, s, det0 = _estar_scalars(p, d, sigma)
            return _det_l(k, s, det0, d)

        fs = [_det_l(k, s, det0, d) for _, s, det0 in scalars]
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
    """The non-existence bound and its ingredients: u1, u2, A, B, k1 and
    dstar, the diffusion level below which no non-constant steady state
    exists (a sufficient bound)."""
    if p.alpha == 0.0 or p.beta == 0.0:
        raise HypothesisFailed(
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
    u2, u1 = _prey_window(p)
    a = p.gamma / (2.0 * p.beta) + u1 / (2.0 * p.alpha) + u1 * (2.0 - u2)
    b = p.gamma / (2.0 * p.beta) + (p.gamma - 1.0) + u1 / (2.0 * p.alpha)
    k1 = _wavenumber(1, L)
    return {
        "u1": u1,
        "u2": u2,
        "A": a,
        "B": b,
        "k1": k1,
        "dstar": max(a, b) / k1,
    }


def vbounds(p: KineticParams) -> tuple[float, float]:
    """A-priori bounds for steady states: sup u < u1, sup v < M*.

    M* = gamma*u1*(sigma/4 - eta); at sigma = 4*eta the bound degenerates
    to 0 together with the axial fold.
    """
    if p.sigma < 4.0 * p.eta:
        raise OutOfRange(
            f"bounds need sigma >= 4*eta, got sigma={p.sigma}, eta={p.eta}"
        )
    u1 = upper_axial(p).u
    return u1, p.gamma * u1 * (p.sigma / 4.0 - p.eta)
