"""Travelling-wave analysis: the 4D profile system, end-state spectra,
the minimal speed, wedge-confined shooting, and the (sigma, c) scan.

The profile substitution turns u(x - ct), v(x - ct) into the first-order
system X' = c^2 (X - Y), Y' = F1(X, W), W' = (c^2 / d)(W - Z),
Z' = F2(X, W), whose heteroclinic orbits from the prey-only state to the
coexisting state are the invasion fronts seen in the PDE.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_bvp, solve_ivp

from .errors import Escaped, NoConvergence, NonFinite, OutOfRange, Timeout
from .model import (
    KineticParams,
    axial_equilibria,
    coexisting_equilibria,
    hopf_sigma,
    jacobian_fields,
    kinetics,
)


def _u1(p: KineticParams) -> float:
    ax = axial_equilibria(p)
    if not ax:
        raise OutOfRange(f"no prey-only state at sigma={p.sigma} (< 4*eta)")
    return max(e.u for e in ax)


def j_constants(p: KineticParams, d: float) -> tuple[float, float]:
    """(j1, j3): prey-only linearization constants of the wave system.

    j1 = sigma*u1*(1 - 2*u1) < 0 for sigma > 4*eta; j3 > 0 exactly when the
    predator can invade the prey-only state. The proposition's constant M
    is the same expression as j3 (duplicated notation, asserted equal here).
    """
    if d <= 0:
        raise ValueError(f"need d > 0, got {d}")
    u1 = _u1(p)
    j1 = p.sigma * u1 * (1.0 - 2.0 * u1)
    j3 = (p.gamma * u1 / (p.alpha + u1) - 1.0) / d
    return j1, j3


def c_min(p: KineticParams, d: float) -> float:
    """Minimal wave speed 2 d sqrt(j3); below it the prey-only spectrum
    turns complex and profiles spiral into negative densities."""
    _, j3 = j_constants(p, d)
    if j3 <= 0:
        raise OutOfRange(
            f"predator cannot invade the prey-only state (j3={j3:.3g})")
    return 2.0 * d * math.sqrt(j3)


def tw_rhs(s: np.ndarray, p: KineticParams, d: float, c: float) -> np.ndarray:
    """Right-hand side of the 4D profile system at a state (X, Y, W, Z),
    shape (4,), or at each column of a (4, m) block of states."""
    X, Y, W, Z = s
    f1, f2 = kinetics(X, W, p)
    c2 = c * c
    return np.array([c2 * (X - Y), f1, (c2 / d) * (W - Z), f2])


def tw_jacobian(s: np.ndarray, p: KineticParams, d: float, c: float) -> np.ndarray:
    """Jacobian of tw_rhs: shape (4, 4) at a state, (4, 4, m) on a block."""
    X, _, W, _ = s
    a10, a01, b10, b01 = jacobian_fields(X, W, p)
    c2 = c * c
    J = np.zeros((4, 4) + np.shape(X))
    J[0, 0] = c2
    J[0, 1] = -c2
    J[1, 0] = a10
    J[1, 2] = a01
    J[2, 2] = c2 / d
    J[2, 3] = -c2 / d
    J[3, 0] = b10
    J[3, 2] = b01
    return J


def wedge_zeta(d: float, c: float) -> float:
    """Slope m of the wedge's upper face Z = m W; always > 1."""
    if c <= 0 or d <= 0:
        raise ValueError(f"need c > 0 and d > 0, got c={c}, d={d}")
    c2 = c * c
    return (c2 + math.sqrt(c2 * c2 + 4.0 * d * c2)) / (2.0 * c2)


@dataclass(frozen=True)
class EndStateSpectra:
    """Eigen-structure at the two wave end states for given (p, d, c)."""

    lambdas_prey_only: tuple[complex, complex, complex, complex]
    lambdas_coexisting: tuple[complex, complex, complex, complex]
    n_stable_coexisting: int
    spiral_tail: bool  # complex stable pair at the coexisting state


def end_state_spectra(p: KineticParams, d: float, c: float) -> EndStateSpectra:
    """Closed-form spectrum at the prey-only state, numeric at E*.

    lam_{1,2} = (c^2 +/- c sqrt(c^2 - 4 j1)) / 2 and
    lam_{3,4} = (c^2 +/- c sqrt(c^2 - 4 d^2 j3)) / (2 d); the latter pair is
    complex exactly for c < c_min, the spiral regime.
    """
    if c <= 0:
        raise ValueError(f"need c > 0, got {c}")
    j1, j3 = j_constants(p, d)
    c2 = c * c
    r12 = complex(c2 - 4.0 * j1, 0.0) ** 0.5
    r34 = complex(c2 - 4.0 * d * d * j3, 0.0) ** 0.5
    lam_e1 = (
        (c2 + c * r12) / 2.0,
        (c2 - c * r12) / 2.0,
        (c2 + c * r34) / (2.0 * d),
        (c2 - c * r34) / (2.0 * d),
    )

    co = coexisting_equilibria(p)
    if not co:
        raise OutOfRange(f"no coexisting state at sigma={p.sigma}")
    e = co[-1]
    star = np.array([e.u, e.u, e.v, e.v])
    lam_star = np.linalg.eigvals(tw_jacobian(star, p, d, c))
    lam_star = lam_star[np.argsort(lam_star.real)]
    stable = lam_star[lam_star.real < 0.0]
    spiral = bool(np.abs(stable.imag).max() > 1e-12) if stable.size else False
    return EndStateSpectra(lam_e1, tuple(lam_star), int(stable.size), spiral)


@dataclass
class Shot:
    """One shooting run along the slow unstable direction of (u1, u1, 0, 0)."""

    found: bool
    t: np.ndarray
    states: np.ndarray  # rows (X, Y, W, Z)
    monotone: bool
    wedge_ok: bool
    spiral_tail: bool


def _slow_unstable_vector(p: KineticParams, d: float, c: float) -> np.ndarray:
    u1 = _u1(p)
    e1 = np.array([u1, u1, 0.0, 0.0])
    lam, vecs = np.linalg.eig(tw_jacobian(e1, p, d, c))
    pos = [i for i in range(4) if lam[i].real > 1e-12]
    if not pos:
        raise OutOfRange("prey-only state has no unstable direction")
    i_slow = min(pos, key=lambda i: lam[i].real)
    if abs(lam[i_slow].imag) > 1e-10:
        raise OutOfRange(
            "slow unstable pair is complex (c below the minimal speed); "
            "no monotone launch direction exists")
    v = np.real(vecs[:, i_slow])
    nv = float(np.abs(v).max())
    if nv == 0.0 or abs(v[2]) < 1e-13 * nv:
        raise OutOfRange("degenerate slow eigenvector")
    v = v / nv
    if v[2] < 0.0:  # launch into positive predator density
        v = -v
    return v


def _oscillation(series: np.ndarray) -> float:
    """Total variation in excess of the net change; 0 for monotone data."""
    tv = float(np.abs(np.diff(series)).sum())
    return tv - abs(float(series[-1] - series[0]))


def _kinetic_seed(p: KineticParams, d: float, c: float, y0: np.ndarray,
                  target: np.ndarray, r_cut: float,
                  t_max: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Initial core-profile guess from the reaction-only flow.

    The prey pair (X, Y) is slaved on the scale 1/c^2, so the kinetic orbit
    u' = F1, v' = F2 with Y = u - F1/c^2, Z = v - d F2/c^2 approximates the
    connection well enough to seed the collocation solver. The guess stops
    at distance r_cut from the coexisting point.
    """
    uv_star = target[[0, 2]]

    def kin(_t, s):
        f1, f2 = kinetics(s[0], s[1], p)
        return [float(f1), float(f2)]

    def near(_t, s):
        return float(np.hypot(*(s - uv_star))) - r_cut

    near.terminal = True
    near.direction = -1.0
    # RK45: the kinetics are non-stiff at wave parameters, and DOP853's
    # long-step dense output is too wiggly to seed the collocation
    sol = solve_ivp(kin, (0.0, 2.0 * t_max), y0[[0, 2]], method="RK45",
                    rtol=1e-10, atol=1e-13, dense_output=True, events=near)
    if not sol.t_events[0].size:
        raise Timeout(
            f"reaction flow does not reach the coexisting state by t={t_max}")
    T0 = float(sol.t_events[0][0])

    frac = np.unique(np.concatenate([
        np.clip(sol.t[sol.t < T0] / T0, 0.0, 1.0), np.linspace(0.0, 1.0, 801)]))
    uv = sol.sol(frac * T0)
    f1, f2 = kinetics(uv[0], uv[1], p)
    c2 = c * c
    seed = np.vstack([uv[0], uv[0] - f1 / c2, uv[1], uv[1] - d * f2 / c2])
    seed[:, 0] = y0
    return frac, seed, T0


# Core window for the collocation solve. Outside it the linearised end-state
# flow carries the orbit with O(amplitude) relative error; inside the launch
# tail collocation stalls outright (components below Newton's roundoff floor)
# and a spiral approach drags the free transit time through many windings.
_CORE_AMPLITUDE = 0.02
_CORE_RADIUS = 0.02
# Launch distance from the prey-only state, in units of u1, and the target
# ball (max-norm radius) an orbit must enter and stay inside for _STAY time
# units to count as found.
_LAUNCH_SCALE = 1e-5
_BALL = 1e-4
_STAY = 10.0


def shoot_heteroclinic(p: KineticParams, d: float, c: float, *,
                       t_max: float = 2000.0, tol: float = 1e-10) -> Shot:
    """Compute the orbit leaving the prey-only state along its slow unstable
    eigenvector and track it into the coexisting state.

    The launch point is pinned at distance _LAUNCH_SCALE*u1 along the slow
    eigenvector. Stepping the orbit out forward is hopeless here: the prey
    pair carries a transverse growth rate of about c^2 everywhere, so
    roundoff overwhelms the connection after t ~ 35/c^2 while the transit
    takes ~100, and no forward trajectory can sit near the coexisting saddle
    for the required dwell either. The orbit is instead assembled from three
    exact-to-tolerance pieces: the linear flow along the slow eigenvector
    from the launch amplitude up to max-norm amplitude _CORE_AMPLITUDE, a
    collocation solve of the full nonlinear profile with projection boundary
    conditions and free transit time down to radius _CORE_RADIUS, and the
    linear flow on the stable subspace of the coexisting state from there on.

    found requires the orbit to enter the max-norm ball of radius _BALL
    around the coexisting point and remain inside through the end, for at
    least _STAY time units. The orbit leaving the box [-1, 2 u1]^4 raises
    Escaped; a transit longer than t_max raises Timeout; collocation failure
    raises NoConvergence. Monotonicity of X and W is judged on the trailing
    80% of the orbit with oscillation tolerance 1e-4.
    """
    if c <= 0:
        raise ValueError(f"need c > 0, got {c}")
    u1 = _u1(p)
    co = coexisting_equilibria(p)
    if not co:
        raise OutOfRange(f"no coexisting state at sigma={p.sigma}")
    e = co[-1]
    target = np.array([e.u, e.u, e.v, e.v])

    spectra = end_state_spectra(p, d, c)
    stable = [l for l in spectra.lambdas_coexisting if l.real < 0]
    if len(stable) < 2:
        raise OutOfRange("coexisting state has no 2D stable manifold")
    rate = min(-l.real for l in stable)

    v = _slow_unstable_vector(p, d, c)
    e1 = np.array([u1, u1, 0.0, 0.0])
    y0 = e1 + _LAUNCH_SCALE * u1 * v

    frac, seed, T0 = _kinetic_seed(p, d, c, y0, target, _CORE_RADIUS, t_max)

    grown = np.abs(seed - e1[:, None]).max(axis=0) > _CORE_AMPLITUDE
    if not grown.any() or int(np.argmax(grown)) >= frac.size - 8:
        raise NoConvergence(
            f"kinetic seed has no usable core at sigma={p.sigma}, c={c}")
    iL = int(np.argmax(grown))
    sub = seed[:, iL:]
    sfr = (frac[iL:] - frac[iL]) / (frac[-1] - frac[iL])
    Tc0 = (frac[-1] - frac[iL]) * T0

    # Projection boundary conditions. Growing modes must be controlled at
    # the downstream end and decaying ones upstream, or the discrete system
    # inherits the e^(c^2 T) shooting conditioning; so the core entry pins
    # only the stable coefficient and the slow amplitude, and the far end
    # kills both unstable coefficients of the coexisting state.
    lam1, vecs1 = np.linalg.eig(tw_jacobian(e1, p, d, c))
    left1 = np.linalg.inv(vecs1)
    i_stab = int(np.argmin(lam1.real))
    i_slow = min((i for i in range(4) if lam1[i].real > 1e-12),
                 key=lambda i: lam1[i].real)
    lam_slow = float(lam1[i_slow].real)
    ell_stab = np.real(left1[i_stab])
    ell_slow = np.real(left1[i_slow])
    a0 = float(ell_slow @ (y0 - e1))
    a_core = float(ell_slow @ (sub[:, 0] - e1))

    lam_s, vecs_s = np.linalg.eig(tw_jacobian(target, p, d, c))
    left_s = np.linalg.inv(vecs_s)
    proj_rows = []
    seen_conj = set()
    for i in range(4):
        if lam_s[i].real <= 0 or i in seen_conj:
            continue
        if abs(lam_s[i].imag) > 1e-12:
            for j in range(i + 1, 4):
                if abs(lam_s[j] - lam_s[i].conjugate()) < 1e-9:
                    seen_conj.add(j)
                    break
            proj_rows.append(np.real(left_s[i]))
            proj_rows.append(np.imag(left_s[i]))
        else:
            proj_rows.append(np.real(left_s[i]))
    if len(proj_rows) != 2:
        raise OutOfRange(
            f"coexisting state has {len(proj_rows)} unstable directions, need 2")
    proj_u = np.vstack(proj_rows)

    # phase: fix the far end on the section through the seed endpoint
    w_end = sub[:, -1] - target
    r0 = float(np.linalg.norm(w_end))
    if r0 == 0.0:
        raise NoConvergence("seed endpoint coincides with the target state")
    w_end = w_end / r0

    def fun(_s, y, q):
        return q[0] * tw_rhs(y, p, d, c)

    def fun_jac(_s, y, q):
        return q[0] * tw_jacobian(y, p, d, c), tw_rhs(y, p, d, c)[:, None, :]

    def bc(ya, yb, q):
        da = ya - e1
        db = yb - target
        return np.array([
            float(ell_stab @ da),
            float(ell_slow @ da) - a_core,
            float(proj_u[0] @ db),
            float(proj_u[1] @ db),
            float(w_end @ db) - r0,
        ])

    def bc_jac(ya, yb, q):
        dya = np.zeros((5, 4))
        dya[0] = ell_stab
        dya[1] = ell_slow
        dyb = np.zeros((5, 4))
        dyb[2] = proj_u[0]
        dyb[3] = proj_u[1]
        dyb[4] = w_end
        return dya, dyb, np.zeros((5, 1))

    sol = None
    for bvp_tol in (tol, max(100.0 * tol, 1e-8)):
        try:
            cand = solve_bvp(fun, bc, sfr, sub, p=[Tc0], tol=bvp_tol,
                             max_nodes=30000, fun_jac=fun_jac, bc_jac=bc_jac)
        except NonFinite:
            continue
        if cand.status == 0:
            sol = cand
            break
    if sol is None:
        raise NoConvergence(
            f"profile collocation failed at sigma={p.sigma}, c={c}")
    Tc = float(sol.p[0])
    if Tc <= 0.0:
        raise NoConvergence("collocation returned a non-positive transit time")

    # launch tail: pure slow-mode growth from amplitude a0 to the core entry
    ya = sol.sol(0.0)
    ratio = float(ell_slow @ (ya - e1)) / a0
    T1 = math.log(ratio) / lam_slow if ratio > 1.0 else 0.0

    # target tail: the far end sits on the stable subspace (enforced by bc),
    # so the linear eigenflow from yb is the orbit there
    yb = sol.sol(1.0)
    idx = np.nonzero(lam_s.real < 0)[0]
    lam_tail = lam_s[idx]
    coef_tail = (left_s @ (yb - target))[idx]
    V_tail = vecs_s[:, idx]

    def stable_flow(dt):
        ph = np.exp(np.outer(lam_tail, dt))
        return target[:, None] + np.real(V_tail @ (coef_tail[:, None] * ph))

    cap = math.log(max(r0, _BALL) * 1e3 / _BALL) / rate + _STAY + 15.0
    dts = np.arange(0.0, cap, 0.05)
    rad = np.abs(stable_flow(dts) - target[:, None]).max(axis=0)
    ever_in = np.maximum.accumulate(rad[::-1])[::-1] < _BALL
    if not ever_in.any():
        raise Timeout("orbit does not settle into the target ball")
    T2 = float(dts[int(np.argmax(ever_in))]) + _STAY + 5.0

    T = T1 + Tc + T2
    if T > t_max:
        raise Timeout(f"transit time {T:.0f} exceeds t_max={t_max}")

    ns = max(2000, min(2 * sol.x.size, 6000))
    tarr = np.linspace(0.0, T, ns)
    m1 = tarr < T1
    m3 = tarr > T1 + Tc
    m2 = ~m1 & ~m3
    sarr = np.empty((ns, 4))
    sarr[m1] = e1 + np.exp(lam_slow * (tarr[m1] - T1))[:, None] * (ya - e1)
    sarr[m2] = sol.sol((tarr[m2] - T1) / Tc).T
    sarr[m3] = stable_flow(tarr[m3] - T1 - Tc).T

    lo, hi = -1.0, 2.0 * u1
    if sarr.min() < lo or sarr.max() > hi:
        raise Escaped("computed orbit leaves the physical box")

    inside = np.abs(sarr - target).max(axis=1) < _BALL
    if not inside[-1]:
        raise Timeout("orbit does not end inside the target ball")
    i_ball = int(np.nonzero(~inside)[0][-1]) + 1 if not inside.all() else 0
    found = T - tarr[i_ball] >= _STAY

    tail = slice(ns // 5, None)
    osc = max(_oscillation(sarr[tail, 0]), _oscillation(sarr[tail, 2]))
    monotone = osc <= 1e-4

    m = wedge_zeta(d, c)
    X, W, Z = sarr[:, 0], sarr[:, 2], sarr[:, 3]
    slack = 1e-9
    wedge_ok = bool(
        (X >= -slack).all() and (X <= u1 + slack).all() and (W >= -slack).all()
        and (Z >= 0.5 * W - slack).all() and (Z <= m * W + slack).all()
    )

    return Shot(found, tarr, sarr, monotone, wedge_ok, spectra.spiral_tail)


class WaveClass(enum.IntEnum):
    """Cell classification for the (sigma, c) scan; values are the CSV codes."""

    NO_WAVE = 0
    MONOTONIC = 1
    NON_MONOTONIC = 2
    UNKNOWN = 3


@dataclass
class ScanResult:
    sigmas: np.ndarray
    cs: np.ndarray
    codes: np.ndarray          # shape (len(sigmas), len(cs))
    c_min_at_sigma: np.ndarray

    @property
    def monotonic_side(self) -> str:
        """Which side of the empirical boundary the monotone cells occupy."""
        mono = self.codes == WaveClass.MONOTONIC
        non = self.codes == WaveClass.NON_MONOTONIC
        if not mono.any() or not non.any():
            return "undetermined"
        mono_mean = float(np.broadcast_to(self.sigmas[:, None], self.codes.shape)[mono].mean())
        non_mean = float(np.broadcast_to(self.sigmas[:, None], self.codes.shape)[non].mean())
        return "high_sigma" if mono_mean > non_mean else "low_sigma"


def _classify_cell(p: KineticParams, d: float, c: float) -> int:
    try:
        shot = shoot_heteroclinic(p, d, c, tol=1e-8)
    except (Escaped, Timeout, OutOfRange, NoConvergence):
        return int(WaveClass.UNKNOWN)
    if not shot.found:
        return int(WaveClass.UNKNOWN)
    mono = shot.monotone and not shot.spiral_tail
    return int(WaveClass.MONOTONIC if mono else WaveClass.NON_MONOTONIC)


def scan_plane(p: KineticParams, d: float, sigmas, cs) -> ScanResult:
    """Classify every (sigma, c) cell of the travelling-wave plane, each
    shot with collocation tolerance 1e-8.

    Requires every sigma above the temporal Hopf value (the coexisting state
    must attract). Cells below the minimal speed are NoWave without shooting;
    per-cell failures are recorded as Unknown, never raised.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    cs = np.asarray(cs, dtype=float)
    sig_h, _ = hopf_sigma(p, (0.5, 4.0))
    if sigmas.min() <= sig_h:
        raise OutOfRange(
            f"scan sigmas must exceed the Hopf value {sig_h:.4f}; "
            f"got min {sigmas.min():.4f}")
    codes = np.full((sigmas.size, cs.size), int(WaveClass.UNKNOWN), dtype=int)
    cmins = np.empty(sigmas.size)
    for i, sig in enumerate(sigmas):
        ps = p.with_sigma(float(sig))
        try:
            cm = c_min(ps, d)
        except OutOfRange:
            cmins[i] = math.nan
            continue
        cmins[i] = cm
        for j, c in enumerate(cs):
            if c < cm:
                codes[i, j] = WaveClass.NO_WAVE
            else:
                codes[i, j] = _classify_cell(ps, d, float(c))
    return ScanResult(sigmas, cs, codes, cmins)
