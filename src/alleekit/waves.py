"""Travelling-wave analysis: the 4D profile system, end-state spectra,
the minimal speed, wedge-confined shooting, and the (sigma, c) scan.

The profile substitution turns u(x - ct), v(x - ct) into the first-order
system X' = c^2 (X - Y), Y' = F1(X, W), W' = (c^2 / d)(W - Z),
Z' = F2(X, W), whose heteroclinic orbits from the prey-only state to the
coexisting state are the invasion fronts seen in the PDE.

The shooting runs on code of this package alone: the kinetic seed on
:mod:`alleekit.temporal`'s Dormand-Prince pair, the profile on the banded
Lobatto IIIA collocation of :mod:`alleekit.collocation`. Of scipy it loads
only the LAPACK extension that :mod:`alleekit.pde` loads.

The scan runs one worker per sigma row, cells chained in c: each cell's
collocation starts from the converged profile of the cell before it in
its row. The rows go to forked worker processes, one per usable core; the
result does not depend on the worker count.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from itertools import starmap

import numpy as np

from .collocation import BVPResult, solve_bvp
from .errors import (ConvergenceError, NoConvergence, NonFinite,
                     NumericalError, OutOfRange)
from .model import (
    KineticParams,
    Stability,
    jacobian_fields,
    kinetics,
    upper_axial,
    upper_coexisting,
)
from .temporal import _dense, _dopri5


def j_constants(p: KineticParams, d: float) -> tuple[float, float]:
    """(j1, j3): prey-only linearization constants of the wave system.

    j1 = sigma*u1*(1 - 2*u1) < 0 for sigma > 4*eta; j3 > 0 exactly when the
    predator can invade the prey-only state. The proposition's constant M
    is the same expression as j3 under another name, so j3 stands for both.
    """
    if d <= 0:
        raise ValueError(f"need d > 0, got {d}")
    u1 = upper_axial(p).u
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


def _coexisting_spectrum(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """The eigenvalues at E* by ascending real part, those with negative
    real part, and whether these include a complex pair (a spiral tail)."""
    lam = lam[np.argsort(lam.real)]
    stable = lam[lam.real < 0.0]
    spiral = bool(np.abs(stable.imag).max() > 1e-12) if stable.size else False
    return lam, stable, spiral


@dataclass
class Shot:
    """One shooting run along the slow unstable direction of (u1, u1, 0, 0),
    an orbit that ends inside the target ball (see shoot_heteroclinic)."""

    t: np.ndarray
    states: np.ndarray  # one (X, Y, W, Z) row per sample
    monotone: bool
    wedge_ok: bool
    spiral_tail: bool
    # the converged core collocation, a first iterate for a nearby speed
    bvp: BVPResult | None = None


def _launch(lam: np.ndarray, vecs: np.ndarray) -> tuple[int, np.ndarray]:
    """From the prey-only state's ``np.linalg.eig``: the index of its slowest
    unstable eigenvalue, and its real eigenvector (max-norm 1, W part > 0)."""
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
    return i_slow, v


def _left_rows(vecs: np.ndarray, state: str) -> np.ndarray:
    """The inverse of an end state's eigenvector matrix; OutOfRange when the
    eigenvectors do not span, since the projections need a full basis."""
    try:
        return np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        raise OutOfRange(
            f"the {state} state's wave Jacobian is defective (a double "
            "eigenvalue with one eigenvector, as at c = c_min)") from None


def _oscillation(series: np.ndarray) -> float:
    """Total variation in excess of the net change; 0 for monotone data."""
    tv = float(np.abs(np.diff(series)).sum())
    return tv - abs(float(series[-1] - series[0]))


def _dense_on_steps(steps: list[tuple], s: np.ndarray) -> np.ndarray:
    """:func:`~alleekit.temporal._dense` at the times ``s`` over accepted
    ``steps``, shape (2, len(s)). A time on a step boundary takes the step
    that ends there, as scipy's ``OdeSolution`` does; times outside the
    steps extrapolate the first or last one."""
    t, h, u, v, cu, cv = (np.array(a) for a in zip(*steps))
    k = np.clip(np.searchsorted(t, s, side="left") - 1, 0, len(steps) - 1)
    return np.array(_dense(s, t[k], h[k], u[k], v[k], cu[k].T, cv[k].T))


def _kinetic_seed(p: KineticParams, d: float, c: float, y0: np.ndarray,
                  target: np.ndarray, r_cut: float,
                  t_max: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Initial core-profile guess from the reaction-only flow.

    The prey pair (X, Y) is slaved on the scale 1/c^2, so the kinetic orbit
    u' = F1, v' = F2 with Y = u - F1/c^2, Z = v - d F2/c^2 approximates the
    connection well enough to seed the collocation solver. The orbit runs
    on temporal's Dormand-Prince 5(4) pair (the kinetics are non-stiff at
    wave parameters, and DOP853's long-step dense output is too wiggly to
    seed the collocation) at rtol 1e-10, atol 1e-13, and the guess stops
    where it comes within distance r_cut of the coexisting point. It is
    sampled at every step start and on a uniform grid of 801 points.
    """
    us, vs = float(target[0]), float(target[2])

    def near(u, v):
        return r_cut - math.hypot(u - us, v - vs)

    steps: list[tuple] = []
    times, _, hit = _dopri5(float(y0[0]), float(y0[2]), p, 2.0 * t_max,
                            1e-10, 1e-13, [], near, steps)
    if not hit:
        raise NoConvergence(
            f"reaction flow does not reach the coexisting state by t={2.0 * t_max}")
    T0 = times[-1]

    t = np.array([step[0] for step in steps])
    frac = np.sort(np.concatenate([
        np.clip(t[t < T0] / T0, 0.0, 1.0), np.linspace(0.0, 1.0, 801)]))
    # np.unique, without the numpy.ma it imports
    frac = frac[np.concatenate(([True], frac[1:] != frac[:-1]))]
    uv = _dense_on_steps(steps, frac * T0)
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
# units.
_LAUNCH_SCALE = 1e-5
_BALL = 1e-4
_STAY = 10.0


def shoot_heteroclinic(p: KineticParams, d: float, c: float, *,
                       t_max: float = 2000.0, tol: float = 1e-10,
                       start: BVPResult | None = None) -> Shot:
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
    collocation solve (:func:`alleekit.collocation.solve_bvp`, seeded by
    the reaction-only flow) of the full nonlinear profile with projection
    boundary conditions and free transit time down to radius _CORE_RADIUS,
    and the linear flow on the stable subspace of the coexisting state from
    there on. The collocation runs once, at ``tol``, and its failure passes
    up under its own name: NoConvergence for more than 30000 nodes or a
    boundary residual that does not settle, SingularJacobian for a
    singular Newton matrix, NonFinite for a non-finite iterate.

    ``start``, the converged collocation of a nearby cell (``Shot.bvp``),
    replaces the kinetic seed as the collocation's first iterate: its
    mesh, its nodal profile and its transit time. The seed still runs, and
    every boundary condition still comes from this cell's launch point and
    seed, so Newton converges to this cell's own front.

    Each end state is linearized once, by one ``np.linalg.eig`` and the
    inverse of its eigenvectors (the left rows), which give the launch and
    entry conditions at E1 and the decay rate, spiral flag, projection rows
    and tail flow at E*. An end state whose eigenvectors do not span
    (a double eigenvalue with one eigenvector, as the slow pair of E1 has
    at c = c_min) raises OutOfRange.

    The orbit must enter the max-norm ball of radius _BALL around the
    coexisting point and remain inside through the end, for at least _STAY
    time units. An end-state Jacobian past the float range (c**2 overflows)
    or the orbit leaving the box [-1, 2 u1]^4 raises NonFinite; an orbit
    that ends outside the ball or stays in it for less than _STAY, a
    transit longer than t_max, or a seed that does not reach the coexisting
    state raises NoConvergence. Monotonicity of X and W is judged on the
    trailing 80% of the orbit with oscillation tolerance 1e-4.
    """
    if c <= 0:
        raise ValueError(f"need c > 0, got {c}")
    u1 = upper_axial(p).u
    e = upper_coexisting(p)
    if d <= 0:
        raise ValueError(f"need d > 0, got {d}")
    e1 = np.array([u1, u1, 0.0, 0.0])
    target = np.array([e.u, e.u, e.v, e.v])

    jac_s, jac1 = tw_jacobian(target, p, d, c), tw_jacobian(e1, p, d, c)
    if not (np.isfinite(jac_s).all() and np.isfinite(jac1).all()):
        raise NonFinite(f"wave Jacobian overflows at c={c:.3g}, d={d:.3g}")
    lam_s, vecs_s = np.linalg.eig(jac_s)
    left_s = _left_rows(vecs_s, "coexisting")
    _, stable, spiral = _coexisting_spectrum(lam_s)
    if stable.size < 2:
        raise OutOfRange("coexisting state has no 2D stable manifold")
    rate = -float(stable.real.max())

    lam1, vecs1 = np.linalg.eig(jac1)
    left1 = _left_rows(vecs1, "prey-only")
    i_slow, v = _launch(lam1, vecs1)
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
    # kills both unstable coefficients of the coexisting state (of a complex
    # pair, by the left row of its Im > 0 member, which LAPACK lists first).
    lam_slow = float(lam1[i_slow].real)
    ell_stab = np.real(left1[int(np.argmin(lam1.real))])
    ell_slow = np.real(left1[i_slow])
    a0 = float(ell_slow @ (y0 - e1))
    a_core = float(ell_slow @ (sub[:, 0] - e1))

    grow = [i for i in range(4) if lam_s[i].real > 0 and lam_s[i].imag >= 0]
    proj_rows = ([np.real(left_s[i]) for i in grow]
                 + [np.imag(left_s[i]) for i in grow if lam_s[i].imag > 0])
    if len(proj_rows) != 2:
        raise OutOfRange(
            f"coexisting state has {len(proj_rows)} unstable directions, need 2")
    proj_u = np.vstack(proj_rows)

    # phase: fix the far end on the section through the seed endpoint
    w_end = sub[:, -1] - target
    # the seed stops where hypot(X - u*, W - v*) = _CORE_RADIUS, so r0 > 0
    r0 = float(np.linalg.norm(w_end))
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

    # the conditions are affine in (ya, yb), so their Jacobian is constant
    dya = np.vstack([ell_stab, ell_slow, np.zeros((3, 4))])
    dyb = np.vstack([np.zeros((2, 4)), proj_u, w_end])

    def bc_jac(ya, yb, q):
        return dya, dyb, np.zeros((5, 1))

    guess = ((sfr, sub, [Tc0]) if start is None
             else (start.x, start.sol(start.x), start.p))
    sol = solve_bvp(fun, bc, *guess, tol=tol, max_nodes=30000,
                    fun_jac=fun_jac, bc_jac=bc_jac)
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
    decay = lam_s.real < 0
    coef_tail = (left_s @ (yb - target))[decay]

    def stable_flow(dt):
        ph = coef_tail[:, None] * np.exp(np.outer(lam_s[decay], dt))
        return target[:, None] + np.real(vecs_s[:, decay] @ ph)

    cap = math.log(max(r0, _BALL) * 1e3 / _BALL) / rate + _STAY + 15.0
    dts = np.arange(0.0, cap, 0.05)
    rad = np.abs(stable_flow(dts) - target[:, None]).max(axis=0)
    ever_in = np.maximum.accumulate(rad[::-1])[::-1] < _BALL
    if not ever_in.any():
        raise NoConvergence("orbit does not settle into the target ball")
    T2 = float(dts[int(np.argmax(ever_in))]) + _STAY + 5.0

    T = T1 + Tc + T2
    if T > t_max:
        raise NoConvergence(f"transit time {T:.0f} exceeds t_max={t_max}")

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
        raise NonFinite("computed orbit leaves the physical box")

    inside = np.abs(sarr - target).max(axis=1) < _BALL
    if not inside[-1]:
        raise NoConvergence("orbit does not end inside the target ball")
    i_ball = int(np.nonzero(~inside)[0][-1]) + 1 if not inside.all() else 0
    stay = T - tarr[i_ball]
    if stay < _STAY:
        raise NoConvergence(f"orbit stays inside the target ball for {stay:.3g} "
                            f"time units, less than {_STAY:g}")

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

    return Shot(tarr, sarr, monotone, wedge_ok, spiral, sol)


# collocation tolerance of the scan's shots; a shot that repeats one of
# them at this tolerance reproduces it
SCAN_TOL = 1e-8


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
    # per cell, why it is Unknown: the failure's exception name; "" for the
    # other cells
    reasons: np.ndarray
    # the shot of a single-cell plane whose cell holds a front, else None
    shot: Shot | None


def _shoot_cell(p: KineticParams, d: float, c: float,
                start: BVPResult | None = None) -> tuple[int, str, Shot | None]:
    """WaveClass code, reason (see ScanResult.reasons) and, if it holds a
    front, the shot of one cell at or above the minimal speed, from one
    shot at SCAN_TOL from ``start`` (see shoot_heteroclinic). The cell
    records any NumericalError or ConvergenceError, and OutOfRange, by the
    name it was raised with."""
    try:
        shot = shoot_heteroclinic(p, d, c, tol=SCAN_TOL, start=start)
    except (NumericalError, ConvergenceError, OutOfRange) as exc:
        return int(WaveClass.UNKNOWN), type(exc).__name__, None
    if shot.monotone and not shot.spiral_tail:
        return int(WaveClass.MONOTONIC), "", shot
    return int(WaveClass.NON_MONOTONIC), "", shot


def _shoot_row(p: KineticParams, d: float, cs):
    """_shoot_cell of each speed of ``cs`` in turn, chained: a cell starts
    from the converged collocation of the cell before it, and after a cell
    that holds no shot, cold from its own kinetic seed."""
    start = None
    for c in cs:
        code, reason, shot = _shoot_cell(p, d, c, start)
        start = shot.bvp if shot is not None else None
        yield code, reason, shot


def _classify_row(p: KineticParams, d: float, cs) -> list[tuple[int, str]]:
    """The codes and reasons of :func:`_shoot_row`, without the shots: what
    a pool worker sends back."""
    return [cell[:2] for cell in _shoot_row(p, d, cs)]


def scan_plane(p: KineticParams, d: float, sigmas, cs) -> ScanResult:
    """Classify every (sigma, c) cell of the travelling-wave plane, each
    shot with collocation tolerance SCAN_TOL.

    Requires the upper coexisting state to be a stable node or focus at
    every scanned sigma; OutOfRange names the first sigma where it is not.
    Cells below the minimal speed are NoWave without shooting. A cell's
    failure, any NumericalError or ConvergenceError and OutOfRange, is
    recorded as Unknown with the name it was raised under in ``reasons``,
    never raised. An exception a cell does not record (a programming
    error) propagates.

    The unit of work is a sigma row, one worker per row, cells chained in
    c: a row's cells are shot in increasing c, each from the converged
    collocation of the one before (see _shoot_row). The first cell, and
    any cell after one that failed, starts cold. The rows are shot in
    forked worker processes, one per usable core
    (``os.sched_getaffinity``), at most one per row; with fewer than two
    workers (one row, one core, or a platform without
    ``sched_getaffinity``, where fork is missing or unsafe) they are shot
    in this process. Only codes and reasons leave a worker, so the result
    does not depend on the worker count. Every worker has exited when this
    returns or raises. A single-cell plane keeps the shot of its front in
    ``ScanResult.shot``.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    cs = np.asarray(cs, dtype=float)
    codes = np.full((sigmas.size, cs.size), int(WaveClass.UNKNOWN), dtype=int)
    reasons = np.full(codes.shape, "", dtype=object)
    cmins = np.empty(sigmas.size)
    rows, args = [], []
    for i, sig in enumerate(sigmas):
        ps = p.with_sigma(float(sig))
        e = upper_coexisting(ps)
        if e.stability not in (Stability.STABLE_NODE, Stability.STABLE_FOCUS):
            raise OutOfRange(
                f"scan needs the coexisting state to attract at every sigma; "
                f"at sigma={sig:.4f} it is {e.stability.value}")
        # an attracting coexisting state needs alpha/(gamma - 1) < u1,
        # which is j3 > 0, so c_min does not raise
        cm = cmins[i] = c_min(ps, d)
        below = cs < cm
        codes[i, below] = WaveClass.NO_WAVE
        js = [j for j in np.argsort(cs, kind="stable") if not below[j]]
        if js:
            rows.append((i, js))
            args.append((ps, d, cs[js].tolist()))

    cores = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else 1)
    workers = min(cores, len(rows))
    if workers >= 2:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork: the workers inherit the loaded modules instead of importing
        # them again. Rows go out one at a time, which balances their
        # unequal costs. Unlike multiprocessing.Pool, which waits forever
        # for the row of a worker that died, the executor then raises
        # BrokenProcessPool; leaving the block joins every worker.
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            outcomes = list(pool.map(_classify_row, *zip(*args)))
    else:
        outcomes = starmap(_shoot_row, args)
    shot = None
    for (i, js), row in zip(rows, outcomes):
        for j, (code, reason, *kept) in zip(js, row):
            codes[i, j], reasons[i, j] = code, reason
            if codes.size == 1:  # one cell, so shot in this process
                shot = kept[0]
    return ScanResult(sigmas, cs, codes, cmins, reasons, shot)
