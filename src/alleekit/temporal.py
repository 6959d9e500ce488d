"""Time integration of the planar kinetics and attractor characterization.

The integrator is the Dormand-Prince embedded 5(4) pair (Dormand & Prince,
J. Comput. Appl. Math. 6, 1980), written for the two-variable kinetics in
plain Python floats, with the step-size controller, order-4 dense output
and event location of Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, sections II.4-II.6. It reproduces scipy's RK45:
the same tableau, error weights, first-step rule and controller, and the
same interpolant at the sample times. The two differ only in the rounding
of their sums, so their step sizes drift apart slowly (from about 1e-11
relative), and an accept test that falls within that drift of its bound
can go the other way. On the sigma = 1.82 cycle orbit they take the same
steps; near a fixed point, where the error estimate is mostly rounding,
they can differ by a step or two. The kinetics are non-stiff, so the explicit pair with
relative tolerance 1e-8 (ODE_RTOL) is used. Each run has one stop event, a
gap that rises through zero, and a budget of ODE_MAX_STEPS attempted steps;
past the budget it raises NoConvergence, so no run is endless. Everything
downstream works on densely sampled :class:`Trajectory` objects. The same
integrator, with its own stop event and its accepted steps handed back,
gives :mod:`alleekit.waves` the reaction-only orbit that seeds its
collocation.

The module imports no numpy: the samples, the checks on them and the
attractor classification are plain Python floats and lists, so
``temporal-diagram`` runs without numpy, like ``equilibria``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import (
    Inconclusive,
    NoConvergence,
    NonFinite,
    ToolkitError,
)
from .model import (
    EquilibriumKind,
    KineticParams,
    Stability,
    all_equilibria,
    kinetics,
)
from .rootfind import bracketed_root

__all__ = [
    "Trajectory",
    "AttractorKind",
    "AttractorSummary",
    "DiagramPoint",
    "integrate_ode",
    "attractor_summary",
    "bifurcation_diagram",
]

# integrate_ode's relative and absolute tolerances
ODE_RTOL = 1e-8
ODE_ATOL = 1e-10
# _dopri5's step budget: attempted steps, rejected ones included
ODE_MAX_STEPS = 10**6
EXTINCTION_LEVEL = 1e-6


@dataclass(frozen=True)
class Trajectory:
    """Samples of an orbit: ``times`` ascending floats, ``states[i]`` the
    pair (u, v) at ``times[i]``. Both are lists; ``np.asarray(tr.states)``
    gives the (n, 2) array, columns u and v, for array work. The orbit
    stopped early, at its extinction level, when ``times[-1]`` is below
    the requested T."""

    times: list[float]
    states: list[tuple[float, float]]


class AttractorKind(Enum):
    FIXED_POINT = "FixedPoint"
    LIMIT_CYCLE = "LimitCycle"
    EXTINCTION = "Extinction"


@dataclass(frozen=True)
class AttractorSummary:
    kind: AttractorKind
    u_min: float
    u_max: float
    period: float | None = None


# Dormand-Prince 5(4) with the coefficients of scipy's RK45. The kinetics are
# autonomous, so the stage nodes c_i never enter. _B* are the fifth-order
# weights (b2 = 0), _E* the fifth-minus-fourth-order error weights over the
# seven FSAL stages, and _P* the order-4 dense output of Shampine (1986):
# y(t + x*h) = y + h*(k1*x + Q1*x^2 + Q2*x^3 + Q3*x^4), Qj = sum_i Pij*ki.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P11, _P12, _P13 = (-8048581381 / 2820520608, 8663915743 / 2820520608,
                    -12715105075 / 11282082432)
_P31, _P32, _P33 = (131558114200 / 32700410799, -68118460800 / 10900136933,
                    87487479700 / 32700410799)
_P41, _P42, _P43 = (-1754552775 / 470086768, 14199869525 / 1410260304,
                    -10690763975 / 1880347072)
_P51, _P52, _P53 = (127303824393 / 49829197408, -318862633887 / 49829197408,
                    701980252875 / 199316789632)
_P61, _P62, _P63 = (-282668133 / 205662961, 2019193451 / 616988883,
                    -1453857185 / 822651844)
_P71, _P72, _P73 = (40617522 / 29380423, -110615467 / 29380423,
                    69997945 / 29380423)
# step-size controller: safety factor, factor limits, and the exponent
# -1/(q+1) of the embedded order q = 4
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERR_EXPONENT = -1 / 5
_SQRT2 = 2 ** 0.5


def _rms(a: float, b: float) -> float:
    return math.sqrt(a * a + b * b) / _SQRT2


def _initial_step(u: float, v: float, fu: float, fv: float, p: KineticParams,
                  T: float, rtol: float, atol: float) -> float:
    """First step for an order-4 error estimate (Hairer-Norsett-Wanner
    II.4, scipy's ``select_initial_step``); one right-hand-side call."""
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0, d1 = _rms(u / su, v / sv), _rms(fu / su, fv / sv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, T)
    gu, gv = kinetics(u + h0 * fu, v + h0 * fv, p)
    d2 = _rms((gu - fu) / su, (gv - fv) / sv) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, T)


def _extinction_gap(u: float, v: float) -> float:
    """integrate_ode's stop event: rises through zero as max(u, v) falls
    through EXTINCTION_LEVEL."""
    return EXTINCTION_LEVEL - max(u, v)


def _dense(s: float, t: float, h: float, u: float, v: float,
           cu: tuple[float, ...], cv: tuple[float, ...]) -> tuple[float, float]:
    """The state at time s on the interpolant of the step [t, t + h].
    Elementwise when the arguments are arrays, one entry per time, as
    :mod:`alleekit.waves` calls it on its seed's accepted steps."""
    x = (s - t) / h
    return (u + x * (cu[0] + x * (cu[1] + x * (cu[2] + x * cu[3]))),
            v + x * (cv[0] + x * (cv[1] + x * (cv[2] + x * cv[3]))))


def _dopri5(u: float, v: float, p: KineticParams, T: float, rtol: float,
            atol: float, t_eval: list[float], gap,
            steps: list | None = None) -> tuple[list[float], list[float], bool]:
    """Integrate from (u, v) at t = 0 toward T, sampling the dense output
    at ``t_eval`` (ascending, inside [0, T]).

    The float ``gap(u, v)`` is the stop event, checked at each step end.
    When it rises through zero, the run stops at its root on the step's
    interpolant (Hairer, Norsett & Wanner II.6), with the samples before it
    and then the stop state itself, unless a sample time falls exactly on
    it. Returns the times, the flat states [u0, v0, u1, v1, ...] and
    whether the gap stopped the run. When ``steps`` is a list, every
    accepted step is appended to it as (t, h, u, v, cu, cv), the arguments
    :func:`_dense` takes after the time. More than ODE_MAX_STEPS attempted
    steps, or a step below the float spacing at t, raise NoConvergence.
    """
    k1u, k1v = kinetics(u, v, p)
    h_abs = _initial_step(u, v, k1u, k1v, p, T, rtol, atol)
    g_old = gap(u, v)
    n_eval = len(t_eval)
    budget = ODE_MAX_STEPS
    times: list[float] = []
    out: list[float] = []
    i = 0
    t = 0.0
    while True:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise NoConvergence(
                    f"integrator failed at t={t}: required step size is less "
                    "than spacing between numbers")
            if budget == 0:
                raise NoConvergence(
                    f"integrator used its budget of ODE_MAX_STEPS={ODE_MAX_STEPS} "
                    f"attempted steps at t={t} of T={T}")
            budget -= 1
            t_new = min(t + h_abs, T)
            h = t_new - t
            k2u, k2v = kinetics(u + (_A21 * k1u) * h, v + (_A21 * k1v) * h, p)
            k3u, k3v = kinetics(u + (_A31 * k1u + _A32 * k2u) * h,
                                v + (_A31 * k1v + _A32 * k2v) * h, p)
            k4u, k4v = kinetics(u + (_A41 * k1u + _A42 * k2u + _A43 * k3u) * h,
                                v + (_A41 * k1v + _A42 * k2v + _A43 * k3v) * h, p)
            k5u, k5v = kinetics(
                u + (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u) * h,
                v + (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v) * h, p)
            k6u, k6v = kinetics(
                u + (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u
                     + _A65 * k5u) * h,
                v + (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v
                     + _A65 * k5v) * h, p)
            un = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
            vn = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
            k7u, k7v = kinetics(un, vn, p)
            eu = (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u
                  + _E7 * k7u) * h
            ev = (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v
                  + _E7 * k7v) * h
            err = _rms(eu / (atol + max(abs(u), abs(un)) * rtol),
                       ev / (atol + max(abs(v), abs(vn)) * rtol))
            if err < 1.0:
                factor = (_MAX_FACTOR if err == 0.0
                          else min(_MAX_FACTOR, _SAFETY * err ** _ERR_EXPONENT))
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(_MIN_FACTOR, _SAFETY * err ** _ERR_EXPONENT)
            rejected = True

        # the step's interpolant y(t + x*h) = y + x*(c1 + x*(c2 + x*(c3 + x*c4)))
        cu = (h * k1u,
              h * (_P11 * k1u + _P31 * k3u + _P41 * k4u + _P51 * k5u
                   + _P61 * k6u + _P71 * k7u),
              h * (_P12 * k1u + _P32 * k3u + _P42 * k4u + _P52 * k5u
                   + _P62 * k6u + _P72 * k7u),
              h * (_P13 * k1u + _P33 * k3u + _P43 * k4u + _P53 * k5u
                   + _P63 * k6u + _P73 * k7u))
        cv = (h * k1v,
              h * (_P11 * k1v + _P31 * k3v + _P41 * k4v + _P51 * k5v
                   + _P61 * k6v + _P71 * k7v),
              h * (_P12 * k1v + _P32 * k3v + _P42 * k4v + _P52 * k5v
                   + _P62 * k6v + _P72 * k7v),
              h * (_P13 * k1v + _P33 * k3v + _P43 * k4v + _P53 * k5v
                   + _P63 * k6v + _P73 * k7v))
        step = (t, h, u, v, cu, cv)

        if steps is not None:
            steps.append(step)

        t_end = t_new
        g_new = gap(un, vn)
        hit = g_old <= 0.0 <= g_new
        if hit:
            t_end = bracketed_root(lambda s: gap(*_dense(s, *step)), t, t_new,
                                   fa=g_old, fb=g_new)

        while i < n_eval and t_eval[i] <= t_end:
            times.append(t_eval[i])
            out.extend(_dense(t_eval[i], *step))
            i += 1
        if hit:
            if not times or times[-1] < t_end:
                times.append(t_end)
                out.extend(_dense(t_end, *step))
            return times, out, True
        if t_new >= T:
            return times, out, False
        t, u, v, k1u, k1v, g_old = t_new, un, vn, k7u, k7v, g_new


def integrate_ode(
    ic: tuple[float, float],
    p: KineticParams,
    T: float,
) -> Trajectory:
    """Integrate the kinetics from ``ic`` for ``T`` time units.

    Relative tolerance ODE_RTOL, absolute ODE_ATOL. The trajectory is
    sampled on a uniform grid from 0 to T, with samples about
    max(min(0.25, T/1000), T/200000) apart. Stops early, with
    ``times[-1] < T``, where max(u, v) falls through EXTINCTION_LEVEL = 1e-6:
    from there the origin absorbs the orbit, since the prey growth term is
    quadratic at low density. States that undershoot zero by less than
    ODE_RTOL are clipped to 0; a worse undershoot, or a non-finite state,
    is an integration failure (NonFinite). More than ODE_MAX_STEPS
    attempted steps raise NoConvergence.
    """
    u0, v0 = float(ic[0]), float(ic[1])
    if not (math.isfinite(u0) and math.isfinite(v0)):
        raise NonFinite(f"initial condition must be finite, got {ic}")
    if u0 < 0 or v0 < 0:
        raise ValueError(f"initial condition must be non-negative, got {ic}")
    if not 0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")

    T = float(T)
    dt_out = max(min(0.25, T / 1000.0), T / 200000.0)
    n_out = int(round(T / dt_out))
    # np.linspace(0, T, n_out + 1) to the bit
    t_eval = [i * (T / n_out) for i in range(n_out)] + [T]

    times, flat, _ = _dopri5(u0, v0, p, T, ODE_RTOL, ODE_ATOL, t_eval,
                             _extinction_gap)
    if not all(map(math.isfinite, flat)):
        raise NonFinite("integration produced non-finite states")
    low = min(flat)
    if low < -ODE_RTOL:
        raise NonFinite(f"positivity lost: state component reached {low:.3g} < -ODE_RTOL")
    flat = [0.0 if x <= 0.0 else x for x in flat]  # max(x, 0.0) keeps -0.0
    return Trajectory(times=times, states=list(zip(flat[0::2], flat[1::2])))


def _refined_peaks(t: Sequence[float], x: Sequence[float]) -> list[float]:
    """Times of interior local maxima, refined by a 3-point parabola. A
    maximum lies strictly above its left neighbour and at or above its
    right one, so a two-sample flat top is one peak, at its midpoint."""
    peaks = []
    for i in range(1, len(x) - 1):
        if x[i] > x[i - 1] and x[i] >= x[i + 1]:
            denom = x[i - 1] - 2.0 * x[i] + x[i + 1]
            if denom < 0:
                delta = 0.5 * (x[i - 1] - x[i + 1]) / denom
                dt_l = t[i] - t[i - 1]
                peaks.append(t[i] + delta * dt_l)
            else:
                peaks.append(t[i])
    return peaks


def attractor_summary(tr: Trajectory, transient: float) -> AttractorSummary:
    """Classify the tail of a trajectory after discarding ``transient``.

    Extinction: both components end below 1.01 * EXTINCTION_LEVEL, where
    integrate_ode's stop leaves an extinct orbit, however short the tail
    it left. LimitCycle: relative peak-to-peak amplitude of u above 1e-4
    with consistent inter-peak intervals (CV < 0.02). FixedPoint:
    amplitude at or below 1e-4. Anything in between raises Inconclusive.
    """
    n = len(tr.times)
    start = bisect_left(tr.times, transient)
    # The integrator stops at its extinction level, possibly before the
    # transient ends; the origin absorbs the orbit from there, so the stop
    # state stands in for a tail the orbit never reached.
    extinct = max(tr.states[-1]) < 1.01 * EXTINCTION_LEVEL
    if extinct:
        start = min(start, n - 1)
    elif n - start < 10:
        raise Inconclusive(
            f"only {n - start} samples after transient={transient}; need more"
        )
    t = tr.times[start:]
    u = [state[0] for state in tr.states[start:]]
    umin, umax = min(u), max(u)

    if extinct:
        return AttractorSummary(kind=AttractorKind.EXTINCTION, u_min=umin, u_max=umax)

    mean = abs(math.fsum(u) / len(u))
    rel_amp = (umax - umin) / max(mean, 1e-300)
    if rel_amp <= 1e-4:
        return AttractorSummary(kind=AttractorKind.FIXED_POINT, u_min=u[-1], u_max=u[-1])

    peaks = _refined_peaks(t, u)
    if len(peaks) < 3:
        raise Inconclusive(
            f"oscillation with only {len(peaks)} peaks after the transient; "
            "integrate longer to classify"
        )
    intervals = [b - a for a, b in zip(peaks, peaks[1:])]
    period = math.fsum(intervals) / len(intervals)
    cv = math.sqrt(math.fsum((x - period) ** 2 for x in intervals)
                   / len(intervals)) / period
    if cv >= 0.02:
        raise Inconclusive(
            f"inter-peak intervals vary too much (CV={cv:.3f}) for a limit cycle"
        )
    return AttractorSummary(
        kind=AttractorKind.LIMIT_CYCLE,
        u_min=umin,
        u_max=umax,
        period=period,
    )


@dataclass(frozen=True)
class DiagramPoint:
    sigma: float
    equilibria: list
    cycle: tuple[float, float] | None
    error: str | None = None


def bifurcation_diagram(
    p: KineticParams,
    sigmas: Sequence[float],
    *,
    t_sim: float = 3000.0,
) -> list[DiagramPoint]:
    """Equilibria plus simulated cycle envelope on a sigma grid.

    The envelope is sought only when the upper coexisting state is
    unstable (between the global bifurcation and the Hopf point); per-sigma
    failures are recorded on the point rather than raised.
    """
    unstable = {Stability.UNSTABLE_FOCUS, Stability.UNSTABLE_NODE}
    out: list[DiagramPoint] = []
    for s in sigmas:
        s = float(s)
        if s <= 0:
            raise ValueError(f"sigma grid must be positive, got {s}")
        ps = p.with_sigma(s)
        try:
            eqs = all_equilibria(ps)
        except ToolkitError as exc:
            out.append(DiagramPoint(sigma=s, equilibria=[], cycle=None, error=str(exc)))
            continue
        cycle = None
        err = None
        e = eqs[-1]  # the upper coexisting state, if there is one
        if e.kind is EquilibriumKind.COEXISTING and e.stability in unstable:
            try:
                tr = integrate_ode((e.u + 0.01, e.v + 0.01), ps, t_sim)
                summary = attractor_summary(tr, transient=0.5 * t_sim)
                if summary.kind is AttractorKind.LIMIT_CYCLE:
                    cycle = (summary.u_min, summary.u_max)
            except ToolkitError as exc:
                err = str(exc)
        out.append(DiagramPoint(sigma=s, equilibria=eqs, cycle=cycle, error=err))
    return out
