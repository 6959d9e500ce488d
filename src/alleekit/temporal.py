"""Time integration of the planar kinetics and attractor characterization.

The integrator is scipy's RK45 (Dormand-Prince embedded 5(4) pair); the
kinetics are non-stiff, so the adaptive pair with relative tolerance 1e-8
is the default. Everything downstream works on densely sampled
:class:`Trajectory` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    BracketInvalid,
    Inconclusive,
    NonFinite,
    StepSizeUnderflow,
    ToolkitError,
)
from .model import (
    EquilibriumKind,
    KineticParams,
    Stability,
    all_equilibria,
    coexisting_equilibria,
    kinetics,
)

__all__ = [
    "Terminal",
    "Trajectory",
    "AttractorKind",
    "AttractorSummary",
    "DiagramPoint",
    "integrate_ode",
    "attractor_summary",
    "heteroclinic_threshold",
    "bifurcation_diagram",
]

EXTINCTION_LEVEL = 1e-6
DIVERGENCE_LEVEL = 1e3


class Terminal(Enum):
    REACHED_T = "ReachedT"
    CONVERGED_TO_POINT = "ConvergedToPoint"
    DIVERGED = "Diverged"


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (n, 2), columns u, v
    terminal: Terminal

    @property
    def u(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def v(self) -> np.ndarray:
        return self.states[:, 1]


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


def integrate_ode(
    ic: tuple[float, float],
    p: KineticParams,
    T: float,
    tol: float = 1e-8,
    *,
    sample_times: Sequence[float] | None = None,
) -> Trajectory:
    """Integrate the kinetics from ``ic`` for ``T`` time units.

    Stops early (terminal ConvergedToPoint) once max(u, v) falls below
    1e-6: from there the origin absorbs the orbit, since the prey growth
    term is quadratic at low density. Diverged is flagged at 1e3, which the
    bounded kinetics never reach from valid states. States that undershoot
    zero by less than ``tol`` are clipped to 0; a worse undershoot is an
    integration failure.
    """
    u0, v0 = float(ic[0]), float(ic[1])
    if not (math.isfinite(u0) and math.isfinite(v0)):
        raise NonFinite(f"initial condition must be finite, got {ic}")
    if u0 < 0 or v0 < 0:
        raise ValueError(f"initial condition must be non-negative, got {ic}")
    if not (1e-12 <= tol <= 1e-3):
        raise ValueError(f"tol must lie in [1e-12, 1e-3], got {tol}")
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")

    if sample_times is None:
        dt_out = max(min(0.25, T / 1000.0), T / 200000.0)
        n_out = int(round(T / dt_out))
        t_eval = np.linspace(0.0, T, n_out + 1)
    else:
        t_eval = np.asarray(sample_times, dtype=float)
        if t_eval.ndim != 1 or t_eval.size < 2 or np.any(np.diff(t_eval) <= 0):
            raise ValueError("sample_times must be a strictly increasing 1-D grid")

    def rhs(_t: float, y: np.ndarray):
        return kinetics(float(y[0]), float(y[1]), p)

    def ext_event(_t: float, y: np.ndarray) -> float:
        return max(y[0], y[1]) - EXTINCTION_LEVEL

    ext_event.terminal = True
    ext_event.direction = -1.0

    def div_event(_t: float, y: np.ndarray) -> float:
        return max(abs(y[0]), abs(y[1])) - DIVERGENCE_LEVEL

    div_event.terminal = True
    div_event.direction = 1.0

    sol = solve_ivp(
        rhs,
        (0.0, T),
        [u0, v0],
        method="RK45",
        rtol=tol,
        atol=tol * 1e-2,
        t_eval=t_eval,
        events=(ext_event, div_event),
    )
    if sol.status == -1:
        raise StepSizeUnderflow(f"integrator failed at t={sol.t[-1] if sol.t.size else 0}: {sol.message}")

    times = sol.t
    states = sol.y.T.copy()
    if sol.status == 1 and sol.t_events is not None:
        # Append the event state so the trajectory ends where it stopped.
        for ev_t, ev_y in zip(sol.t_events, sol.y_events):
            if len(ev_t):
                if times.size == 0 or ev_t[-1] > times[-1]:
                    times = np.append(times, ev_t[-1])
                    states = np.vstack([states, ev_y[-1]])

    if not np.all(np.isfinite(states)):
        raise NonFinite("integration produced non-finite states")
    low = states.min()
    if low < -tol:
        raise NonFinite(f"positivity lost: state component reached {low:.3g} < -tol")
    np.clip(states, 0.0, None, out=states)

    if sol.status == 1 and len(sol.t_events[1]):
        terminal = Terminal.DIVERGED
    elif sol.status == 1:
        terminal = Terminal.CONVERGED_TO_POINT
    else:
        terminal = Terminal.REACHED_T
        f1, f2 = kinetics(float(states[-1, 0]), float(states[-1, 1]), p)
        if math.hypot(f1, f2) < 1e-9:
            tail = states[times >= times[-1] - 0.05 * T]
            if tail.size and np.abs(tail - states[-1]).max() < 1e-7:
                terminal = Terminal.CONVERGED_TO_POINT
    return Trajectory(times=times, states=states, terminal=terminal)


def _refined_peaks(t: np.ndarray, x: np.ndarray) -> list[float]:
    """Times of interior local maxima, refined by a 3-point parabola."""
    peaks = []
    for i in range(1, len(x) - 1):
        if x[i] >= x[i - 1] and x[i] >= x[i + 1] and (x[i] > x[i - 1] or x[i] > x[i + 1]):
            denom = x[i - 1] - 2.0 * x[i] + x[i + 1]
            if denom < 0:
                delta = 0.5 * (x[i - 1] - x[i + 1]) / denom
                dt_l = t[i] - t[i - 1]
                peaks.append(float(t[i] + delta * dt_l))
            else:
                peaks.append(float(t[i]))
    return peaks


def attractor_summary(tr: Trajectory, transient: float) -> AttractorSummary:
    """Classify the tail of a trajectory after discarding ``transient``.

    Extinction: both components end below 1e-8. LimitCycle: relative
    peak-to-peak amplitude of u above 1e-4 with consistent inter-peak
    intervals (CV < 0.02). FixedPoint: amplitude at or below 1e-4.
    Anything in between raises Inconclusive.
    """
    mask = tr.times >= transient
    if mask.sum() < 10:
        raise Inconclusive(
            f"only {int(mask.sum())} samples after transient={transient}; need more"
        )
    t = tr.times[mask]
    u = tr.states[mask, 0]
    v = tr.states[mask, 1]

    # Either the tail itself is at the origin, or the integrator already
    # stopped at its (coarser) extinction level on the way there.
    stopped_at_origin = (
        tr.terminal is Terminal.CONVERGED_TO_POINT
        and max(tr.states[-1]) < 1.01 * EXTINCTION_LEVEL
    )
    if max(u[-1], v[-1]) < 1e-8 or stopped_at_origin:
        return AttractorSummary(
            kind=AttractorKind.EXTINCTION, u_min=float(u.min()), u_max=float(u.max())
        )

    umin, umax = float(u.min()), float(u.max())
    mean = abs(float(u.mean()))
    rel_amp = (umax - umin) / max(mean, 1e-300)
    if rel_amp <= 1e-4:
        final = float(u[-1])
        return AttractorSummary(kind=AttractorKind.FIXED_POINT, u_min=final, u_max=final)

    peaks = _refined_peaks(t, u)
    if len(peaks) < 3:
        raise Inconclusive(
            f"oscillation with only {len(peaks)} peaks after the transient; "
            "integrate longer to classify"
        )
    intervals = np.diff(peaks)
    cv = float(intervals.std() / intervals.mean())
    if cv >= 0.02:
        raise Inconclusive(
            f"inter-peak intervals vary too much (CV={cv:.3f}) for a limit cycle"
        )
    return AttractorSummary(
        kind=AttractorKind.LIMIT_CYCLE,
        u_min=umin,
        u_max=umax,
        period=float(intervals.mean()),
    )


def _is_cycle_side(p: KineticParams) -> bool:
    """True when the orbit from E*(sigma) + (0.01, 0.01) holds a limit
    cycle, False when it goes extinct.

    Integrates in growing chunks so the extinction side exits early; if the
    time ceiling of 5e4 passes with no extinction, the orbit counts as
    cycle-side (documented finite-T proxy: periods diverge at the global
    bifurcation).
    """
    eqs = coexisting_equilibria(p)
    if not eqs:
        raise BracketInvalid(
            f"no coexisting equilibrium at sigma={p.sigma}; bracket must "
            "stay inside the coexistence range"
        )
    state = (eqs[-1].u + 0.01, eqs[-1].v + 0.01)
    t_ceiling = 5e4
    used = 0.0
    chunk = 2500.0
    while used < t_ceiling:
        span = min(chunk, t_ceiling - used)
        tr = integrate_ode(state, p, span)
        used += tr.times[-1]
        final = tr.states[-1]
        if tr.terminal is Terminal.CONVERGED_TO_POINT and max(final) < 1e-4:
            return False
        try:
            summary = attractor_summary(tr, transient=0.5 * span)
        except Inconclusive:
            state = (float(final[0]), float(final[1]))
            chunk = min(chunk * 2.0, 20000.0)
            continue
        if summary.kind is AttractorKind.EXTINCTION:
            return False
        if summary.kind is AttractorKind.LIMIT_CYCLE:
            return True
        # A FixedPoint here would mean a stable interior state inside the
        # bracket, which breaks the cycle-vs-extinction dichotomy.
        raise Inconclusive(
            "orbit settled on a fixed point inside the bisection bracket; "
            "the cycle-vs-extinction predicate does not apply"
        )
    return True


def heteroclinic_threshold(p: KineticParams, bracket: tuple[float, float]) -> float:
    """sigma at which the stable cycle is destroyed globally.

    Bisection on the cycle-vs-extinction predicate, to a bracket width of
    1e-4. Each orbit is seeded at E*(sigma) + (0.01, 0.01).
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bracket must be increasing, got {bracket}")

    side_lo = _is_cycle_side(p.with_sigma(lo))
    side_hi = _is_cycle_side(p.with_sigma(hi))
    if side_lo == side_hi:
        kind = "cycle" if side_lo else "extinction"
        raise BracketInvalid(
            f"both bracket endpoints classify as {kind}; no threshold inside "
            f"[{lo}, {hi}]"
        )
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if _is_cycle_side(p.with_sigma(mid)) == side_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
        coex = [e for e in eqs if e.kind is EquilibriumKind.COEXISTING]
        if coex and coex[-1].stability in unstable:
            e = coex[-1]
            try:
                tr = integrate_ode((e.u + 0.01, e.v + 0.01), ps, t_sim)
                summary = attractor_summary(tr, transient=0.5 * t_sim)
                if summary.kind is AttractorKind.LIMIT_CYCLE:
                    cycle = (summary.u_min, summary.u_max)
            except ToolkitError as exc:
                err = str(exc)
        out.append(DiagramPoint(sigma=s, equilibria=eqs, cycle=cycle, error=err))
    return out
