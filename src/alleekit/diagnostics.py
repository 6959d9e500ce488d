"""Regime diagnostics: largest Lyapunov exponent of the discretized flow,
dominant temporal period, and island counting for pulse dynamics.

The Lyapunov exponent follows Benettin et al. (Meccanica 15 (1980) 9): a
tangent carried by the linearized IMEX map and renormalized at a fixed
interval, with the Jacobians of each interval's states from one kinetics
call.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .model import KineticParams
from .pde import (Field, ImexStepper, SpaceTimeRecord, _check_plan,
                  _dominant_period)


# growth factors largest_lyapunov needs after its discard window
MIN_RENORMALIZATIONS = 200
# leading fraction of growth factors largest_lyapunov drops while the
# tangent aligns with the leading direction
DISCARD = 0.1
# nodal values (2N per state) of the states largest_lyapunov holds at once;
# a renormalization interval of more steps is linearized in runs of as many
# whole states as fit, and at least one
STORED_VALUES = 2 ** 14


def kept_renormalizations(T: float, renorm_interval: float) -> int:
    """Growth factors largest_lyapunov keeps after dropping the first
    DISCARD fraction of the ceil(T / renorm_interval) it takes."""
    n_renorm = math.ceil(T / renorm_interval)
    return n_renorm - math.ceil(DISCARD * n_renorm)


@dataclass(frozen=True)
class LyapunovResult:
    """Largest Lyapunov exponent with its running-estimate history."""

    lambda_max: float
    convergence_series: np.ndarray


def largest_lyapunov(f0: Field, p: KineticParams, d: float, T: float,
                     renorm_interval: float = 1.0, *, dt: float,
                     rng: np.random.Generator | None = None) -> LyapunovResult:
    """Benettin-style tangent propagation along the discretized flow.

    The state never depends on the tangent, so each renormalization
    interval takes two passes. ``ImexStepper.step_arrays`` takes the state
    through the interval and keeps the state each step starts from; an
    interval whose states hold more than STORED_VALUES nodal values takes
    the two passes in runs. ``ImexStepper.tangent_steps`` then carries the
    tangent through the same steps by the exact linearization of the IMEX
    map (reaction Jacobian explicit, the same cached tridiagonal solve
    implicit), with the Jacobian entries of all those states from one
    kinetics call. So growth factors measure the discrete flow itself
    rather than a separately discretized variational equation. The tangent
    starts as normalized noise and the first DISCARD fraction of growth
    factors is dropped to let it align with the leading direction. The
    step is dt shrunk to renorm_interval / ceil(renorm_interval / dt), so
    that whole steps end each interval, as ``pde.run`` does for T, and
    OutOfRange is raised when the run plans more than ``pde.MAX_STEPS``
    steps, as there.

    Raises NoConvergence when the running estimate has not settled (standard
    deviation over the last quartile above 20% of the mean magnitude).
    Needs at least MIN_RENORMALIZATIONS renormalizations after the discard
    window.
    """
    if not (T > 0 and math.isfinite(T)):
        raise ValueError("T must be positive and finite")
    if not (renorm_interval > 0 and math.isfinite(renorm_interval)):
        raise ValueError("renorm_interval must be positive and finite")
    # the intervals times the steps per interval, before either is rounded up
    _check_plan(T / renorm_interval * max(1.0, renorm_interval / dt), dt)
    grid = f0.grid
    steps_per = max(1, math.ceil(renorm_interval / dt))
    dt = renorm_interval / steps_per
    n_renorm = math.ceil(T / renorm_interval)
    n_kept = kept_renormalizations(T, renorm_interval)
    n_skip = n_renorm - n_kept
    if n_kept < MIN_RENORMALIZATIONS:
        raise ValueError(
            f"T={T} allows only {n_kept} renormalizations after "
            f"the transient; need at least {MIN_RENORMALIZATIONS}")
    rng = rng or np.random.default_rng(0)

    stepper = ImexStepper(grid, p, d, dt)
    n = grid.N
    u, v = f0.u.copy(), f0.v.copy()
    # the tangent (du, dv), stacked as tangent_steps takes it
    w = rng.standard_normal(2 * n)
    w /= math.hypot(np.linalg.norm(w[:n]), np.linalg.norm(w[n:]))
    per_run = max(1, STORED_VALUES // (2 * n))
    runs = [min(per_run, steps_per - i) for i in range(0, steps_per, per_run)]

    logs = np.empty(n_renorm)
    t = f0.t
    for k in range(n_renorm):
        for m in runs:
            us, vs = [], []
            for _ in range(m):
                us.append(u)
                vs.append(v)
                u, v = stepper.step_arrays(u, v, t)
                t += dt
            w = stepper.tangent_steps(us, vs, w)
        g = math.hypot(np.linalg.norm(w[:n]), np.linalg.norm(w[n:]))
        if not (g > 0 and math.isfinite(g)):
            raise NoConvergence("tangent vector collapsed or blew up")
        logs[k] = math.log(g)
        w /= g

    kept = logs[n_skip:]
    series = np.cumsum(kept) / (renorm_interval * np.arange(1, kept.size + 1))
    lam = float(series[-1])
    quart = series[-(series.size // 4):]
    if float(np.std(quart)) > 0.2 * abs(float(np.mean(quart))):
        raise NoConvergence(
            f"running Lyapunov estimate has not settled (last-quartile std "
            f"{np.std(quart):.2e} vs mean {np.mean(quart):.2e})")
    return LyapunovResult(lambda_max=lam, convergence_series=series)


def dominant_period(times: np.ndarray, values: np.ndarray, *,
                    window: float | None = None) -> float | None:
    """Autocorrelation-peak period of a scalar series; None when the best
    off-zero peak stays below 0.9.

    `window` restricts the search to the trailing span of that length; it
    should cover at least three candidate periods.
    """
    t = np.asarray(times, dtype=float)
    x = np.asarray(values, dtype=float)
    if t.shape != x.shape or t.ndim != 1:
        raise ValueError("times and values must be 1D arrays of equal length")
    if window is not None:
        keep = t >= t[-1] - window
        t, x = t[keep], x[keep]
    return _dominant_period(t, x)


def island_count(u: np.ndarray, threshold: float) -> int:
    """Number of maximal contiguous runs with u_i > threshold in the prey
    profile u; 0 when no node is above it."""
    if not (threshold > 0 and math.isfinite(threshold)):
        raise ValueError("threshold must be positive and finite")
    above = np.asarray(u, dtype=float) > threshold
    # a run starts at node 0 or where the profile rises through the
    # threshold; above[:1] keeps an empty profile at 0 runs
    return int(np.count_nonzero(above[:1])
               + np.count_nonzero(above[1:] & ~above[:-1]))


def island_series(record: SpaceTimeRecord, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """island_count applied to every stored snapshot of a run."""
    counts = np.array([island_count(s, threshold) for s in record.snap_u])
    return record.snap_times.copy(), counts
