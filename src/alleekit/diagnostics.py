"""Regime diagnostics: largest Lyapunov exponent of the discretized flow,
dominant temporal period, and island counting for pulse dynamics."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConverged
from .model import KineticParams
from .pde import Field, ImexStepper, SpaceTimeRecord, _dominant_period, default_dt


# growth factors largest_lyapunov needs after its discard window
MIN_RENORMALIZATIONS = 200
# leading fraction of growth factors largest_lyapunov drops while the
# tangent aligns with the leading direction
DISCARD = 0.1


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
    renorm_interval: float


def largest_lyapunov(f0: Field, p: KineticParams, d: float, T: float,
                     renorm_interval: float = 1.0, *,
                     dt: float | None = None,
                     rng: np.random.Generator | None = None) -> LyapunovResult:
    """Benettin-style tangent propagation along the discretized flow.

    The tangent is advanced by ``ImexStepper.tangent_arrays``, the exact
    linearization of the IMEX map (reaction Jacobian explicit, the same
    cached tridiagonal solves implicit), so growth factors measure the
    discrete flow itself rather than a separately discretized variational
    equation. The tangent starts
    as normalized noise and the first DISCARD fraction of growth factors
    is dropped to let it align with the leading direction.

    Raises NotConverged when the running estimate has not settled (standard
    deviation over the last quartile above 20% of the mean magnitude).
    Needs at least MIN_RENORMALIZATIONS renormalizations after the discard
    window.
    """
    if not (T > 0 and math.isfinite(T)):
        raise ValueError("T must be positive and finite")
    if not (renorm_interval > 0 and math.isfinite(renorm_interval)):
        raise ValueError("renorm_interval must be positive and finite")
    grid = f0.grid
    if dt is None:
        dt = default_dt(grid, d)
    steps_per = max(1, round(renorm_interval / dt))
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
    u, v = f0.u.copy(), f0.v.copy()
    du = rng.standard_normal(grid.N)
    dv = rng.standard_normal(grid.N)
    nrm = math.hypot(np.linalg.norm(du), np.linalg.norm(dv))
    du /= nrm
    dv /= nrm

    logs = np.empty(n_renorm)
    t = f0.t
    for k in range(n_renorm):
        for _ in range(steps_per):
            du, dv = stepper.tangent_arrays(u, v, du, dv)
            u, v = stepper.step_arrays(u, v, t)
            t += dt
        g = math.hypot(np.linalg.norm(du), np.linalg.norm(dv))
        if not (g > 0 and math.isfinite(g)):
            raise NotConverged("tangent vector collapsed or blew up")
        logs[k] = math.log(g)
        du /= g
        dv /= g

    kept = logs[n_skip:]
    series = np.cumsum(kept) / (renorm_interval * np.arange(1, kept.size + 1))
    lam = float(series[-1])
    quart = series[-(series.size // 4):]
    if float(np.std(quart)) > 0.2 * abs(float(np.mean(quart))):
        raise NotConverged(
            f"running Lyapunov estimate has not settled (last-quartile std "
            f"{np.std(quart):.2e} vs mean {np.mean(quart):.2e})")
    return LyapunovResult(lambda_max=lam, convergence_series=series,
                          renorm_interval=renorm_interval)


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


def island_count(f: Field | np.ndarray, threshold: float) -> int:
    """Number of maximal contiguous runs with u_i > threshold."""
    if not (threshold > 0 and math.isfinite(threshold)):
        raise ValueError("threshold must be positive and finite")
    u = f.u if isinstance(f, Field) else np.asarray(f, dtype=float)
    above = u > threshold
    if not above.any():
        return 0
    starts = np.count_nonzero(above[1:] & ~above[:-1]) + int(above[0])
    return int(starts)


def island_series(record: SpaceTimeRecord, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """island_count applied to every stored snapshot of a run."""
    counts = np.array([island_count(s, threshold) for s in record.snap_u])
    return record.snap_times.copy(), counts
