"""Method-of-lines simulator for the 1D reaction-diffusion system.

Neumann boundaries are encoded by reflected ghost points on a
vertex-centered grid, which makes the discrete pure-diffusion flow
conserve trapezoid mass exactly. This module owns that discrete Neumann
operator: ``apply_laplacian`` applies it and ``laplacian_bands`` gives its
tridiagonal bands, which the implicit diffusion solves here and the
steady-state Jacobian in :mod:`alleekit.continuation` are built from.
``semidiscrete_rhs`` is the one right-hand side of the discrete system:
continuation solves it for zero and ``run`` samples it. Time stepping is
first-order IMEX (explicit reaction, implicit tridiagonal diffusion) with
a second-order Strang variant.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import (
    BadSupport,
    Inconclusive,
    NoCrossing,
    NonFinite,
    OutOfRange,
)
from .model import (
    KineticParams,
    axial_equilibria,
    coexisting_equilibria,
    jacobian_fields,
    kinetics,
)

DERIV_TOL = 1e-6
VARIANCE_TOL = 1e-6


@dataclass(frozen=True)
class Grid:
    """Vertex-centered grid on (0, L): nodes x_i = i*dx, dx = L/(N-1)."""

    L: float
    N: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError("domain length must be positive and finite")
        if self.N < 16:
            raise ValueError("grid needs at least 16 nodes")

    @property
    def dx(self) -> float:
        return self.L / (self.N - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.N)


@dataclass
class Field:
    """Pair of density profiles on a grid at simulation time t."""

    grid: Grid
    u: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.u.shape != (self.grid.N,) or self.v.shape != (self.grid.N,):
            raise ValueError("field arrays must have one value per grid node")

    def copy(self) -> "Field":
        return Field(self.grid, self.u.copy(), self.v.copy(), self.t)


def apply_laplacian(w: np.ndarray, dx: float) -> np.ndarray:
    """Second-difference Laplacian with reflected (no-flux) end rows."""
    out = np.empty_like(w)
    out[1:-1] = w[:-2] - 2.0 * w[1:-1] + w[2:]
    out[0] = 2.0 * (w[1] - w[0])
    out[-1] = 2.0 * (w[-2] - w[-1])
    out /= dx * dx
    return out


def laplacian_bands(n: int, dx: float,
                    coef: float = 1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, diag, upper) of coef times the matrix of apply_laplacian.

    Row i reads lower[i-1]*w[i-1] + diag[i]*w[i] + upper[i]*w[i+1].
    """
    r = coef / (dx * dx)
    diag = np.full(n, -2.0 * r)
    lower = np.full(n - 1, r)
    upper = np.full(n - 1, r)
    # the reflected ghost doubles the inward coupling at both ends
    upper[0] = 2.0 * r
    lower[-1] = 2.0 * r
    return lower, diag, upper


def trapezoid_mass(w: np.ndarray, dx: float) -> float:
    """Integral of a nodal profile; the weights annihilate the Laplacian."""
    return float(np.trapezoid(w, dx=dx))


def l2_norm(w: np.ndarray, dx: float) -> float:
    return math.sqrt(trapezoid_mass(np.asarray(w) ** 2, dx))


class _TriFactor:
    """Cached LU factorization of I - coef*Laplacian (tridiagonal)."""

    def __init__(self, n: int, dx: float, coef: float):
        lower, diag, upper = laplacian_bands(n, dx, coef)
        self.dl, self.d, self.du, self.du2, self.ipiv, info = lapack.dgttrf(
            -lower, 1.0 - diag, -upper)
        if info != 0:
            raise NonFinite(f"diffusion matrix factorization failed (info={info})")

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, info = lapack.dgttrs(self.dl, self.d, self.du, self.du2, self.ipiv, b)
        if info != 0:
            raise NonFinite(f"tridiagonal solve failed (info={info})")
        return x


def _check_finite(u: np.ndarray, v: np.ndarray, t: float) -> None:
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise NonFinite(f"state lost finiteness near t={t:.6g}")


class ImexStepper:
    """Explicit reaction, implicit diffusion; first order in time.

    The implicit matrices are M-matrices, so diffusion alone preserves
    positivity for any dt; the explicit reaction bounds dt in practice.
    """

    def __init__(self, grid: Grid, p: KineticParams, d: float, dt: float,
                 *, include_reaction: bool = True):
        if not (dt > 0 and math.isfinite(dt)):
            raise ValueError("dt must be positive and finite")
        if not (d > 0 and math.isfinite(d)):
            raise ValueError("diffusion ratio d must be positive")
        self.grid = grid
        self.p = p
        self.d = d
        self.dt = dt
        self.include_reaction = include_reaction
        self._fu = _TriFactor(grid.N, grid.dx, dt)
        self._fv = _TriFactor(grid.N, grid.dx, dt * d)

    def step_arrays(self, u: np.ndarray, v: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        if self.include_reaction:
            f1, f2 = kinetics(u, v, self.p)
            u = u + self.dt * f1
            v = v + self.dt * f2
        un = self._fu.solve(u)
        vn = self._fv.solve(v)
        _check_finite(un, vn, t + self.dt)
        return un, vn

    def tangent_arrays(self, u: np.ndarray, v: np.ndarray, du: np.ndarray,
                       dv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact linearization of step_arrays at (u, v), applied to (du, dv)."""
        if self.include_reaction:
            a10, a01, b10, b01 = jacobian_fields(u, v, self.p)
            du, dv = (du + self.dt * (a10 * du + a01 * dv),
                      dv + self.dt * (b10 * du + b01 * dv))
        return self._fu.solve(du), self._fv.solve(dv)


class StrangStepper:
    """Half-step Crank-Nicolson diffusion, RK4 reaction, half-step again."""

    def __init__(self, grid: Grid, p: KineticParams, d: float, dt: float,
                 *, include_reaction: bool = True):
        if not (dt > 0 and math.isfinite(dt)):
            raise ValueError("dt must be positive and finite")
        if not (d > 0 and math.isfinite(d)):
            raise ValueError("diffusion ratio d must be positive")
        self.grid = grid
        self.p = p
        self.d = d
        self.dt = dt
        self.include_reaction = include_reaction
        # Crank-Nicolson over dt/2 shifts by dt/4 on each side
        self._fu = _TriFactor(grid.N, grid.dx, 0.25 * dt)
        self._fv = _TriFactor(grid.N, grid.dx, 0.25 * dt * d)
        self._cu = 0.25 * dt
        self._cv = 0.25 * dt * d

    def _half_diffuse(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dx = self.grid.dx
        u = self._fu.solve(u + self._cu * apply_laplacian(u, dx))
        v = self._fv.solve(v + self._cv * apply_laplacian(v, dx))
        return u, v

    def _react(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dt = self.dt
        k1u, k1v = kinetics(u, v, self.p)
        k2u, k2v = kinetics(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v, self.p)
        k3u, k3v = kinetics(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v, self.p)
        k4u, k4v = kinetics(u + dt * k3u, v + dt * k3v, self.p)
        un = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        vn = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        return un, vn

    def step_arrays(self, u: np.ndarray, v: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        u, v = self._half_diffuse(u, v)
        if self.include_reaction:
            u, v = self._react(u, v)
        u, v = self._half_diffuse(u, v)
        _check_finite(u, v, t + self.dt)
        return u, v


_SCHEMES = {"imex1": ImexStepper, "strang": StrangStepper}


def make_stepper(grid: Grid, p: KineticParams, d: float, dt: float,
                 *, scheme: str = "imex1", include_reaction: bool = True):
    try:
        cls = _SCHEMES[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {sorted(_SCHEMES)}")
    return cls(grid, p, d, dt, include_reaction=include_reaction)


def default_dt(grid: Grid, d: float) -> float:
    """Splitting-error budget rule; long runs usually override this."""
    return min(0.2 * grid.dx ** 2 / max(1.0, d), 0.05)


def default_grid_size(p: KineticParams, d: float, L: float) -> int:
    """At least 4 nodes per expected pattern wavelength, floored hard."""
    from .errors import DomainError, ToolkitError
    from .linear import kpm_roots

    n = 0
    try:
        coex = coexisting_equilibria(p)
        if coex:
            _, kp = kpm_roots(coex[-1], p, d)
            wavelength = 2.0 * math.pi / math.sqrt(kp)
            n = math.ceil(4.0 * L / wavelength)
    except ToolkitError:
        pass
    floor = 512 if L >= 200 else 128
    return max(n, floor, 16)


class ICKind(enum.Enum):
    PERTURBED_HOMOGENEOUS = "perturbed_homogeneous"
    INVASION_STEP = "invasion_step"
    CENTER_PULSE = "center_pulse"


def make_ic(kind: ICKind | str, grid: Grid, p: KineticParams, *,
            amplitude: float = 1e-2,
            rng: np.random.Generator | None = None,
            interface: float = 200.0,
            window: tuple[float, float] | None = None) -> Field:
    """Initial-condition constructors anchored at the upper coexisting state.

    The center pulse fills `window`, by default the 10 units around L/2.
    """
    kind = ICKind(kind)
    coex = coexisting_equilibria(p)
    if not coex:
        raise OutOfRange("no coexisting state exists for this parameter set")
    e = coex[-1]
    x = grid.x

    if kind is ICKind.PERTURBED_HOMOGENEOUS:
        u = np.full(grid.N, e.u)
        v = np.full(grid.N, e.v)
        if amplitude != 0.0:
            if rng is None:
                raise ValueError("a seeded generator is required for noisy initial data")
            u = u + amplitude * rng.standard_normal(grid.N)
            v = v + amplitude * rng.standard_normal(grid.N)
    elif kind is ICKind.INVASION_STEP:
        if not (0.0 < interface < grid.L):
            raise BadSupport(f"interface {interface} lies outside the domain (0, {grid.L})")
        axial = axial_equilibria(p)
        if not axial:
            raise OutOfRange("no prey-only state exists below the fold")
        u1 = max(a.u for a in axial)
        left = x < interface
        u = np.where(left, e.u, u1)
        v = np.where(left, e.v, 0.0)
    else:
        if window is None:
            window = (0.5 * grid.L - 5.0, 0.5 * grid.L + 5.0)
        a, b = window
        if not (0.0 <= a < b <= grid.L):
            raise BadSupport(f"pulse window [{a}, {b}] does not fit inside [0, {grid.L}]")
        if amplitude != 0.0 and rng is None:
            raise ValueError("a seeded generator is required for noisy initial data")
        inside = (x >= a) & (x <= b)
        u = np.zeros(grid.N)
        v = np.zeros(grid.N)
        n_in = int(inside.sum())
        noise_u = amplitude * rng.standard_normal(n_in) if amplitude != 0.0 else 0.0
        noise_v = amplitude * rng.standard_normal(n_in) if amplitude != 0.0 else 0.0
        u[inside] = e.u + noise_u
        v[inside] = e.v + noise_v

    # densities stay non-negative; the noise amplitude never reaches the mean
    np.clip(u, 0.0, None, out=u)
    np.clip(v, 0.0, None, out=v)
    return Field(grid, u, v, 0.0)


@dataclass(frozen=True)
class Recorder:
    """Sampling cadences for run(); zeros select the automatic defaults."""

    series_every: float = 0.0
    snapshot_every: float = 0.0


@dataclass
class SpaceTimeRecord:
    grid: Grid
    times: np.ndarray
    u_av: np.ndarray
    v_av: np.ndarray
    var_u: np.ndarray
    dudt_sup: np.ndarray
    snap_times: np.ndarray
    snap_u: np.ndarray
    snap_v: np.ndarray
    min_value: float

    @property
    def final(self) -> Field:
        return Field(self.grid, self.snap_u[-1].copy(), self.snap_v[-1].copy(),
                     float(self.snap_times[-1]))


def semidiscrete_rhs(u: np.ndarray, v: np.ndarray, p: KineticParams, d: float,
                     dx: float, include_reaction: bool = True
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative (du, dv) of the method-of-lines system.

    Its zeros are the discrete steady states that
    :mod:`alleekit.continuation` follows.
    """
    if include_reaction:
        f1, f2 = kinetics(u, v, p)
    else:
        f1 = f2 = 0.0
    return apply_laplacian(u, dx) + f1, d * apply_laplacian(v, dx) + f2


def run(f0: Field, p: KineticParams, d: float, T: float,
        recorder: Recorder | None = None, *,
        dt: float | None = None, scheme: str = "imex1",
        include_reaction: bool = True) -> SpaceTimeRecord:
    """Advance a field to time T, recording series samples and snapshots."""
    if not (T > 0 and math.isfinite(T)):
        raise ValueError("T must be positive and finite")
    grid = f0.grid
    if dt is None:
        dt = default_dt(grid, d)
    recorder = recorder or Recorder()

    n_steps = max(1, math.ceil(T / dt))
    dt = T / n_steps
    stepper = make_stepper(grid, p, d, dt, scheme=scheme,
                           include_reaction=include_reaction)

    series_every = recorder.series_every or max(dt, T / 4000.0)
    series_stride = max(1, round(series_every / dt))
    snap_stride = 0
    if recorder.snapshot_every:
        snap_stride = max(1, round(recorder.snapshot_every / dt))

    # one row per series sample: t, mean u, mean v, var u, sup |du/dt|
    samples: list[tuple[float, float, float, float, float]] = []
    snap_t: list[float] = []
    snaps_u: list[np.ndarray] = []
    snaps_v: list[np.ndarray] = []

    u, v = f0.u.copy(), f0.v.copy()
    t = f0.t
    dx = grid.dx
    min_value = float(min(u.min(), v.min()))

    def sample(tt: float, uu: np.ndarray, vv: np.ndarray) -> None:
        # a diverging state can still be finite while its statistics
        # overflow; that is a NonFinite failure, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            du, dv = semidiscrete_rhs(uu, vv, p, d, dx, include_reaction)
            row = (tt, trapezoid_mass(uu, dx) / grid.L,
                   trapezoid_mass(vv, dx) / grid.L, float(np.var(uu)),
                   float(np.maximum(np.abs(du).max(), np.abs(dv).max())))
        if not all(map(math.isfinite, row)):
            raise NonFinite(f"state lost finiteness near t={tt:.6g}")
        samples.append(row)

    def snapshot(tt: float, uu: np.ndarray, vv: np.ndarray) -> None:
        snap_t.append(tt)
        snaps_u.append(uu.copy())
        snaps_v.append(vv.copy())

    sample(t, u, v)
    snapshot(t, u, v)

    for k in range(1, n_steps + 1):
        u, v = stepper.step_arrays(u, v, t)
        t = f0.t + k * dt
        m = float(min(u.min(), v.min()))
        if m < min_value:
            min_value = m
        if k % series_stride == 0 or k == n_steps:
            sample(t, u, v)
        if (snap_stride and k % snap_stride == 0 and k != n_steps):
            snapshot(t, u, v)
    snapshot(t, u, v)

    times, u_av, v_av, var_u, dudt = map(np.asarray, zip(*samples))
    return SpaceTimeRecord(
        grid=grid,
        times=times,
        u_av=u_av,
        v_av=v_av,
        var_u=var_u,
        dudt_sup=dudt,
        snap_times=np.asarray(snap_t),
        snap_u=np.asarray(snaps_u),
        snap_v=np.asarray(snaps_v),
        min_value=min_value,
    )


def front_position(f: Field, level: float) -> float:
    """Leftmost crossing of the prey profile through the level, interpolated."""
    s = f.u - level
    prod = s[:-1] * s[1:]
    hits = np.nonzero(prod <= 0.0)[0]
    if hits.size == 0:
        raise NoCrossing(f"prey profile never crosses level {level}")
    i = int(hits[0])
    if s[i] == 0.0:
        return float(f.grid.x[i])
    return float(f.grid.x[i] + f.grid.dx * s[i] / (s[i] - s[i + 1]))


def measure_front_speed(record: SpaceTimeRecord, level: float,
                        window: tuple[float, float]) -> float:
    """Least-squares slope of front position against time over the window."""
    t_lo, t_hi = window
    mask = (record.snap_times >= t_lo) & (record.snap_times <= t_hi)
    if int(mask.sum()) < 2:
        raise ValueError("front-speed window must contain at least two snapshots")
    ts = record.snap_times[mask]
    xs = []
    for j in np.nonzero(mask)[0]:
        f = Field(record.grid, record.snap_u[j], record.snap_v[j], float(record.snap_times[j]))
        xs.append(front_position(f, level))
    slope = np.polyfit(ts, np.asarray(xs), 1)[0]
    return float(slope)


class AsymptoticKind(enum.Enum):
    HOMOGENEOUS = "Homogeneous"
    STATIONARY_PATTERN = "StationaryPattern"
    OSCILLATORY = "Oscillatory"
    IRREGULAR = "Irregular"


def _dominant_period(t: np.ndarray, x: np.ndarray) -> float | None:
    """Lag of the first strong autocorrelation peak, parabolically refined.

    Each lag is normalized by the energies of the two overlapping segments,
    so a genuinely periodic signal scores near 1 regardless of window length.
    Returns None when no lag beyond the first dip reaches 0.9.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 16:
        return None
    dt_s = (t[-1] - t[0]) / (n - 1)
    if dt_s <= 0:
        return None
    y = x - x.mean()
    energy = float(y @ y)
    if energy <= 0 or not np.isfinite(energy):
        return None
    raw = np.correlate(y, y, mode="full")[n - 1:]
    head = np.concatenate(([0.0], np.cumsum(y * y)))
    kmax = n // 2
    ks = np.arange(kmax)
    denom = np.sqrt(head[n - ks] * (energy - head[ks]))
    corr = raw[:kmax] / np.maximum(denom, 1e-300)
    corr[0] = 1.0
    # demand a real dip first so slow drifts do not fake a peak at tiny lag
    below = np.nonzero(corr < 0.5)[0]
    if below.size == 0:
        return None
    start = int(below[0]) + 1
    for k in range(max(start, 1), kmax - 1):
        if corr[k] >= 0.9 and corr[k] >= corr[k - 1] and corr[k] >= corr[k + 1]:
            c0, c1, c2 = corr[k - 1], corr[k], corr[k + 1]
            den = c0 - 2.0 * c1 + c2
            shift = 0.0 if den == 0 else 0.5 * (c0 - c2) / den
            shift = float(np.clip(shift, -0.5, 0.5))
            return (k + shift) * dt_s
    return None


def classify_asymptotic(record: SpaceTimeRecord, window: float) -> AsymptoticKind:
    """Label the trailing window of a run by its settled behaviour."""
    t = record.times
    if t.size < 16 or (t[-1] - t[0]) < window - 1e-9:
        raise Inconclusive("record is shorter than the requested window")
    mask = t >= t[-1] - window - 1e-9
    if int(mask.sum()) < 16:
        raise Inconclusive("too few series samples inside the window")
    if record.dudt_sup[mask].max() < DERIV_TOL:
        if record.var_u[mask][-1] > VARIANCE_TOL:
            return AsymptoticKind.STATIONARY_PATTERN
        return AsymptoticKind.HOMOGENEOUS
    period = _dominant_period(t[mask], record.u_av[mask])
    if period is not None:
        return AsymptoticKind.OSCILLATORY
    return AsymptoticKind.IRREGULAR
