"""Method-of-lines simulator for the 1D reaction-diffusion system.

Neumann boundaries are encoded by reflected ghost points on a
vertex-centered grid, which makes the discrete pure-diffusion flow
conserve trapezoid mass exactly. This module owns that discrete Neumann
operator: ``_laplacian_into`` applies it, ``laplacian_bands`` gives its
tridiagonal bands, which the implicit diffusion solves here and the
steady-state Jacobian in :mod:`alleekit.continuation` are built from, and
``neumann_symbol`` gives its eigenvalues: the discrete wavenumbers k at
which :mod:`alleekit.model`'s mode algebra, the blocks J - k*diag(1, d),
applies. ``default_grid_size`` takes the Turing band from there too.
``semidiscrete_rhs`` is the one right-hand side of the discrete system:
continuation solves it for zero and ``run`` samples it. Time stepping is
first-order IMEX (explicit reaction, implicit tridiagonal diffusion) with
a second-order Strang variant. Each stepper evaluates the reaction with
its own :class:`alleekit.model._ArrayKinetics`, sized to the grid once:
the arrays go to buffers the stepper holds, and no finiteness check runs
per stage, since every step checks the state it makes. Both fields diffuse
through one solve: one LDL^T factor holds the prey and the predator block,
and each right-hand side stacks the prey rows over the predator rows.
``ImexStepper.tangent_steps`` carries a tangent through a run of steps
already taken, with the Jacobian entries of all their states from one
kinetics call on a (steps, N) block. ``run`` samples its series with the
same kernel and hands the rates on to the next IMEX step; the sample's
Laplacians and sums go to arrays held for the run, in the order of
operations of ``semidiscrete_rhs``, ``np.trapezoid`` and ``np.var``.
``run``, like :func:`alleekit.diagnostics.largest_lyapunov`, raises
OutOfRange before its first step when it plans more than MAX_STEPS steps.

It also owns both LAPACK factor wrappers: ``_TriFactor`` for the diffusion
solves and ``BandedLU`` (``dgbtrf``, with the determinant sign) for the
Newton matrices of :mod:`alleekit.continuation` and
:mod:`alleekit.collocation`. The Neumann Laplacian is self-adjoint under
the trapezoid weights W = diag(1/2, 1, ..., 1, 1/2), so ``_TriFactor``
factors the symmetric positive-definite W(I - c*Laplacian) of each field,
the blocks of one block-diagonal matrix, as LDL^T (``dpttrf``) and solves
with W b (``dpttrs``). Both wrappers call scipy's f2py extension
``scipy.linalg._flapack``, which ``_load_flapack`` loads straight from its
file: importing ``scipy.linalg`` would first run that package's init,
about 0.25 s per process on a 2-core x86-64 Xeon, which loads
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma`` and no solver used here.
The file is found with ``importlib.util.find_spec("scipy")``, which reads
where scipy lies without running scipy's own init (``scipy._lib``,
``scipy.__config__``). The module is registered under its own name, so a
later ``import scipy.linalg`` reuses it.
"""

from __future__ import annotations

import enum
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .errors import (Inconclusive, NonFinite, OutOfRange, SingularJacobian,
                     ToolkitError)
from .model import (
    KineticParams,
    _ArrayKinetics,
    kinetics,
    kpm_roots,
    upper_axial,
    upper_coexisting,
)

DERIV_TOL = 1e-6
VARIANCE_TOL = 1e-6
# the most time steps a run may plan; more means a step far too small for
# its span, such as a default dt on a vanishing grid spacing
MAX_STEPS = 10 ** 8
# the most nodes a grid may have; a run holds some 400 bytes a node (0.12 GB
# peak at 2e5 nodes in a short simulate run), so this bounds it near 0.4 GB,
# where the default size of a domain far longer than its pattern wavelength
# can ask for gigabytes
MAX_NODES = 10 ** 6

_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    """scipy's f2py LAPACK extension, without scipy.linalg's package init."""
    module = sys.modules.get(_FLAPACK)
    if module is None:
        directory = os.path.join(
            find_spec("scipy").submodule_search_locations[0], "linalg")
        spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)
                          ).find_spec(_FLAPACK)
        if spec is None:
            raise ImportError(
                f"scipy's LAPACK extension _flapack is not in {directory}",
                name=_FLAPACK)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_FLAPACK] = module
    return module


flapack = _load_flapack()


@dataclass(frozen=True)
class Grid:
    """Vertex-centered grid on (0, L): nodes x_i = i*dx, dx = L/(N-1).
    Every Laplacian divides by dx*dx and ``default_dt`` takes dx**2, so
    OutOfRange unless 2**-510 <= dx < 2**511, where both are normal floats,
    and unless N <= MAX_NODES.
    """

    L: float
    N: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError("domain length must be positive and finite")
        if self.N < 16:
            raise ValueError("grid needs at least 16 nodes")
        if not self.N <= MAX_NODES:
            raise OutOfRange(
                f"the grid has {self.N:.3g} nodes at L={self.L:.3g}, more "
                f"than {MAX_NODES:.0e}; set a smaller [grid] n or [spatial] l")
        if not 2.0 ** -510 <= self.dx < 2.0 ** 511:
            raise OutOfRange(
                f"the grid spacing dx={self.dx:.3g} squares out of the float "
                "range, so no [grid] dt can step this grid; set [spatial] l "
                "or [grid] n")

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


def _laplacian_into(w: np.ndarray, dx: float, out: np.ndarray) -> np.ndarray:
    """The second-difference Laplacian of w with reflected (no-flux) end
    rows, written into out, which must not overlap w; each entry is
    (w[i-1] - 2*w[i]) + w[i+1], then divided by dx*dx."""
    inner = out[1:-1]
    np.multiply(w[1:-1], 2.0, out=inner)
    np.subtract(w[:-2], inner, out=inner)
    inner += w[2:]
    out[0] = 2.0 * (w[1] - w[0])
    out[-1] = 2.0 * (w[-2] - w[-1])
    out /= dx * dx
    return out


def laplacian_bands(n: int, dx: float,
                    coef: float = 1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, diag, upper) of coef times the matrix of _laplacian_into.

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


def neumann_symbol(n: int, dx: float) -> np.ndarray:
    """kappa_j = (4/dx^2) sin^2(j pi / (2(n-1))) for j < n.

    With dx = L/(n-1) the sampled cosine cos(j pi x/L) is an exact
    eigenvector of _laplacian_into, doubled end rows included, with
    eigenvalue -kappa_j.
    """
    return (4.0 / (dx * dx)) * np.sin(np.arange(n) * (0.5 * math.pi / (n - 1))) ** 2


def trapezoid_mass(w: np.ndarray, dx: float) -> float:
    """Integral of a nodal profile; the weights annihilate the Laplacian."""
    return float(np.trapezoid(w, dx=dx))


def l2_norm(w: np.ndarray, dx: float) -> float:
    return math.sqrt(trapezoid_mass(np.asarray(w) ** 2, dx))


class _TriFactor:
    """Cached LDL^T factorization (``dpttrf``) of the block-diagonal matrix
    with one block W(I - c*Laplacian) per coefficient c in ``coefs``.

    W = diag(1/2, 1, ..., 1, 1/2) holds the trapezoid weights, under which
    the Neumann Laplacian is self-adjoint: each block is a symmetric
    positive-definite M-matrix with diagonal 1/2 + r, 1 + 2r, ..., 1/2 + r
    and off-diagonal -r, r = c/dx^2. Blocks meet with a zero coupling, so
    the factor and solve of each block's rows are those of the block alone,
    bit for bit. ``solve`` scales b by W (the end rows of every block
    halved, which is exact) into a fresh array and runs ``dpttrs`` on it.
    """

    def __init__(self, n: int, dx: float, *coefs: float):
        d = np.empty(n * len(coefs))
        e = np.zeros(d.size - 1)
        self._w = np.ones(d.size)
        for k, coef in enumerate(coefs):
            first, last = k * n, k * n + n - 1
            _, diag, upper = laplacian_bands(n, dx, coef)
            d[first:last + 1] = 1.0 - diag
            # the end rows' doubled couplings halve to the interior -r
            e[first:last] = -upper
            e[first] *= 0.5
            self._w[[first, last]] = 0.5
        d *= self._w
        self.d, self.e, info = flapack.dpttrf(d, e, overwrite_d=1, overwrite_e=1)
        if info != 0:
            raise NonFinite(f"diffusion matrix factorization failed (info={info})")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with the block-diagonal I - c*Laplacian taking x to b, for a
        column b; b itself is left as it was."""
        x, info = flapack.dpttrs(self.d, self.e, b * self._w, overwrite_b=1)
        if info != 0:
            raise NonFinite(f"tridiagonal solve failed (info={info})")
        return x


class BandedLU:
    """LU factorization of a matrix with ``kl`` sub- and ``ku``
    superdiagonals, given in LAPACK gbtrf layout, with a
    sign-of-determinant."""

    def __init__(self, ab: np.ndarray, kl: int, ku: int):
        self.kl, self.ku = kl, ku
        self.lu, self.ipiv, info = flapack.dgbtrf(ab, kl, ku)
        if info < 0:
            raise ValueError(f"bad argument {-info} to banded factorization")
        self.singular = info > 0

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.singular:
            raise SingularJacobian("banded Jacobian is numerically singular")
        x, info = flapack.dgbtrs(self.lu, self.kl, self.ku, b, self.ipiv)
        if info != 0:
            raise SingularJacobian(f"banded solve failed (info={info})")
        return x

    @property
    def det_sign(self) -> int:
        diag = self.lu[self.kl + self.ku, :]
        if self.singular or (diag == 0.0).any():
            return 0
        neg = int((diag < 0.0).sum())
        # scipy's gbtrf wrapper hands back 0-based pivot indices
        swaps = int((self.ipiv != np.arange(diag.size)).sum())
        return -1 if (neg + swaps) % 2 else 1


def _check_finite(x: np.ndarray, t: float) -> None:
    if not np.isfinite(x).all():
        raise NonFinite(f"state lost finiteness near t={t:.6g}")


def _shifted(base: np.ndarray, h: float, k: np.ndarray, out: np.ndarray) -> np.ndarray:
    """base + h*k, written into out."""
    return np.add(base, np.multiply(k, h, out=out), out=out)


class _Stepper:
    """What both schemes share: the checks, ``_factor``, the one LDL^T
    factor (``dpttrf``, solved by ``dpttrs``) of the block-diagonal matrix
    whose blocks are the W-weighted W(I - c*Laplacian) for c = ``_cu`` =
    _SHARE*dt (prey) and ``_cv`` = _cu*d (predator), and ``_kinetics``, the
    reaction sized to the grid.

    Both fields go through one solve: the right-hand side is the prey rows
    followed by the predator rows, built in ``_b`` (its halves ``_bu`` and
    ``_bv``), and a step returns the two halves of the fresh solve output.
    The reaction and the other work arrays of a step live in buffers the
    stepper holds (``_hold``). The reaction arithmetic runs under
    ``np.errstate(over="ignore", invalid="ignore")``: a diverging state is
    reported by ``_check_finite`` as NonFinite, not as a numpy warning.
    """

    _SHARE = 1.0

    def __init__(self, grid: Grid, p: KineticParams, d: float, dt: float):
        if not (dt > 0 and math.isfinite(dt)):
            raise ValueError("dt must be positive and finite")
        if not (d > 0 and math.isfinite(d)):
            raise ValueError("diffusion ratio d must be positive")
        self.grid = grid
        self.p = p
        self.d = d
        self.dt = dt
        self._cu = self._SHARE * dt
        self._cv = self._SHARE * dt * d
        self._factor = _TriFactor(grid.N, grid.dx, self._cu, self._cv)
        self._kinetics = _ArrayKinetics(p, (grid.N,))
        self._b = np.empty(2 * grid.N)
        self._bu, self._bv = self._b.reshape(2, grid.N)
        self._hold(grid.N)

    def _checked(self, x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """The halves (u, v) of x, a solve output reached at time t."""
        _check_finite(x, t)
        return x[:self.grid.N], x[self.grid.N:]


class ImexStepper(_Stepper):
    """Explicit reaction, implicit diffusion; first order in time.

    The implicit matrices are M-matrices, so diffusion alone preserves
    positivity for any dt; the explicit reaction bounds dt in practice.
    ``tangent_steps`` applies the exact linearization of ``step_arrays``.
    ``include_reaction=False`` makes a step the implicit diffusion alone.
    """

    def __init__(self, grid: Grid, p: KineticParams, d: float, dt: float,
                 *, include_reaction: bool = True):
        super().__init__(grid, p, d, dt)
        self.include_reaction = include_reaction

    def _hold(self, n: int) -> None:
        # the tangent step's products a*w, (2, 2, n), and their row sums
        self._prod = np.empty((2, 2, n))
        self._lin = np.empty(2 * n)
        # the kinetics of tangent_steps, sized to each number of states
        self._blocks: dict[int, _ArrayKinetics] = {}

    def step_arrays(self, u: np.ndarray, v: np.ndarray, t: float,
                    reaction: tuple[np.ndarray, np.ndarray] | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """One step from (u, v) at time t; `reaction` is the rates
        (F1, F2) of the kinetics at (u, v) when the caller has already
        evaluated them."""
        if self.include_reaction:
            with np.errstate(over="ignore", invalid="ignore"):
                f1, f2 = self._kinetics.rates(u, v) if reaction is None else reaction
                _shifted(u, self.dt, f1, self._bu)
                _shifted(v, self.dt, f2, self._bv)
        else:
            np.concatenate((u, v), out=self._b)
        return self._checked(self._factor.solve(self._b), t + self.dt)

    def tangent_steps(self, us: list[np.ndarray], vs: list[np.ndarray],
                      w: np.ndarray) -> np.ndarray:
        """The tangent w, the prey rows followed by the predator rows,
        carried through the steps that ``step_arrays`` takes from the states
        (us[k], vs[k]) in order, by the exact linearization of each step.

        That linearization is w <- solve(w + dt*J_k w), with J_k the
        reaction Jacobian at (us[k], vs[k]), or w <- solve(w) when the
        stepper does not react. The Jacobian entries of all the states come
        from one kinetics call on the (steps, N) block: the arithmetic is
        elementwise, so each entry is that of the call at its own state.
        Returns a fresh array.
        """
        if not self.include_reaction:
            for _ in us:
                w = self._factor.solve(w)
            return w
        n, m, prod, lin = self.grid.N, len(us), self._prod, self._lin
        if m not in self._blocks:
            self._blocks[m] = _ArrayKinetics(self.p, (m, n))
        with np.errstate(over="ignore", invalid="ignore"):
            entries = self._blocks[m].derivatives(np.array(us), np.array(vs))
        # row k is the (2, 2, n) block [[a10, a01], [b10, b01]] of step k
        for a in np.stack(entries, axis=1).reshape(m, 2, 2, n):
            # w + dt*(a10*du + a01*dv) over the prey rows, likewise below
            np.multiply(a, w.reshape(2, n), out=prod)
            np.add(prod[:, 0], prod[:, 1], out=lin.reshape(2, n))
            w = self._factor.solve(_shifted(w, self.dt, lin, lin))
        return w


class StrangStepper(_Stepper):
    """Half-step Crank-Nicolson diffusion, RK4 reaction, half-step again."""

    # Crank-Nicolson over dt/2 shifts by dt/4 on each side
    _SHARE = 0.25

    def _half_diffuse(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Crank-Nicolson over dt/2, (u, v) stacked: each right-hand side
        w + c*Laplacian(w) is built in its half of ``_b``."""
        dx, bu, bv = self.grid.dx, self._bu, self._bv
        _shifted(u, self._cu, _laplacian_into(u, dx, bu), bu)
        _shifted(v, self._cv, _laplacian_into(v, dx, bv), bv)
        return self._factor.solve(self._b)

    def _hold(self, n: int) -> None:
        self._su, self._sv, self._sum_u, self._sum_v, self._tmp = np.empty((5, n))

    def _react(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Classical RK4 over dt, into held buffers: the stage states in
        ``_su``/``_sv`` and k1 + 2*k2 + 2*k3 + k4 in ``_sum_u``/``_sum_v``."""
        dt, rates, tmp = self.dt, self._kinetics.rates, self._tmp
        su, sv, sum_u, sum_v = self._su, self._sv, self._sum_u, self._sum_v
        ku, kv = rates(u, v)
        np.copyto(sum_u, ku)
        np.copyto(sum_v, kv)
        for h in (0.5 * dt, 0.5 * dt):
            ku, kv = rates(_shifted(u, h, ku, su), _shifted(v, h, kv, sv))
            sum_u += np.multiply(ku, 2.0, out=tmp)
            sum_v += np.multiply(kv, 2.0, out=tmp)
        ku, kv = rates(_shifted(u, dt, ku, su), _shifted(v, dt, kv, sv))
        sum_u += ku
        sum_v += kv
        return _shifted(u, dt / 6.0, sum_u, su), _shifted(v, dt / 6.0, sum_v, sv)

    def step_arrays(self, u: np.ndarray, v: np.ndarray, t: float,
                    reaction: tuple[np.ndarray, np.ndarray] | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """One step from (u, v) at time t; `reaction` is ignored, because
        the step reacts at a half-diffused state."""
        x = self._half_diffuse(u, v)
        with np.errstate(over="ignore", invalid="ignore"):
            u, v = self._react(x[:self.grid.N], x[self.grid.N:])
        return self._checked(self._half_diffuse(u, v), t + self.dt)


_SCHEMES = {"imex1": ImexStepper, "strang": StrangStepper}


def default_dt(grid: Grid, d: float) -> float:
    """Splitting-error budget rule; long runs usually override this.
    OutOfRange when the rule underflows to zero."""
    dt = min(0.2 * grid.dx ** 2 / max(1.0, d), 0.05)
    if dt == 0.0:
        raise OutOfRange(f"the default time step underflows at dx={grid.dx:.3g}; "
                         "set [grid] dt")
    return dt


def _check_plan(steps: float, dt: float) -> None:
    """OutOfRange, before the first step, when a run plans more than
    MAX_STEPS steps of dt."""
    if not steps <= MAX_STEPS:
        raise OutOfRange(f"the run plans {steps:.3g} steps of dt={dt:.3g}, "
                         f"more than {MAX_STEPS:.0e}; set a larger [grid] dt")


def default_grid_size(p: KineticParams, d: float, L: float) -> int:
    """At least 4 nodes per expected pattern wavelength, floored hard."""
    n = 0
    try:
        _, kp = kpm_roots(upper_coexisting(p), p, d)
        wavelength = 2.0 * math.pi / math.sqrt(kp)
        n = math.ceil(4.0 * L / wavelength)
    except ToolkitError:
        pass
    floor = 512 if L >= 200 else 128
    return max(n, floor)


class ICKind(enum.Enum):
    PERTURBED_HOMOGENEOUS = "perturbed_homogeneous"
    INVASION_STEP = "invasion_step"
    CENTER_PULSE = "center_pulse"


def make_ic(kind: ICKind | str, grid: Grid, p: KineticParams, *,
            amplitude: float = 1e-2,
            rng: np.random.Generator | None = None) -> Field:
    """Initial-condition constructors anchored at the upper coexisting state.

    The invasion step puts the coexisting state left of x = 200 when that
    lies inside (0, L), else left of L/2, and the prey-only state right of
    it. The center pulse puts the coexisting state on [L/2 - 5, L/2 + 5]
    and zero elsewhere; it raises OutOfRange when L < 10.
    """
    kind = ICKind(kind)
    e = upper_coexisting(p)
    x = grid.x

    if kind is ICKind.INVASION_STEP:
        interface = 200.0 if grid.L > 200.0 else 0.5 * grid.L
        u1 = upper_axial(p).u
        left = x < interface
        u = np.where(left, e.u, u1)
        v = np.where(left, e.v, 0.0)
    else:
        # the coexisting state plus noise inside a window, zero outside; the
        # perturbed homogeneous window is the whole domain
        inside = np.ones(grid.N, dtype=bool)
        if kind is ICKind.CENTER_PULSE:
            a, b = 0.5 * grid.L - 5.0, 0.5 * grid.L + 5.0
            if not (0.0 <= a < b <= grid.L):
                raise OutOfRange(f"pulse window [{a}, {b}] does not fit inside [0, {grid.L}]")
            inside = (x >= a) & (x <= b)
        u = np.zeros(grid.N)
        v = np.zeros(grid.N)
        u[inside], v[inside] = e.u, e.v
        if amplitude != 0.0:
            if rng is None:
                raise ValueError("a seeded generator is required for noisy initial data")
            n_in = int(inside.sum())
            u[inside] += amplitude * rng.standard_normal(n_in)
            v[inside] += amplitude * rng.standard_normal(n_in)

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

    @property
    def final(self) -> Field:
        return Field(self.grid, self.snap_u[-1].copy(), self.snap_v[-1].copy(),
                     float(self.snap_times[-1]))


def semidiscrete_rhs(u: np.ndarray, v: np.ndarray, p: KineticParams, d: float,
                     dx: float, reaction: tuple | None = None,
                     out: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative (du, dv) of the method-of-lines system.

    Its zeros are the discrete steady states that
    :mod:`alleekit.continuation` follows. `reaction` is kinetics(u, v, p)
    when the caller has already evaluated it. `out`, a pair of arrays that
    overlap neither u nor v, receives (du, dv) in place of fresh arrays.
    """
    f1, f2 = kinetics(u, v, p) if reaction is None else reaction
    du, dv = (np.empty_like(u), np.empty_like(v)) if out is None else out
    _laplacian_into(u, dx, du)
    du += f1
    _laplacian_into(v, dx, dv)
    dv *= d
    dv += f2
    return du, dv


def run(f0: Field, p: KineticParams, d: float, T: float,
        recorder: Recorder | None = None, *,
        dt: float, scheme: str = "imex1") -> SpaceTimeRecord:
    """Advance a field to time T under the full reaction-diffusion system,
    recording series samples and snapshots.

    The step is dt shrunk to T / ceil(T / dt), so that whole steps end at T.
    OutOfRange when that plans more than MAX_STEPS steps.
    """
    if not (T > 0 and math.isfinite(T)):
        raise ValueError("T must be positive and finite")
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {sorted(_SCHEMES)}")
    grid = f0.grid
    recorder = recorder or Recorder()

    _check_plan(T / dt, dt)
    n_steps = max(1, math.ceil(T / dt))
    dt = T / n_steps
    stepper = _SCHEMES[scheme](grid, p, d, dt)

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
    # the sample's work arrays, reused by every sample of the run
    rhs_u, rhs_v, work = np.empty((3, grid.N))

    def average(w: np.ndarray) -> float:
        """trapezoid_mass(w, dx) / L, as np.trapezoid sums it."""
        s = np.add(w[1:], w[:-1], out=work[:-1])
        s *= dx
        s /= 2.0
        return float(s.sum()) / grid.L

    def variance(w: np.ndarray) -> float:
        """np.var(w): the squared deviations from the mean, summed."""
        x = np.subtract(w, w.sum() / w.size, out=work)
        return float(np.square(x, out=x).sum() / w.size)

    def sample(tt: float, uu: np.ndarray, vv: np.ndarray):
        """Append a series row at (uu, vv); return the rates there, in the
        stepper's buffers, which an IMEX step from (uu, vv) reuses."""
        # a diverging state can still be finite while its statistics
        # overflow; that is a NonFinite failure, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            reaction = stepper._kinetics.rates(uu, vv)
            du, dv = semidiscrete_rhs(uu, vv, p, d, dx, reaction,
                                      out=(rhs_u, rhs_v))
            row = (tt, average(uu), average(vv), variance(uu),
                   float(np.maximum(np.abs(du, out=du).max(),
                                    np.abs(dv, out=dv).max())))
        if not all(map(math.isfinite, row)):
            raise NonFinite(f"state lost finiteness near t={tt:.6g}")
        samples.append(row)
        return reaction

    def snapshot(tt: float, uu: np.ndarray, vv: np.ndarray) -> None:
        snap_t.append(tt)
        snaps_u.append(uu.copy())
        snaps_v.append(vv.copy())

    reaction = sample(t, u, v)
    snapshot(t, u, v)

    for k in range(1, n_steps + 1):
        u, v = stepper.step_arrays(u, v, t, reaction)
        reaction = None
        t = f0.t + k * dt
        if k % series_stride == 0 or k == n_steps:
            reaction = sample(t, u, v)
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
    )


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
