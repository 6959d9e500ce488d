"""Pseudo-arclength continuation of discretized steady states.

Unknowns are interleaved (u0, v0, u1, v1, ...) so the steady-state
Jacobian is banded with two sub- and two superdiagonals; one LAPACK
banded LU serves the Newton corrector, the extended-system determinant
sign used for branch-point detection, and the shifted inverse iteration
behind linear stability. The residual is the PDE stepper's own
right-hand side (``semidiscrete_rhs`` in :mod:`alleekit.pde`) and the
Jacobian's diffusion rows come from its ``laplacian_bands``, so the steady
states here are exactly those of the PDE stepper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

from .errors import (
    EigSolverStall,
    FellBackToParent,
    KernelNotFound,
    NoConvergence,
    NonFinite,
    OutOfRange,
    SingularJacobian,
    StepSizeUnderflow,
)
from .model import KineticParams, jacobian_fields
from .pde import Grid, l2_norm, laplacian_bands, semidiscrete_rhs

KL = 2
KU = 2
# solution_stability inverts J - STABILITY_SHIFT*I and counts eigenvalues
# with real part above UNSTABLE_TOL as unstable
STABILITY_SHIFT = 0.13
UNSTABLE_TOL = 1e-8
# max-norm residual at which Newton, the arclength corrector, event
# refinement and branch switching accept a point
NEWTON_TOL = 1e-10


@dataclass(frozen=True)
class SteadyProblem:
    """Discrete steady-state problem on a grid; sigma is the free parameter."""

    grid: Grid
    p: KineticParams
    d: float

    def __post_init__(self) -> None:
        if not (self.d > 0 and math.isfinite(self.d)):
            raise ValueError("diffusion ratio d must be positive")

    @property
    def n_unknowns(self) -> int:
        return 2 * self.grid.N


def interleave(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    x = np.empty(2 * u.size)
    x[0::2] = u
    x[1::2] = v
    return x


def split_fields(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return x[0::2], x[1::2]


def _wdot(a: np.ndarray, b: np.ndarray) -> float:
    # mesh-independent inner product on the state part
    return float(a @ b) / a.size


def residual(x: np.ndarray, sigma: float, prob: SteadyProblem) -> np.ndarray:
    """Semi-discrete time derivative; zero exactly at steady states."""
    u, v = split_fields(x)
    return interleave(*semidiscrete_rhs(u, v, prob.p.with_sigma(sigma), prob.d,
                                        prob.grid.dx))


def sigma_derivative(x: np.ndarray, prob: SteadyProblem) -> np.ndarray:
    """d(residual)/d(sigma): the growth term u^2(1-u) on prey rows."""
    u, _ = split_fields(x)
    fs = np.zeros_like(x)
    fs[0::2] = u * u * (1.0 - u)
    return fs


def jacobian_banded(x: np.ndarray, sigma: float, prob: SteadyProblem) -> np.ndarray:
    """Banded Jacobian in LAPACK gbtrf layout, shape (2*KL+KU+1, 2N)."""
    n = prob.grid.N
    u, v = split_fields(x)
    p = prob.p.with_sigma(sigma)
    a10, a01, b10, b01 = jacobian_fields(u, v, p)
    lo_u, dg_u, up_u = laplacian_bands(n, prob.grid.dx)
    lo_v, dg_v, up_v = laplacian_bands(n, prob.grid.dx, prob.d)

    ab = np.zeros((2 * KL + KU + 1, 2 * n))
    # A[i, j] lives at ab[KL + KU + i - j, j]; neighbouring nodes sit two
    # unknowns apart, so the Laplacian's off-diagonals land in rows 2 and 6
    ab[4, 0::2] = dg_u + a10
    ab[4, 1::2] = dg_v + b01
    ab[3, 1::2] = a01
    ab[5, 0::2] = b10
    ab[2, 2::2] = up_u
    ab[2, 3::2] = up_v
    ab[6, 0:2 * n - 2:2] = lo_u
    ab[6, 1:2 * n - 1:2] = lo_v
    return ab


class BandedLU:
    """LU factorization of a banded matrix with a sign-of-determinant."""

    def __init__(self, ab: np.ndarray):
        self.lu, self.ipiv, info = lapack.dgbtrf(ab, KL, KU)
        if info < 0:
            raise ValueError(f"bad argument {-info} to banded factorization")
        self.singular = info > 0

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.singular:
            raise SingularJacobian("banded Jacobian is numerically singular")
        x, info = lapack.dgbtrs(self.lu, KL, KU, b, self.ipiv)
        if info != 0:
            raise SingularJacobian(f"banded solve failed (info={info})")
        return x

    @property
    def det_sign(self) -> int:
        diag = self.lu[KL + KU, :]
        if self.singular or (diag == 0.0).any():
            return 0
        neg = int((diag < 0.0).sum())
        # scipy's gbtrf wrapper hands back 0-based pivot indices
        swaps = int((self.ipiv != np.arange(diag.size)).sum())
        return -1 if (neg + swaps) % 2 else 1


def _factor(x: np.ndarray, sigma: float, prob: SteadyProblem) -> BandedLU:
    return BandedLU(jacobian_banded(x, sigma, prob))


def newton_correct(x0: np.ndarray, sigma: float, prob: SteadyProblem) -> np.ndarray:
    """Damped Newton at fixed sigma, at most 25 iterations; max-norm
    residual below NEWTON_TOL on return."""
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (prob.n_unknowns,):
        raise ValueError("solution vector has the wrong length")
    r = residual(x, sigma, prob)
    rn = float(np.abs(r).max())
    for _ in range(25):
        if rn < NEWTON_TOL:
            return x
        lu = _factor(x, sigma, prob)
        if lu.singular:
            raise SingularJacobian("Newton hit a singular Jacobian")
        dx = lu.solve(-r)
        lam = 1.0
        while True:
            xt = x + lam * dx
            try:
                rt = residual(xt, sigma, prob)
                rtn = float(np.abs(rt).max())
            except NonFinite:
                rtn = math.inf
            if math.isfinite(rtn) and (rtn < (1.0 - 0.25 * lam) * rn or rtn < NEWTON_TOL):
                break
            lam *= 0.5
            if lam < 1.0 / 64.0:
                raise NoConvergence("Newton line search stalled")
        x, r, rn = xt, rt, rtn
    if rn < NEWTON_TOL:
        return x
    raise NoConvergence(f"Newton residual {rn:.3e} after 25 iterations")


@dataclass
class Tangent:
    x: np.ndarray
    sigma: float

    def dot(self, dx: np.ndarray, dsigma: float) -> float:
        return _wdot(self.x, dx) + self.sigma * dsigma


def tangent_at(x: np.ndarray, sigma: float, prob: SteadyProblem,
               prev: Tangent | None = None) -> Tangent:
    """Unit tangent of the solution curve in the weighted metric."""
    lu = _factor(x, sigma, prob)
    w = lu.solve(-sigma_derivative(x, prob))
    nrm = math.sqrt(_wdot(w, w) + 1.0)
    tau = Tangent(w / nrm, 1.0 / nrm)
    if prev is not None and prev.dot(tau.x, tau.sigma) < 0.0:
        tau = Tangent(-tau.x, -tau.sigma)
    return tau


def _arclength_correct(x_pred, sigma_pred, x0, sigma0, tau: Tangent, ds, prob):
    x = x_pred.copy()
    sig = sigma_pred
    for it in range(10):
        try:
            r = residual(x, sig, prob)
        except NonFinite:
            raise NoConvergence("corrector left the finite region")
        con = _wdot(tau.x, x - x0) + tau.sigma * (sig - sigma0) - ds
        rn = max(float(np.abs(r).max()), abs(con))
        if rn < NEWTON_TOL:
            return x, sig, it
        lu = _factor(x, sig, prob)
        fs = sigma_derivative(x, prob)
        a = lu.solve(-r)
        b = lu.solve(fs)
        denom = tau.sigma - _wdot(tau.x, b)
        if abs(denom) < 1e-14:
            raise SingularJacobian("degenerate arclength system")
        dsig = -(con + _wdot(tau.x, a)) / denom
        x = x + (a - dsig * b)
        sig = sig + dsig
        if not (math.isfinite(sig) and np.isfinite(x).all()):
            raise NoConvergence("corrector diverged")
    raise NoConvergence("arclength corrector exhausted its iterations")


@dataclass
class BranchPoint:
    index: int
    sigma: float
    x: np.ndarray
    l2norm_u: float
    n_unstable: int | None
    tags: set[str] = field(default_factory=set)


@dataclass
class Branch:
    prob: SteadyProblem
    points: list[BranchPoint] = field(default_factory=list)
    tangent: Tangent | None = None

    def tagged(self, tag: str) -> list[BranchPoint]:
        return [pt for pt in self.points if tag in pt.tags]

    @property
    def sigmas(self) -> np.ndarray:
        return np.asarray([pt.sigma for pt in self.points])

    @property
    def norms(self) -> np.ndarray:
        return np.asarray([pt.l2norm_u for pt in self.points])


def _bendixson_caps(x: np.ndarray, sigma: float, prob: SteadyProblem) -> tuple[float, float]:
    """Upper bounds for Re(lam) and |Im(lam)| of the linearization.

    The diffusion part is self-adjoint (negative) in the trapezoid metric,
    so both caps come from the pointwise 2x2 kinetic blocks: Re from the
    largest eigenvalue of the symmetric part, Im from the skew part.
    """
    u, v = split_fields(x)
    p = prob.p.with_sigma(sigma)
    a10, a01, b10, b01 = jacobian_fields(u, v, p)
    half_sum = 0.5 * (a10 + b01)
    half_diff = 0.5 * (a10 - b01)
    off_sym = 0.5 * (a01 + b10)
    re_cap = float(np.max(half_sum + np.sqrt(half_diff * half_diff + off_sym * off_sym)))
    im_cap = float(np.max(0.5 * np.abs(a01 - b10)))
    return re_cap, im_cap


def solution_stability(x: np.ndarray, sigma: float, prob: SteadyProblem,
                       n_eigs: int = 32) -> tuple[int, np.ndarray]:
    """Leading spectrum of the linearized evolution operator.

    One certified path at every grid size, with no dense fallback:
    shift-inverted Arnoldi on the banded LU of J - STABILITY_SHIFT*I finds
    the k eigenvalues nearest the shift, starting from k = n_eigs (at
    least 8), and k is grown until the covered disk provably contains the
    whole Bendixson box of possible unstable eigenvalues, so the unstable
    count is certified, not sampled. Returns that count and the k
    eigenvalues, by decreasing real part.
    """
    n = prob.n_unknowns
    ab = jacobian_banded(x, sigma, prob)
    re_cap, im_cap = _bendixson_caps(x, sigma, prob)
    s = STABILITY_SHIFT
    r_req = math.hypot(max(s, re_cap - s), im_cap)

    for _ in range(4):
        shifted = ab.copy()
        shifted[KL + KU, :] -= s
        lu = BandedLU(shifted)
        if not lu.singular:
            break
        s *= 1.37  # a pivot collision means the shift hit an eigenvalue
    else:
        raise EigSolverStall("no usable shift for inverse iteration")

    op = LinearOperator((n, n), matvec=lu.solve, dtype=float)
    k = min(max(8, n_eigs), n - 2)
    k_cap = min(n - 2, max(192, k))
    while True:
        try:
            mu = eigs(op, k=k, which="LM", return_eigenvectors=False,
                      maxiter=max(300, 20 * k))
        except ArpackNoConvergence:
            try:
                mu = eigs(op, k=k, ncv=min(n, 4 * k + 1), which="LM",
                          return_eigenvectors=False, maxiter=max(600, 40 * k))
            except ArpackNoConvergence as exc:
                raise EigSolverStall(f"eigensolver stalled: {exc}") from exc
        lam = s + 1.0 / mu
        if np.abs(lam - s).max() >= r_req or k >= k_cap:
            break
        k = min(2 * k, k_cap)
    if np.abs(lam - s).max() < r_req:
        raise EigSolverStall(
            "could not cover the unstable region "
            f"(needed radius {r_req:.3g} around {s:.3g})")

    lam = lam[np.argsort(-lam.real)]
    n_unstable = int((lam.real > UNSTABLE_TOL).sum())
    return n_unstable, lam


def _make_point(index, x, sigma, prob, tags, stability):
    u, _ = split_fields(x)
    n_un = None
    if stability:
        n_un, _ = solution_stability(x, sigma, prob, n_eigs=24)
    return BranchPoint(index, sigma, x.copy(), l2_norm(u, prob.grid.dx), n_un,
                       set(tags))


def _refine_event(x0, sigma0, tau, ds_hi, prob, sign_lo, which):
    """Bisect the arclength step until the flagged sign flip is localized
    to 1e-7 in sigma.

    which = "fold" brackets the sign of tau_sigma, "bp" the extended
    determinant sign. Returns the corrected event point.
    """
    lo = 0.0
    hi = ds_hi
    x_ev, sig_ev = None, None
    sig_lo_val, sig_hi_val = sigma0, None
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if mid <= 0.0 or hi - lo < 1e-12:
            break
        try:
            xm, sm, _ = _arclength_correct(
                x0 + mid * tau.x, sigma0 + mid * tau.sigma,
                x0, sigma0, tau, mid, prob)
        except (NoConvergence, SingularJacobian):
            hi = mid  # treat failures as the far side; shrink toward x0
            continue
        if which == "fold":
            tau_m = tangent_at(xm, sm, prob, prev=tau)
            s_m = 1 if tau_m.sigma > 0 else -1 if tau_m.sigma < 0 else 0
        else:
            s_m = _factor(xm, sm, prob).det_sign
        if s_m == sign_lo and s_m != 0:
            lo, sig_lo_val = mid, sm
        else:
            hi, sig_hi_val = mid, sm
            x_ev, sig_ev = xm, sm
        if sig_hi_val is not None and abs(sig_hi_val - sig_lo_val) < 1e-7:
            break
    if x_ev is None:
        return None
    return x_ev, sig_ev


def continue_branch(x_start: np.ndarray, sigma_start: float, prob: SteadyProblem,
                    direction: int = 1, steps: int = 100, ds0: float = 0.02, *,
                    ds_min: float = 1e-4,
                    sigma_range: tuple[float, float] | None = None,
                    stability: bool = True, adapt: bool = True) -> Branch:
    """Trace a solution branch with fold and branch-point tagging; events
    are localized to 1e-7 in sigma, and stability starts from 24 eigenvalues."""
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    if sigma_range is not None and not (sigma_range[0] <= sigma_start <= sigma_range[1]):
        raise OutOfRange(
            f"start sigma={sigma_start:.6g} lies outside the continuation range "
            f"[{sigma_range[0]:.6g}, {sigma_range[1]:.6g}]")
    x = newton_correct(np.asarray(x_start, dtype=float), sigma_start, prob)
    sigma = sigma_start
    tau = tangent_at(x, sigma, prob)
    if tau.sigma != 0.0 and (1 if tau.sigma > 0 else -1) != direction:
        tau = Tangent(-tau.x, -tau.sigma)

    branch = Branch(prob)
    branch.points.append(_make_point(0, x, sigma, prob, {"Start"}, stability))

    det_sign = _factor(x, sigma, prob).det_sign
    tau_sign = 1 if tau.sigma > 0 else -1 if tau.sigma < 0 else 0

    ds = ds0
    idx = 1
    for _ in range(steps):
        accepted = None
        while True:
            try:
                x1, sig1, iters = _arclength_correct(
                    x + ds * tau.x, sigma + ds * tau.sigma,
                    x, sigma, tau, ds, prob)
                accepted = (x1, sig1, iters)
                break
            except (NoConvergence, SingularJacobian):
                ds *= 0.5
                if ds < ds_min:
                    raise StepSizeUnderflow(
                        f"arclength step fell below {ds_min} near sigma={sigma:.6g}")
        x1, sig1, iters = accepted
        tau1 = tangent_at(x1, sig1, prob, prev=tau)
        det_sign1 = _factor(x1, sig1, prob).det_sign
        tau_sign1 = 1 if tau1.sigma > 0 else -1 if tau1.sigma < 0 else 0

        fold_hit = tau_sign != 0 and tau_sign1 != 0 and tau_sign1 != tau_sign
        det_hit = det_sign != 0 and det_sign1 != 0 and det_sign1 != det_sign
        # det(J) flips at folds as well, so a tau-sign flip takes precedence
        if fold_hit or det_hit:
            which = "fold" if fold_hit else "bp"
            ref_sign = tau_sign if fold_hit else det_sign
            ev = _refine_event(x, sigma, tau, ds, prob, ref_sign, which)
            if ev is not None:
                xe, se = ev
                tags = {"Fold"} if fold_hit else {"BP"}
                branch.points.append(
                    _make_point(idx, xe, se, prob, tags, stability))
                idx += 1

        branch.points.append(
            _make_point(idx, x1, sig1, prob, set(), stability))
        idx += 1

        x, sigma, tau = x1, sig1, tau1
        det_sign, tau_sign = det_sign1, tau_sign1
        if adapt:
            if iters <= 4:
                ds = min(ds * 1.3, 4.0 * ds0)
            ds = max(ds, ds_min)
        if sigma_range is not None and not (sigma_range[0] <= sigma <= sigma_range[1]):
            break

    branch.points[-1].tags.add("End")
    branch.tangent = tau
    return branch


def kernel_vector(x: np.ndarray, sigma: float, prob: SteadyProblem) -> np.ndarray:
    """Near-null vector of the steady-state Jacobian by inverse iteration
    (at most 100 steps).

    |J v|_inf must stay below 1e-8 times the matrix scale. That bound is
    sized for points localized to ~1e-7 in sigma by event refinement, where
    the crossing eigenvalue is orders below any other, and rejects points
    that are merely close to a bifurcation.
    """
    ab = jacobian_banded(x, sigma, prob)
    scale = float(np.abs(ab).max())
    lu = BandedLU(ab)
    if lu.singular:
        shifted = ab.copy()
        shifted[KL + KU, :] -= 1e-10 * scale
        lu = BandedLU(shifted)
        if lu.singular:
            raise KernelNotFound("could not factor near the branch point")
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(x.size)
    v /= np.abs(v).max()
    for _ in range(100):
        w = lu.solve(v)
        wn = float(np.abs(w).max())
        if not math.isfinite(wn) or wn == 0.0:
            raise KernelNotFound("inverse iteration collapsed")
        w /= wn
        if np.abs(w - v).max() < 1e-12 or np.abs(w + v).max() < 1e-12:
            v = w
            break
        v = w
    r = residual_matvec(ab, v)
    if float(np.abs(r).max()) > 1e-8 * scale:
        raise KernelNotFound("no sufficiently small singular direction found")
    return v


def residual_matvec(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Multiply a vector by the banded matrix stored in gbtrf layout."""
    n = v.size
    out = ab[KL + KU, :] * v
    for off in range(1, KU + 1):
        out[:-off] += ab[KL + KU - off, off:] * v[off:]
    for off in range(1, KL + 1):
        out[off:] += ab[KL + KU + off, :-off] * v[:-off]
    return out


def branch_switch(branch: Branch, bp_index: int,
                  amplitude: float) -> tuple[np.ndarray, float]:
    """Start point on the bifurcating branch at a detected BP.

    The side of the pitchfork is not known in advance, so the seed is
    corrected at sigma_bp -/+ 1e-3 with a short ladder of shrinking
    kernel amplitudes; the first correction that lands off the parent
    branch wins. FellBackToParent means every attempt returned to it.
    """
    pt = branch.points[bp_index]
    if "BP" not in pt.tags:
        raise ValueError(f"point {bp_index} is not tagged as a branch point")
    prob = branch.prob
    phi = kernel_vector(pt.x, pt.sigma, prob)
    u_par, _ = split_fields(pt.x)
    par_var = float(np.var(u_par))
    only_fellback = True
    for off in (-1e-3, 1e-3):
        sig_new = pt.sigma + off
        for amp in (amplitude, amplitude / 4.0, amplitude / 16.0):
            try:
                x_new = newton_correct(pt.x + amp * phi, sig_new, prob)
            except (NoConvergence, SingularJacobian, NonFinite):
                only_fellback = False
                continue
            u_new, _ = split_fields(x_new)
            # "came back to the parent" = variance did not move off the
            # parent's own variance scale (parent may itself be patterned)
            if abs(float(np.var(u_new)) - par_var) > 1e-10 + 0.1 * par_var:
                return x_new, sig_new
    if only_fellback:
        raise FellBackToParent(
            f"all corrections near sigma={pt.sigma:.6g} returned to the parent branch")
    raise NoConvergence(
        f"no convergent correction off the parent branch at sigma={pt.sigma:.6g}")


def localized_seed(prob: SteadyProblem, sigma: float, amplitude: float,
                   width: float | None = None) -> np.ndarray:
    """Single sech bump on top of the coexisting state, centered mid-domain.

    The default width is the spatial-spectrum wavelength 2*pi/sqrt(|K|);
    the tail decay length 1/sqrt(K) (several times narrower) tends to sit
    in a larger Newton basin, so a width override is accepted.
    """
    from .linear import spatial_spectrum
    from .model import coexisting_equilibria

    p = prob.p.with_sigma(sigma)
    e = coexisting_equilibria(p)[-1]
    spec = spatial_spectrum(e, p, prob.d)
    if width is None:
        width = 2.0 * math.pi / math.sqrt(abs(spec.K))
    xg = prob.grid.x
    bump = amplitude / np.cosh((xg - 0.5 * prob.grid.L) / width)
    u = e.u + bump
    v = e.v + bump * (e.v / e.u)
    return interleave(u, v)
