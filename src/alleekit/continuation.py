"""Pseudo-arclength continuation of discretized steady states.

Unknowns are interleaved (u0, v0, u1, v1, ...) so the steady-state
Jacobian is banded with two sub- and two superdiagonals; one LAPACK
banded LU (:mod:`alleekit.pde`'s ``BandedLU``, on ``dgbtrf``) serves the
Newton corrector, the tangent and, from the same factorization, the
determinant sign used for branch-point detection, and, shifted, the
Krylov-Schur restarted Arnoldi behind linear stability, which takes its
Schur forms from ``dgees`` and ``dtrsen`` in ``pde``'s ``flapack``; nothing
here loads ``scipy.sparse``. The Arnoldi's start size comes from the
discrete Neumann symbol (``pde``'s ``neumann_symbol``), which gives the
spectrum of the homogeneous state at each point's mean exactly, through
the mode blocks' trace and det L(k) of :mod:`alleekit.model`, which owns
that algebra; this module loads no :mod:`alleekit.linear`. The
residual is the PDE stepper's own right-hand side (``semidiscrete_rhs`` in
:mod:`alleekit.pde`) and the Jacobian's diffusion rows come from its
``laplacian_bands``, so the steady states here are exactly those of the
PDE stepper.

A Fold tag marks a sign change of the tangent's sigma part, a BP tag one of
det J (an odd number of real crossings); a complex pair crossing, or two
real crossings in one step, changes the unstable count with no tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (NoConvergence, NonFinite, NumericalError, OutOfRange,
                     SingularJacobian)
from .model import KineticParams, _det_l, _mode_scalars, jacobian_fields
from .pde import (BandedLU, Grid, flapack, l2_norm, laplacian_bands,
                  neumann_symbol, semidiscrete_rhs)

KL = 2
KU = 2
# solution_stability inverts J - STABILITY_SHIFT*I and counts eigenvalues
# with real part above UNSTABLE_TOL as unstable
STABILITY_SHIFT = 0.13
UNSTABLE_TOL = 1e-8
# max-norm residual at which Newton, the arclength corrector and event
# refinement accept a point
NEWTON_TOL = 1e-10
# continue_branch halves a failed arclength step down to this length
DS_MIN = 1e-4


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


def _factor(x: np.ndarray, sigma: float, prob: SteadyProblem) -> BandedLU:
    return BandedLU(jacobian_banded(x, sigma, prob), KL, KU)


def newton_correct(x0: np.ndarray, sigma: float, prob: SteadyProblem) -> np.ndarray:
    """Damped Newton at fixed sigma, at most 25 iterations; max-norm
    residual below NEWTON_TOL on return."""
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (prob.n_unknowns,):
        raise ValueError("solution vector has the wrong length")
    r = residual(x, sigma, prob)
    rn = float(np.abs(r).max())
    if rn < NEWTON_TOL:
        return x
    for _ in range(25):
        dx = _factor(x, sigma, prob).solve(-r)
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
               prev: Tangent) -> tuple[Tangent, int]:
    """Unit tangent of the solution curve in the weighted metric, oriented
    along prev, and the determinant sign of the factorization that gave it."""
    lu = _factor(x, sigma, prob)
    w = lu.solve(-sigma_derivative(x, prob))
    nrm = math.sqrt(_wdot(w, w) + 1.0)
    tau = Tangent(w / nrm, 1.0 / nrm)
    if prev.dot(tau.x, tau.sigma) < 0.0:
        tau = Tangent(-tau.x, -tau.sigma)
    return tau, lu.det_sign


def _arclength_correct(x0, sigma0, tau: Tangent, ds, prob):
    """Correct the predictor (x0, sigma0) + ds*tau onto the branch, on the
    hyperplane at arclength ds along tau; returns (x, sigma, iterations).
    A failed correction raises NoConvergence, or the NumericalError it met:
    NonFinite from the residual at a non-finite x or sigma, or
    SingularJacobian."""
    x = x0 + ds * tau.x
    sig = sigma0 + ds * tau.sigma
    for it in range(10):
        if not sig > 0.0:
            # the kinetics exist for sigma > 0 only; the caller shrinks ds
            raise NoConvergence(f"corrector reached sigma={sig:.6g}")
        r = residual(x, sig, prob)
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
    raise NoConvergence("arclength corrector exhausted its iterations")


@dataclass
class BranchPoint:
    index: int
    sigma: float
    x: np.ndarray
    l2norm_u: float
    n_unstable: int
    tags: set[str] = field(default_factory=set)


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


def _orthogonalize(basis: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """Gram-Schmidt of w against the orthonormal rows of basis, in place,
    with the DGKS second pass when the first removes more than 1 - 1/sqrt(2)
    of its norm.

    Returns the coefficients and the norm left, 0.0 when w lies in the
    span of the basis (the second pass removed as much again).
    """
    norm0 = math.sqrt(w @ w)
    h = basis @ w
    w -= h @ basis
    beta = math.sqrt(w @ w)
    if beta < math.sqrt(0.5) * norm0:
        c = basis @ w
        w -= c @ basis
        h += c
        beta, before = math.sqrt(w @ w), beta
        if beta < math.sqrt(0.5) * before:
            beta = 0.0
    return h, beta


def _largest_ritz(apply, n: int, k: int) -> np.ndarray:
    """The k eigenvalues of largest modulus of the real n x n operator
    ``apply`` (k <= n - 2), by Krylov-Schur restarted Arnoldi (Stewart,
    SIAM J. Matrix Anal. Appl. 23 (2002) 601).

    The basis holds m = min(n, max(floor(7k/3) + 1, 20)) vectors. With
    ARPACK's default 2k + 1, only 45 or 46 of the 52 wanted values of each
    benchmark ``continue`` call had converged at the first Schur form, so
    every call paid a restart and a second Schur form; 117 vectors (2.25k)
    are the fewest that make all of them converge at once, and the rule
    keeps five more as a margin, since a call just short of it pays the
    whole restart.
    Each cycle takes one real Schur form of the m x m projection
    (``dgees``) and moves the k wanted Ritz values, with the partner of a
    conjugate pair the k-th one splits, to its leading block (``dtrsen``).
    They count as converged when each entry of the residual row over that
    block is below machine epsilon times the Ritz value's modulus, as in
    ARPACK; 300 cycles without that raise NoConvergence. A restart keeps,
    besides the wanted block, the next half of the Ritz values by modulus:
    with the wanted block alone, a Ritz value that one of nearly equal
    modulus displaces is purged again and again, and the cycles can stall.
    The start vector is seeded, so equal inputs give equal eigenvalues. A
    conjugate pair split at position k keeps the member with Im > 0.
    """
    m = min(n, max(7 * k // 3 + 1, 20))
    keep = k + (m - k - 1) // 2  # plus a split pair's partner, still < m
    eps = np.finfo(float).eps
    cycles = 300
    rng = np.random.default_rng(12345)
    basis = np.zeros((m + 1, n))
    h = np.zeros((m + 1, m))
    v = rng.standard_normal(n)
    basis[0] = v / math.sqrt(v @ v)
    p = 0
    for _ in range(cycles):
        for j in range(p, m):
            w = apply(basis[j])
            h[:j + 1, j], beta = _orthogonalize(basis[:j + 1], w)
            if j + 1 == n:
                break  # the basis spans the whole space: no residual left
            if beta == 0.0:
                # invariant subspace: go on from a fresh orthogonal direction
                w = rng.standard_normal(n)
                _orthogonalize(basis[:j + 1], w)
                _orthogonalize(basis[:j + 1], w)
                beta, h[j + 1, j] = math.sqrt(w @ w), 0.0
            else:
                h[j + 1, j] = beta
            basis[j + 1] = w / beta
        # dgees takes a sort callback even when told not to sort
        t, _, wr, wi, q, _, info = flapack.dgees(lambda re, im: 0, h[:m, :m])
        if info != 0:
            raise NoConvergence(f"Schur factorization failed (info={info})")
        t, q, wr, wi, p = _lead(t, q, wr, wi, k)
        theta = wr[:p] + 1j * wi[:p]
        converged = np.abs(h[m] @ q[:, :p]) <= eps * np.abs(theta)
        if converged.all():
            return theta[np.lexsort((-theta.imag, -np.abs(theta)))[:k]]
        # dtrsen keeps the order of what it selects, so the wanted block
        # stays leading; then A V' = V' T[:p, :p] + v_m resid^T holds
        t, q, wr, wi, p = _lead(t, q, wr, wi, keep)
        resid = h[m] @ q[:, :p]
        basis[:p] = q[:, :p].T @ basis[:m]
        basis[p] = basis[m]
        h[:] = 0.0
        h[:p, :p] = t[:p, :p]
        h[p, :p] = resid
    raise NoConvergence(
        f"eigensolver stalled: {int(converged.sum())} of {converged.size} "
        f"Ritz values converged after {cycles} cycles")


def _lead(t, q, wr, wi, count):
    """Reorder a real Schur form so that its count eigenvalues of largest
    modulus (and the partner of a pair split at count) lead; returns the
    new form, its eigenvalues and the size of that block."""
    select = np.zeros(wr.size, dtype=np.int32)
    select[np.argsort(-np.hypot(wr, wi), kind="stable")[:count]] = 1
    t, q, wr, wi, p, _, _, info = flapack.dtrsen(select, t, q, job="N")
    if info != 0:
        raise NoConvergence(f"Schur reordering failed (info={info})")
    return t, q, wr, wi, p


def solution_stability(x: np.ndarray, sigma: float, prob: SteadyProblem,
                       n_eigs: int = 8) -> tuple[int, np.ndarray]:
    """Leading spectrum of the linearized evolution operator.

    One certified path at every grid size, with no dense fallback: a
    Krylov-Schur restarted Arnoldi (``_largest_ritz``) on the inverse of
    J - STABILITY_SHIFT*I, applied through its banded LU, finds the k
    eigenvalues nearest the shift. A singular factorization raises the
    shift 1.37-fold, up to three times. The eigenvalues must cover a disk
    around the shift in use that holds the whole Bendixson box of possible
    unstable eigenvalues.
    k starts from two more than the number of eigenvalues in that disk at
    the homogeneous state of the same mean (u, v), counted exactly from
    the 2x2 blocks J - kappa_j diag(1, d) of ``neumann_symbol``; n_eigs
    (at least 8) is only a lower bound. k is then doubled until the
    covered disk provably contains the box, so the unstable count is
    certified, not sampled, and a poor start costs time, never the count.
    Returns that count and the k eigenvalues, by decreasing real part;
    equal inputs give bitwise-equal eigenvalues.
    """
    n = prob.n_unknowns
    ab = jacobian_banded(x, sigma, prob)
    s = STABILITY_SHIFT
    for _ in range(4):
        shifted = ab.copy()
        shifted[KL + KU, :] -= s
        lu = BandedLU(shifted, KL, KU)
        if not lu.singular:
            break
        s *= 1.37  # a pivot collision means the shift hit an eigenvalue
    else:
        raise NoConvergence("no usable shift for inverse iteration")

    re_cap, im_cap = _bendixson_caps(x, sigma, prob)
    r_req = math.hypot(max(s, re_cap - s), im_cap)
    k = min(max(8, n_eigs, _symbol_count(x, sigma, prob, s, r_req) + 2), n - 2)
    k_cap = min(n - 2, max(192, k))
    while True:
        lam = s + 1.0 / _largest_ritz(lu.solve, n, k)
        if np.abs(lam - s).max() >= r_req or k >= k_cap:
            break
        k = min(2 * k, k_cap)
    if np.abs(lam - s).max() < r_req:
        raise NoConvergence(
            "could not cover the unstable region "
            f"(needed radius {r_req:.3g} around {s:.3g})")

    lam = lam[np.argsort(-lam.real)]
    n_unstable = int((lam.real > UNSTABLE_TOL).sum())
    return n_unstable, lam


def _symbol_count(x, sigma, prob, shift, r):
    """Eigenvalues within r of shift of the homogeneous state at the mean of
    x: those of the mode blocks at the wavenumbers of ``neumann_symbol``."""
    u, v = split_fields(x)
    tr, s, det0 = _mode_scalars(float(u.mean()), float(v.mean()),
                                prob.p.with_sigma(sigma), prob.d)
    kappa = neumann_symbol(prob.grid.N, prob.grid.dx)
    half_tr = 0.5 * (tr - (1.0 + prob.d) * kappa)
    det = _det_l(kappa, s, det0, prob.d)
    root = np.sqrt((half_tr * half_tr - det).astype(complex))
    lam = np.concatenate((half_tr + root, half_tr - root))
    return int((np.abs(lam - shift) < r).sum())


def _sign(a: float) -> int:
    return 1 if a > 0 else -1 if a < 0 else 0


def _refine_event(x0, sigma0, tau, ds_hi, prob, indicator, value_lo):
    """Bisect the arclength step along tau until the point where the integer
    ``indicator(x, sigma)`` of corrected points leaves value_lo is localized
    to 1e-7 in sigma. Any other value, None (undetermined) and a failed
    correction count as the far side. Returns the last far-side point, as
    (x, sigma), or None."""
    lo, hi = 0.0, ds_hi
    ev = None
    sig_lo = sigma0
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-12:
            break
        try:
            xm, sm, _ = _arclength_correct(x0, sigma0, tau, mid, prob)
        except (NoConvergence, NumericalError):
            hi = mid  # treat failures as the far side; shrink toward x0
            continue
        if indicator(xm, sm) == value_lo:
            lo, sig_lo = mid, sm
        else:
            hi, ev = mid, (xm, sm)
        if ev is not None and abs(ev[1] - sig_lo) < 1e-7:
            break
    return ev


def continue_branch(x_start: np.ndarray, sigma_start: float, prob: SteadyProblem,
                    direction: int = 1, steps: int = 100, ds0: float = 0.02, *,
                    sigma_range: tuple[float, float] | None = None
                    ) -> list[BranchPoint]:
    """The points of a solution branch, in order, with each event,
    localized to 1e-7 in sigma, added as a point: Fold where the tangent's
    sigma part changes sign, and otherwise BP where det J does (an odd
    number of real crossings). A complex pair crossing, or two real
    crossings in one step, changes ``n_unstable`` with no tag. Nor need a
    BP tag change ``n_unstable``: the real eigenvalue that crosses can stay
    below UNSTABLE_TOL on both sides of the step. Each point's
    ``n_unstable`` is certified by ``solution_stability`` and depends on
    that point alone. A step grows 1.3-fold, up to 4*ds0, after a
    correction of at most four iterations, and halves on a failed one, down
    to DS_MIN.

    A branch ends on its range bound: a step that leaves sigma_range is
    bisected like an event, and the first corrected point past the bound,
    within 1e-7 of it, is written as End; an event refined past the bound
    is dropped."""
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    lo, hi = sigma_range if sigma_range is not None else (-math.inf, math.inf)
    if not lo <= sigma_start <= hi:
        raise OutOfRange(
            f"start sigma={sigma_start:.6g} lies outside the continuation range "
            f"[{lo:.6g}, {hi:.6g}]")
    x = newton_correct(np.asarray(x_start, dtype=float), sigma_start, prob)
    sigma = sigma_start
    tau, det_sign = tangent_at(x, sigma, prob, prev=Tangent(np.zeros_like(x), direction))

    points: list[BranchPoint] = []

    def add_point(x, sigma, tags):
        n_un = solution_stability(x, sigma, prob)[0]
        u, _ = split_fields(x)
        points.append(BranchPoint(len(points), sigma, x.copy(),
                                  l2_norm(u, prob.grid.dx), n_un, tags))

    def in_range(xm, sm):
        return 1 if lo <= sm <= hi else -1

    # (tag, indicator) per event, in order of precedence: det J flips at
    # folds as well, so a fold is checked first
    events = (
        ("Fold", lambda xm, sm:
            _sign(tangent_at(xm, sm, prob, prev=tau)[0].sigma) or None),
        # factor only: a singular point is undetermined, not SingularJacobian
        ("BP", lambda xm, sm: _factor(xm, sm, prob).det_sign or None),
    )

    add_point(x, sigma, {"Start"})
    values = (_sign(tau.sigma), det_sign)
    ds = ds0
    for _ in range(steps):
        while True:
            try:
                x1, sig1, iters = _arclength_correct(x, sigma, tau, ds, prob)
                break
            except (NoConvergence, NumericalError):
                ds *= 0.5
                if ds < DS_MIN:
                    raise NoConvergence(
                        f"arclength step fell below {DS_MIN} near sigma={sigma:.6g}")
        tau1, det_sign1 = tangent_at(x1, sig1, prob, prev=tau)
        values1 = (_sign(tau1.sigma), det_sign1)
        for (tag, indicator), v0, v1 in zip(events, values, values1):
            if v0 and v1 and v0 != v1:
                ev = _refine_event(x, sigma, tau, ds, prob, indicator, v0)
                if ev is not None and in_range(*ev) == 1:
                    add_point(*ev, {tag})
                break
        if in_range(x1, sig1) != 1:
            ev = _refine_event(x, sigma, tau, ds, prob, in_range, 1)
            if ev is not None:
                add_point(*ev, set())
            break
        add_point(x1, sig1, set())

        x, sigma, tau, values = x1, sig1, tau1, values1
        if iters <= 4:
            ds = min(ds * 1.3, 4.0 * ds0)
        ds = max(ds, DS_MIN)

    points[-1].tags.add("End")
    return points
