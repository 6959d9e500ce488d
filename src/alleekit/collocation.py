"""Collocation for two-point boundary value problems with separated
boundary conditions, on a banded LU.

The algorithm is that of scipy's ``solve_bvp`` (Kierzenka & Shampine,
ACM TOMS 27 (2001) 299): the solution is a C1 cubic spline that meets the
ODE at the nodes and at the interval midpoints (three-point Lobatto IIIA);
a damped Newton iteration with the affine-invariant line search of
Ascher, Mattheij & Russell keeps its Jacobian after a full step; the RMS
of the relative residual on each interval is estimated by five-point
Lobatto quadrature, and an interval above ``tol`` gets one new node, or
two above ``100 * tol``. Only the linear algebra differs. The unknown
parameters ride along as constant components (p' = 0) of the state at
every node, and the boundary conditions on y(a) come first and those on
y(b) last, so the Newton matrix is banded (Ascher, Mattheij & Russell,
*Numerical Solution of Boundary Value Problems for ODEs*, 1995) and one
LAPACK ``dgbtrf`` (:mod:`alleekit.pde`'s ``BandedLU``) factors it in work
linear in the node count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonFinite
from .pde import BandedLU

# damped Newton: at most _MAX_ITER iterations and _MAX_NJEV Jacobians per
# mesh; a step is halved (_TAU) up to _N_TRIAL times until the criterion
# ||J^-1 r||^2 falls by the Armijo factor 1 - 2 * alpha * _SIGMA
_MAX_ITER, _MAX_NJEV, _N_TRIAL = 8, 4, 4
_SIGMA, _TAU = 0.2, 0.5
# meshes solved before a boundary residual above tol, with no node left to
# add, counts as not met
_MAX_MESHES = 10


class CubicHermite:
    """The C1 piecewise cubic through values ``y`` with slopes ``yp`` at the
    nodes ``x``; ``sol(s)`` gives shape (n,) at a scalar and (n, len(s))
    on an array, extrapolating the end cubics outside [x[0], x[-1]]."""

    def __init__(self, x: np.ndarray, y: np.ndarray, yp: np.ndarray):
        h = np.diff(x)
        slope = (y[:, 1:] - y[:, :-1]) / h
        t = (yp[:, :-1] + yp[:, 1:] - 2 * slope) / h
        self.x = x
        # power coefficients of s - x[i], highest first, shape (4, n, m - 1)
        self.c = np.array([t / h, (slope - yp[:, :-1]) / h - t,
                           yp[:, :-1], y[:, :-1]])

    def __call__(self, s, nu: int = 0) -> np.ndarray:
        """Values (``nu`` = 0) or first derivatives (``nu`` = 1) at ``s``;
        a node belongs to the interval it starts."""
        s = np.asarray(s, dtype=float)
        i = np.clip(np.searchsorted(self.x, s, side="right") - 1,
                    0, self.x.size - 2)
        ds = s - self.x[i]
        c3, c2, c1, c0 = self.c[:, :, i]
        if nu == 0:
            return c0 + c1 * ds + c2 * (ds * ds) + c3 * (ds * ds * ds)
        return c1 + c2 * ds * 2 + c3 * (ds * ds) * 3


@dataclass
class BVPResult:
    """A converged solution: final mesh ``x``, parameters ``p`` and spline
    ``sol``, whose values at the nodes are the final ``y``."""

    sol: CubicHermite
    p: np.ndarray
    x: np.ndarray


def _collocation(fun, x, h, y, p):
    """Midpoint residuals of the cubic through (x, y) with slopes f, the
    spline's midpoint values, and f at the nodes and midpoints."""
    f = fun(x, y, p)
    y_mid = 0.5 * (y[:, 1:] + y[:, :-1]) - 0.125 * h * (f[:, 1:] - f[:, :-1])
    f_mid = fun(x[:-1] + 0.5 * h, y_mid, p)
    res = y[:, 1:] - y[:, :-1] - h / 6 * (f[:, :-1] + f[:, 1:] + 4 * f_mid)
    if not np.isfinite(res).all():
        raise NonFinite("collocation residual is not finite")
    return res, y_mid, f, f_mid


class _BandedSystem:
    """The Newton system on a fixed mesh, unknowns node by node as
    z_i = (y_i, p), rows ordered as the n_a conditions on y(a), the n + k
    collocation equations of each interval (p_{i+1} - p_i = 0 last), and
    the conditions on y(b)."""

    def __init__(self, n: int, k: int, m: int, n_a: int):
        self.n, self.k, self.m, self.n_a = n, k, m, n_a
        self.nz = nz = n + k
        self.kl, self.ku = nz - 1 + n_a, 2 * nz - 1 - n_a

    def factor(self, fun_jac, bc_jac, x, h, y, p, y_mid) -> BandedLU:
        k, m, nz, n_a = self.k, self.m, self.nz, self.n_a

        def augmented(at, ys):
            # d(f, 0)/dz, shape (nz, nz, len(at))
            df_dy, df_dp = fun_jac(at, ys, p)
            return np.concatenate([np.concatenate([df_dy, df_dp], axis=1),
                                   np.zeros((k, nz, at.size))])

        jac = augmented(x, y)
        jac_mid = augmented(x[:-1] + 0.5 * h, y_mid)
        eye = np.identity(nz)[:, :, None]
        # derivatives of interval i's residuals in z_i and z_{i+1}, (nz, nz, m - 1)
        d0 = (-eye - h / 6 * (jac[:, :, :-1] + 2 * jac_mid)
              - h ** 2 / 12 * np.einsum("ack,cbk->abk", jac_mid, jac[:, :, :-1]))
        d1 = (eye - h / 6 * (jac[:, :, 1:] + 2 * jac_mid)
              + h ** 2 / 12 * np.einsum("ack,cbk->abk", jac_mid, jac[:, :, 1:]))
        dya, dyb, dbc_dp = bc_jac(y[:, 0], y[:, -1], p)

        # gbtrf layout, A[r, c] at ab[kl + ku + r - c, c], seen as
        # band[row, node, component]; a block entry (a, b) whose block
        # starts on the diagonal lands on row diag[a, b]
        band = np.zeros((2 * self.kl + self.ku + 1, m, nz))
        a, b = np.ogrid[:nz, :nz]
        diag = self.kl + self.ku + a - b
        band[diag + n_a, :-1, b] = d0
        band[diag + n_a - nz, 1:, b] = d1
        band[diag[:n_a], 0, b] = np.hstack([dya[:n_a], dbc_dp[:n_a]])
        band[diag[:nz - n_a] + n_a, -1, b] = np.hstack([dyb[n_a:], dbc_dp[n_a:]])
        return BandedLU(band.reshape(-1, nz * m), self.kl, self.ku)

    def rhs(self, col_res, bc_res) -> np.ndarray:
        rows = np.zeros((self.nz, self.m - 1))
        rows[:self.n] = col_res
        return np.concatenate([bc_res[:self.n_a], rows.ravel(order="F"),
                               bc_res[self.n_a:]])

    def split(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The y step (n, m) and the p step, read at node 0."""
        z = z.reshape(self.m, self.nz)
        return z[:, :self.n].T, z[0, self.n:]


def _newton(fun, bc, fun_jac, bc_jac, x, h, y, p, n_a, tol):
    """Damped Newton on one mesh; returns (y, p)."""
    system = _BandedSystem(y.shape[0], p.size, x.size, n_a)
    # converged once the midpoint residual 1.5 col_res / h is 20 times below
    # tol, relative to 1 + |f|
    tol_r = 2 / 3 * h * 5e-2 * tol
    col_res, y_mid, f, f_mid = _collocation(fun, x, h, y, p)
    bc_res = bc(y[:, 0], y[:, -1], p)

    def criterion(lu, col_res, bc_res):
        y_step, p_step = system.split(lu.solve(system.rhs(col_res, bc_res)))
        full = np.concatenate([y_step.ravel(order="F"), p_step])
        return y_step, p_step, np.dot(full, full)

    njev = 0
    recompute = True
    for _ in range(_MAX_ITER):
        if recompute:
            lu = system.factor(fun_jac, bc_jac, x, h, y, p, y_mid)
            njev += 1
            y_step, p_step, cost = criterion(lu, col_res, bc_res)

        alpha = 1.0
        for trial in range(_N_TRIAL + 1):
            y_new = y - alpha * y_step
            p_new = p - alpha * p_step
            col_res, y_mid, f, f_mid = _collocation(fun, x, h, y_new, p_new)
            bc_res = bc(y_new[:, 0], y_new[:, -1], p_new)
            y_next, p_next, cost_new = criterion(lu, col_res, bc_res)
            if cost_new < (1 - 2 * alpha * _SIGMA) * cost:
                break
            if trial < _N_TRIAL:
                alpha *= _TAU
        y, p = y_new, p_new

        if njev == _MAX_NJEV:
            break
        if (np.all(np.abs(col_res) < tol_r * (1 + np.abs(f_mid)))
                and np.all(np.abs(bc_res) < tol)):
            break
        recompute = alpha != 1
        if not recompute:
            y_step, p_step, cost = y_next, p_next, cost_new
    return y, p


def _rms_residuals(fun, sol, x, h, p, r_mid, f_mid) -> np.ndarray:
    """RMS of the relative residual y' - f over each interval, by
    five-point Lobatto quadrature (the residual vanishes at the nodes)."""
    x_mid = x[:-1] + 0.5 * h
    s = 0.5 * h * (3 / 7) ** 0.5
    squares = []
    for xq in (x_mid + s, x_mid - s):
        fq = fun(xq, sol(xq), p)
        r = (sol(xq, 1) - fq) / (1 + np.abs(fq))
        squares.append(np.sum(r * r, axis=0))
    r = r_mid / (1 + np.abs(f_mid))
    r_sq = np.sum(r * r, axis=0)
    return (0.5 * (32 / 45 * r_sq + 49 / 90 * (squares[0] + squares[1]))) ** 0.5


# an iterate that overflows is reported as NonFinite by the finiteness
# check on its residual, not as a numpy warning
@np.errstate(over="ignore", invalid="ignore")
def solve_bvp(fun, bc, x, y, p, *, tol: float, max_nodes: int, fun_jac,
              bc_jac) -> BVPResult:
    """Solve y' = fun(x, y, p) on [x[0], x[-1]] with bc(y(a), y(b), p) = 0,
    from the mesh ``x`` and guess ``y`` (n, m), ``p`` (k,).

    ``fun`` and ``fun_jac`` take a node vector and an (n, m) block, the
    latter returning df/dy (n, n, m) and df/dp (n, k, m); ``bc`` returns
    n + k residuals and ``bc_jac`` their derivatives in y(a) and y(b),
    (n + k, n) each, and in p, (n + k, k). The boundary conditions must be
    separated: the leading rows may act on y(a) only and the rest on y(b)
    only. The residual tolerance is ``tol``, and so is the boundary
    tolerance.

    Only a converged solution is returned. An iterate whose residual is not
    finite raises NonFinite, and a singular Newton matrix SingularJacobian;
    a mesh that would need more than ``max_nodes`` nodes, or a boundary
    residual still above ``tol`` after ten meshes with no node left to add,
    raises NoConvergence.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    dya, dyb, _ = bc_jac(y[:, 0], y[:, -1], p)
    on_b = np.any(dyb != 0.0, axis=1)
    n_a = int(np.argmax(on_b)) if on_b.any() else on_b.size
    if np.any(dya[n_a:] != 0.0):
        raise ValueError("boundary conditions must act on y(a) in their "
                         "leading rows and on y(b) in the rest")

    h = np.diff(x)
    meshes = 0
    while True:
        y, p = _newton(fun, bc, fun_jac, bc_jac, x, h, y, p, n_a, tol)
        meshes += 1
        col_res, _, f, f_mid = _collocation(fun, x, h, y, p)
        max_bc_res = np.max(np.abs(bc(y[:, 0], y[:, -1], p)))
        sol = CubicHermite(x, y, f)
        rms = _rms_residuals(fun, sol, x, h, p, 1.5 * col_res / h, f_mid)
        insert_1, = np.nonzero((rms > tol) & (rms < 100 * tol))
        insert_2, = np.nonzero(rms >= 100 * tol)
        if x.size + insert_1.size + 2 * insert_2.size > max_nodes:
            raise NoConvergence(
                f"collocation needs more than max_nodes={max_nodes} nodes")
        if insert_1.size or insert_2.size:
            x = np.sort(np.concatenate([
                x, 0.5 * (x[insert_1] + x[insert_1 + 1]),
                (2 * x[insert_2] + x[insert_2 + 1]) / 3,
                (x[insert_2] + 2 * x[insert_2 + 1]) / 3]))
            h = np.diff(x)
            y = sol(x)
        elif max_bc_res <= tol:
            return BVPResult(sol, p, x)
        elif meshes >= _MAX_MESHES:
            raise NoConvergence(
                f"collocation boundary residual {max_bc_res:.3g} is above "
                f"tol={tol:.3g} after {meshes} meshes of {x.size} nodes")
