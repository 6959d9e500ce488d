"""Banded collocation: scipy's ``solve_bvp`` as the oracle on a problem
whose boundary conditions involve the free parameter, the failures it
raises, and the check that the boundary conditions are separated."""

import numpy as np
import pytest

from alleekit.collocation import solve_bvp
from alleekit.errors import NoConvergence, SingularJacobian
from alleekit.pde import flapack
from test_waves import _singular_dgbtrf


# y'' + k^2 y = 0 on [0, 1], y(0) = y(1) = 0, y'(0) = k: the eigenvalue k is
# the parameter, and two of the three conditions act on y(0)
def _fun(_x, y, p):
    return np.vstack([y[1], -p[0] ** 2 * y[0]])


def _fun_jac(_x, y, p):
    df_dy = np.zeros((2, 2, y.shape[1]))
    df_dy[0, 1] = 1.0
    df_dy[1, 0] = -p[0] ** 2
    return df_dy, np.vstack([np.zeros_like(y[0]), -2.0 * p[0] * y[0]])[:, None]


def _bc(ya, yb, p):
    return np.array([ya[0], ya[1] - p[0], yb[0]])


def _bc_jac(_ya, _yb, _p):
    dya = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    dyb = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    return dya, dyb, np.array([[0.0], [-1.0], [0.0]])


def _guess():
    y = np.zeros((2, 5))
    y[0, 1], y[0, 3] = 1.0, -1.0
    return np.linspace(0.0, 1.0, 5), y, [6.0]


@pytest.mark.parametrize("tol", [1e-4, 1e-8])
def test_eigenvalue_problem_agrees_with_scipy(tol):
    from scipy.integrate import solve_bvp as scipy_bvp

    kwargs = dict(tol=tol, max_nodes=30000, fun_jac=_fun_jac, bc_jac=_bc_jac)
    sol = solve_bvp(_fun, _bc, *_guess(), **kwargs)
    ref = scipy_bvp(_fun, _bc, *_guess(), **kwargs)
    assert ref.status == 0
    assert sol.x.size == ref.x.size
    assert sol.p[0] == pytest.approx(ref.p[0], rel=1e-12)
    assert sol.p[0] == pytest.approx(2.0 * np.pi, rel=10 * tol)
    s = np.linspace(0.0, 1.0, 101)
    assert np.abs(sol.sol(s) - ref.sol(s)).max() < 1e-10
    assert np.abs(sol.sol(s, 1) - ref.sol(s, 1)).max() < 1e-10


def test_too_few_nodes_raises_no_convergence():
    with pytest.raises(NoConvergence, match="max_nodes=10 "):
        solve_bvp(_fun, _bc, *_guess(), tol=1e-8, max_nodes=10,
                  fun_jac=_fun_jac, bc_jac=_bc_jac)


def test_unmet_boundary_condition_on_a_resolved_mesh_raises_no_convergence():
    # y' = 0 with y(0)^3 = 0: the residual is zero on every interval, so no
    # node is added (the mesh keeps its 5 nodes), and Newton creeps toward
    # the triple root far slower than ten meshes allow at tol = 1e-30
    with pytest.raises(NoConvergence, match="after 10 meshes of 5 nodes"):
        solve_bvp(
            lambda _x, y, _p: np.zeros_like(y),
            lambda ya, _yb, _p: ya ** 3, np.linspace(0.0, 1.0, 5),
            np.ones((1, 5)), np.empty(0), tol=1e-30, max_nodes=1000,
            fun_jac=lambda _x, y, _p: (np.zeros((1, 1, y.shape[1])),
                                       np.zeros((1, 0, y.shape[1]))),
            bc_jac=lambda ya, _yb, _p: (np.array([[3.0 * ya[0] ** 2]]),
                                        np.zeros((1, 1)), np.zeros((1, 0))))


def test_singular_newton_matrix_raises_singular_jacobian(monkeypatch):
    monkeypatch.setattr(flapack, "dgbtrf", _singular_dgbtrf)
    with pytest.raises(SingularJacobian):
        solve_bvp(_fun, _bc, *_guess(), tol=1e-8, max_nodes=30000,
                  fun_jac=_fun_jac, bc_jac=_bc_jac)


def test_coupled_boundary_conditions_are_refused():
    def bc_jac(_ya, _yb, _p):
        dya, dyb, dp = _bc_jac(_ya, _yb, _p)
        dya[2, 0] = 1.0  # y(0) in the last row, beside y(1)
        return dya, dyb, dp

    with pytest.raises(ValueError, match="leading rows"):
        solve_bvp(_fun, _bc, *_guess(), tol=1e-6, max_nodes=1000,
                  fun_jac=_fun_jac, bc_jac=bc_jac)
