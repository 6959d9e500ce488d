"""Diagnostics tests: tangent exactness, Lyapunov signs and settling,
period extraction, island counting."""

import math

import numpy as np
import pytest

from alleekit.diagnostics import (
    LyapunovResult,
    dominant_period,
    island_count,
    island_series,
    largest_lyapunov,
)
from alleekit.model import coexisting_equilibria
from alleekit.pde import Field, Grid, ImexStepper, SpaceTimeRecord


def test_island_count_basic():
    assert island_count(np.zeros(50), 0.05) == 0
    u = np.zeros(50)
    u[10:20] = 1.0
    assert island_count(u, 0.05) == 1
    u[30:35] = 1.0
    assert island_count(u, 0.05) == 2
    u[0:3] = 1.0  # run touching the left boundary still counts
    assert island_count(u, 0.05) == 3


def test_island_count_rejects_bad_threshold():
    with pytest.raises(ValueError):
        island_count(np.ones(10), 0.0)
    with pytest.raises(ValueError):
        island_count(np.ones(10), -0.1)


def test_island_count_accepts_field():
    g = Grid(L=10.0, N=32)
    u = np.zeros(32)
    u[5:9] = 0.8
    f = Field(g, u, np.zeros(32), 0.0)
    assert island_count(f, 0.05) == 1


def test_island_count_threshold_plateau():
    # deep dead zones: count must not depend on threshold within the band
    u1 = 0.96
    u = np.full(400, 1e-6)
    for c in (60, 170, 300):
        u[c - 15:c + 15] = u1
    counts = {island_count(u, th * u1) for th in (0.03, 0.05, 0.08, 0.10)}
    assert counts == {3}


def test_island_series_over_record():
    g = Grid(L=10.0, N=32)
    snaps = np.zeros((3, 32))
    snaps[1, 4:8] = 1.0
    snaps[2, 4:8] = 1.0
    snaps[2, 20:24] = 1.0
    rec = SpaceTimeRecord(
        grid=g, times=np.array([0.0]), u_av=np.zeros(1), v_av=np.zeros(1),
        var_u=np.zeros(1), dudt_sup=np.zeros(1),
        snap_times=np.array([0.0, 1.0, 2.0]), snap_u=snaps,
        snap_v=np.zeros_like(snaps), min_value=0.0)
    t, n = island_series(rec, 0.05)
    assert list(n) == [0, 1, 2]
    assert list(t) == [0.0, 1.0, 2.0]


def test_dominant_period_pure_sine():
    t = np.linspace(0.0, 91.0, 4001)
    x = np.sin(2.0 * np.pi * t / 7.0)
    per = dominant_period(t, x)
    assert per is not None
    assert per == pytest.approx(7.0, rel=0.01)


def test_dominant_period_none_on_noise(rng):
    t = np.linspace(0.0, 100.0, 2001)
    assert dominant_period(t, rng.standard_normal(t.size)) is None


def test_dominant_period_trailing_window():
    # garbage early, clean oscillation late; the window must see only the tail
    t = np.linspace(0.0, 200.0, 8001)
    x = np.where(t < 100.0, np.exp(-0.1 * t), np.sin(2.0 * np.pi * t / 11.0))
    per = dominant_period(t, x, window=88.0)
    assert per is not None
    assert per == pytest.approx(11.0, rel=0.01)


def test_dominant_period_validates_shapes():
    with pytest.raises(ValueError):
        dominant_period(np.zeros(5), np.zeros(6))


def test_tangent_matches_trajectory_separation(p_main):
    # the propagated tangent is the exact derivative of the discrete map
    g = Grid(L=20.0, N=64)
    d, dt, eps = 46.0, 0.02, 1e-6
    e = coexisting_equilibria(p_main)[-1]
    x = g.x / g.L
    u = e.u * (1.0 + 0.05 * np.cos(2.0 * np.pi * x))
    v = e.v * (1.0 + 0.03 * np.sin(np.pi * x))
    du = np.cos(3.0 * np.pi * x)
    dv = np.sin(5.0 * np.pi * x)

    st = ImexStepper(g, p_main, d, dt)
    ua, va = u.copy(), v.copy()
    ub, vb = u + eps * du, v + eps * dv
    tu, tv = du.copy(), dv.copy()
    for k in range(100):
        tu, tv = st.tangent_arrays(ua, va, tu, tv)
        ua, va = st.step_arrays(ua, va, k * dt)
        ub, vb = st.step_arrays(ub, vb, k * dt)
    fd_u = (ub - ua) / eps
    fd_v = (vb - va) / eps
    num = math.hypot(np.linalg.norm(fd_u - tu), np.linalg.norm(fd_v - tv))
    den = math.hypot(np.linalg.norm(tu), np.linalg.norm(tv))
    assert num / den < 1e-4


def test_lyapunov_negative_on_stable_state(p_main):
    # sigma=2.2: the coexisting state is linearly stable (above both the
    # oscillatory and pattern-forming thresholds), so the flow contracts
    p = p_main.with_sigma(2.2)
    g = Grid(L=20.0, N=64)
    e = coexisting_equilibria(p)[-1]
    rng = np.random.default_rng(3)
    u = e.u + 1e-4 * rng.standard_normal(g.N)
    v = e.v + 1e-4 * rng.standard_normal(g.N)
    f0 = Field(g, u, v, 0.0)
    res = largest_lyapunov(f0, p, 46.0, T=250.0, dt=0.02, rng=rng)
    assert isinstance(res, LyapunovResult)
    assert res.lambda_max < 0.0
    assert res.convergence_series.size >= 200


def test_lyapunov_halved_renorm_agrees(p_main):
    p = p_main.with_sigma(2.2)
    g = Grid(L=20.0, N=64)
    e = coexisting_equilibria(p)[-1]
    f0 = Field(g, np.full(g.N, e.u * 1.01), np.full(g.N, e.v * 0.99), 0.0)
    a = largest_lyapunov(f0, p, 46.0, T=250.0, renorm_interval=1.0, dt=0.02)
    b = largest_lyapunov(f0, p, 46.0, T=250.0, renorm_interval=0.5, dt=0.02)
    assert b.lambda_max == pytest.approx(a.lambda_max, rel=0.2)


def test_lyapunov_needs_enough_renormalizations(p_main):
    g = Grid(L=10.0, N=32)
    f0 = Field(g, np.full(32, 0.7), np.full(32, 0.3), 0.0)
    with pytest.raises(ValueError):
        largest_lyapunov(f0, p_main, 46.0, T=50.0)
    with pytest.raises(ValueError):
        largest_lyapunov(f0, p_main, 46.0, T=250.0, renorm_interval=-1.0)
