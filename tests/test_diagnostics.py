"""Diagnostics tests: tangent exactness, Lyapunov signs and settling,
period extraction, island counting."""

import math

import numpy as np
import pytest

from alleekit import diagnostics
from alleekit.diagnostics import (
    LyapunovResult,
    dominant_period,
    island_count,
    island_series,
    kept_renormalizations,
    largest_lyapunov,
)
from alleekit.errors import NoConvergence
from alleekit.model import KineticParams, coexisting_equilibria, jacobian_fields
from alleekit.pde import Field, Grid, ImexStepper, SpaceTimeRecord, _TriFactor


def test_island_count_basic():
    assert island_count(np.zeros(50), 0.05) == 0
    assert island_count(np.zeros(0), 0.05) == 0
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
        snap_v=np.zeros_like(snaps))
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


def test_dominant_period_none_on_a_constant_with_a_rounded_mean():
    # 101 copies of 0.1 average to 0.1 + 2.8e-17, so the centred series is
    # a nonzero constant: every lag correlates at 1 and none dips below 0.5
    # before a peak, which is no period
    x = np.full(101, 0.1)
    assert x.mean() != 0.1
    assert dominant_period(np.arange(101.0), x) is None


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


def test_dominant_period_none_on_a_time_axis_that_does_not_advance():
    # a clean period-8 tone, sampled 32 times at one instant or backwards
    # in time, has no period to report
    values = np.cos(np.arange(32) * (2.0 * np.pi / 8.0))
    assert dominant_period(np.arange(32.0), values) == pytest.approx(8.0, rel=0.01)
    assert dominant_period(np.full(32, 5.0), values) is None
    assert dominant_period(np.arange(32.0)[::-1], values) is None


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
    us, vs = [], []
    for k in range(100):
        us.append(ua)
        vs.append(va)
        ua, va = st.step_arrays(ua, va, k * dt)
        ub, vb = st.step_arrays(ub, vb, k * dt)
    tu, tv = np.split(st.tangent_steps(us, vs, np.concatenate((du, dv))), 2)
    fd_u = (ub - ua) / eps
    fd_v = (vb - va) / eps
    num = math.hypot(np.linalg.norm(fd_u - tu), np.linalg.norm(fd_v - tv))
    den = math.hypot(np.linalg.norm(tu), np.linalg.norm(tv))
    assert num / den < 1e-4


def _reference_series(f0, p, d, T, renorm_interval, dt, rng):
    """largest_lyapunov's running estimate, one step at a time: the tangent
    by the IMEX map's linearization at each state, with the public Jacobian
    and one solve per field, then the state by step_arrays."""
    g = f0.grid
    steps_per = max(1, math.ceil(renorm_interval / dt))
    dt = renorm_interval / steps_per
    n_renorm = math.ceil(T / renorm_interval)
    st = ImexStepper(g, p, d, dt)
    fu, fv = _TriFactor(g.N, g.dx, dt), _TriFactor(g.N, g.dx, dt * d)
    u, v = f0.u.copy(), f0.v.copy()
    du, dv = rng.standard_normal(g.N), rng.standard_normal(g.N)
    nrm = math.hypot(np.linalg.norm(du), np.linalg.norm(dv))
    du, dv = du / nrm, dv / nrm
    logs, t = [], f0.t
    for _ in range(n_renorm):
        for _ in range(steps_per):
            a10, a01, b10, b01 = jacobian_fields(u, v, p)
            du, dv = (fu.solve(du + dt * (a10 * du + a01 * dv)),
                      fv.solve(dv + dt * (b10 * du + b01 * dv)))
            u, v = st.step_arrays(u, v, t)
            t += dt
        growth = math.hypot(np.linalg.norm(du), np.linalg.norm(dv))
        logs.append(math.log(growth))
        du, dv = du / growth, dv / growth
    kept = np.array(logs[n_renorm - kept_renormalizations(T, renorm_interval):])
    return np.cumsum(kept) / (renorm_interval * np.arange(1, kept.size + 1))


@pytest.mark.parametrize("renorm_interval,dt,T,stored", [
    (1.0, 0.05, 250.0, None),  # 20 steps per interval, one run
    (0.05, 0.05, 40.0, None),  # one step per interval
    (1.0, 0.05, 250.0, 3),  # runs of 3 states: 6 runs of 3, then 2
    (1.0, 0.05, 250.0, 0),  # runs of one state
], ids=["steps-per-interval", "interval-is-dt", "runs-of-3", "runs-of-1"])
def test_lyapunov_is_the_step_by_step_tangent_bit_for_bit(
        p_main, monkeypatch, renorm_interval, dt, T, stored):
    # the per-interval Jacobian block and the stacked solve give the
    # growth factors of the step-by-step tangent to the last bit
    p = p_main.with_sigma(2.2)
    g = Grid(L=20.0, N=32)
    e = coexisting_equilibria(p)[-1]
    rng = np.random.default_rng(5)
    f0 = Field(g, e.u + 1e-3 * rng.standard_normal(g.N),
               e.v + 1e-3 * rng.standard_normal(g.N), 0.0)
    if stored is not None:
        monkeypatch.setattr(diagnostics, "STORED_VALUES", stored * 2 * g.N)
    runs = []
    tangent_steps = ImexStepper.tangent_steps

    def spy(self, us, vs, w):
        runs.append(len(us))
        return tangent_steps(self, us, vs, w)

    monkeypatch.setattr(ImexStepper, "tangent_steps", spy)
    res = largest_lyapunov(f0, p, 46.0, T, renorm_interval, dt=dt,
                           rng=np.random.default_rng(9))
    monkeypatch.undo()
    ref = _reference_series(f0, p, 46.0, T, renorm_interval, dt,
                            np.random.default_rng(9))
    assert np.array_equal(res.convergence_series.view(np.uint64),
                          ref.view(np.uint64))
    assert res.lambda_max == ref[-1]
    # the held states never pass the cap, and every step is linearized
    steps_per = math.ceil(renorm_interval / dt)
    per_run = {None: steps_per, 3: 3, 0: 1}[stored]
    assert max(runs) == per_run
    assert sum(runs) == steps_per * math.ceil(T / renorm_interval)


def test_lyapunov_step_never_exceeds_dt(p_main):
    # dt = 0.03 takes ceil(1/0.03) = 34 steps per unit interval, as
    # dt = 1/34 does; rounding to 33 would step past the configured dt
    p = p_main.with_sigma(2.2)
    g = Grid(L=20.0, N=32)
    e = coexisting_equilibria(p)[-1]
    f0 = Field(g, np.full(g.N, e.u * 1.01), np.full(g.N, e.v * 0.99), 0.0)
    lam = {dt: largest_lyapunov(f0, p, 46.0, T=250.0, dt=dt).lambda_max
           for dt in (0.03, 1 / 34, 1 / 33)}
    assert lam[0.03] == lam[1 / 34] != lam[1 / 33]


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
        largest_lyapunov(f0, p_main, 46.0, T=50.0, dt=0.05)
    with pytest.raises(ValueError):
        largest_lyapunov(f0, p_main, 46.0, T=250.0, renorm_interval=-1.0,
                         dt=0.05)


def test_lyapunov_on_a_limit_cycle_does_not_settle():
    # sigma=1.82 lies in the cycle window below the Hopf point and the short
    # domain damps every spatial mode; the leading exponent is the zero one
    # along the cycle, so the running estimate keeps swinging about zero
    p = KineticParams(alpha=0.07, beta=0.2, gamma=1.2, sigma=1.82, eta=0.1)
    g = Grid(L=1.0, N=16)
    f0 = Field(g, np.full(g.N, 0.69), np.full(g.N, 0.16), 0.0)
    with pytest.raises(NoConvergence, match="has not settled"):
        largest_lyapunov(f0, p, 46.0, T=250.0, dt=0.05)
