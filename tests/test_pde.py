"""Simulator tests: discrete operators, steppers, IC constructors, fronts."""

import math

import numpy as np
import pytest

from alleekit.errors import BadSupport, Inconclusive, NoCrossing, NonFinite
from alleekit.model import axial_equilibria, coexisting_equilibria
from alleekit.pde import (
    AsymptoticKind,
    Field,
    Grid,
    ICKind,
    ImexStepper,
    Recorder,
    StrangStepper,
    _TriFactor,
    _dominant_period,
    apply_laplacian,
    classify_asymptotic,
    default_dt,
    default_grid_size,
    front_position,
    l2_norm,
    laplacian_bands,
    make_ic,
    make_stepper,
    measure_front_speed,
    run,
    trapezoid_mass,
)

D_REF = 46.0


def _mid_level(p):
    e = coexisting_equilibria(p)[-1]
    u1 = max(a.u for a in axial_equilibria(p))
    return 0.5 * (e.u + u1)


def test_grid_validation():
    g = Grid(L=200.0, N=512)
    assert g.dx == pytest.approx(200.0 / 511)
    assert g.x[0] == 0.0 and g.x[-1] == 200.0
    with pytest.raises(ValueError):
        Grid(L=200.0, N=15)
    with pytest.raises(ValueError):
        Grid(L=0.0, N=64)


def test_field_shape_checked():
    g = Grid(L=10.0, N=16)
    with pytest.raises(ValueError):
        Field(g, np.zeros(8), np.zeros(16))


def test_laplacian_annihilated_by_trapezoid_weights(rng):
    # the reflected end rows are exactly what makes the weights a left kernel
    g = Grid(L=7.0, N=64)
    w = rng.uniform(-1.0, 2.0, g.N)
    assert abs(trapezoid_mass(apply_laplacian(w, g.dx), g.dx)) < 1e-12


def test_laplacian_cosine_eigenvector():
    g = Grid(L=10.0, N=128)
    j = 3
    w = np.cos(j * np.pi * g.x / g.L)
    kappa = 2.0 * (1.0 - math.cos(j * math.pi / (g.N - 1))) / g.dx ** 2
    assert np.allclose(apply_laplacian(w, g.dx), -kappa * w, atol=1e-10)


def _band_matvec(bands, w):
    lower, diag, upper = bands
    out = diag * w
    out[:-1] += upper * w[1:]
    out[1:] += lower * w[:-1]
    return out


def test_laplacian_bands_match_stencil(rng):
    g = Grid(L=7.0, N=64)
    w = rng.uniform(-1.0, 2.0, g.N)
    ref = apply_laplacian(w, g.dx)
    for coef in (1.0, 46.0, 0.0125):
        got = _band_matvec(laplacian_bands(g.N, g.dx, coef), w)
        scale = coef * np.abs(ref).max()
        assert np.abs(got - coef * ref).max() < 1e-13 * scale
        # the reflected end rows couple to their one neighbour at twice weight
        assert got[0] == pytest.approx(coef * 2.0 * (w[1] - w[0]) / g.dx ** 2,
                                       rel=1e-13)
        assert got[-1] == pytest.approx(coef * 2.0 * (w[-2] - w[-1]) / g.dx ** 2,
                                        rel=1e-13)


def test_tri_factor_inverts_implicit_diffusion(rng):
    g = Grid(L=7.0, N=64)
    b = rng.standard_normal(g.N)
    for coef in (0.05, 2.3):
        x = _TriFactor(g.N, g.dx, coef).solve(b)
        back = x - coef * apply_laplacian(x, g.dx)
        assert np.abs(back - b).max() < 1e-12 * (1.0 + np.abs(x).max())


def test_ic_perturbed_amplitude_zero_is_constant(p_main):
    g = Grid(L=200.0, N=256)
    e = coexisting_equilibria(p_main)[-1]
    f = make_ic(ICKind.PERTURBED_HOMOGENEOUS, g, p_main, amplitude=0.0)
    assert np.all(f.u == e.u) and np.all(f.v == e.v)


def test_ic_perturbed_needs_rng(p_main):
    g = Grid(L=200.0, N=256)
    with pytest.raises(ValueError):
        make_ic("perturbed_homogeneous", g, p_main)


def test_ic_perturbed_is_seed_deterministic(p_main):
    g = Grid(L=200.0, N=256)
    f1 = make_ic("perturbed_homogeneous", g, p_main, rng=np.random.default_rng(5))
    f2 = make_ic("perturbed_homogeneous", g, p_main, rng=np.random.default_rng(5))
    assert np.array_equal(f1.u, f2.u) and np.array_equal(f1.v, f2.v)
    assert f1.u.min() >= 0.0 and f1.v.min() >= 0.0


def test_ic_invasion_step_levels(p_main):
    g = Grid(L=2000.0, N=2048)
    f = make_ic("invasion_step", g, p_main)
    e = coexisting_equilibria(p_main)[-1]
    left = g.x < 200.0
    assert np.all(f.u[left] == e.u) and np.all(f.v[left] == e.v)
    assert np.all(f.v[~left] == 0.0)
    assert f.u[left][0] == pytest.approx(0.7291, abs=1e-4)
    assert f.u[~left][0] == pytest.approx(0.9615, abs=1e-4)


def test_ic_center_pulse_support(p_main):
    g = Grid(L=1000.0, N=2048)
    f = make_ic("center_pulse", g, p_main, rng=np.random.default_rng(3))
    inside = (g.x >= 495.0) & (g.x <= 505.0)
    assert np.all(f.u[~inside] == 0.0) and np.all(f.v[~inside] == 0.0)
    e = coexisting_equilibria(p_main)[-1]
    assert np.allclose(f.u[inside], e.u, atol=0.05)
    assert np.allclose(f.v[inside], e.v, atol=0.05)


def test_ic_center_pulse_bad_window(p_main):
    g = Grid(L=100.0, N=256)
    with pytest.raises(BadSupport):
        make_ic("center_pulse", g, p_main, rng=np.random.default_rng(1),
                window=(495.0, 505.0))
    with pytest.raises(BadSupport):
        make_ic("invasion_step", g, p_main, interface=150.0)


@pytest.mark.parametrize("scheme", ["imex1", "strang"])
def test_equilibria_are_fixed_points(p_main, scheme):
    g = Grid(L=50.0, N=128)
    e = coexisting_equilibria(p_main)[-1]
    u1 = max(a.u for a in axial_equilibria(p_main))
    for uc, vc in [(e.u, e.v), (u1, 0.0), (0.0, 0.0)]:
        f = Field(g, np.full(g.N, uc), np.full(g.N, vc))
        st = make_stepper(g, p_main, D_REF, 0.05, scheme=scheme)
        un, vn = st.step_arrays(f.u, f.v, f.t)
        assert np.abs(un - uc).max() < 1e-12
        assert np.abs(vn - vc).max() < 1e-12


@pytest.mark.parametrize("scheme", ["imex1", "strang"])
def test_pure_diffusion_conserves_mass(p_main, rng, scheme):
    g = Grid(L=30.0, N=256)
    u = rng.uniform(0.1, 1.0, g.N)
    v = rng.uniform(0.0, 0.6, g.N)
    st = make_stepper(g, p_main, D_REF, 0.5, scheme=scheme, include_reaction=False)
    mu, mv = trapezoid_mass(u, g.dx), trapezoid_mass(v, g.dx)
    for _ in range(20):
        un, vn = st.step_arrays(u, v, 0.0)
        assert abs(trapezoid_mass(un, g.dx) - mu) < 1e-10
        assert abs(trapezoid_mass(vn, g.dx) - mv) < 1e-10
        u, v = un, vn


def test_cosine_mode_decay_rate(p_main):
    # both schemes must track the heat-kernel rate within 1%
    g = Grid(L=10.0, N=512)
    j = 1
    k_j = (j * math.pi / g.L) ** 2
    u0 = 1.0 + 0.1 * np.cos(j * np.pi * g.x / g.L)
    for scheme, dt in [("imex1", 0.05), ("strang", 0.1)]:
        st = make_stepper(g, p_main, 1.0, dt, scheme=scheme, include_reaction=False)
        u, v = u0.copy(), np.ones(g.N)
        n = int(round(10.0 / dt))
        for _ in range(n):
            u, v = st.step_arrays(u, v, 0.0)
        rate = -math.log((u - 1.0).max() / 0.1) / (n * dt)
        assert abs(rate - k_j) / k_j < 0.01


def test_strang_is_second_order(p_main):
    # halving dt should cut the error by about 4 on a smooth solution
    g = Grid(L=20.0, N=128)
    e = coexisting_equilibria(p_main)[-1]
    u0 = e.u + 0.05 * np.cos(np.pi * g.x / g.L)
    v0 = e.v + 0.02 * np.cos(2 * np.pi * g.x / g.L)
    T = 1.0

    def final(dt):
        st = StrangStepper(g, p_main, D_REF, dt)
        u, v = u0.copy(), v0.copy()
        for _ in range(int(round(T / dt))):
            u, v = st.step_arrays(u, v, 0.0)
        return u

    ref = final(0.00125)
    e1 = np.abs(final(0.02) - ref).max()
    e2 = np.abs(final(0.01) - ref).max()
    assert e1 / e2 > 3.0


def test_nonfinite_blowup_raises(p_main):
    g = Grid(L=10.0, N=32)
    f = Field(g, np.full(g.N, 1e200), np.zeros(g.N))
    st = ImexStepper(g, p_main, D_REF, 0.05)
    with pytest.raises(NonFinite):
        st.step_arrays(f.u, f.v, f.t)


def test_default_dt_rule():
    g = Grid(L=200.0, N=1024)
    assert default_dt(g, 46.0) == pytest.approx(0.2 * g.dx ** 2 / 46.0)
    g2 = Grid(L=200.0, N=32)
    assert default_dt(g2, 0.5) == 0.05


def test_default_grid_size_floor(p_main):
    assert default_grid_size(p_main.with_sigma(1.8), D_REF, 200.0) >= 512
    # no unstable band at sigma=2.7, the floor still applies
    assert default_grid_size(p_main, D_REF, 200.0) == 512


def test_run_records_and_positivity(p_main):
    g = Grid(L=50.0, N=128)
    f0 = make_ic("perturbed_homogeneous", g, p_main, amplitude=1e-3,
                 rng=np.random.default_rng(11))
    rec = run(f0, p_main, D_REF, 20.0, Recorder(series_every=0.5, snapshot_every=5.0),
              dt=0.05)
    assert rec.times[0] == 0.0 and rec.times[-1] == pytest.approx(20.0)
    assert rec.snap_times[0] == 0.0 and rec.snap_times[-1] == pytest.approx(20.0)
    assert rec.min_value >= -1e-12
    assert rec.snap_u.shape[1] == g.N
    # sigma=2.7 is above every instability threshold: noise dies out
    assert rec.var_u[-1] < rec.var_u[0]


def test_run_homogeneous_relaxation_classified(p_main):
    g = Grid(L=50.0, N=128)
    f0 = make_ic("perturbed_homogeneous", g, p_main, amplitude=1e-3,
                 rng=np.random.default_rng(11))
    rec = run(f0, p_main, D_REF, 400.0, Recorder(series_every=0.5), dt=0.05)
    assert classify_asymptotic(rec, 100.0) is AsymptoticKind.HOMOGENEOUS
    e = coexisting_equilibria(p_main)[-1]
    assert rec.u_av[-1] == pytest.approx(e.u, abs=1e-5)


def test_classify_oscillatory_on_homogeneous_cycle(p_main):
    # small domain, d=1: no band, the whole field locks onto the limit cycle;
    # the near-heteroclinic passes make the period hypersensitive to time
    # discretization error, so this runs the second-order scheme
    p = p_main.with_sigma(1.8)
    g = Grid(L=10.0, N=64)
    f0 = make_ic("perturbed_homogeneous", g, p, amplitude=0.05,
                 rng=np.random.default_rng(2))
    rec = run(f0, p, 1.0, 1400.0, Recorder(series_every=0.25), dt=0.05,
              scheme="strang")
    assert classify_asymptotic(rec, 400.0) is AsymptoticKind.OSCILLATORY
    per = _dominant_period(rec.times[rec.times > 1000.0],
                           rec.u_av[rec.times > 1000.0])
    assert per == pytest.approx(65.24, rel=0.01)


def test_classify_window_too_long_raises(p_main):
    g = Grid(L=50.0, N=128)
    f0 = make_ic("perturbed_homogeneous", g, p_main, amplitude=0.0)
    rec = run(f0, p_main, D_REF, 5.0, Recorder(series_every=0.5), dt=0.05)
    with pytest.raises(Inconclusive):
        classify_asymptotic(rec, 50.0)


def test_dominant_period_pure_tone_and_drift():
    t = np.linspace(0.0, 100.0, 2001)
    per = _dominant_period(t, np.cos(2 * np.pi * t / 12.5))
    assert per == pytest.approx(12.5, rel=1e-3)
    assert _dominant_period(t, 0.01 * t) is None
    assert _dominant_period(t, np.zeros_like(t)) is None


def test_mass_bounds_of_long_run(p_main):
    # averages obey the large-time bounds with the stated slack
    g = Grid(L=50.0, N=128)
    f0 = make_ic("perturbed_homogeneous", g, p_main, amplitude=1e-2,
                 rng=np.random.default_rng(4))
    rec = run(f0, p_main, D_REF, 200.0, Recorder(series_every=1.0), dt=0.05)
    u1 = max(a.u for a in axial_equilibria(p_main))
    p = p_main
    vb = p.gamma * (1.0 + p.sigma / 4.0 - p.eta) * u1
    tail = rec.times > 100.0
    assert np.all(rec.u_av[tail] <= u1 + 0.01)
    assert np.all(rec.v_av[tail] <= vb + 0.01)


def test_subthreshold_prey_goes_extinct(p_main):
    # sup u0 below the lower axial state wipes out both populations
    g = Grid(L=50.0, N=128)
    u2 = min(a.u for a in axial_equilibria(p_main))
    u0 = 0.8 * u2 * np.exp(-((g.x - 25.0) / 8.0) ** 2)
    v0 = 0.02 * np.ones(g.N)
    rec = run(Field(g, u0, v0), p_main, D_REF, 300.0, Recorder(series_every=2.0),
              dt=0.05)
    assert rec.snap_u[-1].max() < 1e-6
    assert rec.snap_v[-1].max() < 1e-6


def test_front_position_interpolates(p_main):
    g = Grid(L=100.0, N=256)
    u = np.where(g.x < 40.3, 0.2, 0.9)
    f = Field(g, u, np.zeros(g.N))
    pos = front_position(f, 0.5)
    i = int(np.searchsorted(g.x, 40.3)) - 1
    assert g.x[i] <= pos <= g.x[i + 1]
    with pytest.raises(NoCrossing):
        front_position(Field(g, np.full(g.N, 0.9), np.zeros(g.N)), 0.5)


def test_front_speed_stationary_is_zero(p_main):
    g = Grid(L=100.0, N=256)
    u = np.where(g.x < 50.0, 0.2, 0.9)
    f0 = Field(g, u, np.zeros(g.N))
    # diffusion alone smooths the step without transporting the midpoint
    rec = run(f0, p_main, D_REF, 4.0, Recorder(snapshot_every=1.0), dt=0.05,
              include_reaction=False)
    sp = measure_front_speed(rec, 0.55, (0.0, 4.0))
    assert abs(sp) < 1e-8
    with pytest.raises(ValueError):
        measure_front_speed(rec, 0.55, (100.0, 200.0))


def test_invasion_front_speed_near_cmin(p_main):
    # the selected front crawls up to the linear spreading speed from below
    g = Grid(L=2000.0, N=4096)
    f0 = make_ic("invasion_step", g, p_main)
    rec = run(f0, p_main, D_REF, 300.0, Recorder(series_every=2.0, snapshot_every=4.0),
              dt=0.05)
    assert rec.min_value >= -1e-12
    sp = measure_front_speed(rec, _mid_level(p_main), (200.0, 300.0))
    c_min = 4.6707
    assert c_min - 0.15 <= sp <= c_min + 0.2


def test_l2_norm_of_constant():
    g = Grid(L=200.0, N=512)
    assert l2_norm(np.full(g.N, 0.5), g.dx) == pytest.approx(0.5 * math.sqrt(200.0))
