"""Simulator tests: discrete operators, steppers, IC constructors, fronts."""

import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from alleekit.errors import Inconclusive, NonFinite, NoRoot, OutOfRange
from alleekit.model import (KineticParams, axial_equilibria, coexisting_equilibria,
                            jacobian_fields, kinetics)
from alleekit.pde import (
    _SCHEMES,
    DERIV_TOL,
    VARIANCE_TOL,
    AsymptoticKind,
    Field,
    Grid,
    ICKind,
    ImexStepper,
    Recorder,
    SpaceTimeRecord,
    StrangStepper,
    _TriFactor,
    _dominant_period,
    _laplacian_into,
    classify_asymptotic,
    default_dt,
    default_grid_size,
    l2_norm,
    laplacian_bands,
    make_ic,
    neumann_symbol,
    run,
    semidiscrete_rhs,
    trapezoid_mass,
)
from alleekit.waves import c_min

D_REF = 46.0


def apply_laplacian(w, dx):
    """The discrete Neumann Laplacian of w, in a new array: the operator
    that the steppers, ``semidiscrete_rhs`` and ``laplacian_bands`` share."""
    return _laplacian_into(w, dx, np.empty_like(w))


def _same_bits(a, b) -> bool:
    """Equal to the last bit, signed zeros included."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _front_position(f, level: float) -> float:
    """Leftmost crossing of the prey profile through the level, interpolated."""
    s = f.u - level
    prod = s[:-1] * s[1:]
    hits = np.nonzero(prod <= 0.0)[0]
    if hits.size == 0:
        raise NoRoot(f"prey profile never crosses level {level}")
    i = int(hits[0])
    if s[i] == 0.0:
        return float(f.grid.x[i])
    return float(f.grid.x[i] + f.grid.dx * s[i] / (s[i] - s[i + 1]))


def _measure_front_speed(record, level: float, window: tuple[float, float]) -> float:
    """Least-squares slope of front position against time over the window."""
    t_lo, t_hi = window
    mask = (record.snap_times >= t_lo) & (record.snap_times <= t_hi)
    if int(mask.sum()) < 2:
        raise ValueError("front-speed window must contain at least two snapshots")
    xs = [_front_position(Field(record.grid, u, v), level)
          for u, v in zip(record.snap_u[mask], record.snap_v[mask])]
    return float(np.polyfit(record.snap_times[mask], np.asarray(xs), 1)[0])


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


@pytest.mark.parametrize("L", [2.0 ** -510 * 15, 2.0 ** 510 * 15])
def test_grid_spacing_squares_to_a_normal_float_at_both_ends(L):
    g = Grid(L=L, N=16)
    assert sys.float_info.min <= g.dx * g.dx <= sys.float_info.max
    assert math.isfinite(1.0 / (g.dx * g.dx))


@pytest.mark.parametrize("L", [1e-300, 2.0 ** -510 * 15 * 0.99,
                               2.0 ** 511 * 15, 1e300])
def test_grid_spacing_that_squares_out_of_range_is_refused(L):
    # dx*dx would be 0, subnormal or inf, and each Laplacian divides by it
    with pytest.raises(OutOfRange, match="squares out of the float range"):
        Grid(L=L, N=16)


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


@pytest.mark.parametrize("n", [16, 257, 1024])
def test_neumann_symbol_is_the_exact_spectrum(n):
    # column j holds cos(j pi x_i / L), with j*i reduced mod 2(n-1) so the
    # samples are exact to rounding; end rows included, every j < n; the
    # error is relative to the operator's norm 4/dx^2
    g = Grid(L=200.0, N=n)
    i = np.arange(n)
    w = np.cos(np.outer(i, i) % (2 * (n - 1)) * (math.pi / (n - 1)))
    kappa = neumann_symbol(n, g.dx)
    err = np.abs(apply_laplacian(w, g.dx) + kappa * w).max()
    assert err < 1e-12 * 4.0 / g.dx ** 2
    assert kappa[0] == 0.0 and np.all(np.diff(kappa) > 0.0)


@pytest.mark.parametrize("j", [0, 3, 17, 128])
def test_imex_steps_multiply_a_mode_by_its_amplification_matrix(p_main, j):
    # exact oracle: the sampled cosine is an eigenvector of the discrete
    # Laplacian, so ten IMEX steps from E* + eps*cos(j pi x/L)*(a, b) leave
    # M_j**10 eps (a, b) on it, M_j = (I + dt kappa_j diag(1, d))^-1
    # (I + dt J), up to the O(eps) relative nonlinear remainder
    n, dt, eps = 129, 0.05, 1e-7
    g = Grid(L=200.0, N=n)
    e = coexisting_equilibria(p_main)[-1]
    i = np.arange(n)
    mode = np.cos(i * j % (2 * (n - 1)) * (math.pi / (n - 1)))
    ab = np.array([1.0, -0.5])
    u, v = e.u + eps * ab[0] * mode, e.v + eps * ab[1] * mode
    st = ImexStepper(g, p_main, D_REF, dt)
    for step in range(10):
        u, v = st.step_arrays(u, v, step * dt)

    kappa = neumann_symbol(n, g.dx)[j]
    jac = np.array(jacobian_fields(e.u, e.v, p_main)).reshape(2, 2)
    amp = np.linalg.solve(np.diag([1.0 + dt * kappa, 1.0 + dt * kappa * D_REF]),
                          np.eye(2) + dt * jac)
    cu, cv = np.linalg.matrix_power(amp, 10) @ (eps * ab)
    got = np.concatenate((u - e.u, v - e.v))
    want = np.concatenate((cu * mode, cv * mode))
    assert np.abs(got - want).max() < 1e-6 * np.abs(want).max()


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


@pytest.mark.parametrize("n", [16, 257, 2048])
@pytest.mark.parametrize("coef", [0.0125, 0.05, 2.3])
def test_tri_factor_matches_a_dense_solve(rng, n, coef):
    # oracle: the dense I - c*Laplacian from the same bands, for each block
    # of a two-block factor (c = coef, then 0.5*coef); each block's rows
    # are the block's own factor's solve to the bit, and the right-hand
    # side is read, never written
    g = Grid(L=200.0, N=n)
    coefs = (coef, 0.5 * coef)
    factor = _TriFactor(n, g.dx, *coefs)
    b = rng.standard_normal(2 * n)
    kept = b.copy()
    x = factor.solve(b)
    assert _same_bits(b, kept)
    for k, c in enumerate(coefs):
        rows = slice(k * n, (k + 1) * n)
        lower, diag, upper = laplacian_bands(n, g.dx, c)
        dense = np.eye(n) - (np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1))
        block = _TriFactor(n, g.dx, c)
        assert _same_bits(x[rows], block.solve(b[rows]))
        ref = np.linalg.solve(dense, b[rows])
        assert np.abs(x[rows] - ref).max() < 1e-13 * np.abs(ref).max()


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
    # the pulse window [L/2 - 5, L/2 + 5] needs L >= 10
    g = Grid(L=8.0, N=16)
    with pytest.raises(OutOfRange, match="does not fit inside"):
        make_ic("center_pulse", g, p_main, rng=np.random.default_rng(1))


@pytest.mark.parametrize("scheme", ["imex1", "strang"])
def test_equilibria_are_fixed_points(p_main, scheme):
    g = Grid(L=50.0, N=128)
    e = coexisting_equilibria(p_main)[-1]
    u1 = max(a.u for a in axial_equilibria(p_main))
    for uc, vc in [(e.u, e.v), (u1, 0.0), (0.0, 0.0)]:
        f = Field(g, np.full(g.N, uc), np.full(g.N, vc))
        st = _SCHEMES[scheme](g, p_main, D_REF, 0.05)
        un, vn = st.step_arrays(f.u, f.v, f.t)
        assert np.abs(un - uc).max() < 1e-12
        assert np.abs(vn - vc).max() < 1e-12


def test_run_refuses_an_unknown_scheme(p_main):
    f0 = make_ic("invasion_step", Grid(L=50.0, N=16), p_main)
    with pytest.raises(ValueError, match="unknown scheme 'rk4'"):
        run(f0, p_main, D_REF, 1.0, dt=0.05, scheme="rk4")


def _diffusion_stepper(cls, g, p, d, dt):
    """A pure-diffusion step of the scheme of cls: the IMEX step without
    the reaction, or Strang's two Crank-Nicolson half-steps."""
    if cls is ImexStepper:
        st = ImexStepper(g, p, d, dt, include_reaction=False)
        return lambda u, v: st.step_arrays(u, v, 0.0)
    st = cls(g, p, d, dt)

    def step(u, v):
        x = st._half_diffuse(u, v)
        x = st._half_diffuse(x[:g.N], x[g.N:])
        return x[:g.N], x[g.N:]
    return step


@pytest.mark.parametrize("scheme", ["imex1", "strang"])
def test_pure_diffusion_conserves_mass(p_main, rng, scheme):
    g = Grid(L=30.0, N=256)
    u = rng.uniform(0.1, 1.0, g.N)
    v = rng.uniform(0.0, 0.6, g.N)
    step = _diffusion_stepper(_SCHEMES[scheme], g, p_main, D_REF, 0.5)
    mu, mv = trapezoid_mass(u, g.dx), trapezoid_mass(v, g.dx)
    for _ in range(20):
        un, vn = step(u, v)
        assert abs(trapezoid_mass(un, g.dx) - mu) < 1e-10
        assert abs(trapezoid_mass(vn, g.dx) - mv) < 1e-10
        u, v = un, vn


def test_cosine_mode_decay_rate(p_main):
    # both schemes must track the heat-kernel rate within 1%
    g = Grid(L=10.0, N=512)
    j = 1
    k_j = (j * math.pi / g.L) ** 2
    u0 = 1.0 + 0.1 * np.cos(j * np.pi * g.x / g.L)
    for cls, dt in [(ImexStepper, 0.05), (StrangStepper, 0.1)]:
        step = _diffusion_stepper(cls, g, p_main, 1.0, dt)
        u, v = u0.copy(), np.ones(g.N)
        n = int(round(10.0 / dt))
        for _ in range(n):
            u, v = step(u, v)
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
    assert rec.snap_u.shape[1] == g.N
    # sigma=2.7 is above every instability threshold: noise dies out
    assert rec.var_u[-1] < rec.var_u[0]
    # the same 400 steps, taken one at a time, stay nonnegative after each
    st = ImexStepper(g, p_main, D_REF, 0.05)
    u, v = f0.u, f0.v
    for k in range(400):
        u, v = st.step_arrays(u, v, k * 0.05)
        assert min(u.min(), v.min()) >= -1e-12
    np.testing.assert_array_equal(u, rec.final.u)
    np.testing.assert_array_equal(v, rec.final.v)


@pytest.mark.parametrize("scheme", ["imex1", "strang"])
def test_series_cadence_leaves_trajectory_unchanged(p_main, scheme):
    # sampling never feeds back into stepping, so a run sampled only at
    # its ends finishes on the very same state
    g = Grid(L=50.0, N=128)
    f0 = make_ic("perturbed_homogeneous", g, p_main, amplitude=1e-3,
                 rng=np.random.default_rng(11))
    sparse = run(f0, p_main, D_REF, 10.0, Recorder(series_every=10.0),
                 dt=0.05, scheme=scheme)
    dense = run(f0, p_main, D_REF, 10.0, dt=0.05, scheme=scheme)
    assert sparse.times.tolist() == [0.0, 10.0]
    assert dense.times.size == 201
    assert np.array_equal(sparse.final.u, dense.final.u)
    assert np.array_equal(sparse.final.v, dense.final.v)
    assert sparse.final.t == dense.final.t


@pytest.mark.parametrize("scheme", ["imex1", "strang"])
def test_series_is_the_public_formulas_bit_for_bit(p_main, scheme):
    # a snapshot every step, so each series row has its state beside it;
    # the run reuses its sample buffers from row to row
    g = Grid(L=50.0, N=128)
    f0 = make_ic("perturbed_homogeneous", g, p_main, amplitude=1e-2,
                 rng=np.random.default_rng(11))
    rec = run(f0, p_main, D_REF, 2.0, Recorder(snapshot_every=0.05), dt=0.05,
              scheme=scheme)
    assert rec.times.size == rec.snap_times.size == 41
    assert _same_bits(rec.times, rec.snap_times)
    for k, (u, v) in enumerate(zip(rec.snap_u, rec.snap_v)):
        du, dv = semidiscrete_rhs(u, v, p_main, D_REF, g.dx,
                                  kinetics(u, v, p_main))
        assert _same_bits(rec.u_av[k], trapezoid_mass(u, g.dx) / g.L)
        assert _same_bits(rec.v_av[k], trapezoid_mass(v, g.dx) / g.L)
        assert _same_bits(rec.var_u[k], np.var(u))
        assert _same_bits(rec.dudt_sup[k],
                          np.maximum(np.abs(du).max(), np.abs(dv).max()))


def test_imex_and_tangent_steps_match_separate_solves(p_main, rng):
    # the one solve of both fields is each field's own solve to the bit,
    # for the state step and for the tangent step at the same state
    g = Grid(L=20.0, N=64)
    st = ImexStepper(g, p_main, D_REF, 0.02)
    fu, fv = _TriFactor(g.N, g.dx, 0.02), _TriFactor(g.N, g.dx, 0.02 * D_REF)
    e = coexisting_equilibria(p_main)[-1]
    u = e.u + 0.01 * rng.standard_normal(g.N)
    v = e.v + 0.01 * rng.standard_normal(g.N)
    du, dv = rng.standard_normal(g.N), rng.standard_normal(g.N)
    f1, f2 = kinetics(u, v, p_main)
    un, vn = st.step_arrays(u, v, 0.0)
    assert _same_bits(un, fu.solve(u + 0.02 * f1))
    assert _same_bits(vn, fv.solve(v + 0.02 * f2))
    dun, dvn = np.split(st.tangent_steps([u], [v], np.concatenate((du, dv))), 2)
    a10, a01, b10, b01 = jacobian_fields(u, v, p_main)
    assert _same_bits(dun, fu.solve(du + 0.02 * (a10 * du + a01 * dv)))
    assert _same_bits(dvn, fv.solve(dv + 0.02 * (b10 * du + b01 * dv)))


def test_tangent_steps_linearize_the_step_as_configured(p_main, rng):
    # a run of tangent steps is the run of one-state tangent steps, and
    # without reaction the step is linear, so its tangent map is the step
    g = Grid(L=20.0, N=64)
    e = coexisting_equilibria(p_main)[-1]
    u = e.u + 0.01 * rng.standard_normal(g.N)
    v = e.v + 0.01 * rng.standard_normal(g.N)
    w = rng.standard_normal(2 * g.N)
    reacting = ImexStepper(g, p_main, D_REF, 0.02)
    us, vs, one = [], [], w
    for k in range(5):
        us.append(u)
        vs.append(v)
        one = reacting.tangent_steps([u], [v], one)
        u, v = reacting.step_arrays(u, v, k * 0.02)
    assert _same_bits(reacting.tangent_steps(us, vs, w), one)
    diffusing = ImexStepper(g, p_main, D_REF, 0.02, include_reaction=False)
    du, dv = np.split(w, 2)
    for _ in range(5):
        du, dv = diffusing.step_arrays(du, dv, 0.0)
    assert _same_bits(diffusing.tangent_steps(us, vs, w), np.concatenate((du, dv)))


@pytest.mark.parametrize("alpha", [0.07, 0.0])
def test_stepper_kinetics_match_the_scalar_path_bit_for_bit(alpha, rng):
    # the steppers' kernel holds its buffers, so it is called on a
    # generic state first: the alpha = 0 origin node of the second state
    # must then read 0, not what the first call left there
    p = KineticParams(alpha=alpha, beta=0.2, gamma=1.2, sigma=2.7, eta=0.1)
    g = Grid(L=50.0, N=257)
    kin = ImexStepper(g, p, D_REF, 0.05)._kinetics
    u = rng.uniform(-1e-3, 1.3, g.N)
    v = rng.uniform(-1e-3, 0.8, g.N)
    u[0] = v[0] = 0.0
    for state in ((u[::-1].copy(), v[::-1].copy()), (u, v)):
        fused = [x.copy() for x in kin.rates(*state) + kin.derivatives(*state)]
        scalar = [kinetics(a, b, p) + jacobian_fields(a, b, p)
                  for a, b in zip(state[0].tolist(), state[1].tolist())]
        assert all(_same_bits(x, y) for x, y in zip(fused, zip(*scalar)))
    assert all(_same_bits(x, y) for x, y in zip(kin.rates(u, v), fused))
    assert all(_same_bits(x, y) for x, y in zip(kin.derivatives(u, v), fused[2:]))
    if alpha == 0.0:
        assert [x[0] for x in fused] == [0.0, 0.0, -p.eta, 0.0, 0.0, -1.0]


def test_strang_step_is_rk4_of_public_kinetics(p_main, rng):
    g = Grid(L=50.0, N=257)
    st = StrangStepper(g, p_main, D_REF, 0.05)
    e = coexisting_equilibria(p_main)[-1]
    u = e.u + 0.05 * rng.standard_normal(g.N)
    v = e.v + 0.05 * rng.standard_normal(g.N)
    dt = st.dt
    hu, hv = np.split(st._half_diffuse(u, v), 2)
    k1u, k1v = kinetics(hu, hv, p_main)
    k2u, k2v = kinetics(hu + 0.5 * dt * k1u, hv + 0.5 * dt * k1v, p_main)
    k3u, k3v = kinetics(hu + 0.5 * dt * k2u, hv + 0.5 * dt * k2v, p_main)
    k4u, k4v = kinetics(hu + dt * k3u, hv + dt * k3v, p_main)
    ru = hu + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    rv = hv + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    ref_u, ref_v = np.split(st._half_diffuse(ru, rv), 2)
    un, vn = st.step_arrays(u, v, 0.0)
    assert _same_bits(un, ref_u) and _same_bits(vn, ref_v)


def test_steps_never_hand_out_held_buffers(p_main, rng):
    g = Grid(L=20.0, N=64)
    e = coexisting_equilibria(p_main)[-1]
    u = e.u + 0.01 * rng.standard_normal(g.N)
    v = e.v + 0.01 * rng.standard_normal(g.N)
    w = rng.standard_normal(2 * g.N)
    imex = ImexStepper(g, p_main, D_REF, 0.05)
    steps = [lambda st=st: st.step_arrays(u, v, 0.0)
             for st in (imex, StrangStepper(g, p_main, D_REF, 0.05))]
    steps.append(lambda: (imex.tangent_steps([u, u], [v, v], w),))
    for step in steps:
        first = step()
        kept = [x.copy() for x in first]
        second = step()
        assert not any(np.shares_memory(x, y) for x in first for y in second)
        assert all(_same_bits(x, y) for x, y in zip(first, kept))
        assert all(_same_bits(x, y) for x, y in zip(second, kept))


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


@pytest.mark.parametrize("var_u,kind", [
    (2.0 * VARIANCE_TOL, AsymptoticKind.STATIONARY_PATTERN),
    (VARIANCE_TOL, AsymptoticKind.HOMOGENEOUS),
])
def test_settled_record_is_classified_by_its_variance(var_u, kind):
    # moving until t = 10, then settled: every sup |du/dt| of the trailing
    # window [11, 31] lies below DERIV_TOL
    g = Grid(L=10.0, N=16)
    times = np.linspace(0.0, 31.0, 32)
    rec = SpaceTimeRecord(
        grid=g, times=times, u_av=np.full(32, 0.3), v_av=np.full(32, 0.2),
        var_u=np.full(32, var_u),
        dudt_sup=np.where(times < 10.0, 1.0, 0.5 * DERIV_TOL),
        snap_times=np.array([0.0]), snap_u=np.zeros((1, 16)),
        snap_v=np.zeros((1, 16)))
    assert classify_asymptotic(rec, 20.0) is kind


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
    pos = _front_position(f, 0.5)
    i = int(np.searchsorted(g.x, 40.3)) - 1
    assert g.x[i] <= pos <= g.x[i + 1]
    with pytest.raises(NoRoot, match="never crosses level"):
        _front_position(Field(g, np.full(g.N, 0.9), np.zeros(g.N)), 0.5)


def test_front_speed_stationary_is_zero(p_main):
    g = Grid(L=100.0, N=256)
    u = np.where(g.x < 50.0, 0.2, 0.9)
    f0 = Field(g, u, np.zeros(g.N))
    # diffusion alone smooths the step without transporting the midpoint;
    # a snapshot every 20 steps of 0.05, from t = 0 to 4
    st = ImexStepper(g, p_main, D_REF, 0.05, include_reaction=False)
    u, v = f0.u, f0.v
    snaps = [(u, v)]
    for k in range(1, 81):
        u, v = st.step_arrays(u, v, 0.0)
        if k % 20 == 0:
            snaps.append((u, v))
    snap_u, snap_v = map(np.asarray, zip(*snaps))
    rec = SimpleNamespace(grid=g, snap_times=np.arange(5.0), snap_u=snap_u,
                          snap_v=snap_v)
    sp = _measure_front_speed(rec, 0.55, (0.0, 4.0))
    assert abs(sp) < 1e-8
    with pytest.raises(ValueError):
        _measure_front_speed(rec, 0.55, (100.0, 200.0))


def test_invasion_front_speed_near_cmin(p_main):
    # a pulled front crawls up to the linear spreading speed from below as
    # c_min - 3/(2 lam* t), lam* = c_min/(2d) (Bramson, Mem. AMS 285 (1983);
    # Ebert and van Saarloos, Physica D 146 (2000) 1). Here it lies within
    # 0.0045 of that on both windows, and 0.14 and 0.11 below c_min itself
    g = Grid(L=2000.0, N=4096)
    f0 = make_ic("invasion_step", g, p_main)
    rec = run(f0, p_main, D_REF, 300.0, Recorder(series_every=2.0, snapshot_every=4.0),
              dt=0.05)
    assert min(rec.snap_u.min(), rec.snap_v.min()) >= -1e-12
    speed = c_min(p_main, D_REF)
    lam = speed / (2.0 * D_REF)
    for window in ((200.0, 248.0), (252.0, 300.0)):
        sp = _measure_front_speed(rec, _mid_level(p_main), window)
        t_bar = 0.5 * (window[0] + window[1])  # the mean snapshot time
        assert abs(sp - (speed - 3.0 / (2.0 * lam * t_bar))) < 0.01


def test_l2_norm_of_constant():
    g = Grid(L=200.0, N=512)
    assert l2_norm(np.full(g.N, 0.5), g.dx) == pytest.approx(0.5 * math.sqrt(200.0))


@pytest.mark.parametrize("L,at", [(100.0, 50.0), (200.0, 100.0), (600.0, 200.0)])
def test_ic_invasion_step_default_interface(p_main, L, at):
    # x = 200 when it lies inside (0, L), else L/2
    g = Grid(L=L, N=257)
    f = make_ic("invasion_step", g, p_main)
    e = coexisting_equilibria(p_main)[-1]
    left = g.x < at
    assert np.all(f.u[left] == e.u) and np.all(f.v[left] == e.v)
    assert np.all(f.u[~left] == max(a.u for a in axial_equilibria(p_main)))
    assert np.all(f.v[~left] == 0.0)
