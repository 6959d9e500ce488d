"""Travelling-wave tests: profile system, end-state spectra, minimal speed,
heteroclinic shooting, and the (sigma, c) classification scan."""

import multiprocessing
import os

import numpy as np
import pytest

from alleekit import collocation, waves
from alleekit.errors import (NoConvergence, NonFinite, OutOfRange,
                             SingularJacobian)
from alleekit.model import (
    coexisting_equilibria,
    kinetics,
    upper_axial,
)
from alleekit.waves import (
    Shot,
    WaveClass,
    _coexisting_spectrum,
    _launch,
    _shoot_cell,
    c_min,
    j_constants,
    scan_plane,
    shoot_heteroclinic,
    tw_jacobian,
    tw_rhs,
    wedge_zeta,
)

D_REF = 46.0
C_REF = 5.9


def _slow_vector(p, c):
    """The launch direction at the prey-only state, as a shot takes it."""
    u1 = upper_axial(p).u
    e1 = np.array([u1, u1, 0.0, 0.0])
    return _launch(*np.linalg.eig(tw_jacobian(e1, p, D_REF, c)))[1]


def test_j_constants_frozen(p_main):
    j1, j3 = j_constants(p_main, D_REF)
    assert j1 == pytest.approx(-2.39599357944, rel=1e-10)
    assert j3 == pytest.approx(0.00257746840319, rel=1e-10)
    assert j1 < 0 < j3


def test_j_constants_reject_bad_diffusion(p_main):
    with pytest.raises(ValueError):
        j_constants(p_main, 0.0)


def test_c_min_frozen(p_main):
    cm = c_min(p_main, D_REF)
    assert cm == pytest.approx(4.67072719869, rel=1e-10)
    # the minimal speed is written both as 2d sqrt(M) and 2d sqrt(j3);
    # the two symbols are the same number
    _, j3 = j_constants(p_main, D_REF)
    assert cm**2 == pytest.approx(4.0 * D_REF**2 * j3, rel=1e-12)


def test_c_min_needs_prey_only_state(p_main):
    with pytest.raises(OutOfRange):
        c_min(p_main.with_sigma(0.3), D_REF)  # sigma < 4 eta: no axial states


def test_rhs_vanishes_at_end_states(p_main):
    u1 = upper_axial(p_main).u
    e = coexisting_equilibria(p_main)[-1]
    for s in ([u1, u1, 0.0, 0.0], [e.u, e.u, e.v, e.v]):
        r = tw_rhs(np.array(s), p_main, D_REF, C_REF)
        assert np.abs(r).max() < 1e-12


def test_jacobian_matches_finite_differences(p_main):
    s0 = np.array([0.8, 0.79, 0.2, 0.21])
    J = tw_jacobian(s0, p_main, D_REF, C_REF)
    h = 1e-7
    for k in range(4):
        dp = np.zeros(4)
        dp[k] = h
        col = (tw_rhs(s0 + dp, p_main, D_REF, C_REF)
               - tw_rhs(s0 - dp, p_main, D_REF, C_REF)) / (2 * h)
        assert np.abs(col - J[:, k]).max() < 1e-5


def test_block_calls_equal_column_calls(p_main, rng):
    u1 = upper_axial(p_main).u
    block = rng.uniform(0.0, u1, (4, 7))
    r = tw_rhs(block, p_main, D_REF, C_REF)
    J = tw_jacobian(block, p_main, D_REF, C_REF)
    assert r.shape == (4, 7) and J.shape == (4, 4, 7)
    for k in range(block.shape[1]):
        assert np.array_equal(r[:, k], tw_rhs(block[:, k], p_main, D_REF, C_REF))
        assert np.array_equal(J[:, :, k],
                              tw_jacobian(block[:, k], p_main, D_REF, C_REF))


def _coexisting_at(p, c):
    """_coexisting_spectrum at E*, on the eigenvalues a shot takes there."""
    e = coexisting_equilibria(p)[-1]
    star = np.array([e.u, e.u, e.v, e.v])
    return _coexisting_spectrum(np.linalg.eigvals(tw_jacobian(star, p, D_REF, c)))


def test_prey_only_spectrum_closed_form(p_main):
    # lam_{1,2} = (c^2 +/- c sqrt(c^2 - 4 j1)) / 2 and
    # lam_{3,4} = (c^2 +/- c sqrt(c^2 - 4 d^2 j3)) / (2 d); the latter pair
    # is complex exactly for c < c_min, the spiral regime
    j1, j3 = j_constants(p_main, D_REF)
    c2 = C_REF * C_REF
    r12 = complex(c2 - 4.0 * j1, 0.0) ** 0.5
    r34 = complex(c2 - 4.0 * D_REF * D_REF * j3, 0.0) ** 0.5
    closed = sorted([(c2 + C_REF * r12) / 2.0, (c2 - C_REF * r12) / 2.0,
                     (c2 + C_REF * r34) / (2.0 * D_REF),
                     (c2 - C_REF * r34) / (2.0 * D_REF)],
                    key=lambda z: z.real)
    u1 = upper_axial(p_main).u
    numeric = sorted(
        np.linalg.eigvals(tw_jacobian(np.array([u1, u1, 0.0, 0.0]),
                                      p_main, D_REF, C_REF)),
        key=lambda z: z.real)
    for a, b in zip(closed, numeric):
        assert abs(a - b) < 1e-8
    # saddle split at this speed: one stable, three unstable directions
    assert sum(1 for z in closed if z.real < 0) == 1


def test_coexisting_spectrum_frozen(p_main):
    lam, stable, spiral = _coexisting_at(p_main, C_REF)
    got = sorted(z.real for z in lam)
    want = [-0.418948111996, -0.229948761442, 0.872939963293, 35.3426960406]
    assert got == pytest.approx(want, rel=1e-8)
    assert max(abs(z.imag) for z in lam) < 1e-12
    assert stable.size == 2
    assert not spiral


def test_spiral_flag_flips_with_sigma(p_main):
    assert _coexisting_at(p_main.with_sigma(1.9), 6.0)[2]
    assert not _coexisting_at(p_main.with_sigma(2.8), 6.0)[2]


def test_wedge_zeta_frozen():
    m = wedge_zeta(D_REF, C_REF)
    assert m == pytest.approx(1.7535786177, rel=1e-9)
    assert m > 1.0
    with pytest.raises(ValueError):
        wedge_zeta(D_REF, 0.0)


def test_predation_rate_is_pinched(p_main, rng):
    # -W < F2(X, W) < (gamma - 1) W on the strip 0 < X < u1, W > 0; this is
    # what makes the wedge invariant work
    u1 = upper_axial(p_main).u
    X = rng.uniform(1e-6, u1, 400)
    W = rng.uniform(1e-6, 3.0, 400)
    _, f2 = kinetics(X, W, p_main)
    assert (f2 > -W).all()
    assert (f2 < (p_main.gamma - 1.0) * W).all()


def test_slow_vector_is_eigenvector(p_main):
    u1 = upper_axial(p_main).u
    v = _slow_vector(p_main, C_REF)
    J = tw_jacobian(np.array([u1, u1, 0.0, 0.0]), p_main, D_REF, C_REF)
    w = J @ v
    lam = (w @ v) / (v @ v)
    assert lam > 0
    assert np.abs(w - lam * v).max() < 1e-10
    assert v[2] > 0  # oriented into the predator quadrant


def test_launch_direction_does_not_depend_on_the_eigenvector_sign(p_main):
    # np.linalg.eig may return either sign of an eigenvector; the launch
    # flips a negative W part, at a benchmark cell
    u1 = upper_axial(p_main).u
    lam, vecs = np.linalg.eig(tw_jacobian(np.array([u1, u1, 0.0, 0.0]),
                                          p_main, D_REF, 4.7))
    i, v = _launch(lam, vecs)
    i_flip, v_flip = _launch(lam, -vecs)
    assert i_flip == i
    assert np.array_equal(v_flip, v)
    assert v[2] > 0


def test_shot_main_front(p_main):
    s = shoot_heteroclinic(p_main, D_REF, C_REF)
    assert isinstance(s, Shot)
    assert s.monotone and s.wedge_ok and not s.spiral_tail
    assert np.all(np.diff(s.t) > 0)
    assert np.isfinite(s.states).all()

    u1 = upper_axial(p_main).u
    e = coexisting_equilibria(p_main)[-1]
    X, W = s.states[:, 0], s.states[:, 2]
    assert u1 - 2e-5 < X.max() < u1  # starts at the launch point, not at E1
    assert X.min() == pytest.approx(e.u, abs=1e-4)
    assert W.max() == pytest.approx(e.v, abs=1e-4)
    assert W.min() >= 0.0

    # the launch point sits a distance ~eps along the slow eigenvector
    off = s.states[0] - np.array([u1, u1, 0.0, 0.0])
    v = _slow_vector(p_main, C_REF)
    cosang = abs(off @ v) / (np.linalg.norm(off) * np.linalg.norm(v))
    assert np.linalg.norm(off) < 2e-5
    assert cosang > 0.999


def test_shot_dwell_inside_target_ball(p_main):
    s = shoot_heteroclinic(p_main, D_REF, C_REF)
    e = coexisting_equilibria(p_main)[-1]
    target = np.array([e.u, e.u, e.v, e.v])
    outside = np.abs(s.states - target).max(axis=1) >= 1e-4
    assert not outside[-1]
    t_enter = s.t[outside][-1] if outside.any() else s.t[0]
    assert s.t[-1] - t_enter >= 10.0


def test_shot_spiral_case(p_main):
    s = shoot_heteroclinic(p_main.with_sigma(1.9), D_REF, 6.0)
    assert s.spiral_tail
    assert not (s.monotone and not s.spiral_tail)


def test_shoot_below_minimal_speed_raises(p_main):
    cm = c_min(p_main, D_REF)
    with pytest.raises(OutOfRange):
        shoot_heteroclinic(p_main, D_REF, 0.5 * cm)


def test_shoot_rejects_nonpositive_speed(p_main):
    with pytest.raises(ValueError):
        shoot_heteroclinic(p_main, D_REF, 0.0)


def test_wave_class_codes_are_stable():
    assert [int(k) for k in (WaveClass.NO_WAVE, WaveClass.MONOTONIC,
                             WaveClass.NON_MONOTONIC, WaveClass.UNKNOWN)] \
        == [0, 1, 2, 3]


def test_scan_small_grid(p_main):
    sigmas = np.array([1.9, 2.7, 3.0])
    cs = np.array([3.0, 4.7, 5.9])
    res = scan_plane(p_main, D_REF, sigmas, cs)
    assert res.codes.shape == (3, 3)
    for i, sig in enumerate(sigmas):
        cm = c_min(p_main.with_sigma(float(sig)), D_REF)
        assert res.c_min_at_sigma[i] == pytest.approx(cm, rel=1e-12)
        for j, c in enumerate(cs):
            if c < cm:
                assert res.codes[i, j] == WaveClass.NO_WAVE
            else:
                assert res.codes[i, j] != WaveClass.NO_WAVE
    # supercritical cells: spiral tails below the eigen boundary, straight
    # fronts above it
    assert (res.codes[0, 1:] == WaveClass.NON_MONOTONIC).all()
    assert (res.codes[1:, 1:] == WaveClass.MONOTONIC).all()
    # the cells, shot in worker processes on a multi-core box, classify as
    # they do shot one by one here
    for i, sig in enumerate(sigmas):
        for j, c in enumerate(cs):
            if res.codes[i, j] != WaveClass.NO_WAVE:
                assert (res.codes[i, j], res.reasons[i, j]) == _shoot_cell(
                    p_main.with_sigma(float(sig)), D_REF, float(c))[:2]
    assert res.shot is None


def _count_shots(monkeypatch) -> list:
    """Patch shoot_heteroclinic to record each call made in this process."""
    real, calls = waves.shoot_heteroclinic, []

    def shoot(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(waves, "shoot_heteroclinic", shoot)
    return calls


def test_scan_on_one_core_gives_the_pooled_result(p_main, monkeypatch):
    sigmas, cs = [1.9, 2.7, 3.0], [3.0, 4.7, 5.9]
    pooled = scan_plane(p_main, D_REF, sigmas, cs)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls = _count_shots(monkeypatch)
    alone = scan_plane(p_main, D_REF, sigmas, cs)
    # one core: every cell above the minimal speed is shot in this process
    assert len(calls) == int((alone.codes != WaveClass.NO_WAVE).sum()) == 6
    assert alone.codes.tolist() == pooled.codes.tolist()
    assert alone.reasons.tolist() == pooled.reasons.tolist()
    assert alone.c_min_at_sigma.tolist() == pooled.c_min_at_sigma.tolist()
    assert alone.shot is None and pooled.shot is None


def _count_newton_solves(monkeypatch):
    """Patch the collocation's Newton solve to count its calls, in this
    process and in forked pool workers alike (a shared counter)."""
    real = collocation._newton
    count = multiprocessing.get_context("fork").Value("i", 0)

    def newton(*args, **kwargs):
        with count.get_lock():
            count.value += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(collocation, "_newton", newton)
    return count


# a sigma row of the benchmark's scan, all four cells above the minimal speed
_ROW_SIGMA, _ROW_CS = 2.7, np.linspace(4.7, 6.0, 4)


def test_chained_row_takes_half_the_newton_solves_of_cold_cells(
        p_main, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    count = _count_newton_solves(monkeypatch)
    p = p_main.with_sigma(_ROW_SIGMA)
    cold = [_shoot_cell(p, D_REF, float(c))[:2] for c in _ROW_CS]
    assert count.value == 25
    count.value = 0
    res = scan_plane(p_main, D_REF, [_ROW_SIGMA], _ROW_CS)
    assert count.value == 12
    assert list(zip(res.codes[0].tolist(), res.reasons[0].tolist())) == cold


def test_cell_after_a_failed_cell_starts_cold(p_main, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    cold = _shoot_cell(p_main.with_sigma(_ROW_SIGMA), D_REF, float(_ROW_CS[2]))
    real, starts = waves.shoot_heteroclinic, []

    def shoot(p, d, c, **kwargs):
        starts.append(kwargs["start"])
        if c == _ROW_CS[1]:
            raise NoConvergence("a failure in the middle of the row")
        return real(p, d, c, **kwargs)

    monkeypatch.setattr(waves, "shoot_heteroclinic", shoot)
    res = scan_plane(p_main, D_REF, [_ROW_SIGMA], _ROW_CS)
    assert [s is None for s in starts] == [True, False, True, False]
    assert res.reasons[0, 1] == "NoConvergence"
    assert (res.codes[0, 2], res.reasons[0, 2]) == cold[:2]


@pytest.mark.parametrize("cores", [None, {0}], ids=["pooled", "one_core"])
def test_benchmark_scan_makes_at_most_50_newton_solves(p_main, monkeypatch,
                                                       cores):
    # 100 with every cell shot cold
    if cores is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    count = _count_newton_solves(monkeypatch)
    grid = np.linspace(1.9, 3.0, 4), np.linspace(4.7, 6.0, 4)
    res = scan_plane(p_main, D_REF, *grid)
    assert (res.codes != WaveClass.NO_WAVE).all()
    assert count.value <= 50


@pytest.mark.parametrize("cores", [None, {0}], ids=["pooled", "one_core"])
def test_error_a_cell_does_not_record_propagates(p_main, monkeypatch, cores):
    def broken_shot(*args, **kwargs):
        raise RuntimeError("a defect in the shooting code")

    monkeypatch.setattr(waves, "shoot_heteroclinic", broken_shot)
    if cores is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    with pytest.raises(RuntimeError, match="a defect in the shooting code"):
        scan_plane(p_main, D_REF, [2.7, 3.0], [5.9, 6.0])
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="one usable core: the scan runs in this process")
def test_worker_that_dies_breaks_the_scan(p_main, monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    here = os.getpid()

    def dying_shot(*args, **kwargs):
        if os.getpid() != here:  # never end the test process itself
            os._exit(9)
        raise AssertionError("cell shot in the test process")

    monkeypatch.setattr(waves, "shoot_heteroclinic", dying_shot)
    with pytest.raises(BrokenProcessPool):
        scan_plane(p_main, D_REF, [2.7, 3.0], [5.9, 6.0])
    assert multiprocessing.active_children() == []


def test_single_cell_scan_keeps_the_shot_of_its_front(p_main, monkeypatch):
    calls = _count_shots(monkeypatch)
    res = scan_plane(p_main, D_REF, [1.9], [6.0])
    assert res.codes.tolist() == [[WaveClass.NON_MONOTONIC]]
    assert len(calls) == 1
    ref = shoot_heteroclinic(p_main.with_sigma(1.9), D_REF, 6.0,
                             tol=waves.SCAN_TOL)
    assert np.array_equal(res.shot.t, ref.t)
    assert np.array_equal(res.shot.states, ref.states)


def test_scan_refuses_sigmas_below_hopf(p_main):
    with pytest.raises(OutOfRange):
        scan_plane(p_main, D_REF, np.array([1.5, 2.0]), np.array([5.0]))


def test_scan_runs_in_ratio_dependent_limit(p_ratio):
    # alpha = 0 has no transcritical point, but the coexisting state at
    # sigma = 4.2 is a stable focus (trace -0.406, det 0.156)
    res = scan_plane(p_ratio, D_REF, [4.2], [5.9])
    assert res.c_min_at_sigma[0] > 5.9
    assert res.codes[0, 0] == WaveClass.NO_WAVE


@pytest.mark.parametrize("error", [NonFinite("computed orbit leaves the physical box"),
                                   OutOfRange("degenerate slow eigenvector"),
                                   NoConvergence("profile collocation failed")])
def test_failed_shot_classifies_as_unknown(p_main, monkeypatch, error):
    # scan_plane records per-cell failures as Unknown and never raises them
    def failing_shot(*args, **kwargs):
        raise error

    monkeypatch.setattr(waves, "shoot_heteroclinic", failing_shot)
    assert _shoot_cell(p_main, D_REF, 5.9)[0] == WaveClass.UNKNOWN


# the benchmark's monotone and spiral cells, (sigma, c)
_ORACLE_CELLS = [(2.7, 4.7), (1.9, 6.0)]


def _scipy_seed(p, d, c, y0, target, r_cut, t_max):
    """The kinetic seed's flow through scipy's RK45, as the seed is
    specified: rtol 1e-10, atol 1e-13, stop where the orbit comes within
    r_cut of the coexisting point. Returns the solution, the stop time T0
    and the seed's sample fractions of T0: the step starts and 801 uniform
    points."""
    from scipy.integrate import solve_ivp

    uv_star = target[[0, 2]]

    def kin(_t, s):
        return list(kinetics(float(s[0]), float(s[1]), p))

    def near(_t, s):
        return float(np.hypot(*(s - uv_star))) - r_cut

    near.terminal, near.direction = True, -1.0
    sol = solve_ivp(kin, (0.0, 2.0 * t_max), y0[[0, 2]], method="RK45",
                    rtol=1e-10, atol=1e-13, dense_output=True, events=near)
    T0 = float(sol.t_events[0][0])
    frac = np.unique(np.concatenate([
        np.clip(sol.t[sol.t < T0] / T0, 0.0, 1.0), np.linspace(0.0, 1.0, 801)]))
    return sol, T0, frac


@pytest.mark.parametrize("sigma, c", _ORACLE_CELLS)
def test_kinetic_seed_reproduces_scipy_rk45(p_main, monkeypatch, sigma, c):
    p = p_main.with_sigma(sigma)
    u1 = upper_axial(p).u
    e = coexisting_equilibria(p)[-1]
    target = np.array([e.u, e.u, e.v, e.v])
    y0 = (np.array([u1, u1, 0.0, 0.0])
          + waves._LAUNCH_SCALE * u1 * _slow_vector(p, c))
    args = (p, D_REF, c, y0, target, waves._CORE_RADIUS, 2000.0)

    accepted = []
    dopri5 = waves._dopri5

    def counted(*a):
        out = dopri5(*a)
        accepted.append(len(a[-1]))  # the list of accepted steps
        return out

    monkeypatch.setattr(waves, "_dopri5", counted)
    frac, seed, T0 = waves._kinetic_seed(*args)
    sol, T0_ref, frac_ref = _scipy_seed(*args)
    assert accepted == [sol.t.size - 1]
    assert T0 == pytest.approx(T0_ref, rel=1e-12, abs=0.0)
    # the step starts drift apart by rounding (see temporal's docstring),
    # so the seed is compared on its own sample times
    assert frac.shape == frac_ref.shape
    assert np.abs(frac - frac_ref).max() < 1e-9
    uv = sol.sol(frac * T0)
    f1, f2 = kinetics(uv[0], uv[1], p)
    ref = np.vstack([uv[0], uv[0] - f1 / c**2, uv[1], uv[1] - D_REF * f2 / c**2])
    ref[:, 0] = y0
    assert np.abs(seed - ref).max() < 1e-10


@pytest.mark.parametrize("sigma, c", _ORACLE_CELLS)
def test_collocation_agrees_with_scipy_solve_bvp(p_main, monkeypatch, sigma, c):
    from scipy.integrate import solve_bvp

    calls = []
    own = waves.solve_bvp

    def recorded(*args, **kwargs):
        out = own(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(waves, "solve_bvp", recorded)
    shoot_heteroclinic(p_main.with_sigma(sigma), D_REF, c, tol=1e-8)
    assert len(calls) == 1
    args, kwargs, sol = calls[0]
    ref = solve_bvp(*args, **kwargs)
    assert ref.status == 0
    assert sol.x.size == ref.x.size
    assert sol.p[0] == pytest.approx(ref.p[0], rel=1e-9, abs=0.0)


def _singular_dgbtrf(ab, kl, ku):
    # the factorization of an exactly singular matrix: info > 0
    return ab, np.zeros(ab.shape[1], dtype=np.int32), 1


def test_singular_newton_matrix_is_an_unknown_cell(p_main, monkeypatch, tmp_path):
    from alleekit import cli
    from alleekit.pde import flapack

    monkeypatch.setattr(flapack, "dgbtrf", _singular_dgbtrf)
    # the collocation runs once, and its failure keeps its name
    assert _shoot_cell(p_main, D_REF, 5.9)[:2] == (WaveClass.UNKNOWN,
                                                   "SingularJacobian")

    cfg = tmp_path / "scan.cfg"
    cfg.write_text("[kinetics]\nsigma = 2.7\nalpha = 0.07\nbeta = 0.2\n"
                   "gamma = 1.2\neta = 0.1\n[spatial]\nd = 46\n[sweep]\n"
                   "sigma_lo = 2.7\nsigma_hi = 2.7\nsigma_count = 1\n"
                   "c_lo = 5.9\nc_hi = 6.0\nc_count = 2\n")
    assert cli.main(["wave-scan", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
    codes = [line.split(",")[2] for line in
             (tmp_path / "out" / "scan.csv").read_text().splitlines()[1:]]
    assert codes == ["3", "3"]


@pytest.mark.parametrize("outcome, code, reason", [
    (NonFinite("computed orbit leaves the physical box"), WaveClass.UNKNOWN,
     "NonFinite"),
    (OutOfRange("degenerate slow eigenvector"), WaveClass.UNKNOWN, "OutOfRange"),
    (NoConvergence("profile collocation failed"), WaveClass.UNKNOWN,
     "NoConvergence"),
    (Shot(np.zeros(1), np.zeros((1, 4)), True, True, False),
     WaveClass.MONOTONIC, ""),
    (SingularJacobian("banded Jacobian is numerically singular"),
     WaveClass.UNKNOWN, "SingularJacobian"),
])
def test_scan_reports_why_each_cell_is_unknown(p_main, monkeypatch, outcome,
                                               code, reason):
    def failing_shot(*args, **kwargs):
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(waves, "shoot_heteroclinic", failing_shot)
    # the first cell lies below the minimal speed and is never shot
    res = scan_plane(p_main, D_REF, [2.7], [3.0, 5.9])
    assert res.codes.tolist() == [[WaveClass.NO_WAVE, code]]
    assert res.reasons.tolist() == [["", reason]]


@pytest.mark.parametrize("cores", [None, {0}], ids=["pooled", "one_core"])
def test_wave_jacobian_past_the_float_range_is_an_unknown_cell(
        p_main, monkeypatch, cores):
    # c**2 overflows to inf past c ~ 1.34e154; np.linalg.eig refused the
    # Jacobian with a LinAlgError that no cell recorded
    with pytest.raises(NonFinite, match="wave Jacobian overflows at c=1e\\+200"):
        shoot_heteroclinic(p_main, D_REF, 1e200)
    if cores is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    res = scan_plane(p_main, D_REF, [2.7], [1e200, 1e250])
    assert res.codes.tolist() == [[WaveClass.UNKNOWN] * 2]
    assert res.reasons.tolist() == [["NonFinite"] * 2]


@pytest.mark.parametrize("cores", [None, {0}], ids=["pooled", "one_core"])
def test_cell_at_the_minimal_speed_is_an_unknown_cell(p_main, monkeypatch,
                                                      cores):
    # at c = c_min the slow pair of the prey-only state is double; here
    # rounding leaves it real with one eigenvector, and inverting the
    # eigenvectors raised a LinAlgError that no cell recorded
    p = p_main.with_sigma(3.21)
    c = 4.6805040602751244
    assert c == c_min(p, D_REF)
    with pytest.raises(OutOfRange, match="prey-only state's wave Jacobian "
                                         "is defective"):
        shoot_heteroclinic(p, D_REF, c)
    if cores is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    res = scan_plane(p, D_REF, [3.21], [c, c])
    assert res.codes.tolist() == [[WaveClass.UNKNOWN] * 2]
    assert res.reasons.tolist() == [["OutOfRange"] * 2]


# cells whose collocation overflowed and printed numpy RuntimeWarnings:
# (sigma, d, c)
_OVERFLOWING_CELLS = [(1.8571428571428572, 1.0, 0.9580852619660576),
                      (2.7, D_REF, 1e20), (2.7, D_REF, 1.2e154)]


@pytest.mark.parametrize("sigma,d,c", _OVERFLOWING_CELLS)
def test_overflowing_collocation_is_a_named_unknown_cell(p_main, sigma, d, c):
    # pytest turns a RuntimeWarning into an error, so a warning would
    # escape the cell here
    code, reason, shot = waves._shoot_cell(p_main.with_sigma(sigma), d, c)
    assert (code, reason, shot) == (WaveClass.UNKNOWN, "NonFinite", None)


def _scan_overflowing_cells(tmp_path, sigma_count: int):
    """A CLI wave-scan of sigma_count equal sigma rows, each holding the
    first overflowing cell and c = 1e20: its exit code, stderr and codes."""
    import subprocess
    import sys
    from pathlib import Path

    sigma, d, c = _OVERFLOWING_CELLS[0]
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        f"[kinetics]\nsigma = {sigma!r}\nalpha = 0.07\nbeta = 0.2\n"
        f"gamma = 1.2\neta = 0.1\n[spatial]\nd = {d!r}\n[sweep]\n"
        f"sigma_lo = {sigma!r}\nsigma_hi = {sigma!r}\n"
        f"sigma_count = {sigma_count}\nc_lo = {c!r}\nc_hi = 1e20\nc_count = 2\n")
    env = dict(os.environ)
    src = str(Path(waves.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "alleekit.cli", "wave-scan", "--config",
         str(cfg), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    codes = [line.split(",")[2] for line in
             (out / "scan.csv").read_text().splitlines()[1:]]
    return proc.returncode, proc.stderr, codes


def test_pooled_scan_of_overflowing_cells_prints_nothing(tmp_path):
    # a scan of one sigma row shoots it in the CLI process, which pytest's
    # warning filters do not see: only the stderr of a CLI run shows them
    rc, err, codes = _scan_overflowing_cells(tmp_path, 1)
    assert (rc, err) == (0, "")
    assert codes == ["3", "3"]


def test_scan_of_overflowing_rows_in_workers_prints_nothing(tmp_path):
    # two sigma rows go to worker processes on a multi-core box
    rc, err, codes = _scan_overflowing_cells(tmp_path, 2)
    assert (rc, err) == (0, "")
    assert codes == ["3"] * 4


@pytest.mark.parametrize("sigma,c", [(2.7, C_REF), (1.9, 6.0)],
                         ids=["monotone", "spiral"])
def test_each_end_state_is_decomposed_once_per_shot(p_main, monkeypatch,
                                                    sigma, c):
    # one eig and one inverse per end state supply the spectra, the launch
    # direction, the projection rows and the tail flow
    calls = dict.fromkeys(
        ("eig", "eigvals", "inv", "upper_axial", "upper_coexisting"), 0)

    def counting(name, real):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    for name in ("eig", "eigvals", "inv"):
        monkeypatch.setattr(np.linalg, name,
                            counting(name, getattr(np.linalg, name)))
    for name in ("upper_axial", "upper_coexisting"):
        monkeypatch.setattr(waves, name, counting(name, getattr(waves, name)))
    shoot_heteroclinic(p_main.with_sigma(sigma), D_REF, c)
    assert calls == {"eig": 2, "eigvals": 0, "inv": 2, "upper_axial": 1,
                     "upper_coexisting": 1}
