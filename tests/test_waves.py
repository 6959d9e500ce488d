"""Travelling-wave tests: profile system, end-state spectra, minimal speed,
heteroclinic shooting, and the (sigma, c) classification scan."""

import math

import numpy as np
import pytest

from alleekit.errors import OutOfRange
from alleekit.model import axial_equilibria, coexisting_equilibria, kinetics
from alleekit.waves import (
    Shot,
    WaveClass,
    _slow_unstable_vector,
    _u1,
    c_min,
    end_state_spectra,
    j_constants,
    scan_plane,
    shoot_heteroclinic,
    tw_jacobian,
    tw_rhs,
    wedge_zeta,
)

D_REF = 46.0
C_REF = 5.9


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
    u1 = _u1(p_main)
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
    u1 = _u1(p_main)
    block = rng.uniform(0.0, u1, (4, 7))
    r = tw_rhs(block, p_main, D_REF, C_REF)
    J = tw_jacobian(block, p_main, D_REF, C_REF)
    assert r.shape == (4, 7) and J.shape == (4, 4, 7)
    for k in range(block.shape[1]):
        assert np.array_equal(r[:, k], tw_rhs(block[:, k], p_main, D_REF, C_REF))
        assert np.array_equal(J[:, :, k],
                              tw_jacobian(block[:, k], p_main, D_REF, C_REF))


def test_prey_only_spectrum_closed_form(p_main):
    sp = end_state_spectra(p_main, D_REF, C_REF)
    closed = sorted(sp.lambdas_prey_only, key=lambda z: z.real)
    u1 = _u1(p_main)
    numeric = sorted(
        np.linalg.eigvals(tw_jacobian(np.array([u1, u1, 0.0, 0.0]),
                                      p_main, D_REF, C_REF)),
        key=lambda z: z.real)
    for a, b in zip(closed, numeric):
        assert abs(a - b) < 1e-8
    # saddle split at this speed: one stable, three unstable directions
    assert sum(1 for z in closed if z.real < 0) == 1


def test_coexisting_spectrum_frozen(p_main):
    sp = end_state_spectra(p_main, D_REF, C_REF)
    got = sorted(z.real for z in sp.lambdas_coexisting)
    want = [-0.418948111996, -0.229948761442, 0.872939963293, 35.3426960406]
    assert got == pytest.approx(want, rel=1e-8)
    assert max(abs(z.imag) for z in sp.lambdas_coexisting) < 1e-12
    assert sp.n_stable_coexisting == 2
    assert not sp.spiral_tail


def test_spiral_flag_flips_with_sigma(p_main):
    assert end_state_spectra(p_main.with_sigma(1.9), D_REF, 6.0).spiral_tail
    assert not end_state_spectra(p_main.with_sigma(2.8), D_REF, 6.0).spiral_tail


def test_wedge_zeta_frozen():
    m = wedge_zeta(D_REF, C_REF)
    assert m == pytest.approx(1.7535786177, rel=1e-9)
    assert m > 1.0
    with pytest.raises(ValueError):
        wedge_zeta(D_REF, 0.0)


def test_predation_rate_is_pinched(p_main, rng):
    # -W < F2(X, W) < (gamma - 1) W on the strip 0 < X < u1, W > 0; this is
    # what makes the wedge invariant work
    u1 = _u1(p_main)
    X = rng.uniform(1e-6, u1, 400)
    W = rng.uniform(1e-6, 3.0, 400)
    _, f2 = kinetics(X, W, p_main)
    assert (f2 > -W).all()
    assert (f2 < (p_main.gamma - 1.0) * W).all()


def test_slow_vector_is_eigenvector(p_main):
    u1 = _u1(p_main)
    v = _slow_unstable_vector(p_main, D_REF, C_REF)
    J = tw_jacobian(np.array([u1, u1, 0.0, 0.0]), p_main, D_REF, C_REF)
    w = J @ v
    lam = (w @ v) / (v @ v)
    assert lam > 0
    assert np.abs(w - lam * v).max() < 1e-10
    assert v[2] > 0  # oriented into the predator quadrant


def test_shot_main_front(p_main):
    s = shoot_heteroclinic(p_main, D_REF, C_REF)
    assert isinstance(s, Shot)
    assert s.found and s.monotone and s.wedge_ok and not s.spiral_tail
    assert np.all(np.diff(s.t) > 0)
    assert np.isfinite(s.states).all()

    u1 = _u1(p_main)
    e = coexisting_equilibria(p_main)[-1]
    X, W = s.states[:, 0], s.states[:, 2]
    assert u1 - 2e-5 < X.max() < u1  # starts at the launch point, not at E1
    assert X.min() == pytest.approx(e.u, abs=1e-4)
    assert W.max() == pytest.approx(e.v, abs=1e-4)
    assert W.min() >= 0.0

    # the launch point sits a distance ~eps along the slow eigenvector
    off = s.states[0] - np.array([u1, u1, 0.0, 0.0])
    v = _slow_unstable_vector(p_main, D_REF, C_REF)
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
    assert s.found
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
    assert res.monotonic_side == "high_sigma"


def test_scan_refuses_sigmas_below_hopf(p_main):
    with pytest.raises(OutOfRange):
        scan_plane(p_main, D_REF, np.array([1.5, 2.0]), np.array([5.0]))
