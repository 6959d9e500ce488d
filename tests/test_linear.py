"""Mode spectra, Turing/BD thresholds, branch points, and a-priori bounds.

Frozen reference numbers come from an independent brentq/numpy.roots oracle
run before this module existed.
"""

import math

import numpy as np
import pytest

from alleekit import linear
from alleekit.errors import HypothesisFailed, NoRoot, OutOfRange
from alleekit.linear import (
    Regime,
    branch_point_sigmas,
    branch_point_table,
    dstar_parts,
    estar_scan,
    mode_reports,
    turing_bd_thresholds,
    vbounds,
)
from alleekit.model import (
    KineticParams,
    Stability,
    _mode_scalars,
    axial_equilibria,
    coexisting_equilibria,
    jacobian_fields,
    kpm_roots,
    trivial_equilibrium,
)
from test_rootfind import scan_roots

D_REF = 46.0
L_REF = 200.0

SIGMA_T = 1.86118120636
SIGMA_BD = 2.09768505267
K_AT_T = -0.0326903941579
K_AT_BD = 0.0373527793185
KPM_18 = (0.0119606199252, 0.0832286771023)
BP_ORACLE = {11: 1.860694049, 12: 1.86076536, 19: 1.78925564, 20: 1.770557264, 21: 1.74956746}
DSTAR_PAPERSET = 0.443883196877
MSTAR_27 = 0.663420581412


def _at(p, sigma):
    """Upper coexisting state and the sigma-consistent parameter set."""
    ps = p.with_sigma(sigma)
    return coexisting_equilibria(ps)[-1], ps


def test_trivial_state_spatially_stable_any_diffusion(p_main):
    e0 = trivial_equilibrium(p_main)
    for d in (0.1, 1.0, 46.0, 1e3):
        reports = mode_reports(e0, p_main, d, L_REF)
        assert all(not r.unstable for r in reports)


def test_axial_states_unstable_at_mode_zero(p_main):
    for e in axial_equilibria(p_main):
        reports = mode_reports(e, p_main, D_REF, L_REF)
        assert reports[0].j == 0 and reports[0].k_j == 0.0
        assert reports[0].unstable


def test_estar_stable_above_sigma_s(p_main):
    # sigma=2.7 > sigma_S: no unstable mode for any tested diffusion.
    e, ps = _at(p_main, 2.7)
    for d in (1.0, 46.0, 1000.0):
        assert all(not r.unstable for r in mode_reports(e, ps, d, L_REF))


def test_mode_zero_matches_planar_classification(p_main):
    for sigma in (0.5, 1.8, 2.2, 2.7):
        e, ps = _at(p_main, sigma)
        r0 = mode_reports(e, ps, D_REF, L_REF)[0]
        assert abs(r0.trace - e.trace) < 1e-12
        assert abs(r0.det - e.det) < 1e-12
        planar_unstable = e.stability in (Stability.UNSTABLE_FOCUS, Stability.UNSTABLE_NODE)
        assert r0.unstable == planar_unstable


def test_threshold_locations(p_main):
    roots = turing_bd_thresholds(p_main, D_REF, (1.7, 2.3))
    assert len(roots) == 2
    (s_t, tag_t, _), (s_bd, tag_bd, _) = roots
    assert abs(s_t - SIGMA_T) < 1e-8
    assert abs(s_bd - SIGMA_BD) < 1e-8
    assert tag_t is Regime.TURING_SIDE
    assert tag_bd is Regime.BD_SIDE
    # Four-digit reference values.
    assert abs(s_t - 1.861) < 5e-4 and abs(s_bd - 2.098) < 5e-4


def _spatial_roots(p, sigma):
    """np.roots of the spatial quartic d*lam**4 + s*lam**2 + D at E*(sigma)."""
    e, ps = _at(p, sigma)
    _, s, det0 = _mode_scalars(e.u, e.v, ps, D_REF)
    return np.roots([D_REF, 0.0, s, 0.0, det0])


def test_threshold_has_repeated_spatial_root(p_main):
    for sigma, _, K in turing_bd_thresholds(p_main, D_REF, (1.7, 2.3)):
        # All four lambda**2 collapse onto the row's K at a threshold.
        lams = _spatial_roots(p_main, sigma)
        assert np.abs(lams * lams - K).max() < 1e-8


def test_no_thresholds_outside_window(p_main):
    with pytest.raises(NoRoot):
        turing_bd_thresholds(p_main, D_REF, (2.3, 2.8))


def test_spectrum_k_sign_convention(p_main):
    (s_t, _, k_t), (s_bd, _, k_bd) = turing_bd_thresholds(
        p_main, D_REF, (1.7, 2.3))
    assert abs(k_t - K_AT_T) < 1e-8
    assert abs(k_bd - K_AT_BD) < 1e-8
    assert k_t < 0 < k_bd
    # K < 0: the double pair is pure imaginary; K > 0: it is real
    lams_t = _spatial_roots(p_main, s_t)
    lams_bd = _spatial_roots(p_main, s_bd)
    assert np.abs(lams_t.real).max() < 1e-12 < np.abs(lams_t.imag).min()
    assert np.abs(lams_bd.imag).max() < 1e-12 < np.abs(lams_bd.real).min()


def test_threshold_calls_share_no_scan(p_main, monkeypatch):
    # each call scans E* on its own 401 points, so a benchmark that repeats
    # the call times the whole of it
    evaluations = []
    estar_scalars = linear._estar_scalars

    def counted(p, d, sigma):
        evaluations.append(sigma)
        return estar_scalars(p, d, sigma)

    monkeypatch.setattr(linear, "_estar_scalars", counted)
    counts = []
    for _ in range(2):
        evaluations.clear()
        turing_bd_thresholds(p_main, D_REF, (1.5, 2.4))
        counts.append(len(evaluations))
    assert counts == [452, 452]


def test_one_scan_serves_thresholds_and_branch_points(p_main):
    bracket = (1.5, 2.4)
    scan = estar_scan(p_main, D_REF, bracket)
    assert (turing_bd_thresholds(p_main, D_REF, bracket, scan=scan)
            == turing_bd_thresholds(p_main, D_REF, bracket))
    assert (branch_point_table(p_main, D_REF, L_REF, None, bracket, scan=scan)
            == branch_point_table(p_main, D_REF, L_REF, None, bracket))
    with pytest.raises(ValueError, match="need d > 0"):
        turing_bd_thresholds(p_main, 0.0, bracket, scan=scan)


def test_branch_points_against_oracle(p_main):
    for n, ref in BP_ORACLE.items():
        roots = branch_point_sigmas(p_main, D_REF, L_REF, n, (1.7, 1.95))
        assert len(roots) == 1, f"mode {n}"
        assert abs(roots[0] - ref) < 1e-8, f"mode {n}"


def test_branch_point_residual_and_band_membership(p_main):
    n = 20
    (sigma_bp,) = branch_point_sigmas(p_main, D_REF, L_REF, n, (1.7, 1.95))
    k = (n * math.pi / L_REF) ** 2
    e, ps = _at(p_main, sigma_bp)
    reports = mode_reports(e, ps, D_REF, L_REF)
    assert abs(reports[n].det) < 1e-10
    assert abs(reports[n].k_j - k) < 1e-15
    # Just below the branch point the mode is inside the unstable band.
    e_in, ps_in = _at(p_main, sigma_bp - 1e-3)
    assert mode_reports(e_in, ps_in, D_REF, L_REF)[n].unstable


def test_branch_point_no_root(p_main):
    with pytest.raises(NoRoot):
        branch_point_sigmas(p_main, D_REF, L_REF, 19, (2.0, 2.4))


def test_branch_point_table_matches_per_mode_scans(p_main):
    """The shared sigma scan gives exactly what one scan per mode gives."""
    bracket = (1.5, 2.4)
    table = branch_point_table(p_main, D_REF, L_REF, range(1, 33), bracket)
    per_mode, direct = [], []
    for n in range(1, 33):
        try:
            per_mode.extend((n, s) for s in
                            branch_point_sigmas(p_main, D_REF, L_REF, n, bracket))
        except NoRoot:
            pass
        k = (n * math.pi / L_REF) ** 2

        def det_n(sigma):
            e, ps = _at(p_main, sigma)
            a10, a01, b10, b01 = jacobian_fields(e.u, e.v, ps)
            return D_REF * k * k - (D_REF * a10 + b01) * k + (a10 * b01 - a01 * b10)

        try:
            direct.extend((n, s) for s in scan_roots(det_n, *bracket, n=400))
        except NoRoot:
            pass
    assert table == per_mode == direct
    assert set(BP_ORACLE) <= {n for n, _ in table}


def test_kpm_roots_oracle(p_main):
    e, ps = _at(p_main, 1.8)
    km, kp = kpm_roots(e, ps, D_REF)
    assert abs(km - KPM_18[0]) < 1e-10
    assert abs(kp - KPM_18[1]) < 1e-10
    assert 0 < km < kp
    assert abs(km * kp - e.det / D_REF) < 1e-10


def test_kpm_band_matches_unstable_modes(p_main):
    e, ps = _at(p_main, 1.8)
    km, kp = kpm_roots(e, ps, D_REF)
    reports = mode_reports(e, ps, D_REF, L_REF)
    modes = [r.j for r in reports if km < r.k_j < kp]
    assert modes == list(range(7, 19))
    det_unstable = [r.j for r in reports if r.det < 0]
    assert det_unstable == modes
    # sigma=1.8 sits below the Hopf point, so the homogeneous mode is
    # oscillatory-unstable through its trace; that is not part of the band.
    assert reports[0].trace > 0 and reports[0].unstable


def test_kpm_hypothesis_failures(p_main):
    # Above the BD point s < 0: hypothesis broken.
    with pytest.raises(HypothesisFailed):
        kpm_roots(*_at(p_main, 2.2), D_REF)
    # Inside the complex window the discriminant is negative.
    with pytest.raises(HypothesisFailed):
        kpm_roots(*_at(p_main, 1.95), D_REF)


def test_unstable_band_brackets_sigma_t(p_main):
    below, ps_b = _at(p_main, SIGMA_T - 0.03)
    above, ps_a = _at(p_main, SIGMA_T + 0.05)
    assert any(r.unstable for r in mode_reports(below, ps_b, D_REF, L_REF))
    assert not any(r.unstable for r in mode_reports(above, ps_a, D_REF, L_REF))


def test_default_jmax_covers_band(p_main):
    e, ps = _at(p_main, 1.8)
    reports = mode_reports(e, ps, D_REF, L_REF)
    _, kp = kpm_roots(e, ps, D_REF)
    assert reports[-1].k_j > kp
    assert not reports[-1].unstable


def test_dstar_paper_set():
    p = KineticParams(alpha=0.2, beta=2.4, gamma=1.3, sigma=1.5, eta=0.1)
    parts = dstar_parts(p, 1.0)
    assert abs(parts["u1"] - 0.928174419289) < 1e-10
    assert abs(parts["u2"] - 0.0718255807112) < 1e-10
    assert abs(parts["A"] - 4.38095155347) < 1e-9
    assert abs(parts["B"] - 2.89126938156) < 1e-9
    d = parts["dstar"]
    assert abs(d - DSTAR_PAPERSET) < 1e-9
    assert abs(d - 0.4439) < 1e-3


def test_dstar_scales_as_L_squared():
    p = KineticParams(alpha=0.2, beta=2.4, gamma=1.3, sigma=1.5, eta=0.1)
    d1 = dstar_parts(p, 1.0)["dstar"]
    d3 = dstar_parts(p, 3.0)["dstar"]
    assert abs(d3 - 9.0 * d1) < 1e-9


def test_dstar_not_applicable():
    with pytest.raises(HypothesisFailed, match="needs alpha > 0 and beta > 0"):
        dstar_parts(
            KineticParams(alpha=0.0, beta=2.4, gamma=1.3, sigma=1.5, eta=0.1), 1.0
        )
    with pytest.raises(HypothesisFailed, match="needs alpha > 0 and beta > 0"):
        dstar_parts(
            KineticParams(alpha=0.2, beta=0.0, gamma=1.3, sigma=1.5, eta=0.1), 1.0
        )
    with pytest.raises(OutOfRange):
        dstar_parts(
            KineticParams(alpha=0.2, beta=2.4, gamma=1.3, sigma=0.39, eta=0.1), 1.0
        )


@pytest.mark.parametrize("L", [1e-300, 1e300])
def test_dstar_where_k1_leaves_the_float_range_is_refused(L):
    # (pi/L)**2 overflowed at L = 1e-300 and underflowed to 0 at L = 1e300,
    # where dstar divided by it
    p = KineticParams(alpha=0.2, beta=2.4, gamma=1.3, sigma=1.5, eta=0.1)
    with pytest.raises(OutOfRange, match="k_1 = \\(1\\*pi/L\\)\\*\\*2 leaves"):
        dstar_parts(p, L)


def test_vbounds(p_main):
    u1, mstar = vbounds(p_main)
    assert abs(u1 - 0.961479103495) < 1e-10
    assert abs(mstar - MSTAR_27) < 1e-10
    assert abs(mstar - 0.6634) < 1e-4
    u1_edge, mstar_edge = vbounds(p_main.with_sigma(0.4))
    assert u1_edge == 0.5 and mstar_edge == 0.0
    with pytest.raises(OutOfRange):
        vbounds(p_main.with_sigma(0.39))


@pytest.mark.parametrize("L", [200.0, 600.0, 1000.0])
def test_branch_point_table_without_modes_misses_none(p_main, L):
    # modes=None stops one mode past the scan's largest band top, and every
    # mode that has a branch point on the scan lies below it
    bracket = (1.5, 2.4)
    table = branch_point_table(p_main, D_REF, L, None, bracket)
    assert table == branch_point_table(p_main, D_REF, L, range(1, 301), bracket)
    assert max(n for n, _ in table) == {200.0: 27, 600.0: 83, 1000.0: 138}[L]
