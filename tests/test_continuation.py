"""Arclength continuation: banded Newton, event tags, switching, stability.

Cross-module oracles: branch_point_sigmas and mode_reports from the linear
module, l2_norm from the pde module. Discrete branch points differ from the
continuum ones through the discrete-Laplacian symbol, which is why the
matching tolerances are looser than Newton's own.
"""

import math

import numpy as np
import pytest

from alleekit.continuation import (
    BandedLU,
    Branch,
    KL,
    KU,
    SteadyProblem,
    branch_switch,
    continue_branch,
    interleave,
    jacobian_banded,
    kernel_vector,
    localized_seed,
    newton_correct,
    residual,
    residual_matvec,
    sigma_derivative,
    solution_stability,
    split_fields,
)
from alleekit.errors import (
    FellBackToParent,
    KernelNotFound,
    NoConvergence,
    StepSizeUnderflow,
)
from alleekit.linear import branch_point_sigmas, mode_reports, vbounds
from alleekit.model import KineticParams, coexisting_equilibria, jacobian
from alleekit.pde import Grid, l2_norm

D_REF = 46.0
L_REF = 200.0

# continuum marginal-stability values for the modes crossed in [1.762, 1.83]
BP_WINDOW_ORACLE = {
    8: 1.829790908,
    17: 1.820361607,
    18: 1.805826862,
    7: 1.80136526,
    19: 1.78925564,
    20: 1.770557264,
}


@pytest.fixture
def base_p() -> KineticParams:
    return KineticParams(sigma=1.9, eta=0.1, alpha=0.07, beta=0.2, gamma=1.2)


def _problem(base_p, n=256) -> SteadyProblem:
    return SteadyProblem(Grid(L=L_REF, N=n), base_p, D_REF)


def _flat(prob, sigma) -> np.ndarray:
    e = coexisting_equilibria(prob.p.with_sigma(sigma))[-1]
    n = prob.grid.N
    return interleave(np.full(n, e.u), np.full(n, e.v))


def _banded_to_dense(ab: np.ndarray) -> np.ndarray:
    # dense oracle for the banded Jacobian, in LAPACK gbtrf layout
    n = ab.shape[1]
    out = np.zeros((n, n))
    for off in range(-KL, KU + 1):
        row = KL + KU - off
        if off >= 0:
            out[np.arange(n - off), np.arange(off, n)] = ab[row, off:]
        else:
            out[np.arange(-off, n), np.arange(n + off)] = ab[row, :off]
    return out


def _monotone_runs(u: np.ndarray, rel_tol: float = 1e-2) -> int:
    du = np.diff(u)
    keep = du[np.abs(du) > rel_tol * (u.max() - u.min() + 1e-300)]
    if keep.size == 0:
        return 0
    return int(np.count_nonzero(np.diff(np.sign(keep)))) + 1


def test_problem_validation(base_p):
    with pytest.raises(ValueError):
        SteadyProblem(Grid(L=L_REF, N=64), base_p, 0.0)


def test_residual_vanishes_at_constant_state(base_p):
    prob = _problem(base_p)
    x = _flat(prob, 1.9)
    assert np.abs(residual(x, 1.9, prob)).max() < 1e-13


def test_banded_jacobian_matches_fd(base_p, rng):
    prob = _problem(base_p, n=128)
    x = _flat(prob, 1.9) + 0.01 * rng.standard_normal(prob.n_unknowns)
    ab = jacobian_banded(x, 1.9, prob)
    eps = 1e-7
    scale = np.abs(ab).max()
    for j in rng.choice(prob.n_unknowns, size=40, replace=False):
        xp = x.copy()
        xp[j] += eps
        xm = x.copy()
        xm[j] -= eps
        fd = (residual(xp, 1.9, prob) - residual(xm, 1.9, prob)) / (2 * eps)
        ej = np.zeros(prob.n_unknowns)
        ej[j] = 1.0
        assert np.abs(fd - residual_matvec(ab, ej)).max() < 1e-6 * scale


def test_constant_state_spectrum_is_union_of_mode_blocks(base_p):
    n = 64
    prob = _problem(base_p, n=n)
    x = _flat(prob, 1.9)
    ev = np.linalg.eigvals(_banded_to_dense(jacobian_banded(x, 1.9, prob)))

    e = coexisting_equilibria(base_p)[-1]
    J = jacobian(e.u, e.v, base_p)
    dx = prob.grid.dx
    expected = []
    for j in range(n):
        kap = 2.0 * (1.0 - math.cos(j * math.pi / (n - 1))) / dx**2
        expected.extend(np.linalg.eigvals(J - kap * np.diag([1.0, D_REF])))
    got = np.sort_complex(ev)
    want = np.sort_complex(np.asarray(expected))
    assert np.abs(got - want).max() < 1e-6


def test_newton_keeps_constant_solution(base_p):
    prob = _problem(base_p)
    x = newton_correct(_flat(prob, 1.9), 1.9, prob)
    u, v = split_fields(x)
    assert np.ptp(u) < 1e-12 and np.ptp(v) < 1e-12


def test_newton_cosine_seed_lands_on_20_mode_branch(base_p):
    # the mode-20 branch is subcritical; below its onset only the folded-back
    # large-amplitude segment exists, so the seed must be a large cosine
    prob = _problem(base_p)
    sig = 1.7705
    e = coexisting_equilibria(base_p.with_sigma(sig))[-1]
    xg = prob.grid.x
    seed = interleave(e.u + 0.2 * np.cos(20 * np.pi * xg / L_REF),
                      np.full(prob.grid.N, e.v))
    x = newton_correct(seed, sig, prob)
    u, _ = split_fields(x)
    assert u.max() - u.min() > 0.3
    assert _monotone_runs(u) == 20


def test_newton_far_seed_raises(base_p):
    prob = _problem(base_p, n=64)
    bad = interleave(np.full(64, 1e6), np.full(64, 1.0))
    with pytest.raises(NoConvergence):
        newton_correct(bad, 1.9, prob)


def test_branch_points_match_linear_analysis(base_p):
    prob = _problem(base_p)
    br = continue_branch(_flat(prob, 1.796), 1.796, prob, direction=-1,
                         steps=40, ds0=2e-3, sigma_range=(1.768, 1.7965),
                         stability=False)
    got = sorted(pt.sigma for pt in br.tagged("BP"))
    assert len(got) == 2
    for n_mode, found in zip((20, 19), got):
        cont = branch_point_sigmas(base_p, D_REF, L_REF, n_mode, (1.7, 1.9))[0]
        assert abs(found - cont) < 1e-2


def test_branch_point_sharpens_under_grid_refinement(base_p):
    cont = branch_point_sigmas(base_p, D_REF, L_REF, 19, (1.7, 1.9))[0]
    errs = []
    for n in (256, 512):
        prob = _problem(base_p, n=n)
        br = continue_branch(_flat(prob, 1.795), 1.795, prob, direction=-1,
                             steps=25, ds0=2e-3, sigma_range=(1.7885, 1.796),
                             stability=False)
        bp = br.tagged("BP")
        assert len(bp) == 1
        errs.append(abs(bp[0].sigma - cont))
    assert errs[1] < errs[0]


def test_unstable_count_ladder_along_homogeneous_branch(base_p):
    # fixed step well under the closest BP spacing so no crossing is skipped;
    # window floor 1.767 keeps out the mode-2 oscillatory pair crossing at
    # sigma ~ 1.7648, which raises the count by 2 without any det-sign event
    prob = _problem(base_p)
    br = continue_branch(_flat(prob, 1.83), 1.83, prob, direction=-1,
                         steps=60, ds0=1.5e-3, sigma_range=(1.767, 1.8305),
                         stability=True, adapt=False)
    bps = br.tagged("BP")
    assert len(bps) == len(BP_WINDOW_ORACLE)
    for pt, (mode, sig_cont) in zip(sorted(bps, key=lambda q: -q.sigma),
                                    sorted(BP_WINDOW_ORACLE.items(),
                                           key=lambda kv: -kv[1])):
        assert abs(pt.sigma - sig_cont) < 2e-3, f"mode {mode}"

    # counts step up by exactly one between consecutive untagged points
    plain = [pt for pt in br.points if not pt.tags & {"BP", "Fold"}]
    diffs = np.diff([pt.n_unstable for pt in plain])
    assert set(diffs.tolist()) <= {0, 1}
    assert diffs.sum() == len(bps)


def test_branch_switch_counts_match_modes(base_p):
    prob = _problem(base_p)
    br = continue_branch(_flat(prob, 1.796), 1.796, prob, direction=-1,
                         steps=40, ds0=2e-3, sigma_range=(1.768, 1.7965),
                         stability=False)
    by_sigma = sorted(br.tagged("BP"), key=lambda q: -q.sigma)
    for pt, n_mode in zip(by_sigma, (19, 20)):
        x, _sig = branch_switch(br, pt.index, amplitude=0.05)
        u, _ = split_fields(x)
        assert _monotone_runs(u) == n_mode


def test_branch_switch_mirror_pair(base_p):
    # odd mode: the opposite-sign kernel perturbation lands on the
    # reflection image x -> L - x of the first solution
    prob = _problem(base_p)
    br = continue_branch(_flat(prob, 1.795), 1.795, prob, direction=-1,
                         steps=25, ds0=2e-3, sigma_range=(1.7885, 1.796),
                         stability=False)
    bp = br.tagged("BP")[0]
    x_plus, s_plus = branch_switch(br, bp.index, amplitude=0.05)
    x_minus, s_minus = branch_switch(br, bp.index, amplitude=-0.05)
    assert s_plus == pytest.approx(s_minus, abs=1e-12)
    u_plus, _ = split_fields(x_plus)
    u_minus, _ = split_fields(x_minus)
    assert np.abs(u_minus - u_plus[::-1]).max() < 1e-10


def test_branch_switch_tiny_amplitude_falls_back(base_p):
    prob = _problem(base_p)
    br = continue_branch(_flat(prob, 1.795), 1.795, prob, direction=-1,
                         steps=25, ds0=2e-3, sigma_range=(1.7885, 1.796),
                         stability=False)
    bp = br.tagged("BP")[0]
    with pytest.raises(FellBackToParent):
        branch_switch(br, bp.index, amplitude=1e-9)


def test_kernel_rejected_away_from_bifurcation(base_p):
    prob = _problem(base_p)
    with pytest.raises(KernelNotFound):
        kernel_vector(_flat(prob, 1.9), 1.9, prob)


def test_step_underflow_on_hopeless_step(base_p):
    prob = _problem(base_p)
    x = newton_correct(localized_seed(prob, 2.1, -0.15, width=8.0), 2.1, prob)
    with pytest.raises(StepSizeUnderflow):
        continue_branch(x, 2.1, prob, direction=1, steps=3, ds0=8.0,
                        ds_min=7.9, stability=False)


def test_localized_branch_snakes_through_folds(base_p):
    prob = _problem(base_p)
    x = newton_correct(localized_seed(prob, 2.1, -0.15, width=8.0), 2.1, prob)
    u0, _ = split_fields(x)
    assert np.ptp(u0) > 0.1  # genuinely localized, not the constant state
    br = continue_branch(x, 2.1, prob, direction=1, steps=60, ds0=0.01,
                         sigma_range=(1.95, 2.45), stability=False)
    assert len(br.points) > 20
    assert len(br.tagged("Fold")) >= 1

    # a-priori box for any steady state, checked pointwise per sigma
    for pt in br.points:
        u, v = split_fields(pt.x)
        u1, mstar = vbounds(prob.p.with_sigma(pt.sigma))
        assert u.min() > 0.0 and u.max() < u1
        assert v.min() > 0.0 and v.max() < mstar


def test_branch_norms_consistent_with_vectors(base_p):
    prob = _problem(base_p)
    br = continue_branch(_flat(prob, 2.0), 2.0, prob, direction=1, steps=8,
                         ds0=5e-3, stability=False)
    for pt in br.points:
        u, _ = split_fields(pt.x)
        assert abs(l2_norm(u, prob.grid.dx) - pt.l2norm_u) < 1e-12
        assert np.abs(residual(pt.x, pt.sigma, prob)).max() < 1e-9


def test_forward_backward_returns_to_start(base_p):
    prob = _problem(base_p)
    out = continue_branch(_flat(prob, 2.0), 2.0, prob, direction=1, steps=10,
                          ds0=5e-3, stability=False, adapt=False)
    end = out.points[-1]
    back = continue_branch(end.x, end.sigma, prob, direction=-1, steps=10,
                           ds0=5e-3, stability=False, adapt=False)
    assert abs(back.points[-1].sigma - 2.0) < 1e-6


def test_stability_of_stable_constant_state(base_p):
    # above the pattern-forming range every mode is damped; the leading
    # eigenvalue is the slowest kinetic pair, reproduced by mode blocks
    prob = _problem(base_p, n=256)
    sig = 2.2
    x = _flat(prob, sig)
    n_un, lam = solution_stability(x, sig, prob)
    assert n_un == 0

    ps = base_p.with_sigma(sig)
    e = coexisting_equilibria(ps)[-1]
    assert all(not r.unstable for r in mode_reports(e, ps, D_REF, L_REF))
    J = jacobian(e.u, e.v, ps)
    dx = prob.grid.dx
    best = -np.inf
    for j in range(prob.grid.N):
        kap = 2.0 * (1.0 - math.cos(j * math.pi / (prob.grid.N - 1))) / dx**2
        best = max(best, np.linalg.eigvals(J - kap * np.diag([1.0, D_REF])).real.max())
    assert lam[0].real == pytest.approx(best, abs=1e-6)


def test_stability_counts_band_and_oscillatory_pairs(base_p):
    # below the Hopf point the constant state carries both kinds of
    # instability; the count must equal the discrete per-mode tally
    prob = _problem(base_p, n=256)
    sig = 1.83
    n_un, _ = solution_stability(_flat(prob, sig), sig, prob)

    ps = base_p.with_sigma(sig)
    e = coexisting_equilibria(ps)[-1]
    J = jacobian(e.u, e.v, ps)
    dx = prob.grid.dx
    expect = 0
    for j in range(prob.grid.N):
        kap = 2.0 * (1.0 - math.cos(j * math.pi / (prob.grid.N - 1))) / dx**2
        ev = np.linalg.eigvals(J - kap * np.diag([1.0, D_REF]))
        expect += int((ev.real > 1e-8).sum())
    assert n_un == expect == 12


@pytest.mark.parametrize("n", [16, 64, 512])
def test_arnoldi_path_agrees_with_dense(base_p, n):
    # the shift-inverted path serves every size, down to the smallest grid;
    # same count and leading eigenvalue as direct eigvals
    prob = _problem(base_p, n=n)
    sig = 1.83
    x = _flat(prob, sig)
    n_un, lam = solution_stability(x, sig, prob)
    ev = np.linalg.eigvals(_banded_to_dense(jacobian_banded(x, sig, prob)))
    assert n_un == int((ev.real > 1e-8).sum())
    assert lam[0].real == pytest.approx(ev.real.max(), abs=1e-8)


def test_polished_pattern_survives_grid_refinement(base_p):
    sig = 1.7705
    e = coexisting_equilibria(base_p.with_sigma(sig))[-1]
    norms = {}
    sols = {}
    for n in (256, 512):
        prob = _problem(base_p, n=n)
        if n == 256:
            seed = interleave(
                e.u + 0.2 * np.cos(20 * np.pi * prob.grid.x / L_REF),
                np.full(n, e.v))
        else:
            coarse = sols[256]
            gx = Grid(L=L_REF, N=256).x
            seed = interleave(np.interp(prob.grid.x, gx, coarse[0]),
                              np.interp(prob.grid.x, gx, coarse[1]))
        x = newton_correct(seed, sig, prob)
        u, v = split_fields(x)
        sols[n] = (u, v)
        norms[n] = l2_norm(u, prob.grid.dx)
    assert abs(norms[512] - norms[256]) / norms[256] < 0.01
