"""Arclength continuation: banded Newton, event tags, switching, stability.

Cross-module oracles: branch_point_sigmas and mode_reports from the linear
module, l2_norm from the pde module. Discrete branch points differ from the
continuum ones through the discrete-Laplacian symbol, which is why the
matching tolerances are looser than Newton's own; model's det L(k) at pde's
neumann_symbol, along linear's E*(sigma), gives them exactly. scipy's ARPACK
(``scipy.sparse.linalg.eigs``), imported here only, is the oracle for the
Krylov-Schur eigensolver behind solution_stability.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from alleekit import continuation
from alleekit.continuation import (
    STABILITY_SHIFT,
    UNSTABLE_TOL,
    BandedLU,
    BranchPoint,
    KL,
    KU,
    SteadyProblem,
    Tangent,
    _largest_ritz,
    _refine_event,
    continue_branch,
    interleave,
    jacobian_banded,
    newton_correct,
    residual,
    solution_stability,
    split_fields,
    tangent_at,
)
from alleekit.errors import NoConvergence, NonFinite, OutOfRange, SingularJacobian
from alleekit.linear import (_estar_scalars, branch_point_sigmas, mode_reports,
                             vbounds)
from alleekit.model import (KineticParams, _det_l, coexisting_equilibria,
                            jacobian_fields, upper_coexisting)
from alleekit.pde import Grid, flapack, l2_norm, neumann_symbol
from alleekit.rootfind import bracketed_root

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


def _tagged(br: list[BranchPoint], tag: str) -> list:
    """The points of ``br`` whose tags include ``tag``."""
    return [pt for pt in br if tag in pt.tags]


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


# Helpers: _residual_matvec multiplies by the band for the finite-difference
# check of jacobian_banded; _kernel_vector and _branch_switch step off a BP
# onto the bifurcating branch, whose mode number checks continue_branch's
# BP tags; _localized_seed starts the snaking branch.


def _kernel_vector(x: np.ndarray, sigma: float, prob: SteadyProblem) -> np.ndarray:
    """Near-null vector of the steady-state Jacobian by inverse iteration
    (at most 100 steps).

    |J v|_inf must stay below 1e-8 times the matrix scale. That bound is
    sized for points localized to ~1e-7 in sigma by event refinement, where
    the crossing eigenvalue is orders below any other, and rejects points
    that are merely close to a bifurcation.
    """
    ab = jacobian_banded(x, sigma, prob)
    scale = float(np.abs(ab).max())
    lu = BandedLU(ab, KL, KU)
    if lu.singular:
        shifted = ab.copy()
        shifted[KL + KU, :] -= 1e-10 * scale
        lu = BandedLU(shifted, KL, KU)
        if lu.singular:
            raise NoConvergence("could not factor near the branch point")
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(x.size)
    v /= np.abs(v).max()
    for _ in range(100):
        w = lu.solve(v)
        wn = float(np.abs(w).max())
        if not math.isfinite(wn) or wn == 0.0:
            raise NoConvergence("inverse iteration collapsed")
        w /= wn
        if np.abs(w - v).max() < 1e-12 or np.abs(w + v).max() < 1e-12:
            v = w
            break
        v = w
    r = _residual_matvec(ab, v)
    if float(np.abs(r).max()) > 1e-8 * scale:
        raise NoConvergence("no sufficiently small singular direction found")
    return v


def _residual_matvec(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Multiply a vector by the banded matrix stored in gbtrf layout."""
    n = v.size
    out = ab[KL + KU, :] * v
    for off in range(1, KU + 1):
        out[:-off] += ab[KL + KU - off, off:] * v[off:]
    for off in range(1, KL + 1):
        out[off:] += ab[KL + KU + off, :-off] * v[:-off]
    return out


def _branch_switch(branch: list[BranchPoint], prob: SteadyProblem,
                   bp_index: int, amplitude: float) -> tuple[np.ndarray, float]:
    """Start point on the bifurcating branch at a detected BP.

    The side of the pitchfork is not known in advance, so the seed is
    corrected at sigma_bp -/+ 1e-3 with a short ladder of shrinking
    kernel amplitudes; the first correction that lands off the parent
    branch wins. Raises NoConvergence when every attempt fails, saying
    whether they all returned to the parent branch.
    """
    pt = branch[bp_index]
    if "BP" not in pt.tags:
        raise ValueError(f"point {bp_index} is not tagged as a branch point")
    phi = _kernel_vector(pt.x, pt.sigma, prob)
    u_par, _ = split_fields(pt.x)
    par_var = float(np.var(u_par))
    only_fellback = True
    for off in (-1e-3, 1e-3):
        sig_new = pt.sigma + off
        for amp in (amplitude, amplitude / 4.0, amplitude / 16.0):
            try:
                x_new = newton_correct(pt.x + amp * phi, sig_new, prob)
            except (NoConvergence, SingularJacobian, NonFinite):
                only_fellback = False
                continue
            u_new, _ = split_fields(x_new)
            # "came back to the parent" = variance did not move off the
            # parent's own variance scale (parent may itself be patterned)
            if abs(float(np.var(u_new)) - par_var) > 1e-10 + 0.1 * par_var:
                return x_new, sig_new
    if only_fellback:
        raise NoConvergence(
            f"all corrections near sigma={pt.sigma:.6g} returned to the parent branch")
    raise NoConvergence(
        f"no convergent correction off the parent branch at sigma={pt.sigma:.6g}")


def _localized_seed(prob: SteadyProblem, sigma: float, amplitude: float,
                    width: float) -> np.ndarray:
    """Single sech bump of the given width on top of the coexisting state,
    centered mid-domain."""
    p = prob.p.with_sigma(sigma)
    e = upper_coexisting(p)
    xg = prob.grid.x
    bump = amplitude / np.cosh((xg - 0.5 * prob.grid.L) / width)
    u = e.u + bump
    v = e.v + bump * (e.v / e.u)
    return interleave(u, v)


def test_problem_validation(base_p):
    with pytest.raises(ValueError):
        SteadyProblem(Grid(L=L_REF, N=64), base_p, 0.0)


def test_singular_band_refuses_to_solve():
    ab = np.zeros((2 * KL + KU + 1, 8))
    ab[KL + KU] = [1.0, 2.0, 0.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    lu = BandedLU(ab, KL, KU)
    assert lu.singular and lu.det_sign == 0
    with pytest.raises(SingularJacobian, match="numerically singular"):
        lu.solve(np.ones(8))


def test_localized_seed_needs_a_coexisting_state(base_p):
    prob = _problem(base_p, n=64)
    with pytest.raises(OutOfRange, match="no coexisting equilibrium at sigma=0.3"):
        _localized_seed(prob, 0.3, 0.1, width=8.0)


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
        assert np.abs(fd - _residual_matvec(ab, ej)).max() < 1e-6 * scale


def test_constant_state_spectrum_is_union_of_mode_blocks(base_p):
    n = 64
    prob = _problem(base_p, n=n)
    x = _flat(prob, 1.9)
    ev = np.linalg.eigvals(_banded_to_dense(jacobian_banded(x, 1.9, prob)))

    e = coexisting_equilibria(base_p)[-1]
    J = np.reshape(jacobian_fields(e.u, e.v, base_p), (2, 2))
    expected = []
    for kap in neumann_symbol(n, prob.grid.dx):
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
                         steps=40, ds0=2e-3, sigma_range=(1.768, 1.7965))
    got = sorted(pt.sigma for pt in _tagged(br, "BP"))
    assert len(got) == 2
    for n_mode, found in zip((20, 19), got):
        cont = branch_point_sigmas(base_p, D_REF, L_REF, n_mode, (1.7, 1.9))[0]
        assert abs(found - cont) < 1e-2


def test_branch_points_are_roots_of_the_discrete_symbol(base_p):
    # exact oracle: on the grid, mode j's block sees kappa_j of the discrete
    # Neumann symbol, so each BP tag of the golden branch is a root in sigma
    # of det L(kappa_j) along E*(sigma), to the 1e-7 refinement width
    prob = _problem(base_p)
    br = continue_branch(_flat(prob, 1.83), 1.83, prob, direction=-1,
                         steps=20, ds0=1.5e-3, sigma_range=(1.767, 1.8305))
    kappa = neumann_symbol(prob.grid.N, prob.grid.dx)

    def det_l(j, sigma):
        _, s, det0 = _estar_scalars(base_p, D_REF, sigma)
        return _det_l(kappa[j], s, det0, D_REF)

    modes = []
    for pt in _tagged(br, "BP"):
        lo, hi = pt.sigma - 1e-5, pt.sigma + 1e-5
        (j,) = [j for j in range(prob.grid.N)
                if det_l(j, lo) * det_l(j, hi) < 0.0]
        root = bracketed_root(lambda sigma: det_l(j, sigma), lo, hi)
        assert abs(root - pt.sigma) < 1e-7, f"mode {j}"
        modes.append(j)
    assert modes == [8, 17, 18, 7, 19, 20]


def test_branch_point_sharpens_under_grid_refinement(base_p):
    cont = branch_point_sigmas(base_p, D_REF, L_REF, 19, (1.7, 1.9))[0]
    errs = []
    for n in (256, 512):
        prob = _problem(base_p, n=n)
        br = continue_branch(_flat(prob, 1.795), 1.795, prob, direction=-1,
                             steps=25, ds0=2e-3, sigma_range=(1.7885, 1.796))
        bp = _tagged(br, "BP")
        assert len(bp) == 1
        errs.append(abs(bp[0].sigma - cont))
    assert errs[1] < errs[0]


def test_unstable_count_ladder_along_homogeneous_branch(base_p):
    # the adapted steps stay under 4*ds0 = 6e-3 in sigma, and none of them
    # holds two crossings (the closest BPs, modes 18 and 7, lie 4.5e-3
    # apart), so no crossing is skipped; window floor 1.767 keeps out the mode-2 oscillatory pair crossing at
    # sigma ~ 1.7648, which raises the count by 2 without any det-sign event
    prob = _problem(base_p)
    br = continue_branch(_flat(prob, 1.83), 1.83, prob, direction=-1,
                         steps=60, ds0=1.5e-3, sigma_range=(1.767, 1.8305))
    bps = _tagged(br, "BP")
    assert len(bps) == len(BP_WINDOW_ORACLE)
    for pt, (mode, sig_cont) in zip(sorted(bps, key=lambda q: -q.sigma),
                                    sorted(BP_WINDOW_ORACLE.items(),
                                           key=lambda kv: -kv[1])):
        assert abs(pt.sigma - sig_cont) < 2e-3, f"mode {mode}"

    # counts step up by exactly one between consecutive untagged points
    plain = [pt for pt in br if not pt.tags & {"BP", "Fold"}]
    diffs = np.diff([pt.n_unstable for pt in plain])
    assert set(diffs.tolist()) <= {0, 1}
    assert diffs.sum() == len(bps)


def test_count_bisection_stops_at_the_det_sign_branch_point(base_p):
    # the event bisection on the certified unstable count, in place of the
    # determinant sign, stops at the same corrected point: the mode-8 BP of
    # the benchmark branch, where one real eigenvalue crosses (12 -> 13)
    prob = _problem(base_p)
    br = continue_branch(_flat(prob, 1.83), 1.83, prob, direction=-1,
                         steps=1, ds0=1.5e-3)
    start, bp = br[:2]
    assert bp.tags == {"BP"} and bp.n_unstable == 13
    tau, _ = tangent_at(start.x, start.sigma, prob,
                        prev=Tangent(np.zeros_like(start.x), -1.0))
    x_ev, sig_ev = _refine_event(
        start.x, start.sigma, tau, 1.5e-3, prob,
        lambda x, sigma: solution_stability(x, sigma, prob)[0],
        start.n_unstable)
    assert sig_ev == bp.sigma
    assert x_ev.tobytes() == bp.x.tobytes()
    assert solution_stability(x_ev, sig_ev, prob)[0] == 13


def test_event_whose_refinement_never_corrects_is_dropped(base_p, monkeypatch):
    # every correction inside the event bisection fails, so each halving
    # moves its far end toward the last point until the step is below
    # 1e-12; the BP is dropped and the branch goes on as without the fault
    prob = _problem(base_p)
    clean = continue_branch(_flat(prob, 1.83), 1.83, prob, direction=-1,
                            steps=3, ds0=1.5e-3)
    real_refine, real_correct = _refine_event, continuation._arclength_correct
    refining, tried = [], []

    def refine(*args):
        refining.append(True)
        try:
            return real_refine(*args)
        finally:
            refining.pop()

    def correct(x0, sigma0, tau, ds, prob):
        if refining:
            tried.append(ds)
            raise NoConvergence("arclength corrector exhausted its iterations")
        return real_correct(x0, sigma0, tau, ds, prob)

    monkeypatch.setattr(continuation, "_refine_event", refine)
    monkeypatch.setattr(continuation, "_arclength_correct", correct)
    faulted = continue_branch(_flat(prob, 1.83), 1.83, prob, direction=-1,
                              steps=3, ds0=1.5e-3)
    events = _tagged(clean, "BP")
    assert len(events) == 1 and not _tagged(faulted, "BP")
    assert tried == [1.5e-3 * 0.5 ** k for k in range(1, len(tried) + 1)]
    assert tried[-1] < 1e-12 <= tried[-2]  # the width test ends it
    kept = [pt for pt in clean if pt is not events[0]]
    assert len(faulted) == len(kept) == 4
    for pt, ref in zip(faulted, kept):
        assert (pt.sigma, pt.n_unstable, pt.tags, pt.x.tobytes()) == (
            ref.sigma, ref.n_unstable, ref.tags, ref.x.tobytes())


def test_branch_switch_counts_match_modes(base_p):
    prob = _problem(base_p)
    br = continue_branch(_flat(prob, 1.796), 1.796, prob, direction=-1,
                         steps=40, ds0=2e-3, sigma_range=(1.768, 1.7965))
    by_sigma = sorted(_tagged(br, "BP"), key=lambda q: -q.sigma)
    for pt, n_mode in zip(by_sigma, (19, 20)):
        x, _sig = _branch_switch(br, prob, pt.index, amplitude=0.05)
        u, _ = split_fields(x)
        assert _monotone_runs(u) == n_mode


def test_branch_switch_mirror_pair(base_p):
    # odd mode: the opposite-sign kernel perturbation lands on the
    # reflection image x -> L - x of the first solution
    prob = _problem(base_p)
    br = continue_branch(_flat(prob, 1.795), 1.795, prob, direction=-1,
                         steps=25, ds0=2e-3, sigma_range=(1.7885, 1.796))
    bp = _tagged(br, "BP")[0]
    x_plus, s_plus = _branch_switch(br, prob, bp.index, amplitude=0.05)
    x_minus, s_minus = _branch_switch(br, prob, bp.index, amplitude=-0.05)
    assert s_plus == pytest.approx(s_minus, abs=1e-12)
    u_plus, _ = split_fields(x_plus)
    u_minus, _ = split_fields(x_minus)
    assert np.abs(u_minus - u_plus[::-1]).max() < 1e-10


def test_branch_switch_tiny_amplitude_falls_back(base_p):
    prob = _problem(base_p)
    br = continue_branch(_flat(prob, 1.795), 1.795, prob, direction=-1,
                         steps=25, ds0=2e-3, sigma_range=(1.7885, 1.796))
    bp = _tagged(br, "BP")[0]
    with pytest.raises(NoConvergence, match="returned to the parent branch"):
        _branch_switch(br, prob, bp.index, amplitude=1e-9)


def test_kernel_rejected_away_from_bifurcation(base_p):
    prob = _problem(base_p)
    with pytest.raises(NoConvergence,
                       match="no sufficiently small singular direction"):
        _kernel_vector(_flat(prob, 1.9), 1.9, prob)


def test_step_underflow_on_hopeless_step(base_p, monkeypatch):
    # every correction fails, so the first step halves from ds0 until it
    # falls below DS_MIN
    tried = []

    def hopeless(x0, sigma0, tau, ds, prob):
        tried.append(ds)
        raise NoConvergence("arclength corrector exhausted its iterations")

    monkeypatch.setattr(continuation, "_arclength_correct", hopeless)
    prob = _problem(base_p, n=64)
    with pytest.raises(NoConvergence, match="arclength step fell below"):
        continue_branch(_flat(prob, 1.9), 1.9, prob, steps=3, ds0=0.01)
    assert tried == [0.01 * 0.5 ** k for k in range(7)]
    assert tried[-1] >= continuation.DS_MIN > 0.5 * tried[-1]


def test_localized_branch_snakes_through_folds(base_p):
    prob = _problem(base_p)
    x = newton_correct(_localized_seed(prob, 2.1, -0.15, width=8.0), 2.1, prob)
    u0, _ = split_fields(x)
    assert np.ptp(u0) > 0.1  # genuinely localized, not the constant state
    br = continue_branch(x, 2.1, prob, direction=1, steps=60, ds0=0.01,
                         sigma_range=(1.95, 2.45))
    assert len(br) > 20
    assert len(_tagged(br, "Fold")) >= 1

    # a-priori box for any steady state, checked pointwise per sigma
    for pt in br:
        u, v = split_fields(pt.x)
        u1, mstar = vbounds(prob.p.with_sigma(pt.sigma))
        assert u.min() > 0.0 and u.max() < u1
        assert v.min() > 0.0 and v.max() < mstar


def test_stability_on_the_snaking_branch_matches_dense_eigenvalues(base_p):
    # a patterned-state oracle: the certified count equals the dense count
    # on either side of every change along the localized branch and at the
    # fold; at the BP points among them a real eigenvalue lies within 1e-12
    # of zero
    prob = _problem(base_p)
    x = newton_correct(_localized_seed(prob, 2.1, -0.15, width=8.0), 2.1, prob)
    br = continue_branch(x, 2.1, prob, direction=1, steps=60, ds0=0.01,
                         sigma_range=(1.95, 2.45))
    counts = [pt.n_unstable for pt in br]
    changes = [i for i in range(1, len(counts)) if counts[i] != counts[i - 1]]
    assert len(counts) == 30 and len(_tagged(br, "Fold")) == 1
    assert [counts[0]] + [counts[i] for i in changes] == [3, 4, 5, 2, 3]
    check = {_tagged(br, "Fold")[0].index}
    check.update(j for i in changes for j in (i - 1, i))
    for i in sorted(check):
        pt = br[i]
        ab = jacobian_banded(pt.x, pt.sigma, prob)
        lam = np.linalg.eigvals(_banded_to_dense(ab))
        assert (lam.real > UNSTABLE_TOL).sum() == pt.n_unstable, f"point {i}"


def test_branch_norms_consistent_with_vectors(base_p):
    prob = _problem(base_p)
    br = continue_branch(_flat(prob, 2.0), 2.0, prob, direction=1, steps=8,
                         ds0=5e-3)
    for pt in br:
        u, _ = split_fields(pt.x)
        assert abs(l2_norm(u, prob.grid.dx) - pt.l2norm_u) < 1e-12
        assert np.abs(residual(pt.x, pt.sigma, prob)).max() < 1e-9


def test_forward_backward_returns_to_start(base_p):
    prob = _problem(base_p)
    out = continue_branch(_flat(prob, 2.0), 2.0, prob, direction=1, steps=10,
                          ds0=5e-3)
    end = out[-1]
    back = continue_branch(end.x, end.sigma, prob, direction=-1, steps=10,
                           ds0=5e-3)
    assert abs(back[-1].sigma - 2.0) < 1e-6


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
    J = np.reshape(jacobian_fields(e.u, e.v, ps), (2, 2))
    best = -np.inf
    for kap in neumann_symbol(prob.grid.N, prob.grid.dx):
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
    J = np.reshape(jacobian_fields(e.u, e.v, ps), (2, 2))
    expect = 0
    for kap in neumann_symbol(prob.grid.N, prob.grid.dx):
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


def _arpack_spectrum(x, sigma, prob, k):
    # the k eigenvalues nearest the shift by ARPACK on the same banded LU
    from scipy.sparse.linalg import LinearOperator, eigs

    ab = jacobian_banded(x, sigma, prob)
    ab[KL + KU] -= STABILITY_SHIFT
    lu = BandedLU(ab, KL, KU)
    n = prob.n_unknowns
    mu = eigs(LinearOperator((n, n), matvec=lu.solve, dtype=float), k=k,
              which="LM", return_eigenvectors=False, maxiter=max(300, 20 * k))
    return STABILITY_SHIFT + 1.0 / mu


def _assert_same_near_shift(lam, ref, tol):
    # a conjugate pair on the rim of the covered disk may be split
    # differently by the two solvers, so compare strictly inside it
    radius = min(np.abs(lam - STABILITY_SHIFT).max(),
                 np.abs(ref - STABILITY_SHIFT).max()) * (1.0 - 1e-9)
    ours = lam[np.abs(lam - STABILITY_SHIFT) < radius]
    theirs = ref[np.abs(ref - STABILITY_SHIFT) < radius]
    assert ours.size == theirs.size
    assert max(np.abs(theirs - z).min() for z in ours) < tol
    assert max(np.abs(ours - z).min() for z in theirs) < tol


@pytest.mark.parametrize("n", [16, 64, 512])
def test_stability_agrees_with_arpack(base_p, n):
    prob = _problem(base_p, n=n)
    sig = 1.83
    x = _flat(prob, sig)
    # at n = 16 the basis fills all 32 dimensions, so the last Arnoldi
    # step leaves a zero residual that must not be divided by
    with np.errstate(all="raise"):
        n_un, lam = solution_stability(x, sig, prob)
    ref = _arpack_spectrum(x, sig, prob, lam.size)
    assert n_un == int((ref.real > UNSTABLE_TOL).sum())
    _assert_same_near_shift(lam, ref, 1e-10)


def _dgees_spy():
    # a dgees that records the order of each Schur form it takes
    sizes = []
    real = flapack.dgees

    def spy(*args, **kwargs):
        sizes.append(args[1].shape[0])
        return real(*args, **kwargs)

    return sizes, spy


_BENCHMARK_BPS = pytest.mark.parametrize("n, sigma_bp", [(256, 1.82971961783),
                                                         (1024, 1.82978641805)])


def _benchmark_bp(base_p, n, sigma_bp):
    # the first step of each benchmark branch crosses the mode-8 BP
    prob = _problem(base_p, n=n)
    br = continue_branch(_flat(prob, 1.83), 1.83, prob, direction=-1,
                         steps=1, ds0=1.5e-3, sigma_range=(1.767, 1.8305))
    (bp,) = _tagged(br, "BP")
    assert abs(bp.sigma - sigma_bp) < 1e-9
    return prob, bp


@_BENCHMARK_BPS
def test_crossing_eigenvalue_at_benchmark_bp_agrees_with_arpack(base_p, n,
                                                                 sigma_bp):
    # there the crossing eigenvalue sits only a few UNSTABLE_TOL above zero
    prob, bp = _benchmark_bp(base_p, n, sigma_bp)
    n_un, lam = solution_stability(bp.x, bp.sigma, prob)
    ref = _arpack_spectrum(bp.x, bp.sigma, prob, lam.size)
    assert n_un == int((ref.real > UNSTABLE_TOL).sum()) == 13
    _assert_same_near_shift(lam, ref, 1e-10)
    crossing = lam[np.argmin(np.abs(lam))]
    assert UNSTABLE_TOL < crossing.real < 5.0 * UNSTABLE_TOL
    assert abs(crossing - ref[np.argmin(np.abs(ref))]) < 1e-12


@_BENCHMARK_BPS
def test_benchmark_bp_stability_takes_one_schur_form(base_p, n, sigma_bp,
                                                     monkeypatch):
    # the first Krylov basis is large enough that the wanted Ritz values
    # converge at its Schur form, with no restart
    prob, bp = _benchmark_bp(base_p, n, sigma_bp)
    sizes, spy = _dgees_spy()
    monkeypatch.setattr(flapack, "dgees", spy)
    n_un, _ = solution_stability(bp.x, bp.sigma, prob)
    assert n_un == 13
    assert len(sizes) == 1


def test_stability_is_reproducible(base_p):
    prob = _problem(base_p, n=256)
    x = _flat(prob, 1.83)
    _, lam1 = solution_stability(x, 1.83, prob)
    _, lam2 = solution_stability(x, 1.83, prob)
    assert lam1.tobytes() == lam2.tobytes()


def test_stability_spectrum_is_the_discrete_symbol(base_p):
    # at the homogeneous state the returned eigenvalues are mode-block
    # eigenvalues of J - kappa_j diag(1, d), and every block eigenvalue
    # inside the covered disk is returned
    prob = _problem(base_p, n=256)
    sig = 1.83
    n_un, lam = solution_stability(_flat(prob, sig), sig, prob)
    ps = base_p.with_sigma(sig)
    e = coexisting_equilibria(ps)[-1]
    J = np.reshape(jacobian_fields(e.u, e.v, ps), (2, 2))
    blocks = np.concatenate([np.linalg.eigvals(J - kap * np.diag([1.0, D_REF]))
                             for kap in neumann_symbol(prob.grid.N, prob.grid.dx)])
    assert max(np.abs(blocks - z).min() for z in lam) < 1e-10
    radius = np.abs(lam - STABILITY_SHIFT).max() * (1.0 - 1e-9)
    inside = np.abs(blocks - STABILITY_SHIFT) < radius
    assert inside.sum() == (np.abs(lam - STABILITY_SHIFT) < radius).sum()
    assert n_un == 12


def test_krylov_schur_restarts_after_an_invariant_subspace():
    # every Krylov space of a zero operator breaks down at once, and one of
    # a diagonal with five distinct entries after five steps; the repeated
    # top eigenvalue is found from fresh directions
    with np.errstate(all="raise"):
        assert np.array_equal(_largest_ritz(np.zeros_like, 40, 6), np.zeros(6))
        d = np.repeat([5.0, -4.0, 3.0, 2.0, 1.0], 8)
        mu = _largest_ritz(lambda v: d * v, 40, 10)
    assert np.allclose(mu, [5.0] * 8 + [-4.0] * 2, rtol=0, atol=1e-12)


@st.composite
def _block_diagonal(draw):
    # n - 2 >= k and a random spectrum of distinct moduli q**e: 1 x 1 real
    # blocks of either sign and 2 x 2 scaled rotations for conjugate pairs;
    # the ratio q sets how fast the Ritz values converge
    n = draw(st.integers(22, 40))
    k = draw(st.integers(1, n - 2))
    q = draw(st.floats(1.02, 1.5))
    powers = draw(st.lists(st.integers(0, 80), min_size=n, max_size=n,
                           unique=True))
    a = np.zeros((n, n))
    eigs = []
    i = 0
    for r in (q**e for e in powers):
        if i == n:
            break
        if i + 2 <= n and draw(st.booleans()):
            t = draw(st.floats(0.1, math.pi - 0.1))
            a[i:i + 2, i:i + 2] = r * np.array([[math.cos(t), -math.sin(t)],
                                                [math.sin(t), math.cos(t)]])
            eigs += [r * complex(math.cos(t), math.sin(t)),
                     r * complex(math.cos(t), -math.sin(t))]
            i += 2
        else:
            a[i, i] = r * draw(st.sampled_from([1.0, -1.0]))
            eigs.append(complex(a[i, i]))
            i += 1
    return a, np.array(eigs), k


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_block_diagonal())
def test_largest_ritz_finds_the_k_largest_of_a_block_diagonal_operator(case):
    # n = 22..40 against a basis of at least 20 vectors: small k restarts
    # or converges at the first Schur form, large k fills the whole space
    a, eigs, k = case
    sizes, spy = _dgees_spy()
    with mock.patch.object(flapack, "dgees", spy):
        got = _largest_ritz(lambda v: a @ v, a.shape[0], k)
    event("m = n" if sizes[0] == a.shape[0]
          else "one cycle" if len(sizes) == 1 else "restarted")
    want = eigs[np.lexsort((-eigs.imag, -np.abs(eigs)))[:k]]
    assert got.shape == (k,)
    # the operator is normal, so its 2-norm is its largest modulus
    assert np.abs(got - want).max() < 1e-12 * np.abs(eigs).max()


def test_stability_of_a_point_does_not_depend_on_the_branch_before_it(
        base_p, monkeypatch):
    # the end of a branch traced up from sigma = 2.0, whose earlier points
    # need a larger Krylov space, and the start of a fresh branch at that
    # same state give bitwise-equal spectra
    seen = []
    real = continuation.solution_stability

    def spy(x, sigma, prob, *args):
        n_un, lam = real(x, sigma, prob, *args)
        seen.append((x.tobytes(), sigma, lam))
        return n_un, lam

    monkeypatch.setattr(continuation, "solution_stability", spy)
    prob = _problem(base_p, n=64)
    up = continue_branch(_flat(prob, 2.0), 2.0, prob, direction=1, steps=4,
                         ds0=0.02)
    end = up[-1]
    assert end.sigma > 2.07
    first = seen[-1]
    seen.clear()
    continue_branch(end.x, end.sigma, prob, direction=-1, steps=1, ds0=0.02)
    again = seen[0]
    assert first[:2] == again[:2]
    assert first[2].size == again[2].size
    assert np.array_equal(first[2], again[2])


def _ritz_calls(monkeypatch):
    calls = []
    real = continuation._largest_ritz

    def spy(apply, n, k):
        calls.append(k)
        return real(apply, n, k)

    monkeypatch.setattr(continuation, "_largest_ritz", spy)
    return calls


@pytest.mark.parametrize("n", [256, 1024])
def test_symbol_sizes_one_arnoldi_pass_at_the_benchmark_states(base_p, n,
                                                               monkeypatch):
    # the 50 eigenvalues of the homogeneous state inside the covered disk
    # are counted by the discrete symbol, so the first k certifies
    calls = _ritz_calls(monkeypatch)
    prob = _problem(base_p, n=n)
    solution_stability(_flat(prob, 1.83), 1.83, prob)
    assert calls == [52]


@pytest.mark.parametrize("n,ks,n_unstable", [
    (256, [8, 16, 32, 64], 16),
    # at 128 unknowns the doubling stops at the n - 2 cap
    (64, [8, 16, 32, 64, 126], 17),
])
def test_a_short_start_doubles_k_to_the_same_count(base_p, n, ks, n_unstable,
                                                   monkeypatch):
    # a symbol count of 0 starts k at 8; doubling it until the covered disk
    # holds the Bendixson box must certify the count the symbol start gives
    prob = _problem(base_p, n=n)
    x = _flat(prob, 1.80)
    assert solution_stability(x, 1.80, prob)[0] == n_unstable
    monkeypatch.setattr(continuation, "_symbol_count", lambda *args: 0)
    calls = _ritz_calls(monkeypatch)
    assert solution_stability(x, 1.80, prob)[0] == n_unstable
    assert calls == ks


def test_symbol_sizes_one_arnoldi_pass_at_a_patterned_state(base_p,
                                                            monkeypatch):
    prob = _problem(base_p)
    x = newton_correct(_localized_seed(prob, 2.1, -0.15, width=8.0), 2.1, prob)
    u, _ = split_fields(x)
    assert np.ptp(u) > 0.1
    calls = _ritz_calls(monkeypatch)
    solution_stability(x, 2.1, prob)
    assert len(calls) == 1


def test_one_factorization_per_point_besides_the_correctors(base_p,
                                                            monkeypatch):
    # the tangent's factorization also gives the determinant sign, so a
    # point costs one LU besides those of Newton, the arclength corrector
    # and the shifted one of its stability
    made = {"all": 0, "correctors": 0, "stability": 0}

    class Counting(BandedLU):
        def __init__(self, *args):
            made["all"] += 1
            super().__init__(*args)

    monkeypatch.setattr(continuation, "BandedLU", Counting)
    for name, bucket in (("newton_correct", "correctors"),
                         ("_arclength_correct", "correctors"),
                         ("solution_stability", "stability")):
        def spy(*args, _real=getattr(continuation, name), _bucket=bucket):
            before = made["all"]
            try:
                return _real(*args)
            finally:
                made[_bucket] += made["all"] - before
        monkeypatch.setattr(continuation, name, spy)
    prob = _problem(base_p, n=64)
    br = continue_branch(_flat(prob, 2.0), 2.0, prob, direction=1, steps=8,
                         ds0=5e-3)
    assert [pt.tags - {"Start", "End"} for pt in br] == [set()] * 9
    assert made["stability"] == len(br)
    assert made["all"] - made["correctors"] - made["stability"] == len(br)


def test_coverage_radius_follows_a_raised_shift(base_p, monkeypatch):
    # the first shifted factorization reports singular, so the shift rises
    # 1.37-fold; the symbol's disk and the coverage check use the radius of
    # that shift, and the certified count is the unforced one
    prob = _problem(base_p)
    x = _flat(prob, 1.83)
    n_ref, _ = solution_stability(x, 1.83, prob)
    made = []

    class FirstSingular(BandedLU):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)
            if len(made) == 1:
                self.singular = True

    seen = []
    real = continuation._symbol_count

    def spy(x, sigma, prob, shift, r):
        seen.append((shift, r))
        return real(x, sigma, prob, shift, r)

    monkeypatch.setattr(continuation, "BandedLU", FirstSingular)
    monkeypatch.setattr(continuation, "_symbol_count", spy)
    n_un, lam = solution_stability(x, 1.83, prob)
    s = STABILITY_SHIFT * 1.37
    re_cap, im_cap = continuation._bendixson_caps(x, 1.83, prob)
    assert len(made) == 2
    assert seen == [(s, math.hypot(max(s, re_cap - s), im_cap))]
    assert np.abs(lam - s).max() >= seen[0][1]
    assert n_un == n_ref == 12
