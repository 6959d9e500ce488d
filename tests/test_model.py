"""Kinetics, equilibria, and temporal thresholds.

Reference numbers were frozen from an independent oracle (numpy.roots for
the coexistence cubic, scipy.optimize.brentq for threshold crossings, sympy
exact derivatives for the Lyapunov number) before this package's own
closed-form/bisection paths were written.
"""

import decimal
import math
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from alleekit.errors import (
    HypothesisFailed,
    NonFinite,
    NoRoot,
    OutOfRange,
)
from alleekit.model import (
    Equilibrium,
    EquilibriumKind,
    KineticParams,
    Stability,
    _classify,
    all_equilibria,
    axial_equilibria,
    coexisting_equilibria,
    first_lyapunov_coefficient,
    hopf_sigma,
    jacobian_fields,
    kinetics,
    sigma_s,
    sigma_sn,
    sigma_tc,
    trivial_equilibrium,
    upper_axial,
)

# Frozen oracle values, main set (alpha=0.07, beta=0.2, gamma=1.2, eta=0.1).
U1_27 = 0.961479103495
U2_27 = 0.0385208965046
ESTAR_27 = (0.729093758784, 0.379093758784)
SIGMA_TC = 0.43956043956
SIGMA_S_27 = 1.4824864996
SIGMA_H = 1.85660156367
ESTAR_H = (0.598612943406, 0.248612943406)
L1_ORACLE = -71.4674386639  # sympy exact derivatives + planar normal form
# sympy, 50 digits, at the package's own Hopf point of alpha = 0, sigma = 3.9
L1_ORACLE_RATIO = 280.482549454672


def test_kinetics_vanishes_at_origin(p_main):
    assert kinetics(0.0, 0.0, p_main) == (0.0, 0.0)


def test_kinetics_vanishes_at_axial(p_main):
    f1, f2 = kinetics(U1_27, 0.0, p_main)
    assert abs(f1) < 1e-11 and f2 == 0.0


def test_kinetics_near_zero_at_rounded_estar(p_main):
    # Four-digit reference values, so only ~1e-3 residual is guaranteed.
    f1, f2 = kinetics(0.7291, 0.3791, p_main)
    assert abs(f1) < 1e-3 and abs(f2) < 1e-3


def test_kinetics_origin_convention_ratio_dependent():
    p = KineticParams(alpha=0.0, beta=0.2, gamma=1.2, sigma=2.7, eta=0.1)
    assert kinetics(0.0, 0.0, p) == (0.0, 0.0)
    np.testing.assert_allclose(np.reshape(jacobian_fields(0.0, 0.0, p), (2, 2)),
                               np.diag([-0.1, -1.0]))


def test_kinetics_vectorized_matches_scalar(p_main, rng):
    u = rng.uniform(0.0, 2.0, size=40)
    v = rng.uniform(0.0, 2.0, size=40)
    f1, f2 = kinetics(u, v, p_main)
    for i in range(u.size):
        s1, s2 = kinetics(float(u[i]), float(v[i]), p_main)
        assert abs(f1[i] - s1) < 1e-14
        assert abs(f2[i] - s2) < 1e-14


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _trial_states():
    """States an adaptive stepper can hand the kinetics: the origin,
    slightly negative undershoots, a vanishing response denominator for
    alpha = 0 (u = -beta*v), and ordinary interior points."""
    vals = [0.0, -1e-12, -1e-6, 1e-9, 0.1, 0.598612943406, 0.729093758784, 1.3]
    u, v = np.meshgrid(vals + [-0.1], vals + [0.5])
    return u.ravel(), v.ravel()


@pytest.mark.parametrize("alpha", [0.07, 0.0])
def test_scalar_and_array_paths_agree_bit_for_bit(alpha):
    values = dict(alpha=alpha, beta=0.2, gamma=1.2, sigma=2.7, eta=0.1)
    u, v = _trial_states()
    # parameters given as numpy scalars are stored as Python floats, so the
    # scalar path still returns Python floats
    for kind in (float, np.float64):
        p = KineticParams(**{k: kind(x) for k, x in values.items()})
        assert all(type(getattr(p, k)) is float for k in values)
        f_arr = kinetics(u, v, p)
        j_arr = jacobian_fields(u, v, p)
        for i in range(u.size):
            for a, b in ((float(u[i]), float(v[i])), (u[i], v[i])):
                f = kinetics(a, b, p)
                assert all(type(x) is float for x in f)
                assert _bits(f).tolist() == _bits([c[i] for c in f_arr]).tolist(), (a, b)
                j = jacobian_fields(a, b, p)
                assert all(type(x) is float for x in j)
                assert _bits(j).tolist() == _bits([c[i] for c in j_arr]).tolist(), (a, b)


def test_array_calls_share_no_memory(p_main):
    # each array call sizes its own buffers, so a later call leaves the
    # arrays of an earlier one as they were
    u, v = _trial_states()
    for f in (kinetics, jacobian_fields):
        first = f(u, v, p_main)
        kept = [a.copy() for a in first]
        second = f(v, u, p_main)
        assert not any(np.shares_memory(a, b) for a in first for b in second)
        assert _bits(first).tolist() == _bits(kept).tolist()


def test_with_sigma_is_replace_and_is_validated(p_main):
    for sigma in (1.82, np.float64(1.82), 2):
        q = p_main.with_sigma(sigma)
        assert q == replace(p_main, sigma=sigma)
        assert hash(q) == hash(replace(p_main, sigma=sigma))
        assert type(q.sigma) is float
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            p_main.with_sigma(bad)
    with pytest.raises(NonFinite):
        p_main.with_sigma(math.nan)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scalar_kinetics_rejects_non_finite(p_main, bad):
    for u, v in ((bad, 0.3), (0.3, bad), (np.float64(bad), np.float64(0.3))):
        with pytest.raises(NonFinite):
            kinetics(u, v, p_main)
        with pytest.raises(NonFinite, match="jacobian called at non-finite point"):
            jacobian_fields(u, v, p_main)
    with pytest.raises(NonFinite):
        kinetics(np.array([0.3, bad]), np.array([0.3, 0.3]), p_main)


def test_jacobian_at_origin(p_main):
    np.testing.assert_allclose(np.reshape(jacobian_fields(0.0, 0.0, p_main), (2, 2)),
                               np.diag([-0.1, -1.0]))


@pytest.mark.parametrize("alpha,beta", [(0.07, 0.2), (0.0, 0.2), (0.07, 0.0), (0.3, 0.5)])
def test_jacobian_matches_finite_differences(alpha, beta, rng):
    p = KineticParams(alpha=alpha, beta=beta, gamma=1.2, sigma=2.7, eta=0.1)
    h = 1e-6
    for _ in range(40):
        u, v = rng.uniform(0.05, 2.0, size=2)
        j = np.reshape(jacobian_fields(u, v, p), (2, 2))
        fd = np.empty((2, 2))
        fp = kinetics(u + h, v, p)
        fm = kinetics(u - h, v, p)
        fd[:, 0] = [(fp[0] - fm[0]) / (2 * h), (fp[1] - fm[1]) / (2 * h)]
        fp = kinetics(u, v + h, p)
        fm = kinetics(u, v - h, p)
        fd[:, 1] = [(fp[0] - fm[0]) / (2 * h), (fp[1] - fm[1]) / (2 * h)]
        np.testing.assert_allclose(j, fd, rtol=1e-5, atol=1e-7)


def test_trivial_is_stable_node_for_many_params(rng):
    for _ in range(30):
        p = KineticParams(
            alpha=float(rng.uniform(0.0, 1.0)),
            beta=float(rng.uniform(0.0, 1.0)),
            gamma=float(rng.uniform(0.1, 3.0)),
            sigma=float(rng.uniform(0.1, 5.0)),
            eta=float(rng.uniform(0.01, 1.0)),
        )
        e = trivial_equilibrium(p)
        assert e.stability is Stability.STABLE_NODE
        assert e.u == 0.0 and e.v == 0.0


def test_axial_count_vs_sigma():
    mk = lambda s: KineticParams(alpha=0.07, beta=0.2, gamma=1.2, sigma=s, eta=0.1)
    assert axial_equilibria(mk(0.39)) == []
    single = axial_equilibria(mk(0.4))
    assert len(single) == 1 and single[0].u == 0.5
    assert single[0].stability is Stability.NON_HYPERBOLIC
    assert len(axial_equilibria(mk(0.41))) == 2


def test_axial_values_main_set(p_main):
    e1, e2 = axial_equilibria(p_main)
    assert e1.kind is EquilibriumKind.AXIAL1
    assert e2.kind is EquilibriumKind.AXIAL2
    assert abs(e1.u - U1_27) < 1e-10
    assert abs(e2.u - U2_27) < 1e-10
    assert e1.v == 0.0 and e2.v == 0.0
    # Both sit outside [alpha/(gamma-1), 1/2] on opposite sides: saddles.
    assert e1.stability is Stability.SADDLE
    assert e2.stability is Stability.SADDLE


def test_upper_axial_is_u1_down_to_the_fold():
    mk = lambda s: KineticParams(alpha=0.07, beta=0.2, gamma=1.2, sigma=s, eta=0.1)
    assert abs(upper_axial(mk(2.7)).u - U1_27) < 1e-10
    assert upper_axial(mk(0.4)).u == 0.5
    with pytest.raises(OutOfRange, match="no prey-only state at sigma=0.39"):
        upper_axial(mk(0.39))


@pytest.mark.parametrize("sigma", [0.41, 1.0, 1.82, 2.7, 1e4, 1e8, 1e16, 1e150])
def test_axial_roots_are_accurate_to_two_ulps(sigma):
    # oracle: the roots of sigma*u^2 - sigma*u + eta in 400-digit decimals;
    # u2 as (sigma - s)/(2*sigma) would cancel, to exactly 0 at 1e16
    u1, u2 = (e.u for e in axial_equilibria(
        KineticParams(alpha=0.07, beta=0.2, gamma=1.2, sigma=sigma, eta=0.1)))
    with decimal.localcontext(prec=400):
        root = (1 - 4 * Decimal(0.1) / Decimal(sigma)).sqrt()
        for got, exact in ((u1, (1 + root) / 2), (u2, (1 - root) / 2)):
            assert abs(Decimal(got) - exact) <= 2 * Decimal(math.ulp(float(exact)))


def test_axial2_at_large_sigma_is_a_saddle_not_the_origin():
    # u2 ~ eta/sigma: the prey growth a10 ~ eta > 0 there, while the
    # origin's a10 = -eta
    p = KineticParams(alpha=0.07, beta=0.2, gamma=1.2, sigma=1e16, eta=0.1)
    trivial, _, axial2, _ = all_equilibria(p)
    assert axial2.u == pytest.approx(1e-17, rel=1e-15)
    assert axial2.stability is Stability.SADDLE
    assert trivial.u == 0.0 and trivial.stability is not Stability.SADDLE


def test_axial_stable_and_unstable_classes():
    # u1 = 0.55 inside (1/2, alpha/(gamma-1)) = (0.5, 0.6): stable.
    p = KineticParams(alpha=0.3, beta=0.2, gamma=1.5, sigma=1.0, eta=0.2475)
    e1 = axial_equilibria(p)[0]
    assert abs(e1.u - 0.55) < 1e-12
    assert e1.stability is Stability.STABLE_NODE
    # u2 = 0.4 inside (alpha/(gamma-1), 1/2) = (0.35, 0.5): unstable.
    p = KineticParams(alpha=0.07, beta=0.2, gamma=1.2, sigma=1.0, eta=0.24)
    e2 = axial_equilibria(p)[1]
    assert abs(e2.u - 0.4) < 1e-12
    assert e2.stability is Stability.UNSTABLE_NODE


def test_coexisting_main_set(p_main):
    eqs = coexisting_equilibria(p_main)
    assert len(eqs) == 1
    e = eqs[0]
    assert e.kind is EquilibriumKind.COEXISTING
    assert abs(e.u - ESTAR_27[0]) < 1e-10
    assert abs(e.v - ESTAR_27[1]) < 1e-10
    assert e.stability in (Stability.STABLE_NODE, Stability.STABLE_FOCUS)
    f1, f2 = kinetics(e.u, e.v, p_main)
    assert abs(f1) < 1e-10 and abs(f2) < 1e-10


def test_coexisting_cubic_residual_many_sigmas():
    for s in np.linspace(0.9, 3.4, 23):
        p = KineticParams(alpha=0.07, beta=0.2, gamma=1.2, sigma=float(s), eta=0.1)
        for e in coexisting_equilibria(p):
            c3 = p.sigma * p.gamma * p.beta
            q = c3 * e.u**3 - c3 * e.u**2 + (p.beta * p.eta * p.gamma + p.gamma - 1) * e.u - p.alpha
            assert abs(q) < 1e-10
            # Predator nullcline identity.
            assert abs(p.beta * e.v + p.alpha + e.u - p.gamma * e.u) < 1e-10
            f1, f2 = kinetics(e.u, e.v, p)
            assert abs(f1) < 1e-10 and abs(f2) < 1e-10


def test_coexisting_feasibility_window():
    for s in np.linspace(0.6, 3.4, 29):
        p = KineticParams(alpha=0.07, beta=0.2, gamma=1.2, sigma=float(s), eta=0.1)
        ax = axial_equilibria(p)
        for e in coexisting_equilibria(p):
            assert ax, "coexistence without axial states should not happen here"
            lo = max(p.alpha / (p.gamma - 1.0), ax[-1].u)
            assert lo < e.u < ax[0].u
            assert e.v > 0


_PROPERTY = settings(derandomize=True, database=None, deadline=None)


@_PROPERTY
@given(alpha=st.floats(0.0, 1.0),
       beta=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
       gamma=st.floats(0.5, 4.0), sigma=st.floats(0.05, 10.0),
       eta=st.floats(0.01, 1.0))
def test_coexisting_states_are_feasible_zeros(alpha, beta, gamma, sigma, eta):
    """Every coexisting state zeroes both rates (the two nullclines cross
    there), has v > 0 and lies in the feasibility window
    max(alpha/(gamma-1), u2) < u < u1, taken closed: where a coexisting
    state merges with an axial one, roundoff decides whether it is listed."""
    assume(beta > 0.0 or gamma > 1.0)  # beta = 0, gamma <= 1 is degenerate
    p = KineticParams(alpha=alpha, beta=beta, gamma=gamma, sigma=sigma, eta=eta)
    for e in coexisting_equilibria(p):
        u, v = e.u, e.v
        inter = u * v / (alpha + u + beta * v)
        f1, f2 = kinetics(u, v, p)
        assert abs(f1) <= 1e-9 * (sigma * u * u * abs(1.0 - u) + eta * u + inter)
        assert abs(f2) <= 1e-9 * (gamma * inter + v)
        root = math.sqrt(sigma * sigma - 4.0 * sigma * eta)
        u1, u2 = (sigma + root) / (2.0 * sigma), (sigma - root) / (2.0 * sigma)
        assert max(alpha / (gamma - 1.0), u2) <= u <= u1
        assert v > 0.0


_TRACE_DET = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e-8, 1e-8))


@_PROPERTY
@given(_TRACE_DET, _TRACE_DET)
def test_classify_follows_the_trace_det_table(trace, det):
    """det < 0: saddle; det > 0: stable for trace < 0, unstable for
    trace > 0, a node when trace**2 >= 4 det and a focus otherwise; a det
    or trace within 1e-9 (relative) of zero is non-hyperbolic."""
    band = 1e-9 * max(1.0, abs(trace), abs(det))
    if det < -band:
        expected = Stability.SADDLE
    elif abs(det) <= band or abs(trace) <= band:
        expected = Stability.NON_HYPERBOLIC
    elif trace < 0.0:
        expected = (Stability.STABLE_NODE if trace * trace >= 4.0 * det
                    else Stability.STABLE_FOCUS)
    else:
        expected = (Stability.UNSTABLE_NODE if trace * trace >= 4.0 * det
                    else Stability.UNSTABLE_FOCUS)
    assert _classify(trace, det) is expected


def test_coexisting_empty_below_sn():
    p = KineticParams(alpha=0.07, beta=0.2, gamma=1.2, sigma=0.39, eta=0.1)
    assert coexisting_equilibria(p) == []


def test_coexisting_empty_for_gamma_below_one():
    p = KineticParams(alpha=0.07, beta=0.2, gamma=0.9, sigma=2.7, eta=0.1)
    assert coexisting_equilibria(p) == []
    assert len(all_equilibria(p)) == 3  # trivial + two axial


def test_holling_branch_beta_zero():
    p = KineticParams(alpha=0.07, beta=0.0, gamma=1.2, sigma=2.7, eta=0.1)
    eqs = coexisting_equilibria(p)
    assert len(eqs) == 1
    e = eqs[0]
    assert abs(e.u - 0.35) < 1e-14
    vstar = (p.sigma * 0.35 * 0.65 - p.eta) * (p.alpha + 0.35)
    assert abs(e.v - vstar) < 1e-14
    f1, f2 = kinetics(e.u, e.v, p)
    assert abs(f1) < 1e-14 and abs(f2) < 1e-14


@pytest.mark.parametrize("beta", [10.0**-k for k in range(2, 301)] + [5e-324])
def test_coexisting_state_tends_to_the_holling_state(beta):
    # one path for every beta >= 0: E*(beta) - E*(0) = O(beta), with
    # |dE*/dbeta| at beta = 0 of v*/(gamma-1) = 1.08 for u and 1.03 for v,
    # down to roundoff, which the beta > 0 formula v = ((gamma-1)u -
    # alpha)/beta amplified without bound
    p0 = KineticParams(alpha=0.07, beta=0.0, gamma=1.2, sigma=2.7, eta=0.1)
    (e0,) = coexisting_equilibria(p0)
    (e,) = coexisting_equilibria(replace(p0, beta=beta))
    assert abs(e.u - e0.u) <= 2.0 * beta + 4.0 * math.ulp(e0.u)
    assert abs(e.v - e0.v) <= 2.0 * beta + 4.0 * math.ulp(e0.v)
    assert e.stability is e0.stability


def test_holling_branch_no_state_at_axial2():
    # u* = alpha/(gamma-1) = 1/3 = u2: the predator nullcline meets the prey
    # nullcline on the u axis, at Axial2; v* there is roundoff, not a state
    p = KineticParams(alpha=1 / 3, beta=0.0, gamma=2.0, sigma=1.5, eta=1 / 3)
    assert axial_equilibria(p)[-1].u == 1 / 3
    assert coexisting_equilibria(p) == []


@pytest.mark.parametrize("sigma,eta,edge", [(2.7, 0.25, "u2"), (1.82, 0.25, "u1")])
def test_holling_branch_no_state_an_ulp_inside_the_prey_window(sigma, eta, edge):
    # u* = alpha/(gamma-1) one ulp inside a computed axial root passes the
    # window test on u, but sigma*u*(1-u) - eta rounds to <= 0 there, so v*
    # is roundoff beside the axial state, not a state
    axial = axial_equilibria(KineticParams(alpha=0.1, beta=0.0, gamma=2.0,
                                           sigma=sigma, eta=eta))
    u1, u2 = axial[0].u, axial[1].u
    ustar = math.nextafter(u2, 1.0) if edge == "u2" else math.nextafter(u1, 0.0)
    p = KineticParams(alpha=ustar, beta=0.0, gamma=2.0, sigma=sigma, eta=eta)
    assert u2 < p.alpha / (p.gamma - 1.0) < u1
    assert p.sigma * ustar * (1.0 - ustar) - p.eta <= 0.0
    assert coexisting_equilibria(p) == []


def test_holling_branch_degenerate():
    # gamma <= 1 leaves no coexisting state at beta = 0, as at beta > 0
    p = KineticParams(alpha=0.07, beta=0.0, gamma=1.0, sigma=2.7, eta=0.1)
    assert coexisting_equilibria(p) == []


def test_ratio_dependent_pair_and_saddle(p_ratio):
    # alpha=0: the cubic factors, leaving a quadratic pair; the lower one
    # is a saddle.
    eqs = coexisting_equilibria(p_ratio)
    assert len(eqs) == 2
    assert eqs[0].u < eqs[1].u
    assert eqs[0].stability is Stability.SADDLE
    assert eqs[0].v > 0 and eqs[1].v > 0


def test_ratio_dependent_fold_tagged_nonhyperbolic():
    p = KineticParams(alpha=0.0, beta=0.2, gamma=1.2, sigma=56.0 / 15.0, eta=0.1)
    eqs = coexisting_equilibria(p)
    assert len(eqs) == 1
    assert abs(eqs[0].u - 0.5) < 1e-6
    assert eqs[0].stability is Stability.NON_HYPERBOLIC


def test_all_equilibria_main_set(p_main):
    eqs = all_equilibria(p_main)
    kinds = [e.kind for e in eqs]
    assert kinds == [
        EquilibriumKind.TRIVIAL,
        EquilibriumKind.AXIAL1,
        EquilibriumKind.AXIAL2,
        EquilibriumKind.COEXISTING,
    ]


def test_sigma_sn(p_main):
    assert sigma_sn(p_main) == 0.4


def test_sigma_tc(p_main):
    assert abs(sigma_tc(p_main) - SIGMA_TC) < 1e-10
    with pytest.raises(OutOfRange):
        sigma_tc(KineticParams(alpha=0.0, beta=0.2, gamma=1.2, sigma=2.7, eta=0.1))
    with pytest.raises(OutOfRange):
        sigma_tc(KineticParams(alpha=0.5, beta=0.2, gamma=1.2, sigma=2.7, eta=0.1))


def test_sigma_s(p_main):
    e = coexisting_equilibria(p_main)[0]
    val = sigma_s(e, p_main)
    assert abs(val - SIGMA_S_27) < 1e-8
    assert abs(val - 1.4822) < 3e-3  # four-digit reference
    assert p_main.sigma > val  # consistency: E* is stable at sigma=2.7


def test_sigma_s_out_of_range(p_main):
    e = Equilibrium(
        kind=EquilibriumKind.COEXISTING, u=0.4, v=0.1, trace=-1.0, det=1.0,
        stability=Stability.STABLE_NODE,
    )
    with pytest.raises(OutOfRange):
        sigma_s(e, p_main)
    with pytest.raises(OutOfRange):
        sigma_s(trivial_equilibrium(p_main), p_main)


def test_hopf_location(p_main):
    sh, e = hopf_sigma(p_main, (1.7, 2.0))
    assert abs(sh - SIGMA_H) < 1e-8
    assert abs(e.u - ESTAR_H[0]) < 1e-8
    assert abs(e.v - ESTAR_H[1]) < 1e-8
    assert abs(e.u - 0.5986) < 1e-4 and abs(e.v - 0.2486) < 1e-4
    assert abs(e.trace) < 1e-8
    assert e.det > 0


def test_hopf_no_sign_change(p_main):
    with pytest.raises(NoRoot, match="no sign change on"):
        hopf_sigma(p_main, (2.0, 2.4))


def test_stability_flips_across_hopf(p_main):
    e_lo = coexisting_equilibria(p_main.with_sigma(1.8))[-1]
    e_hi = coexisting_equilibria(p_main.with_sigma(1.9))[-1]
    assert e_lo.stability is Stability.UNSTABLE_FOCUS
    assert e_hi.stability in (Stability.STABLE_FOCUS, Stability.STABLE_NODE)


def test_first_lyapunov_coefficient(p_main):
    sh, e = hopf_sigma(p_main, (1.7, 2.0))
    l1 = first_lyapunov_coefficient(p_main, sh, e)
    assert l1 < 0
    assert abs(l1 - L1_ORACLE) < 1e-9 * abs(L1_ORACLE)
    # Reported magnitude check, as a multiple of pi.
    assert abs(l1 / math.pi + 22.7488) < 0.05 * 22.7488
    # the package's own value, bit for bit: plain float arithmetic throughout
    assert l1.hex() == "-0x1.1ddea83cfd2e3p+6"


def test_first_lyapunov_positive_for_ratio_dependent():
    p = KineticParams(alpha=0.0, beta=0.2, gamma=1.2, sigma=3.9, eta=0.1)
    sh, e = hopf_sigma(p, (3.85, 4.0))
    l1 = first_lyapunov_coefficient(p, sh, e)
    assert l1 > 0
    assert abs(l1 - L1_ORACLE_RATIO) < 1e-9 * L1_ORACLE_RATIO
    assert l1.hex() == "0x1.187b885c6e7e3p+8"


def test_first_lyapunov_rejects_non_hopf(p_main):
    e = coexisting_equilibria(p_main)[0]
    with pytest.raises(HypothesisFailed, match="is not ~0 at sigma"):
        first_lyapunov_coefficient(p_main, 2.7, e)
