import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from alleekit import temporal
from alleekit.errors import Inconclusive, NoConvergence, ToolkitError
from alleekit.model import KineticParams, coexisting_equilibria, hopf_sigma
from alleekit.temporal import (
    EXTINCTION_LEVEL,
    AttractorKind,
    Trajectory,
    attractor_summary,
    bifurcation_diagram,
    integrate_ode,
)


def test_origin_stays_put(p_main):
    tr = integrate_ode((0.0, 0.0), p_main, 50.0)
    assert np.asarray(tr.states).max() == 0.0
    assert tr.times[-1] == 50.0
    assert np.all(np.diff(tr.times) > 0)
    s = attractor_summary(tr, transient=25.0)
    assert s.kind is AttractorKind.EXTINCTION


def test_below_allee_threshold_goes_extinct(p_main):
    # u0 = 0.02 sits below the Allee threshold u2 = 0.0385.
    tr = integrate_ode((0.02, 0.01), p_main, 500.0)
    assert tr.times[-1] < 500.0
    assert np.asarray(tr.states)[-1].max() < 1e-5
    s = attractor_summary(tr, transient=0.25 * tr.times[-1])
    assert s.kind is AttractorKind.EXTINCTION


def test_limit_cycle_at_sigma_18(p_main):
    p = p_main.with_sigma(1.8)
    e = coexisting_equilibria(p)[-1]
    tr = integrate_ode((e.u + 1e-3, e.v), p, 3000.0)
    assert np.asarray(tr.states).min() >= 0.0
    s = attractor_summary(tr, transient=1500.0)
    assert s.kind is AttractorKind.LIMIT_CYCLE
    assert s.u_max - s.u_min > 0.1
    assert s.period is not None and s.period > 0


def test_fixed_point_run(p_main):
    tr = integrate_ode((0.8, 0.3), p_main, 800.0)
    s = attractor_summary(tr, transient=400.0)
    assert s.kind is AttractorKind.FIXED_POINT
    assert s.u_min == s.u_max
    estar = coexisting_equilibria(p_main)[-1]
    assert abs(s.u_min - estar.u) < 1e-5


def test_tolerance_halving_consistency(p_main):
    # the integrator behind integrate_ode, at its own tolerances and at
    # half of them
    def final_state(rtol):
        _, flat, hit = temporal._dopri5(
            0.8, 0.3, p_main, 400.0, rtol, rtol * 1e-2, [400.0],
            temporal._extinction_gap)
        assert not hit
        return np.array(flat)

    a = final_state(temporal.ODE_RTOL)
    assert np.array_equal(a, integrate_ode((0.8, 0.3), p_main, 400.0).states[-1])
    b = final_state(0.5 * temporal.ODE_RTOL)
    assert np.abs(a - b).max() < 10 * 1e-8


# the Holling-II limit (beta = 0) at a large prey growth scale: the
# predator overshoots far above the unit prey carrying capacity
P_HOLLING_LARGE_SIGMA = KineticParams(alpha=0.0198, beta=0.0, gamma=5.10,
                                      sigma=1e4, eta=2.44)


def test_holling_orbit_with_a_large_predator_overshoot_reaches_T():
    tr = integrate_ode((0.5, 0.5), P_HOLLING_LARGE_SIGMA, 20.0)
    assert tr.times[-1] == 20.0
    assert 1e3 < max(v for _, v in tr.states) < 2e3


def test_diagram_point_with_a_large_predator_overshoot_records_no_error():
    (pt,) = bifurcation_diagram(P_HOLLING_LARGE_SIGMA, [1e4], t_sim=50.0)
    assert pt.error is None
    assert pt.cycle is None


def test_integrator_past_its_step_budget_raises(p_main, monkeypatch):
    p = p_main.with_sigma(1.82)
    e = coexisting_equilibria(p)[-1]
    monkeypatch.setattr(temporal, "ODE_MAX_STEPS", 1000)
    with pytest.raises(NoConvergence, match="budget of ODE_MAX_STEPS=1000 "):
        integrate_ode((e.u + 0.01, e.v + 0.01), p, 2500.0)


def test_input_validation(p_main):
    with pytest.raises(ValueError):
        integrate_ode((-0.1, 0.2), p_main, 10.0)
    with pytest.raises(ValueError):
        integrate_ode((0.1, 0.2), p_main, -5.0)


def _scipy_rk45(ic, p, T, t_eval, tol=1e-8):
    """The same problem through scipy's RK45, as integrate_ode sets it up."""
    from scipy.integrate import solve_ivp

    def extinct(_t, y):
        return max(y[0], y[1]) - EXTINCTION_LEVEL

    extinct.terminal, extinct.direction = True, -1.0
    return solve_ivp(lambda _t, y: temporal.kinetics(float(y[0]), float(y[1]), p),
                     (0.0, T), list(ic), method="RK45", rtol=tol, atol=tol * 1e-2,
                     t_eval=t_eval, events=extinct)


def test_integrator_reproduces_scipy_rk45_on_the_cycle(p_main, monkeypatch):
    p = p_main.with_sigma(1.82)
    e = coexisting_equilibria(p)[-1]
    ic = (e.u + 0.01, e.v + 0.01)
    calls = []
    kinetics = temporal.kinetics

    def counted(u, v, p):
        calls.append(None)
        return kinetics(u, v, p)

    monkeypatch.setattr(temporal, "kinetics", counted)
    tr = integrate_ode(ic, p, 2500.0)
    n_calls = len(calls)
    monkeypatch.setattr(temporal, "kinetics", kinetics)
    sol = _scipy_rk45(ic, p, 2500.0, tr.times)
    assert sol.status == 0 and tr.times[-1] == 2500.0
    assert np.abs(np.asarray(tr.states) - sol.y.T).max() < 1e-10
    # the same accepted and rejected steps, so the same calls
    assert n_calls == sol.nfev
    # the right-hand-side count the benchmark reads through this attribute
    assert (n_calls, len(tr.times)) == (28574, 10001)


def test_integrator_reproduces_scipy_rk45_extinction_stop(p_main):
    sol = _scipy_rk45((0.02, 0.01), p_main, 500.0, None)
    tr = integrate_ode((0.02, 0.01), p_main, 500.0)
    assert sol.status == 1 and tr.times[-1] < 500.0
    assert abs(tr.times[-1] - sol.t_events[0][0]) < 1e-9
    assert abs(np.asarray(tr.states)[-1].max() - EXTINCTION_LEVEL) < 1e-12


def test_classification_invariant_to_doubling_T(p_main):
    p = p_main.with_sigma(1.8)
    e = coexisting_equilibria(p)[-1]
    ic = (e.u + 1e-3, e.v)
    s1 = attractor_summary(integrate_ode(ic, p, 1500.0), transient=700.0)
    s2 = attractor_summary(integrate_ode(ic, p, 3000.0), transient=700.0)
    assert s1.kind is s2.kind is AttractorKind.LIMIT_CYCLE
    assert abs(s1.period - s2.period) < 0.01 * s2.period


def test_attractor_summary_needs_data(p_main):
    tr = integrate_ode((0.8, 0.3), p_main, 10.0)
    with pytest.raises(Inconclusive):
        attractor_summary(tr, transient=9.99)


def test_attractor_summary_synthetic_extinction():
    t = np.linspace(0.0, 100.0, 401)
    states = np.column_stack([1e-9 * np.exp(-t / 10.0), 1e-10 * np.exp(-t / 10.0)])
    tr = Trajectory(times=t.tolist(), states=list(map(tuple, states.tolist())))
    s = attractor_summary(tr, transient=10.0)
    assert s.kind is AttractorKind.EXTINCTION


@pytest.mark.parametrize("u_period,period", [
    # each flat top at 2.0 is one peak, at its midpoint; counting both of
    # its samples would alternate intervals of one sample and nine (CV 1.03)
    ((1.0, 1.3, 1.7, 2.0, 2.0, 1.7, 1.3, 1.0, 0.8, 0.9), 2.5),
    # at the first 1.0 the parabola's second difference (1 - 2**-53) - 2 + 1
    # rounds to zero, so that peak stays on its sample
    ((0.5, 0.75, 1.0 - 2.0 ** -53, 1.0, 1.0), 1.25),
], ids=["flat-top", "parabola-rounds-flat"])
def test_flat_topped_cycle_has_one_peak_per_period(u_period, period):
    u = list(u_period) * 20
    tr = Trajectory(times=[0.25 * i for i in range(len(u))],
                    states=[(x, 1.0) for x in u])
    s = attractor_summary(tr, transient=5.0)
    assert s.kind is AttractorKind.LIMIT_CYCLE
    assert s.period == pytest.approx(period, rel=1e-12)


def test_diagram_point_of_an_extinct_orbit_is_no_failure(p_main):
    # the orbit stops at the origin near t = 260, long before the transient
    # t_sim/2 ends: extinction, with no tail left to classify
    (pt,) = bifurcation_diagram(p_main, [1.78])
    assert pt.error is None
    assert pt.cycle is None


def test_diagram_records_a_sigma_whose_equilibria_fail(p_main):
    # sigma**2 overflows past sigma ~ 1.34e154, so the prey-only states are
    # not computable: that point keeps why, and the next one is computed
    bad, good = bifurcation_diagram(p_main, [1e160, 2.7])
    assert bad.sigma == 1e160 and bad.equilibria == [] and bad.cycle is None
    assert bad.error == "jacobian called at non-finite point (inf, 0.0)"
    assert good.error is None and len(good.equilibria) == 4


def test_predicate_signs_around_threshold(p_main):
    """sigma=1.6 and 1.7 lose the cycle, sigma=1.82 and 1.85 keep it."""
    pts = bifurcation_diagram(p_main, [1.60, 1.70, 1.82, 1.85])
    assert all(pt.error is None for pt in pts)
    assert [pt.cycle is not None for pt in pts] == [False, False, True, True]


def test_heteroclinic_threshold_narrow_bracket(p_main):
    # the stable cycle is destroyed globally at sigma_het ~ 1.789, between
    # these grid points and below the Hopf point
    below, above = bifurcation_diagram(p_main, [1.785, 1.795])
    assert below.error is None and below.cycle is None
    assert above.error is None
    assert above.cycle == pytest.approx((0.102, 0.939), abs=5e-4)
    assert above.sigma < hopf_sigma(p_main, (1.7, 2.0))[0]


def test_period_grows_toward_threshold(p_main):
    periods = []
    for s in (1.790, 1.795, 1.800, 1.810, 1.820):
        p = p_main.with_sigma(s)
        e = coexisting_equilibria(p)[-1]
        tr = integrate_ode((e.u + 0.01, e.v + 0.01), p, 4000.0)
        summary = attractor_summary(tr, transient=2000.0)
        assert summary.kind is AttractorKind.LIMIT_CYCLE
        periods.append(summary.period)
    assert all(a > b for a, b in zip(periods, periods[1:]))


def test_bifurcation_diagram_rows(p_main):
    pts = bifurcation_diagram(p_main, [0.35, 0.5, 1.8, 2.0], t_sim=2000.0)
    by_sigma = {round(pt.sigma, 2): pt for pt in pts}
    # Below the axial fold: only the trivial state.
    assert len(by_sigma[0.35].equilibria) == 1
    # Above it: axial pair appears (and a coexisting state past sigma_TC).
    assert len(by_sigma[0.5].equilibria) == 4
    assert by_sigma[0.5].cycle is None  # below the global bifurcation
    cyc = by_sigma[1.8].cycle
    assert cyc is not None and cyc[1] - cyc[0] > 0.1
    assert by_sigma[2.0].cycle is None  # stable spiral above the Hopf point


def test_bifurcation_diagram_rejects_bad_grid(p_main):
    with pytest.raises(ValueError):
        bifurcation_diagram(p_main, [0.5, -1.0])


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


_RATE = st.one_of(st.just(0.0), _log_uniform(1e-6, 1e3))
_DENSITY = st.one_of(st.just(0.0), _log_uniform(1e-9, 10.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(alpha=_RATE, beta=_RATE, gamma=_log_uniform(1e-3, 1e3),
       eta=_log_uniform(1e-3, 1e3), sigma=_log_uniform(1e-3, 1e8),
       u0=_DENSITY, v0=_DENSITY, T=_log_uniform(1e-3, 1e3))
def test_every_orbit_ends_at_T_at_extinction_or_in_a_named_error(
        alpha, beta, gamma, eta, sigma, u0, v0, T):
    """Across magnitudes, with a small step budget: the orbit reaches T or
    stops at the extinction level, or the run raises a ToolkitError; so
    does the classification of what it returns."""
    p = KineticParams(alpha=alpha, beta=beta, gamma=gamma, sigma=sigma, eta=eta)
    with mock.patch.object(temporal, "ODE_MAX_STEPS", 2000):
        try:
            tr = integrate_ode((u0, v0), p, T)
        except ToolkitError as exc:
            event(type(exc).__name__)
            return
    if tr.times[-1] == T:
        event("reached T")
    else:
        event("extinct")
        assert tr.times[-1] < T
        assert abs(max(tr.states[-1]) / EXTINCTION_LEVEL - 1.0) < 0.01
    assert len(tr.times) == len(tr.states)
    assert all(math.isfinite(x) and x >= 0.0 for state in tr.states for x in state)
    try:
        attractor_summary(tr, transient=0.5 * T)
    except ToolkitError:
        pass
