"""Oscillation coefficient, derivative-norm floors, and regime classification."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from perturbsde import (
    Coefficient,
    ConfigError,
    DegenerateDiffusion,
    ProblemSpec,
    final_lower_bound,
    max_horizon,
    regime_report,
    sup_lower_bound,
    theta,
)
from perturbsde.bounds import ADMISSIBLE_THRESHOLD, floor_violations
from perturbsde.model import GridSpec


# sqrt(2 Lb^2 t^2 + 8 a^2) + Lb^2 t^2 + 4 a^2 at hand-picked points
def test_theta_spot_values():
    assert theta(0.1, 0.1, 1.0) == pytest.approx(
        math.sqrt(0.1) + 0.05, abs=1e-15)
    assert theta(1.0, 0.1, 0.0) == pytest.approx(
        0.2 * math.sqrt(2.0) + 0.04, abs=1e-15)
    assert theta(5.0, 0.0, 0.0) == 0.0
    assert theta(0.0, 0.3, 2.0) == pytest.approx(
        2.0 * math.sqrt(2.0) * 0.3 + 4 * 0.09, abs=1e-15)


def test_lower_bound_spot_values():
    assert sup_lower_bound(1.0, 0.5, 0.0, 1.0) == pytest.approx(
        1.0 / 3.0, abs=1e-15)
    assert final_lower_bound(1.0, 1.0, 0.1, 0.0, 1.0) == pytest.approx(
        0.17368361522096176, abs=1e-15)
    # zero oscillation: the final floor meets the sup floor
    assert final_lower_bound(0.7, 0.7, 0.0, 0.0, 2.0) == \
        sup_lower_bound(0.7, 0.0, 0.0, 2.0)


def test_max_horizon_driftless_threshold():
    # with lb = 0 admissibility is a pure alpha condition: the critical
    # value solves 2 sqrt(2) a + 4 a^2 = 1/2, i.e. a* = (2 - sqrt(2))/4
    alpha_star = (2.0 - math.sqrt(2.0)) / 4.0
    assert alpha_star == pytest.approx(0.1464466094067262, abs=1e-15)
    assert max_horizon(alpha_star * (1 - 1e-6), 0.0) == math.inf
    assert max_horizon(alpha_star * (1 + 1e-6), 0.0) == 0.0
    assert max_horizon(0.0, 0.0) == math.inf


def test_max_horizon_against_closed_form():
    # for admissible alpha, theta(t) = 1/2 solves to
    # Lb t = sqrt((3 - 2 sqrt(2) - 8 a^2) / 2)
    for alpha, lb in [(0.0, 1.0), (0.1, 0.5), (-0.12, 2.0), (0.05, 0.2)]:
        t_star = math.sqrt((3.0 - 2.0 * math.sqrt(2.0) - 8 * alpha ** 2)
                           / 2.0) / lb
        got = max_horizon(alpha, lb)
        assert got == pytest.approx(t_star, rel=1e-10)
        assert abs(theta(got, alpha, lb) - ADMISSIBLE_THRESHOLD) <= 1e-10


@given(alpha=st.floats(-0.2, 0.2), lb=st.floats(1e-6, 1e6))
@settings(max_examples=200, deadline=None)
# the former bisection returned a t0 with theta - 1/2 = +3.4e-14 here
@example(alpha=0.1, lb=0.1)
def test_max_horizon_stays_in_regime(alpha, lb):
    assume(theta(0.0, alpha, lb) < ADMISSIBLE_THRESHOLD)
    assert theta(max_horizon(alpha, lb), alpha, lb) <= ADMISSIBLE_THRESHOLD


def test_max_horizon_unit_slope_value():
    assert max_horizon(0.0, 1.0) == pytest.approx(
        (2.0 - math.sqrt(2.0)) / 2.0, abs=1e-10)


@given(t0=st.floats(0.0, 10.0), alpha=st.floats(-3.0, 0.999),
       lb=st.floats(0.0, 10.0))
@settings(max_examples=100, deadline=None)
def test_theta_even_in_alpha(t0, alpha, lb):
    assert theta(t0, alpha, lb) == theta(t0, -alpha, lb)


@given(alpha=st.floats(-1.0, 0.9), lb=st.floats(0.0, 5.0),
       t=st.floats(0.0, 4.0), bump=st.floats(1e-6, 4.0))
@settings(max_examples=100, deadline=None)
def test_theta_monotone_in_time(alpha, lb, t, bump):
    assert theta(t + bump, alpha, lb) >= theta(t, alpha, lb)


@given(t=st.floats(1e-6, 3.0), t0=st.floats(1e-6, 3.0),
       alpha=st.floats(-1.0, 0.9), lb=st.floats(0.0, 3.0),
       sigma_bar=st.floats(0.0, 5.0))
@settings(max_examples=150, deadline=None)
# sigma_bar**2 is subnormal here, and final == sup == 3.28e-321
@example(t=1.0, t0=1e-6, alpha=0.0, lb=1.0,
         sigma_bar=1.4035095133757811e-160)
def test_final_floor_below_sup_floor(t, t0, alpha, lb, sigma_bar):
    final = final_lower_bound(t, t0, alpha, lb, sigma_bar)
    sup = sup_lower_bound(t, alpha, lb, sigma_bar)
    assert final <= sup + 1e-12
    # strictness is only meaningful once 1 - 2*theta is representably < 1,
    # and for a normal sup: there the cut is far larger than one ulp, but a
    # subnormal sup may have too few bits left to show it
    if theta(t0, alpha, lb) > 1e-12 and sup >= sys.float_info.min:
        assert final < sup


def test_input_validation():
    with pytest.raises(ConfigError):
        theta(-0.1, 0.0, 1.0)
    with pytest.raises(ConfigError):
        theta(0.1, 0.0, -1.0)
    with pytest.raises(ConfigError):
        theta(math.nan, 0.0, 1.0)
    with pytest.raises(ConfigError):
        sup_lower_bound(-1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        sup_lower_bound(1.0, 0.0, 0.0, -1.0)
    with pytest.raises(ConfigError):
        final_lower_bound(1.0, -1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        max_horizon(0.0, -2.0)


@given(ts=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=16),
       t0=st.floats(0.0, 10.0), alpha=st.floats(-1.0, 0.9),
       lb=st.floats(0.0, 5.0), sigma_bar=st.floats(0.0, 5.0),
       bad=st.sampled_from([-1e-3, math.nan]), where=st.integers(0, 15))
@settings(max_examples=100, deadline=None)
def test_array_time_is_the_elementwise_scalar_calls(ts, t0, alpha, lb,
                                                    sigma_bar, bad, where):
    times = np.array(ts)
    poisoned = times.copy()
    poisoned[where % times.size] = bad
    for fn, rest in [(theta, (alpha, lb)),
                     (sup_lower_bound, (alpha, lb, sigma_bar)),
                     (final_lower_bound, (t0, alpha, lb, sigma_bar))]:
        scalars = [fn(t, *rest) for t in ts]
        assert all(type(v) is float for v in scalars)
        assert fn(times, *rest).tolist() == scalars
        with pytest.raises(ConfigError):
            fn(poisoned, *rest)


# -- whole-problem classification ---------------------------------------------


def test_regime_report_classical_constant_case(driftless):
    report = regime_report(driftless(0.0), t0=1.0)
    assert report.admissible
    assert report.theta_at_t0 == 0.0
    assert report.t0_max == math.inf
    assert report.lb == 0.0
    assert report.lb_source == "declared"
    assert report.rigorous
    assert not report.transformed
    assert report.sigma_bar == 1.0
    curve = report.lower_bound_curve
    assert curve.shape == (100, 2)
    assert curve[0, 0] == 0.0 and curve[-1, 0] == 1.0
    # alpha = 0, b = 0: the floor is exactly t/2
    np.testing.assert_allclose(curve[:, 1], curve[:, 0] / 2.0, atol=1e-15)
    with pytest.raises(ValueError):
        curve[0, 0] = 5.0


def test_regime_report_inadmissible_feedback(driftless):
    report = regime_report(driftless(0.2), t0=1.0)
    assert not report.admissible
    assert report.theta_at_t0 == pytest.approx(
        2 * math.sqrt(2) * 0.2 + 0.16, abs=1e-14)
    assert report.t0_max == 0.0
    np.testing.assert_array_equal(report.lower_bound_curve,
                                  np.zeros((1, 2)))


def test_regime_report_caps_curve_at_max_horizon():
    spec = ProblemSpec(x0=0.0, alpha=0.0,
                       drift=Coefficient.ornstein_uhlenbeck(rate=1.0),
                       diffusion=Coefficient.const(1.0), horizon=5.0)
    report = regime_report(spec, t0=5.0)
    assert report.lb == 1.0
    assert report.t0_max == pytest.approx((2 - math.sqrt(2)) / 2, abs=1e-10)
    assert report.lower_bound_curve[-1, 0] == pytest.approx(report.t0_max)
    assert not report.admissible


def test_regime_report_transformed_diffusion():
    spec = ProblemSpec(x0=0.0, alpha=0.1,
                       drift=Coefficient.tanh(amplitude=0.1, scale=1.0),
                       diffusion=Coefficient.sine(amplitude=1.0, offset=2.0),
                       horizon=1.0)
    report = regime_report(spec, t0=0.1)
    assert report.transformed
    assert report.lb_source == "table"
    assert not report.rigorous
    assert 1.0 <= report.sigma_bar <= 1.001
    assert math.isfinite(report.lb)


def test_regime_report_tabulated_drift():
    # the bound is the table's exact slope maximum on the validation
    # interval, which says nothing past it
    nodes = np.linspace(-20.0, 20.0, 401)
    drift = Coefficient.tabulated(nodes, 0.1 * np.tanh(nodes))
    spec = ProblemSpec(x0=0.0, alpha=0.1, drift=drift,
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    report = regime_report(spec, t0=0.1)
    assert report.lb == drift.bounds((-10.0, 10.0)).sup_d1
    assert report.lb == pytest.approx(0.1, rel=1e-3)
    assert report.lb_source == "table"
    assert not report.rigorous
    assert not report.transformed


def test_regime_report_rejects_vanishing_diffusion():
    spec = ProblemSpec(x0=0.0, alpha=0.0,
                       drift=Coefficient.const(0.0),
                       diffusion=Coefficient.sine(amplitude=1.0),
                       horizon=1.0)
    with pytest.raises(DegenerateDiffusion):
        regime_report(spec, t0=1.0)


def test_regime_report_rejects_negative_horizon(driftless):
    with pytest.raises(ConfigError):
        regime_report(driftless(0.0), t0=-1.0)


# -- simulated norms against the floors ---------------------------------------


def test_floor_violations_on_hand_built_norms(driftless):
    # alpha = b = 0, sigma = 1 on [0, 0.2] in four steps: slack 1 - 10 dt is
    # 1/2, the sup floor at the horizon is 0.1 and the final floor is t/2.
    spec = driftless(0.0, horizon=0.2)
    grid = GridSpec(n_steps=4, horizon=0.2)
    t = grid.times
    by_time = np.column_stack([
        t,                                       # the exact norm, t
        [0.0, 0.05, 0.01, 0.15, 0.2],            # under t/2 * 1/2 at t = 0.1
        [0.0, 0.04, 0.04, 0.04, 0.04]])          # under t/2 * 1/2 at t = 0.2
    h_sup = np.array([0.2, 0.2, 0.04])           # last under 0.1 * 1/2

    got = floor_violations(regime_report(spec, t0=0.1), grid, h_sup,
                           by_time)
    assert list(got) == ["slack_factor", "sup_lower_bound_at_horizon",
                         "n_sup_violations", "final_bound_horizon",
                         "n_final_violations"]
    assert got["slack_factor"] == pytest.approx(0.5, abs=1e-15)
    assert got["sup_lower_bound_at_horizon"] == pytest.approx(0.1,
                                                              abs=1e-15)
    assert got["n_sup_violations"] == 1
    assert got["final_bound_horizon"] == pytest.approx(0.1, abs=1e-15)
    assert got["n_final_violations"] == 1

    # a t0 short of one step checks no grid time against the final floor
    short = floor_violations(regime_report(spec, t0=0.01), grid, h_sup,
                             by_time)
    assert list(short) == ["slack_factor", "sup_lower_bound_at_horizon",
                           "n_sup_violations"]
    assert short["n_sup_violations"] == 1

    # a t0 past the horizon is cut there, which brings in the third path
    long = floor_violations(regime_report(spec, t0=5.0), grid, h_sup,
                            by_time)
    assert long["final_bound_horizon"] == 0.2
    assert long["n_final_violations"] == 2
