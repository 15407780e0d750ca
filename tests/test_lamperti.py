"""Unit-diffusion rewriting: quadrature accuracy, inversion, drift
transport, and the derivative-norm lift."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from perturbsde import (
    Coefficient,
    ConfigError,
    DegenerateDiffusion,
    DomainTooSmall,
    GridMismatch,
    GridSpec,
    OutOfDomain,
    ProblemSpec,
    build_transform,
    forward,
    inverse,
    lamperti,
    lift_bound_check,
    propagate_derivative_batch,
    simulate_batch,
    tilde_b,
    transformed_drift_bound,
    transformed_field,
    transformed_spec,
)


def make_spec(drift, diffusion, *, x0=0.0, alpha=0.0, horizon=1.0):
    return ProblemSpec(x0=x0, alpha=alpha, drift=drift, diffusion=diffusion,
                       horizon=horizon)


SINE_SIGMA = Coefficient.sine(amplitude=1.0, offset=2.0)  # 2 + sin(x) >= 1


# -- the primitive of 1/sigma -------------------------------------------------


def test_constant_diffusion_gives_linear_map():
    spec = make_spec(Coefficient.const(0.0), Coefficient.const(2.0))
    table = build_transform(spec)
    np.testing.assert_allclose(table.F_values, table.nodes / 2.0, atol=1e-10)
    assert forward(table, 4.0) == pytest.approx(2.0, abs=1e-10)
    assert inverse(table, 2.0) == pytest.approx(4.0, abs=1e-9)
    assert np.all(np.diff(table.F_values) > 0.0)
    lo, hi = table.domain
    assert lo < spec.x0 < hi


def test_quadrature_matches_adaptive_reference():
    spec = make_spec(Coefficient.const(0.0), SINE_SIGMA)
    table = build_transform(spec, n_nodes=8193, domain=(-6.0, 6.0))
    ref = quad(lambda u: 1.0 / (2.0 + math.sin(u)), 0.0, 3.0,
               epsabs=1e-13, epsrel=1e-13)[0]
    assert abs(forward(table, 3.0) - ref) <= 1e-10


def test_quadrature_error_drops_fourth_order():
    # node doubling should shrink the composite-rule error about 16x
    spec = make_spec(Coefficient.const(0.0), SINE_SIGMA)
    pts = np.array([-4.5, -3.0, -1.5, 1.5, 3.0, 4.5])
    refs = np.array([quad(lambda u: 1.0 / (2.0 + math.sin(u)), 0.0, p,
                          epsabs=1e-13, epsrel=1e-13)[0] for p in pts])
    errs = []
    for n_nodes in (257, 513):
        table = build_transform(spec, n_nodes=n_nodes, domain=(-6.0, 6.0))
        errs.append(float(np.max(np.abs(forward(table, pts) - refs))))
    assert 7.0 <= errs[0] / errs[1] <= 40.0


def test_inverse_round_trip():
    spec = make_spec(Coefficient.const(0.0), SINE_SIGMA, x0=0.5)
    table = build_transform(spec)
    rng = np.random.default_rng(71)
    lo, hi = table.domain
    ys = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 200)
    back = inverse(table, forward(table, ys))
    assert float(np.max(np.abs(back - ys))) <= 1e-8


def test_transform_commutes_with_running_maximum():
    spec = make_spec(Coefficient.tanh(amplitude=0.1), SINE_SIGMA, alpha=0.3)
    table = build_transform(spec)
    grid = GridSpec(n_steps=256, horizon=1.0)
    batch = simulate_batch(spec, grid, 4, seed=83)
    for i in range(4):
        x = batch.x[:, i]
        assert forward(table, float(np.max(x))) == \
            float(np.max(forward(table, x)))


def test_forward_on_a_block_equals_per_column_calls():
    # the lamperti_consistency suite maps a whole time-major block at once
    spec = make_spec(Coefficient.tanh(amplitude=0.1), SINE_SIGMA, alpha=0.1)
    table = build_transform(spec)
    grid = GridSpec(n_steps=256, horizon=1.0)
    batch = simulate_batch(spec, grid, 20, seed=89)
    mapped = forward(table, batch.x)
    assert mapped.shape == batch.x.shape
    for i in range(20):
        np.testing.assert_array_equal(mapped[:, i],
                                      forward(table, batch.x[:, i]))


# -- transformed drift --------------------------------------------------------


def test_transformed_drift_halves_the_angle():
    # sigma = 2, b = sin: y = 2z, so the new drift is sin(2z)/2
    spec = make_spec(Coefficient.sine(), Coefficient.const(2.0))
    table = build_transform(spec)
    zs = np.linspace(-3.0, 3.0, 31)
    np.testing.assert_allclose(tilde_b(table, zs), np.sin(2.0 * zs) / 2.0,
                               atol=1e-9)


def test_driftless_problem_stays_driftless():
    spec = make_spec(Coefficient.const(0.0), Coefficient.const(3.0))
    table = build_transform(spec)
    assert abs(tilde_b(table, 1.3)) <= 1e-14


def test_transformed_drift_bound_known_slope():
    spec = make_spec(Coefficient.sine(), Coefficient.const(2.0))
    table = build_transform(spec)
    assert transformed_drift_bound(table, n_grid=200001) == pytest.approx(
        1.0, abs=1e-6)


def test_transformed_drift_bound_stable_under_refinement():
    spec = make_spec(Coefficient.tanh(amplitude=0.1), SINE_SIGMA, alpha=0.1)
    coarse = transformed_drift_bound(build_transform(spec, n_nodes=4097))
    fine = transformed_drift_bound(build_transform(spec, n_nodes=8193))
    assert abs(coarse - fine) <= 1e-3 * max(abs(fine), 1e-300)


def test_unit_diffusion_transform_is_a_shift():
    # sigma = 1 problems only move the origin: new start alpha*x0, new
    # drift b(. + x0)
    spec = make_spec(Coefficient.sine(amplitude=0.5), Coefficient.const(1.0),
                     x0=1.2, alpha=0.3)
    yspec = transformed_spec(spec)
    assert yspec.x0 == pytest.approx(0.3 * 1.2, abs=1e-10)
    assert yspec.alpha == spec.alpha
    assert yspec.horizon == spec.horizon
    assert yspec.diffusion.preset_id == "const"
    assert yspec.diffusion(0.0, 0) == 1.0
    zs = np.linspace(-2.0, 2.0, 17)
    np.testing.assert_allclose(yspec.drift(zs, 0),
                               0.5 * np.sin(zs + 1.2), atol=1e-10)
    assert yspec.drift.has_order(1)


def test_unit_diffusion_paths_coincide_after_shift():
    spec = make_spec(Coefficient.sine(amplitude=0.5), Coefficient.const(1.0),
                     x0=1.2, alpha=0.3)
    yspec = transformed_spec(spec)
    grid = GridSpec(n_steps=500, horizon=1.0)
    xb = simulate_batch(spec, grid, 4, seed=97)
    yb = simulate_batch(yspec, grid, 4, seed=97)
    assert float(np.max(np.abs(xb.x - (yb.x + 1.2)))) <= 1e-9


# -- derivative-norm lift -----------------------------------------------------


def test_lift_is_tight_for_constant_diffusion():
    spec = make_spec(Coefficient.const(0.0), Coefficient.const(2.0),
                     alpha=0.3)
    yspec = transformed_spec(spec)
    grid = GridSpec(n_steps=500, horizon=1.0)
    xb = simulate_batch(spec, grid, 50, seed=101)
    yb = simulate_batch(yspec, grid, 50, seed=101)
    fx = propagate_derivative_batch(xb, spec, grid)
    fy = propagate_derivative_batch(yb, yspec, grid)
    report = lift_bound_check(fx, fy, inf_sigma=2.0)
    assert report.n_paths == 50
    assert report.n_violations == 0
    # equality case: sqrt norms match to roundoff after the factor of 2
    assert report.max_deficit <= 1e-8
    assert report.slack == pytest.approx(10.0 * grid.dt)


def test_lift_holds_for_varying_diffusion():
    spec = make_spec(Coefficient.tanh(amplitude=0.1), SINE_SIGMA, alpha=0.1)
    yspec = transformed_spec(spec)
    grid = GridSpec(n_steps=500, horizon=1.0)
    xb = simulate_batch(spec, grid, 30, seed=103)
    yb = simulate_batch(yspec, grid, 30, seed=103)
    fx = propagate_derivative_batch(xb, spec, grid)
    fy = propagate_derivative_batch(yb, yspec, grid)
    report = lift_bound_check(fx, fy, inf_sigma=1.0)
    assert report.n_violations == 0


def test_transformed_field_constant_diffusion_scales_everything():
    spec = make_spec(Coefficient.const(0.0), Coefficient.const(2.0),
                     alpha=0.3)
    table = build_transform(spec)
    grid = GridSpec(n_steps=500, horizon=1.0)
    xb = simulate_batch(spec, grid, 20, seed=101)
    fx = propagate_derivative_batch(xb, spec, grid, track_all_times=True)
    fy = transformed_field(table, xb, fx)
    # F(y) = y/2, so every slot halves and every squared norm quarters
    np.testing.assert_allclose(fy.d_x, fx.d_x / 2.0, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(fy.d_m, fx.d_m / 2.0, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(fy.h_norm_sq_final, fx.h_norm_sq_final / 4.0,
                               rtol=1e-9)
    np.testing.assert_allclose(fy.sup_h_norm_sq, fx.sup_h_norm_sq / 4.0,
                               rtol=1e-9)
    np.testing.assert_allclose(fy.h_norm_sq_by_time,
                               fx.h_norm_sq_by_time / 4.0,
                               rtol=1e-9, atol=1e-15)
    assert fy.dt == fx.dt


def test_transformed_field_matches_direct_propagation_when_exact():
    # sigma = 2 halves the problem exactly in floating point, so the
    # chain-rule field and a directly propagated transformed batch agree
    # to interpolation error
    spec = make_spec(Coefficient.const(0.0), Coefficient.const(2.0),
                     alpha=0.3)
    table = build_transform(spec)
    yspec = transformed_spec(spec, table)
    grid = GridSpec(n_steps=500, horizon=1.0)
    xb = simulate_batch(spec, grid, 20, seed=101)
    yb = simulate_batch(yspec, grid, 20, seed=101)
    fx = propagate_derivative_batch(xb, spec, grid, track_all_times=True)
    fy_chain = transformed_field(table, xb, fx)
    fy_direct = propagate_derivative_batch(yb, yspec, grid)
    np.testing.assert_allclose(fy_chain.d_x, fy_direct.d_x,
                               rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(fy_chain.h_norm_sq_final,
                               fy_direct.h_norm_sq_final, rtol=1e-9)


def test_lift_exact_along_mapped_trajectory():
    spec = make_spec(Coefficient.tanh(amplitude=0.1), SINE_SIGMA, alpha=0.1)
    table = build_transform(spec)
    grid = GridSpec(n_steps=1000, horizon=1.0)
    xb = simulate_batch(spec, grid, 200, seed=107)
    fx = propagate_derivative_batch(xb, spec, grid, track_all_times=True)
    fy = transformed_field(table, xb, fx)
    report = lift_bound_check(fx, fy, inf_sigma=table.sigma_inf)
    assert report.n_violations == 0
    # deficit reduces to sigma_inf * F'(x_n) - 1, at worst the gap between
    # the tabulated infimum and a trough value, far below the slack
    assert report.max_deficit <= 1e-4
    # sigma >= 1 means F' <= 1: the mapped norms can only shrink
    assert np.all(fy.sup_h_norm_sq <= fx.sup_h_norm_sq * (1.0 + 1e-9))


def test_transformed_field_validation(driftless, grid_1000):
    spec = driftless(0.2)
    table = build_transform(spec)
    batch = simulate_batch(spec, grid_1000, 3, seed=0)
    flat = propagate_derivative_batch(batch, spec, grid_1000)
    with pytest.raises(ConfigError, match="track_all_times"):
        transformed_field(table, batch, flat)
    tracked = propagate_derivative_batch(batch, spec, grid_1000,
                                         track_all_times=True)
    short = GridSpec(n_steps=500, horizon=1.0)
    other = simulate_batch(spec, short, 3, seed=0)
    with pytest.raises(GridMismatch):
        transformed_field(table, other, tracked)
    narrow = build_transform(spec, domain=(-0.5, 0.5))
    with pytest.raises(OutOfDomain):
        transformed_field(narrow, batch, tracked)


def test_lift_input_validation(driftless, grid_1000):
    spec = driftless(0.0)
    batch = simulate_batch(spec, grid_1000, 3, seed=0)
    fields = propagate_derivative_batch(batch, spec, grid_1000)
    with pytest.raises(ConfigError):
        lift_bound_check(fields, fields, inf_sigma=-1.0)
    wider = simulate_batch(spec, grid_1000, 5, seed=0)
    wf = propagate_derivative_batch(wider, spec, grid_1000)
    with pytest.raises(ConfigError, match="path counts"):
        lift_bound_check(fields, wf, inf_sigma=1.0)


# -- failure modes ------------------------------------------------------------


def test_out_of_domain_and_out_of_range():
    spec = make_spec(Coefficient.const(0.0), Coefficient.const(1.0))
    table = build_transform(spec, domain=(-2.0, 2.0))
    with pytest.raises(OutOfDomain):
        forward(table, 5.0)
    with pytest.raises(DomainTooSmall):
        inverse(table, 100.0)


def test_build_transform_validation():
    vanishing = make_spec(Coefficient.const(0.0), Coefficient.sine())
    with pytest.raises(DegenerateDiffusion):
        build_transform(vanishing, domain=(-6.0, 6.0))
    spec = make_spec(Coefficient.const(0.0), Coefficient.const(1.0))
    with pytest.raises(ConfigError, match="n_nodes"):
        build_transform(spec, n_nodes=4)
    with pytest.raises(ConfigError, match="x0"):
        build_transform(spec, domain=(1.0, 2.0))


# -- scipy is loaded on demand ------------------------------------------------

_SRC = Path(lamperti.__file__).resolve().parents[1]


def test_scipy_loads_only_when_a_transform_is_built(tmp_path, repo_configs):
    # A fresh interpreter: this one has scipy loaded by the tests already.
    code = textwrap.dedent("""
        import sys
        import perturbsde.cli
        assert "scipy" not in sys.modules, "import perturbsde.cli loads scipy"
        import perturbsde
        assert "scipy" not in sys.modules, "import perturbsde loads scipy"
        rc = perturbsde.cli.main(["transform", "--config", sys.argv[1],
                                  "--out", sys.argv[2]])
        assert rc == 0, rc
        assert "scipy.interpolate" in sys.modules
        table = perturbsde.build_transform(perturbsde.ProblemSpec(
            x0=0.0, alpha=0.0, drift=perturbsde.Coefficient.const(0.0),
            diffusion=perturbsde.Coefficient.const(2.0), horizon=1.0))
        assert abs(perturbsde.inverse(table, 2.0) - 4.0) <= 1e-9
        assert abs(perturbsde.lamperti.brentq(lambda v: v - 0.25, 0.0, 1.0)
                   - 0.25) <= 1e-12
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    res = subprocess.run(
        [sys.executable, "-c", code, str(repo_configs / "transform.json"),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "out" / "transform_table.csv").exists()


def test_inverse_fallback_calls_the_module_brentq(monkeypatch):
    # The benchmark counts fallbacks by rebinding lamperti.brentq.
    calls = []
    original = lamperti.brentq

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(lamperti, "brentq", counting)
    table = build_transform(make_spec(Coefficient.const(0.0), SINE_SIGMA))
    ys = np.linspace(-3.0, 3.0, 101)
    # Newton leaves a few of these residuals above a tolerance this tight
    back = inverse(table, forward(table, ys), tol=1e-300)
    assert calls
    np.testing.assert_allclose(back, ys, atol=1e-12)
