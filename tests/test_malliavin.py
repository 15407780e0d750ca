"""Noise-derivative propagation: closed forms, norm bookkeeping, and the
finite-difference cross-check."""

import math

import numpy as np
import pytest

from perturbsde import (
    Coefficient,
    ConfigError,
    GridMismatch,
    GridSpec,
    ProblemSpec,
    cameron_martin_fd,
    h_norm_sq,
    inner_product,
    propagate_derivative_batch,
    simulate_batch,
    simulate_increments,
)
from conftest import COEFFICIENT_CASES, mixed_case


# -- closed forms in the driftless additive case ------------------------------


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.3, 0.9])
def test_driftless_slots_take_two_values(alpha, driftless, grid_1000):
    # slots before the argmax carry the feedback factor 1/(1-a), slots
    # after it are plain sigma = 1
    spec = driftless(alpha)
    batch = simulate_batch(spec, grid_1000, 50, seed=211)
    fields = propagate_derivative_batch(batch, spec, grid_1000)
    tau_idx = batch.final_argmax_idx()
    pre = 1.0 / (1.0 - alpha)
    for i in range(batch.n_paths):
        t = tau_idx[i]
        d = fields.d_x[i]
        if t > 0:
            assert float(np.max(np.abs(d[:t] - pre))) <= 1e-12
        if t < d.size:
            assert float(np.max(np.abs(d[t:] - 1.0))) <= 1e-12
        m = fields.d_m[i]
        if t > 0:
            assert float(np.max(np.abs(m[:t] - pre))) <= 1e-12
        assert np.all(m[t:] == 0.0)


@pytest.mark.parametrize("alpha", [-1.0, 0.5, 0.9])
def test_driftless_norm_closed_form(alpha, driftless, grid_1000):
    spec = driftless(alpha)
    batch = simulate_batch(spec, grid_1000, 200, seed=223)
    fields = propagate_derivative_batch(batch, spec, grid_1000)
    tau = batch.final_argmax_idx() * grid_1000.dt
    expected = tau / (1.0 - alpha) ** 2 + (1.0 - tau)
    assert float(np.max(np.abs(fields.h_norm_sq_final - expected))) <= 1e-10


def test_classical_case_has_unit_derivative(driftless, grid_1000):
    batch = simulate_batch(driftless(0.0), grid_1000, 1, seed=5)
    field = propagate_derivative_batch(batch, driftless(0.0), grid_1000)
    np.testing.assert_allclose(field.d_x, 1.0, atol=1e-14)
    assert field.h_norm_sq_final[0] == pytest.approx(1.0, abs=1e-12)
    assert field.sup_h_norm_sq[0] == pytest.approx(1.0, abs=1e-12)


def test_ornstein_uhlenbeck_first_variation(grid_1000):
    # b(x) = -x, sigma = 1, alpha = 0: the continuous sensitivity to noise
    # at time r is e^{-(T - r)}; the discrete propagation compounds
    # (1 - dt) once per remaining step, an O(dt) approximation of it
    spec = ProblemSpec(x0=0.5, alpha=0.0,
                       drift=Coefficient.ornstein_uhlenbeck(rate=1.0),
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    batch = simulate_batch(spec, grid_1000, 1, seed=9)
    field = propagate_derivative_batch(batch, spec, grid_1000)
    r = grid_1000.times[:-1]
    expected = np.exp(-(1.0 - r))
    assert float(np.max(np.abs(field.d_x[0] - expected))) <= 2e-3


# -- norm bookkeeping ---------------------------------------------------------


def test_h_norm_sq_hand_values():
    assert h_norm_sq(np.ones(100), dt=0.01, k=100) == pytest.approx(1.0)
    assert h_norm_sq(np.zeros(64), dt=0.1) == 0.0
    assert h_norm_sq(np.array([2.0, 3.0]), dt=0.5) == pytest.approx(6.5)
    # driftless closed form at T = 1: tau/(1-a)^2 + (T - tau)
    assert 0.25 / 0.25 + 0.75 == pytest.approx(1.75)


def test_h_norm_sq_prefix_and_batch_forms():
    d = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])
    out = h_norm_sq(d, dt=0.1)
    np.testing.assert_allclose(out, [1.4, 0.1])
    assert h_norm_sq(d[0], dt=0.1, k=2) == pytest.approx(0.5)
    with pytest.raises(GridMismatch):
        h_norm_sq(d[0], dt=0.1, k=4)


def test_field_norms_are_consistent(tanh_spec, grid_1000):
    batch = simulate_batch(tanh_spec, grid_1000, 20, seed=227)
    fields = propagate_derivative_batch(batch, tanh_spec, grid_1000,
                                        track_all_times=True)
    np.testing.assert_allclose(h_norm_sq(fields.d_x, grid_1000.dt),
                               fields.h_norm_sq_final, rtol=1e-12)
    by_time = fields.h_norm_sq_by_time
    assert by_time.shape == (1001, 20)
    np.testing.assert_array_equal(by_time[0], 0.0)
    np.testing.assert_allclose(by_time[-1], fields.h_norm_sq_final,
                               rtol=1e-12)
    np.testing.assert_allclose(by_time.max(axis=0), fields.sup_h_norm_sq,
                               rtol=1e-12)
    assert np.all(fields.sup_h_norm_sq >= fields.h_norm_sq_final - 1e-15)


def test_first_step_norm_reflects_the_initial_branch(driftless):
    grid = GridSpec(n_steps=8, horizon=1.0)
    spec = driftless(0.5)
    batch = simulate_batch(spec, grid, 40, seed=229)
    fields = propagate_derivative_batch(batch, spec, grid,
                                        track_all_times=True)
    dt = grid.dt
    # the only live slot at t_1 was born at the step that may or may not
    # have set a new maximum
    for i in range(batch.n_paths):
        init = 1.0 / 0.5 if batch.new_max[1, i] else 1.0
        assert fields.h_norm_sq_by_time[1, i] == pytest.approx(
            dt * init * init, rel=1e-12)


def test_max_derivative_norm_below_running_sup(tanh_spec, grid_1000):
    batch = simulate_batch(tanh_spec, grid_1000, 30, seed=233)
    fields = propagate_derivative_batch(batch, tanh_spec, grid_1000)
    dm_norm = h_norm_sq(fields.d_m, grid_1000.dt)
    assert np.all(dm_norm <= fields.sup_h_norm_sq + 1e-12)


def test_single_path_and_batch_fields_agree(tanh_spec, grid_1000):
    # a column propagated inside a block equals the same column propagated
    # as a batch of one: keyed tanh paths, then a mixed block per
    # coefficient case
    cases = [(tanh_spec, grid_1000,
              simulate_batch(tanh_spec, grid_1000, 4, seed=239).db)]
    cases += [mixed_case(name) for name in COEFFICIENT_CASES]
    for spec, grid, db in cases:
        fields = propagate_derivative_batch(
            simulate_increments(spec, grid, db), spec, grid,
            track_all_times=True)
        for i in range(db.shape[1]):
            alone = propagate_derivative_batch(
                simulate_increments(spec, grid, db[:, i:i + 1]), spec, grid,
                track_all_times=True)
            np.testing.assert_array_equal(alone.d_x[0], fields.d_x[i])
            np.testing.assert_array_equal(alone.d_m[0], fields.d_m[i])
            assert alone.h_norm_sq_final[0] == fields.h_norm_sq_final[i]
            assert alone.sup_h_norm_sq[0] == fields.sup_h_norm_sq[i]
            np.testing.assert_array_equal(alone.h_norm_sq_by_time[:, 0],
                                          fields.h_norm_sq_by_time[:, i])


def test_grid_mismatch_rejected(tanh_spec, grid_1000):
    other = GridSpec(n_steps=500, horizon=1.0)
    batch = simulate_batch(tanh_spec, grid_1000, 2, seed=0)
    with pytest.raises(GridMismatch):
        propagate_derivative_batch(batch, tanh_spec, other)


# -- directional finite differences -------------------------------------------


def test_constant_direction_classical_case(driftless, grid_1000):
    # X_T is a linear functional of the noise, so the quotient is exact
    spec = driftless(0.0)
    db = simulate_batch(spec, grid_1000, 1, seed=13).db
    h = np.ones(grid_1000.n_steps)
    for eps in (0.5, 1e-4):
        assert cameron_martin_fd(spec, grid_1000, db, h, eps=eps)[0] == \
            pytest.approx(1.0, abs=1e-7)


def test_directional_derivative_matches_field_pairing(driftless, grid_1000):
    # driftless alpha = 1/2: piecewise linear in the shift, so away from
    # argmax switches the quotient equals the pairing to roundoff
    spec = driftless(0.5)
    h = np.ones(grid_1000.n_steps)
    batch = simulate_batch(spec, grid_1000, 20, seed=241)
    fields = propagate_derivative_batch(batch, spec, grid_1000)
    tau = batch.final_argmax_idx() * grid_1000.dt
    fd = cameron_martin_fd(spec, grid_1000, batch.db, h, eps=1e-4)
    ip = inner_product(fields, h, grid_1000.dt)
    np.testing.assert_allclose(ip, tau / 0.5 + (1.0 - tau), rtol=1e-10)
    assert float(np.median(np.abs(fd - ip))) <= 1e-9


def test_directional_derivative_with_smooth_drift():
    spec = ProblemSpec(x0=0.0, alpha=0.2,
                       drift=Coefficient.sine(amplitude=0.5),
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    grid = GridSpec(n_steps=2000, horizon=1.0)
    h = np.ones(grid.n_steps)
    batch = simulate_batch(spec, grid, 20, seed=251)
    fields = propagate_derivative_batch(batch, spec, grid)
    fd = cameron_martin_fd(spec, grid, batch.db, h, eps=1e-4)
    ip = inner_product(fields, h, grid.dt)
    rel = np.abs(fd - ip) / np.maximum(np.maximum(np.abs(fd), np.abs(ip)),
                                       1e-300)
    assert float(np.median(rel)) <= 1e-2


def test_batch_directional_derivative_equals_per_path_calls():
    # each column of a block equals the same column run alone: keyed
    # sine-drift paths, then a mixed block per coefficient case
    sine_spec = ProblemSpec(x0=0.0, alpha=0.2,
                            drift=Coefficient.sine(amplitude=0.5),
                            diffusion=Coefficient.const(1.0), horizon=1.0)
    keyed_grid = GridSpec(n_steps=500, horizon=1.0)
    cases = [(sine_spec, keyed_grid,
              simulate_batch(sine_spec, keyed_grid, 12, seed=257).db)]
    cases += [mixed_case(name) for name in COEFFICIENT_CASES]
    for spec, grid, db in cases:
        h = np.cos(np.linspace(0.0, 3.0, grid.n_steps))
        base = simulate_increments(spec, grid, db, record=False).x_final
        per_path = [cameron_martin_fd(spec, grid, db[:, i:i + 1], h)[0]
                    for i in range(db.shape[1])]
        together = cameron_martin_fd(spec, grid, db, h)
        reused = cameron_martin_fd(spec, grid, db, h, base=base)
        np.testing.assert_array_equal(together, per_path)
        np.testing.assert_array_equal(reused, per_path)


def test_batch_directional_derivative_input_validation(tanh_spec, grid_1000):
    db = simulate_batch(tanh_spec, grid_1000, 3, seed=0).db
    h = np.ones(grid_1000.n_steps)
    with pytest.raises(GridMismatch):
        cameron_martin_fd(tanh_spec, grid_1000, db[:, 0], h)
    with pytest.raises(GridMismatch):
        cameron_martin_fd(tanh_spec, grid_1000, db[:-1], h)
    with pytest.raises(GridMismatch):
        cameron_martin_fd(tanh_spec, grid_1000, db, h, base=np.zeros(2))


def test_directional_derivative_input_validation(tanh_spec, grid_1000):
    batch = simulate_batch(tanh_spec, grid_1000, 1, seed=0)
    with pytest.raises(ConfigError):
        cameron_martin_fd(tanh_spec, grid_1000, batch.db,
                          np.ones(grid_1000.n_steps), eps=0.0)
    with pytest.raises(GridMismatch):
        cameron_martin_fd(tanh_spec, grid_1000, batch.db, np.ones(5))
    fields = propagate_derivative_batch(batch, tanh_spec, grid_1000)
    with pytest.raises(GridMismatch):
        inner_product(fields, np.ones(5), grid_1000.dt)


def test_inner_product_rows_equal_one_path_batches(tanh_spec, grid_1000):
    # one np.dot per path: a pairing does not depend on the rest of the
    # batch
    batch = simulate_batch(tanh_spec, grid_1000, 6, seed=263)
    fields = propagate_derivative_batch(batch, tanh_spec, grid_1000)
    h = np.sin(np.linspace(0.0, 5.0, grid_1000.n_steps))
    ips = inner_product(fields, h, grid_1000.dt)
    assert ips.shape == (6,)
    for i in range(6):
        alone = propagate_derivative_batch(
            simulate_batch(tanh_spec, grid_1000, 1, seed=263, path_offset=i),
            tanh_spec, grid_1000)
        assert inner_product(alone, h, grid_1000.dt)[0] == ips[i]
