"""Noise-derivative propagation: closed forms, norm bookkeeping, and the
finite-difference cross-check."""

import math
import tracemalloc

import numpy as np
import pytest

from perturbsde import (
    Coefficient,
    ConfigError,
    GridMismatch,
    GridSpec,
    ProblemSpec,
    cameron_martin_fd,
    inner_product,
    propagate_derivative_batch,
    simulate_batch,
    simulate_increments,
)
from perturbsde import integrate, malliavin
from conftest import COEFFICIENT_CASES, make_tanh, mixed_case


def h_norm_sq(d_x: np.ndarray, dt: float, k: int | None = None):
    """Squared Cameron-Martin norm from a slot array: ``dt * sum_{i < k}
    d_x[i]^2`` with ``k`` defaulting to all slots; slot ``i`` carries the
    left-endpoint weight of the increment interval.  Accepts a batch array
    (slots on the last axis)."""
    arr = np.asarray(d_x, float)
    if k is None:
        k = arr.shape[-1]
    if not 0 <= k <= arr.shape[-1]:
        raise GridMismatch(f"k={k} outside slot range {arr.shape[-1]}")
    sub = arr[..., :k]
    out = dt * np.einsum("...i,...i->...", sub, sub)
    return float(out) if arr.ndim == 1 else out


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


def test_h_norm_sq_hand_values(driftless):
    assert h_norm_sq(np.ones(100), dt=0.01, k=100) == pytest.approx(1.0)
    assert h_norm_sq(np.zeros(64), dt=0.1) == 0.0
    assert h_norm_sq(np.array([2.0, 3.0]), dt=0.5) == pytest.approx(6.5)
    # driftless closed form at T = 1: tau/(1-a)^2 + (T - tau).  With
    # alpha = 1/2 the partial sums 0.1, 0.4, 0.2, 0.1 set new maxima at
    # steps 1 and 2 only, so tau = 2 dt = 0.5 and the norm is 2 + 0.5
    spec, grid = driftless(0.5), GridSpec(n_steps=4, horizon=1.0)
    batch = simulate_increments(spec, grid,
                                np.array([[0.1], [0.3], [-0.2], [-0.1]]))
    assert batch.final_argmax_idx()[0] == 2
    fields = propagate_derivative_batch(batch, spec, grid)
    assert fields.h_norm_sq_final[0] == pytest.approx(2.5, rel=1e-14)


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


@pytest.mark.parametrize("alpha", [-1e154, -1e155, -1e300])
def test_norms_stay_finite_past_the_square_of_one_minus_alpha(alpha):
    # (1 - alpha)**2 passes the largest double from alpha = -1.35e154 on,
    # where a Python float's ** raises OverflowError; the forward sweep
    # divides by it, and the quotient is zero there
    spec = make_tanh(alpha=alpha)
    grid = GridSpec(n_steps=64, horizon=1.0)
    batch = simulate_batch(spec, grid, 20, seed=239)
    fields = propagate_derivative_batch(batch, spec, grid,
                                        track_all_times=True)
    assert np.all(np.isfinite(fields.h_norm_sq_by_time))
    assert np.all(np.isfinite(fields.d_x)) and np.all(np.isfinite(fields.d_m))
    # a path with a new maximum at the last step has every slot of order
    # 1 / (1 - alpha), and so a subnormal norm
    np.testing.assert_allclose(h_norm_sq(fields.d_x, grid.dt),
                               fields.h_norm_sq_final, rtol=1e-12,
                               atol=1e-300)


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


def _slot_recursion(batch, spec, grid):
    """The module docstring's recursion run slot by slot, unscaled: final
    ``d_x``, ``d_m`` and the ``(n_steps+1, n_paths)`` norm curve."""
    x, db, new, dt = batch.x, batch.db, batch.new_max, grid.dt
    n, n_paths = db.shape
    alpha = spec.alpha
    d = np.zeros((n_paths, n))
    m = np.zeros((n_paths, n))
    by_time = np.zeros((n + 1, n_paths))
    for k in range(n):
        a = 1.0 + spec.drift(x[k], 1) * dt + spec.diffusion(x[k], 1) * db[k]
        nk = new[k + 1]
        for i in range(k):
            d[:, i] *= a
            d[nk, i] = (d[nk, i] - alpha * m[nk, i]) / (1.0 - alpha)
            m[nk, i] = d[nk, i]
        sk = spec.diffusion(x[k], 0)
        d[:, k] = np.where(nk, sk / (1.0 - alpha), sk)
        m[:, k] = np.where(nk, d[:, k], 0.0)
        by_time[k + 1] = dt * np.sum(d[:, :k + 1] ** 2, axis=1)
    return d, m, by_time


# (alpha, drift) of the keyed 64-step cases, unit diffusion
_RECURSION_CASES = {
    "tanh=-1": (-1.0, Coefficient.tanh(amplitude=0.5)),
    "tanh=0.3": (0.3, Coefficient.tanh(amplitude=0.5)),
    "tanh=0.9": (0.9, Coefficient.tanh(amplitude=0.5)),
    # a_k = 1 - 64 dt = 0 exactly: every step annihilates the live slots
    "annihilation": (0.4, Coefficient.linear(slope=-64.0)),
    # a_k = 0.001: live slots fall to about 1e-189
    "tiny": (0.3, Coefficient.linear(slope=-63.936)),
}


def _recursion_case(name):
    if name in COEFFICIENT_CASES:
        # the first 64 steps of the mixed block, at its step size
        spec, grid, db = mixed_case(name)
        grid = GridSpec(n_steps=64, horizon=64 * grid.dt)
        return spec, grid, simulate_increments(spec, grid, db[:64])
    alpha, drift = _RECURSION_CASES[name]
    spec = ProblemSpec(x0=0.2, alpha=alpha, drift=drift,
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    grid = GridSpec(n_steps=64, horizon=1.0)
    return spec, grid, simulate_batch(spec, grid, 16, seed=269)


@pytest.mark.parametrize("name", [*COEFFICIENT_CASES, *_RECURSION_CASES])
def test_sweeps_match_the_slot_recursion(name):
    spec, grid, batch = _recursion_case(name)
    d, m, by_time = _slot_recursion(batch, spec, grid)
    if name == "tiny":
        assert 0.0 < np.min(np.abs(d[d != 0.0])) < 1e-180
    fields = propagate_derivative_batch(batch, spec, grid,
                                        track_all_times=True)
    pairs = [(fields.d_x, d), (fields.d_m, m),
             (fields.h_norm_sq_by_time, by_time),
             (fields.sup_h_norm_sq, by_time.max(axis=0))]
    for got, want in pairs:
        scale = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got - want))) <= 1e-12 * scale


def _dense_forward_sweep(batch, spec, grid):
    """The forward sweep with full-width updates of ``S``, ``Y`` and ``G``
    at every step and the ``sigma' db`` term always formed: final norm,
    its running sup and the norm curve.  The event-sparse sweep must equal
    it bit for bit."""
    x, db, new_tm, dt = batch.x, batch.db, batch.new_max, grid.dt
    alpha = spec.alpha
    one_minus = 1.0 - alpha
    b1, s0, s1 = (spec.drift.evaluator(1), spec.diffusion.evaluator(0),
                  spec.diffusion.evaluator(1))
    P = x.shape[1]
    G, S, Y, h_sup = np.ones(P), np.zeros(P), np.zeros(P), np.zeros(P)
    by_time = np.zeros(x.shape)
    for k in range(db.shape[0]):
        a = 1.0 + (b1(x[k]) * dt + s1(x[k]) * db[k])
        G = G * a
        Y = Y * (a * a)
        new = new_tm[k + 1]
        sk = s0(x[k])
        init2 = np.where(new, sk / one_minus, sk) ** 2
        mu = (G - alpha) / one_minus
        S = np.where(new, S * (mu * mu) + Y / one_minus**2 + init2, S)
        Y = np.where(new, 0.0, Y + init2)
        G = np.where(new, 1.0, G)
        h = dt * (G * G * S + Y)
        np.maximum(h_sup, h, out=h_sup)
        by_time[k + 1] = h
    return h, h_sup, by_time


@pytest.mark.parametrize("name", [*COEFFICIENT_CASES, *_RECURSION_CASES])
def test_forward_sweep_equals_the_dense_sweep_bitwise(name):
    spec, grid, batch = _recursion_case(name)
    want = _dense_forward_sweep(batch, spec, grid)
    tracked = propagate_derivative_batch(batch, spec, grid,
                                         track_all_times=True)
    plain = propagate_derivative_batch(batch, spec, grid)
    for fields in (tracked, plain):
        assert fields.h_norm_sq_final.tobytes() == want[0].tobytes()
        assert fields.sup_h_norm_sq.tobytes() == want[1].tobytes()
    assert tracked.h_norm_sq_by_time.tobytes() == want[2].tobytes()


def _dense_backward_sweep(batch, spec, dt, G):
    """The backward sweep with full-width ``np.where`` updates of ``M`` and
    ``R`` at every step: ``(d_x, d_m)``.  The index-sparse sweep must
    equal it bit for bit."""
    x_tm, new_tm = batch.x, batch.new_max
    n, P = x_tm.shape[0] - 1, x_tm.shape[1]
    alpha = spec.alpha
    one_minus = 1.0 - alpha
    b1, s0, s1 = (spec.drift.evaluator(1), spec.diffusion.evaluator(0),
                  spec.diffusion.evaluator(1))
    d_x, d_m = np.empty((P, n)), np.empty((P, n))
    R, M, later = np.ones(P), np.ones(P), np.zeros(P, bool)
    for k in range(n - 1, -1, -1):
        xk, new = x_tm[k], new_tm[k + 1]
        M = np.where(new & later, (R - alpha) / one_minus * M, M)
        sk = s0(xk)
        m = sk / one_minus * np.where(new, M, np.where(later, R * M, 0.0))
        d_m[:, k] = m
        d_x[:, k] = np.where(new | later, m * G, sk * R)
        a = 1.0 + (b1(xk) * dt + s1(xk) * batch.db[k])
        R = np.where(new, a, R * a)
        later |= new
    return d_x, d_m


def _random_batch(alpha, seed):
    """A 40-step, 24-path batch of random states, increments and
    new-maximum flags (flags need not follow from the states, as at a
    tie), with ``a_k = 0`` exactly on every third path at step 20, and
    a random final ``G``."""
    rng = np.random.default_rng(seed)
    n, P = 40, 24
    spec = ProblemSpec(x0=0.0, alpha=alpha, drift=Coefficient.const(0.3),
                       diffusion=Coefficient.linear(slope=0.5, intercept=1.0),
                       horizon=1.0)
    db = 0.2 * rng.standard_normal((n, P))
    db[20, ::3] = -2.0               # a_k = 1 + 0.5 * db_k = 0
    batch = integrate.PathBatch(rng.standard_normal((n + 1, P)),
                                rng.random((n + 1, P)) < 0.3, db=db)
    return spec, GridSpec(n_steps=n, horizon=1.0), batch, \
        rng.uniform(0.5, 2.0, P)


@pytest.mark.parametrize("case", [
    *[("random", alpha, seed) for alpha in (0.0, 0.4, -1.0)
      for seed in (0, 1)],
    *[(name, None, None) for name in [*COEFFICIENT_CASES,
                                      *_RECURSION_CASES]]],
    ids=lambda c: c[0] if c[1] is None else f"random-{c[1]}-{c[2]}")
def test_backward_sweep_equals_the_dense_sweep_bitwise(case):
    name, alpha, seed = case
    if name == "random":
        spec, grid, batch, G = _random_batch(alpha, seed)
    else:
        spec, grid, batch = _recursion_case(name)
        G = np.random.default_rng(7).uniform(0.5, 2.0, batch.x.shape[1])
    got = malliavin._backward_sweep(batch, spec, grid.dt, G)
    want = _dense_backward_sweep(batch, spec, grid.dt, G)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_norms_only_propagation_does_no_slot_work(tanh_spec):
    # the backward sweep's two (P, n) outputs are 8 MB each here; the
    # forward sweep holds a few (P,) vectors
    grid = GridSpec(n_steps=500, horizon=1.0)
    batch = simulate_batch(tanh_spec, grid, 2000, seed=271)
    tracemalloc.start()
    try:
        fields = propagate_derivative_batch(batch, tanh_spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 500 * 8
    d_x = fields.d_x
    assert fields.d_x is d_x and fields.d_m is fields.d_m


def test_slots_read_after_the_batch_is_dropped(tanh_spec, grid_1000):
    batch = simulate_batch(tanh_spec, grid_1000, 8, seed=277)
    eager = propagate_derivative_batch(batch, tanh_spec, grid_1000)
    d_x, d_m = eager.d_x, eager.d_m
    fields = propagate_derivative_batch(batch, tanh_spec, grid_1000)
    del batch
    np.testing.assert_array_equal(fields.d_x.view(np.uint64),
                                  d_x.view(np.uint64))
    np.testing.assert_array_equal(fields.d_m.view(np.uint64),
                                  d_m.view(np.uint64))


def test_keyed_block_is_redrawn_only_for_a_varying_diffusion(monkeypatch,
                                                             tanh_spec):
    # a keyed batch stores no increments: a constant diffusion never reads
    # them, and a varying one redraws the block once, on its first read
    draws = []
    generate = integrate.generate_increments

    def counting(*args, **kwargs):
        draws.append((args, kwargs))
        return generate(*args, **kwargs)

    monkeypatch.setattr(integrate, "generate_increments", counting)
    grid = GridSpec(n_steps=50, horizon=1.0)
    batch = simulate_batch(tanh_spec, grid, 7, seed=3)
    fields = propagate_derivative_batch(batch, tanh_spec, grid,
                                        track_all_times=True)
    fields.d_x
    assert draws == []

    drift, diffusion = COEFFICIENT_CASES["sine"]
    spec = ProblemSpec(x0=0.2, alpha=0.3, drift=drift, diffusion=diffusion,
                       horizon=1.0)
    batch = simulate_batch(spec, grid, 7, seed=3, path_offset=5)
    assert draws == []
    db = batch.db
    assert draws == [((3, 50, grid.dt), {"n_paths": 7, "path_offset": 5})]
    fields = propagate_derivative_batch(batch, spec, grid)
    fields.d_x
    assert batch.db is db and len(draws) == 1


def test_grid_mismatch_rejected(tanh_spec, grid_1000):
    other = GridSpec(n_steps=500, horizon=1.0)
    batch = simulate_batch(tanh_spec, grid_1000, 2, seed=0)
    with pytest.raises(GridMismatch):
        propagate_derivative_batch(batch, tanh_spec, other)


# -- directional finite differences -------------------------------------------


def test_constant_direction_classical_case(driftless, grid_1000):
    # X_T is a linear functional of the noise, so the quotient is exact
    spec = driftless(0.0)
    batch = simulate_batch(spec, grid_1000, 1, seed=13)
    h = np.ones(grid_1000.n_steps)
    for eps in (0.5, 1e-4):
        assert cameron_martin_fd(spec, grid_1000, batch.db, h, eps=eps,
                                 base=batch.x[-1])[0] == \
            pytest.approx(1.0, abs=1e-7)


def test_directional_derivative_matches_field_pairing(driftless, grid_1000):
    # driftless alpha = 1/2: piecewise linear in the shift, so away from
    # argmax switches the quotient equals the pairing to roundoff
    spec = driftless(0.5)
    h = np.ones(grid_1000.n_steps)
    batch = simulate_batch(spec, grid_1000, 20, seed=241)
    fields = propagate_derivative_batch(batch, spec, grid_1000)
    tau = batch.final_argmax_idx() * grid_1000.dt
    fd = cameron_martin_fd(spec, grid_1000, batch.db, h, eps=1e-4,
                           base=batch.x[-1])
    ip = inner_product(fields, h)
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
    fd = cameron_martin_fd(spec, grid, batch.db, h, eps=1e-4,
                           base=batch.x[-1])
    ip = inner_product(fields, h)
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
        base = simulate_increments(spec, grid, db, record=False)
        per_path = [cameron_martin_fd(spec, grid, db[:, i:i + 1], h,
                                      base=base[i:i + 1])[0]
                    for i in range(db.shape[1])]
        together = cameron_martin_fd(spec, grid, db, h, base=base)
        np.testing.assert_array_equal(together, per_path)


def test_batch_directional_derivative_input_validation(tanh_spec, grid_1000):
    db = simulate_batch(tanh_spec, grid_1000, 3, seed=0).db
    h = np.ones(grid_1000.n_steps)
    base = np.zeros(3)
    with pytest.raises(GridMismatch):
        cameron_martin_fd(tanh_spec, grid_1000, db[:, 0], h, base=base)
    with pytest.raises(GridMismatch):
        cameron_martin_fd(tanh_spec, grid_1000, db[:-1], h, base=base)
    with pytest.raises(GridMismatch):
        cameron_martin_fd(tanh_spec, grid_1000, db, h, base=np.zeros(2))


def test_directional_derivative_input_validation(tanh_spec, grid_1000):
    batch = simulate_batch(tanh_spec, grid_1000, 1, seed=0)
    with pytest.raises(ConfigError):
        cameron_martin_fd(tanh_spec, grid_1000, batch.db,
                          np.ones(grid_1000.n_steps), eps=0.0,
                          base=batch.x[-1])
    with pytest.raises(GridMismatch):
        cameron_martin_fd(tanh_spec, grid_1000, batch.db, np.ones(5),
                          base=batch.x[-1])
    fields = propagate_derivative_batch(batch, tanh_spec, grid_1000)
    with pytest.raises(GridMismatch):
        inner_product(fields, np.ones(5))


def test_inner_product_rows_equal_one_path_batches(tanh_spec, grid_1000):
    # one np.dot per path: a pairing does not depend on the rest of the
    # batch
    batch = simulate_batch(tanh_spec, grid_1000, 6, seed=263)
    fields = propagate_derivative_batch(batch, tanh_spec, grid_1000)
    h = np.sin(np.linspace(0.0, 5.0, grid_1000.n_steps))
    ips = inner_product(fields, h)
    assert ips.shape == (6,)
    for i in range(6):
        alone = propagate_derivative_batch(
            simulate_batch(tanh_spec, grid_1000, 1, seed=263, path_offset=i),
            tanh_spec, grid_1000)
        assert inner_product(alone, h)[0] == ips[i]
