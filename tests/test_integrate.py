"""Path simulation: per-step maximum resolution, explicit driftless
solution, reproducible noise, Picard iteration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturbsde import (
    AlphaOutOfRange,
    Coefficient,
    ConfigError,
    GridMismatch,
    GridSpec,
    NonFinite,
    ProblemSpec,
    explicit_additive_path,
    generate_increments,
    kahan_cumsum,
    picard_solve,
    simulate_batch,
    simulate_increments,
    simulate_terminal,
    validate,
)
from perturbsde import integrate
from perturbsde.integrate import (_NOISE_PATHS, _NOISE_TILE, _generate_block,
                                  max_bookkeeping)
from conftest import (COEFFICIENT_CASES, make_driftless, make_tanh,
                      mixed_case)


# -- one step of the maximum resolution ---------------------------------------


def one_step(A, M, alpha):
    """Resolve ``x = A + alpha * max(M, x)`` through one driftless unit-noise
    step of the engine: ``x0 = (1 - alpha) M`` puts the running maximum at
    ``M``, and the increment ``A - x0`` brings the accumulator to ``A``.
    Returns ``(x, new)`` per column, plus the ``A`` and ``M`` the engine
    actually used."""
    A, M = np.atleast_1d(A).astype(float), np.atleast_1d(M).astype(float)
    x0 = (1.0 - alpha) * float(M[0])
    assert np.all(M == M[0])
    batch = simulate_increments(make_driftless(alpha, x0=x0),
                                GridSpec(n_steps=1, horizon=1.0),
                                (A - x0)[None, :])
    return (batch.x[1], batch.new_max[1], x0 + (A - x0), batch.x[0])


def test_resolve_step_hand_cases():
    # alpha = 0 removes the feedback entirely
    x, new, _, _ = one_step(1.0, 2.0, 0.0)
    assert (x[0], new[0]) == (1.0, False)
    # 2 + 0.5 * max(1, 4) = 4: new maximum
    x, new, _, _ = one_step(2.0, 1.0, 0.5)
    assert (x[0], new[0]) == (4.0, True)
    # 0.5 + 0.5 * max(2, 1.5) = 1.5: maximum unchanged
    x, new, _, _ = one_step(0.5, 2.0, 0.5)
    assert (x[0], new[0]) == (1.5, False)


def test_resolve_step_tie_keeps_old_maximum():
    # A + alpha * M == M exactly; both branches give M, flag stays False
    x, new, _, _ = one_step(1.0, 2.0, 0.5)
    assert x[0] == 2.0
    assert not new[0]


def test_resolve_step_negative_alpha():
    x, new, _, _ = one_step(2.0, 1.0, -1.0)
    # x = 2 - max(1, x); solution x = 2 - x => x = 1... check: 2 - 1 = 1,
    # boundary case: keep = 2 - 1 = 1 <= 1, so no new maximum
    assert x[0] == 1.0
    assert not new[0]
    x, new, _, _ = one_step(3.0, 1.0, -1.0)
    assert new[0]
    assert x[0] == pytest.approx(1.5)
    assert x[0] == pytest.approx(3.0 - 1.0 * max(1.0, x[0]))


def test_resolve_step_array_broadcast():
    # the columns of one block resolve independently
    x, new, _, _ = one_step(np.array([2.0, 0.5]), np.array([2.0, 2.0]), 0.5)
    np.testing.assert_array_equal(x, [4.0, 1.5])
    np.testing.assert_array_equal(new, [True, False])


def test_resolve_step_rejects_alpha_at_one():
    with pytest.raises(AlphaOutOfRange):
        one_step(1.0, 0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(A=st.floats(-100.0, 100.0), M=st.floats(-100.0, 100.0),
       alpha=st.floats(-5.0, 0.999))
def test_resolve_step_solves_the_fixed_point(A, M, alpha):
    x, new, A, M = one_step(A, M, alpha)
    x, new, A, M = float(x[0]), bool(new[0]), float(A[0]), float(M[0])
    residual = abs(x - (A + alpha * max(M, x)))
    scale = max(abs(x), abs(A), abs(alpha * M), abs(alpha * x), 1.0)
    assert residual <= 8.0 * math.ulp(scale)
    if new:
        assert x > M
    else:
        assert x <= M


# -- noise --------------------------------------------------------------------


def test_increments_are_reproducible_and_keyed():
    a = generate_increments(7, 3, 64, 0.25)
    b = generate_increments(7, 3, 64, 0.25)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, generate_increments(7, 4, 64, 0.25))
    assert not np.array_equal(a, generate_increments(8, 3, 64, 0.25))


def test_increment_variance_scales_with_dt():
    db = generate_increments(0, 0, 200_000, 0.01)
    assert np.std(db) == pytest.approx(0.1, rel=2e-2)
    assert np.mean(db) == pytest.approx(0.0, abs=2e-3)


def test_increment_block_columns_are_the_keyed_streams():
    # a path count that is not a multiple of the generator's path block,
    # at a nonzero offset
    n_paths, offset = 2 * _NOISE_PATHS + 37, 1001
    block = _generate_block(5, offset, n_paths, 24, 0.125)
    assert block.shape == (24, n_paths) and block.flags.c_contiguous
    for p in range(n_paths):
        np.testing.assert_array_equal(
            block[:, p], generate_increments(5, offset + p, 24, 0.125))


def _assert_keyed_columns(block, seed, offset, dt):
    """Every column of ``block`` is bitwise its keyed stream."""
    for p in range(block.shape[1]):
        want = generate_increments(seed, offset + p, block.shape[0], dt)
        np.testing.assert_array_equal(block[:, p].view(np.uint64),
                                      want.view(np.uint64))


@pytest.mark.parametrize("n_paths", [1, _NOISE_TILE - 1, _NOISE_TILE + 1,
                                     _NOISE_PATHS + 1])
def test_increment_block_partial_tiles_and_blocks(n_paths):
    block = _generate_block(11, 300, n_paths, 9, 0.5)
    assert block.shape == (9, n_paths)
    _assert_keyed_columns(block, 11, 300, 0.5)


def test_increment_block_at_the_top_of_the_key_range():
    n_paths = _NOISE_TILE + 3
    offset = 2**64 - n_paths          # the last column is path 2**64 - 1
    block = _generate_block(2**64 - 1, offset, n_paths, 7, 0.25)
    _assert_keyed_columns(block, 2**64 - 1, offset, 0.25)


def test_state_reset_leaves_nothing_of_the_previous_path():
    # three normals per path end mid-way through Philox's four-word
    # buffer, so a buffer or position carried over shifts the next path
    block = _generate_block(3, 0, 1000, 3, 1.0)
    _assert_keyed_columns(block, 3, 0, 1.0)
    # the state assignment the generator relies on also clears the spare
    # 32-bit word, which normal draws never leave behind
    key = np.array([3, 999], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    fresh = bitgen.state
    gen = np.random.Generator(bitgen)
    for _ in range(1000):
        gen.standard_normal(3)
        gen.integers(0, 7, dtype=np.uint32)
        bitgen.state = fresh
    ref = np.random.Generator(np.random.Philox(key=key))
    assert gen.integers(0, 2**32, 5, dtype=np.uint32).tolist() == \
        ref.integers(0, 2**32, 5, dtype=np.uint32).tolist()
    np.testing.assert_array_equal(gen.standard_normal(9),
                                  ref.standard_normal(9))


@pytest.mark.parametrize("offset, n_paths", [(-3, 4), (2**64 - 5, 10)])
def test_path_range_outside_the_key_domain(tanh_spec, offset, n_paths):
    grid = GridSpec(n_steps=8, horizon=1.0)
    with pytest.raises(ConfigError, match="path_index"):
        simulate_batch(tanh_spec, grid, n_paths, seed=5, path_offset=offset)
    with pytest.raises(ConfigError, match="path_index"):
        simulate_terminal(tanh_spec, grid, n_paths, seed=5,
                          path_offset=offset)


def test_last_path_index_is_drawn(tanh_spec):
    grid = GridSpec(n_steps=8, horizon=1.0)
    batch = simulate_batch(tanh_spec, grid, 1, seed=5, path_offset=2**64 - 1)
    _assert_keyed_columns(batch.db, 5, 2**64 - 1, grid.dt)


def test_seed_domain_validation():
    with pytest.raises(ConfigError):
        generate_increments(-1, 0, 8, 0.1)
    with pytest.raises(ConfigError):
        generate_increments(2**64, 0, 8, 0.1)
    with pytest.raises(ConfigError):
        generate_increments(1.5, 0, 8, 0.1)
    generate_increments(2**64 - 1, 0, 8, 0.1)


def test_noise_block_validation_and_identity(tanh_spec):
    grid = GridSpec(n_steps=16, horizon=1.0)
    batch = simulate_batch(tanh_spec, grid, 1, seed=5, path_offset=2)
    assert batch.n_steps == 16
    assert (batch.seed, batch.path_offset) == (5, 2)
    np.testing.assert_array_equal(batch.db[:, 0],
                                  generate_increments(5, 2, 16, grid.dt))
    synthetic = simulate_increments(tanh_spec, GridSpec(n_steps=4,
                                                        horizon=1.0),
                                    np.ones((4, 1)))
    assert synthetic.seed is None
    with pytest.raises(GridMismatch):
        simulate_increments(tanh_spec, grid, np.zeros((2, 2, 2)))


# -- explicit driftless solution ----------------------------------------------


def test_explicit_path_hand_case_positive_alpha():
    # discrete Brownian points B = (0, 1, 0.5)
    x = explicit_additive_path(0.0, 0.5, 1.0, np.array([1.0, -0.5]))
    np.testing.assert_allclose(x, [0.0, 2.0, 1.5], atol=1e-15)
    running_max, _, argmax = max_bookkeeping(x)
    np.testing.assert_allclose(running_max, [0.0, 2.0, 2.0], atol=1e-15)
    np.testing.assert_array_equal(argmax, [0, 1, 1])


def test_explicit_path_hand_case_negative_alpha():
    x = explicit_additive_path(0.0, -1.0, 1.0, np.array([1.0, -0.5]))
    np.testing.assert_allclose(x, [0.0, 0.5, 0.0], atol=1e-15)


def test_explicit_path_alpha_zero_is_brownian():
    db = np.array([0.3, -0.1, 0.7])
    x = explicit_additive_path(1.0, 0.0, 2.0, db)
    np.testing.assert_allclose(
        x, 1.0 + 2.0 * np.concatenate([[0.0], np.cumsum(db)]), atol=1e-15)


def test_explicit_path_handles_negative_sigma():
    grid = GridSpec(n_steps=200, horizon=1.0)
    spec = make_driftless(0.4, x0=0.2, sigma=-1.5)
    direct = simulate_batch(spec, grid, 1, seed=3)
    closed = explicit_additive_path(0.2, 0.4, -1.5, direct.db[:, 0])
    assert float(np.max(np.abs(direct.x[:, 0] - closed))) <= 1e-12


def test_explicit_path_rejects_alpha_at_one():
    with pytest.raises(ConfigError):
        explicit_additive_path(0.0, 1.0, 1.0, np.array([0.1]))


def test_explicit_path_columns_equal_one_dimensional_paths():
    db = np.stack([generate_increments(5, i, 300, 1.0 / 300)
                   for i in range(4)], axis=1)
    x = explicit_additive_path(0.3, 0.6, 1.2, db)
    assert x.shape == (301, 4)
    for i in range(4):
        np.testing.assert_array_equal(
            x[:, i], explicit_additive_path(0.3, 0.6, 1.2, db[:, i]))


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.3, 0.9])
def test_euler_matches_explicit_solution(alpha, driftless):
    grid = GridSpec(n_steps=1000, horizon=1.0)
    spec = driftless(alpha, x0=0.5)
    direct = simulate_batch(spec, grid, 5, seed=17)
    closed = explicit_additive_path(0.5, alpha, 1.0, direct.db)
    assert float(np.max(np.abs(direct.x - closed))) <= 1e-12
    np.testing.assert_array_equal(direct.argmax_idx(),
                                  max_bookkeeping(closed)[2])


def test_monotone_coupling_in_alpha():
    # x0 = 0, sigma = 1: x_k = Z_k + (a/(1-a)) S_k with S_k >= 0, and
    # a/(1-a) increases in a, so paths order pointwise by alpha
    grid = GridSpec(n_steps=300, horizon=1.0)
    alphas = [-1.0, -0.5, 0.0, 0.3, 0.6, 0.9]
    paths = [simulate_batch(make_driftless(a), grid, 1, seed=23).x
             for a in alphas]
    for lo, hi in zip(paths[:-1], paths[1:]):
        assert np.all(hi - lo >= -1e-12)


def test_initial_point_is_the_fixed_point():
    grid = GridSpec(n_steps=4, horizon=1.0)
    batch = simulate_batch(make_driftless(0.5, x0=3.0), grid, 1, seed=1)
    assert batch.x[0, 0] == 6.0  # solves X = 3 + 0.5 X


# -- alpha = 0 reduction ------------------------------------------------------


def test_alpha_zero_reduces_to_classical_euler_bitwise(grid_1000):
    spec = ProblemSpec(x0=0.3, alpha=0.0,
                       drift=Coefficient.sine(amplitude=0.5),
                       diffusion=Coefficient.sine(amplitude=0.2, offset=1.0),
                       horizon=1.0)
    batch = simulate_batch(spec, grid_1000, 1, seed=29)
    db = batch.db[:, 0]

    # independent classical reference: plain Euler-Maruyama with the same
    # compensated accumulation, no maximum machinery at all
    b, s = spec.drift, spec.diffusion
    dt = grid_1000.dt
    x = np.array([0.3])
    A = np.array([0.3])
    comp = np.array([0.0])
    ref = [0.3]
    for k in range(grid_1000.n_steps):
        incr = b(x, 0) * dt + s(x, 0) * db[k]
        y = incr - comp
        t = A + y
        comp = (t - A) - y
        A = t
        x = A.copy()
        ref.append(x[0])
    np.testing.assert_array_equal(batch.x[:, 0], np.array(ref))


# -- batching and determinism -------------------------------------------------


def test_batch_agrees_with_single_paths_bitwise(tanh_spec, grid_1000):
    batch = simulate_batch(tanh_spec, grid_1000, 8, seed=101)
    for i in (0, 3, 7):
        alone = simulate_batch(tanh_spec, grid_1000, 1, seed=101,
                               path_offset=i)
        np.testing.assert_array_equal(batch.x[:, i], alone.x[:, 0])
        np.testing.assert_array_equal(
            batch.db[:, i],
            generate_increments(101, i, grid_1000.n_steps, grid_1000.dt))
        np.testing.assert_array_equal(batch.argmax_idx()[:, i],
                                      alone.argmax_idx()[:, 0])


@pytest.mark.parametrize("case", sorted(COEFFICIENT_CASES))
def test_increment_block_columns_equal_single_paths_bitwise(case):
    spec, grid, db = mixed_case(case)
    batch = simulate_increments(spec, grid, db)
    term = simulate_increments(spec, grid, db, record=False)
    assert batch.seed is None and term.seed is None
    argmax = batch.argmax_idx()
    for i in range(db.shape[1]):
        alone = simulate_increments(spec, grid, db[:, i:i + 1])
        np.testing.assert_array_equal(batch.x[:, i], alone.x[:, 0])
        np.testing.assert_array_equal(batch.running_max[:, i],
                                      alone.running_max[:, 0])
        np.testing.assert_array_equal(argmax[:, i],
                                      alone.argmax_idx()[:, 0])
        assert term.x_final[i] == alone.x[-1, 0]
        assert term.running_max_final[i] == alone.running_max[-1, 0]
        assert term.argmax_idx_final[i] == alone.final_argmax_idx()[0]


def test_increment_block_shape_validation(tanh_spec, grid_1000):
    for bad in (np.zeros(1000), np.zeros((999, 2)), np.zeros((1000, 0))):
        with pytest.raises(GridMismatch):
            simulate_increments(tanh_spec, grid_1000, bad)


def test_max_bookkeeping_sources_agree():
    x = np.array([0.0, 1.0, 1.0, 0.5, 2.0, -1.0, 2.0, 3.0])
    M, new, argmax = max_bookkeeping(x)
    np.testing.assert_array_equal(M, [0, 1, 1, 1, 2, 2, 2, 3])
    np.testing.assert_array_equal(new, [0, 1, 0, 0, 1, 0, 0, 1])
    np.testing.assert_array_equal(argmax, [0, 1, 1, 1, 4, 4, 4, 7])
    assert max_bookkeeping(new=new)[0] is None
    np.testing.assert_array_equal(max_bookkeeping(new=new)[2], argmax)
    # time-major columns are handled independently
    xs = np.stack([x, -x, x[::-1]], axis=1)
    _, new2, argmax2 = max_bookkeeping(xs)
    for j in range(3):
        _, nj, aj = max_bookkeeping(xs[:, j])
        np.testing.assert_array_equal(new2[:, j], nj)
        np.testing.assert_array_equal(argmax2[:, j], aj)
    with pytest.raises(ConfigError):
        max_bookkeeping(x, new=new)
    with pytest.raises(ConfigError):
        max_bookkeeping()


def test_batch_offset_is_a_pure_relabeling(tanh_spec):
    grid = GridSpec(n_steps=128, horizon=1.0)
    whole = simulate_batch(tanh_spec, grid, 6, seed=7)
    tail = simulate_batch(tanh_spec, grid, 3, seed=7, path_offset=3)
    np.testing.assert_array_equal(whole.x[:, 3:], tail.x)


def test_terminal_sample_is_chunk_independent(tanh_spec, monkeypatch):
    grid = GridSpec(n_steps=64, horizon=1.0)
    b = simulate_terminal(tanh_spec, grid, 10, seed=13)
    monkeypatch.setattr(integrate, "_TERMINAL_CHUNK_PATHS", 3)
    a = simulate_terminal(tanh_spec, grid, 10, seed=13)
    np.testing.assert_array_equal(a.x_final, b.x_final)
    np.testing.assert_array_equal(a.running_max_final, b.running_max_final)
    np.testing.assert_array_equal(a.argmax_idx_final, b.argmax_idx_final)


def test_terminal_sample_matches_batch(tanh_spec):
    grid = GridSpec(n_steps=64, horizon=1.0)
    term = simulate_terminal(tanh_spec, grid, 12, seed=19)
    batch = simulate_batch(tanh_spec, grid, 12, seed=19)
    np.testing.assert_array_equal(term.x_final, batch.x[-1])
    np.testing.assert_array_equal(term.running_max_final,
                                  batch.running_max[-1])
    np.testing.assert_array_equal(term.argmax_idx_final,
                                  batch.final_argmax_idx())


def test_batch_path_count_validation(tanh_spec, grid_1000):
    with pytest.raises(ConfigError):
        simulate_batch(tanh_spec, grid_1000, 0, seed=1)


def test_noise_grid_mismatch_rejected(tanh_spec):
    with pytest.raises(GridMismatch):
        simulate_increments(tanh_spec, GridSpec(n_steps=16, horizon=1.0),
                            np.zeros((8, 1)))


# -- statistical sanity -------------------------------------------------------


def test_ornstein_uhlenbeck_terminal_moments():
    # alpha = 0, b(x) = -x, sigma = 1: X_1 ~ N(x0 e^{-1}, (1 - e^{-2})/2)
    spec = ProblemSpec(x0=1.0, alpha=0.0,
                       drift=Coefficient.ornstein_uhlenbeck(rate=1.0),
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    grid = GridSpec(n_steps=256, horizon=1.0)
    term = simulate_terminal(spec, grid, 4000, seed=37)
    assert np.mean(term.x_final) == pytest.approx(math.exp(-1.0), abs=0.05)
    assert np.var(term.x_final) == pytest.approx(
        (1.0 - math.exp(-2.0)) / 2.0, rel=0.1)


def test_divergent_drift_raises_non_finite():
    spec = ProblemSpec(x0=1.0, alpha=0.0,
                       drift=Coefficient.linear(slope=2000.0),
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    grid = GridSpec(n_steps=1000, horizon=1.0)
    with pytest.raises(NonFinite, match="non-finite") as exc_info:
        simulate_increments(spec, grid, generate_increments(
            0, 0, grid.n_steps, grid.dt)[:, None])
    assert exc_info.value.step is not None
    with pytest.raises(NonFinite) as exc_info:
        simulate_terminal(spec, grid, 3, seed=0, path_offset=10)
    assert exc_info.value.path_index is not None
    assert exc_info.value.path_index >= 10


@pytest.mark.parametrize("simulate", [simulate_batch, simulate_terminal])
def test_non_finite_report_names_the_offset_path(simulate):
    # every path diverges, so the first one reported is path_offset itself
    spec = ProblemSpec(x0=1.0, alpha=0.0,
                       drift=Coefficient.linear(slope=2000.0),
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    grid = GridSpec(n_steps=1000, horizon=1.0)
    with pytest.raises(NonFinite) as exc_info:
        simulate(spec, grid, 3, seed=0, path_offset=10)
    assert exc_info.value.path_index == 10
    assert "path 10" in str(exc_info.value)


# -- compensated summation ----------------------------------------------------


def test_kahan_cumsum_prefixes_match_exact_sums():
    rng = np.random.default_rng(2)
    inc = rng.standard_normal(1000) * 0.03
    out = kahan_cumsum(inc)
    assert out[0] == 0.0
    assert out.shape == (1001,)
    for k in (1, 10, 500, 1000):
        assert out[k] == pytest.approx(math.fsum(inc[:k]), abs=1e-13)


def test_kahan_cumsum_columns_equal_one_dimensional_sums():
    rng = np.random.default_rng(3)
    inc = rng.standard_normal((1000, 7)) * 0.03
    out = kahan_cumsum(inc)
    assert out.shape == (1001, 7)
    for j in range(7):
        np.testing.assert_array_equal(out[:, j], kahan_cumsum(inc[:, j]))


# -- Picard iteration ---------------------------------------------------------


def test_picard_first_iterate_solves_the_additive_case(driftless, grid_1000):
    spec = driftless(0.3, x0=0.5)
    db = simulate_batch(spec, grid_1000, 1, seed=41).db
    result = picard_solve(spec, grid_1000, db, n_iter=5, tol=0.0)
    # constant coefficients: one sweep lands on the solution, the next
    # sweep confirms it with a zero gap
    assert result.converged[0]
    assert result.n_iterations == 2
    assert result.sup_diffs[1, 0] == 0.0
    closed = explicit_additive_path(0.5, 0.3, 1.0, db)
    assert float(np.max(np.abs(result.paths.x - closed))) <= 1e-12


def test_picard_converges_to_the_per_step_scheme(grid_1000):
    spec = make_tanh(alpha=0.1)
    direct = simulate_batch(spec, grid_1000, 5, seed=43)
    result = picard_solve(spec, grid_1000, direct.db, n_iter=30, tol=1e-10)
    assert np.all(result.converged)
    for i in range(5):
        assert float(np.max(np.abs(result.paths.x[:, i]
                                   - direct.x[:, i]))) <= 1e-9
        # geometric-style contraction after the first sweep
        diffs = result.sup_diffs[:result.n_sweeps[i], i]
        assert np.all(np.diff(diffs[1:]) <= 1e-14)


def test_picard_reports_non_convergence_with_best_iterate(grid_1000):
    spec = make_tanh(alpha=0.1)
    db = simulate_batch(spec, grid_1000, 1, seed=47).db
    result = picard_solve(spec, grid_1000, db, n_iter=1, tol=1e-16)
    assert not result.converged[0]
    assert result.n_iterations == 1
    assert result.paths.x.shape == (1001, 1)


@pytest.mark.parametrize("case", sorted(COEFFICIENT_CASES))
def test_picard_columns_equal_single_column_solves(case):
    # each column freezes when it converges, so a block solve sweeps
    # every column exactly as a solve of that column alone does
    spec, grid, db = mixed_case(case)
    block = picard_solve(spec, grid, db, n_iter=30, tol=1e-9)
    assert isinstance(block.n_iterations, int)
    assert block.n_iterations == int(block.n_sweeps.sum())
    assert block.sup_diffs.shape == (block.n_sweeps.max(), db.shape[1])
    for i in range(db.shape[1]):
        alone = picard_solve(spec, grid, db[:, i:i + 1], n_iter=30,
                             tol=1e-9)
        k = alone.n_iterations
        assert block.n_sweeps[i] == k
        assert block.converged[i] == alone.converged[0]
        np.testing.assert_array_equal(block.paths.x[:, i], alone.paths.x[:, 0])
        np.testing.assert_array_equal(block.sup_diffs[:k, i],
                                      alone.sup_diffs[:, 0])
        assert np.all(np.isnan(block.sup_diffs[k:, i]))


def test_picard_non_finite_iterate_names_the_path():
    # the zero-noise column stays at 0; the driven one overflows
    spec = ProblemSpec(x0=0.0, alpha=0.0,
                       drift=Coefficient.linear(slope=1e12),
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    grid = GridSpec(n_steps=100, horizon=1.0)
    db = np.stack([np.zeros(100),
                   generate_increments(0, 0, 100, grid.dt)], axis=1)
    with pytest.raises(NonFinite) as exc_info, \
            np.errstate(over="ignore", invalid="ignore"):
        picard_solve(spec, grid, db, n_iter=30)
    assert exc_info.value.path_index == 1


def test_picard_input_validation(tanh_spec, grid_1000):
    db = simulate_batch(tanh_spec, grid_1000, 1, seed=0).db
    with pytest.raises(ConfigError):
        picard_solve(tanh_spec, grid_1000, db, n_iter=0)
    with pytest.raises(GridMismatch):
        picard_solve(tanh_spec, GridSpec(n_steps=10, horizon=1.0), db)
    with pytest.raises(GridMismatch):
        picard_solve(tanh_spec, grid_1000, db[:, 0])


def test_validated_spec_passes_straight_through(tanh_spec, grid_1000):
    vspec = validate(tanh_spec)
    a = simulate_batch(vspec, grid_1000, 1, seed=3)
    b = simulate_batch(tanh_spec, grid_1000, 1, seed=3)
    np.testing.assert_array_equal(a.x, b.x)
