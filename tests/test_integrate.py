"""Path simulation: per-step maximum resolution, explicit driftless
solution, reproducible noise, Picard iteration."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    picard_solve,
    propagate_derivative_batch,
    simulate_batch,
    simulate_increments,
    simulate_terminal,
)
from perturbsde import integrate, verify
from perturbsde.integrate import _NOISE_TILE
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


def _keyed_stream(seed, path_index, n_steps, dt):
    """The keyed contract built from numpy itself: the standard normals of
    Philox keyed by ``(seed, path_index)``, scaled by ``sqrt(dt)``.  The
    key is a uint64 array, as numpy reads a list holding an integer past
    2**63 as float64."""
    key = np.array([seed, path_index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal(n_steps) * math.sqrt(dt)


def test_increments_are_reproducible_and_keyed():
    a = generate_increments(7, 64, 0.25, path_offset=3)
    b = generate_increments(7, 64, 0.25, path_offset=3)
    assert a.shape == (64, 1)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a[:, 0], _keyed_stream(7, 3, 64, 0.25))
    assert not np.array_equal(a, generate_increments(7, 64, 0.25,
                                                     path_offset=4))
    assert not np.array_equal(a, generate_increments(8, 64, 0.25,
                                                     path_offset=3))


def test_old_positional_call_fails_loudly():
    # (seed, path_index, n_steps, dt) no longer binds: the block's path
    # range is keyword-only
    with pytest.raises(TypeError):
        generate_increments(7, 3, 64, 0.25)


def test_increment_variance_scales_with_dt():
    db = generate_increments(0, 200_000, 0.01)
    assert np.std(db) == pytest.approx(0.1, rel=2e-2)
    assert np.mean(db) == pytest.approx(0.0, abs=2e-3)


def _assert_keyed_columns(block, seed, offset, dt):
    """Every column of ``block`` is bitwise its keyed stream."""
    for p in range(block.shape[1]):
        want = _keyed_stream(seed, offset + p, block.shape[0], dt)
        np.testing.assert_array_equal(block[:, p].view(np.uint64),
                                      want.view(np.uint64))


def test_increment_block_columns_are_the_keyed_streams():
    # a path count that is not a multiple of the generator's staging tile,
    # at a nonzero offset
    n_paths, offset = 8 * _NOISE_TILE + 37, 1001
    block = generate_increments(5, 24, 0.125, n_paths=n_paths,
                                path_offset=offset)
    assert block.shape == (24, n_paths) and block.flags.c_contiguous
    _assert_keyed_columns(block, 5, offset, 0.125)


@pytest.mark.parametrize("n_paths", [1, _NOISE_TILE - 1, _NOISE_TILE + 1,
                                     8 * _NOISE_TILE + 1])
def test_increment_block_partial_tiles_and_blocks(n_paths):
    block = generate_increments(11, 9, 0.5, n_paths=n_paths, path_offset=300)
    assert block.shape == (9, n_paths)
    _assert_keyed_columns(block, 11, 300, 0.5)


def test_increment_block_at_the_top_of_the_key_range():
    n_paths = _NOISE_TILE + 3
    offset = 2**64 - n_paths          # the last column is path 2**64 - 1
    block = generate_increments(2**64 - 1, 7, 0.25, n_paths=n_paths,
                                path_offset=offset)
    _assert_keyed_columns(block, 2**64 - 1, offset, 0.25)


def test_state_reset_leaves_nothing_of_the_previous_path():
    # three normals per path end mid-way through Philox's four-word
    # buffer, so a buffer or position carried over shifts the next path
    block = generate_increments(3, 3, 1.0, n_paths=1000)
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


def _keyed_refusals(spec, seed, n_paths, path_offset):
    """The message of the ConfigError each keyed function raises on
    ``seed``, ``n_paths`` and ``path_offset``."""
    grid = GridSpec(n_steps=8, horizon=1.0)
    calls = (
        lambda: generate_increments(seed, grid.n_steps, grid.dt,
                                    n_paths=n_paths, path_offset=path_offset),
        lambda: simulate_batch(spec, grid, n_paths, seed, path_offset),
        lambda: simulate_terminal(spec, grid, n_paths, seed, path_offset))
    messages = []
    for call in calls:
        with pytest.raises(ConfigError) as exc_info:
            call()
        messages.append(str(exc_info.value))
    return messages


@pytest.mark.parametrize("offset, n_paths", [(-3, 4), (2**64 - 5, 10)])
def test_path_range_outside_the_key_domain(tanh_spec, offset, n_paths):
    assert _keyed_refusals(tanh_spec, 5, n_paths, offset) == \
        3 * ["path_index must be an unsigned 64-bit integer"]


def test_last_path_index_is_drawn(tanh_spec):
    grid = GridSpec(n_steps=8, horizon=1.0)
    batch = simulate_batch(tanh_spec, grid, 1, seed=5, path_offset=2**64 - 1)
    _assert_keyed_columns(batch.db, 5, 2**64 - 1, grid.dt)


def test_seed_domain_validation(tanh_spec):
    for seed in (-1, 2**64, 1.5):
        assert _keyed_refusals(tanh_spec, seed, 4, 0) == \
            3 * ["seed must be an unsigned 64-bit integer"]
    generate_increments(2**64 - 1, 8, 0.1)


def test_noise_block_validation_and_identity(tanh_spec):
    grid = GridSpec(n_steps=16, horizon=1.0)
    batch = simulate_batch(tanh_spec, grid, 1, seed=5, path_offset=2)
    assert batch.n_steps == 16
    assert (batch.seed, batch.path_offset) == (5, 2)
    np.testing.assert_array_equal(batch.db[:, 0],
                                  _keyed_stream(5, 2, 16, grid.dt))
    synthetic = simulate_increments(tanh_spec, GridSpec(n_steps=4,
                                                        horizon=1.0),
                                    np.ones((4, 1)))
    assert synthetic.seed is None
    # a batch without increments must be keyed, to redraw them
    with pytest.raises(TypeError, match="seed and dt"):
        integrate.PathBatch(x=batch.x, new_max=batch.new_max, seed=5)
    with pytest.raises(GridMismatch):
        simulate_increments(tanh_spec, grid, np.zeros((2, 2, 2)))


# -- explicit driftless solution ----------------------------------------------


def test_explicit_path_hand_case_positive_alpha():
    # discrete Brownian points B = (0, 1, 0.5)
    x = explicit_additive_path(0.0, 0.5, 1.0, np.array([1.0, -0.5]))
    np.testing.assert_allclose(x, [0.0, 2.0, 1.5], atol=1e-15)
    # steps 1..n: a new maximum strictly above every earlier value
    np.testing.assert_array_equal(
        x[1:] > np.maximum.accumulate(x, axis=0)[:-1], [True, False])


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
    db = generate_increments(5, 300, 1.0 / 300, n_paths=4)
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
    assert not direct.new_max[0].any()
    np.testing.assert_array_equal(
        direct.new_max[1:],
        closed[1:] > np.maximum.accumulate(closed, axis=0)[:-1])


def test_additive_identity_holds_on_a_long_grid_away_from_zero():
    # 10^5 steps from x0 = 10: the increments are summed from zero on both
    # sides and x0 is added after, so the identity keeps the suite's
    # tolerance (an accumulator started at x0 drifts to about 3e-12 here)
    grid = GridSpec(n_steps=100_000, horizon=1.0)
    direct = simulate_batch(make_driftless(0.9, x0=10.0), grid, 16, seed=43)
    closed = explicit_additive_path(10.0, 0.9, 1.0, direct.db)
    assert float(np.max(np.abs(direct.x - closed))) <= verify.ADDITIVE_TOL


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


def test_alpha_zero_is_classical_euler_on_increments_summed_from_zero(
        grid_1000):
    spec = ProblemSpec(x0=0.3, alpha=0.0,
                       drift=Coefficient.sine(amplitude=0.5),
                       diffusion=Coefficient.sine(amplitude=0.2, offset=1.0),
                       horizon=1.0)
    batch = simulate_batch(spec, grid_1000, 1, seed=29)
    db = batch.db[:, 0]

    # independent classical reference: plain Euler-Maruyama whose
    # increments are summed from zero and then added to x0, no maximum
    # machinery at all
    b, s = spec.drift, spec.diffusion
    dt = grid_1000.dt
    x = np.array([0.3])
    Z = np.array([0.0])
    ref = [0.3]
    for k in range(grid_1000.n_steps):
        incr = b(x, 0) * dt + s(x, 0) * db[k]
        Z += incr
        x = 0.3 + Z
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
            generate_increments(101, grid_1000.n_steps, grid_1000.dt,
                                path_offset=i)[:, 0])
        np.testing.assert_array_equal(batch.new_max[:, i],
                                      alone.new_max[:, 0])


@pytest.mark.parametrize("case", sorted(COEFFICIENT_CASES))
def test_increment_block_columns_equal_single_paths_bitwise(case):
    spec, grid, db = mixed_case(case)
    batch = simulate_increments(spec, grid, db)
    term = simulate_increments(spec, grid, db, record=False)
    assert batch.seed is None
    assert term.shape == (db.shape[1],)
    for i in range(db.shape[1]):
        alone = simulate_increments(spec, grid, db[:, i:i + 1])
        np.testing.assert_array_equal(batch.x[:, i], alone.x[:, 0])
        np.testing.assert_array_equal(batch.running_max[:, i],
                                      alone.running_max[:, 0])
        np.testing.assert_array_equal(batch.new_max[:, i],
                                      alone.new_max[:, 0])
        assert term[i] == alone.x[-1, 0]


def test_increment_block_shape_validation(tanh_spec, grid_1000):
    for bad in (np.zeros(1000), np.zeros((999, 2)), np.zeros((1000, 0))):
        with pytest.raises(GridMismatch):
            simulate_increments(tanh_spec, grid_1000, bad)


def test_engine_flags_strict_new_maxima_of_an_exact_path():
    # the engine builds this path exactly from its (exactly summable)
    # increments, and flags only the steps strictly above every earlier
    # value: the ties at steps 2 and 6 set none
    x = np.array([0.0, 1.0, 1.0, 0.5, 2.0, -1.0, 2.0, 3.0])
    engine = simulate_increments(make_driftless(0.0), GridSpec(7, 1.0),
                                 np.diff(x)[:, None])
    np.testing.assert_array_equal(engine.x[:, 0], x)
    np.testing.assert_array_equal(engine.new_max[:, 0],
                                  [0, 1, 0, 0, 1, 0, 0, 1])


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
    np.testing.assert_array_equal(a, b)


def test_terminal_sample_matches_batch(tanh_spec):
    grid = GridSpec(n_steps=64, horizon=1.0)
    term = simulate_terminal(tanh_spec, grid, 12, seed=19)
    batch = simulate_batch(tanh_spec, grid, 12, seed=19)
    np.testing.assert_array_equal(term, batch.x[-1])


# -- simulate_terminal's time windows ------------------------------------------


def _small_windows(monkeypatch):
    """3-step windows and 4-path chunks, neither dividing a run of 10
    steps and 11 paths, drawn in staging tiles of 3 paths, which do not
    divide a chunk."""
    monkeypatch.setattr(integrate, "_TERMINAL_WINDOW_STEPS", 3)
    monkeypatch.setattr(integrate, "_TERMINAL_CHUNK_PATHS", 4)
    monkeypatch.setattr(integrate, "_NOISE_TILE", 3)


@pytest.mark.parametrize("case", sorted(COEFFICIENT_CASES))
def test_terminal_windows_equal_the_whole_block_bitwise(case, monkeypatch):
    drift, diffusion = COEFFICIENT_CASES[case]
    spec = ProblemSpec(x0=0.2, alpha=0.3, drift=drift, diffusion=diffusion,
                       horizon=1.0)
    grid = GridSpec(n_steps=10, horizon=1.0)
    whole = simulate_increments(
        spec, grid, generate_increments(71, 10, grid.dt, n_paths=11,
                                        path_offset=1001),
        record=False)
    _small_windows(monkeypatch)
    term = simulate_terminal(spec, grid, 11, seed=71, path_offset=1001)
    np.testing.assert_array_equal(term.view(np.uint64),
                                  whole.view(np.uint64))


def test_terminal_memory_does_not_grow_with_the_step_count(tanh_spec,
                                                           monkeypatch):
    # 32-step windows of 1000 paths hold 256 kB of increments; a whole
    # block would hold 512 kB at 64 steps and 8 MB at 1024
    monkeypatch.setattr(integrate, "_TERMINAL_WINDOW_STEPS", 32)
    simulate_terminal(tanh_spec, GridSpec(n_steps=64, horizon=1.0), 8,
                      seed=3)
    peaks = []
    for n_steps in (64, 1024):
        tracemalloc.start()
        try:
            simulate_terminal(tanh_spec, GridSpec(n_steps, 1.0), 1000,
                              seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.5 * 2**20


def test_non_finite_in_a_later_window_names_the_path(monkeypatch):
    # a linear drift table on [-10.5, 10.5] grows each path by 1.4 a step;
    # a path that leaves the table evaluates NaN from then on
    nodes = np.linspace(-10.5, 10.5, 8)
    spec = ProblemSpec(x0=0.0, alpha=0.0,
                       drift=Coefficient.tabulated(nodes, 4.0 * nodes),
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    grid = GridSpec(n_steps=10, horizon=1.0)
    db = generate_increments(2, 10, grid.dt, n_paths=11, path_offset=1001)
    failed = {}
    for p in range(11):
        try:
            simulate_increments(spec, grid, db[:, p:p + 1])
        except NonFinite as exc:
            failed[p] = exc.step
    first = min(failed)
    # it runs in the second 4-path chunk, and its state turns non-finite
    # in step 9, which only the last window holds
    assert first >= 4 and failed[first] == 10
    _small_windows(monkeypatch)
    with pytest.raises(NonFinite) as exc_info:
        simulate_terminal(spec, grid, 11, seed=2, path_offset=1001)
    assert exc_info.value.path_index == 1001 + first
    assert f"path {1001 + first}" in str(exc_info.value)


# -- stored arrays: the running maximum is derived ------------------------------


# drift and diffusion families for the derived-maximum property
_PROPERTY_COEFFICIENTS = {
    "const": lambda a: (Coefficient.const(a), Coefficient.const(1.0 + a)),
    "tanh": lambda a: (Coefficient.tanh(amplitude=a, scale=2.0),
                       Coefficient.const(1.0)),
    "sine": lambda a: (Coefficient.sine(amplitude=a),
                       Coefficient.sine(amplitude=0.5 * a, offset=1.0)),
    "linear": lambda a: (Coefficient.linear(slope=a, intercept=0.1),
                         Coefficient.linear(slope=0.5 * a, intercept=1.0)),
}


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(sorted(_PROPERTY_COEFFICIENTS)),
       a=st.sampled_from([-1.0, -0.25, 0.0, 0.5, 1.0]),
       alpha=st.floats(-3.0, 0.999),
       x0=st.sampled_from([-0.5, 0.0, 0.25]),
       n_steps=st.integers(1, 40), n_paths=st.integers(1, 5),
       quantum=st.sampled_from([0.0, 0.125, 0.25, 1.0]), data=st.data())
def test_running_max_is_derived_from_the_values(case, a, alpha, x0, n_steps,
                                                n_paths, quantum, data):
    # quantized increments, many of them zero, put the state on its
    # running maximum over and over: the tie-heavy blocks where a stored
    # and a derived maximum could part
    steps = data.draw(st.lists(st.integers(-2, 2), min_size=n_steps * n_paths,
                               max_size=n_steps * n_paths))
    db = quantum * np.array(steps, float).reshape(n_steps, n_paths)
    drift, diffusion = _PROPERTY_COEFFICIENTS[case](a)
    spec = ProblemSpec(x0=x0, alpha=alpha, drift=drift, diffusion=diffusion,
                       horizon=1.0)
    grid = GridSpec(n_steps=n_steps, horizon=1.0)
    batch = simulate_increments(spec, grid, db)
    term = simulate_increments(spec, grid, db, record=False)
    running_max = batch.running_max
    np.testing.assert_array_equal(running_max,
                                  np.maximum.accumulate(batch.x, axis=0))
    np.testing.assert_array_equal(batch.x[-1].view(np.uint64),
                                  term.view(np.uint64))
    for i in range(n_paths):
        alone = simulate_increments(spec, grid, db[:, i:i + 1])
        np.testing.assert_array_equal(batch.x[:, i].view(np.uint64),
                                      alone.x[:, 0].view(np.uint64))
        np.testing.assert_array_equal(running_max[:, i].view(np.uint64),
                                      alone.running_max[:, 0].view(np.uint64))
        np.testing.assert_array_equal(batch.new_max[:, i],
                                      alone.new_max[:, 0])


def test_recorded_batch_holds_no_second_float_array(tanh_spec):
    # the batch's own arrays: the increment block, the values and the
    # bool flags; a stored running maximum would add 8 (n+1) P bytes more
    # than the stated slack of half that
    n, P = 500, 2000
    grid = GridSpec(n_steps=n, horizon=1.0)
    simulate_batch(tanh_spec, grid, 4, seed=281)
    tracemalloc.start()
    try:
        batch = simulate_batch(tanh_spec, grid, P, seed=281)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = batch.db.nbytes + batch.x.nbytes + batch.new_max.nbytes
    assert held == 8 * n * P + 9 * (n + 1) * P
    assert peak < held + 4 * (n + 1) * P


def test_final_argmax_reads_the_flags_without_an_index_array(tanh_spec):
    n, P = 500, 2000
    grid = GridSpec(n_steps=n, horizon=1.0)
    batch = simulate_batch(tanh_spec, grid, P, seed=283)
    # columns that never set a new maximum report step 0; clear three
    new_max = batch.new_max.copy()
    new_max[:, :3] = False
    batch = integrate.PathBatch(x=batch.x, new_max=new_max, db=batch.db)
    tracemalloc.start()
    try:
        final = batch.final_argmax_idx()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (n + 1) * P
    steps = np.arange(n + 1)[:, None]
    np.testing.assert_array_equal(final,
                                  np.where(new_max, steps, 0).max(axis=0))
    np.testing.assert_array_equal(final == 0, ~new_max.any(axis=0))
    assert final.dtype == np.int64 and np.all(final[:3] == 0)


def test_keyed_batch_holds_its_values_and_flags_only(tanh_spec,
                                                     monkeypatch):
    # the keyed block is drawn into the value array and integrated there:
    # the batch holds no increment block.  Drawing it holds the staging
    # tile of _NOISE_TILE paths, scaled in place and copied into the
    # window with no ufunc buffer; the step loop then holds seven (P,)
    # vectors: M, lo, Z, A, the increment, and b(x) and b(x) dt of the
    # tanh drift
    n, P = 500, 2000
    grid = GridSpec(n_steps=n, horizon=1.0)
    simulate_batch(tanh_spec, grid, 4, seed=281)
    windows, draw_peaks = integrate._KeyedNoise.windows, []

    def draw_then_reset_peak(self, *args):
        (block,) = windows(self, *args)
        draw_peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        yield block

    monkeypatch.setattr(integrate._KeyedNoise, "windows",
                        draw_then_reset_peak)
    tracemalloc.start()
    try:
        batch = simulate_batch(tanh_spec, grid, P, seed=281)
        held, step_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    values = 9 * (n + 1) * P
    assert batch.x.nbytes + batch.new_max.nbytes == values
    assert values <= held < values + 2**12
    assert draw_peaks[0] < values + 8 * n * _NOISE_TILE + 2**13
    step_vectors = 7 * 8 * P
    assert step_peak < values + step_vectors + 2**12


def test_terminal_run_holds_one_window_of_a_2048_path_chunk(tanh_spec):
    # 4096 paths x 1024 steps run as two 2048-path chunks over two
    # 512-step windows.  Held at once: the window, 512 x 2048 x 8 B = 8 MiB;
    # the staging tile, 64 x 512 x 8 B = 256 KiB; one Philox generator per
    # path of a chunk, under 800 B each (1600 KiB); at most ten (P,) float
    # vectors of the step loop (160 KiB); the 4096 terminal values
    # (32 KiB).  That is 10 MiB.
    grid = GridSpec(n_steps=1024, horizon=1.0)
    simulate_terminal(tanh_spec, GridSpec(n_steps=8, horizon=1.0), 8,
                      seed=3)
    tracemalloc.start()
    try:
        simulate_terminal(tanh_spec, grid, 4096, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10.5 * 2**20


# Structurally constant coefficients next to array ones that evaluate to
# the same value exactly: 0.0 * sin(.) is +-0.0, which c + leaves at c for
# c = 0.5, 1.0 and 0.0, and with frequency 0 the sine's argument is +0.0,
# so -0.0 + -0.0 * sin(+0.0) is -0.0 everywhere.
_CONSTANT_PAIRS = {
    "1.0": (Coefficient.const(1.0), Coefficient.sine(amplitude=0.0,
                                                     offset=1.0)),
    "0.5": (Coefficient.const(0.5), Coefficient.sine(amplitude=0.0,
                                                     offset=0.5)),
    "0.0": (Coefficient.const(0.0), Coefficient.sine(amplitude=0.0,
                                                     offset=0.0)),
    "-0.0": (Coefficient.const(-0.0), Coefficient.sine(
        amplitude=-0.0, offset=-0.0, frequency=0.0)),
}


def _bits(a):
    return np.asarray(a).view(np.uint64)


# time-major blocks of 1-6 steps and 1-4 paths, full of signed zeros
_SIGNED_ZERO_BLOCKS = st.integers(1, 4).flatmap(lambda n_paths: st.lists(
    st.lists(st.sampled_from([0.0, -0.0, 0.25, -0.5, 1.0]),
             min_size=n_paths, max_size=n_paths), min_size=1, max_size=6))


@settings(max_examples=150, deadline=None)
@given(diffusion=st.sampled_from(["1.0", "0.5"]),
       drift=st.sampled_from(["0.0", "-0.0", "0.5"]),
       x0=st.sampled_from([0.0, -0.0, 0.2]),
       alpha=st.sampled_from([0.0, 0.3, -0.5]), block=_SIGNED_ZERO_BLOCKS)
@example(diffusion="1.0", drift="0.0", x0=-0.0, alpha=0.3, block=[[-0.0]])
def test_skipped_identity_passes_change_no_bit(diffusion, drift, x0, alpha,
                                               block):
    # a unit diffusion skips its multiply and a zero drift its add; the
    # same problem with array coefficients runs both passes, bitwise alike,
    # also from x0 = -0.0, where adding +0.0 is not an identity
    db = np.array(block)
    n_steps, n_paths = db.shape
    (s, s_ref), (b, b_ref) = _CONSTANT_PAIRS[diffusion], _CONSTANT_PAIRS[drift]
    spec, ref = (ProblemSpec(x0=x0, alpha=alpha, drift=d, diffusion=sg,
                             horizon=1.0) for d, sg in ((b, s), (b_ref, s_ref)))
    assert ref.drift.constant_value is None
    assert ref.diffusion.constant_value is None
    grid = GridSpec(n_steps=n_steps, horizon=1.0)
    got, want = (simulate_increments(p, grid, db) for p in (spec, ref))
    np.testing.assert_array_equal(_bits(got.x), _bits(want.x))
    np.testing.assert_array_equal(got.new_max, want.new_max)
    got, want = (simulate_increments(p, grid, db, record=False)
                 for p in (spec, ref))
    np.testing.assert_array_equal(_bits(got), _bits(want))
    got, want = (simulate_terminal(p, grid, n_paths, seed=n_steps)
                 for p in (spec, ref))
    np.testing.assert_array_equal(_bits(got), _bits(want))


def _keyed_property_spec(n_steps: int, overflow: bool) -> ProblemSpec:
    """A sine-diffusion problem.  With ``overflow`` its drift overflows
    the state of most paths in step 3 and of the rest in step 4, so the
    first non-finite state need not be on the first path."""
    drift = (Coefficient.linear(slope=2.4e154 * n_steps) if overflow
             else Coefficient.tanh(amplitude=0.5, scale=1.0))
    return ProblemSpec(x0=0.0, alpha=0.3, drift=drift,
                       diffusion=Coefficient.sine(amplitude=0.2, offset=1.0),
                       horizon=1.0)


@settings(max_examples=40, deadline=None)
@given(n_paths=st.one_of(st.integers(1, 2 * _NOISE_TILE + 1),
                         st.integers(8 * _NOISE_TILE - 2, 8 * _NOISE_TILE + 2)),
       n_steps=st.integers(4, 8), seed=st.integers(0, 2**64 - 1),
       below_top=st.integers(0, 3), overflow=st.booleans())
def test_keyed_batch_is_its_block_integrated(n_paths, n_steps, seed,
                                             below_top, overflow):
    # simulate_batch integrates its block in place, bitwise as
    # simulate_increments runs the stored block, and its db redraws that
    # block; path counts straddle one and eight staging tiles, and the
    # last path is at most 3 below the top of the key range
    grid = GridSpec(n_steps=n_steps, horizon=1.0)
    offset = 2**64 - n_paths - below_top
    block = generate_increments(seed, n_steps, grid.dt, n_paths=n_paths,
                                path_offset=offset)
    spec = _keyed_property_spec(n_steps, overflow)
    if overflow:
        with pytest.raises(NonFinite) as want:
            simulate_increments(spec, grid, block, path_offset=offset)
        with pytest.raises(NonFinite) as got:
            simulate_batch(spec, grid, n_paths, seed, offset)
        assert (got.value.step, got.value.path_index, str(got.value)) \
            == (want.value.step, want.value.path_index, str(want.value))
        return
    want = simulate_increments(spec, grid, block)
    batch = simulate_batch(spec, grid, n_paths, seed, offset)
    np.testing.assert_array_equal(batch.x.view(np.uint64),
                                  want.x.view(np.uint64))
    np.testing.assert_array_equal(batch.new_max, want.new_max)
    x = batch.x.copy()
    db = batch.db
    np.testing.assert_array_equal(db.view(np.uint64), block.view(np.uint64))
    assert batch.db is db
    np.testing.assert_array_equal(batch.x.view(np.uint64), x.view(np.uint64))


def test_batches_and_picard_results_compare_and_hash_by_identity(tanh_spec):
    grid = GridSpec(n_steps=20, horizon=1.0)

    def build():
        batch = simulate_batch(tanh_spec, grid, 3, seed=7)
        return (batch, propagate_derivative_batch(batch, tanh_spec, grid),
                picard_solve(tanh_spec, grid, batch.db))

    for a, b in zip(build(), build()):
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert {a: 1, b: 2}[b] == 2


def test_batch_path_count_validation(tanh_spec, grid_1000):
    with pytest.raises(ConfigError):
        simulate_batch(tanh_spec, grid_1000, 0, seed=1)
    for n_paths in (0, -1):
        assert _keyed_refusals(tanh_spec, 1, n_paths, 0) == \
            3 * ["n_paths must be >= 1"]


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
    assert np.mean(term) == pytest.approx(math.exp(-1.0), abs=0.05)
    assert np.var(term) == pytest.approx(
        (1.0 - math.exp(-2.0)) / 2.0, rel=0.1)


def test_divergent_drift_raises_non_finite():
    spec = ProblemSpec(x0=1.0, alpha=0.0,
                       drift=Coefficient.linear(slope=2000.0),
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    grid = GridSpec(n_steps=1000, horizon=1.0)
    with pytest.raises(NonFinite, match="non-finite") as exc_info:
        simulate_increments(spec, grid, generate_increments(
            0, grid.n_steps, grid.dt))
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


def test_overflow_that_comes_back_fails_recorded_and_terminal_runs():
    # alpha = -1 puts -M into every state: in step 3, -M + A overflows to
    # -inf with M and A finite, and step 4's increment brings it back, so
    # the terminal value would be finite, yet both runs fail on it
    spec = ProblemSpec(x0=0.0, alpha=-1.0, drift=Coefficient.const(0.0),
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    grid = GridSpec(n_steps=4, horizon=1.0)
    db = np.array([[1.2], [-1.0], [-1.5], [0.5]]) * 1e308
    with pytest.raises(NonFinite) as exc_info:
        simulate_increments(spec, grid, db, record=False)
    assert exc_info.value.path_index == 0
    with pytest.raises(NonFinite) as exc_info:
        simulate_increments(spec, grid, db)
    assert (exc_info.value.step, exc_info.value.path_index) == (3, 0)


@st.composite
def _overflow_blocks(draw):
    """Time-major blocks of 2-8 steps and 1-6 columns of small increments,
    with +-1e308-scale ones injected at random cells."""
    n_steps, n_paths = draw(st.integers(2, 8)), draw(st.integers(1, 6))
    cells = n_steps * n_paths
    block = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                          min_size=cells, max_size=cells))
    for i, scale in draw(st.lists(st.tuples(st.integers(0, cells - 1),
                                            st.floats(-1.7, 1.7)),
                                  max_size=cells)):
        block[i] = scale * 1e308
    return np.reshape(block, (n_steps, n_paths)).tolist()


def _raises_non_finite(run):
    """The :class:`NonFinite` error ``run()`` raises, or None."""
    try:
        run()
    except NonFinite as exc:
        return exc
    return None


@settings(max_examples=150, deadline=None)
@given(alpha=st.sampled_from([-1.0, -0.5, 0.0, 0.5, 0.9]),
       drift=st.sampled_from([0.0, 0.5]),
       diffusion=st.sampled_from([1.0, 2.0]), block=_overflow_blocks())
@example(alpha=-1.0, drift=0.0, diffusion=1.0,
         block=[[1.2e308], [-1.0e308], [-1.5e308], [0.5e308]])
def test_terminal_runs_fail_exactly_when_recorded_runs_do(alpha, drift,
                                                          diffusion, block):
    # a terminal run keeps no states, yet it fails on the same blocks as a
    # recorded one, naming the lowest column that fails on its own
    spec = ProblemSpec(x0=0.0, alpha=alpha, drift=Coefficient.const(drift),
                       diffusion=Coefficient.const(diffusion), horizon=1.0)
    db = np.array(block)
    grid = GridSpec(n_steps=db.shape[0], horizon=1.0)
    failing = [p for p in range(db.shape[1]) if _raises_non_finite(
        lambda: simulate_increments(spec, grid, db[:, p:p + 1]))]
    recorded = _raises_non_finite(lambda: simulate_increments(spec, grid, db))
    terminal = _raises_non_finite(
        lambda: simulate_increments(spec, grid, db, record=False))
    assert (recorded is None) == (terminal is None) == (not failing)
    if failing:
        assert terminal.path_index == failing[0]
        assert recorded.path_index in failing


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
    assert float(np.max(np.abs(result.x - closed))) <= 1e-12


def test_picard_converges_to_the_per_step_scheme(grid_1000):
    spec = make_tanh(alpha=0.1)
    direct = simulate_batch(spec, grid_1000, 5, seed=43)
    result = picard_solve(spec, grid_1000, direct.db, n_iter=30, tol=1e-10)
    assert np.all(result.converged)
    for i in range(5):
        assert float(np.max(np.abs(result.x[:, i]
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
    assert result.x.shape == (1001, 1)


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
        np.testing.assert_array_equal(block.x[:, i], alone.x[:, 0])
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
                   generate_increments(0, 100, grid.dt)[:, 0]], axis=1)
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
