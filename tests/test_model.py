"""Coefficient catalog, problem validation, and grid construction."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perturbsde import (
    AlphaOutOfRange,
    Coefficient,
    ConfigError,
    EffectiveBounds,
    GridSpec,
    ProblemSpec,
    UnknownPreset,
    UnsupportedOrder,
    build_transform,
    simulate_batch,
    transformed_spec,
)
from perturbsde.io import problem_from_json
from perturbsde.model import (
    VALIDATION_GRID_SIZE,
    _cubic,
    _not_a_knot_slopes,
    hermite,
    hermite_sup,
    validation_grid,
)
from conftest import make_driftless

CATALOG_SAMPLES = [
    Coefficient.const(2.0),
    Coefficient.linear(slope=0.7, intercept=-0.3),
    Coefficient.sine(amplitude=1.5, offset=0.2, frequency=2.0, phase=0.4),
    Coefficient.tanh(amplitude=0.8, scale=1.3),
    Coefficient.ornstein_uhlenbeck(rate=1.2, mean=0.5),
]


def _random_table() -> Coefficient:
    """A tabulated coefficient through random values at uneven nodes
    covering [-5.8, 3.8]."""
    rng = np.random.default_rng(15)
    nodes = np.cumsum(rng.uniform(0.1, 0.2, 64)) - 6.0
    return Coefficient.tabulated(nodes, rng.standard_normal(64))


def _transform_json_drift() -> tuple[Coefficient, np.ndarray]:
    """The tabulated drift that ``transform`` writes for the shipped
    ``configs/transform.json``, and the validation grid it is checked on."""
    path = Path(__file__).resolve().parent.parent / "configs" / "transform.json"
    config = json.loads(path.read_text())
    problem = problem_from_json(config["problem"])
    table = build_transform(problem, n_nodes=config["transform"]["n_nodes"])
    yspec = transformed_spec(table)
    return yspec.drift, validation_grid(yspec.x0, yspec.horizon,
                                        yspec.diffusion)


# Every kind of coefficient the package builds, each with the points its
# first derivative is checked at.
_FD_CASES = [(c, np.linspace(-3.0, 3.0, 401))
             for c in CATALOG_SAMPLES + [_random_table()]]
_FD_CASES.append(_transform_json_drift())


@pytest.mark.parametrize("coefficient,xs", _FD_CASES,
                         ids=[c.preset_id for c in CATALOG_SAMPLES]
                         + ["random-table", "transform-json-drift"])
def test_catalog_derivatives_match_finite_differences(coefficient, xs):
    h = 1e-4
    exact = coefficient(xs, 1)
    fd = (coefficient(xs + h, 0) - coefficient(xs - h, 0)) / (2.0 * h)
    scale = max(1.0, float(np.max(np.abs(exact))))
    assert float(np.max(np.abs(fd - exact))) <= 1e-6 * scale


def test_eval_coefficient_spot_values():
    assert Coefficient.const(2.0)(5.0) == 2.0
    assert Coefficient.const(2.0)(5.0, order=1) == 0.0
    assert Coefficient.sine()(0.0, order=1) == 1.0
    lin = Coefficient.linear(slope=2.0, intercept=1.0)
    assert lin(3.0) == 7.0
    ou = Coefficient.ornstein_uhlenbeck(rate=2.0, mean=1.0)
    assert ou(0.0) == 2.0
    assert ou(4.0, order=1) == -2.0


@pytest.mark.parametrize("coefficient,expected", [
    (Coefficient.const(2.5), 2.5),
    (Coefficient.linear(slope=0.0, intercept=-1.5), -1.5),
    (Coefficient.linear(slope=0.3, intercept=-1.5), None),
    (Coefficient.sine(amplitude=0.0, offset=2.0), None),
    (Coefficient.tanh(amplitude=0.0), None),
    (Coefficient.ornstein_uhlenbeck(rate=0.0), None),
    (Coefficient.tabulated(np.linspace(0.0, 1.0, 5), np.full(5, 3.0)), None),
], ids=["const", "linear-flat", "linear-sloped", "sine", "tanh",
        "ornstein_uhlenbeck", "tabulated"])
def test_constant_value(coefficient, expected):
    # only const and zero-slope linear are constant by structure; presets
    # that happen to be constant for their parameters are not reported
    value = coefficient.constant_value
    assert value == expected
    if expected is not None:
        assert type(value) is float
    # the step loops' evaluator is that float, not an array of it
    out = coefficient.evaluator(0)(np.linspace(0.0, 1.0, 3))
    assert (type(out) is float) == (expected is not None)


@pytest.mark.parametrize("coefficient,slope", [
    (Coefficient.const(2.5), 0.0),
    (Coefficient.linear(slope=0.3, intercept=-1.5), 0.3),
    (Coefficient.ornstein_uhlenbeck(rate=1.2), -1.2),
    (Coefficient.sine(amplitude=0.0), None),
    (Coefficient.tanh(), None),
], ids=["const", "linear", "ornstein_uhlenbeck", "sine", "tanh"])
def test_constant_slope_evaluates_to_a_float(coefficient, slope):
    xs = np.linspace(-1.0, 1.0, 5)
    out = coefficient.evaluator(1)(xs)
    if slope is None:
        assert out.shape == xs.shape
    else:
        assert type(out) is float and out == slope
    np.testing.assert_array_equal(coefficient(xs, 1),
                                  np.broadcast_to(out, xs.shape))
    with pytest.raises(UnsupportedOrder):
        coefficient.evaluator(2)


def test_scalar_and_array_evaluation_agree():
    c = Coefficient.sine(amplitude=1.5, frequency=2.0)
    xs = np.array([-1.0, 0.0, 0.3])
    vals = c(xs, 1)
    assert isinstance(c(0.3, 1), float)
    assert vals.shape == xs.shape
    assert c(0.3, 1) == vals[2]


def test_unsupported_orders():
    for c in CATALOG_SAMPLES + [_random_table()]:
        assert np.isfinite(c(0.5, order=1))
        for order in (-1, 2):
            with pytest.raises(UnsupportedOrder):
                c(0.5, order=order)


def test_unknown_preset_rejected():
    with pytest.raises(UnknownPreset):
        Coefficient("gauss", {}, _value=lambda x: x)


def test_direct_construction_without_evaluator_rejected():
    with pytest.raises(ConfigError):
        Coefficient("const", {"value": 1.0})
    # a coefficient always carries its first derivative
    with pytest.raises(ConfigError):
        Coefficient("const", {"value": 1.0}, _value=1.0)


# -- problem validation -------------------------------------------------------


def test_alpha_must_be_below_one(driftless):
    with pytest.raises(AlphaOutOfRange, match="alpha"):
        driftless(1.0)
    with pytest.raises(AlphaOutOfRange):
        driftless(1.5)
    driftless(0.999)
    driftless(-3.0)


def test_spec_field_validation():
    with pytest.raises(ConfigError):
        make_driftless(0.0, x0=math.inf)
    with pytest.raises(ConfigError):
        make_driftless(0.0, horizon=0.0)
    with pytest.raises(ConfigError):
        make_driftless(0.0, horizon=-1.0)


def test_validate_trivial_problem(driftless):
    spec = driftless(0.0)
    assert spec.drift_bounds.sup_d1 == 0.0
    assert spec.diffusion_bounds.sup_f == 1.0
    assert spec.sigma_inf == 1.0
    assert spec.sigma_sign_constant


def test_validate_transform_requires_nonvanishing_sigma():
    from perturbsde import DegenerateDiffusion
    # the problem itself is fine; only the transform needs sigma off zero
    spec = ProblemSpec(x0=0.0, alpha=0.0, drift=Coefficient.const(0.0),
                       diffusion=Coefficient.sine(), horizon=1.0)
    assert not spec.sigma_sign_constant
    with pytest.raises(DegenerateDiffusion, match="vanishes or changes sign"):
        build_transform(spec)


def test_table_narrower_than_the_validation_grid_is_refused():
    nodes = np.linspace(-2.0, 3.0, 11)
    drift = Coefficient.tabulated(nodes, np.sin(nodes))
    with pytest.raises(ConfigError, match=r"drift is not finite on the "
                       r"validation grid \[-10, 10\]; its table covers "
                       r"\[-2, 3\]"):
        ProblemSpec(x0=0.0, alpha=0.1, drift=drift,
                    diffusion=Coefficient.const(1.0), horizon=1.0)


# -- tabulated coefficients ---------------------------------------------------


def test_tabulated_reproduces_values_and_slopes():
    nodes = np.linspace(-8.0, 8.0, 801)
    base = Coefficient.tanh(amplitude=0.5, scale=1.0)
    tab = Coefficient.tabulated(nodes, base(nodes, 0))
    assert np.max(np.abs(tab(nodes, 0) - base(nodes, 0))) <= 1e-14
    xs = np.linspace(-7.5, 7.5, 257)
    assert np.max(np.abs(tab(xs, 0) - base(xs, 0))) <= 1e-6
    assert np.max(np.abs(tab(xs, 1) - base(xs, 1))) <= 1e-5


def test_tabulated_is_finite_difference_consistent():
    nodes = np.linspace(-40.0, 40.0, 4001)
    base = Coefficient.tanh(amplitude=0.1, scale=1.0)
    tab = Coefficient.tabulated(nodes, base(nodes, 0))
    spec = ProblemSpec(x0=0.0, alpha=0.1, drift=tab,
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    # central differences of the values on the validation grid, step 1e-4,
    # to 1e-6 of the larger of the values' and the slope's scale
    grid, h = validation_grid(spec.x0, spec.horizon, spec.diffusion), 1e-4
    exact = tab(grid, 1)
    fd = (tab(grid + h, 0) - tab(grid - h, 0)) / (2.0 * h)
    scale = max(1.0, float(np.max(np.abs(exact))),
                float(np.max(np.abs(tab(grid, 0)))))
    assert float(np.max(np.abs(fd - exact))) <= 1e-6 * scale
    assert spec.drift_bounds.sup_d1 == pytest.approx(0.1, rel=1e-3)


def test_tabulated_has_no_second_derivative():
    nodes = np.linspace(0.0, 1.0, 16)
    tab = Coefficient.tabulated(nodes, nodes**2)
    with pytest.raises(UnsupportedOrder):
        tab(0.5, order=2)


def test_tabulated_refuses_a_positional_slope_table():
    # the slope is always the value spline's own
    nodes = np.linspace(-2.0, 2.0, 101)
    with pytest.raises(TypeError):
        Coefficient.tabulated(nodes, np.sin(nodes), np.cos(nodes))


def test_tabulated_matches_scipy_not_a_knot_spline():
    # scipy serves only as an independent reference here
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(4097)
    nodes = np.sort(rng.uniform(-4.0, 4.0, 4097))
    values = np.tanh(nodes) + 0.3 * np.sin(3.0 * nodes)
    xs = np.concatenate([nodes, rng.uniform(nodes[0], nodes[-1], 10_000)])
    tab = Coefficient.tabulated(nodes, values)
    ref = CubicSpline(nodes, values)
    # errors relative to the largest reference magnitude
    for got, want, rtol in [(tab(xs, 0), ref(xs), 1e-12),
                            (tab(xs, 1), ref(xs, 1), 1e-10)]:
        assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))
    assert np.isnan(tab(nodes[-1] + 1e-9))
    assert np.isnan(tab(nodes[0] - 1e-9, 1))


def test_tabulated_input_validation():
    with pytest.raises(ConfigError):
        Coefficient.tabulated(np.array([0.0, 1.0, 2.0]), np.zeros(3))
    with pytest.raises(ConfigError):
        Coefficient.tabulated(np.linspace(0, 1, 10), np.zeros(9))
    grid, zeros = np.arange(5.0), np.zeros(5)
    inf_at_2 = np.where(grid == 2.0, np.inf, 0.0)
    for nodes, values, match in [
            ([0.0, 2.0, 1.0, 3.0, 4.0], zeros, "increase strictly"),
            ([0.0, 1.0, 1.0, 3.0, 4.0], zeros, "increase strictly"),
            (grid + inf_at_2, zeros, "nodes must be finite"),
            (grid, inf_at_2, "values must be finite"),
            (grid, -inf_at_2, "values must be finite")]:
        with pytest.raises(ConfigError, match=match):
            Coefficient.tabulated(np.asarray(nodes), values)


@pytest.mark.parametrize("nodes, values", [
    # rounding leaves a zero pivot in the elimination
    ([-1e300, -1.0, 1.0, 1e300], [0.0] * 4),
    # the spacings overflow, and the slopes are NaN
    ([-1.7e308, -1.0, 1.0, 1.7e308], [0.0] * 4),
    ([0.0, 1e-300, 1.0, 2.0], [0.0, 1e300, -1e300, 0.0])])
def test_tabulated_refuses_a_table_with_no_finite_spline(nodes, values):
    with pytest.raises(ConfigError, match="no finite spline"):
        Coefficient.tabulated(np.array(nodes), np.array(values))


def test_tabulated_equality():
    # the nodes cover the validation grid [-9.5, 10.5] of the specs below
    nodes = np.linspace(-12.0, 12.0, 6)
    table = Coefficient.tabulated(nodes, nodes**2)
    assert table == Coefficient.tabulated(nodes, nodes**2)
    assert table != Coefficient.tabulated(nodes, nodes**2 + 1e-12)
    assert table != Coefficient.tabulated(nodes[:5], nodes[:5] ** 2)
    assert table != Coefficient.const(1.0)
    assert Coefficient.const(1.0) == Coefficient.const(1.0)

    def spec(drift):
        return ProblemSpec(x0=0.5, alpha=0.1, drift=drift,
                           diffusion=Coefficient.const(1.0), horizon=1.0)

    assert spec(table) == spec(Coefficient.tabulated(nodes, nodes**2))
    assert spec(table) != spec(Coefficient.tabulated(nodes, -nodes))


def test_value_types_hash_with_equality():
    nodes = np.linspace(-12.0, 12.0, 6)

    def spec(drift, x0=0.5):
        return ProblemSpec(x0=x0, alpha=0.1, drift=drift,
                           diffusion=Coefficient.const(1.0), horizon=1.0)

    cases = [
        (Coefficient.tabulated(nodes, nodes**2),
         Coefficient.tabulated(nodes, nodes**2),
         Coefficient.tabulated(nodes, nodes**2 + 1e-12)),
        (Coefficient.const(0.0), Coefficient.const(-0.0),
         Coefficient.const(1.0)),
        (spec(Coefficient.tabulated(nodes, nodes**2)),
         spec(Coefficient.tabulated(nodes, nodes**2)),
         spec(Coefficient.tabulated(nodes, nodes**2), x0=0.25)),
        (GridSpec(10, 1.0), GridSpec(np.int64(10), 1), GridSpec(10, 2.0)),
    ]
    for value, equal, other in cases:
        assert value == equal and hash(value) == hash(equal)
        assert value != other
        assert len({value, equal, other}) == 2
        keyed = {value: "a", other: "b"}
        assert keyed[equal] == "a" and keyed[other] == "b"


# -- exact bounds -------------------------------------------------------------


@pytest.mark.parametrize("coefficient,sup_f,sup_d1", [
    (Coefficient.const(-2.0), 2.0, 0.0),
    (Coefficient.linear(slope=0.0, intercept=-1.5), 1.5, 0.0),
    (Coefficient.linear(slope=-0.7, intercept=0.3), math.inf, 0.7),
    (Coefficient.sine(amplitude=-1.5, offset=0.2, frequency=2.0),
     0.2 + 1.5, 3.0),
    (Coefficient.tanh(amplitude=0.8, scale=-1.3), 0.8, abs(0.8 * -1.3)),
    (Coefficient.ornstein_uhlenbeck(rate=1.2, mean=0.5), math.inf, 1.2),
], ids=["const", "linear-flat", "linear", "sine", "tanh",
        "ornstein_uhlenbeck"])
def test_analytic_bounds_are_closed_forms_on_the_whole_line(
        coefficient, sup_f, sup_d1):
    for interval in [(-1.0, 1.0), (5.0, 60.0)]:
        assert coefficient.bounds(interval) == EffectiveBounds(sup_f, sup_d1)


def _draw_table(data) -> tuple[np.ndarray, np.ndarray]:
    """Random values at 4 to 12 uneven nodes, or an integer quadratic at 6
    to 14 half-integer nodes, whose not-a-knot spline then has pieces with
    an exactly linear slope (``c3 = 0``; with 4 or 5 nodes roundoff can
    leave none)."""
    n = data.draw(st.integers(4, 12), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    if data.draw(st.booleans(), label="quadratic"):
        nodes = 0.5 * (np.arange(n + 2) - rng.integers(0, n))
        a, b, c = rng.integers(-3, 4, 3)
        return nodes, (a * nodes + b) * nodes + c
    return np.cumsum(rng.uniform(0.1, 1.0, n)) - 2.0, rng.standard_normal(n)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_hermite_sup_is_the_attained_supremum(data):
    nodes, values = _draw_table(data)
    slopes = _not_a_knot_slopes(nodes, values)
    if np.all(np.isin(values, np.round(values))):   # the quadratic tables
        assert np.any(_cubic(nodes, values, slopes,
                             np.arange(nodes.size - 1))[2] == 0.0)
    # whole pieces or cut in the middle, never past the nodes
    fracs = [data.draw(st.sampled_from([0.0]) | st.floats(0.0, 0.45)),
             data.draw(st.sampled_from([1.0]) | st.floats(0.55, 1.0))]
    span = nodes[-1] - nodes[0]
    lo, hi = np.clip(nodes[0] + np.array(fracs) * span, nodes[0], nodes[-1])
    xs = np.linspace(lo, hi, 10**6)
    sups = []
    for order in (0, 1):
        sup, at = hermite_sup(nodes, values, slopes, (lo, hi), order)
        sampled = float(np.max(np.abs(hermite(nodes, values, slopes, xs,
                                              order))))
        assert sampled <= sup * (1.0 + 1e-12)
        assert lo <= at <= hi
        attained = abs(float(hermite(nodes, values, slopes, at, order)))
        assert attained == pytest.approx(sup, rel=1e-12, abs=0.0)
        sups.append(sup)
    table = Coefficient.tabulated(nodes, values)
    assert table.bounds((lo, hi)) == EffectiveBounds(*sups)


def test_hermite_sup_past_the_nodes_is_nan():
    nodes = np.linspace(0.0, 1.0, 5)
    values = nodes ** 3
    slopes = _not_a_knot_slopes(nodes, values)
    assert math.isnan(hermite_sup(nodes, values, slopes, (0.5, 1.5))[0])


def test_validate_takes_table_bounds_over_the_validation_interval():
    nodes = np.linspace(-40.0, 40.0, 801)
    table = Coefficient.tabulated(nodes, 0.01 * nodes)
    spec = ProblemSpec(x0=0.0, alpha=0.1, drift=table,
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    # 0.4 over the whole table, 0.1 over the grid's [-10, 10]
    assert spec.grid_interval == (-10.0, 10.0)
    assert spec.drift_bounds == table.bounds(spec.grid_interval)
    assert spec.drift_bounds.sup_f == pytest.approx(0.1, rel=1e-12)
    assert spec.drift_bounds.sup_d1 == pytest.approx(0.01, rel=1e-12)


def test_validate_evaluates_each_value_once_and_no_slope():
    calls = []

    def value(x):
        calls.append(np.shape(x))
        return np.tanh(np.asarray(x, float))

    def slope(x):
        raise AssertionError("validate evaluated a slope")

    drift = Coefficient("tanh", {}, _value=value, _d1=slope,
                        _bounds=EffectiveBounds(1.0, 1.0))
    # building the problem validates it
    spec = ProblemSpec(x0=0.0, alpha=0.0, drift=drift,
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    assert spec.drift_bounds == EffectiveBounds(1.0, 1.0)
    assert calls == [(VALIDATION_GRID_SIZE,)]


def test_validation_grid_scale_of_an_affine_diffusion():
    # the sweep is [-10, 10]; |sigma| peaks at its end 10, where it is 2
    spec = ProblemSpec(x0=0.0, alpha=0.0, drift=Coefficient.const(0.0),
                       diffusion=Coefficient.linear(slope=0.1, intercept=1.0),
                       horizon=1.0)
    assert spec.grid_interval == (-20.0, 20.0)


def test_validation_grid_scale_of_a_table_diffusion_is_its_exact_sup():
    nodes = np.array([-4.0, -2.0, 0.0, 2.0, 4.0])
    diffusion = Coefficient.tabulated(nodes, [1.0, 1.2, 1.0, 1.2, 1.0])
    # the sweep [-10, 10] clipped to the table's nodes
    sigma_bar = diffusion.bounds((-4.0, 4.0)).sup_f
    assert sigma_bar > 1.2
    assert validation_grid(0.0, 1.0, diffusion)[-1] == 10.0 * sigma_bar


# -- grids and path state -----------------------------------------------------


def test_grid_spec_basics():
    grid = GridSpec(n_steps=4, horizon=2.0)
    assert grid.dt == 0.5
    np.testing.assert_allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert grid.times[-1] == 2.0
    assert np.all(np.diff(grid.times) > 0.0)


def test_grid_spec_accepts_numpy_integers():
    grid = GridSpec(n_steps=np.int64(8), horizon=1.0)
    assert grid.n_steps == 8
    assert isinstance(grid.n_steps, int)


def test_grid_spec_validation():
    with pytest.raises(ConfigError):
        GridSpec(n_steps=0, horizon=1.0)
    with pytest.raises(ConfigError):
        GridSpec(n_steps=2.5, horizon=1.0)
    with pytest.raises(ConfigError):
        GridSpec(n_steps=10, horizon=0.0)
    with pytest.raises(ConfigError):
        GridSpec(n_steps=10, horizon=math.nan)


def test_grid_spec_refuses_a_zero_time_step():
    # the smallest subnormal horizon still takes one step
    assert GridSpec(n_steps=1, horizon=5e-324).dt == 5e-324
    with pytest.raises(ConfigError, match="horizon / n_steps"):
        GridSpec(n_steps=2, horizon=5e-324)


def test_path_state_invariants_on_simulated_paths(driftless):
    grid = GridSpec(n_steps=64, horizon=1.0)
    for alpha in (-0.5, 0.0, 0.5):
        batch = simulate_batch(driftless(alpha), grid, 1, seed=11)
        x, M = batch.x[:, 0], batch.running_max[:, 0]
        new = batch.new_max[:, 0]
        assert M[0] == x[0]
        np.testing.assert_array_equal(M, np.maximum.accumulate(x))
        assert np.all(x <= M)
        # a step sets a new maximum exactly when its value is the first
        # attainment of the running maximum
        assert not new[0]
        for k in range(1, x.shape[0]):
            first = int(np.argmax(x[:k + 1] >= M[k]))
            assert new[k] == (first == k)
