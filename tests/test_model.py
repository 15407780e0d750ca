"""Coefficient catalog, problem validation, and grid construction."""

import math

import numpy as np
import pytest

from perturbsde import (
    AlphaOutOfRange,
    Coefficient,
    ConfigError,
    GridSpec,
    InconsistentDerivatives,
    ProblemSpec,
    SupNormBounds,
    UnknownPreset,
    UnsupportedOrder,
    ValidatedSpec,
    simulate_batch,
    sup_norm_estimate,
    validate,
)
from conftest import make_driftless

# max |d2 tanh/dx2| = 4/(3 sqrt 3), attained at tanh(x) = 1/sqrt(3)
TANH_SUP_D2 = 4.0 / (3.0 * math.sqrt(3.0))

CATALOG_SAMPLES = [
    Coefficient.const(2.0),
    Coefficient.linear(slope=0.7, intercept=-0.3),
    Coefficient.sine(amplitude=1.5, offset=0.2, frequency=2.0, phase=0.4),
    Coefficient.tanh(amplitude=0.8, scale=1.3),
    Coefficient.ornstein_uhlenbeck(rate=1.2, mean=0.5),
]


@pytest.mark.parametrize("coefficient", CATALOG_SAMPLES,
                         ids=lambda c: c.preset_id)
def test_catalog_derivatives_match_finite_differences(coefficient):
    xs = np.linspace(-3.0, 3.0, 401)
    h = 1e-4
    for order in (1, 2):
        exact = coefficient(xs, order)
        fd = (coefficient(xs + h, order - 1)
              - coefficient(xs - h, order - 1)) / (2.0 * h)
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
    (Coefficient.from_callbacks(lambda x: np.full_like(x, 3.0)), None),
], ids=["const", "linear-flat", "linear-sloped", "sine", "tanh",
        "ornstein_uhlenbeck", "tabulated", "callback"])
def test_constant_value(coefficient, expected):
    # only const and zero-slope linear are constant by structure; presets
    # that happen to be constant for their parameters are not reported
    value = coefficient.constant_value
    assert value == expected
    if expected is not None:
        assert type(value) is float


def test_tanh_second_derivative_against_finite_differences():
    c = Coefficient.tanh()
    h = 1e-4
    fd = (c(0.5 + h, 1) - c(0.5 - h, 1)) / (2.0 * h)
    assert abs(fd - c(0.5, 2)) <= 1e-6


def test_tanh_declared_curvature_bound_is_the_grid_sup():
    c = Coefficient.tanh(amplitude=1.0, scale=1.0)
    assert c.declared_bounds.sup_d2 == pytest.approx(TANH_SUP_D2, abs=1e-15)
    grid_sup = sup_norm_estimate(c, 2, (-5.0, 5.0), n_grid=200001)
    assert grid_sup == pytest.approx(TANH_SUP_D2, abs=1e-8)
    assert grid_sup <= c.declared_bounds.sup_d2


def test_scalar_and_array_evaluation_agree():
    c = Coefficient.sine(amplitude=1.5, frequency=2.0)
    xs = np.array([-1.0, 0.0, 0.3])
    vals = c(xs, 1)
    assert isinstance(c(0.3, 1), float)
    assert vals.shape == xs.shape
    assert c(0.3, 1) == vals[2]


def test_unsupported_orders():
    c = Coefficient.from_callbacks(value=lambda x: np.asarray(x, float) ** 3)
    assert c(2.0) == 8.0
    with pytest.raises(UnsupportedOrder):
        c(2.0, order=1)
    with pytest.raises(UnsupportedOrder):
        Coefficient.const(1.0)(0.0, order=3)
    assert Coefficient.const(1.0).has_order(2)
    assert not c.has_order(1)


def test_unknown_preset_rejected():
    with pytest.raises(UnknownPreset):
        Coefficient("gauss", {}, None, _value=lambda x: x)


def test_direct_construction_without_evaluator_rejected():
    with pytest.raises(ConfigError):
        Coefficient("const", {"value": 1.0})


def test_sup_norm_estimate_known_values():
    assert sup_norm_estimate(Coefficient.const(2.0), 1, (-1.0, 1.0)) == 0.0
    sine = Coefficient.sine()
    assert sup_norm_estimate(sine, 1, (-math.pi, math.pi),
                             n_grid=10**4) == pytest.approx(1.0, abs=1e-6)
    assert sup_norm_estimate(Coefficient.tanh(), 1, (-5.0, 5.0),
                             n_grid=10**4 + 1) == pytest.approx(1.0, abs=1e-6)


def test_sup_norm_estimate_monotone_on_nested_grids():
    c = Coefficient.sine(frequency=3.0)
    coarse = sup_norm_estimate(c, 0, (-2.0, 2.0), n_grid=101)
    # 201 points on the same interval contain all 101 coarse nodes
    fine = sup_norm_estimate(c, 0, (-2.0, 2.0), n_grid=201)
    assert fine >= coarse


def test_sup_norm_estimate_input_validation():
    c = Coefficient.const(1.0)
    with pytest.raises(ConfigError):
        sup_norm_estimate(c, 0, (1.0, 1.0))
    with pytest.raises(ConfigError):
        sup_norm_estimate(c, 0, (0.0, 1.0), n_grid=1)


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
    vspec = validate(driftless(0.0))
    assert vspec.drift_bounds.sup_d1 == 0.0
    assert vspec.drift_bounds.source == "declared"
    assert vspec.diffusion_bounds.sup_f == 1.0
    assert vspec.sigma_inf == 1.0
    assert vspec.sigma_sign_constant


def test_validate_is_idempotent(tanh_spec):
    vspec = validate(tanh_spec)
    assert validate(vspec) is vspec
    assert isinstance(vspec, ValidatedSpec)
    # delegate properties read through to the underlying problem
    assert vspec.alpha == tanh_spec.alpha
    assert vspec.horizon == tanh_spec.horizon


def test_validate_accepts_declared_bound_confirmed_by_grid():
    spec = ProblemSpec(
        x0=0.0, alpha=0.0,
        drift=Coefficient.sine(declared_bounds=SupNormBounds(1.0, 1.0, 1.0)),
        diffusion=Coefficient.const(1.0), horizon=1.0)
    vspec = validate(spec)
    assert vspec.drift_bounds.sup_d1 == 1.0
    assert vspec.drift_bounds.source == "declared"


def test_validate_rejects_violated_declared_bound():
    lying = Coefficient.sine(amplitude=2.0,
                             declared_bounds=SupNormBounds(0.5, None, None))
    spec = ProblemSpec(x0=0.0, alpha=0.0, drift=lying,
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    with pytest.raises(InconsistentDerivatives, match="declared"):
        validate(spec)


def test_validate_rejects_inconsistent_callback_derivative():
    wrong = Coefficient.from_callbacks(
        value=lambda x: np.sin(np.asarray(x, float)),
        d1=lambda x: 1.1 * np.cos(np.asarray(x, float)))
    spec = ProblemSpec(x0=0.0, alpha=0.0, drift=wrong,
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    with pytest.raises(InconsistentDerivatives, match="central"):
        validate(spec)


def test_validate_grid_estimates_flagged_non_declared():
    partial = Coefficient.from_callbacks(
        value=lambda x: np.sin(np.asarray(x, float)),
        d1=lambda x: np.cos(np.asarray(x, float)))
    spec = ProblemSpec(x0=0.0, alpha=0.0, drift=partial,
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    vspec = validate(spec)
    assert vspec.drift_bounds.source == "grid"
    assert vspec.drift_bounds.sup_d1 <= 1.0
    assert vspec.drift_bounds.sup_d1 == pytest.approx(1.0, abs=1e-5)


def test_validate_transform_requires_nonvanishing_sigma():
    from perturbsde import DegenerateDiffusion
    spec = ProblemSpec(x0=0.0, alpha=0.0, drift=Coefficient.const(0.0),
                       diffusion=Coefficient.sine(), horizon=1.0)
    validate(spec)  # fine without the transform requirement
    with pytest.raises(DegenerateDiffusion):
        validate(spec, require_transform=True)


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
    vspec = validate(spec)
    assert vspec.drift_bounds.source == "grid"
    assert vspec.drift_bounds.sup_d1 == pytest.approx(0.1, rel=1e-3)


def test_tabulated_has_no_second_derivative():
    nodes = np.linspace(0.0, 1.0, 16)
    tab = Coefficient.tabulated(nodes, nodes**2)
    with pytest.raises(UnsupportedOrder):
        tab(0.5, order=2)


def test_tabulated_accepts_explicit_slope_table():
    nodes = np.linspace(-2.0, 2.0, 101)
    tab = Coefficient.tabulated(nodes, np.sin(nodes), np.cos(nodes))
    assert tab(0.5, 1) == pytest.approx(math.cos(0.5), abs=1e-7)


def test_tabulated_input_validation():
    with pytest.raises(ConfigError):
        Coefficient.tabulated(np.array([0.0, 1.0, 2.0]), np.zeros(3))
    with pytest.raises(ConfigError):
        Coefficient.tabulated(np.linspace(0, 1, 10), np.zeros(9))
    with pytest.raises(ConfigError):
        Coefficient.tabulated(np.linspace(0, 1, 10), np.zeros(10),
                              d1_values=np.zeros(9))


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


def test_path_state_invariants_on_simulated_paths(driftless):
    grid = GridSpec(n_steps=64, horizon=1.0)
    for alpha in (-0.5, 0.0, 0.5):
        batch = simulate_batch(driftless(alpha), grid, 1, seed=11)
        x, M = batch.x[:, 0], batch.running_max[:, 0]
        idx = batch.argmax_idx()[:, 0]
        assert M[0] == x[0]
        np.testing.assert_array_equal(M, np.maximum.accumulate(x))
        assert np.all(x <= M)
        for k in range(x.shape[0]):
            first = int(np.argmax(x[:k + 1] >= M[k]))
            assert idx[k] == first
