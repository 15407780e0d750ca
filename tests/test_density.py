"""Terminal-law tools: the closed-form driftless density and its exact
smoothness, and kernel estimation."""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.stats import norm

from perturbsde import (
    ConfigError,
    DegenerateDiffusion,
    EmptySample,
    GridMismatch,
    GridSpec,
    bandwidth_rule,
    kde,
    l1_distance,
    max_horizon,
    oracle_driftless,
    simulate_terminal,
    smoothness_diagnostic,
)
from perturbsde.density import (
    MAX_MESH_NODES,
    _kernel_sums,
    _mean_std,
    _mesh_plan,
)


def brownian_with_sup(rng, n, t=1.0):
    # joint draw of (B_t, sup_{s<=t} B_s) by inverting the conditional
    # tail exp(-2 s (s - b) / t)
    b = rng.standard_normal(n) * math.sqrt(t)
    u = 1.0 - rng.random(n)
    s = 0.5 * (b + np.sqrt(b * b - 2.0 * t * np.log(u)))
    return b, s


def direct_kernel_sums(sample, zs, h):
    # reference for the binned estimator: the O(N x grid) Gaussian sums,
    # normalized as in kde
    pdf = np.zeros(zs.size)
    for i in range(0, sample.size, 4096):
        v = (zs[:, None] - sample[None, i:i + 4096]) / h
        pdf += np.exp(-0.5 * v * v).sum(axis=1)
    return pdf / (sample.size * h * math.sqrt(2.0 * math.pi))


def cdf_alpha_half(z):
    # distribution function of B_1 + sup B for comparison against the
    # density: (2/3) Phi(z) on z <= 0 and (4/3) Phi(z/2) - 1/3 above
    z = np.asarray(z, float)
    return np.where(z <= 0.0, (2.0 / 3.0) * norm.cdf(z),
                    (4.0 / 3.0) * norm.cdf(z / 2.0) - 1.0 / 3.0)


# -- closed-form density ------------------------------------------------------


def test_oracle_reduces_to_gaussian():
    zs = np.linspace(-5.0, 7.0, 301)
    got = oracle_driftless(0.7, 1.3, 0.0, 2.0, zs)
    np.testing.assert_allclose(got, norm.pdf(zs, 0.7, 1.3 * math.sqrt(2.0)),
                               atol=1e-12)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.3, 0.5, 0.9])
def test_oracle_integrates_to_one(alpha):
    c = 0.2 / (1.0 - alpha)
    half = (8.0 + 8.0 / (1.0 - alpha)) * 1.1
    zs = np.linspace(c - half, c + half, 20001)
    mass = np.trapezoid(oracle_driftless(0.2, 1.1, alpha, 1.0, zs), zs)
    assert mass == pytest.approx(1.0, abs=1e-4)


def test_oracle_cdf_at_alpha_half():
    zs = np.linspace(-8.0, 10.0, 40001)
    pdf = oracle_driftless(0.0, 1.0, 0.5, 1.0, zs)
    cdf = cumulative_trapezoid(pdf, zs, initial=0.0)
    np.testing.assert_allclose(cdf, cdf_alpha_half(zs), atol=1e-6)


def test_oracle_matches_independent_sampler():
    rng = np.random.default_rng(42)
    b, s = brownian_with_sup(rng, 100_000)
    x = np.sort(b + s)
    ecdf = np.arange(1, x.size + 1) / x.size
    assert float(np.max(np.abs(ecdf - cdf_alpha_half(x)))) <= 0.01


def test_sampler_mean_hits_reflection_value():
    rng = np.random.default_rng(7)
    b, s = brownian_with_sup(rng, 200_000)
    assert float(np.mean(s)) == pytest.approx(math.sqrt(2.0 / math.pi),
                                              abs=0.013)
    assert float(np.mean(b + s)) == pytest.approx(math.sqrt(2.0 / math.pi),
                                                  abs=0.013)


def test_histogram_matches_bin_averaged_oracle():
    n = 1_000_000
    rng = np.random.default_rng(42)
    b, s = brownian_with_sup(rng, n)
    x = b + s
    edges = np.linspace(-4.0, 6.0, 51)
    counts = np.histogram(x, edges)[0]
    q = np.diff(cdf_alpha_half(edges))
    z = np.abs(counts - n * q) / np.sqrt(n * q * (1.0 - q))
    assert float(np.max(z)) <= 3.0


def test_oracle_scalar_and_input_validation():
    assert isinstance(oracle_driftless(0.0, 1.0, 0.5, 1.0, 0.3), float)
    with pytest.raises(ConfigError):
        oracle_driftless(0.0, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        oracle_driftless(0.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        oracle_driftless(0.0, 1.0, 0.0, math.inf, 0.0)
    with pytest.raises(DegenerateDiffusion):
        oracle_driftless(0.0, 0.0, 0.0, 1.0, 0.0)


@pytest.mark.parametrize("alpha, left, right", [(0.05, -0.3887, -0.3508),
                                                (0.10, -0.3779, -0.3061),
                                                (0.14, -0.3689, -0.2728)])
def test_admissible_law_is_not_twice_differentiable(alpha, left, right):
    # driftless, sigma = 1: max_horizon is inf, so every horizon is inside
    # the regime, yet at c = x0/(1-alpha) the law's one-sided curvatures
    # are -p(c)/t and -(1-alpha)^2 p(c)/t, so it is C^1 and not C^2 there
    x0, t, h = 0.0, 1.0, 1e-4
    assert max_horizon(alpha, 0.0) == math.inf
    c = x0 / (1.0 - alpha)
    p = oracle_driftless(x0, 1.0, alpha, t, c + h * np.arange(-2.0, 3.0))
    below = (p[2] - 2.0 * p[1] + p[0]) / h**2
    above = (p[4] - 2.0 * p[3] + p[2]) / h**2
    assert below == pytest.approx(-p[2] / t, abs=5e-5)
    assert above == pytest.approx(-(1.0 - alpha)**2 * p[2] / t, abs=5e-5)
    assert (round(below, 4), round(above, 4)) == (left, right)
    assert above - below == pytest.approx(
        (1.0 - (1.0 - alpha)**2) * p[2] / t, abs=1e-4)
    # the density report states the same curvatures, also where x0, sigma
    # and t are not 1
    for x0, sigma, t in ((0.0, 1.0, 1.0), (0.4, -1.7, 0.6)):
        c = x0 / (1.0 - alpha)
        p = oracle_driftless(x0, sigma, alpha, t, c + h * np.arange(-2.0, 3.0))
        assert smoothness_diagnostic(x0, sigma, alpha, t) == {
            "c": c,
            "curvature_below": pytest.approx(
                (p[2] - 2.0 * p[1] + p[0]) / h**2, abs=5e-5),
            "curvature_above": pytest.approx(
                (p[4] - 2.0 * p[3] + p[2]) / h**2, abs=5e-5),
            "twice_differentiable": False}


def test_gaussian_law_is_twice_differentiable():
    # alpha = 0 is N(x0, sigma^2 t): one curvature -p/(sigma^2 t) at the mean
    report = smoothness_diagnostic(0.7, 1.3, 0.0, 2.0)
    curvature = -norm.pdf(0.0, 0.0, 1.3 * math.sqrt(2.0)) / (1.3**2 * 2.0)
    assert report == {"c": 0.7,
                      "curvature_below": pytest.approx(curvature, rel=1e-12),
                      "curvature_above": pytest.approx(curvature, rel=1e-12),
                      "twice_differentiable": True}
    with pytest.raises(ConfigError):
        smoothness_diagnostic(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        smoothness_diagnostic(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(DegenerateDiffusion):
        smoothness_diagnostic(0.0, 0.0, 0.0, 1.0)


# -- simulated terminal samples -----------------------------------------------


def test_ensemble_mean_classical(driftless):
    grid = GridSpec(n_steps=64, horizon=1.0)
    sample = simulate_terminal(driftless(0.0, x0=0.4), grid, 40_000,
                               seed=19)
    assert float(np.mean(sample)) == pytest.approx(0.4, abs=0.02)


def test_ensemble_mean_perturbed(driftless):
    # discrete-maximum bias shrinks like sqrt(dt), so the step count
    # must be generous for the continuum mean to show through
    grid = GridSpec(n_steps=2048, horizon=1.0)
    sample = simulate_terminal(driftless(0.5), grid, 10_000,
                               seed=23)
    assert float(np.mean(sample)) == pytest.approx(
        math.sqrt(2.0 / math.pi), abs=0.04)


def test_ensemble_empty(driftless):
    grid = GridSpec(n_steps=8, horizon=1.0)
    with pytest.raises(ConfigError):
        simulate_terminal(driftless(0.3), grid, 0, seed=1)
    with pytest.raises(EmptySample):
        kde(np.empty(0))


# -- kernel estimation --------------------------------------------------------


def test_kde_recovers_gaussian():
    rng = np.random.default_rng(29)
    sample = rng.standard_normal(100_000)
    est = kde(sample)
    assert l1_distance(est, norm.pdf(est.grid)) <= 0.01
    assert est.n_samples == 100_000
    assert est.bandwidth == pytest.approx(bandwidth_rule(sample))


def test_kde_single_value_is_pure_kernel():
    est = kde(np.full(100, 2.0), bandwidth=0.5)
    np.testing.assert_allclose(est.pdf, norm.pdf(est.grid, 2.0, 0.5),
                               atol=1e-12)
    with pytest.raises(EmptySample, match="bandwidth"):
        kde(np.full(100, 2.0))


def test_kde_normalization_and_moments():
    rng = np.random.default_rng(31)
    sample = 3.0 + 0.7 * rng.standard_normal(2000)
    est = kde(sample)
    assert 0.98 <= est.normalization() <= 1.02
    assert est.sample_mean == pytest.approx(float(np.mean(sample)))
    assert est.sample_std == pytest.approx(float(np.std(sample, ddof=1)))


def test_kde_input_validation():
    with pytest.raises(EmptySample):
        kde(np.array([1.0]))
    with pytest.raises(EmptySample):
        kde(np.array([1.0, math.nan, 2.0]))
    sample = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ConfigError):
        kde(sample, bandwidth=-0.5)
    for n_grid in (1, 0, -3):
        with pytest.raises(ConfigError,
                           match="n_grid: must be at least 2, got"):
            kde(sample, n_grid=n_grid)
    # the grid comes from the sample; no caller passes one
    with pytest.raises(TypeError):
        kde(sample, eval_grid=np.linspace(-1.0, 3.0, 9))
    with pytest.raises(TypeError):
        kde(sample, 0.5, 9)
    with pytest.raises(EmptySample):
        bandwidth_rule(np.array([3.0]))


def test_moments_of_a_finite_sample_are_finite():
    rng = np.random.default_rng(37)
    unit = rng.standard_normal(64)
    # a finite first try is kept bit for bit
    assert _mean_std(unit) == (float(np.mean(unit)),
                               float(np.std(unit, ddof=1)))
    assert _mean_std(unit, ddof=0)[1] == float(np.std(unit))
    # squares of 1e200 overflow, the sample is rescaled by a power of two
    for ddof in (0, 1):
        mean, std = _mean_std(1e200 * unit, ddof=ddof)
        assert mean == float(np.mean(1e200 * unit))   # finite first try
        assert std == pytest.approx(1e200 * np.std(unit, ddof=ddof),
                                    rel=1e-14)
    # sums of 1.7e308 overflow, so does the mean's first try
    assert _mean_std(np.full(4, 1.7e308)) == (1.7e308, 0.0)
    assert bandwidth_rule(1e200 * unit) == pytest.approx(
        1e200 * bandwidth_rule(unit), rel=1e-14)
    # non-finite values keep non-finite moments
    assert all(map(math.isnan, _mean_std(np.array([math.inf, -math.inf]))))


def test_failures_of_the_sample_are_numerical_not_config():
    # a rule bandwidth of zero or inf, or a default grid that cannot be
    # uniform about the sample, comes from the draws: EmptySample (exit 3)
    spread_overflows = np.array([-1.7e308, 1.7e308])   # std 2.4e308
    grid_overflows = np.array([-1e308, 1e308, 0.0])      # std 1e308
    far_and_narrow = 1e17 + np.array([0.0, 16.0, 32.0])   # 16 is one ulp
    cases = [(np.full(100, 2.0), {}, "bandwidth rule gives 0.0"),
             (spread_overflows, {}, "bandwidth rule gives inf"),
             (grid_overflows, {}, "no uniform evaluation grid"),
             (far_and_narrow, {}, "no uniform evaluation grid"),
             (far_and_narrow, {"bandwidth": 1.0}, "no uniform evaluation")]
    with np.errstate(over="ignore"):
        for sample, kwargs, message in cases:
            with pytest.raises(EmptySample, match=message):
                kde(sample, **kwargs)
    # what the caller gives stays a configuration error on the same sample
    with pytest.raises(ConfigError, match="bandwidth must be positive"):
        kde(np.full(100, 2.0), bandwidth=math.inf)
    with pytest.raises(ConfigError, match="n_grid: must be at least 2"):
        kde(far_and_narrow, bandwidth=1.0, n_grid=1)
    with pytest.raises(ConfigError, match="n_grid: must be at least 2"):
        kde(np.full(100, 2.0), bandwidth=1.0, n_grid=1)


def perturbed_sample(rng, n):
    # alpha = 0.3 terminal draw b + beta s with beta = 3/7
    b, s = brownian_with_sup(rng, n)
    return b + (3.0 / 7.0) * s


def atom_sample(rng, n):
    # 10 % point-mass contamination of a standard normal
    sample = rng.standard_normal(n)
    sample[: n // 10] = 0.0
    return sample


@pytest.mark.parametrize("draw", [
    lambda rng, n: rng.standard_normal(n), perturbed_sample, atom_sample,
], ids=["normal", "perturbed-alpha-0.3", "atom"])
@pytest.mark.parametrize("rule", [bandwidth_rule])
def test_binned_kde_matches_direct_sums(draw, rule):
    sample = draw(np.random.default_rng(71), 100_000)
    est = kde(sample)
    assert est.bandwidth == rule(sample)
    want = direct_kernel_sums(sample, est.grid, est.bandwidth)
    assert np.array_equal(_kernel_sums(sample, est.grid, est.bandwidth),
                          est.pdf)
    assert float(np.max(np.abs(est.pdf - want))) \
        <= 1e-4 * float(np.max(want))


def test_mesh_plan_size_rule():
    # pure function of (h, grid spacing and size, sample reach); nothing of
    # the planned size is allocated here
    r, n_lo, n_mesh, half, n_fft = _mesh_plan(0.1, 0.01, 101, 5.0, 5.0)
    assert r == 8                          # 2 ceil(32 * 0.01 / 0.1)
    assert n_lo == 801                     # 10 h / (0.01 / 8), plus one
    assert n_mesh == 801 + 100 * 8 + 801 + 1
    assert half == 800
    assert n_fft == 4096 and n_fft >= n_mesh + half
    # a sample inside the grid keeps one spare node past each end
    r, n_lo, n_mesh, half, n_fft = _mesh_plan(0.1, 0.01, 101, -1.0, 0.02)
    assert (n_lo, n_mesh) == (1, 1 + 100 * 8 + 17 + 1)
    # the mesh grows like 1/h; past the cap it is refused by name
    assert _mesh_plan(1e-4, 0.01, 101, 0.0, 0.0)[4] <= MAX_MESH_NODES
    for h in (1e-6, 1e-9, 5e-324):
        with pytest.raises(ConfigError, match="bandwidth.*nodes"):
            _mesh_plan(h, 0.01, 101, 5.0, 5.0)
    with pytest.raises(ConfigError, match="bandwidth"):
        _mesh_plan(0.1, 0.01, 10**9, 0.0, 0.0)
    sample = np.random.default_rng(73).standard_normal(1000)
    with pytest.raises(ConfigError, match="bandwidth"):
        kde(sample, bandwidth=1e-9)


@pytest.mark.parametrize("n_grid", [2_097_149, 10**15])
def test_oversized_n_grid_is_refused_before_the_grid(n_grid):
    # a mesh of at least two nodes per grid step would pass MAX_MESH_NODES
    # at any bandwidth, so the grid is refused by its own field
    sample = np.random.default_rng(73).standard_normal(1000)
    with pytest.raises(ConfigError, match=f"config: n_grid: .*got {n_grid}$"):
        kde(sample, n_grid=n_grid)


def test_bandwidth_rules_scaling():
    rng = np.random.default_rng(41)
    sample = 2.0 * rng.standard_normal(10_000)
    s = float(np.std(sample, ddof=1))
    assert bandwidth_rule(sample) == pytest.approx(
        1.06 * s * 10_000 ** -0.2)


# -- L1 comparison ------------------------------------------------------------


def test_l1_distance_identical_and_disjoint():
    rng = np.random.default_rng(67)
    sample = rng.standard_normal(20_000)
    est = kde(sample)
    assert l1_distance(est, est.pdf) == 0.0
    # a law on the estimate's grid that sits in the sample's far tail
    disjoint = norm.pdf(est.grid, loc=4.5, scale=0.25)
    assert l1_distance(est, disjoint) == pytest.approx(2.0, abs=0.02)
    with pytest.raises(GridMismatch):
        l1_distance(est, np.zeros(5))
