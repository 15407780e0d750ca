"""Terminal-law tools: the closed-form driftless density, kernel
estimation, and the bandwidth-ladder smoothness heuristic."""

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
    derivative_bandwidth_rule,
    kde,
    l1_distance,
    oracle_driftless,
    simulate_terminal,
    smoothness_diagnostic,
)
from perturbsde.density import (
    CALIBRATED_MIN_SAMPLES,
    MAX_MESH_NODES,
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
    # reference for the binned estimator: the O(N x grid) Gaussian sums of
    # the pdf, u phi(u) and (u^2 - 1) phi(u) channels, normalized as in kde
    pdf = np.zeros(zs.size)
    d1 = np.zeros(zs.size)
    d2 = np.zeros(zs.size)
    for i in range(0, sample.size, 4096):
        v = (zs[:, None] - sample[None, i:i + 4096]) / h
        phi = np.exp(-0.5 * v * v)
        pdf += phi.sum(axis=1)
        d1 += (v * phi).sum(axis=1)
        d2 += ((v * v - 1.0) * phi).sum(axis=1)
    norm_ = sample.size * h * math.sqrt(2.0 * math.pi)
    return pdf / norm_, -d1 / (norm_ * h), d2 / (norm_ * h * h)


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


# -- simulated terminal samples -----------------------------------------------


def test_ensemble_mean_classical(driftless):
    grid = GridSpec(n_steps=64, horizon=1.0)
    sample = simulate_terminal(driftless(0.0, x0=0.4), grid, 40_000,
                               seed=19).x_final
    assert float(np.mean(sample)) == pytest.approx(0.4, abs=0.02)


def test_ensemble_mean_perturbed(driftless):
    # discrete-maximum bias shrinks like sqrt(dt), so the step count
    # must be generous for the continuum mean to show through
    grid = GridSpec(n_steps=2048, horizon=1.0)
    sample = simulate_terminal(driftless(0.5), grid, 10_000,
                               seed=23).x_final
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
    est = kde(sample, ladder=False)
    assert l1_distance(est, norm.pdf(est.grid)) <= 0.01
    assert est.n_samples == 100_000
    assert est.bandwidth == pytest.approx(bandwidth_rule(sample))


def test_kde_single_value_is_pure_kernel():
    est = kde(np.full(100, 2.0), bandwidth=0.5)
    np.testing.assert_allclose(est.pdf, norm.pdf(est.grid, 2.0, 0.5),
                               atol=1e-12)
    with pytest.raises(ConfigError, match="bandwidth"):
        kde(np.full(100, 2.0))


def test_kde_normalization_and_moments():
    rng = np.random.default_rng(31)
    sample = 3.0 + 0.7 * rng.standard_normal(2000)
    est = kde(sample, ladder=False)
    assert 0.98 <= est.normalization() <= 1.02
    assert est.sample_mean == pytest.approx(float(np.mean(sample)))
    assert est.sample_std == pytest.approx(float(np.std(sample, ddof=1)))


def test_kde_ladder_bandwidths():
    rng = np.random.default_rng(37)
    sample = rng.standard_normal(500)
    est = kde(sample, bandwidth=0.4)
    assert [r.bandwidth for r in est.ladder] == [0.2, 0.4, 0.8]
    np.testing.assert_array_equal(est.ladder[1].pdf, est.pdf)
    assert kde(sample, bandwidth=0.4, ladder=False).ladder == ()


def test_kde_input_validation():
    with pytest.raises(EmptySample):
        kde(np.array([1.0]))
    with pytest.raises(EmptySample):
        kde(np.array([1.0, math.nan, 2.0]))
    sample = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ConfigError):
        kde(sample, bandwidth=-0.5)
    with pytest.raises(ConfigError):
        kde(sample, eval_grid=np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        kde(sample, eval_grid=np.array([0.0]))
    for grid in (np.array([0.0, 1.0, 3.0]), np.linspace(2.0, -2.0, 9),
                 np.array([0.0, 0.0, 0.0]), np.array([0.0, 1.0, math.inf])):
        with pytest.raises(ConfigError, match="eval_grid"):
            kde(sample, bandwidth=0.5, eval_grid=grid)
    with pytest.raises(EmptySample):
        bandwidth_rule(np.array([3.0]))
    with pytest.raises(EmptySample):
        derivative_bandwidth_rule(np.array([3.0]))


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
@pytest.mark.parametrize("rule", [bandwidth_rule, derivative_bandwidth_rule])
def test_binned_kde_matches_direct_sums(draw, rule):
    sample = draw(np.random.default_rng(71), 100_000)
    est = kde(sample, bandwidth=rule(sample))
    for rung in est.ladder:
        ref = direct_kernel_sums(sample, est.grid, rung.bandwidth)
        for got, want in zip((rung.pdf, rung.d1, rung.d2), ref):
            assert float(np.max(np.abs(got - want))) \
                <= 1e-4 * float(np.max(np.abs(want)))


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


def test_bandwidth_rules_scaling():
    rng = np.random.default_rng(41)
    sample = 2.0 * rng.standard_normal(10_000)
    s = float(np.std(sample, ddof=1))
    assert bandwidth_rule(sample) == pytest.approx(
        1.06 * s * 10_000 ** -0.2)
    assert derivative_bandwidth_rule(sample) == pytest.approx(
        1.06 * s * 10_000 ** (-1.0 / 9.0))
    assert derivative_bandwidth_rule(sample) > bandwidth_rule(sample)


# -- smoothness heuristic -----------------------------------------------------


def smooth_report(sample):
    est = kde(sample, bandwidth=derivative_bandwidth_rule(sample))
    return smoothness_diagnostic(est)


def test_smoothness_passes_on_gaussian():
    rng = np.random.default_rng(43)
    report = smooth_report(rng.standard_normal(100_000))
    assert report.passed and report.verdict == "pass"
    assert report.score <= 1.0
    assert len(report.pairs) == 2
    assert "not a proof" in report.note


def test_smoothness_flags_atoms():
    rng = np.random.default_rng(47)
    n = 50_000
    sample = rng.standard_normal(n)
    sample[: n // 10] = 0.0
    report = smooth_report(sample)
    assert not report.passed
    assert report.score > 1.0


def test_smoothness_passes_on_perturbed_law():
    # alpha = 0.3 terminal draw b + beta s with beta = 3/7
    rng = np.random.default_rng(53)
    b, s = brownian_with_sup(rng, 100_000)
    report = smooth_report(b + (3.0 / 7.0) * s)
    assert report.passed


def test_smoothness_small_sample_note():
    rng = np.random.default_rng(59)
    report = smooth_report(rng.standard_normal(5000))
    assert report.n_samples == 5000
    assert "below the calibrated sample size" in report.note
    assert str(CALIBRATED_MIN_SAMPLES) in report.note


def test_smoothness_needs_ladder():
    rng = np.random.default_rng(61)
    est = kde(rng.standard_normal(1000), ladder=False)
    with pytest.raises(ConfigError, match="ladder"):
        smoothness_diagnostic(est)


# -- L1 comparison ------------------------------------------------------------


def test_l1_distance_identical_and_disjoint():
    rng = np.random.default_rng(67)
    sample = rng.standard_normal(20_000)
    grid = np.linspace(-8.0, 20.0, 2801)
    est = kde(sample, eval_grid=grid, ladder=False)
    assert l1_distance(est, est.pdf) == 0.0
    assert l1_distance(est, norm.pdf(grid - 12.0)) == pytest.approx(
        2.0, abs=0.02)
    with pytest.raises(GridMismatch):
        l1_distance(est, np.zeros(5))
