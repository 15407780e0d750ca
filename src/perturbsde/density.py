"""Monte Carlo estimation of the terminal law, with a closed-form check.

The pipeline is terminal sample (``integrate.simulate_terminal``) -> kde
and smoothness diagnostic, one estimator per question.  :func:`kde`
estimates the density with the Gaussian kernel at the normal-reference
bandwidth ``1.06 s N^{-1/5}``.  :func:`smoothness_diagnostic` estimates
the first two derivatives at half, one and two times the slower-shrinking
rule ``1.06 s N^{-1/9}``, since estimating density *derivatives* well
needs more smoothing than estimating the density itself (at the
density-optimal bandwidth the second derivative of the estimate is
noise-dominated even for a clean Gaussian at sample sizes around 10^5,
and no stability verdict is possible).

Kernel sums are binned, not direct: the sample is linearly binned onto a
uniform mesh and the counts are convolved with each kernel by FFT
(Silverman, AS 176, Appl. Statist. 31, 1982; Wand, J. Comput. Graph.
Statist. 3, 1994), O(N + mesh log mesh) instead of O(N x grid), and each
estimator convolves only the kernels it reports.  See :func:`kde` for
the error bound, the uniform-grid requirement and the mesh cap.

In the driftless constant-``sigma`` case the terminal law is known in
closed form (:func:`oracle_driftless`), which turns the whole pipeline
into a measurable quantity: the L1 gap between the kernel estimate and
the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDiffusion, EmptySample, GridMismatch

__all__ = [
    "DensityEstimate",
    "SmoothnessReport",
    "oracle_driftless",
    "bandwidth_rule",
    "derivative_bandwidth_rule",
    "kde",
    "smoothness_diagnostic",
    "l1_distance",
    "DEFAULT_GRID_POINTS",
    "GRID_HALFWIDTH_STDS",
    "D1_THRESHOLD",
    "D2_THRESHOLD",
    "CALIBRATED_MIN_SAMPLES",
    "MAX_MESH_NODES",
]

DEFAULT_GRID_POINTS = 512
GRID_HALFWIDTH_STDS = 6.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Binned estimation: the mesh spacing is at most h / _MESH_PER_BANDWIDTH, the
# mesh reaches _MESH_TAIL bandwidths past the grid, and the convolution
# length n_mesh + half is capped so that no bandwidth or grid size alone can
# size the allocation.
_MESH_PER_BANDWIDTH = 64
_MESH_TAIL = 10.0
MAX_MESH_NODES = 2**22
# The mesh bound counts at least two nodes per grid step plus 9 (see
# _mesh_plan), so a larger default grid would pass the cap at any
# bandwidth; it is refused before it is built.
_MAX_GRID_POINTS = (MAX_MESH_NODES - 9) // 2 + 1

# Ladder verdict thresholds for the relative L2 discrepancy of derivative
# estimates between adjacent rungs on the central window, calibrated on
# N ~ 1e5..2e5 samples at the derivative bandwidth rule: clean Gaussian
# samples stay below ~0.19 (d1) / ~0.39 (d2) while a 10% point-mass
# contamination sits above ~0.45 (d1) / ~0.85 (d2).  Below
# CALIBRATED_MIN_SAMPLES the Gaussian baseline itself crosses the d1
# threshold (measured ~0.25 at N=2e4), so the report flags the verdict.
D1_THRESHOLD = 0.25
D2_THRESHOLD = 0.50
CALIBRATED_MIN_SAMPLES = 50_000


def oracle_driftless(x0: float, sigma_const: float, alpha: float, t: float,
                     z):
    """Exact terminal density for zero drift and constant diffusion.

    The process is then ``X_t = c + sigma (B_t + beta S_t)`` with
    ``c = x0/(1-alpha)``, ``beta = alpha/(1-alpha)`` and ``S`` the running
    maximum of ``B`` (for negative ``sigma`` replace ``B`` by ``-B``,
    which has the same law).  Integrating the classical joint density

        f(b, s) = sqrt(2/(pi t^3)) (2s - b) exp(-(2s - b)^2 / (2t)),
        s >= max(b, 0),

    over the line ``b + beta s = w`` with ``w = (z - c)/|sigma|`` after the
    substitution ``u = (2 + beta) s - w`` leaves ``u e^{-u^2/(2t)}`` times
    a constant, which integrates in closed form:

        p(w) = sqrt(2/(pi t)) / (2 + beta) * exp(-u_lo^2 / (2t)),
        u_lo = (1 - alpha) w  if w >= 0   (support constraint s >= w (1-alpha)),
        u_lo = -w             if w < 0    (only s >= 0 binds).

    Total mass is 1 because the two half-line Gaussian integrals sum to
    ``1 + 1/(1-alpha) = 2 + beta``.  At ``alpha = 0`` this collapses to the
    ``N(x0, sigma^2 t)`` density.  The two branches meet with equal value
    and slope at ``z = c`` but different curvature, so for ``alpha != 0``
    the density is C^1 and not C^2 there: its one-sided second
    derivatives are ``-p(c) / (sigma^2 t)`` below ``c`` and
    ``-(1-alpha)^2 p(c) / (sigma^2 t)`` above, at every ``t > 0``, also
    where ``bounds.max_horizon`` is infinite.  The bandwidth-ladder
    diagnostic does not resolve that jump: it reads "pass" on
    ``configs/density.json`` (``alpha = 0.5``).
    """
    if not (alpha < 1.0):
        raise ConfigError(f"alpha must be < 1, got {alpha!r}")
    if not (t > 0.0 and math.isfinite(t)):
        raise ConfigError(f"t must be positive and finite, got {t!r}")
    if sigma_const == 0.0:
        raise DegenerateDiffusion(
            "sigma = 0 gives a point mass, not a density")
    sig = abs(float(sigma_const))
    c = float(x0) / (1.0 - alpha)
    beta = alpha / (1.0 - alpha)
    z_arr = np.asarray(z, float)
    w = (z_arr - c) / sig
    u_lo = np.where(w >= 0.0, (1.0 - alpha) * w, -w)
    p = (math.sqrt(2.0 / (math.pi * t)) / (2.0 + beta)
         * np.exp(-u_lo * u_lo / (2.0 * t)) / sig)
    return float(p) if z_arr.ndim == 0 else p


def _mean_std(sample: np.ndarray, ddof: int = 1) -> tuple[float, float]:
    """``np.mean`` and ``np.std(ddof=ddof)`` of ``sample`` as floats.

    Either one that comes out non-finite on a finite sample has
    overflowed in its own sums or squares: it is taken again on the
    sample scaled by a power of two that brings its largest magnitude
    into ``[0.5, 1)``, and scaled back (Chan, Golub & LeVeque, *Amer.
    Statist.* 37, 1983; Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., SIAM, 2002).  The scaling is exact for every
    value that stays normal.  A finite first try is returned as it is.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(sample))
        std = float(np.std(sample, ddof=ddof))
    if (math.isfinite(mean) and math.isfinite(std)) \
            or not np.all(np.isfinite(sample)):
        return mean, std
    scale = math.ldexp(1.0, -math.frexp(float(np.max(np.abs(sample))))[1])
    scaled = sample * scale
    if not math.isfinite(mean):
        mean = float(np.mean(scaled)) / scale
    if not math.isfinite(std):
        std = float(np.std(scaled, ddof=ddof)) / scale
    return mean, std


def bandwidth_rule(sample: np.ndarray) -> float:
    """Normal-reference bandwidth ``1.06 s N^{-1/5}``."""
    n = sample.size
    if n < 2:
        raise EmptySample("bandwidth rule needs at least 2 samples")
    return 1.06 * _mean_std(sample)[1] * n ** (-0.2)


def derivative_bandwidth_rule(sample: np.ndarray) -> float:
    """Wider rule ``1.06 s N^{-1/9}`` for derivative-ladder estimates."""
    n = sample.size
    if n < 2:
        raise EmptySample("bandwidth rule needs at least 2 samples")
    return 1.06 * _mean_std(sample)[1] * n ** (-1.0 / 9.0)


@dataclass(frozen=True)
class DensityEstimate:
    """Kernel density estimate ``pdf`` on ``grid`` at ``bandwidth``."""

    grid: np.ndarray
    pdf: np.ndarray
    bandwidth: float
    n_samples: int
    sample_mean: float
    sample_std: float

    def __post_init__(self) -> None:
        self.grid.flags.writeable = False
        self.pdf.flags.writeable = False

    def normalization(self) -> float:
        return float(np.trapezoid(self.pdf, self.grid))


def _mesh_plan(h: float, dz: float, n_grid: int, below: float,
               above: float) -> tuple[int, int, int, int, int]:
    """Layout of the binning mesh for bandwidth ``h`` on an ``n_grid``-point
    grid of spacing ``dz``, for a sample reaching ``below`` past the first
    grid point and ``above`` past the last (negative when it stops short).

    A pure function of its arguments.  The mesh steps ``r`` times per grid
    step, with ``r = 2 ceil(32 dz / h)`` even, so its spacing is ``h/64`` or
    finer and every grid point and grid midpoint is a node.  It reaches
    ``_MESH_TAIL`` bandwidths past each grid end, no further than the
    sample, plus one node.  Returns ``(r, n_lo, n_mesh, half, n_fft)``:
    nodes below the first grid point, mesh nodes, kernel half-width in
    nodes, and FFT length.  Raises :class:`ConfigError` naming the
    bandwidth when ``n_mesh + half``, and with it the FFT length, could
    exceed :data:`MAX_MESH_NODES`.
    """
    steps = 0.5 * _MESH_PER_BANDWIDTH * dz / h
    r = 2.0 * math.ceil(steps) if steps <= MAX_MESH_NODES else 2.0 * steps
    tail = _MESH_TAIL * h
    ext_lo = max(0.0, min(tail, below))
    ext_hi = max(0.0, min(tail, above))
    reach = (n_grid - 1) * dz + ext_lo + ext_hi
    # an upper bound on n_mesh + half, taken in floating point so that it
    # is checked before any of it becomes an integer size
    size = (reach + min(tail, reach)) * r / dz + 9.0
    if not size <= MAX_MESH_NODES:
        raise ConfigError(
            f"config: bandwidth: {h:.6g} on a {n_grid}-point grid needs a "
            f"kernel mesh of about {size:.3g} nodes, more than "
            f"{MAX_MESH_NODES}")
    r = int(r)
    delta = dz / r
    n_lo = math.ceil(ext_lo / delta) + 1
    n_mesh = n_lo + (n_grid - 1) * r + math.ceil(ext_hi / delta) + 2
    half = min(math.ceil(tail / delta), n_mesh - 1)
    # circular convolution of length >= n_mesh + half never wraps a kernel
    # offset within +-half onto another
    n_fft = 1 << (n_mesh + half - 1).bit_length()
    return r, n_lo, n_mesh, half, n_fft


# Hermite polynomials He_k: the order-k derivative of a kernel estimate sums
# (-1)^k He_k(u) phi(u) / h^(k+1) over the sample.
_HERMITE = (lambda u: 1.0, lambda u: u, lambda u: u * u - 1.0)


def _kernel_sums(sample: np.ndarray, zs: np.ndarray, h: float,
                 orders: tuple[int, ...]) -> list[np.ndarray]:
    """Binned kernel estimates at bandwidth ``h`` on the uniform grid
    ``zs``: the density's derivative of each order in ``orders`` (0, 1
    or 2), one convolution each, in that order."""
    n_grid = zs.size
    dz = float(zs[-1] - zs[0]) / (n_grid - 1)
    r, n_lo, n_mesh, half, n_fft = _mesh_plan(
        h, dz, n_grid, float(zs[0] - sample.min()),
        float(sample.max() - zs[-1]))
    delta = dz / r

    # linear binning; a sample on a node puts its whole weight there
    t = (sample - zs[0]) / delta + n_lo
    t = t[(t >= 0.0) & (t <= n_mesh - 1)]
    j = np.minimum(t.astype(np.int64), n_mesh - 2)
    w = t - j
    counts = (np.bincount(j, 1.0 - w, minlength=n_mesh)
              + np.bincount(j + 1, w, minlength=n_mesh))
    counts_f = np.fft.rfft(counts, n_fft)

    # kernels at circular offsets k = node(z) - node(x), so u = k delta / h
    k = np.fft.fftfreq(n_fft, 1.0 / n_fft)
    u = k * (delta / h)
    phi = np.where(np.abs(k) <= half, np.exp(-0.5 * u * u), 0.0)
    at_grid = n_lo + r * np.arange(n_grid)
    norm = sample.size * h * _SQRT_2PI
    scale = (norm, -norm * h, norm * h * h)

    sums = []
    for order in orders:
        kernel = _HERMITE[order](u) * phi
        s = np.fft.irfft(counts_f * np.fft.rfft(kernel), n_fft)[at_grid]
        if order == 0:
            # roundoff of the transform can dip below zero where the sum
            # underflows
            np.maximum(s, 0.0, out=s)
        sums.append(s / scale[order])
    return sums


def _check_n_grid(n_grid: int) -> None:
    """Refuse a default grid of more points than a kernel mesh holds;
    :func:`_checked` runs it before the grid is allocated, the
    ``density`` command before it simulates."""
    if not n_grid <= _MAX_GRID_POINTS:
        raise ConfigError(
            f"config: n_grid: must be at most {_MAX_GRID_POINTS}, the "
            f"most a {MAX_MESH_NODES}-node kernel mesh can hold, "
            f"got {n_grid}")


def _checked(sample, bandwidth: float | None, eval_grid, n_grid: int,
             rule) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    """The input check :func:`kde` and :func:`smoothness_diagnostic`
    share.  Returns the sample as a flat float array, the evaluation grid,
    the bandwidth (``rule(sample)`` when ``bandwidth`` is None), and the
    sample mean and standard deviation.  The default grid spans the mean
    plus or minus :data:`GRID_HALFWIDTH_STDS` standard deviations in
    ``n_grid`` points; a given grid must be strictly increasing and
    uniformly spaced.

    A given bandwidth, grid or ``n_grid`` that fails raises
    :class:`ConfigError`.  Where what fails comes from the sample itself,
    a rule bandwidth that is zero or not finite or a default grid that is
    not finite and uniform, it raises :class:`EmptySample`."""
    sample = np.ascontiguousarray(np.asarray(sample, float).ravel())
    if sample.size < 2:
        raise EmptySample(
            f"kernel estimation needs at least 2 samples, got {sample.size}")
    if not np.all(np.isfinite(sample)):
        raise EmptySample("sample contains non-finite values")
    mean, std = _mean_std(sample)
    if bandwidth is None:
        bandwidth = rule(sample)
        if not (bandwidth > 0.0 and math.isfinite(bandwidth)):
            raise EmptySample(
                f"bandwidth rule gives {bandwidth!r} on a sample of "
                f"standard deviation {std!r}")
    bandwidth = float(bandwidth)
    if not (bandwidth > 0.0 and math.isfinite(bandwidth)):
        raise ConfigError(f"bandwidth must be positive, got {bandwidth!r}")
    default_grid = eval_grid is None
    if default_grid:
        _check_n_grid(n_grid)
        half = GRID_HALFWIDTH_STDS * (std if std > 0.0 else bandwidth)
        with np.errstate(over="ignore", invalid="ignore"):   # refused below
            eval_grid = np.linspace(mean - half, mean + half, n_grid)
    zs = np.ascontiguousarray(np.asarray(eval_grid, float))
    if zs.ndim != 1 or zs.size < 2:
        raise ConfigError(
            "evaluation grid must be a 1-D array of >= 2 points")
    # uniform to 1e-6 of the spacing, far looser than linspace roundoff
    gaps = np.diff(zs)
    spacing = (zs[-1] - zs[0]) / (zs.size - 1)
    if not (np.all(gaps > 0.0) and math.isfinite(spacing)
            and float(np.max(np.abs(gaps - spacing))) <= 1e-6 * spacing):
        if default_grid:
            raise EmptySample(
                f"no uniform evaluation grid about a sample of mean "
                f"{mean!r} and standard deviation {std!r}")
        raise ConfigError(
            "evaluation grid must be strictly increasing and uniformly "
            "spaced")
    return sample, zs, bandwidth, mean, std


def kde(sample, bandwidth: float | None = None,
        eval_grid: np.ndarray | None = None,
        n_grid: int = DEFAULT_GRID_POINTS) -> DensityEstimate:
    """Gaussian-kernel density estimate.

    ``bandwidth=None`` applies :func:`bandwidth_rule`.  The default grid
    spans the sample mean plus or minus six sample standard deviations,
    wide enough that the estimate integrates to 1 within a couple of
    percent.  A given ``eval_grid`` must be strictly increasing and
    uniformly spaced (a ``linspace``).

    The estimate is binned: the sample is linearly binned onto a mesh of
    spacing ``h/64`` or finer that holds every grid point (see
    :func:`_mesh_plan`), and the counts are convolved with the sampled
    kernel ``phi(u)`` by FFT; :func:`smoothness_diagnostic` convolves the
    same counts with ``u phi(u)`` and ``(u^2 - 1) phi(u)`` for the first
    two derivatives.  For the estimates the package builds (the pdf at
    :func:`bandwidth_rule` and :func:`derivative_bandwidth_rule`, and the
    derivatives at half, one and two times either) the result agrees with
    the direct sums over the sample to within ``1e-4`` of each channel's
    maximum absolute value (tested on normal, perturbed and point-mass
    samples of 10^5 draws).  Binning moves each sample's kernel by at
    most ``(h_mesh/h)^2 max|K''| / 8``, at most ``9.2e-5`` of the
    kernel's maximum for ``K = (u^2 - 1) phi``, and not at all for a
    sample on a mesh node.  Samples more than ten bandwidths beyond the
    grid are left out and kernels are cut at ten bandwidths; what that
    drops is below ``1e-19`` of a kernel's maximum.  A bandwidth so small
    against the grid that the mesh would exceed :data:`MAX_MESH_NODES`
    raises :class:`ConfigError`, and so does an ``n_grid`` too large for
    any bandwidth, before the grid is built.
    """
    sample, zs, h, mean, std = _checked(sample, bandwidth, eval_grid,
                                        n_grid, bandwidth_rule)
    (pdf,) = _kernel_sums(sample, zs, h, (0,))
    return DensityEstimate(grid=zs, pdf=pdf, bandwidth=h,
                           n_samples=int(sample.size), sample_mean=mean,
                           sample_std=std)


@dataclass(frozen=True)
class SmoothnessReport:
    """Bandwidth-ladder stability verdict.

    A stability heuristic, not a proof: it measures how much the
    derivative estimates move when the bandwidth halves or doubles,
    normalized so that 1.0 sits at the configured threshold.
    ``bandwidth`` is the middle rung ``h`` of the ladder ``h/2, h, 2h``,
    and ``pairs`` holds rows ``(h_low, h_high, d1_discrepancy,
    d2_discrepancy)`` for its two adjacent pairs.
    """

    verdict: str
    score: float
    d1_score: float
    d2_score: float
    d1_threshold: float
    d2_threshold: float
    bandwidth: float
    window: tuple[float, float]
    pairs: tuple[tuple[float, float, float, float], ...]
    n_samples: int = 0
    note: str = ("bandwidth-ladder stability heuristic; "
                 "not a proof of smoothness")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    denom = max(na, nb)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b)) / denom


def smoothness_diagnostic(sample, grid: np.ndarray | None = None
                          ) -> SmoothnessReport:
    """Stability of derivative estimates across a bandwidth ladder.

    The first and second derivatives of the density are estimated on
    ``grid`` (by default the grid :func:`kde` would choose) at half, one
    and two times ``h = derivative_bandwidth_rule(sample)``: estimating
    derivatives well needs more smoothing than the density itself, and at
    the density-optimal bandwidth the second-derivative channel is noise
    even for smooth targets.  For each adjacent pair of bandwidths the
    relative L2 discrepancy of each derivative is taken over the central
    window (sample mean plus or minus two standard deviations, where
    there is enough mass for the estimates to mean anything).  The
    verdict fails when any pair exceeds its channel threshold.
    """
    sample, zs, h, mean, std = _checked(sample, None, grid,
                                        DEFAULT_GRID_POINTS,
                                        derivative_bandwidth_rule)
    lo = mean - 2.0 * std
    hi = mean + 2.0 * std
    win = (zs >= lo) & (zs <= hi)
    if not np.any(win):
        raise ConfigError("evaluation grid misses the central window")

    rungs = [(hk, *_kernel_sums(sample, zs, hk, (1, 2)))
             for hk in (0.5 * h, h, 2.0 * h)]
    pairs = []
    d1_worst = 0.0
    d2_worst = 0.0
    for (ha, a1, a2), (hb, b1, b2) in zip(rungs[:-1], rungs[1:]):
        disc1 = _rel_l2(a1[win], b1[win])
        disc2 = _rel_l2(a2[win], b2[win])
        pairs.append((ha, hb, disc1, disc2))
        d1_worst = max(d1_worst, disc1)
        d2_worst = max(d2_worst, disc2)

    d1_score = d1_worst / D1_THRESHOLD
    d2_score = d2_worst / D2_THRESHOLD
    score = max(d1_score, d2_score)
    n = int(sample.size)
    note = SmoothnessReport.note
    if n < CALIBRATED_MIN_SAMPLES:
        note += (f"; below the calibrated sample size "
                 f"({n} < {CALIBRATED_MIN_SAMPLES}), "
                 f"ladder noise may dominate the verdict")
    return SmoothnessReport(
        verdict="pass" if score <= 1.0 else "fail",
        score=score, d1_score=d1_score, d2_score=d2_score,
        d1_threshold=D1_THRESHOLD, d2_threshold=D2_THRESHOLD,
        bandwidth=h, window=(float(lo), float(hi)), pairs=tuple(pairs),
        n_samples=n, note=note)


def l1_distance(estimate: DensityEstimate, oracle_values) -> float:
    """Trapezoidal ``int |p_hat - p| dz`` over the estimate's grid."""
    p = np.asarray(oracle_values, float)
    if p.shape != estimate.pdf.shape:
        raise GridMismatch(
            f"oracle values have shape {p.shape}, "
            f"estimate has {estimate.pdf.shape}")
    return float(np.trapezoid(np.abs(estimate.pdf - p), estimate.grid))
