"""Monte Carlo estimation of the terminal law, with a closed-form check.

The pipeline is terminal sample (``integrate.simulate_terminal``) -> kde
-> diagnostics.  Kernel estimates use the Gaussian kernel; the default
bandwidth is the normal-reference rule ``1.06 s N^{-1/5}``.  Estimating
density *derivatives* well needs more smoothing than estimating the
density itself, so the bandwidth-ladder diagnostic is calibrated around
the slower-shrinking rule ``1.06 s N^{-1/9}`` (at the density-optimal
bandwidth the second derivative of the estimate is noise-dominated even
for a clean Gaussian at sample sizes around 10^5, and no stability
verdict is possible).

Kernel sums are binned, not direct: the sample is linearly binned onto a
uniform mesh and the counts are convolved with the kernels by FFT
(Silverman, AS 176, Appl. Statist. 31, 1982; Wand, J. Comput. Graph.
Statist. 3, 1994), O(N + mesh log mesh) instead of O(N x grid).  See
:func:`kde` for the error bound, the uniform-grid requirement and the mesh
cap.

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
    "LadderRung",
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
    and slope at ``z = c`` but different curvature, so the density is C^1
    and not C^2 there; the ladder diagnostic can resolve that for large
    ``alpha``.
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


def bandwidth_rule(sample: np.ndarray) -> float:
    """Normal-reference bandwidth ``1.06 s N^{-1/5}``."""
    n = sample.size
    if n < 2:
        raise EmptySample("bandwidth rule needs at least 2 samples")
    return 1.06 * float(np.std(sample, ddof=1)) * n ** (-0.2)


def derivative_bandwidth_rule(sample: np.ndarray) -> float:
    """Wider rule ``1.06 s N^{-1/9}`` for derivative-ladder estimates."""
    n = sample.size
    if n < 2:
        raise EmptySample("bandwidth rule needs at least 2 samples")
    return 1.06 * float(np.std(sample, ddof=1)) * n ** (-1.0 / 9.0)


@dataclass(frozen=True)
class LadderRung:
    """Kernel estimate of the density and its first two derivatives at
    one bandwidth."""

    bandwidth: float
    pdf: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.pdf, self.d1, self.d2):
            a.flags.writeable = False


@dataclass(frozen=True)
class DensityEstimate:
    """Kernel density estimate with its bandwidth ladder.

    ``pdf`` is the estimate at ``bandwidth``; ``ladder`` holds rungs at
    half, one and two times that bandwidth (empty when ladder evaluation
    was disabled).
    """

    grid: np.ndarray
    pdf: np.ndarray
    bandwidth: float
    n_samples: int
    sample_mean: float
    sample_std: float
    ladder: tuple[LadderRung, ...]

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


def _kernel_sums(sample: np.ndarray, zs: np.ndarray, h: float
                 ) -> LadderRung:
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

    def convolve(kernel):
        return np.fft.irfft(counts_f * np.fft.rfft(kernel), n_fft)[at_grid]

    pdf = convolve(phi)
    d1 = convolve(u * phi)                # sum of u phi(u)
    d2 = convolve((u * u - 1.0) * phi)    # sum of (u^2 - 1) phi(u)
    # roundoff of the transform can dip below zero where the sum underflows
    np.maximum(pdf, 0.0, out=pdf)
    norm = sample.size * h * _SQRT_2PI
    return LadderRung(bandwidth=h,
                      pdf=pdf / norm,
                      d1=-d1 / (norm * h),
                      d2=d2 / (norm * h * h))


def kde(sample, bandwidth: float | None = None,
        eval_grid: np.ndarray | None = None,
        ladder: bool = True,
        n_grid: int = DEFAULT_GRID_POINTS) -> DensityEstimate:
    """Gaussian-kernel density estimate.

    ``bandwidth=None`` applies :func:`bandwidth_rule`.  The default grid
    spans the sample mean plus or minus six sample standard deviations,
    wide enough that the estimate integrates to 1 within a couple of
    percent.  A given ``eval_grid`` must be strictly increasing and
    uniformly spaced (a ``linspace``).  With ``ladder`` the first two
    derivatives are also estimated at half, one and two times the
    bandwidth, the input :func:`smoothness_diagnostic` consumes.

    Each bandwidth is one binned estimate: the sample is linearly binned
    onto a mesh of spacing ``h/64`` or finer that holds every grid point
    (see :func:`_mesh_plan`), and the counts are convolved with the
    sampled kernels ``phi(u)``, ``u phi(u)`` and ``(u^2 - 1) phi(u)`` by
    FFT.  For every rung of the estimates the package builds (at
    :func:`bandwidth_rule` and :func:`derivative_bandwidth_rule`) the
    result agrees with the direct sums over the sample to within
    ``1e-4`` of each channel's maximum absolute value, for the pdf and
    both derivatives (tested on normal, perturbed and point-mass samples
    of 10^5 draws).  Binning moves each sample's kernel by at most
    ``(h_mesh/h)^2 max|K''| / 8``, at most ``9.2e-5`` of the kernel's
    maximum for ``K = (u^2 - 1) phi``, and not at all for a sample on a
    mesh node.  Samples more than ten bandwidths beyond the grid are left
    out and kernels are cut at ten bandwidths; what that drops is below
    ``1e-19`` of a kernel's maximum.  A bandwidth so small against the
    grid that the mesh would exceed :data:`MAX_MESH_NODES` raises
    :class:`ConfigError`.
    """
    sample = np.ascontiguousarray(np.asarray(sample, float).ravel())
    if sample.size < 2:
        raise EmptySample(
            f"kernel estimation needs at least 2 samples, got {sample.size}")
    if not np.all(np.isfinite(sample)):
        raise EmptySample("sample contains non-finite values")
    mean = float(np.mean(sample))
    std = float(np.std(sample, ddof=1))
    if bandwidth is None:
        bandwidth = bandwidth_rule(sample)
        if bandwidth <= 0.0:
            raise ConfigError(
                "bandwidth rule degenerates on a zero-spread sample; "
                "pass an explicit bandwidth")
    bandwidth = float(bandwidth)
    if not (bandwidth > 0.0 and math.isfinite(bandwidth)):
        raise ConfigError(f"bandwidth must be positive, got {bandwidth!r}")
    if eval_grid is None:
        half = GRID_HALFWIDTH_STDS * (std if std > 0.0 else bandwidth)
        eval_grid = np.linspace(mean - half, mean + half, n_grid)
    zs = np.ascontiguousarray(np.asarray(eval_grid, float))
    if zs.ndim != 1 or zs.size < 2:
        raise ConfigError("eval_grid must be a 1-D array of >= 2 points")
    # uniform to 1e-6 of the spacing, far looser than linspace roundoff
    gaps = np.diff(zs)
    spacing = (zs[-1] - zs[0]) / (zs.size - 1)
    if not (np.all(gaps > 0.0) and math.isfinite(spacing)
            and float(np.max(np.abs(gaps - spacing))) <= 1e-6 * spacing):
        raise ConfigError(
            "eval_grid must be strictly increasing and uniformly spaced")

    rungs: tuple[LadderRung, ...]
    if ladder:
        rungs = tuple(_kernel_sums(sample, zs, h)
                      for h in (0.5 * bandwidth, bandwidth, 2.0 * bandwidth))
        base = rungs[1]
    else:
        rungs = ()
        base = _kernel_sums(sample, zs, bandwidth)
    return DensityEstimate(grid=zs, pdf=base.pdf, bandwidth=bandwidth,
                           n_samples=int(sample.size), sample_mean=mean,
                           sample_std=std, ladder=rungs)


@dataclass(frozen=True)
class SmoothnessReport:
    """Bandwidth-ladder stability verdict.

    A stability heuristic, not a proof: it measures how much the
    derivative estimates move when the bandwidth halves or doubles,
    normalized so that 1.0 sits at the configured threshold.  ``pairs``
    holds rows ``(h_low, h_high, d1_discrepancy, d2_discrepancy)``.
    """

    verdict: str
    score: float
    d1_score: float
    d2_score: float
    d1_threshold: float
    d2_threshold: float
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


def smoothness_diagnostic(estimate: DensityEstimate,
                          d1_threshold: float = D1_THRESHOLD,
                          d2_threshold: float = D2_THRESHOLD
                          ) -> SmoothnessReport:
    """Stability of derivative estimates across the bandwidth ladder.

    For each adjacent rung pair the relative L2 discrepancy of the first
    and second derivative estimates is taken over the central window
    (sample mean plus or minus two standard deviations, where there is
    enough mass for the estimates to mean anything).  The verdict fails
    when any pair exceeds its channel threshold.  Defaults are calibrated
    for ladders built at :func:`derivative_bandwidth_rule`; at the
    density-optimal bandwidth the second-derivative channel is noise even
    for smooth targets and the verdict would be meaningless.
    """
    if len(estimate.ladder) < 3:
        raise ConfigError(
            "smoothness diagnostic needs a ladder with >= 3 bandwidths "
            "(build the estimate with ladder=True)")
    lo = estimate.sample_mean - 2.0 * estimate.sample_std
    hi = estimate.sample_mean + 2.0 * estimate.sample_std
    win = (estimate.grid >= lo) & (estimate.grid <= hi)
    if not np.any(win):
        raise ConfigError("evaluation grid misses the central window")

    pairs = []
    d1_worst = 0.0
    d2_worst = 0.0
    rungs = sorted(estimate.ladder, key=lambda r: r.bandwidth)
    for a, b in zip(rungs[:-1], rungs[1:]):
        disc1 = _rel_l2(a.d1[win], b.d1[win])
        disc2 = _rel_l2(a.d2[win], b.d2[win])
        pairs.append((a.bandwidth, b.bandwidth, disc1, disc2))
        d1_worst = max(d1_worst, disc1)
        d2_worst = max(d2_worst, disc2)

    d1_score = d1_worst / d1_threshold
    d2_score = d2_worst / d2_threshold
    score = max(d1_score, d2_score)
    note = SmoothnessReport.note
    if estimate.n_samples < CALIBRATED_MIN_SAMPLES:
        note += (f"; below the calibrated sample size "
                 f"({estimate.n_samples} < {CALIBRATED_MIN_SAMPLES}), "
                 f"ladder noise may dominate the verdict")
    return SmoothnessReport(
        verdict="pass" if score <= 1.0 else "fail",
        score=score, d1_score=d1_score, d2_score=d2_score,
        d1_threshold=d1_threshold, d2_threshold=d2_threshold,
        window=(float(lo), float(hi)), pairs=tuple(pairs),
        n_samples=estimate.n_samples, note=note)


def l1_distance(estimate: DensityEstimate, oracle_values) -> float:
    """Trapezoidal ``int |p_hat - p| dz`` over the estimate's grid."""
    p = np.asarray(oracle_values, float)
    if p.shape != estimate.pdf.shape:
        raise GridMismatch(
            f"oracle values have shape {p.shape}, "
            f"estimate has {estimate.pdf.shape}")
    return float(np.trapezoid(np.abs(estimate.pdf - p), estimate.grid))
