"""Monte Carlo estimation of the terminal law, with a closed-form check.

The pipeline is terminal sample (``integrate.simulate_terminal``) -> kde.
:func:`kde` estimates the density with the Gaussian kernel at the
normal-reference bandwidth ``1.06 s N^{-1/5}``.

Kernel sums are binned, not direct: the sample is linearly binned onto a
uniform mesh and the counts are convolved with the kernel by FFT
(Silverman, AS 176, Appl. Statist. 31, 1982; Wand, J. Comput. Graph.
Statist. 3, 1994), O(N + mesh log mesh) instead of O(N x grid).  See
:func:`kde` for the error bound and the mesh cap.

In the driftless constant-``sigma`` case the terminal law is known in
closed form (:func:`oracle_driftless`), which turns the whole pipeline
into a measurable quantity: the L1 gap between the kernel estimate and
the oracle.  The same closed form states the law's smoothness exactly
(:func:`smoothness_diagnostic`): it is C^1 and, unless ``alpha = 0``,
not C^2 at ``c = x0/(1-alpha)``.  No smoothness is estimated from a
sample: a positive ``||DX_t||^2`` gives a density, but smoothness needs
higher Malliavin derivatives, which the running supremum lacks
(Nualart, *The Malliavin Calculus and Related Topics*, 2nd ed., 2006,
ch. 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDiffusion, EmptySample, GridMismatch

__all__ = [
    "DensityEstimate",
    "oracle_driftless",
    "bandwidth_rule",
    "kde",
    "smoothness_diagnostic",
    "l1_distance",
    "DEFAULT_GRID_POINTS",
    "GRID_HALFWIDTH_STDS",
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
# _mesh_plan), so a larger grid would pass the cap at any
# bandwidth; it is refused before it is built.
_MAX_GRID_POINTS = (MAX_MESH_NODES - 9) // 2 + 1


def _kink(x0: float, sigma_const: float, alpha: float,
          t: float) -> tuple[float, float]:
    """The driftless law's kink ``c = x0/(1-alpha)`` and ``|sigma|``, after
    the checks :func:`oracle_driftless` and :func:`smoothness_diagnostic`
    share."""
    if not (alpha < 1.0):
        raise ConfigError(f"alpha must be < 1, got {alpha!r}")
    if not (t > 0.0 and math.isfinite(t)):
        raise ConfigError(f"t must be positive and finite, got {t!r}")
    if sigma_const == 0.0:
        raise DegenerateDiffusion(
            "sigma = 0 gives a point mass, not a density")
    return float(x0) / (1.0 - alpha), abs(float(sigma_const))


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
    where ``bounds.max_horizon`` is infinite (:func:`smoothness_diagnostic`
    states them).
    """
    c, sig = _kink(x0, sigma_const, alpha, t)
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


def _kernel_sums(sample: np.ndarray, zs: np.ndarray, h: float) -> np.ndarray:
    """Binned Gaussian-kernel density estimate at bandwidth ``h`` on the
    uniform grid ``zs``, by one convolution."""
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

    # the kernel at circular offsets k = node(z) - node(x), so u = k delta / h
    k = np.fft.fftfreq(n_fft, 1.0 / n_fft)
    u = k * (delta / h)
    phi = np.where(np.abs(k) <= half, np.exp(-0.5 * u * u), 0.0)
    at_grid = n_lo + r * np.arange(n_grid)
    s = np.fft.irfft(np.fft.rfft(counts, n_fft) * np.fft.rfft(phi),
                     n_fft)[at_grid]
    # roundoff of the transform can dip below zero where the sum underflows
    np.maximum(s, 0.0, out=s)
    return s / (sample.size * h * _SQRT_2PI)


def _check_n_grid(n_grid: int) -> None:
    """Refuse a grid of fewer than 2 points, or of more than a kernel mesh
    holds; :func:`_checked` runs it before the grid is allocated, the
    ``density`` command before it simulates."""
    if n_grid < 2:
        raise ConfigError(f"config: n_grid: must be at least 2, got {n_grid}")
    if not n_grid <= _MAX_GRID_POINTS:
        raise ConfigError(
            f"config: n_grid: must be at most {_MAX_GRID_POINTS}, the "
            f"most a {MAX_MESH_NODES}-node kernel mesh can hold, "
            f"got {n_grid}")


def _checked(sample, bandwidth: float | None, n_grid: int
             ) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    """The input check of :func:`kde`.  Returns the sample as a flat float
    array, the evaluation grid, the bandwidth (``bandwidth_rule(sample)``
    when ``bandwidth`` is None), and the sample mean and standard
    deviation.  The grid spans the mean plus or minus
    :data:`GRID_HALFWIDTH_STDS` standard deviations in ``n_grid`` points.

    A given bandwidth or ``n_grid`` that fails raises :class:`ConfigError`.
    Where what fails comes from the sample itself, a rule bandwidth that
    is zero or not finite or a grid that is not finite and uniform, it
    raises :class:`EmptySample`."""
    sample = np.ascontiguousarray(np.asarray(sample, float).ravel())
    if sample.size < 2:
        raise EmptySample(
            f"kernel estimation needs at least 2 samples, got {sample.size}")
    if not np.all(np.isfinite(sample)):
        raise EmptySample("sample contains non-finite values")
    mean, std = _mean_std(sample)
    if bandwidth is None:
        bandwidth = bandwidth_rule(sample)
        if not (bandwidth > 0.0 and math.isfinite(bandwidth)):
            raise EmptySample(
                f"bandwidth rule gives {bandwidth!r} on a sample of "
                f"standard deviation {std!r}")
    bandwidth = float(bandwidth)
    if not (bandwidth > 0.0 and math.isfinite(bandwidth)):
        raise ConfigError(f"bandwidth must be positive, got {bandwidth!r}")
    _check_n_grid(n_grid)
    half = GRID_HALFWIDTH_STDS * (std if std > 0.0 else bandwidth)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        zs = np.linspace(mean - half, mean + half, n_grid)
    # uniform to 1e-6 of the spacing, far looser than linspace roundoff
    gaps = np.diff(zs)
    spacing = (zs[-1] - zs[0]) / (zs.size - 1)
    if not (np.all(gaps > 0.0) and math.isfinite(spacing)
            and float(np.max(np.abs(gaps - spacing))) <= 1e-6 * spacing):
        raise EmptySample(
            f"no uniform evaluation grid about a sample of mean "
            f"{mean!r} and standard deviation {std!r}")
    return sample, zs, bandwidth, mean, std


def kde(sample, bandwidth: float | None = None, *,
        n_grid: int = DEFAULT_GRID_POINTS) -> DensityEstimate:
    """Gaussian-kernel density estimate.

    ``bandwidth=None`` applies :func:`bandwidth_rule`.  The estimate is
    evaluated on ``n_grid`` uniformly spaced points spanning the sample
    mean plus or minus six sample standard deviations, wide enough that
    it integrates to 1 within a couple of percent.

    The estimate is binned: the sample is linearly binned onto a mesh of
    spacing ``h/64`` or finer that holds every grid point (see
    :func:`_mesh_plan`), and the counts are convolved with the sampled
    kernel ``phi(u)`` by FFT.  At :func:`bandwidth_rule` the result agrees
    with the direct sums over the sample to within ``1e-4`` of the
    estimate's maximum (tested on normal, perturbed and point-mass
    samples of 10^5 draws).  Binning moves each sample's kernel by at
    most ``(h_mesh/h)^2 max|phi''| / 8``, at most ``3.1e-5`` of the
    kernel's maximum, and not at all for a sample on a mesh node.
    Samples more than ten bandwidths beyond the grid are left out and
    kernels are cut at ten bandwidths; what that drops is below ``1e-19``
    of a kernel's maximum.  A bandwidth so small against the grid that
    the mesh would exceed :data:`MAX_MESH_NODES` raises
    :class:`ConfigError`, and so does an ``n_grid`` below 2 or too large
    for any bandwidth, before the grid is built.
    """
    sample, zs, h, mean, std = _checked(sample, bandwidth, n_grid)
    return DensityEstimate(grid=zs, pdf=_kernel_sums(sample, zs, h),
                           bandwidth=h, n_samples=int(sample.size),
                           sample_mean=mean, sample_std=std)


def smoothness_diagnostic(x0: float, sigma_const: float, alpha: float,
                          t: float) -> dict[str, float | bool]:
    """The exact smoothness of the driftless constant-``sigma`` law.

    The density :func:`oracle_driftless` is C^1 everywhere and smooth away
    from ``c = x0/(1-alpha)``, where its one-sided second derivatives are
    ``curvature_below = -p(c) / (sigma^2 t)`` and ``curvature_above =
    -(1-alpha)^2 p(c) / (sigma^2 t)``.  They differ unless ``alpha = 0``,
    so ``twice_differentiable`` is ``alpha == 0``.  Inputs are checked as
    :func:`oracle_driftless` checks them.
    """
    c, sig = _kink(x0, sigma_const, alpha, t)
    below = -oracle_driftless(x0, sigma_const, alpha, t, c) / sig / sig / t
    return {"c": c, "curvature_below": below,
            "curvature_above": (1.0 - alpha) * (1.0 - alpha) * below,
            "twice_differentiable": alpha == 0.0}


def l1_distance(estimate: DensityEstimate, oracle_values) -> float:
    """Trapezoidal ``int |p_hat - p| dz`` over the estimate's grid."""
    p = np.asarray(oracle_values, float)
    if p.shape != estimate.pdf.shape:
        raise GridMismatch(
            f"oracle values have shape {p.shape}, "
            f"estimate has {estimate.pdf.shape}")
    return float(np.trapezoid(np.abs(estimate.pdf - p), estimate.grid))
