"""Regime classification and derivative-norm bounds.

The quantity

    theta(t0, alpha, Lb) = sqrt(2 Lb^2 t0^2 + 8 alpha^2) + Lb^2 t0^2 + 4 alpha^2

controls how much the drift (through the bound ``Lb`` on ``|b'|``) and the
supremum feedback (through ``alpha``) can move the squared Cameron-Martin
norm of the pathwise derivative between nearby times.  While
``theta < 1/2`` the norm cannot drop to zero on ``[0, t0]``: combining the
oscillation bound with the supremum lower bound yields a strictly positive
floor under the norm at every time, the quantitative route to smoothness of
the terminal density.  All bounds here are closed-form evaluations; the
Monte Carlo sweeps that exercise them live with the verification suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDiffusion
from .model import ProblemSpec, ValidatedSpec, validate

__all__ = [
    "theta",
    "diff_bound",
    "sup_lower_bound",
    "final_lower_bound",
    "max_horizon",
    "RegimeReport",
    "regime_report",
    "ADMISSIBLE_THRESHOLD",
]

ADMISSIBLE_THRESHOLD = 0.5
_CURVE_POINTS = 100


def _check_nonneg(name: str, value: float) -> float:
    v = float(value)
    if not math.isfinite(v) or v < 0.0:
        raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
    return v


def theta(t0: float, alpha: float, lb: float) -> float:
    """Oscillation coefficient ``sqrt(2 Lb^2 t0^2 + 8 a^2) + Lb^2 t0^2 + 4 a^2``.

    ``lb`` bounds ``|b'|`` on the relevant domain.  Increasing in ``t0``,
    ``lb`` and ``|alpha|``; zero only when both the drift slope and the
    feedback vanish.
    """
    t0 = _check_nonneg("t0", t0)
    lb = _check_nonneg("lb", lb)
    a2 = float(alpha) * float(alpha)
    u = lb * lb * t0 * t0
    return math.sqrt(2.0 * u + 8.0 * a2) + u + 4.0 * a2


def diff_bound(t1: float, t2: float, alpha: float, lb: float,
               sup_dx2: float) -> float:
    """Bound on ``| ||DX_{t2}||^2 - ||DX_{t1}||^2 |`` for one path:
    ``2 * theta(|t2 - t1|, alpha, lb) * sup_dx2`` with ``sup_dx2`` the
    path's running maximum of the squared derivative norm."""
    sup_dx2 = _check_nonneg("sup_dx2", sup_dx2)
    gap = abs(float(t2) - float(t1))
    return 2.0 * theta(gap, alpha, lb) * sup_dx2


def sup_lower_bound(t: float, alpha: float, lb: float,
                    sigma_bar: float) -> float:
    """Floor under ``sup_{s<=t} ||DX_s||^2``:

        sigma_bar^2 * t / (2 (1 + 2 Lb^2 t^2 + 2 alpha^2)).
    """
    t = _check_nonneg("t", t)
    lb = _check_nonneg("lb", lb)
    sigma_bar = _check_nonneg("sigma_bar", sigma_bar)
    a2 = float(alpha) * float(alpha)
    return sigma_bar * sigma_bar * t / (
        2.0 * (1.0 + 2.0 * lb * lb * t * t + 2.0 * a2))


def final_lower_bound(t: float, t0: float, alpha: float, lb: float,
                      sigma_bar: float) -> float:
    """Floor under ``||DX_t||^2`` itself, valid for ``t <= t0`` while
    ``theta(t0, alpha, lb) < 1/2``:

        (1 - 2 theta(t0, alpha, lb)) * sup_lower_bound(t).

    Outside that regime the prefactor is negative and the returned value is
    vacuous; callers decide admissibility via :func:`theta` or
    :func:`max_horizon`.
    """
    return (1.0 - 2.0 * theta(t0, alpha, lb)) * sup_lower_bound(
        t, alpha, lb, sigma_bar)


def max_horizon(alpha: float, lb: float, rtol: float = 1e-12) -> float:
    """Largest ``t0`` with ``theta(t0, alpha, lb) <= 1/2``.

    Returns ``0.0`` when even ``t0 = 0`` is outside the regime
    (``2 sqrt(2) |alpha| + 4 alpha^2 >= 1/2``, i.e. beyond the feedback
    threshold ``(2 - sqrt(2))/4``), ``inf`` when the drift slope vanishes
    and the threshold never binds, and otherwise bisects the strictly
    increasing map ``t0 -> theta`` to the requested relative tolerance.
    """
    lb = _check_nonneg("lb", lb)
    if theta(0.0, alpha, lb) >= ADMISSIBLE_THRESHOLD:
        return 0.0
    if lb == 0.0:
        return math.inf
    lo, hi = 0.0, 1.0
    while theta(hi, alpha, lb) < ADMISSIBLE_THRESHOLD:
        lo = hi
        hi *= 2.0
        if hi > 1e300:  # pragma: no cover - unreachable for lb > 0
            return math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if theta(mid, alpha, lb) < ADMISSIBLE_THRESHOLD:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rtol * hi:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RegimeReport:
    """Classification of a problem at a requested horizon.

    ``lb``/``sigma_bar`` are the numbers actually used; for non-constant
    diffusion they describe the unit-diffusion transformed drift and the
    infimum of ``|sigma|`` (the lower bound then transfers to the original
    process through the transform), and ``transformed`` is set.  ``rigorous``
    is False whenever any input came from grid estimation, which only ever
    underestimates a sup-norm.
    """

    t0: float
    theta_at_t0: float
    admissible: bool
    t0_max: float
    alpha: float
    lb: float
    lb_source: str
    sigma_bar: float
    transformed: bool
    rigorous: bool
    lower_bound_curve: np.ndarray  # (m, 2) rows of (t, bound)

    def __post_init__(self) -> None:
        self.lower_bound_curve.flags.writeable = False


def regime_report(spec: ProblemSpec | ValidatedSpec, t0: float,
                  n_transform_nodes: int = 4097) -> RegimeReport:
    """Evaluate the regime machinery for one problem at horizon ``t0``.

    Constant diffusion uses the drift's ``|b'|`` bound directly.  Otherwise
    the problem is rewritten with unit diffusion (requiring ``|sigma|``
    bounded away from zero), the transformed drift slope is estimated on
    the transform's range, and the curve floor scales by ``inf |sigma|^2``.
    The curve is evaluated on ``[0, min(t0, t0_max)]``; when that interval
    is degenerate a single zero row is emitted.
    """
    t0 = _check_nonneg("t0", t0)
    vspec = validate(spec)
    alpha = vspec.alpha

    sigma_const = vspec.diffusion.constant_value
    if sigma_const is not None:
        lb = vspec.drift_bounds.sup_d1
        lb_source = vspec.drift_bounds.source
        sigma_bar = abs(sigma_const)
        transformed = False
    else:
        from .lamperti import build_transform, transformed_drift_bound
        if vspec.sigma_inf <= 0.0 or not vspec.sigma_sign_constant:
            raise DegenerateDiffusion(
                "regime classification with non-constant diffusion needs "
                "|sigma| bounded away from zero with a single sign")
        table = build_transform(vspec, n_nodes=n_transform_nodes)
        lb = transformed_drift_bound(table)
        lb_source = "grid"
        sigma_bar = vspec.sigma_inf
        transformed = True
    if not math.isfinite(lb):
        raise ConfigError(
            "drift slope bound is infinite; regime classification undefined")

    th = theta(t0, alpha, lb)
    t0_max = max_horizon(alpha, lb)
    admissible = th < ADMISSIBLE_THRESHOLD
    t0_eff = min(t0, t0_max)
    if t0_eff <= 0.0:
        curve = np.zeros((1, 2))
    else:
        ts = np.linspace(0.0, t0_eff, _CURVE_POINTS)
        vals = np.array([final_lower_bound(t, t0_eff, alpha, lb, sigma_bar)
                         for t in ts])
        curve = np.column_stack([ts, vals])
    rigorous = lb_source == "declared"
    return RegimeReport(t0=t0, theta_at_t0=th, admissible=admissible,
                        t0_max=t0_max, alpha=alpha, lb=lb,
                        lb_source=lb_source, sigma_bar=sigma_bar,
                        transformed=transformed, rigorous=rigorous,
                        lower_bound_curve=curve)
