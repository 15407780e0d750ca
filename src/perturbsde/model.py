"""Problem description layer: coefficients, specs, grids, and validation.

The objects here are plain frozen dataclasses.  A :class:`ProblemSpec` holds
the ingredients of the dynamics

    X_t = x0 + int_0^t b(X_s) ds + int_0^t sigma(X_s) dB_s + alpha * sup_{s<=t} X_s

with ``alpha < 1``.  Coefficients come from a small analytic catalog (plus a
callback and a tabulated escape hatch) so that first and second derivatives
and exact sup-norms are available without symbolic machinery.  ``validate``
turns a ``ProblemSpec`` into a :class:`ValidatedSpec` carrying effective
coefficient bounds; everything downstream consumes the validated form.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import (
    AlphaOutOfRange,
    ConfigError,
    DegenerateDiffusion,
    InconsistentDerivatives,
    UnknownPreset,
    UnsupportedOrder,
)

__all__ = [
    "Coefficient",
    "SupNormBounds",
    "EffectiveBounds",
    "ProblemSpec",
    "ValidatedSpec",
    "GridSpec",
    "validate",
    "PRESETS",
    "sup_norm_estimate",
    "validation_grid",
    "VALIDATION_GRID_SIZE",
    "FD_STEP",
    "FD_TOL",
]

# Defaults for the validation pass.  The grid is wide enough that desk-scale
# paths essentially never leave it, and fine enough that grid sup-norms of
# the catalog coefficients are accurate to ~1e-5.
VALIDATION_GRID_SIZE = 4096
FD_STEP = 1e-4
FD_TOL = 1e-6

# The coefficient catalog: preset id -> (required, optional) parameter
# names.  Callback coefficients carry closures and free-form params, so they
# have no parameter contract and no JSON form (None).
PRESETS: dict[str, tuple[frozenset[str], frozenset[str]] | None] = {
    "const": (frozenset({"value"}), frozenset()),
    "linear": (frozenset({"slope"}), frozenset({"intercept"})),
    "sine": (frozenset(),
             frozenset({"amplitude", "offset", "frequency", "phase"})),
    "tanh": (frozenset(), frozenset({"amplitude", "scale"})),
    "ornstein_uhlenbeck": (frozenset(), frozenset({"rate", "mean"})),
    "custom-callback": None,
    "custom-tabulated": (frozenset({"nodes", "values"}),
                         frozenset({"d1_values"})),
}


@dataclass(frozen=True)
class SupNormBounds:
    """Sup-norm declarations for a coefficient: ``sup |f|``, ``sup |f'|``,
    ``sup |f''|``.  ``None`` means unknown; ``math.inf`` means unbounded."""

    sup_f: float | None = None
    sup_d1: float | None = None
    sup_d2: float | None = None

    def get(self, order: int) -> float | None:
        return (self.sup_f, self.sup_d1, self.sup_d2)[order]


@dataclass(frozen=True)
class Coefficient:
    """A scalar coefficient ``f`` with evaluators for ``f``, ``f'``, ``f''``.

    Instances are built through the classmethod constructors (``const``,
    ``sine``, ...) rather than directly; the constructors attach vectorized
    evaluators and, for the analytic presets, exact sup-norm declarations.
    Evaluators accept floats or numpy arrays and return matching shapes.
    """

    preset_id: str
    params: Mapping[str, Any]
    declared_bounds: SupNormBounds | None = None
    _value: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False)
    _d1: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False)
    _d2: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.preset_id not in PRESETS:
            raise UnknownPreset(
                f"unknown coefficient preset {self.preset_id!r}; "
                f"catalog: {', '.join(PRESETS)}")
        if self._value is None:
            raise ConfigError(
                "Coefficient must be built via its classmethod constructors")

    # -- catalog constructors -------------------------------------------------

    @classmethod
    def const(cls, value: float,
              declared_bounds: SupNormBounds | None = None) -> "Coefficient":
        """f(x) = value."""
        v = float(value)
        bounds = declared_bounds or SupNormBounds(abs(v), 0.0, 0.0)
        return cls("const", {"value": v}, bounds,
                   _value=lambda x: np.full_like(np.asarray(x, float), v),
                   _d1=lambda x: np.zeros_like(np.asarray(x, float)),
                   _d2=lambda x: np.zeros_like(np.asarray(x, float)))

    @classmethod
    def linear(cls, slope: float, intercept: float = 0.0,
               declared_bounds: SupNormBounds | None = None) -> "Coefficient":
        """f(x) = slope * x + intercept."""
        a, c = float(slope), float(intercept)
        sup_f = abs(c) if a == 0.0 else math.inf
        bounds = declared_bounds or SupNormBounds(sup_f, abs(a), 0.0)
        return cls("linear", {"slope": a, "intercept": c}, bounds,
                   _value=lambda x: a * np.asarray(x, float) + c,
                   _d1=lambda x: np.full_like(np.asarray(x, float), a),
                   _d2=lambda x: np.zeros_like(np.asarray(x, float)))

    @classmethod
    def sine(cls, amplitude: float = 1.0, offset: float = 0.0,
             frequency: float = 1.0, phase: float = 0.0,
             declared_bounds: SupNormBounds | None = None) -> "Coefficient":
        """f(x) = offset + amplitude * sin(frequency * x + phase)."""
        a, c, w, p = (float(amplitude), float(offset), float(frequency),
                      float(phase))
        bounds = declared_bounds or SupNormBounds(
            abs(c) + abs(a), abs(a * w), abs(a * w * w))
        return cls("sine",
                   {"amplitude": a, "offset": c, "frequency": w, "phase": p},
                   bounds,
                   _value=lambda x: c + a * np.sin(w * np.asarray(x, float) + p),
                   _d1=lambda x: a * w * np.cos(w * np.asarray(x, float) + p),
                   _d2=lambda x: -a * w * w * np.sin(w * np.asarray(x, float) + p))

    @classmethod
    def tanh(cls, amplitude: float = 1.0, scale: float = 1.0,
             declared_bounds: SupNormBounds | None = None) -> "Coefficient":
        """f(x) = amplitude * tanh(scale * x)."""
        a, s = float(amplitude), float(scale)
        # sup |d/dx tanh| = 1, sup |d2/dx2 tanh| = 4 / (3 sqrt(3))
        bounds = declared_bounds or SupNormBounds(
            abs(a), abs(a * s), abs(a) * s * s * 4.0 / (3.0 * math.sqrt(3.0)))

        def _v(x):
            return a * np.tanh(s * np.asarray(x, float))

        def _d1(x):
            t = np.tanh(s * np.asarray(x, float))
            return a * s * (1.0 - t * t)

        def _d2(x):
            t = np.tanh(s * np.asarray(x, float))
            return -2.0 * a * s * s * t * (1.0 - t * t)

        return cls("tanh", {"amplitude": a, "scale": s}, bounds,
                   _value=_v, _d1=_d1, _d2=_d2)

    @classmethod
    def ornstein_uhlenbeck(cls, rate: float = 1.0, mean: float = 0.0,
                           declared_bounds: SupNormBounds | None = None
                           ) -> "Coefficient":
        """Mean-reverting drift f(x) = -rate * (x - mean)."""
        r, m = float(rate), float(mean)
        bounds = declared_bounds or SupNormBounds(math.inf, abs(r), 0.0)
        return cls("ornstein_uhlenbeck", {"rate": r, "mean": m}, bounds,
                   _value=lambda x: -r * (np.asarray(x, float) - m),
                   _d1=lambda x: np.full_like(np.asarray(x, float), -r),
                   _d2=lambda x: np.zeros_like(np.asarray(x, float)))

    @classmethod
    def from_callbacks(cls, value: Callable, d1: Callable | None = None,
                       d2: Callable | None = None,
                       declared_bounds: SupNormBounds | None = None,
                       params: Mapping[str, Any] | None = None
                       ) -> "Coefficient":
        """Wrap user-supplied vectorized callables.

        Derivative callables are optional; requesting a missing order raises
        :class:`UnsupportedOrder`.  Callback coefficients cannot be
        serialized to JSON (configs carry no closures); tabulate them first.
        """
        return cls("custom-callback", dict(params or {}), declared_bounds,
                   _value=value, _d1=d1, _d2=d2)

    @classmethod
    def tabulated(cls, nodes: np.ndarray, values: np.ndarray,
                  d1_values: np.ndarray | None = None,
                  declared_bounds: SupNormBounds | None = None
                  ) -> "Coefficient":
        """Cubic-spline interpolation of sampled values.

        Used to serialize transformed drifts: the table round-trips through
        JSON.  The first derivative interpolates ``d1_values`` when given
        (the caller then owns value/slope consistency; sample densely
        enough for the validation tolerance), otherwise it differentiates
        the value interpolant, which is exactly consistent with finite
        differences of it because the spline is C2.

        No second-derivative evaluator is supplied: a piecewise cubic's
        second derivative has kinks at every node, so it can neither meet
        the finite-difference consistency contract nor serve as a
        trustworthy estimate.  Requesting order 2 raises
        :class:`UnsupportedOrder`.
        """
        from scipy.interpolate import CubicSpline

        nodes = np.asarray(nodes, float)
        values = np.asarray(values, float)
        if nodes.ndim != 1 or nodes.shape != values.shape or nodes.size < 4:
            raise ConfigError("tabulated coefficient needs >= 4 matching nodes")
        f = CubicSpline(nodes, values, extrapolate=False)
        if d1_values is not None:
            d1_values = np.asarray(d1_values, float)
            if d1_values.shape != nodes.shape:
                raise ConfigError("d1 table shape mismatch")
            d1_fn = CubicSpline(nodes, d1_values, extrapolate=False)
        else:
            d1_fn = f.derivative()
        params: dict[str, Any] = {"nodes": nodes, "values": values}
        if d1_values is not None:
            params["d1_values"] = d1_values
        return cls("custom-tabulated", params, declared_bounds,
                   _value=f, _d1=d1_fn, _d2=None)

    # -- evaluation -----------------------------------------------------------

    def __call__(self, x, order: int = 0):
        if order == 0:
            fn = self._value
        elif order == 1:
            fn = self._d1
        elif order == 2:
            fn = self._d2
        else:
            raise UnsupportedOrder(f"derivative order {order} not supported")
        if fn is None:
            raise UnsupportedOrder(
                f"coefficient {self.preset_id!r} has no evaluator for "
                f"derivative order {order}")
        out = np.asarray(fn(x), float)
        if np.ndim(x) == 0:
            return float(out)
        return out

    def has_order(self, order: int) -> bool:
        return (self._value, self._d1, self._d2)[order] is not None \
            if order in (0, 1, 2) else False

    @property
    def constant_value(self) -> float | None:
        """The value of a structurally constant coefficient (``const``, or
        ``linear`` with zero slope), else None.  Other presets are never
        reported constant, whatever their parameters."""
        if self.preset_id == "const":
            return float(self.params["value"])
        if self.preset_id == "linear" and self.params["slope"] == 0.0:
            return float(self.params["intercept"])
        return None


def sup_norm_estimate(coefficient: Coefficient, order: int,
                      interval: tuple[float, float],
                      n_grid: int = VALIDATION_GRID_SIZE) -> float:
    """Grid estimate of ``sup |f^(order)|`` over a closed interval.

    A plain max over an equispaced grid: a lower bound on the true sup-norm,
    monotone under nested grid refinement (a finer grid containing the old
    nodes can only increase the estimate).
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ConfigError("sup_norm_estimate needs a nondegenerate interval")
    if n_grid < 2:
        raise ConfigError("sup_norm_estimate needs at least 2 grid points")
    grid = np.linspace(lo, hi, n_grid)
    return float(np.max(np.abs(coefficient(grid, order))))


# -- problem spec -------------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """Ingredients of one perturbed-diffusion problem.

    ``alpha`` weights the running-supremum feedback and must be < 1;
    well-posedness fails at alpha = 1 where the defining fixed point
    degenerates.
    """

    x0: float
    alpha: float
    drift: Coefficient
    diffusion: Coefficient
    horizon: float

    def __post_init__(self) -> None:
        for name in ("x0", "alpha", "horizon"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ConfigError(f"{name} must be a finite number")
        if not self.alpha < 1.0:
            raise AlphaOutOfRange(
                f"alpha must be < 1, got {self.alpha}")
        if not self.horizon > 0.0:
            raise ConfigError("horizon must be positive")


@dataclass(frozen=True)
class EffectiveBounds:
    """Bounds actually used downstream, with their provenance.

    ``source`` is ``"declared"`` when the coefficient supplied the number
    (catalog presets declare exact analytic norms) and ``"grid"`` when it
    was estimated by sampling; grid estimates are lower bounds, so regime
    classification based on them is reported as non-rigorous.
    """

    sup_f: float
    sup_d1: float
    sup_d2: float
    source: str  # "declared" | "grid"


@dataclass(frozen=True)
class ValidatedSpec:
    """A ProblemSpec plus the facts established by :func:`validate`."""

    problem: ProblemSpec
    grid_interval: tuple[float, float]
    drift_bounds: EffectiveBounds
    diffusion_bounds: EffectiveBounds
    sigma_inf: float          # grid inf of |sigma|
    sigma_sign_constant: bool  # sigma has one sign on the validation grid

    # Delegates so engines can read fields without unwrapping.
    @property
    def x0(self) -> float:
        return self.problem.x0

    @property
    def alpha(self) -> float:
        return self.problem.alpha

    @property
    def drift(self) -> Coefficient:
        return self.problem.drift

    @property
    def diffusion(self) -> Coefficient:
        return self.problem.diffusion

    @property
    def horizon(self) -> float:
        return self.problem.horizon


def validation_grid(problem: ProblemSpec,
                    n_grid: int = VALIDATION_GRID_SIZE) -> np.ndarray:
    """Spatial grid used for coefficient checks.

    The half-width is ten diffusion standard deviations at the horizon.
    The diffusion scale itself needs a grid, so a preliminary sweep over
    ``x0 +- 10 sqrt(T)`` (or the declared ``sup |sigma|`` when available)
    supplies the scale for the definitive interval.
    """
    T = problem.horizon
    declared = problem.diffusion.declared_bounds
    sigma_bar = declared.sup_f if declared and declared.sup_f is not None \
        else None
    if sigma_bar is None or not math.isfinite(sigma_bar):
        pre = (problem.x0 - 10.0 * math.sqrt(T),
               problem.x0 + 10.0 * math.sqrt(T))
        sigma_bar = sup_norm_estimate(problem.diffusion, 0, pre, n_grid)
    half = 10.0 * max(sigma_bar, 1e-12) * math.sqrt(T)
    return np.linspace(problem.x0 - half, problem.x0 + half, n_grid)


def _fd_check(c: Coefficient, grid: np.ndarray, name: str) -> None:
    """Central-difference consistency of supplied derivative evaluators."""
    h = FD_STEP
    for order in (1, 2):
        if not c.has_order(order) or not c.has_order(order - 1):
            continue
        lower = c(grid, order - 1)
        exact = c(grid, order)
        fd = (np.asarray(c(grid + h, order - 1)) - np.asarray(
            c(grid - h, order - 1))) / (2.0 * h)
        scale = max(1.0, float(np.max(np.abs(exact))),
                    float(np.max(np.abs(lower))))
        err = float(np.max(np.abs(fd - exact)))
        if not np.isfinite(err) or err > FD_TOL * scale:
            raise InconsistentDerivatives(
                f"{name}: order-{order} evaluator disagrees with central "
                f"differences (max error {err:.3e}, tol {FD_TOL * scale:.3e})")


def _effective_bounds(c: Coefficient, grid: np.ndarray, name: str
                      ) -> EffectiveBounds:
    declared = c.declared_bounds
    sups: list[float] = []
    complete = declared is not None
    for order in (0, 1, 2):
        grid_sup = (float(np.max(np.abs(c(grid, order))))
                    if c.has_order(order) else math.inf)
        dec = declared.get(order) if declared else None
        if dec is not None:
            # A grid sample can never legitimately exceed a declared norm.
            if np.isfinite(grid_sup) and grid_sup > dec * (1.0 + 1e-12) + 1e-12:
                raise InconsistentDerivatives(
                    f"{name}: grid sup of order-{order} derivative "
                    f"({grid_sup:.6g}) exceeds declared bound ({dec:.6g})")
            sups.append(float(dec))
        else:
            sups.append(grid_sup)
            complete = False
    return EffectiveBounds(sups[0], sups[1], sups[2],
                           "declared" if complete else "grid")


def validate(spec: ProblemSpec | ValidatedSpec, *,
             require_transform: bool = False,
             n_grid: int = VALIDATION_GRID_SIZE) -> ValidatedSpec:
    """Check a problem spec and attach effective coefficient bounds.

    Idempotent: a ``ValidatedSpec`` passes through unchanged.  With
    ``require_transform`` the diffusion must be bounded away from zero with
    a single sign on the validation grid, otherwise a transform to unit
    diffusion is impossible and :class:`DegenerateDiffusion` is raised.
    """
    if isinstance(spec, ValidatedSpec):
        if require_transform and (spec.sigma_inf <= 0.0
                                  or not spec.sigma_sign_constant):
            raise DegenerateDiffusion(
                "diffusion vanishes or changes sign on the validation grid")
        return spec
    if not isinstance(spec, ProblemSpec):
        raise ConfigError("validate expects a ProblemSpec")

    grid = validation_grid(spec, n_grid)
    interval = (float(grid[0]), float(grid[-1]))
    _fd_check(spec.drift, grid, "drift")
    _fd_check(spec.diffusion, grid, "diffusion")
    drift_bounds = _effective_bounds(spec.drift, grid, "drift")
    diff_bounds = _effective_bounds(spec.diffusion, grid, "diffusion")

    sigma_vals = np.asarray(spec.diffusion(grid, 0))
    if not np.all(np.isfinite(sigma_vals)):
        raise DegenerateDiffusion("diffusion is non-finite on the grid")
    sigma_inf = float(np.min(np.abs(sigma_vals)))
    sign_constant = bool(np.all(sigma_vals > 0.0)
                         or np.all(sigma_vals < 0.0))
    if require_transform and (sigma_inf <= 0.0 or not sign_constant):
        raise DegenerateDiffusion(
            "diffusion vanishes or changes sign on the validation grid")
    return ValidatedSpec(spec, interval, drift_bounds, diff_bounds,
                         sigma_inf, sign_constant)


# -- time grid -----------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Uniform time grid on ``[0, horizon]`` with ``n_steps`` steps."""

    n_steps: int
    horizon: float
    dt: float = field(init=False)
    times: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 1:
            raise ConfigError("n_steps must be a positive integer")
        if not (isinstance(self.horizon, (int, float))
                and math.isfinite(self.horizon) and self.horizon > 0):
            raise ConfigError("horizon must be a positive finite number")
        object.__setattr__(self, "n_steps", int(self.n_steps))
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "dt", self.horizon / self.n_steps)
        times = np.linspace(0.0, self.horizon, self.n_steps + 1)
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
