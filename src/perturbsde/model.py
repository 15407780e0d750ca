"""Problem description layer: coefficients, specs, grids, and validation.

The objects here are plain frozen dataclasses.  A :class:`ProblemSpec` holds
the ingredients of the dynamics

    X_t = x0 + int_0^t b(X_s) ds + int_0^t sigma(X_s) dB_s + alpha * sup_{s<=t} X_s

with ``alpha < 1``.  Every coefficient comes from one catalog: a few
analytic presets, and a tabulated preset that interpolates sampled values.
The package computes each coefficient's value and first derivative itself,
without symbolic machinery; nothing downstream reads a higher derivative.
Each coefficient also states its exact ``sup |f|`` and ``sup |f'|``: the
analytic presets in closed form, a table from its spline's extrema.
A :class:`ProblemSpec` is checked once, when it is built: it refuses
coefficients that are not finite on its validation grid and stores those
bounds, taken by :func:`validate`, as fields of its own.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from .errors import (
    AlphaOutOfRange,
    ConfigError,
    UnknownPreset,
    UnsupportedOrder,
)

__all__ = [
    "Coefficient",
    "EffectiveBounds",
    "ProblemSpec",
    "GridSpec",
    "validate",
    "hermite",
    "hermite_sup",
    "PRESETS",
    "validation_grid",
    "VALIDATION_GRID_SIZE",
]

# Points of the validation grid.  The grid is wide enough that desk-scale
# paths essentially never leave it; it serves only the finiteness check
# and the grid minimum ``sigma_inf`` of ``|sigma|``, never a sup-norm.
VALIDATION_GRID_SIZE = 4096

# The coefficient catalog: preset id -> (required, optional) parameter names.
PRESETS: dict[str, tuple[frozenset[str], frozenset[str]]] = {
    "const": (frozenset({"value"}), frozenset()),
    "linear": (frozenset({"slope"}), frozenset({"intercept"})),
    "sine": (frozenset(),
             frozenset({"amplitude", "offset", "frequency", "phase"})),
    "tanh": (frozenset(), frozenset({"amplitude", "scale"})),
    "ornstein_uhlenbeck": (frozenset(), frozenset({"rate", "mean"})),
    "custom-tabulated": (frozenset({"nodes", "values"}), frozenset()),
}


@dataclass(frozen=True)
class EffectiveBounds:
    """Exact ``sup |f|`` and ``sup |f'|`` of a coefficient, the bounds
    used downstream.  An analytic preset's hold on the whole line
    (``math.inf`` where ``f`` is unbounded); a table's hold on the
    interval they were taken over (see :meth:`Coefficient.bounds`)."""

    sup_f: float
    sup_d1: float


@dataclass(frozen=True)
class Coefficient:
    """A scalar coefficient ``f`` with evaluators for ``f`` and ``f'``.

    Instances are built through the classmethod constructors (``const``,
    ``sine``, ...) rather than directly; the constructors attach vectorized
    evaluators and the exact sup-norms (:meth:`bounds`).  An order in
    which the coefficient is constant by structure is stored as that float
    instead of an evaluator.  Calls accept floats or numpy arrays and
    return matching shapes.
    """

    preset_id: str
    params: Mapping[str, Any]
    _value: Callable[[np.ndarray], np.ndarray] | float | None = field(
        default=None, repr=False, compare=False)
    _d1: Callable[[np.ndarray], np.ndarray] | float | None = field(
        default=None, repr=False, compare=False)
    _bounds: EffectiveBounds | Callable[[tuple[float, float]],
                                        EffectiveBounds] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.preset_id not in PRESETS:
            raise UnknownPreset(
                f"unknown coefficient preset {self.preset_id!r}; "
                f"catalog: {', '.join(PRESETS)}")
        if self._value is None or self._d1 is None or self._bounds is None:
            raise ConfigError(
                "Coefficient must be built via its classmethod constructors")

    def __eq__(self, other: object) -> bool:
        # a table's params hold arrays, which == compares elementwise
        if not isinstance(other, Coefficient):
            return NotImplemented
        return (self.preset_id == other.preset_id
                and self.params.keys() == other.params.keys()
                and all(np.array_equal(v, other.params[k])
                        for k, v in self.params.items()))

    def __hash__(self) -> int:
        # Python floats, so that -0.0 and 0.0, and equal tables, hash alike
        return hash((self.preset_id, tuple(
            (k, tuple(np.ravel(v).tolist()))
            for k, v in sorted(self.params.items()))))

    # -- catalog constructors -------------------------------------------------

    @classmethod
    def const(cls, value: float) -> "Coefficient":
        """f(x) = value."""
        v = float(value)
        return cls("const", {"value": v}, _value=v, _d1=0.0,
                   _bounds=EffectiveBounds(abs(v), 0.0))

    @classmethod
    def linear(cls, slope: float, intercept: float = 0.0) -> "Coefficient":
        """f(x) = slope * x + intercept."""
        a, c = float(slope), float(intercept)
        sup_f = abs(c) if a == 0.0 else math.inf
        value = c if a == 0.0 else (lambda x: a * np.asarray(x, float) + c)
        return cls("linear", {"slope": a, "intercept": c}, _value=value,
                   _d1=a, _bounds=EffectiveBounds(sup_f, abs(a)))

    @classmethod
    def sine(cls, amplitude: float = 1.0, offset: float = 0.0,
             frequency: float = 1.0, phase: float = 0.0) -> "Coefficient":
        """f(x) = offset + amplitude * sin(frequency * x + phase)."""
        a, c, w, p = (float(amplitude), float(offset), float(frequency),
                      float(phase))
        return cls("sine",
                   {"amplitude": a, "offset": c, "frequency": w, "phase": p},
                   _value=lambda x: c + a * np.sin(w * np.asarray(x, float) + p),
                   _d1=lambda x: a * w * np.cos(w * np.asarray(x, float) + p),
                   _bounds=EffectiveBounds(abs(c) + abs(a), abs(a * w)))

    @classmethod
    def tanh(cls, amplitude: float = 1.0, scale: float = 1.0) -> "Coefficient":
        """f(x) = amplitude * tanh(scale * x)."""
        a, s = float(amplitude), float(scale)

        def _v(x):
            return a * np.tanh(s * np.asarray(x, float))

        def _d1(x):
            t = np.tanh(s * np.asarray(x, float))
            return a * s * (1.0 - t * t)

        # sup |d/dx tanh| = 1
        return cls("tanh", {"amplitude": a, "scale": s}, _value=_v, _d1=_d1,
                   _bounds=EffectiveBounds(abs(a), abs(a * s)))

    @classmethod
    def ornstein_uhlenbeck(cls, rate: float = 1.0,
                           mean: float = 0.0) -> "Coefficient":
        """Mean-reverting drift f(x) = -rate * (x - mean)."""
        r, m = float(rate), float(mean)
        return cls("ornstein_uhlenbeck", {"rate": r, "mean": m},
                   _value=lambda x: -r * (np.asarray(x, float) - m), _d1=-r,
                   _bounds=EffectiveBounds(math.inf, abs(r)))

    @classmethod
    def tabulated(cls, nodes: np.ndarray, values: np.ndarray) -> "Coefficient":
        """Not-a-knot cubic-spline interpolation of sampled values.

        Used to serialize transformed drifts, and to bring any other
        function into the catalog: the table round-trips through JSON.
        :func:`hermite` evaluates the spline, NaN outside the nodes.  The
        first derivative is the value spline's own, which is exactly
        consistent with finite differences of it because the spline is C2.
        The sup-norms are the spline's exact extrema (:func:`hermite_sup`)
        over the interval :meth:`bounds` is asked for.
        """
        # copies: the evaluators keep these arrays
        nodes, values = np.array(nodes, float), np.array(values, float)
        tables = {"nodes": nodes, "values": values}
        if nodes.ndim != 1 or nodes.size < 4 or values.shape != nodes.shape:
            raise ConfigError("tabulated coefficient needs >= 4 nodes and "
                              "a value table of the same shape")
        for name, t in tables.items():
            if not np.all(np.isfinite(t)):
                raise ConfigError(f"tabulated coefficient {name} must be finite")
        if not np.all(np.diff(nodes) > 0.0):
            raise ConfigError(
                "tabulated coefficient nodes must increase strictly")
        spline = (nodes, values, _not_a_knot_slopes(nodes, values))
        if not np.all(np.isfinite(spline[2])):
            raise ConfigError("tabulated coefficient has no finite spline")
        return cls("custom-tabulated", tables,
                   _value=partial(hermite, *spline),
                   _d1=partial(hermite, *spline, order=1),
                   _bounds=partial(_spline_bounds, *spline))

    # -- evaluation -----------------------------------------------------------

    def evaluator(self, order: int = 0
                  ) -> Callable[[np.ndarray], np.ndarray | float]:
        """The order-``order`` evaluator for arrays, for loops that call it
        at every step.

        In an order where the coefficient is constant by structure
        (``const``, ``linear`` with zero slope, and order 1 of ``linear``
        and ``ornstein_uhlenbeck``) it returns that constant as a float,
        whatever its argument; numpy arithmetic broadcasts it bitwise like
        the array of it.  Raises :class:`UnsupportedOrder` for an order
        other than 0 and 1.
        """
        if order not in (0, 1):
            raise UnsupportedOrder(f"derivative order {order} not supported")
        fn = (self._value, self._d1)[order]
        if isinstance(fn, float):
            return lambda x: fn
        return fn

    def __call__(self, x, order: int = 0):
        out = np.asarray(self.evaluator(order)(x), float)
        if np.ndim(x) == 0:
            return float(out)
        if out.shape != np.shape(x):
            out = np.full(np.shape(x), out)
        return out

    @property
    def constant_value(self) -> float | None:
        """The value of a structurally constant coefficient (``const``, or
        ``linear`` with zero slope), else None.  Other presets are never
        reported constant, whatever their parameters."""
        return self._value if isinstance(self._value, float) else None

    def bounds(self, interval: tuple[float, float]) -> EffectiveBounds:
        """Exact ``sup |f|`` and ``sup |f'|``.

        An analytic preset returns its closed forms, which hold on the
        whole line, whatever ``interval``.  A table returns its spline's
        extrema over ``interval``, which must lie inside its nodes (NaN
        otherwise).
        """
        b = self._bounds
        return b if isinstance(b, EffectiveBounds) else b(interval)


def _cubic(nodes: np.ndarray, values: np.ndarray, slopes: np.ndarray,
           i: np.ndarray) -> tuple[np.ndarray, ...]:
    """Coefficients ``(m0, c2, c3)`` of the Hermite pieces ``i``, each a
    polynomial ``((c3 s + c2) s + m0) s + values[i]`` in the offset ``s``
    from its left node."""
    h = nodes[i + 1] - nodes[i]
    m0 = slopes[i]
    secant = (values[i + 1] - values[i]) / h
    t = (m0 + slopes[i + 1] - 2.0 * secant) / h
    return m0, (secant - m0) / h - t, t / h


def hermite(nodes: np.ndarray, values: np.ndarray, slopes: np.ndarray, x,
            order: int = 0) -> np.ndarray:
    """Piecewise cubic Hermite interpolant through ``(nodes, values)`` with
    node slopes ``slopes`` (``order=0``), or its first derivative
    (``order=1``), at ``x``; NaN outside ``[nodes[0], nodes[-1]]``.

    ``nodes`` increase strictly.  Each cubic is a polynomial in the offset
    from its left node, so a node returns its value and slope exactly.
    """
    if order not in (0, 1):
        raise UnsupportedOrder(f"hermite evaluates orders 0 and 1, not {order}")
    x = np.asarray(x, float)
    i = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, nodes.size - 2)
    s = x - nodes[i]
    m0, c2, c3 = _cubic(nodes, values, slopes, i)
    if order == 0:
        out = ((c3 * s + c2) * s + m0) * s + values[i]
    else:
        out = (3.0 * c3 * s + 2.0 * c2) * s + m0
    out = np.where(x == nodes[-1], (values, slopes)[order][-1], out)
    return np.where((x >= nodes[0]) & (x <= nodes[-1]), out, np.nan)


def hermite_sup(nodes: np.ndarray, values: np.ndarray, slopes: np.ndarray,
                interval: tuple[float, float],
                order: int = 0) -> tuple[float, float]:
    """``sup |f|`` (``order=0``) or ``sup |f'|`` (``order=1``) of the
    :func:`hermite` spline over ``interval``, exactly, and a point where
    it is attained; NaN when ``interval`` leaves the nodes.

    Nothing is sampled.  On each piece the slope is a quadratic in the
    offset, so ``|f'|`` peaks at a piece end or at the quadratic's vertex
    ``-c2 / (3 c3)``, and ``|f|`` at a piece end or at a root of the
    slope.  Those points inside ``interval``, the nodes inside it and its
    two ends are evaluated by :func:`hermite` itself.
    """
    lo, hi = float(interval[0]), float(interval[1])
    m0, c2, c3 = _cubic(nodes, values, slopes, np.arange(nodes.size - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        if order == 0:
            # roots of 3 c3 s^2 + 2 c2 s + m0, in the form that loses no
            # digits to cancellation; a linear slope (c3 = 0) keeps the
            # second, a slope with no real root neither
            q = -(c2 + np.copysign(np.sqrt(c2 * c2 - 3.0 * c3 * m0), c2))
            offsets = np.stack([q / (3.0 * c3), m0 / q])
        else:
            offsets = -c2 / (3.0 * c3)
    # an offset outside its own piece is still a point of the spline
    x = (nodes[:-1] + offsets).ravel()
    xs = np.concatenate([[lo, hi], nodes[(nodes > lo) & (nodes < hi)],
                         x[(x > lo) & (x < hi)]])
    v = np.abs(hermite(nodes, values, slopes, xs, order))
    k = int(np.argmax(v))
    return float(v[k]), float(xs[k])


def _spline_bounds(nodes: np.ndarray, values: np.ndarray, slopes: np.ndarray,
                   interval: tuple[float, float]) -> EffectiveBounds:
    return EffectiveBounds(*(hermite_sup(nodes, values, slopes, interval,
                                         order)[0] for order in (0, 1)))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _not_a_knot_slopes(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Node slopes of the not-a-knot cubic spline through ``(nodes, values)``:
    a continuous second derivative at interior nodes, a continuous third
    one at the second and second-to-last.  Thomas elimination needs no
    pivoting because every pivot of this tridiagonal system is positive;
    one that rounding leaves otherwise makes every slope NaN, as does a
    table whose arithmetic overflows, without a warning: the caller
    refuses a spline with a NaN slope."""
    dx = np.diff(nodes)
    secant = np.diff(values) / dx
    n = nodes.size
    lower, diag, upper, rhs = np.zeros((4, n))
    lower[1:-1] = dx[1:]
    diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
    upper[1:-1] = dx[:-1]
    rhs[1:-1] = 3.0 * (dx[1:] * secant[:-1] + dx[:-1] * secant[1:])
    d = nodes[2] - nodes[0]
    diag[0], upper[0] = dx[1], d
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * secant[0]
              + dx[0] ** 2 * secant[1]) / d
    d = nodes[-1] - nodes[-3]
    lower[-1], diag[-1] = d, dx[-2]
    rhs[-1] = (dx[-1] ** 2 * secant[-2]
               + (2.0 * d + dx[-1]) * dx[-2] * secant[-1]) / d
    lo, di, up, r = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    for k in range(1, n):
        w = lo[k] / di[k - 1]
        di[k] -= w * up[k - 1]
        r[k] -= w * r[k - 1]
        if not di[k] > 0.0:
            return np.full(n, np.nan)
    r[-1] /= di[-1]
    for k in range(n - 2, -1, -1):
        r[k] = (r[k] - up[k] * r[k + 1]) / di[k]
    return np.array(r)


# -- problem spec -------------------------------------------------------------

# a fact :func:`validate` establishes, set when the problem is built
_fact = partial(field, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class ProblemSpec:
    """Ingredients of one perturbed-diffusion problem, checked when built.

    ``alpha`` weights the running-supremum feedback and must be < 1;
    well-posedness fails at alpha = 1 where the defining fixed point
    degenerates.  Building the problem runs :func:`validate` and stores
    the facts it establishes in the fields after ``horizon``; the five
    inputs alone decide equality and the hash.
    """

    x0: float
    alpha: float
    drift: Coefficient
    diffusion: Coefficient
    horizon: float
    grid_interval: tuple[float, float] = _fact()   # validation grid ends
    drift_bounds: EffectiveBounds = _fact()
    diffusion_bounds: EffectiveBounds = _fact()
    sigma_inf: float = _fact()                     # grid inf of |sigma|
    sigma_sign_constant: bool = _fact()            # sigma has one sign there

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
        # Called through the module global: the benchmark's tracer wraps
        # it by name (``model.validate`` in bench/spans.py).
        for name, value in validate(self).items():
            object.__setattr__(self, name, value)


def validation_grid(x0: float, horizon: float,
                    diffusion: Coefficient) -> np.ndarray:
    """Spatial grid used for coefficient checks.

    The half-width is ten diffusion standard deviations at the horizon,
    with ``sup |sigma|`` as the scale.  A table states that sup only over
    an interval, and the affine presets (``linear``, ``ornstein_uhlenbeck``)
    state it infinite, so for them the scale is the exact ``sup |sigma|``
    over a preliminary sweep ``x0 +- 10 sqrt(T)``: the table's extrema on
    the sweep clipped to its nodes where the two overlap, and an affine
    ``|sigma|`` at the sweep's ends.
    """
    T = horizon
    pre = (x0 - 10.0 * math.sqrt(T), x0 + 10.0 * math.sqrt(T))
    if diffusion.preset_id == "custom-tabulated":
        nodes = diffusion.params["nodes"]
        lo, hi = max(pre[0], nodes[0]), min(pre[1], nodes[-1])
        if lo < hi:
            pre = (lo, hi)
    sigma_bar = diffusion.bounds(pre).sup_f
    if sigma_bar == math.inf:
        sigma_bar = float(np.max(np.abs(diffusion(np.array(pre)))))
    if not math.isfinite(sigma_bar):
        # no scale to be had: the sweep is the grid, and it fails
        return np.linspace(pre[0], pre[1], VALIDATION_GRID_SIZE)
    half = 10.0 * max(sigma_bar, 1e-12) * math.sqrt(T)
    return np.linspace(x0 - half, x0 + half, VALIDATION_GRID_SIZE)


def _finite_values(c: Coefficient, grid: np.ndarray, name: str
                   ) -> np.ndarray:
    """Values of ``c`` on the validation grid, refused unless all finite.
    A table narrower than the grid is the usual cause, so its node range
    is named."""
    values = np.asarray(c(grid, 0))
    if not np.all(np.isfinite(values)):
        where = f"[{grid[0]:.6g}, {grid[-1]:.6g}]"
        msg = f"{name} is not finite on the validation grid {where}"
        if c.preset_id == "custom-tabulated":
            nodes = c.params["nodes"]
            msg += f"; its table covers [{nodes[0]:.6g}, {nodes[-1]:.6g}]"
        raise ConfigError(msg)
    return values


def validate(problem: ProblemSpec) -> dict[str, Any]:
    """The facts :class:`ProblemSpec` stores about ``problem``, by field
    name; :class:`ConfigError` unless both coefficients are finite on the
    validation grid.

    Each coefficient is evaluated once on the grid, for that check and
    for ``sigma_inf``; the bounds are each coefficient's own
    (:meth:`Coefficient.bounds`), a table's over the grid's interval.
    """
    grid = validation_grid(problem.x0, problem.horizon, problem.diffusion)
    interval = (float(grid[0]), float(grid[-1]))
    _finite_values(problem.drift, grid, "drift")
    sigma_vals = _finite_values(problem.diffusion, grid, "diffusion")
    return {
        "grid_interval": interval,
        "drift_bounds": problem.drift.bounds(interval),
        "diffusion_bounds": problem.diffusion.bounds(interval),
        "sigma_inf": float(np.min(np.abs(sigma_vals))),
        "sigma_sign_constant": bool(np.all(sigma_vals > 0.0)
                                    or np.all(sigma_vals < 0.0)),
    }


# -- time grid -----------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Uniform time grid on ``[0, horizon]`` with ``n_steps`` steps."""

    n_steps: int
    horizon: float
    # derived from n_steps and horizon, so left out of == and the hash
    dt: float = field(init=False, compare=False)
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 1:
            raise ConfigError("n_steps must be a positive integer")
        if not (isinstance(self.horizon, (int, float))
                and math.isfinite(self.horizon)
                and self.horizon / self.n_steps > 0):
            raise ConfigError("horizon must be finite, horizon / n_steps > 0")
        object.__setattr__(self, "n_steps", int(self.n_steps))
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "dt", self.horizon / self.n_steps)
        times = np.linspace(0.0, self.horizon, self.n_steps + 1)
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
