"""Change of variables to unit diffusion.

For positive ``sigma`` the primitive ``F(y) = int_{x0}^{y} du / sigma(u)``
maps the dynamics to one with diffusion identically 1 and drift

    tilde_b(z) = b(y)/sigma(y) - sigma'(y)/2,        y = F^{-1}(z).

Because ``F`` increases, it commutes with running maxima, so the supremum
feedback survives the substitution with the same ``alpha``; only the
initial-value parameter moves: the transformed problem starts from
``(1 - alpha) F(x0 / (1 - alpha))`` so that its time-zero fixed point is
exactly ``F`` of the original one.  The derivative bound transfers as
``||DX_t|| >= inf|sigma| * ||DY_t||``, which is what lets regime floors
computed for the unit-diffusion problem say something about the original.

``F`` is tabulated once per problem: per-interval Simpson quadrature of
``1/sigma`` on an equispaced grid (fourth-order accurate cumulative
values) interpolated by a cubic spline, whose derivative is accurate
enough for the transformed drift to survive the finite-difference
consistency check downstream.  The inverse starts from a monotone
interpolant of the reversed table, polishes with safeguarded Newton
steps on the forward spline, and falls back to bracketed root finding
for the rare points Newton leaves; the polished inverse is vectorized,
which the transformed-drift evaluations in the inner simulation loop
rely on.

scipy is imported only when a table is built or a root is bracketed, so
importing the package (and the command line) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ConfigError,
    DegenerateDiffusion,
    DomainTooSmall,
    GridMismatch,
    IntegrationFailure,
    OutOfDomain,
)
from .malliavin import DerivativeFieldBatch
from .model import (
    Coefficient,
    GridSpec,
    ProblemSpec,
    ValidatedSpec,
    sup_norm_estimate,
    validate,
)

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline, PchipInterpolator

__all__ = [
    "TransformTable",
    "LiftBoundReport",
    "build_transform",
    "forward",
    "inverse",
    "tilde_b",
    "tabulated_drift",
    "transformed_spec",
    "transformed_drift_bound",
    "transformed_field",
    "lift_bound_check",
    "DEFAULT_NODES",
    "INVERSE_TOL",
]

DEFAULT_NODES = 4097
INVERSE_TOL = 1e-10
# Working domain half-width in units of sigma_bar * sqrt(T).  Wider than the
# validation grid (10) so transformed specs validate inside the table.
DOMAIN_HALFWIDTH_STDS = 12.0


@dataclass(frozen=True)
class TransformTable:
    """Tabulated primitive of ``1/sigma`` with monotone interpolants."""

    nodes: np.ndarray
    F_values: np.ndarray
    x0: float
    alpha: float
    drift: Coefficient
    diffusion: Coefficient
    horizon: float
    sigma_inf: float
    _fwd: CubicSpline = field(repr=False, compare=False, default=None)
    _fwd_d1: CubicSpline = field(repr=False, compare=False, default=None)
    _inv0: PchipInterpolator = field(repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        self.nodes.flags.writeable = False
        self.F_values.flags.writeable = False

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.nodes[0]), float(self.nodes[-1])

    @property
    def range(self) -> tuple[float, float]:
        return float(self.F_values[0]), float(self.F_values[-1])


def build_transform(spec: ProblemSpec | ValidatedSpec,
                    n_nodes: int = DEFAULT_NODES,
                    domain: tuple[float, float] | None = None
                    ) -> TransformTable:
    """Tabulate ``F`` for a problem with strictly positive diffusion.

    The default domain is ``x0 +- 12 sigma_bar sqrt(T)``.  Negative or
    vanishing ``sigma`` anywhere on the domain (nodes or Simpson midpoints)
    raises :class:`DegenerateDiffusion`: a sign flip would break the
    max-commutation property the supremum term depends on.
    """
    from scipy.interpolate import CubicSpline, PchipInterpolator

    vspec = validate(spec, require_transform=True)
    if n_nodes < 5:
        raise ConfigError("n_nodes must be >= 5")
    if domain is None:
        sigma_bar = vspec.diffusion_bounds.sup_f
        if not math.isfinite(sigma_bar):
            raise ConfigError(
                "diffusion has no finite sup bound; pass an explicit domain")
        half = DOMAIN_HALFWIDTH_STDS * sigma_bar * math.sqrt(vspec.horizon)
        domain = (vspec.x0 - half, vspec.x0 + half)
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < vspec.x0 < hi:
        raise ConfigError("transform domain must contain x0 in its interior")

    nodes = np.linspace(lo, hi, n_nodes)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    s_nodes = np.asarray(vspec.diffusion(nodes, 0))
    s_mids = np.asarray(vspec.diffusion(mids, 0))
    if np.min(s_nodes) <= 0.0 or np.min(s_mids) <= 0.0:
        raise DegenerateDiffusion(
            "transform requires sigma > 0 on the whole working domain")

    g_nodes = 1.0 / s_nodes
    g_mids = 1.0 / s_mids
    h = (hi - lo) / (n_nodes - 1)
    incr = (h / 6.0) * (g_nodes[:-1] + 4.0 * g_mids + g_nodes[1:])
    G = np.empty(n_nodes)
    G[0] = 0.0
    np.cumsum(incr, out=G[1:])
    anchor = float(CubicSpline(nodes, G)(vspec.x0))
    F_values = G - anchor

    fwd = CubicSpline(nodes, F_values, extrapolate=False)
    inv0 = PchipInterpolator(F_values, nodes, extrapolate=False)
    return TransformTable(
        nodes=nodes, F_values=F_values, x0=vspec.x0, alpha=vspec.alpha,
        drift=vspec.drift, diffusion=vspec.diffusion, horizon=vspec.horizon,
        sigma_inf=vspec.sigma_inf, _fwd=fwd, _fwd_d1=fwd.derivative(),
        _inv0=inv0)


def forward(table: TransformTable, y):
    """Evaluate ``F(y)``; values outside the table domain raise
    :class:`OutOfDomain`."""
    y_arr = np.asarray(y, float)
    out = table._fwd(y_arr)
    if np.any(np.isnan(out)) and not np.any(np.isnan(y_arr)):
        lo, hi = table.domain
        raise OutOfDomain(
            f"forward transform evaluated outside [{lo:.6g}, {hi:.6g}]")
    return float(out) if y_arr.ndim == 0 else out


def brentq(f, a: float, b: float, **kwargs) -> float:
    """``scipy.optimize.brentq``, imported on the first call."""
    from scipy.optimize import brentq as _brentq

    return _brentq(f, a, b, **kwargs)


def inverse(table: TransformTable, z, tol: float = INVERSE_TOL):
    """Solve ``F(y) = z`` on the table domain.

    The interpolated inverse supplies the starting point inside the
    bracketing node interval located by binary search; two Newton polish
    steps on the forward interpolant bring the residual to roundoff, and
    any stragglers fall back to bracketed root finding.  The result
    satisfies ``|F(y) - z| <= tol``.
    """
    z_arr = np.asarray(z, float)
    flo, fhi = table.range
    if np.any(z_arr < flo) or np.any(z_arr > fhi):
        raise DomainTooSmall(
            f"inverse target outside table range [{flo:.6g}, {fhi:.6g}]")
    # work on a 1-d copy: 0-d array arithmetic degrades to numpy scalars
    zf = np.atleast_1d(z_arr)
    y = np.atleast_1d(np.asarray(table._inv0(zf), float)).copy()
    lo, hi = table.domain
    np.clip(y, lo, hi, out=y)
    for _ in range(2):
        slope = np.asarray(table._fwd_d1(y), float)
        slope = np.where(slope > 0.0, slope, 1.0)
        y = y - (np.asarray(table._fwd(y), float) - zf) / slope
        np.clip(y, lo, hi, out=y)
    resid = np.abs(np.asarray(table._fwd(y), float) - zf)
    bad = ~(resid <= tol)
    if np.any(bad):
        for idx in np.argwhere(bad):
            i = tuple(idx)
            try:
                y[i] = brentq(lambda v: float(table._fwd(v)) - zf[i],
                              lo, hi, xtol=tol)
            except ValueError as exc:
                raise IntegrationFailure(
                    f"inverse transform failed to bracket: {exc}") from None
    return float(y[0]) if z_arr.ndim == 0 else y.reshape(z_arr.shape)


def _tilde_b_at(table: TransformTable, y):
    """``b(y)/sigma(y) - sigma'(y)/2`` at original-coordinate points ``y``."""
    s = table.diffusion(y, 0)
    return table.drift(y, 0) / s - 0.5 * table.diffusion(y, 1)


def tilde_b(table: TransformTable, z):
    """Transformed drift ``b(y)/sigma(y) - sigma'(y)/2`` at ``y = F^{-1}(z)``."""
    return _tilde_b_at(table, inverse(table, z))


def tabulated_drift(table: TransformTable) -> Coefficient:
    """``tilde_b`` tabulated at the image nodes ``z_j = F(y_j)``, for
    serialization.  Values are evaluated directly at ``y_j`` so no
    inverse-lookup error enters.  Derivatives come from the value
    interpolant itself: a separate slope table would disagree with finite
    differences of the value table at the node-spacing-squared level and
    fail revalidation."""
    return Coefficient.tabulated(table.F_values,
                                 _tilde_b_at(table, table.nodes))


def _tilde_b_d1(table: TransformTable, z):
    """Slope of the transformed drift by the chain rule
    (``dy/dz = sigma(y)``):

        tilde_b'(z) = b'(y) - b(y) sigma'(y)/sigma(y) - sigma''(y) sigma(y)/2.
    """
    y = inverse(table, z)
    s = table.diffusion(y, 0)
    return (table.drift(y, 1)
            - table.drift(y, 0) * table.diffusion(y, 1) / s
            - 0.5 * table.diffusion(y, 2) * s)


def transformed_spec(spec: ProblemSpec | ValidatedSpec,
                     table: TransformTable | None = None) -> ProblemSpec:
    """Unit-diffusion problem equivalent to ``spec`` through the transform.

    The drift is a callback evaluating ``tilde_b`` (:func:`tabulated_drift`
    tabulates it for serialization); the feedback weight and horizon
    carry over unchanged.
    The initial parameter is ``(1-alpha) F(x0/(1-alpha))``: plugging it
    into the time-zero fixed point reproduces ``F`` of the original start,
    and for constant sigma the two discretized problems then coincide
    path by path on shared noise.
    """
    vspec = validate(spec, require_transform=True)
    if table is None:
        table = build_transform(vspec)
    drift = Coefficient.from_callbacks(
        value=lambda zz: tilde_b(table, zz),
        d1=lambda zz: _tilde_b_d1(table, zz),
        params={"origin": "lamperti-transform"})
    alpha = vspec.alpha
    y0_fixed = forward(table, vspec.x0 / (1.0 - alpha))
    return ProblemSpec(
        x0=(1.0 - alpha) * y0_fixed,
        alpha=alpha,
        drift=drift,
        diffusion=Coefficient.const(1.0),
        horizon=vspec.horizon,
    )


def transformed_drift_bound(table: TransformTable,
                            n_grid: int = 4096) -> float:
    """Grid estimate of ``sup |tilde_b'|`` over the transform's range."""
    flo, fhi = table.range
    zs = np.linspace(flo, fhi, n_grid)
    return float(np.max(np.abs(_tilde_b_d1(table, zs))))


def transformed_field(table: TransformTable, batch, field):
    """Derivative data of the mapped trajectory ``F(x[k])``.

    Applying ``F`` to every state of a simulated path gives a trajectory
    of the unit-diffusion problem whose noise derivatives follow from the
    chain rule with no further approximation: final-time slots scale by
    ``F'(x[n])``, running-maximum slots by ``F'`` at the maximum (``F``
    commutes with the maximum), and the per-time norm curve by
    ``F'(x[k])**2``.  Pairing the result with the original field in
    :func:`lift_bound_check` tests the norm inequality in the factorized
    form the chain rule produces it in.  A separately discretized
    unit-diffusion trajectory is not a substitute here: its derivative
    slots carry an O(sqrt(dt)) scheme gap relative to the mapped ones,
    which swamps an O(dt) slack whenever the path ends near a diffusion
    trough.

    ``field`` must have been propagated with ``track_all_times`` so the
    transformed sup norm can be taken over the scaled curve.  The scaled
    slots, like ``field``'s own, are computed on the first read of
    ``d_x`` or ``d_m``.
    """
    if field.h_norm_sq_by_time is None:
        raise ConfigError(
            "transformed_field needs a field propagated with "
            "track_all_times=True")
    x = np.asarray(batch.x, float)
    if field.h_norm_sq_by_time.shape != x.shape:
        raise GridMismatch("batch and field disagree on steps or paths")
    fp = np.asarray(table._fwd_d1(x), float)
    fp_max = np.asarray(table._fwd_d1(batch.running_max[-1]), float)
    if np.any(np.isnan(fp)) or np.any(np.isnan(fp_max)):
        lo, hi = table.domain
        raise OutOfDomain(
            f"batch states leave the table domain [{lo:.6g}, {hi:.6g}]")
    by_time = field.h_norm_sq_by_time * fp ** 2
    return DerivativeFieldBatch(
        h_norm_sq_final=by_time[-1].copy(),
        sup_h_norm_sq=by_time.max(axis=0),
        dt=field.dt,
        _slots=partial(_scaled_slots, field, fp[-1].copy(), fp_max),
        h_norm_sq_by_time=by_time)


def _scaled_slots(source: DerivativeFieldBatch, x_scale: np.ndarray,
                  m_scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return source.d_x * x_scale[:, None], source.d_m * m_scale[:, None]


@dataclass(frozen=True)
class LiftBoundReport:
    """Outcome of the per-path check
    ``||DX_T|| >= inf|sigma| * ||DY_T|| - slack``."""

    n_paths: int
    n_violations: int
    max_deficit: float
    slack: float
    inf_sigma: float


def lift_bound_check(x_field: DerivativeFieldBatch,
                     y_field: DerivativeFieldBatch, inf_sigma: float,
                     slack: float | None = None) -> LiftBoundReport:
    """Compare matched derivative batches of the original and transformed
    problems, path by path.  ``slack`` defaults to ten time steps' worth of
    the fields' grid spacing, the discretization error scale of the
    comparison.
    """
    if inf_sigma < 0.0:
        raise ConfigError("inf_sigma must be >= 0")
    hx = np.asarray(x_field.h_norm_sq_final, float)
    hy = np.asarray(y_field.h_norm_sq_final, float)
    if hx.shape != hy.shape:
        raise ConfigError("field batches must have matching path counts")
    if slack is None:
        slack = 10.0 * x_field.dt
    deficit = inf_sigma * np.sqrt(hy) - np.sqrt(hx)
    violations = deficit > slack
    return LiftBoundReport(
        n_paths=int(hx.shape[0]),
        n_violations=int(np.count_nonzero(violations)),
        max_deficit=float(np.max(deficit)) if hx.size else 0.0,
        slack=float(slack),
        inf_sigma=float(inf_sigma))
