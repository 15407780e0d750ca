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
``1/sigma`` on an equispaced grid gives fourth-order accurate cumulative
values, and the exact slopes ``F' = 1/sigma`` at the nodes come with
them.  The piecewise cubic Hermite interpolant through both
(:func:`~perturbsde.model.hermite`) is the forward map.  The inverse
starts from linear interpolation of the reversed table (``F``
increases), polishes with safeguarded Newton steps on the forward
interpolant, and falls back to bisection for the rare points Newton
leaves.

The transformed drift needs no inverse: its values at the image nodes
``F(y_j)`` are ``tilde_b`` evaluated at ``y_j`` directly, and one spline
through them is the drift the transformed problem simulates, the one the
``transform`` subcommand serializes, and, through the exact maximum of
its slope, the regime bound ``sup |tilde_b'|``.  That bound is exact for
the table over its range; the table's own interpolation error against
the analytic ``tilde_b`` is not bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

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
from .model import Coefficient, ProblemSpec, hermite

__all__ = [
    "TransformTable",
    "LiftBoundReport",
    "build_transform",
    "forward",
    "inverse",
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
# validation grid (10) so transformed problems validate inside the table.
DOMAIN_HALFWIDTH_STDS = 12.0


@dataclass(frozen=True, eq=False)
class TransformTable:
    """Tabulated primitive ``F`` of ``1/sigma`` for ``problem``, with exact
    node slopes.  Tables compare and hash by identity, since the generated
    field-wise ``==`` cannot compare arrays."""

    nodes: np.ndarray
    F_values: np.ndarray
    F_slopes: np.ndarray
    problem: ProblemSpec

    def __post_init__(self) -> None:
        self.nodes.flags.writeable = False
        self.F_values.flags.writeable = False
        self.F_slopes.flags.writeable = False

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.nodes[0]), float(self.nodes[-1])

    @property
    def range(self) -> tuple[float, float]:
        return float(self.F_values[0]), float(self.F_values[-1])


def build_transform(problem: ProblemSpec, n_nodes: int = DEFAULT_NODES,
                    domain: tuple[float, float] | None = None
                    ) -> TransformTable:
    """Tabulate ``F`` for a problem with strictly positive diffusion.

    The default domain is ``x0 +- 12 sigma_bar sqrt(T)``.  A ``sigma``
    that vanishes or changes sign on the validation grid, or is not
    positive anywhere on the domain (nodes or Simpson midpoints), raises
    :class:`DegenerateDiffusion`: a sign flip would break the
    max-commutation property the supremum term depends on.
    """
    if problem.sigma_inf <= 0.0 or not problem.sigma_sign_constant:
        raise DegenerateDiffusion(
            "diffusion vanishes or changes sign on the validation grid")
    if n_nodes < 5:
        raise ConfigError("n_nodes must be >= 5")
    if domain is None:
        sigma_bar = problem.diffusion_bounds.sup_f
        if not math.isfinite(sigma_bar):
            raise ConfigError(
                "diffusion has no finite sup bound; pass an explicit domain")
        half = DOMAIN_HALFWIDTH_STDS * sigma_bar * math.sqrt(problem.horizon)
        domain = (problem.x0 - half, problem.x0 + half)
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < problem.x0 < hi:
        raise ConfigError("transform domain must contain x0 in its interior")

    nodes = np.linspace(lo, hi, n_nodes)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    s_nodes = np.asarray(problem.diffusion(nodes, 0))
    s_mids = np.asarray(problem.diffusion(mids, 0))
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
    anchor = float(hermite(nodes, G, g_nodes, problem.x0))
    return TransformTable(nodes=nodes, F_values=G - anchor,
                          F_slopes=g_nodes, problem=problem)


def _F(table: TransformTable, y, order: int = 0) -> np.ndarray:
    """The table's interpolant of ``F`` (or ``F'``), NaN off the domain."""
    return hermite(table.nodes, table.F_values, table.F_slopes, y, order)


def forward(table: TransformTable, y):
    """Evaluate ``F(y)``; values outside the table domain raise
    :class:`OutOfDomain`."""
    y_arr = np.asarray(y, float)
    out = _F(table, y_arr)
    if np.any(np.isnan(out)) and not np.any(np.isnan(y_arr)):
        lo, hi = table.domain
        raise OutOfDomain(
            f"forward transform evaluated outside [{lo:.6g}, {hi:.6g}]")
    return float(out) if y_arr.ndim == 0 else out


def brentq(f, a: float, b: float, xtol: float = 2e-12) -> float:
    """Root of ``f`` in ``[a, b]`` by bisection, to ``xtol`` or to float
    resolution, so any ``xtol`` terminates.  Raises
    :class:`IntegrationFailure` when ``f(a)`` and ``f(b)`` do not bracket a
    root or ``f`` is NaN.  The name stays for callers that rebind it to
    count fallbacks."""
    fa, fb = f(a), f(b)
    sign = 1.0 if fa <= fb else -1.0   # then sign f(a) <= 0 <= sign f(b)
    if not sign * fa <= 0.0 <= sign * fb:
        raise IntegrationFailure(f"bisection has no bracket: f(a) = {fa!r}, "
                                 f"f(b) = {fb!r}")
    while b - a > xtol:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        fm = sign * f(mid)
        if math.isnan(fm):
            raise IntegrationFailure(f"bisection met f = NaN at {mid!r}")
        if fm < 0.0:
            a = mid
        else:
            b = mid
    return b


def inverse(table: TransformTable, z, tol: float = INVERSE_TOL):
    """Solve ``F(y) = z`` on the table domain.

    Linear interpolation of the reversed table supplies the starting
    point; two Newton polish steps on the forward interpolant bring the
    residual to roundoff, and any stragglers fall back to bisection
    (:func:`brentq`).  The result satisfies ``|F(y) - z| <= tol``.
    """
    z_arr = np.asarray(z, float)
    flo, fhi = table.range
    if np.any(z_arr < flo) or np.any(z_arr > fhi):
        raise DomainTooSmall(
            f"inverse target outside table range [{flo:.6g}, {fhi:.6g}]")
    # work on a 1-d copy: 0-d array arithmetic degrades to numpy scalars
    zf = np.atleast_1d(z_arr)
    y = np.interp(zf, table.F_values, table.nodes)
    lo, hi = table.domain
    np.clip(y, lo, hi, out=y)
    for _ in range(2):
        slope = _F(table, y, 1)
        slope = np.where(slope > 0.0, slope, 1.0)
        y = y - (_F(table, y) - zf) / slope
        np.clip(y, lo, hi, out=y)
    resid = np.abs(_F(table, y) - zf)
    bad = ~(resid <= tol)
    if np.any(bad):
        for idx in np.argwhere(bad):
            i = tuple(idx)
            y[i] = brentq(lambda v: float(_F(table, v)) - zf[i],
                          lo, hi, xtol=tol)
    return float(y[0]) if z_arr.ndim == 0 else y.reshape(z_arr.shape)


def _tabulated_drift(table: TransformTable) -> Coefficient:
    """The transformed drift as a table over the image nodes ``z_j = F(y_j)``.

    Values are evaluated directly at ``y_j``, so no inverse-lookup error
    enters; the slope is the value spline's own derivative, consistent
    with finite differences of it, so the table revalidates and
    round-trips through JSON."""
    y, b, s = table.nodes, table.problem.drift, table.problem.diffusion
    values = b(y, 0) / s(y, 0) - 0.5 * s(y, 1)
    return Coefficient.tabulated(table.F_values, values)


def transformed_spec(table: TransformTable) -> ProblemSpec:
    """Unit-diffusion problem equivalent to ``table.problem`` through the
    transform.

    The drift is ``tilde_b`` tabulated over the transform's range, the
    problem the ``transform`` subcommand serializes; the feedback weight
    and horizon carry over unchanged.
    The initial parameter is ``(1-alpha) F(x0/(1-alpha))``: plugging it
    into the time-zero fixed point reproduces ``F`` of the original start,
    and for constant sigma the two discretized problems then coincide
    path by path on shared noise, to interpolation level.

    A drift table narrower than the new problem's validation grid is a
    :class:`ConfigError`, as for any problem.
    """
    problem = table.problem
    alpha = problem.alpha
    y0_fixed = forward(table, problem.x0 / (1.0 - alpha))
    return ProblemSpec(
        x0=(1.0 - alpha) * y0_fixed,
        alpha=alpha,
        drift=_tabulated_drift(table),
        diffusion=Coefficient.const(1.0),
        horizon=problem.horizon,
    )


def transformed_drift_bound(table: TransformTable) -> float:
    """``sup |tilde_b'|`` over the transform's range: the exact maximum
    slope of the drift table :func:`transformed_spec` simulates, which
    bounds the analytic ``tilde_b'`` only up to the table's interpolation
    error."""
    return _tabulated_drift(table).bounds(table.range).sup_d1


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
    fp = _F(table, x, 1)
    fp_max = _F(table, x.max(axis=0), 1)
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
                     y_field: DerivativeFieldBatch,
                     inf_sigma: float) -> LiftBoundReport:
    """Compare matched derivative batches of the original and transformed
    problems, path by path.  The slack is ten time steps' worth of the
    fields' grid spacing, the discretization error scale of the
    comparison.
    """
    if inf_sigma < 0.0:
        raise ConfigError("inf_sigma must be >= 0")
    hx = np.asarray(x_field.h_norm_sq_final, float)
    hy = np.asarray(y_field.h_norm_sq_final, float)
    if hx.shape != hy.shape:
        raise ConfigError("field batches must have matching path counts")
    slack = 10.0 * x_field.dt
    deficit = inf_sigma * np.sqrt(hy) - np.sqrt(hx)
    violations = deficit > slack
    return LiftBoundReport(
        n_paths=int(hx.shape[0]),
        n_violations=int(np.count_nonzero(violations)),
        max_deficit=float(np.max(deficit)) if hx.size else 0.0,
        slack=float(slack),
        inf_sigma=float(inf_sigma))
