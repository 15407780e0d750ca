"""Self-contained verification suites over exact identities and bounds.

Each suite simulates a canonical problem and checks an identity or an
inequality that holds path by path: the explicit driftless solution, the
closed-form derivative norm, the finite-difference gradient, the
derivative-norm floors, and the change-of-variables consistency.  Suites
return a :class:`SuiteResult` rather than raising, so a runner can
aggregate them into one report; the CLI turns any failure into a nonzero
exit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .bounds import floor_violations, regime_report, theta
from .density import oracle_driftless
from .integrate import explicit_additive_path, picard_solve, simulate_batch
from .lamperti import (
    build_transform,
    forward,
    inverse,
    lift_bound_check,
    transformed_field,
    transformed_spec,
)
from .malliavin import (
    cameron_martin_fd,
    inner_product,
    propagate_derivative_batch,
)
from .model import Coefficient, GridSpec, ProblemSpec, validate

__all__ = [
    "SuiteResult",
    "additive_identity_suite",
    "malliavin_closed_form_suite",
    "cameron_martin_suite",
    "lower_bound_suite",
    "lamperti_suite",
    "picard_suite",
    "ALL_SUITES",
    "run_suites",
]


@dataclass(frozen=True)
class SuiteResult:
    """One suite's verdict: the worst observed metric against its
    tolerance, plus per-check detail for the report."""

    name: str
    passed: bool
    worst: float
    tolerance: float
    details: dict[str, Any]


def _driftless_spec(alpha: float) -> ProblemSpec:
    return ProblemSpec(x0=0.0, alpha=alpha, drift=Coefficient.const(0.0),
                       diffusion=Coefficient.const(1.0), horizon=1.0)


def _tanh_spec(alpha: float = 0.1) -> ProblemSpec:
    return ProblemSpec(x0=0.0, alpha=alpha,
                       drift=Coefficient.tanh(amplitude=0.1, scale=1.0),
                       diffusion=Coefficient.const(1.0), horizon=1.0)


def additive_identity_suite(seed: int = 20240801, n_paths: int = 100,
                            n_steps: int = 1000,
                            alphas=(-1.0, 0.0, 0.3, 0.9),
                            tol: float = 1e-12) -> SuiteResult:
    """Step-by-step equality of the implicit per-step scheme and the
    explicit driftless solution ``x0/(1-a) + z + a/(1-a) max z`` on shared
    noise."""
    worst = 0.0
    per_alpha: dict[str, float] = {}
    for alpha in alphas:
        spec = _driftless_spec(alpha)
        grid = GridSpec(n_steps=n_steps, horizon=spec.horizon)
        direct = simulate_batch(spec, grid, n_paths, seed)
        closed = explicit_additive_path(spec.x0, alpha, 1.0, direct.db)
        err = float(np.max(np.abs(direct.x - closed)))
        per_alpha[str(alpha)] = err
        worst = max(worst, err)
    return SuiteResult("additive_identity", worst <= tol, worst, tol,
                       {"per_alpha_max_abs_err": per_alpha,
                        "n_paths": n_paths, "n_steps": n_steps})


def malliavin_closed_form_suite(seed: int = 20240802, n_paths: int = 1000,
                                n_steps: int = 1000,
                                alphas=(-1.0, 0.0, 0.3, 0.9),
                                tol: float = 1e-10) -> SuiteResult:
    """Driftless unit-diffusion paths satisfy
    ``||DX_T||^2 = tau/(1-a)^2 + (T - tau)`` with ``tau`` the argmax time."""
    worst = 0.0
    per_alpha: dict[str, float] = {}
    for alpha in alphas:
        spec = _driftless_spec(alpha)
        grid = GridSpec(n_steps=n_steps, horizon=spec.horizon)
        batch = simulate_batch(spec, grid, n_paths, seed)
        fields = propagate_derivative_batch(batch, spec, grid)
        tau = batch.final_argmax_idx() * grid.dt
        expected = tau / (1.0 - alpha) ** 2 + (spec.horizon - tau)
        err = float(np.max(np.abs(fields.h_norm_sq_final - expected)))
        per_alpha[str(alpha)] = err
        worst = max(worst, err)
    return SuiteResult("malliavin_closed_form", worst <= tol, worst, tol,
                       {"per_alpha_max_abs_err": per_alpha,
                        "n_paths": n_paths, "n_steps": n_steps})


def cameron_martin_suite(seed: int = 20240803, n_paths: int = 100,
                         n_steps: int = 2000, eps: float = 1e-4,
                         tol: float = 1e-2) -> SuiteResult:
    """Finite-difference directional derivative along the constant shift
    ``h = 1`` against the inner product with the propagated field; the
    median relative error over paths must stay under ``tol``."""
    spec = ProblemSpec(x0=0.0, alpha=0.2,
                       drift=Coefficient.sine(amplitude=0.5),
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    grid = GridSpec(n_steps=n_steps, horizon=spec.horizon)
    h = np.ones(n_steps)
    batch = simulate_batch(spec, grid, n_paths, seed)
    fields = propagate_derivative_batch(batch, spec, grid)
    fds = cameron_martin_fd(spec, grid, batch.db, h, eps=eps,
                            base=batch.x[-1])
    ips = inner_product(fields, h, grid.dt)
    denom = np.maximum(np.maximum(np.abs(fds), np.abs(ips)), 1e-300)
    rel_errs = np.abs(fds - ips) / denom
    med = float(np.median(rel_errs))
    return SuiteResult("cameron_martin", med <= tol, med, tol,
                       {"median_rel_err": med,
                        "max_rel_err": float(np.max(rel_errs)),
                        "eps": eps, "n_paths": n_paths, "n_steps": n_steps})


def lower_bound_suite(seed: int = 20240804, n_paths: int = 1000,
                      n_steps: int = 1000, n_pairs: int = 1000
                      ) -> SuiteResult:
    """Monte Carlo sweep of the three derivative-norm inequalities.

    Problem: ``alpha=0.1``, ``b = 0.1 tanh``, unit diffusion, ``T=1``, for
    which ``theta(t0) < 1/2`` at ``t0 = min(1, max_horizon)``.  Checks per
    path, all with the multiplicative slack of
    :func:`~perturbsde.bounds.floor_violations` (or its reciprocal on the
    oscillation side) for discretization error:

    - running sup of ``||DX||^2`` at T beats ``sup_lower_bound(T)`` and
      ``||DX_t||^2`` beats ``final_lower_bound(t, t0)`` at every grid
      time ``0 < t <= t0``, both counted by ``floor_violations``;
    - the oscillation ``| ||DX_t2||^2 - ||DX_t1||^2 |`` stays within the
      repaired difference bound over ``n_pairs`` random time pairs per
      path.

    The repaired bound is ``diff_bound + 2 sigma_bar^2 gap
    + 2 Lb^2 gap^2 sup``: increments arriving inside ``(t1, t2]`` enter
    the norm at ``t2`` but not at ``t1`` and contribute about
    ``sigma^2 (t2 - t1)`` to the difference, a boundary term the plain
    ``2 theta(gap) sup`` form does not cover (at ``alpha = Lb = 0`` the
    norm is exactly ``t`` and the plain form reads ``gap <= 0``).  The
    plain form's observed violation rate is reported in the details.
    """
    spec = _tanh_spec(alpha=0.1)
    report = regime_report(spec, spec.horizon)
    lb, sigma_bar, alpha = report.lb, report.sigma_bar, report.alpha
    grid = GridSpec(n_steps=n_steps, horizon=spec.horizon)
    dt = grid.dt
    t0 = min(spec.horizon, report.t0_max)

    batch = simulate_batch(spec, grid, n_paths, seed)
    fields = propagate_derivative_batch(batch, spec, grid,
                                        track_all_times=True)
    by_time = fields.h_norm_sq_by_time          # time-major (n+1, P)
    sup_sq = fields.sup_h_norm_sq               # (P,)
    del batch, fields   # free paths and fields before the pair checks

    floors = floor_violations(report, grid, sup_sq, by_time)
    slack = floors["slack_factor"]
    sup_viol = floors["n_sup_violations"]
    final_viol = floors.get("n_final_violations", 0)

    rng = np.random.default_rng(seed)
    i1 = rng.integers(1, n_steps + 1, size=(n_paths, n_pairs))
    i2 = rng.integers(1, n_steps + 1, size=(n_paths, n_pairs))
    gap_theta = theta(np.arange(n_steps + 1) * dt, alpha, lb)
    # Blocks of paths keep the float temporaries at (block, n_pairs).
    diff_viol = plain_viol = 0
    for lo in range(0, n_paths, 100):
        hi = min(lo + 100, n_paths)
        rows = np.arange(lo, hi)[:, None]
        j1, j2 = i1[lo:hi], i2[lo:hi]
        sup = sup_sq[lo:hi, None]
        diff = np.abs(by_time[j2, rows] - by_time[j1, rows])
        gaps = np.abs(j2 - j1) * dt
        plain = 2.0 * gap_theta[np.abs(j2 - j1)] * sup
        repaired = (plain + 2.0 * sigma_bar ** 2 * gaps
                    + 2.0 * lb ** 2 * gaps ** 2 * sup)
        diff_viol += int(np.count_nonzero(diff > repaired / slack + 1e-12))
        plain_viol += int(np.count_nonzero(diff > plain / slack + 1e-12))
    plain_viol_rate = float(plain_viol / i1.size)

    total = sup_viol + final_viol + diff_viol
    return SuiteResult(
        "lower_bounds", total == 0, float(total), 0.0,
        {"sup_bound_violations": sup_viol,
         "final_bound_violations": final_viol,
         "diff_bound_violations": diff_viol,
         "plain_diff_bound_violation_rate": plain_viol_rate,
         "t0": t0, "theta_at_t0": theta(t0, alpha, lb), "lb": lb,
         "n_paths": n_paths, "n_steps": n_steps, "n_pairs": n_pairs})


def lamperti_suite(seed: int = 20240805, n_paths: int = 100,
                   n_steps: int = 1000,
                   path_tol: float = 5e-2,
                   roundtrip_tol: float = 1e-8) -> SuiteResult:
    """Consistency of the unit-diffusion change of variables.

    Problem: ``sigma = 2 + sin``, ``b = 0.1 tanh``, ``alpha = 0.1``.
    Checks the forward/inverse round trip on a dense grid, the sup
    difference between the transformed original path and the directly
    simulated transformed path on shared noise, and the derivative-norm
    lifting inequality.  The two paths discretize the same solution in
    different coordinates, so their gap is a genuine O(sqrt(dt)) quantity
    with path-to-path spread; the verdict uses the median over paths (the
    extreme path runs about 3x the median) and the maximum is reported.
    The lift check pairs each path's field with the chain-rule field of
    its own mapped trajectory, for which the inequality is exact up to
    interpolation error; the independently simulated path cannot serve
    here because its derivative slots differ by the same O(sqrt(dt))
    scheme gap, which would overwhelm the O(dt) slack.
    """
    spec = ProblemSpec(
        x0=0.0, alpha=0.1,
        drift=Coefficient.tanh(amplitude=0.1, scale=1.0),
        diffusion=Coefficient.sine(amplitude=1.0, offset=2.0),
        horizon=1.0)
    vspec = validate(spec, require_transform=True)
    table = build_transform(vspec)
    ys = np.linspace(table.domain[0] + 1e-9, table.domain[1] - 1e-9, 4001)
    rt = float(np.max(np.abs(inverse(table, forward(table, ys)) - ys)))

    yspec = transformed_spec(vspec, table)
    grid = GridSpec(n_steps=n_steps, horizon=spec.horizon)
    xb = simulate_batch(spec, grid, n_paths, seed)
    yb = simulate_batch(yspec, grid, n_paths, seed)
    sups = np.max(np.abs(forward(table, xb.x) - yb.x), axis=0)
    path_err = float(np.median(sups))

    fx = propagate_derivative_batch(xb, spec, grid, track_all_times=True)
    fy = transformed_field(table, xb, fx)
    lift = lift_bound_check(fx, fy, vspec.sigma_inf)

    passed = (rt <= roundtrip_tol and path_err <= path_tol
              and lift.n_violations == 0)
    worst = max(rt / roundtrip_tol, path_err / path_tol,
                float(lift.n_violations))
    return SuiteResult(
        "lamperti_consistency", passed, worst, 1.0,
        {"roundtrip_max_err": rt, "roundtrip_tol": roundtrip_tol,
         "path_sup_diff_median": path_err,
         "path_sup_diff_max": float(np.max(sups)), "path_tol": path_tol,
         "lift_violations": lift.n_violations,
         "lift_max_deficit": lift.max_deficit,
         "n_paths": n_paths, "n_steps": n_steps})


def picard_suite(seed: int = 20240806, n_paths: int = 50,
                 n_steps: int = 1000, tol: float = 1e-6,
                 n_iter: int = 30,
                 match_tol: float = 1e-5) -> SuiteResult:
    """Picard iteration of the integral equation lands on the per-step
    scheme's path: sup difference within ``match_tol`` and contraction
    (non-increasing iterate gaps after the second iterate)."""
    spec = _tanh_spec(alpha=0.1)
    grid = GridSpec(n_steps=n_steps, horizon=spec.horizon)
    direct = simulate_batch(spec, grid, n_paths, seed)
    result = picard_solve(spec, grid, direct.db, n_iter=n_iter, tol=tol)
    worst = float(np.max(np.abs(result.paths.x - direct.x)))
    # the NaN rows past a path's last sweep compare False
    all_monotone = not np.any(np.diff(result.sup_diffs[1:], axis=0) > 1e-14)
    n_converged = int(np.count_nonzero(result.converged))
    passed = worst <= match_tol and all_monotone and n_converged == n_paths
    return SuiteResult(
        "picard_consistency", passed, worst, match_tol,
        {"max_sup_diff_vs_direct": worst, "monotone": all_monotone,
         "n_converged": n_converged, "n_paths": n_paths,
         "tol": tol, "n_iter": n_iter})


def density_oracle_suite(seed: int = 20240807, n_samples: int = 2_500_000,
                         tol: float = 5e-3) -> SuiteResult:
    """Sanity of the closed-form driftless density against an exact
    sampler of ``(B_t, sup B_t)`` built from the reflection principle:
    given ``B_t = b``, the conditional law of the supremum inverts to
    ``s = (b + sqrt(b^2 - 2 t log u)) / 2`` for uniform ``u``.  Compares
    the sample mean of ``X = B + S`` (``alpha = 1/2``) with the oracle
    mean by quadrature.  ``X`` has a standard deviation near 1.54, so the
    default sample puts ``tol`` about five standard errors out."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n_samples)
    u = rng.random(n_samples)
    s = 0.5 * (b + np.sqrt(b * b - 2.0 * np.log(u)))
    x = b + s
    zs = np.linspace(-8.0, 10.0, 4001)
    pdf = oracle_driftless(0.0, 1.0, 0.5, 1.0, zs)
    mass = float(np.trapezoid(pdf, zs))
    mean_q = float(np.trapezoid(zs * pdf, zs))
    err = abs(float(np.mean(x)) - mean_q)
    passed = err <= tol and abs(mass - 1.0) <= 1e-4
    return SuiteResult(
        "density_oracle", passed, err, tol,
        {"sampler_mean": float(np.mean(x)), "oracle_mean": mean_q,
         "oracle_mass": mass, "n_samples": n_samples})


ALL_SUITES: dict[str, Callable[..., SuiteResult]] = {
    "additive_identity": additive_identity_suite,
    "malliavin_closed_form": malliavin_closed_form_suite,
    "cameron_martin": cameron_martin_suite,
    "lower_bounds": lower_bound_suite,
    "lamperti_consistency": lamperti_suite,
    "picard_consistency": picard_suite,
    "density_oracle": density_oracle_suite,
}


def run_suites(names=None, seed: int | None = None) -> list[SuiteResult]:
    """Run the named suites (all by default) and collect their results.

    ``seed`` overrides each suite's default stream; unknown names raise
    ``KeyError`` upstream as a config error.
    """
    results = []
    for name in (names if names is not None else ALL_SUITES):
        fn = ALL_SUITES[name]
        results.append(fn() if seed is None else fn(seed=seed))
    return results
