"""Acceptance gate: one test per release criterion.

Each test exercises one end-to-end guarantee of the package at its stated
tolerance, so ``pytest -v`` prints a pass/fail line per criterion.  The
criteria pin down, in order: the explicit driftless solution, the
derivative-norm closed form, the directional-derivative cross-check, the
two derivative-norm floors, the two-time oscillation comparison, the
admissibility boundary constants, the strong convergence order, the
density pipeline, the unit-diffusion change of variables, the integral
equation solver, and worker-count invariance of the command line.
"""

import math
import shutil
import time

import numpy as np
import pytest

from perturbsde import (
    Coefficient,
    GridSpec,
    ProblemSpec,
    build_transform,
    cameron_martin_fd,
    explicit_additive_path,
    final_lower_bound,
    forward,
    generate_increments,
    inner_product,
    inverse,
    lift_bound_check,
    max_horizon,
    oracle_driftless,
    picard_solve,
    propagate_derivative_batch,
    simulate_batch,
    simulate_increments,
    sup_lower_bound,
    theta,
    transformed_field,
    transformed_spec,
)
from perturbsde.cli import main
from perturbsde.io import read_json
from conftest import make_driftless, make_tanh

GRID = GridSpec(n_steps=1000, horizon=1.0)
ALPHAS = (-1.0, 0.0, 0.3, 0.9)


@pytest.fixture(scope="module")
def tanh_fields():
    """Shared 10^4-path batch of the bounded-drift reference problem with
    the full time-resolved derivative norms."""
    spec = make_tanh()
    batch = simulate_batch(spec, GRID, 10_000, seed=20240404)
    fields = propagate_derivative_batch(batch, spec, GRID,
                                        track_all_times=True)
    return spec, batch, fields


def test_criterion_01_explicit_solution_identity():
    start = time.perf_counter()
    worst = 0.0
    for alpha in ALPHAS:
        spec = make_driftless(alpha)
        batch = simulate_batch(spec, GRID, 100, seed=11)
        for i in range(100):
            ref = explicit_additive_path(0.0, alpha, 1.0, batch.db[:, i])
            worst = max(worst, float(np.max(np.abs(batch.x[:, i] - ref))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_derivative_norm_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for alpha in ALPHAS:
        spec = make_driftless(alpha)
        batch = simulate_batch(spec, GRID, 1000, seed=13)
        fields = propagate_derivative_batch(batch, spec, GRID)
        tau = batch.final_argmax_idx() * GRID.dt
        expected = tau / (1.0 - alpha) ** 2 + (1.0 - tau)
        worst = max(worst, float(np.max(
            np.abs(fields.h_norm_sq_final - expected))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_03_directional_derivative_consistency():
    spec = ProblemSpec(x0=0.0, alpha=0.2,
                       drift=Coefficient.sine(amplitude=0.5),
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    grid = GridSpec(n_steps=2000, horizon=1.0)
    h = np.ones(grid.n_steps)
    batch = simulate_batch(spec, grid, 100, seed=17)
    fields = propagate_derivative_batch(batch, spec, grid)
    ips = inner_product(fields, h)
    rel = []
    for i, ip in enumerate(ips):
        # each path re-simulated from its own keyed stream, alone
        db = generate_increments(17, grid.n_steps, grid.dt, path_offset=i)
        fd = cameron_martin_fd(spec, grid, db, h, eps=1e-4,
                               base=batch.x[-1, i:i + 1])[0]
        rel.append(abs(fd - ip) / max(abs(fd), abs(ip), 1e-300))
    assert float(np.median(rel)) <= 1e-2


def test_criterion_04_running_sup_floor(tanh_fields):
    spec, _, fields = tanh_fields
    slack = 1.0 - 10.0 * GRID.dt
    floor = sup_lower_bound(1.0, spec.alpha, 0.1, 1.0)
    violations = int(np.count_nonzero(fields.sup_h_norm_sq < slack * floor))
    assert violations == 0, (
        f"{violations} of {fields.n_paths} paths fell under "
        f"{slack:.3f} * {floor:.6f}")


def test_criterion_05_final_norm_floor(tanh_fields):
    spec, _, fields = tanh_fields
    t0 = min(1.0, max_horizon(spec.alpha, 0.1))
    assert t0 == 1.0
    assert theta(t0, spec.alpha, 0.1) < 0.5
    slack = 1.0 - 10.0 * GRID.dt
    ts = GRID.times[1:]
    floors = np.array([final_lower_bound(t, t0, spec.alpha, 0.1, 1.0)
                       for t in ts])
    by_time = fields.h_norm_sq_by_time[1:]
    violations = int(np.count_nonzero(by_time < slack * floors[:, None]))
    assert violations == 0, (
        f"{violations} grid-time floor violations over "
        f"{fields.n_paths} paths")


def test_criterion_06_two_time_oscillation_bound(tanh_fields):
    spec, _, fields = tanh_fields
    n_paths, n_pairs = 100, 1000
    by_time = fields.h_norm_sq_by_time[:, :n_paths]
    sup = fields.sup_h_norm_sq[:n_paths]
    rng = np.random.default_rng(20240606)
    k1 = rng.integers(1, GRID.n_steps + 1, n_pairs)
    k2 = rng.integers(1, GRID.n_steps + 1, n_pairs)
    gaps = np.abs(k2 - k1) * GRID.dt
    bounds = np.array([2.0 * theta(g, spec.alpha, 0.1) for g in gaps])
    jumps = np.abs(by_time[k2] - by_time[k1])        # (n_pairs, n_paths)
    violations = int(np.count_nonzero(jumps > bounds[:, None] * sup[None, :]))
    total = n_pairs * n_paths
    assert violations == 0, (
        f"two-time bound 2*theta(|t2-t1|)*sup violated for {violations} of "
        f"{total} (path, pair) combinations "
        f"(rate {violations / total:.2%}).  The bound cannot hold as "
        f"stated: it carries no term for the noise injected between the "
        f"two times.  With alpha=0, b=0, sigma=1 the norm is exactly "
        f"||DX_t||^2 = t, so the oscillation equals |t2-t1| while "
        f"2*theta(|t2-t1|)*sup = o(|t2-t1|) vanishes faster; adding the "
        f"fresh-noise terms 2*sigma_bar^2*gap + 2*Lb^2*gap^2*sup repairs "
        f"it (that corrected comparison is what the lower_bounds "
        f"verification suite enforces, with zero violations).")


def test_criterion_07_admissibility_boundary_constants():
    assert max_horizon(0.0, 1.0) == pytest.approx(
        (2.0 - math.sqrt(2.0)) / 2.0, abs=1e-10)
    # locate the driftless feedback threshold by bisecting the
    # finite/infinite switch of the admissible horizon
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if max_horizon(mid, 0.0) == math.inf:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(
        (2.0 - math.sqrt(2.0)) / 4.0, abs=1e-10)


def test_criterion_08_strong_order_on_linear_benchmark():
    # the package's integrator on mean-reverting drift -x, unit additive
    # noise and alpha = 0: the transition law is Gaussian, so an exact
    # recursion on the shared increments provides the reference at every
    # resolution
    spec = ProblemSpec(x0=1.0, alpha=0.0,
                       drift=Coefficient.ornstein_uhlenbeck(rate=1.0),
                       diffusion=Coefficient.const(1.0), horizon=1.0)
    n_paths, n_fine = 256, 4096
    dt_fine = 1.0 / n_fine
    db_fine = generate_increments(20240808, n_fine, dt_fine,
                                  n_paths=n_paths).T
    errors, dts = [], []
    for n in (256, 512, 1024, 2048, 4096):
        grid = GridSpec(n_steps=n, horizon=1.0)
        dt = grid.dt
        db = db_fine.reshape(n_paths, n, n_fine // n).sum(axis=2)
        a = math.exp(-dt)
        q = math.sqrt((1.0 - math.exp(-2.0 * dt)) / 2.0)
        sdt = math.sqrt(dt)
        exact = np.ones(n_paths)
        for k in range(n):
            exact = a * exact + q * db[:, k] / sdt
        euler = simulate_increments(spec, grid, db.T, record=False)
        errors.append(float(np.mean(np.abs(exact - euler))))
        dts.append(dt)
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    assert 0.8 <= slope <= 1.2, f"fitted strong order {slope:.3f}"


def test_criterion_09_density_pipeline(tmp_path, repo_configs):
    start = time.perf_counter()
    code = main(["density", "--config", str(repo_configs / "density.json"),
                 "--out", str(tmp_path), "--workers", "4"])
    elapsed = time.perf_counter() - start
    assert code == 0
    doc = read_json(tmp_path / "diagnostic.json")
    assert doc["l1_to_oracle"] <= 0.02
    zs = np.linspace(-8.0, 10.0, 4001)
    mass = float(np.trapezoid(oracle_driftless(0.0, 1.0, 0.5, 1.0, zs), zs))
    assert mass == pytest.approx(1.0, abs=1e-4)
    assert elapsed < 60.0


def test_criterion_10_unit_diffusion_consistency():
    spec = ProblemSpec(x0=0.0, alpha=0.1,
                       drift=Coefficient.tanh(amplitude=0.1, scale=1.0),
                       diffusion=Coefficient.sine(amplitude=1.0, offset=2.0),
                       horizon=1.0)
    table = build_transform(spec)
    lo, hi = table.domain
    span = hi - lo
    ys = np.linspace(lo + 0.05 * span, hi - 0.05 * span, 2000)
    assert float(np.max(np.abs(inverse(table, forward(table, ys)) - ys))) \
        <= 1e-8
    yspec = transformed_spec(table)
    xb = simulate_batch(spec, GRID, 1000, seed=20241010)
    yb = simulate_batch(yspec, GRID, 1000, seed=20241010)
    sup_diff = np.max(np.abs(forward(table, xb.x) - yb.x), axis=0)
    assert float(np.median(sup_diff)) <= 5e-2
    # the lift pairs each path with its own mapped trajectory, where the
    # chain rule makes the inequality exact; the independently simulated
    # trajectory above only enters the sup-difference check
    fx = propagate_derivative_batch(xb, spec, GRID, track_all_times=True)
    fy = transformed_field(table, xb, fx)
    report = lift_bound_check(fx, fy, inf_sigma=1.0)
    assert report.slack == pytest.approx(10.0 * GRID.dt)
    assert report.n_violations == 0, (
        f"{report.n_violations} of {report.n_paths} paths broke the "
        f"norm lift (max deficit {report.max_deficit:.3e})")


def test_criterion_11_integral_equation_solver():
    spec = make_tanh()
    ref = simulate_batch(spec, GRID, 50, seed=20241111)
    result = picard_solve(spec, GRID, ref.db, n_iter=30, tol=1e-6)
    assert np.all(result.converged) and np.all(result.n_sweeps <= 30)
    worst = float(np.max(np.abs(result.x - ref.x)))
    for i in range(50):
        diffs = result.sup_diffs[:result.n_sweeps[i], i]
        assert np.all(np.diff(diffs[1:]) <= 1e-15)
    assert worst <= 1e-5


def test_criterion_12_worker_count_invariance(tmp_path, repo_configs):
    cfg = tmp_path / "simulate.json"
    shutil.copy(repo_configs / "simulate.json", cfg)
    outs = [tmp_path / f"run{i}" for i in range(3)]
    assert main(["simulate", "--config", str(cfg), "--out", str(outs[0]),
                 "--workers", "1"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(outs[1]),
                 "--workers", "1"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(outs[2]),
                 "--workers", "8"]) == 0
    for artifact in ("paths.csv", "summary.json"):
        ref = (outs[0] / artifact).read_bytes()
        assert (outs[1] / artifact).read_bytes() == ref
        assert (outs[2] / artifact).read_bytes() == ref
