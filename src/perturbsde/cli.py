"""Command-line front end.

One JSON config describes one run; subcommands bind it to the pipeline:

* ``simulate``   paths table + terminal summary
* ``derivative`` noise-derivative table + norm summary
* ``regime``     admissibility report + lower-bound curve
* ``density``    kernel density table + smoothness diagnostic
* ``transform``  unit-diffusion change-of-variables table + transformed spec
* ``verify``     invariant suites with a pass/fail report

Exit codes: 0 success, 2 configuration error (a run too large for the
memory at hand included), 3 numerical failure, 4 verification failure.
Everything a run produces carries the tool version, a hash of the
effective config, and the seed, and is bitwise reproducible for a fixed
config: worker processes only partition the path range, and
each path's noise is keyed by (seed, path index), so the artifact content
is independent of ``--workers``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any

import numpy as np

from . import io
from .bounds import floor_violations, regime_report
from .density import (
    derivative_bandwidth_rule,
    kde,
    l1_distance,
    oracle_driftless,
    smoothness_diagnostic,
)
from .errors import (
    ConfigError,
    DegenerateDiffusion,
    DomainTooSmall,
    EmptySample,
    IntegrationFailure,
    NonFinite,
    OutOfDomain,
    PerturbSDEError,
    VerificationFailure,
)
from .integrate import simulate_batch, simulate_terminal
from .lamperti import (
    DEFAULT_NODES,
    build_transform,
    transformed_spec,
)
from .malliavin import propagate_derivative_batch
from .model import GridSpec, ProblemSpec
from . import verify as verify_mod

__all__ = ["main"]

_NUMERIC_ERRORS = (NonFinite, IntegrationFailure, OutOfDomain,
                   DomainTooSmall, EmptySample, DegenerateDiffusion)


def _require(config: dict, command: str, *fields: str) -> None:
    missing = [f for f in fields if config.get(f) is None]
    if missing:
        raise ConfigError(
            f"{command} config requires fields: {', '.join(missing)}")


def _moments(values: np.ndarray) -> dict[str, float]:
    v = np.asarray(values, float)
    ddof = 1 if v.size > 1 else 0
    return {"mean": float(np.mean(v)), "std": float(np.std(v, ddof=ddof)),
            "min": float(np.min(v)), "max": float(np.max(v))}


# -- worker functions (top level so they survive pickling) --------------------


def _simulate_worker(problem_json, grid_json, seed, n_paths, path_offset):
    spec = io.problem_from_json(problem_json)
    grid = io.grid_from_json(grid_json)
    batch = simulate_batch(spec, grid, n_paths, seed, path_offset)
    return batch.x, batch.final_argmax_idx()


def _terminal_worker(problem_json, grid_json, seed, n_paths, path_offset):
    spec = io.problem_from_json(problem_json)
    grid = io.grid_from_json(grid_json)
    return (simulate_terminal(spec, grid, n_paths, seed, path_offset),)


def _derivative_worker(problem_json, grid_json, seed, track, n_paths,
                       path_offset):
    spec = io.problem_from_json(problem_json)
    grid = io.grid_from_json(grid_json)
    batch = simulate_batch(spec, grid, n_paths, seed, path_offset)
    fields = propagate_derivative_batch(batch, spec, grid,
                                        track_all_times=track)
    return (fields.d_x, fields.d_m, fields.h_norm_sq_final,
            fields.sup_h_norm_sq, batch.final_argmax_idx(),
            fields.h_norm_sq_by_time)


def _chunks(n_paths: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous (offset, count) blocks; the partition never affects
    results because every path's noise is keyed by its global index."""
    size = max(1, math.ceil(n_paths / workers))
    return [(lo, min(size, n_paths - lo))
            for lo in range(0, n_paths, size)]


def _pool_size(workers: int, n_chunks: int, n_cpus: int) -> int:
    """Processes to start: no more than requested, than there are chunks,
    or than CPUs this process may run on.  A pool launches all its
    processes on the first submit, so ``--workers`` alone must not size
    it."""
    return max(1, min(workers, n_chunks, n_cpus))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunked(worker, common: tuple, n_paths: int, workers: int) -> list:
    chunks = _chunks(n_paths, workers)
    pool_size = _pool_size(workers, len(chunks), _usable_cpus())
    if pool_size == 1:
        return [worker(*common, count, offset) for offset, count in chunks]
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        futures = [pool.submit(worker, *common, count, offset)
                   for offset, count in chunks]
        return [f.result() for f in futures]


def _assemble(results: list, part: int, axis: int) -> np.ndarray:
    """Part ``part`` of every chunk result, joined along ``axis``; a single
    chunk's array is returned as it is, not copied."""
    if len(results) == 1:
        return results[0][part]
    return np.concatenate([r[part] for r in results], axis=axis)


# -- shared config plumbing ---------------------------------------------------


def _problem_and_grid(config: dict) -> tuple[ProblemSpec, GridSpec, dict]:
    problem = io.problem_from_json(config["problem"])
    grid = io.grid_from_json(config["grid"],
                             default_horizon=problem.horizon)
    return problem, grid, io.grid_to_json(grid)


def _regime(config: dict, problem: ProblemSpec):
    """Regime report at the config's ``t0`` and transform table size."""
    n_nodes = config.get("transform", {}).get("n_nodes", DEFAULT_NODES)
    return regime_report(problem, config["t0"], n_transform_nodes=n_nodes)


def _regime_block(report) -> dict[str, Any]:
    return {"t0": report.t0, "theta_at_t0": report.theta_at_t0,
            "admissible": report.admissible, "t0_max": report.t0_max,
            "alpha": report.alpha, "lb": report.lb,
            "lb_source": report.lb_source, "sigma_bar": report.sigma_bar,
            "transformed": report.transformed, "rigorous": report.rigorous}


# -- subcommands --------------------------------------------------------------


def cmd_simulate(config: dict, out_dir: Path, workers: int,
                 meta: dict) -> None:
    _require(config, "simulate", "problem", "grid", "n_paths", "seed")
    problem, grid, grid_json = _problem_and_grid(config)
    n_paths, seed = config["n_paths"], config["seed"]
    results = _run_chunked(_simulate_worker,
                           (config["problem"], grid_json, seed),
                           n_paths, workers)
    x = _assemble(results, 0, axis=1)            # (n_steps+1, n_paths)
    argmax_final = _assemble(results, 1, axis=0)
    running_max = np.maximum.accumulate(x, axis=0)

    n1 = grid.n_steps + 1
    io.write_csv(out_dir / "paths.csv",
                 {"path": np.repeat(np.arange(n_paths), n1),
                  "t": np.tile(grid.times, n_paths),
                  "x": x.T.reshape(-1),
                  "running_max": running_max.T.reshape(-1)},
                 meta=meta)
    io.write_json(out_dir / "summary.json", {
        "n_paths": n_paths,
        "n_steps": grid.n_steps,
        "dt": grid.dt,
        "horizon": grid.horizon,
        "terminal": _moments(x[-1]),
        "running_max": _moments(running_max[-1]),
        "argmax_time": _moments(grid.times[argmax_final]),
    }, meta=meta)


def cmd_derivative(config: dict, out_dir: Path, workers: int,
                   meta: dict) -> None:
    _require(config, "derivative", "problem", "grid", "n_paths", "seed")
    problem, grid, grid_json = _problem_and_grid(config)
    n_paths, seed = config["n_paths"], config["seed"]
    track = config.get("t0") is not None
    results = _run_chunked(_derivative_worker,
                           (config["problem"], grid_json, seed, track),
                           n_paths, workers)
    d_x = _assemble(results, 0, axis=0)          # (n_paths, n_steps)
    d_m = _assemble(results, 1, axis=0)
    h_final = _assemble(results, 2, axis=0)
    h_sup = _assemble(results, 3, axis=0)
    argmax_final = _assemble(results, 4, axis=0)
    by_time = _assemble(results, 5, axis=1) if track else None

    n = grid.n_steps
    io.write_csv(out_dir / "derivative.csv",
                 {"path": np.repeat(np.arange(n_paths), n),
                  "r": np.tile(grid.times[:n], n_paths),
                  "d_x": d_x.reshape(-1),
                  "d_m": d_m.reshape(-1)},
                 meta=meta)

    summary: dict[str, Any] = {
        "n_paths": n_paths,
        "h_norm_sq_final": h_final,
        "sup_h_norm_sq": h_sup,
        "argmax_time": grid.times[argmax_final],
    }
    if track:
        report = _regime(config, problem)
        summary["bounds"] = {**_regime_block(report),
                             **floor_violations(report, grid, h_sup, by_time)}
    io.write_json(out_dir / "derivative_summary.json", summary, meta=meta)


def cmd_regime(config: dict, out_dir: Path, workers: int,
               meta: dict) -> None:
    _require(config, "regime", "problem", "t0")
    report = _regime(config, io.problem_from_json(config["problem"]))
    io.write_json(out_dir / "regime.json", _regime_block(report), meta=meta)
    io.write_csv(out_dir / "lower_bound_curve.csv",
                 {"t": report.lower_bound_curve[:, 0],
                  "bound": report.lower_bound_curve[:, 1]},
                 meta=meta)


def cmd_density(config: dict, out_dir: Path, workers: int,
                meta: dict) -> None:
    _require(config, "density", "problem", "grid", "n_paths", "seed")
    problem, grid, grid_json = _problem_and_grid(config)
    n_paths, seed = config["n_paths"], config["seed"]
    results = _run_chunked(_terminal_worker,
                           (config["problem"], grid_json, seed),
                           n_paths, workers)
    sample = _assemble(results, 0, axis=0)

    estimate = kde(sample, bandwidth=config.get("bandwidth"),
                   n_grid=config.get("n_grid", 512), ladder=False)
    # The curvature ladder needs the slower-shrinking derivative bandwidth;
    # at the density-optimal rate the second-derivative rungs are noise.
    deriv_est = kde(sample, bandwidth=derivative_bandwidth_rule(sample),
                    eval_grid=estimate.grid)
    smooth = smoothness_diagnostic(deriv_est)

    columns = {"z": estimate.grid, "p_hat": estimate.pdf}
    diagnostic: dict[str, Any] = {
        "n_samples": int(sample.size),
        "bandwidth": estimate.bandwidth,
        "derivative_bandwidth": deriv_est.bandwidth,
        "normalization": estimate.normalization(),
        "sample_mean": estimate.sample_mean,
        "sample_std": estimate.sample_std,
        "smoothness": {
            "verdict": smooth.verdict,
            "score": smooth.score,
            "d1_score": smooth.d1_score,
            "d2_score": smooth.d2_score,
            "d1_threshold": smooth.d1_threshold,
            "d2_threshold": smooth.d2_threshold,
            "note": smooth.note,
        },
    }
    # Zero drift and constant nonzero diffusion: the closed form applies.
    sigma_const = problem.diffusion.constant_value
    if problem.drift.constant_value == 0.0 and sigma_const not in (None, 0.0):
        p_oracle = oracle_driftless(problem.x0, sigma_const, problem.alpha,
                                    grid.horizon, estimate.grid)
        columns["p_oracle"] = p_oracle
        diagnostic["l1_to_oracle"] = l1_distance(estimate, p_oracle)
    if config.get("t0") is not None:
        diagnostic["regime"] = _regime_block(_regime(config, problem))
    io.write_csv(out_dir / "density.csv", columns, meta=meta)
    io.write_json(out_dir / "diagnostic.json", diagnostic, meta=meta)


def cmd_transform(config: dict, out_dir: Path, workers: int,
                  meta: dict) -> None:
    _require(config, "transform", "problem")
    problem = io.problem_from_json(config["problem"])
    block = config.get("transform", {})
    domain = tuple(block["domain"]) if "domain" in block else None
    table = build_transform(problem,
                            n_nodes=block.get("n_nodes", DEFAULT_NODES),
                            domain=domain)
    io.write_csv(out_dir / "transform_table.csv",
                 {"y": table.nodes, "F": table.F_values}, meta=meta)
    io.write_json(out_dir / "transformed_spec.json", {
        "problem": io.problem_to_json(transformed_spec(problem, table)),
        "domain": [table.domain[0], table.domain[1]],
        "n_nodes": int(table.nodes.size),
        "sigma_inf": table.sigma_inf,
    }, meta=meta)


def cmd_verify(config: dict, out_dir: Path, workers: int,
               meta: dict) -> None:
    suites = config.get("suites")
    if suites is not None:
        unknown = set(suites) - set(verify_mod.ALL_SUITES)
        if unknown:
            raise ConfigError(
                f"unknown verification suites: {sorted(unknown)}; "
                f"available: {', '.join(verify_mod.ALL_SUITES)}")
    results = verify_mod.run_suites(suites, seed=config.get("seed"))
    io.write_json(out_dir / "verify_report.json", {
        "all_passed": all(r.passed for r in results),
        "suites": [{"name": r.name, "passed": r.passed, "worst": r.worst,
                    "tolerance": r.tolerance, "details": r.details}
                   for r in results],
    }, meta=meta)
    failed = [r.name for r in results if not r.passed]
    if failed:
        raise VerificationFailure(
            f"{len(failed)} of {len(results)} suites failed: "
            f"{', '.join(failed)}")


_HANDLERS = {
    "simulate": cmd_simulate,
    "derivative": cmd_derivative,
    "regime": cmd_regime,
    "density": cmd_density,
    "transform": cmd_transform,
    "verify": cmd_verify,
}


# -- entry point --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perturbsde",
        description="Simulation and analysis of diffusions with "
                    "running-supremum feedback.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simulate", "simulate paths and write a terminal summary"),
        ("derivative", "propagate noise derivatives along simulated paths"),
        ("regime", "evaluate the density lower-bound regime report"),
        ("density", "estimate the terminal density with diagnostics"),
        ("transform", "tabulate the unit-diffusion change of variables"),
        ("verify", "run the invariant verification suites"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="path to the JSON run config")
        p.add_argument("--out", default=None,
                       help="output directory (default: config 'out', "
                            "PERTURBSDE_OUT, or '.')")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes; never affects results")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    return parser


def _effective_config(args: argparse.Namespace) -> dict:
    try:
        raw = io.read_json(args.config)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    config = io.decode_floats(raw)
    # the override is checked with the rest; a non-object config fails there
    if args.seed is not None and isinstance(config, dict):
        config["seed"] = args.seed
    io.check_config(config)
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        config = _effective_config(args)
        out_dir = Path(args.out or os.environ.get("PERTURBSDE_OUT")
                       or config.get("out") or ".")
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") \
                from None
        # The hash covers everything that determines artifact content; the
        # output location does not.
        hashed = {k: v for k, v in config.items() if k != "out"}
        meta = {"version": io.TOOL_VERSION,
                "config_sha256": io.config_hash(hashed),
                "seed": config.get("seed")}
        _HANDLERS[args.command](config, out_dir, args.workers, meta)
    except VerificationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PerturbSDEError, ValueError) as exc:
        # Remaining package errors are configuration problems; ValueError
        # covers malformed JSON text.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # the config sizes the run; numpy's message names the array
        reason = str(exc) or "an allocation failed"
        print(f"error: out of memory: {reason}; reduce n_paths, "
              "grid.n_steps or n_grid", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
