"""Command-line front end.

One JSON config describes one run; subcommands bind it to the pipeline:

* ``simulate``   paths table + terminal summary
* ``derivative`` noise-derivative table + norm summary
* ``regime``     admissibility report + lower-bound curve
* ``density``    kernel density table + the exact law's smoothness, where
                 the closed form applies
* ``transform``  unit-diffusion change-of-variables table + transformed spec
* ``verify``     invariant suites with a pass/fail report

Exit codes: 0 success, 2 configuration error (an unwritable artifact and
a run too large for the memory at hand included), 3 numerical failure, 4
verification failure; a package error's class carries its code.
Everything a run produces carries the tool version, a hash of the
effective config, and the seed, and is bitwise reproducible for a fixed
config: worker processes only partition the path range, and
each path's noise is keyed by (seed, path index), so the artifact content
is independent of ``--workers``.

``simulate`` and ``derivative`` stream: their paths run in contiguous
chunks sized by a fixed byte budget (never by ``--workers``), each
chunk's table rows are formatted in this process and appended in path
order as the chunk finishes, and only the per-path summary values
outlive a chunk.  The summaries are computed from those values joined
in path order, exactly as from one whole run.  ``density`` cuts one
chunk per process it runs (``--workers``, capped by the usable CPUs);
its chunks return one terminal value per path.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from collections import deque
from collections.abc import Sequence
from itertools import islice
from pathlib import Path
from typing import Any

import numpy as np

from . import io
from .bounds import floor_violations, regime_report
from .density import (
    DEFAULT_GRID_POINTS,
    _check_n_grid,
    _mean_std,
    kde,
    l1_distance,
    oracle_driftless,
    smoothness_diagnostic,
)
from .errors import ConfigError, PerturbSDEError, VerificationFailure
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


def _require(config: dict, command: str, *fields: str) -> None:
    missing = [f for f in fields if config.get(f) is None]
    if missing:
        raise ConfigError(
            f"{command} config requires fields: {', '.join(missing)}")


def _moments(values: np.ndarray) -> dict[str, float]:
    v = np.asarray(values, float)
    mean, std = _mean_std(v, ddof=1 if v.size > 1 else 0)
    return {"mean": mean, "std": std,
            "min": float(np.min(v)), "max": float(np.max(v))}


# Every numeric failure is detected explicitly (NonFinite, the finiteness
# checks of validate, the spline refusal), so numpy's floating-point
# warnings add nothing to a run's one error line: the command line and
# every chunk worker run with them off.  errstate is per thread and the
# workers may run in other processes, so they carry it themselves.  The
# library keeps numpy's defaults.
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


# -- chunk workers (top level so they survive pickling) ----------------------
#
# A worker runs the paths ``path_offset .. path_offset + n_paths - 1`` and
# returns ``(part, fields)``: the chunk's per-path results, and the
# ``(n_paths, m)`` arrays of its table (none for ``density``), which the
# parent formats with ``io.path_major_blocks`` in both modes.


@_quiet
def _simulate_worker(problem_json, grid_json, seed, n_paths, path_offset):
    spec = io.problem_from_json(problem_json)
    grid = io.grid_from_json(grid_json)
    batch = simulate_batch(spec, grid, n_paths, seed, path_offset)
    x, argmax = batch.x, batch.final_argmax_idx()
    del batch          # frees the flags before the maximum
    running_max = np.maximum.accumulate(x, axis=0)
    part = (x[-1].copy(), running_max[-1].copy(), argmax)
    return part, (x.T, running_max.T)


@_quiet
def _terminal_worker(problem_json, grid_json, seed, n_paths, path_offset):
    spec = io.problem_from_json(problem_json)
    grid = io.grid_from_json(grid_json)
    return simulate_terminal(spec, grid, n_paths, seed, path_offset), ()


@_quiet
def _derivative_worker(problem_json, grid_json, seed, report, n_paths,
                       path_offset):
    spec = io.problem_from_json(problem_json)
    grid = io.grid_from_json(grid_json)
    batch = simulate_batch(spec, grid, n_paths, seed, path_offset)
    fields = propagate_derivative_batch(batch, spec, grid,
                                        track_all_times=report is not None)
    floors = None if report is None else floor_violations(
        report, grid, fields.sup_h_norm_sq, fields.h_norm_sq_by_time)
    # the floors are counted: free the curve before the slots are built
    fields = dataclasses.replace(fields, h_norm_sq_by_time=None)
    part = (fields.h_norm_sq_final, fields.sup_h_norm_sq,
            batch.final_argmax_idx(), floors)
    return part, (fields.d_x, fields.d_m)


# -- path partition and chunk driver -----------------------------------------

# Bytes of path arrays one chunk of ``simulate`` or ``derivative`` may hold.
# About 200 paths at 1000 steps for ``derivative``: fewer, smaller chunks
# cost per-step call overhead, more raise peak memory.
_CHUNK_BYTES = 8 * 2**20
# Fewest paths a chunk runs, whatever the grid: each chunk pays the
# per-step call overhead of the simulation and both sweeps again (about
# 50 us a step), and at 200 paths that stays a small share of the chunk's
# work.  Past the grid length where the budget gives fewer paths (about
# 1000 steps for ``derivative``, 2500 for ``simulate``) a chunk holds more
# than the budget, in proportion to ``n_steps`` but never to ``n_paths``.
_MIN_CHUNK_PATHS = 200
# Bytes per path and grid time a chunk is budgeted: the values (8), the
# new-maximum flags (1) and an increment block (8), plus, for
# ``derivative``, the by-time norm curve and the two slot arrays (8 each).
# A keyed batch stores no increments, so a ``simulate`` chunk holds at
# most 16 of its 17 (the values, then the running maximum) and a
# ``derivative`` chunk 25 of its 41 (the curve, then the slots); the
# budgets keep the sizes, and so the chunk counts, they were set for.
_SIMULATE_BYTES = 17
_DERIVATIVE_BYTES = 41


def _chunk_paths(n_steps: int, bytes_per_step: int) -> int:
    """Paths per chunk: as many as fit ``_CHUNK_BYTES``, at least
    ``_MIN_CHUNK_PATHS``."""
    return max(_MIN_CHUNK_PATHS,
               _CHUNK_BYTES // (bytes_per_step * (n_steps + 1)))


def _chunks(n_paths: int, size: int) -> list[tuple[int, int]]:
    """Contiguous (offset, count) blocks of ``size`` paths, the last one
    shorter; the partition never affects results because every path's
    noise is keyed by its global index."""
    return [(lo, min(size, n_paths - lo)) for lo in range(0, n_paths, size)]


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


def _stream(worker, common: tuple, chunks: list[tuple[int, int]],
            workers: int):
    """Pairs ``(offset, worker(*common, count, offset))``, in path order.

    One process runs the chunks one after another, so nothing of a chunk
    but what the caller keeps outlives it.  A pool of ``pool_size``
    processes has at most ``pool_size + 1`` chunks submitted and not yet
    consumed: the next chunk is submitted once the caller is done with a
    result.
    """
    pool_size = _pool_size(workers, len(chunks), _usable_cpus())
    if pool_size == 1:
        for offset, count in chunks:
            yield offset, worker(*common, count, offset)
        return
    # imported here: it loads multiprocessing, which one process never uses
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        def submit(offset, count):
            return offset, pool.submit(worker, *common, count, offset)

        todo = iter(chunks)
        pending = deque(submit(*c) for c in islice(todo, pool_size + 1))
        while pending:
            offset, future = pending.popleft()
            yield offset, future.result()
            pending.extend(submit(*c) for c in islice(todo, 1))


def _stream_table(path: Path, names: Sequence[str], labels: np.ndarray,
                  meta: dict, worker, common: tuple,
                  chunks: list[tuple[int, int]], workers: int) -> list:
    """Stream ``worker`` over ``chunks`` into the path-major table
    ``path``: each chunk's rows are appended as it finishes.  Returns the
    chunks' per-path results in path order."""
    parts = []
    with io.open_csv(path, names, meta=meta) as f:
        for offset, (part, fields) in _stream(worker, common, chunks,
                                              workers):
            f.writelines(io.path_major_blocks(offset, labels, *fields))
            parts.append(part)
            del fields     # not held while the next chunk runs
    return parts


def _fold_counts(counts: Sequence[dict]) -> dict:
    """Per-chunk ``floor_violations`` results as one: the integer counts
    add up, every other entry is the same in every chunk."""
    out = dict(counts[0])
    for chunk in counts[1:]:
        for key, value in chunk.items():
            if isinstance(value, int):
                out[key] += value
    return out


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
    chunks = _chunks(n_paths, _chunk_paths(grid.n_steps, _SIMULATE_BYTES))
    parts = _stream_table(out_dir / "paths.csv",
                          ("path", "t", "x", "running_max"), grid.times,
                          meta, _simulate_worker,
                          (config["problem"], grid_json, seed), chunks,
                          workers)
    terminal, running_max, argmax_final = map(np.concatenate, zip(*parts))
    io.write_json(out_dir / "summary.json", {
        "n_paths": n_paths,
        "n_steps": grid.n_steps,
        "dt": grid.dt,
        "horizon": grid.horizon,
        "terminal": _moments(terminal),
        "running_max": _moments(running_max),
        "argmax_time": _moments(grid.times[argmax_final]),
    }, meta=meta)


def cmd_derivative(config: dict, out_dir: Path, workers: int,
                   meta: dict) -> None:
    _require(config, "derivative", "problem", "grid", "n_paths", "seed")
    problem, grid, grid_json = _problem_and_grid(config)
    n_paths, seed = config["n_paths"], config["seed"]
    # the floors are checked chunk by chunk, so no chunk's by-time norm
    # curve outlives it
    report = _regime(config, problem) if config.get("t0") is not None \
        else None
    chunks = _chunks(n_paths, _chunk_paths(grid.n_steps, _DERIVATIVE_BYTES))
    parts = _stream_table(out_dir / "derivative.csv",
                          ("path", "r", "d_x", "d_m"), grid.times[:-1],
                          meta, _derivative_worker,
                          (config["problem"], grid_json, seed, report),
                          chunks, workers)
    h_final, h_sup, argmax_final, floors = zip(*parts)

    summary: dict[str, Any] = {
        "n_paths": n_paths,
        "h_norm_sq_final": np.concatenate(h_final),
        "sup_h_norm_sq": np.concatenate(h_sup),
        "argmax_time": grid.times[np.concatenate(argmax_final)],
    }
    if report is not None:
        summary["bounds"] = {**_regime_block(report), **_fold_counts(floors)}
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
    n_grid = config.get("n_grid", DEFAULT_GRID_POINTS)
    _check_n_grid(n_grid)          # before the sample is simulated
    # and so is the regime: a degenerate diffusion is refused at once
    report = _regime(config, problem) if config.get("t0") is not None \
        else None
    processes = _pool_size(workers, n_paths, _usable_cpus())
    chunks = _chunks(n_paths, math.ceil(n_paths / processes))
    sample = np.concatenate([part for _, (part, _) in _stream(
        _terminal_worker, (config["problem"], grid_json, seed), chunks,
        workers)])

    estimate = kde(sample, bandwidth=config.get("bandwidth"), n_grid=n_grid)

    columns = {"z": estimate.grid, "p_hat": estimate.pdf}
    diagnostic: dict[str, Any] = {
        "n_samples": int(sample.size),
        "bandwidth": estimate.bandwidth,
        "normalization": estimate.normalization(),
        "sample_mean": estimate.sample_mean,
        "sample_std": estimate.sample_std,
    }
    # Zero drift and constant nonzero diffusion: the closed form applies,
    # and with it the law's exact smoothness.  Elsewhere nothing is said
    # about smoothness.
    sigma_const = problem.diffusion.constant_value
    if problem.drift.constant_value == 0.0 and sigma_const not in (None, 0.0):
        p_oracle = oracle_driftless(problem.x0, sigma_const, problem.alpha,
                                    grid.horizon, estimate.grid)
        columns["p_oracle"] = p_oracle
        diagnostic["l1_to_oracle"] = l1_distance(estimate, p_oracle)
        diagnostic["smoothness"] = smoothness_diagnostic(
            problem.x0, sigma_const, problem.alpha, grid.horizon)
    if report is not None:
        diagnostic["regime"] = _regime_block(report)
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
    # built before anything is written: a table too narrow for its own
    # validation grid is refused with no artifact left behind
    yspec = transformed_spec(table)
    io.write_csv(out_dir / "transform_table.csv",
                 {"y": table.nodes, "F": table.F_values}, meta=meta)
    io.write_json(out_dir / "transformed_spec.json", {
        "problem": io.problem_to_json(yspec),
        "domain": [table.domain[0], table.domain[1]],
        "n_nodes": int(table.nodes.size),
        "sigma_inf": table.problem.sigma_inf,
    }, meta=meta)


def cmd_verify(config: dict, out_dir: Path, workers: int,
               meta: dict) -> None:
    results = verify_mod.run_suites(config.get("suites"), config.get("seed"))
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


# Each subcommand's handler, and what to reduce when it runs out of
# memory: the config fields that size its arrays.
_HANDLERS = {
    "simulate": (cmd_simulate, "reduce n_paths or grid.n_steps"),
    "derivative": (cmd_derivative, "reduce n_paths or grid.n_steps"),
    "regime": (cmd_regime, "reduce transform.n_nodes"),
    "density": (cmd_density, "reduce n_paths or n_grid"),
    "transform": (cmd_transform, "reduce transform.n_nodes"),
    "verify": (cmd_verify, "run fewer suites"),
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
        config = io.read_json(args.config)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad JSON or UTF-8, or an integer past the digit limit
        raise ConfigError(f"cannot read config: {exc}") from None
    # the override is checked with the rest; a non-object config fails there
    if args.seed is not None and isinstance(config, dict):
        config["seed"] = args.seed
    io.check_config(config)
    return config


@_quiet
def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler, sized_by = _HANDLERS[args.command]
    try:
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        config = _effective_config(args)
        out_dir = Path(args.out or os.environ.get("PERTURBSDE_OUT")
                       or config.get("out") or ".")
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except (OSError, ValueError) as exc:     # ValueError: a NUL byte
            raise ConfigError(f"cannot create output directory: {exc}") \
                from None
        # The hash covers everything that determines artifact content; the
        # output location does not.
        hashed = {k: v for k, v in config.items() if k != "out"}
        meta = {"version": io.TOOL_VERSION,
                "config_sha256": io.config_hash(hashed),
                "seed": config.get("seed")}
        try:
            handler(config, out_dir, args.workers, meta)
        except OSError as exc:
            # an artifact that cannot be written; open's message names it
            raise ConfigError(f"cannot write artifacts to {out_dir}: {exc}") \
                from None
    except PerturbSDEError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        # the config sizes the run; numpy's message names the array
        reason = str(exc) or "an allocation failed"
        print(f"error: out of memory: {reason}; {sized_by}",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
