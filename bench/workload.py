"""Child process of the benchmark: runs one workload once.

    python3 bench/workload.py ENTRY INPUT OUT_DIR [--trace TRACE_JSON]

``ENTRY`` is ``cli:<subcommand>`` for a command-line workload, whose
``INPUT`` is the run config, or ``sensitivity`` for the library workload,
whose ``INPUT`` holds its call parameters.  Untraced command-line runs go
through ``python3 -m perturbsde.cli`` instead; this script is their traced
form.  With ``--trace`` the layer entry points are wrapped before the run
and the spans, counters and entry-module import time are written to
``TRACE_JSON`` when it ends.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path


def run_sensitivity(params: dict, out_dir: Path) -> None:
    """The README quick start, repeated over ``len(params["batches"])``
    disjoint path ranges of one seed, with the by-time norm curve on."""
    import numpy as np
    import perturbsde as p

    spec = p.ProblemSpec(
        x0=params["x0"], alpha=params["alpha"],
        drift=p.Coefficient.tanh(amplitude=params["drift_amplitude"]),
        diffusion=p.Coefficient.const(params["sigma"]),
        horizon=params["horizon"])
    grid = p.GridSpec(n_steps=params["n_steps"], horizon=params["horizon"])
    norms, curves = [], []
    for offset in params["batches"]:
        batch = p.simulate_batch(spec, grid, n_paths=params["n_paths"],
                                 seed=params["seed"], path_offset=offset)
        fields = p.propagate_derivative_batch(batch, spec, grid,
                                              track_all_times=True)
        norms.append(np.stack([fields.h_norm_sq_final,
                               fields.sup_h_norm_sq]))
        curves.append(fields.h_norm_sq_by_time.mean(axis=1))
        del batch, fields
    np.save(out_dir / "norms.npy", np.stack(norms))
    np.save(out_dir / "h_norm_sq_by_time_mean.npy", np.stack(curves))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("entry")
    parser.add_argument("input", type=Path)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--trace", type=Path, default=None)
    args = parser.parse_args(argv)

    module = "perturbsde" if args.entry == "sensitivity" else "perturbsde.cli"
    start = time.perf_counter()
    importlib.import_module(module)
    import_s = time.perf_counter() - start

    tracer = None
    if args.trace is not None:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.entry == "sensitivity":
        run_sensitivity(json.loads(args.input.read_text()), args.out_dir)
        rc = 0
    else:
        from perturbsde import cli
        command = args.entry.split(":", 1)[1]
        rc = cli.main([command, "--config", str(args.input),
                       "--out", str(args.out_dir), "--workers", "1"])

    if tracer is not None:
        args.trace.write_text(json.dumps({
            "import_s": import_s,
            "summary": spans.summarize(tracer.spans),
            "counts": dict(tracer.counts),
            "spans": tracer.spans,
        }))
    return rc


if __name__ == "__main__":
    sys.exit(main())
