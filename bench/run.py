"""perturbsde benchmark: one command, four workloads, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` and writes only under ``.bench_out/``.  ``--trace 0`` times fresh
imports of the entry module (``setup_s``), then runs the workload in fresh
processes until ``--seconds`` is used up (at least once) and reports
medians.  ``--trace 1`` does the same without the import timing, then runs
the workload once more with the layer entry points wrapped (``spans.py``)
and reports per-layer metrics.  Every run checks the outputs and hashes the
artifacts.  The last line of standard output is the result object; the line
before it holds the machine block and the per-run records.  Metric names and
units come from ``BENCHMARK.json``; workloads and metrics are described in
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 3
# Whole-run limit with margin below the 180 s contract; a child that would
# run past it is killed and counted as failed.
RUN_DEADLINE_S = 170.0

# The verify workload runs every suite but density_oracle, whose 5e-3 gate on
# a 200 000-draw sample mean is about 1.5 standard errors and fails on about
# one seed in six (see README.md).  It is cheap (no Euler loop), so leaving it
# out changes little of what the workload measures.
SUITES = ("additive_identity", "malliavin_closed_form", "cameron_martin",
          "lower_bounds", "lamperti_consistency", "picard_consistency")

# The problems of the shipped configs/density.json and configs/derivative.json,
# copied so that an edit to a shipped config does not change the benchmark.
DENSITY_PROBLEM = {
    "x0": 0.0, "alpha": 0.5,
    "drift": {"preset": "const", "params": {"value": 0.0}},
    "diffusion": {"preset": "const", "params": {"value": 1.0}},
    "horizon": 1.0,
}
DERIVATIVE_PROBLEM = {
    "x0": 0.0, "alpha": 0.1,
    "drift": {"preset": "tanh", "params": {"amplitude": 0.1, "scale": 1.0}},
    "diffusion": {"preset": "const", "params": {"value": 1.0}},
    "horizon": 1.0,
}
SENSITIVITY_PATHS = 10_000
SENSITIVITY_STEPS = 1_000
SENSITIVITY_BATCHES = 2


class CheckFailed(Exception):
    """An output check failed; the message says which."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- workloads ----------------------------------------------------------------


def _density_input(seed: int) -> dict:
    return {"problem": DENSITY_PROBLEM, "grid": {"n_steps": 2048},
            "n_paths": 100_000, "seed": seed, "t0": 0.25}


def _derivative_input(seed: int) -> dict:
    return {"problem": DERIVATIVE_PROBLEM, "grid": {"n_steps": 1000},
            "n_paths": 1000, "seed": seed, "t0": 1.0, "format": "csv"}


def _verify_input(seed: int) -> dict:
    return {"suites": list(SUITES), "seed": seed}


def _sensitivity_input(seed: int) -> dict:
    return {"x0": 0.0, "alpha": 0.3, "drift_amplitude": 0.1, "sigma": 1.0,
            "horizon": 1.0, "n_steps": SENSITIVITY_STEPS,
            "n_paths": SENSITIVITY_PATHS, "seed": seed,
            "batches": [b * SENSITIVITY_PATHS
                        for b in range(SENSITIVITY_BATCHES)]}


def _check_density(out: Path, doc: dict) -> dict:
    diag = json.loads((out / "diagnostic.json").read_text())
    norm = diag["normalization"]
    _require(abs(norm - 1.0) <= 0.02, f"normalization {norm} not within 2%")
    l1 = diag.get("l1_to_oracle")
    _require(l1 is not None and l1 <= 0.02, f"l1_to_oracle {l1} > 0.02")
    return {"l1_to_oracle": l1}


def _csv_rows(path: Path) -> int:
    rows = -1                               # the header line
    with open(path, "rb") as f:
        for line in f:
            if not line.startswith(b"#"):
                rows += 1
    return rows


def _check_derivative(out: Path, doc: dict) -> dict:
    bounds = json.loads(
        (out / "derivative_summary.json").read_text())["bounds"]
    for key in ("n_sup_violations", "n_final_violations"):
        _require(bounds.get(key) == 0, f"{key} = {bounds.get(key)}")
    rows = _csv_rows(out / "derivative.csv")
    expected = doc["n_paths"] * doc["grid"]["n_steps"]
    _require(rows == expected, f"derivative.csv has {rows} rows, "
                               f"expected {expected}")
    return {}


def _check_verify(out: Path, doc: dict) -> dict:
    report = json.loads((out / "verify_report.json").read_text())
    _require(report["all_passed"] is True, "verify report: not all passed")
    names = [s["name"] for s in report["suites"]]
    _require(names == doc["suites"], f"verify report ran {names}")
    return {}


def _check_sensitivity(out: Path, doc: dict) -> dict:
    import numpy as np

    norms = np.load(out / "norms.npy")
    _require(norms.shape == (len(doc["batches"]), 2, doc["n_paths"]),
             f"norms.npy has shape {norms.shape}")
    final, sup = norms[:, 0], norms[:, 1]
    _require(bool(np.all(np.isfinite(norms))), "non-finite norms")
    _require(bool(np.all(norms > 0.0)), "non-positive norms")
    _require(bool(np.all(sup >= final)), "sup_h_norm_sq < h_norm_sq_final")
    return {}


@dataclass(frozen=True)
class Workload:
    entry: str                       # "cli:<subcommand>" or "sensitivity"
    make_input: Callable[[int], dict]
    check: Callable[[Path, dict], dict]
    # Simulated path-steps per run; for verify, the Euler path-steps the
    # six suites take at their default sizes (see perturbsde.verify).
    path_steps: int

    @property
    def module(self) -> str:
        return "perturbsde" if self.entry == "sensitivity" \
            else "perturbsde.cli"

    def command(self, input_path: Path, out: Path) -> list[str]:
        if self.entry == "sensitivity":
            return [sys.executable, str(BENCH_DIR / "workload.py"),
                    self.entry, str(input_path), str(out)]
        return [sys.executable, "-m", "perturbsde.cli",
                self.entry.split(":", 1)[1], "--config", str(input_path),
                "--out", str(out), "--workers", "1"]

    def traced_command(self, input_path: Path, out: Path,
                       trace: Path) -> list[str]:
        return [sys.executable, str(BENCH_DIR / "workload.py"), self.entry,
                str(input_path), str(out), "--trace", str(trace)]


WORKLOADS = {
    "density": Workload("cli:density", _density_input, _check_density,
                        100_000 * 2048),
    "derivative-csv": Workload("cli:derivative", _derivative_input,
                               _check_derivative, 1000 * 1000),
    "verify": Workload("cli:verify", _verify_input, _check_verify,
                       # additive 4x100x1000, malliavin 4x1000x1000,
                       # cameron_martin 100x2000 + 200x2000, lower_bounds
                       # 1000x1000, lamperti 2x100x1000, picard 50x1000
                       400_000 + 4_000_000 + 600_000 + 1_000_000
                       + 200_000 + 50_000),
    "sensitivity": Workload("sensitivity", _sensitivity_input,
                            _check_sensitivity,
                            SENSITIVITY_BATCHES * SENSITIVITY_PATHS
                            * SENSITIVITY_STEPS),
}


def input_bytes(workload: str, seed: int) -> bytes:
    """The generated input of ``workload`` for ``seed``, as written."""
    doc = WORKLOADS[workload].make_input(seed)
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


# -- processes ----------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PERTURBSDE_OUT", None)
    return env


def run_child(cmd: list[str], env: dict, log: Path, timeout: float) -> dict:
    """Run ``cmd`` to completion; wall, CPU and peak RSS of that process."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sink,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        try:
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            if killer.is_alive():
                killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode}


def hash_dir(out: Path) -> dict[str, str]:
    hashes = {}
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        with open(path, "rb") as f:
            hashes[path.name] = hashlib.file_digest(f, "sha256").hexdigest()
    return hashes


def src_sha256() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def machine_block(env: dict) -> dict:
    return {"nproc": os.cpu_count(),
            "sched_getaffinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "threads": {var: env[var] for var in THREAD_VARS},
            "git_commit": git_commit(), "src_sha256": src_sha256()}


# -- one benchmark run --------------------------------------------------------


class Run:
    """State of one invocation: work directory, deadline, records."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.started = time.perf_counter()
        self.work = ROOT / ".bench_out" / f"{name}-{seed}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = child_env()
        self.records: list[dict] = []
        self.reference: dict[str, str] | None = None
        self.problems: list[str] = []
        self.doc: dict = {}

    def time_left(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def write_input(self) -> Path:
        """Generate the input twice, require identical bytes (and the same
        bytes as an earlier run with this seed left on disk), write it."""
        data = input_bytes(self.name, self.seed)
        if data != input_bytes(self.name, self.seed):
            self.problems.append("input generation is not deterministic")
        path = self.work / "input.json"
        if path.exists() and path.read_bytes() != data:
            self.problems.append("input differs from an earlier run's")
        path.write_bytes(data)
        self.doc = json.loads(data)
        return path

    def setup_samples(self) -> list[float]:
        """Wall times of fresh interpreters importing the entry module."""
        module = self.workload.module
        code = f"import {module} as m; print(m.__file__)"
        log = self.work / "setup.log"
        expected = (ROOT / "src").resolve()
        samples = []
        for _ in range(SETUP_SAMPLES):
            rec = run_child([sys.executable, "-c", code], self.env, log,
                            self.time_left())
            where = Path(log.read_text().strip().splitlines()[-1]
                         if rec["exit"] == 0 else "")
            if rec["exit"] != 0 or expected not in where.resolve().parents:
                raise SystemExit(f"error: cannot import {module} from "
                                 f"{expected}: {log.read_text()[-2000:]}")
            samples.append(rec["wall_s"])
        return samples

    def iterate(self, input_path: Path, trace: Path | None = None) -> dict:
        """Run the workload once in a fresh process and check its outputs."""
        i = len(self.records)
        out = self.work / f"out-{i}"
        shutil.rmtree(out, ignore_errors=True)
        cmd = (self.workload.traced_command(input_path, out, trace)
               if trace else self.workload.command(input_path, out))
        log = self.work / f"run-{i}.log"
        rec = run_child(cmd, self.env, log, self.time_left())
        rec.update(traced=trace is not None, problems=[], artifacts={})
        if rec["exit"] != 0:
            tail = log.read_text(errors="replace")[-500:]
            rec["problems"].append(f"exit {rec['exit']}: {tail}")
        else:
            try:
                rec["artifacts"] = hash_dir(out)
                rec.update(self.workload.check(out, self.doc))
            except (CheckFailed, OSError, KeyError, ValueError,
                    TypeError) as exc:
                rec["problems"].append(f"check: {exc!r}")
            if self.reference is None:
                self.reference = rec["artifacts"]
            elif rec["artifacts"] != self.reference:
                rec["problems"].append("artifact hashes differ between "
                                       "runs with the same input")
        shutil.rmtree(out, ignore_errors=True)
        self.records.append(rec)
        return rec

    def measure(self, input_path: Path, seconds: float) -> None:
        """Untraced runs until ``seconds`` would be exceeded (at least 1)."""
        budget_end = time.perf_counter() + seconds
        while True:
            rec = self.iterate(input_path)
            now = time.perf_counter()
            if rec["problems"] or now + rec["wall_s"] > budget_end \
                    or rec["wall_s"] > self.time_left():
                break

    def check_ledger(self, source: str) -> None:
        """Compare artifact hashes with earlier runs of the same source
        tree and seed; record them if this is the first."""
        if self.reference is None or any(r["problems"] for r in self.records):
            return
        ledger = ROOT / ".bench_out" / "ledger.jsonl"
        key = {"workload": self.name, "seed": self.seed, "src_sha256": source}
        if ledger.exists():
            for line in ledger.read_text().splitlines():
                entry = json.loads(line)
                if {k: entry[k] for k in key} == key:
                    if entry["artifacts"] != self.reference:
                        self.problems.append(
                            "artifact hashes differ from an earlier run of "
                            "the same source and seed")
                    return
        with open(ledger, "a") as f:
            f.write(json.dumps({**key, "artifacts": self.reference}) + "\n")


def end_to_end_metrics(run: Run, setup: list[float]) -> dict[str, float]:
    untraced = [r for r in run.records if not r["traced"]]

    def median(key: str) -> float:
        return statistics.median(r[key] for r in untraced)

    return {"wall_s": median("wall_s"), "cpu_s": median("cpu_s"),
            "peak_rss_mb": median("peak_rss_mb"),
            "setup_s": statistics.median(setup),
            "path_steps_per_s": run.workload.path_steps / median("wall_s")}


def layer_metrics(run: Run, trace: dict, traced: dict) -> dict[str, float]:
    import spans

    summary, counts = trace["summary"], trace["counts"]

    def get(span: str, field: str) -> float:
        return summary.get(span, {}).get(field, 0)

    out: dict[str, float] = {}
    for mod, attr in spans.SPAN_TARGETS:
        out[f"{mod}.{attr}.self_s"] = get(f"{mod}.{attr}", "self_s")
    out["cli.self_s"] = out.pop("cli.main.self_s")
    for span in ("density.kde", "integrate.euler_path", "model.validate",
                 "lamperti.inverse"):
        out[f"{span}.calls"] = get(span, "calls")
    for suite in SUITES:
        out[f"verify.{suite}.s"] = get(f"verify.{suite}", "total_s")
    out["verify.suites.self_s"] = sum(
        v["self_s"] for k, v in summary.items() if k.startswith("verify."))
    for name in ("integrate.path_steps", "density.kde.rungs",
                 "integrate.picard_solve.iterations", "malliavin.slot_bytes",
                 "lamperti.inverse.fallbacks", "io.write_csv.rows",
                 "io.bytes_written", "bounds.final_lower_bound.calls"):
        out[name] = counts.get(name, 0)
    steps = counts.get("integrate.batch_steps", 0)
    out["integrate.new_max_frac"] = \
        counts.get("integrate.new_max_steps", 0) / steps if steps else 0.0
    out["density.l1_to_oracle"] = traced.get("l1_to_oracle", 0.0)
    out["cli.import_s"] = trace["import_s"]
    wall = traced["wall_s"]
    untraced = [r["wall_s"] for r in run.records if not r["traced"]]
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - statistics.median(untraced)
    out["trace.uncovered_s"] = (wall - trace["import_s"]
                                - sum(v["self_s"] for v in summary.values()))
    return out


def select(metrics: dict[str, float], declared: list[dict]) -> dict:
    """Metrics in ``BENCHMARK.json`` order, with their declared units."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: benchmark computed no {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark raises SystemExit, so run_child kills and
    # reaps the workload process it is waiting for before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not (ROOT / "src" / "perturbsde" / "cli.py").is_file():
        print(f"error: no perturbsde sources under {ROOT / 'src'}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    run = Run(args.workload, args.seed)
    input_path = run.write_input()
    machine = machine_block(run.env)
    setup = [] if args.trace else run.setup_samples()
    run.measure(input_path, args.seconds)
    if args.trace:
        trace_path = run.work / "trace.json"
        trace_path.unlink(missing_ok=True)
        traced = run.iterate(input_path, trace=trace_path)
        if not trace_path.exists():     # written even when a check fails
            raise SystemExit("error: the traced run failed: "
                             + "; ".join(traced["problems"]))
        trace = json.loads(trace_path.read_text())
        metrics = select(layer_metrics(run, trace, traced),
                         declared["per_layer"])
    else:
        metrics = select(end_to_end_metrics(run, setup),
                         declared["end_to_end"])
    run.check_ledger(machine["src_sha256"])

    failed = sum(1 for r in run.records if r["problems"])
    if run.problems and failed == 0:
        failed = 1
    correct = failed == 0 and not run.problems
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "machine": machine, "setup_s": setup,
                      "runs": run.records, "problems": run.problems}))
    print(json.dumps({"correct": correct, "attempted": len(run.records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
