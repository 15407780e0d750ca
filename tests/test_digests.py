"""Committed sha256 digests of the command line's artifacts.

A run's artifacts are a pure function of its config file, and neither
``--workers`` nor a faster code path may change a byte of them.  The other
determinism tests compare two runs of one tree; this table pins the bytes
from one commit to the next.  It covers every artifact of the shipped
``simulate``, ``derivative``, ``regime``, ``transform`` and ``verify``
configs, ``verify_report.json`` at seed 7, and ``density.csv`` and
``diagnostic.json`` of ``configs/density.json`` cut to
:data:`DENSITY_CUT_PATHS` paths.  Each run but ``verify``'s, which takes
no ``--workers``, is checked at ``--workers 1`` and ``2``.

The digests depend on numpy's Philox ``standard_normal`` stream and on
``io.TOOL_VERSION`` (``"0.1.0"``), which every artifact carries.  A numpy
upgrade that moves a digest is a finding about the noise contract.  A
change that moves bytes on purpose regenerates the table with

    PYTHONPATH=src python tests/test_digests.py

which prints :data:`DIGESTS` at ``--workers 1``, and lists every changed
digest and its reason in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from perturbsde.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# about half a second of simulation at one worker on 2 shared vCPUs
DENSITY_CUT_PATHS = 12_000

# run name -> (subcommand, config overrides)
RUNS = {
    "simulate": ("simulate", {}),
    "derivative": ("derivative", {}),
    "regime": ("regime", {}),
    "transform": ("transform", {}),
    "verify": ("verify", {}),
    "verify (seed 7)": ("verify", {"seed": 7}),
    "density (cut)": ("density", {"n_paths": DENSITY_CUT_PATHS}),
}
ONE_PROCESS = {"verify", "verify (seed 7)"}

DIGESTS = {
    "simulate": {
        "paths.csv":
            "5b8e79e6806274379401a3cf6fdd9a3e759472f33b8d6ae9e59b8a2f088af2d6",
        "summary.json":
            "0e7b77652198f1dc3d572471e0aa69a3805146849c9b3368a204c73a6ed4ff6b",
    },
    "derivative": {
        "derivative.csv":
            "3a891066e5fbdc7c7f6a303885728035e28c73beec727ccb4c2f5fcaa22e12eb",
        "derivative_summary.json":
            "a974d714b122a4d277919917cc277993fb12b852c56c5ff073119199831f3138",
    },
    "regime": {
        "lower_bound_curve.csv":
            "39755d690819872664c9d98c0e3ba29064f260758585e64c18494d5634ea3f2f",
        "regime.json":
            "a1612be264f759c5e1c08e485d5b2ab9fe2bdea360030a73e3d575eabfeb686b",
    },
    "transform": {
        "transform_table.csv":
            "49d43febf2f2b71055b93897df50a7b118564774e1e501ced1c811438ca61f43",
        "transformed_spec.json":
            "52a25103cb07d9ce3f5b19532f37abe106c27c02dff1a0ce5906640a4fb14483",
    },
    "verify": {
        "verify_report.json":
            "ce53521bbc236e4a9ee44841016235e2256ace2e9be48fdc8f64a5aaa81aa994",
    },
    "verify (seed 7)": {
        "verify_report.json":
            "9842430634502a069f3d97f6b669e74cf3f60e26dffcbfb105f77e603b69462a",
    },
    "density (cut)": {
        "density.csv":
            "7409fe6fdb7a66a6b6f1df0854a2cd67cb0be399002e295a195135edf7cc5b26",
        "diagnostic.json":
            "590b8d5c26058e443e3a977a0c006fd5b3e7ab389ee28f2625c3f8b5a9906c3e",
    },
}


def artifact_digests(run: str, workers: int) -> dict[str, str]:
    """sha256 of every file ``run`` writes, by file name."""
    command, overrides = RUNS[run]
    config = json.loads((CONFIGS / f"{command}.json").read_text("utf-8"))
    config.update(overrides)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(out),
                         "--workers", str(workers)])
        assert code == 0, err.getvalue()
        return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in sorted(out.iterdir())}


@pytest.mark.parametrize("run, workers", [
    (run, workers) for run in RUNS
    for workers in ((1,) if run in ONE_PROCESS else (1, 2))])
def test_artifacts_match_the_committed_digests(run, workers):
    assert artifact_digests(run, workers) == DIGESTS[run]


if __name__ == "__main__":
    print("DIGESTS = {")
    for run in RUNS:
        print(f"    {json.dumps(run)}: {{")
        for name, digest in artifact_digests(run, 1).items():
            print(f"        {json.dumps(name)}:\n            "
                  f"{json.dumps(digest)},")
        print("    },")
    print("}")
