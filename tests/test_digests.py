"""Committed sha256 digests of the command line's artifacts.

A run's artifacts are a pure function of (config, seed), and neither
``--workers`` nor a faster code path may change a byte of them.  The other
determinism tests compare two runs of one tree; this table pins the bytes
from one commit to the next.  It covers every artifact of the shipped
``simulate``, ``derivative``, ``regime``, ``transform`` and ``verify``
configs, ``verify_report.json`` at ``--seed 7``, and ``density.csv`` and
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

# run name -> (subcommand, config overrides, extra arguments)
RUNS = {
    "simulate": ("simulate", {}, ()),
    "derivative": ("derivative", {}, ()),
    "regime": ("regime", {}, ()),
    "transform": ("transform", {}, ()),
    "verify": ("verify", {}, ()),
    "verify --seed 7": ("verify", {}, ("--seed", "7")),
    "density (cut)": ("density", {"n_paths": DENSITY_CUT_PATHS}, ()),
}
ONE_PROCESS = {"verify", "verify --seed 7"}

DIGESTS = {
    "simulate": {
        "paths.csv":
            "07de934118e20c0834d1b29a54969a96ecb05e655463e76c3f8dac6d8acc852b",
        "summary.json":
            "4475c9bd43f38b4cc3cbd968327796b9747962ccdce5518c9fee8feb6c426146",
    },
    "derivative": {
        "derivative.csv":
            "940ad759c4b7d76516c3adf5ff66cb4ff617f4b4a86327bd5394b5026176c20e",
        "derivative_summary.json":
            "01a34491b917d6f8f9f912e9554a6b48c49b944ca66c05c9dd083ff6cfca0703",
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
            "49d7273f298fd492e35fb4f76b13d624dbffb85e54de4d6c21f828465936c757",
    },
    "verify --seed 7": {
        "verify_report.json":
            "a39048f6995dbf91cabd91b065a7f74422489a2000ee0b3a6cd8ae2ffea40998",
    },
    "density (cut)": {
        "density.csv":
            "46d81f04c1bcb1208c288b06f48b581c42066ebb82bd7741042f8dc0b2aca117",
        "diagnostic.json":
            "5aeb2cfc53e1f003d4c73079ac7b52aaa23628115d6b09ae165120bde8b738ab",
    },
}


def artifact_digests(run: str, workers: int) -> dict[str, str]:
    """sha256 of every file ``run`` writes, by file name."""
    command, overrides, extra = RUNS[run]
    config = json.loads((CONFIGS / f"{command}.json").read_text("utf-8"))
    config.update(overrides)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(out),
                         "--workers", str(workers), *extra])
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
