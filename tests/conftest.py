"""Shared fixtures: canonical problem specs and config-file helpers."""

import json
from pathlib import Path

import numpy as np
import pytest

from perturbsde import Coefficient, GridSpec, ProblemSpec, generate_increments


def make_driftless(alpha: float, x0: float = 0.0, sigma: float = 1.0,
                   horizon: float = 1.0) -> ProblemSpec:
    return ProblemSpec(x0=x0, alpha=alpha,
                       drift=Coefficient.const(0.0),
                       diffusion=Coefficient.const(sigma),
                       horizon=horizon)


def make_tanh(alpha: float = 0.1, amplitude: float = 0.1,
              horizon: float = 1.0) -> ProblemSpec:
    return ProblemSpec(x0=0.0, alpha=alpha,
                       drift=Coefficient.tanh(amplitude=amplitude, scale=1.0),
                       diffusion=Coefficient.const(1.0),
                       horizon=horizon)


# (drift, diffusion) pairs for the column-independence checks
COEFFICIENT_CASES = {
    "const": (Coefficient.const(0.0), Coefficient.const(1.0)),
    "tanh": (Coefficient.tanh(amplitude=0.1, scale=1.0),
             Coefficient.const(1.0)),
    "sine": (Coefficient.sine(amplitude=0.5),
             Coefficient.sine(amplitude=0.2, offset=1.0)),
}


def mixed_case(name: str):
    """``(spec, grid, db)`` for coefficient case ``name``: a 400-step block
    of six keyed columns next to a constant, a zero and a large-increment
    column, so one block mixes calm and busy paths."""
    drift, diffusion = COEFFICIENT_CASES[name]
    spec = ProblemSpec(x0=0.2, alpha=0.3, drift=drift, diffusion=diffusion,
                       horizon=1.0)
    grid = GridSpec(n_steps=400, horizon=1.0)
    keyed = [generate_increments(61, i, grid.n_steps, grid.dt)
             for i in range(6)]
    db = np.stack(keyed + [np.full(grid.n_steps, 0.05),
                           np.zeros(grid.n_steps),
                           5.0 * keyed[0][::-1]], axis=1)
    return spec, grid, db


@pytest.fixture
def driftless():
    """Factory for zero-drift constant-diffusion problems."""
    return make_driftless


@pytest.fixture
def tanh_spec() -> ProblemSpec:
    """Bounded smooth drift 0.1 tanh, unit diffusion, alpha = 0.1."""
    return make_tanh()


@pytest.fixture
def grid_1000() -> GridSpec:
    return GridSpec(n_steps=1000, horizon=1.0)


@pytest.fixture(scope="session")
def repo_configs() -> Path:
    """Directory holding the example run configs shipped with the repo."""
    return Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def write_config(tmp_path):
    """Write a config dict as JSON and return its path."""

    def _write(config: dict, name: str = "config.json") -> Path:
        path = tmp_path / name
        path.write_text(json.dumps(config), encoding="utf-8")
        return path

    return _write


@pytest.fixture
def package_metadata(tmp_path) -> Path:
    """A directory holding a ``perturbsde-9.9.9.dist-info`` and a
    ``perturbsde.egg-info``, both for version 9.9.9, as an install or an
    editable build leaves them on ``sys.path``."""
    site = tmp_path / "site"
    for name, info in [("perturbsde-9.9.9.dist-info", "METADATA"),
                       ("perturbsde.egg-info", "PKG-INFO")]:
        (site / name).mkdir(parents=True)
        (site / name / info).write_text(
            "Metadata-Version: 2.1\nName: perturbsde\nVersion: 9.9.9\n")
    return site
