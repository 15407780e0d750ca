"""Command-line interface: artifacts, determinism, exit codes, and the
metadata contract."""

import concurrent.futures
import contextlib
import errno
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import perturbsde
import perturbsde.cli as cli_mod
import perturbsde.io as pio
import perturbsde.model as model_mod
import perturbsde.verify as verify_mod
from perturbsde.bounds import floor_violations
from perturbsde import (
    GridSpec,
    SuiteResult,
    build_transform,
    propagate_derivative_batch,
    regime_report,
    simulate_batch,
    smoothness_diagnostic,
    transformed_spec,
)
from perturbsde.cli import (_chunk_paths, _chunks, _fold_counts, _pool_size,
                            _stream, main)
from perturbsde.io import (TOOL_VERSION, check_config, problem_from_json,
                           read_json)


def base_problem(alpha=0.0, x0=1.0):
    return {"x0": x0, "alpha": alpha,
            "drift": {"preset": "const", "params": {"value": 0.0}},
            "diffusion": {"preset": "const", "params": {"value": 1.0}},
            "horizon": 1.0}


def simulate_config(**overrides):
    config = {"problem": base_problem(), "grid": {"n_steps": 32},
              "n_paths": 256, "seed": 42}
    config.update(overrides)
    return config


def run(command, config_path, out, *extra):
    return main([command, "--config", str(config_path), "--out", str(out),
                 *extra])


# -- simulate -----------------------------------------------------------------


def test_simulate_artifacts(tmp_path, write_config):
    cfg = write_config(simulate_config())
    out = tmp_path / "run"
    assert run("simulate", cfg, out) == 0
    summary = read_json(out / "summary.json")
    assert summary["meta"]["version"] == TOOL_VERSION
    sha = summary["meta"]["config_sha256"]
    assert len(sha) == 64 and all(c in "0123456789abcdef" for c in sha)
    assert summary["meta"]["seed"] == 42
    assert summary["n_paths"] == 256
    assert summary["n_steps"] == 32
    assert summary["dt"] == pytest.approx(1.0 / 32)
    assert summary["terminal"]["mean"] == pytest.approx(1.0, abs=0.25)
    lines = (out / "paths.csv").read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert any("config_sha256" in l for l in comments)
    header = lines[len(comments)]
    assert header == "path,t,x,running_max"
    assert len(lines) == len(comments) + 1 + 256 * 33


def test_simulate_deterministic(tmp_path, write_config):
    cfg = write_config(simulate_config(n_paths=16, seed=9))
    outs = [tmp_path / f"run{i}" for i in range(3)]
    assert run("simulate", cfg, outs[0]) == 0
    assert run("simulate", cfg, outs[1]) == 0
    assert run("simulate", cfg, outs[2], "--workers", "2") == 0
    ref_paths = (outs[0] / "paths.csv").read_bytes()
    ref_summary = (outs[0] / "summary.json").read_bytes()
    for o in outs[1:]:
        assert (o / "paths.csv").read_bytes() == ref_paths
        assert (o / "summary.json").read_bytes() == ref_summary


def test_seed_override_changes_outputs(tmp_path, write_config):
    cfg = write_config(simulate_config(n_paths=8))
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("simulate", cfg, a) == 0
    assert run("simulate", cfg, b, "--seed", "777") == 0
    meta_a = read_json(a / "summary.json")["meta"]
    meta_b = read_json(b / "summary.json")["meta"]
    assert meta_b["seed"] == 777
    assert meta_a["config_sha256"] != meta_b["config_sha256"]
    assert (a / "paths.csv").read_bytes() != (b / "paths.csv").read_bytes()


def test_hash_ignores_output_location(tmp_path, write_config):
    plain = write_config(simulate_config(n_paths=4), "plain.json")
    routed = write_config(
        simulate_config(n_paths=4, out=str(tmp_path / "routed")),
        "routed.json")
    assert run("simulate", plain, tmp_path / "a") == 0
    assert main(["simulate", "--config", str(routed)]) == 0
    sha_a = read_json(tmp_path / "a" / "summary.json")["meta"]["config_sha256"]
    sha_b = read_json(tmp_path / "routed" / "summary.json")["meta"][
        "config_sha256"]
    assert sha_a == sha_b


def test_out_dir_precedence(tmp_path, write_config, monkeypatch):
    cfg_dir = tmp_path / "from_config"
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    cfg = write_config(simulate_config(n_paths=4, out=str(cfg_dir)))
    monkeypatch.delenv("PERTURBSDE_OUT", raising=False)
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert (cfg_dir / "summary.json").exists()
    monkeypatch.setenv("PERTURBSDE_OUT", str(env_dir))
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert (env_dir / "summary.json").exists()
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(flag_dir)]) == 0
    assert (flag_dir / "summary.json").exists()


def test_config_out_is_read_as_a_string(tmp_path, write_config, monkeypatch):
    # "inf" is a directory name like any other: configs hold no infinity
    cfg = write_config({"problem": base_problem(), "t0": 1.0, "out": "inf"})
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PERTURBSDE_OUT", raising=False)
    assert main(["regime", "--config", str(cfg)]) == 0
    assert (tmp_path / "inf" / "regime.json").exists()


# config_sha256 of each shipped config, as the CLI hashes it
_SHIPPED_SHA256 = {
    "density":
        "69b5dc4238648c099f04b6cc6caf7af6a30c741fcbd17ebe0e3d5b1cf98305f9",
    "derivative":
        "98f38c67a7eb0ba0c4a457add46d057d1f9714fd53a2bd65f24bc2fffe25f5ee",
    "regime":
        "7cd29ce6bfcbe0f742f473b015c7d49cc5d8975ca15f9aeffcac87bc73573dfd",
    "simulate":
        "3be0751a6bad994dab2d6f4a78a79891a775553805f7b5b4f25be6368d9c7844",
    "transform":
        "910d12151c20cdfabbd310879be4cc2cbe441d558b902ed5dad127e36b3c4ccd",
    "verify":
        "708f439b51347b8ebb323d9acab5b0268cd531d7d50f0a4538e05ee0e83b16e3",
}


@pytest.mark.parametrize("command", sorted(_SHIPPED_SHA256))
def test_shipped_config_hash_is_unchanged(tmp_path, repo_configs, monkeypatch,
                                          command):
    # the handler is stubbed: only the config reading and hashing run
    seen = {}
    sized_by = cli_mod._HANDLERS[command][1]
    monkeypatch.setitem(cli_mod._HANDLERS, command,
                        (lambda config, out, workers, meta: seen.update(meta),
                         sized_by))
    assert run(command, repo_configs / f"{command}.json", tmp_path) == 0
    assert seen["config_sha256"] == _SHIPPED_SHA256[command]


# -- config validation and exit codes -----------------------------------------


def test_unknown_key_rejected_by_schema(tmp_path, write_config, capsys):
    cfg = write_config(simulate_config(mystery=1))
    assert run("simulate", cfg, tmp_path / "o") == 2
    assert "config" in capsys.readouterr().err


def test_wrong_type_rejected_by_schema(tmp_path, write_config):
    cfg = write_config(simulate_config(n_paths="many"))
    assert run("simulate", cfg, tmp_path / "o") == 2


# Each case runs the subcommand that reads the field.
@pytest.mark.parametrize("command,field,value,name", [
    ("simulate", "n_paths", 4.0, "n_paths"),
    ("simulate", "n_paths", -1, "n_paths"),
    ("simulate", "seed", -1, "seed"),
    ("simulate", "seed", 2**64, "seed"),
    ("simulate", "seed", 3.0, "seed"),
    ("derivative", "t0", 0.0, "t0"),
    ("derivative", "t0", 10**400, "t0"),
    ("density", "bandwidth", "wide", "bandwidth"),
    ("density", "n_grid", 64.0, "n_grid"),
    ("density", "bandwidth", 1e-9, "bandwidth"),
    ("transform", "transform", {"n_nodes": 65.0}, "transform.n_nodes"),
    ("transform", "transform", {"domain": [1.0]}, "transform.domain"),
    ("transform", "transform", {"spacing": 0.1}, "transform.spacing"),
    ("verify", "suites", ["additive_identity", 3], "suites"),
    ("simulate", "out", 5, "out"),
    ("simulate", "format", "xml", "format"),
    ("simulate", "format", "json", "format"),
    ("simulate", "problem",
     dict(base_problem(), drift={"preset": "const", "params": {"value": 0.0},
                                 "declared_bounds": {"sup_d2": 0.0}}),
     "config: problem.drift.declared_bounds: unknown key"),
], ids=["n_paths-float", "n_paths-negative", "seed-negative", "seed-2**64",
        "seed-float", "t0-zero", "t0-overflows-float", "bandwidth-string",
        "n_grid-float", "bandwidth-mesh-too-fine", "transform.n_nodes-float",
        "transform.domain-length", "transform-unknown-key", "suites-item",
        "out-type", "format-xml", "format-json", "declared_bounds-sup_d2"])
def test_invalid_field_exits_2_and_names_it(tmp_path, write_config, capsys,
                                             command, field, value, name):
    cfg = write_config(simulate_config(**{field: value}))
    assert run(command, cfg, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "config" in err and name in err
    assert "Traceback" not in err


@pytest.mark.parametrize("block,path", [
    ("problem", ()),
    ("grid", ()),
    ("problem", ("drift",)),
    ("problem", ("diffusion", "params")),
])
def test_unknown_nested_key_exits_2_and_names_it(tmp_path, write_config,
                                                 capsys, block, path):
    config = simulate_config()
    obj = config[block]
    for key in path:
        obj = obj.setdefault(key, {})
    obj["mystery"] = 1
    cfg = write_config(config)
    assert run("simulate", cfg, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "config" in err
    assert ".".join((block, *path, "mystery")) in err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_flag_out_of_range_exits_2(tmp_path, write_config, capsys, seed):
    cfg = write_config(simulate_config())
    assert run("simulate", cfg, tmp_path / "o", "--seed", seed) == 2
    err = capsys.readouterr().err
    assert "config" in err and "seed" in err


def test_alpha_out_of_range_names_the_field(tmp_path, write_config, capsys):
    cfg = write_config(simulate_config(problem=base_problem(alpha=1.0)))
    assert run("simulate", cfg, tmp_path / "o") == 2
    assert "alpha" in capsys.readouterr().err


def test_unsorted_tabulated_nodes_exit_2(tmp_path, write_config, capsys):
    problem = base_problem()
    problem["drift"] = {"preset": "custom-tabulated",
                        "params": {"nodes": [-4.0, -2.0, 2.0, 0.0, 4.0],
                                   "values": [0.0] * 5}}
    cfg = write_config(simulate_config(problem=problem))
    assert run("simulate", cfg, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "problem.drift.params.nodes:" in err and "increase strictly" in err


_NODES = [-4.0, -2.0, 0.0, 2.0, 4.0]


@pytest.mark.parametrize("params,name,reason", [
    ({"nodes": "abc", "values": [0.0] * 5}, "nodes", "must be a list"),
    ({"nodes": _NODES, "values": [0.0, 0.0, "x", 0.0, 0.0]}, "values[2]",
     "finite number"),
    ({"nodes": _NODES, "values": [0.0, "inf", 0.0, 0.0, 0.0]}, "values[1]",
     "finite number"),
    ({"nodes": _NODES, "values": [0.0] * 5, "d1_values": [0.0] * 5},
     "d1_values", "unknown key"),
    ({"nodes": [0.0, 1.0, 2.0], "values": [0.0] * 3}, "nodes",
     "at least 4 numbers"),
    ({"nodes": _NODES, "values": [0.0] * 4}, "values", "list of 5 items"),
], ids=["nodes-string", "values-item-string", "values-item-inf",
        "d1_values-unknown-key", "nodes-short", "values-short"])
def test_bad_tabulated_table_exits_2_and_names_the_field(
        tmp_path, write_config, capsys, params, name, reason):
    problem = base_problem()
    problem["drift"] = {"preset": "custom-tabulated", "params": params}
    cfg = write_config(simulate_config(problem=problem))
    assert run("simulate", cfg, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert f"config: problem.drift.params.{name}:" in err and reason in err
    assert "Traceback" not in err


def test_callback_preset_is_unknown_and_lists_the_catalog(
        tmp_path, write_config, capsys):
    problem = base_problem()
    problem["drift"] = {"preset": "custom-callback", "params": {}}
    cfg = write_config(simulate_config(problem=problem))
    assert run("simulate", cfg, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert ("config: problem.drift.preset: unknown coefficient preset "
            "'custom-callback'; catalog: const, linear, sine, tanh, "
            "ornstein_uhlenbeck, custom-tabulated") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("coefficient", ["drift", "diffusion"])
def test_table_narrower_than_the_grid_exits_2(tmp_path, write_config, capsys,
                                              coefficient):
    # the validation grid of this problem is [-9, 11], ten unit
    # standard deviations about x0 = 1 (a tabulated diffusion sizes it
    # from a sweep clipped to its table)
    problem = base_problem()
    nodes = [-4.0 + 0.5 * k for k in range(17)]
    problem[coefficient] = {"preset": "custom-tabulated",
                            "params": {"nodes": nodes, "values": [1.0] * 17}}
    cfg = write_config(simulate_config(problem=problem))
    assert run("simulate", cfg, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert (f"{coefficient} is not finite on the validation grid [-9, 11]; "
            "its table covers [-4, 4]") in err


def test_narrow_diffusion_table_sizes_its_own_grid(tmp_path, write_config,
                                                  capsys):
    # sigma = 0.1 gives the validation grid [-1, 1]; the preliminary sweep
    # x0 +- 10 sqrt(T) = [-10, 10] reaches past the table, so it is clipped
    # to the nodes before it sizes the grid
    problem = base_problem(x0=0.0)
    nodes = [-4.0 + 0.25 * k for k in range(33)]
    problem["diffusion"] = {"preset": "custom-tabulated",
                            "params": {"nodes": nodes, "values": [0.1] * 33}}
    cfg = write_config(simulate_config(problem=problem))
    assert run("simulate", cfg, tmp_path / "o") == 0
    # a table narrower than that grid is still refused
    nodes = [-0.5 + 0.125 * k for k in range(9)]
    problem["diffusion"]["params"] = {"nodes": nodes, "values": [0.1] * 9}
    cfg = write_config(simulate_config(problem=problem))
    assert run("simulate", cfg, tmp_path / "p") == 2
    assert ("diffusion is not finite on the validation grid [-1, 1]; "
            "its table covers [-0.5, 0.5]") in capsys.readouterr().err


@pytest.mark.parametrize("exc", [
    MemoryError(),
    MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                "(1000001, 1000000) and data type float64")])
def test_out_of_memory_exits_2_without_traceback(tmp_path, write_config,
                                                 capsys, monkeypatch, exc):
    def exhausted(*args):
        raise exc

    cfg = write_config(simulate_config())
    # the message names the config fields that size each subcommand
    for command, fields in [
            ("simulate", "reduce n_paths or grid.n_steps"),
            ("transform", "reduce transform.n_nodes"),
            ("density", "reduce n_paths or n_grid")]:
        monkeypatch.setitem(cli_mod._HANDLERS, command,
                            (exhausted, cli_mod._HANDLERS[command][1]))
        assert run(command, cfg, tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ")
        assert str(exc) in err and err.count("\n") == 1
        assert err.endswith(f"; {fields}\n")
        assert "Traceback" not in err


def test_oversized_n_grid_exits_2_before_the_grid(tmp_path, write_config,
                                                 capsys):
    cfg = write_config(simulate_config(n_paths=64, n_grid=10**15))
    assert run("density", cfg, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: n_grid: ")
    assert "out of memory" not in err and "Traceback" not in err


@pytest.mark.parametrize("n_grid", [2_097_149, 10**15])
def test_oversized_n_grid_exits_2_before_the_simulation(
        n_grid, tmp_path, write_config, capsys, monkeypatch):
    def no_simulation(*args):
        raise AssertionError("density simulated before it checked n_grid")

    monkeypatch.setattr(cli_mod, "_terminal_worker", no_simulation)
    cfg = write_config(simulate_config(n_grid=n_grid))
    assert run("density", cfg, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: n_grid: must be at most 2097148")
    assert "Traceback" not in err


def test_zero_diffusion_density_exits_3(tmp_path, write_config, capsys):
    # every path lands on x0: the sample has no spread to estimate from
    problem = base_problem()
    problem["diffusion"]["params"]["value"] = 0.0
    cfg = write_config(simulate_config(problem=problem, n_paths=64))
    assert run("density", cfg, tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: bandwidth rule gives 0.0 on a sample")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "derivative", "density"])
def test_rejects_zero_paths(command, tmp_path, write_config, capsys):
    cfg = write_config(simulate_config(n_paths=0))
    assert run(command, cfg, tmp_path / "o") == 2
    assert "n_paths" in capsys.readouterr().err


def test_missing_and_malformed_config(tmp_path, capsys):
    assert run("simulate", tmp_path / "absent.json", tmp_path / "o") == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run("simulate", bad, tmp_path / "o") == 2


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    # too deep for the JSON parser's recursion
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert run("simulate", deep, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unwritable_artifact_exits_2_naming_it(tmp_path, write_config,
                                               capsys):
    out = tmp_path / "o"
    (out / "regime.json").mkdir(parents=True)
    cfg = write_config({"problem": base_problem(alpha=0.1), "t0": 1.0})
    assert run("regime", cfg, out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write artifacts to {out}: ")
    assert str(out / "regime.json") in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_failed_table_write_exits_2_and_leaves_no_table(tmp_path,
                                                        write_config,
                                                        capsys, monkeypatch):
    def full_disk(*args):
        yield "0,0,0,0\n"
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(pio, "path_major_blocks", full_disk)
    cfg = write_config(simulate_config(n_paths=8))
    out = tmp_path / "o"
    assert run("simulate", cfg, out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write artifacts to {out}: ")
    assert "No space left on device" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_workers_must_be_positive(tmp_path, write_config):
    cfg = write_config(simulate_config())
    assert run("simulate", cfg, tmp_path / "o", "--workers", "0") == 2


def test_pool_size_is_clamped():
    # pure function of the request, the chunk count and the usable CPUs;
    # no process is started here
    assert _pool_size(4, 4, 8) == 4
    assert _pool_size(10_000, len(_chunks(3, 1)), 64) == 3
    assert _pool_size(10_000, len(_chunks(10_000, 1)), 2) == 2
    assert _pool_size(1, 5, 8) == 1
    assert _pool_size(4, 4, 0) == 1


def test_numeric_blowup_exits_3(tmp_path, write_config, capsys):
    problem = base_problem()
    problem["drift"] = {"preset": "linear", "params": {"slope": 2000.0}}
    cfg = write_config({"problem": problem, "grid": {"n_steps": 1000},
                        "n_paths": 1, "seed": 1})
    assert run("simulate", cfg, tmp_path / "o") == 3
    assert "non-finite" in capsys.readouterr().err
    # the table is streamed, and a failed run leaves none behind
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize("alpha", [-1e154, -1e155])
def test_derivative_runs_where_one_minus_alpha_squared_overflows(
        alpha, tmp_path, write_config, capsys):
    # (1 - alpha)**2 is past the largest double from alpha = -1.35e154 on
    cfg = write_config(simulate_config(problem=base_problem(alpha=alpha),
                                       n_paths=8, t0=0.5))
    out = tmp_path / "o"
    assert run("derivative", cfg, out) == 0
    assert capsys.readouterr().err == ""
    summary = read_json(out / "derivative_summary.json")
    assert all(math.isfinite(v) for v in summary["sup_h_norm_sq"])


def _huge_spread_config():
    # every value finite, spread about 1e200: its squares overflow
    problem = base_problem(x0=0.0)
    problem["diffusion"] = {"preset": "const", "params": {"value": 1e200}}
    return simulate_config(problem=problem, grid={"n_steps": 8}, n_paths=64)


def test_simulate_reports_finite_moments_of_a_huge_spread(
        tmp_path, write_config, capsys):
    out = tmp_path / "o"
    assert run("simulate", write_config(_huge_spread_config()), out) == 0
    assert capsys.readouterr().err == ""
    summary = read_json(out / "summary.json")
    for key in ("terminal", "running_max"):
        assert 1e199 < summary[key]["std"] < 1e201


def test_density_of_a_huge_spread_runs_quietly(tmp_path, write_config,
                                               capsys):
    out = tmp_path / "o"
    assert run("density", write_config(_huge_spread_config()), out) == 0
    assert capsys.readouterr().err == ""
    diagnostic = read_json(out / "diagnostic.json")
    assert 1e199 < diagnostic["sample_std"] < 1e201
    assert math.isfinite(diagnostic["bandwidth"])


def test_degenerate_transform_exits_3(tmp_path, write_config):
    problem = base_problem(x0=0.0)
    problem["diffusion"] = {"preset": "sine", "params": {"amplitude": 1.0}}
    cfg = write_config({"problem": problem})
    assert run("transform", cfg, tmp_path / "o") == 3


def test_degenerate_regime_exits_3(tmp_path, write_config, capsys):
    # a sign-changing diffusion has no transform to unit diffusion
    problem = base_problem(x0=0.0)
    problem["diffusion"] = {"preset": "sine", "params": {"amplitude": 1.0}}
    cfg = write_config({"problem": problem, "t0": 1.0})
    assert run("regime", cfg, tmp_path / "o") == 3
    assert "changes sign" in capsys.readouterr().err


def test_degenerate_density_exits_3_before_it_simulates(
        tmp_path, write_config, capsys, monkeypatch):
    # the regime is checked before any path runs, as derivative checks it
    def worker(*args):
        raise AssertionError("a chunk ran before the regime check")

    monkeypatch.setattr(cli_mod, "_terminal_worker", worker)
    problem = base_problem(x0=0.0)
    problem["diffusion"] = {"preset": "sine",
                            "params": {"amplitude": 1.0, "offset": 0.0}}
    cfg = write_config({"problem": problem, "grid": {"n_steps": 2048},
                        "n_paths": 40_000, "seed": 1, "t0": 1.0})
    assert run("density", cfg, tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "diffusion vanishes or changes sign" in err


# Menus for generated configs: signed zeros, the smallest subnormal, values
# near both ends of the double range, and the alpha endpoints.
_VALUES = [0.0, -0.0, 5e-324, 1e-300, -1e-300, 1.0, -1.0, 1e300, -1e300]
_POSITIVE = [5e-324, 1e-300, 0.5, 1.0, 1e300]
_ALPHAS = [-1e300, -1.0, 0.0, 0.5, 0.999]
_TABLE_NODES = [[-1.0, -0.5, 0.5, 1.0], [-1e300, -1.0, 1.0, 1e300],
                [-4.0 + k for k in range(9)]]


@st.composite
def _coefficients(draw):
    preset = draw(st.sampled_from(sorted(model_mod.PRESETS)))
    if preset == "custom-tabulated":
        nodes = draw(st.sampled_from(_TABLE_NODES))
        values = draw(st.lists(st.sampled_from(_VALUES), min_size=len(nodes),
                               max_size=len(nodes)))
        return {"preset": preset, "params": {"nodes": nodes,
                                             "values": values}}
    required, optional = model_mod.PRESETS[preset]
    names = sorted(required) + [name for name in sorted(optional)
                                if draw(st.booleans())]
    return {"preset": preset,
            "params": {name: draw(st.sampled_from(_VALUES))
                       for name in names}}


@st.composite
def _configs(draw):
    # sizes are bounded, and no bandwidth is drawn: the mesh cap admits a
    # 2**22-node mesh
    config = {
        "problem": {"x0": draw(st.sampled_from(_VALUES)),
                    "alpha": draw(st.sampled_from(_ALPHAS)),
                    "drift": draw(_coefficients()),
                    "diffusion": draw(_coefficients()),
                    "horizon": draw(st.sampled_from(_POSITIVE))},
        "grid": {"n_steps": draw(st.integers(1, 16))},
        "n_paths": draw(st.integers(1, 30)),
        "seed": draw(st.sampled_from([0, 7, 2**64 - 1])),
    }
    if draw(st.booleans()):
        config["grid"]["horizon"] = draw(st.sampled_from(_POSITIVE))
    for key, menu in [("t0", _POSITIVE), ("n_grid", [8, 64]),
                      ("transform", [{"n_nodes": n} for n in (5, 9, 65)])]:
        if draw(st.booleans()):
            config[key] = draw(st.sampled_from(menu))
    return config


# About 5 s on a 2-vCPU host.
@settings(max_examples=1000, deadline=None)
@given(command=st.sampled_from(["simulate", "derivative", "regime",
                                "density", "transform"]),
       config=_configs())
@example(command="derivative",
         config=simulate_config(problem=base_problem(alpha=-1e155),
                                n_paths=8, t0=0.5))
def test_generated_configs_exit_with_a_documented_code(command, config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(command, path, Path(tmp) / "out", "--workers", "1")
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    # a run's stderr is its one error line, or nothing
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


# -- analysis subcommands -----------------------------------------------------


def test_regime_artifacts(tmp_path, write_config):
    cfg = write_config({"problem": base_problem(alpha=0.1, x0=0.0),
                        "t0": 1.0})
    out = tmp_path / "run"
    assert run("regime", cfg, out) == 0
    doc = read_json(out / "regime.json")
    assert doc["admissible"] is True
    assert doc["t0_max"] == "inf"
    assert doc["theta_at_t0"] == pytest.approx(
        0.2 * math.sqrt(2.0) + 0.04, abs=1e-12)
    assert doc["lb"] == 0.0
    assert doc["rigorous"] is True
    curve = (out / "lower_bound_curve.csv").read_text().splitlines()
    data = [l for l in curve if not l.startswith("#")]
    assert data[0] == "t,bound"
    assert len(data) == 101


def test_derivative_with_bounds_block(tmp_path, write_config):
    problem = {"x0": 0.0, "alpha": 0.1,
               "drift": {"preset": "tanh",
                         "params": {"amplitude": 0.1, "scale": 1.0}},
               "diffusion": {"preset": "const", "params": {"value": 1.0}},
               "horizon": 1.0}
    cfg = write_config({"problem": problem, "grid": {"n_steps": 500},
                        "n_paths": 50, "seed": 7, "t0": 1.0})
    out = tmp_path / "run"
    assert run("derivative", cfg, out) == 0
    assert (out / "derivative.csv").exists()
    doc = read_json(out / "derivative_summary.json")
    assert doc["n_paths"] == 50
    assert len(doc["h_norm_sq_final"]) == 50
    bounds = doc["bounds"]
    assert bounds["admissible"] is True
    assert bounds["slack_factor"] == pytest.approx(1.0 - 10.0 / 500)
    assert bounds["sup_lower_bound_at_horizon"] == pytest.approx(
        1.0 / 2.08, abs=1e-12)
    assert bounds["n_sup_violations"] == 0
    assert bounds["final_bound_horizon"] == 1.0
    assert bounds["n_final_violations"] == 0


def test_density_artifacts(tmp_path, write_config):
    cfg = write_config({"problem": base_problem(alpha=0.5, x0=0.0),
                        "grid": {"n_steps": 64}, "n_paths": 2000,
                        "seed": 3, "t0": 0.25})
    out = tmp_path / "run"
    # one convolution, for kde's pdf
    with mock.patch.object(np.fft, "irfft", wraps=np.fft.irfft) as irfft:
        assert run("density", cfg, out) == 0
    assert irfft.call_count == 1
    header_line = next(l for l in (out / "density.csv").read_text()
                       .splitlines() if not l.startswith("#"))
    assert header_line == "z,p_hat,p_oracle"
    doc = read_json(out / "diagnostic.json")
    assert doc["n_samples"] == 2000
    assert doc["bandwidth"] > 0
    assert doc["normalization"] == pytest.approx(1.0, abs=0.1)
    assert doc["l1_to_oracle"] >= 0.0
    # the closed form's exact smoothness, nothing estimated
    assert doc["smoothness"] == smoothness_diagnostic(0.0, 1.0, 0.5, 1.0)
    assert doc["smoothness"]["twice_differentiable"] is False
    assert "derivative_bandwidth" not in doc
    assert doc["regime"]["admissible"] is False
    # with no closed form the report says nothing about smoothness
    problem = base_problem(alpha=0.5, x0=0.0)
    problem["drift"] = {"preset": "tanh",
                        "params": {"amplitude": 0.1, "scale": 1.0}}
    cfg = write_config({"problem": problem, "grid": {"n_steps": 64},
                        "n_paths": 2000, "seed": 3}, "tanh.json")
    assert run("density", cfg, tmp_path / "tanh") == 0
    assert set(read_json(tmp_path / "tanh" / "diagnostic.json")) == {
        "meta", "n_samples", "bandwidth", "normalization", "sample_mean",
        "sample_std"}


def test_density_deterministic_across_workers(tmp_path, write_config):
    cfg = write_config({"problem": base_problem(alpha=0.5, x0=0.0),
                        "grid": {"n_steps": 64}, "n_paths": 3000,
                        "seed": 5})
    one, two = tmp_path / "w1", tmp_path / "w2"
    assert run("density", cfg, one, "--workers", "1") == 0
    assert run("density", cfg, two, "--workers", "2") == 0
    for name in ("density.csv", "diagnostic.json"):
        assert (one / name).read_bytes() == (two / name).read_bytes()


def test_simulate_deterministic_across_workers(tmp_path, repo_configs):
    # one chunk hands its arrays over as they are, two are concatenated
    cfg = repo_configs / "simulate.json"
    one, two = tmp_path / "w1", tmp_path / "w2"
    assert run("simulate", cfg, one, "--workers", "1") == 0
    assert run("simulate", cfg, two, "--workers", "2") == 0
    names = sorted(p.name for p in one.iterdir())
    assert names == ["paths.csv", "summary.json"]
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes()


def test_derivative_deterministic_across_workers(tmp_path, repo_configs):
    cfg = repo_configs / "derivative.json"
    one, two = tmp_path / "w1", tmp_path / "w2"
    assert run("derivative", cfg, one, "--workers", "1") == 0
    assert run("derivative", cfg, two, "--workers", "2") == 0
    names = sorted(p.name for p in one.iterdir())
    assert names == ["derivative.csv", "derivative_summary.json"]
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes()


# -- streamed simulate and derivative -----------------------------------------


_TANH = {"x0": 0.0, "alpha": 0.1,
         "drift": {"preset": "tanh", "params": {"amplitude": 0.1,
                                                "scale": 1.0}},
         "diffusion": {"preset": "const", "params": {"value": 1.0}},
         "horizon": 1.0}
_SINE = {"x0": 0.2, "alpha": 0.3,
         "drift": {"preset": "tanh", "params": {"amplitude": 0.5,
                                                "scale": 1.0}},
         "diffusion": {"preset": "sine", "params": {"amplitude": 0.3,
                                                    "offset": 1.0}},
         "horizon": 1.0}
# one path; a path count that five-path chunks do not divide; and a
# derivative run with t0, whose floor counts are summed over the chunks
_STREAM_CASES = {
    "one_path": {"problem": _SINE, "grid": {"n_steps": 30}, "n_paths": 1,
                 "seed": 3},
    "ragged": {"problem": _TANH, "grid": {"n_steps": 40}, "n_paths": 23,
               "seed": 5},
    "t0": {"problem": _SINE, "grid": {"n_steps": 40}, "n_paths": 23,
           "seed": 11, "t0": 0.5},
}
_ARTIFACTS = {"simulate": ("paths.csv", "summary.json"),
              "derivative": ("derivative.csv", "derivative_summary.json")}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _five_path_chunks(monkeypatch, command, n_steps):
    per_step = {"simulate": cli_mod._SIMULATE_BYTES,
                "derivative": cli_mod._DERIVATIVE_BYTES}[command]
    monkeypatch.setattr(cli_mod, "_CHUNK_BYTES", 5 * per_step * (n_steps + 1))
    monkeypatch.setattr(cli_mod, "_MIN_CHUNK_PATHS", 1)


@pytest.mark.parametrize("command,case", [
    ("simulate", "one_path"), ("simulate", "ragged"),
    ("derivative", "one_path"), ("derivative", "ragged"),
    ("derivative", "t0")])
def test_streamed_artifacts_match_the_one_chunk_run(tmp_path, write_config,
                                                    monkeypatch, command,
                                                    case):
    config = _STREAM_CASES[case]
    cfg = write_config(config)
    monkeypatch.setattr(cli_mod, "_CHUNK_BYTES", 2**62)
    assert run(command, cfg, tmp_path / "whole") == 0
    _five_path_chunks(monkeypatch, command, config["grid"]["n_steps"])
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        assert run(command, cfg, out, "--workers", str(workers)) == 0
        for name in _ARTIFACTS[command]:
            assert _sha256(out / name) == _sha256(tmp_path / "whole" / name)


def _table_body(path):
    return [line for line in path.read_text().splitlines()
            if not line.startswith("#")]


def test_streamed_tables_match_whole_batch_writes(tmp_path, write_config,
                                                  monkeypatch):
    # the artifacts of five-path chunks against io.write_csv of whole
    # columns and the summaries of one whole batch
    config = _STREAM_CASES["t0"]
    cfg = write_config(config)
    n_paths, n = config["n_paths"], config["grid"]["n_steps"]
    spec = problem_from_json(config["problem"])
    grid = GridSpec(n_steps=n, horizon=spec.horizon)
    batch = simulate_batch(spec, grid, n_paths, config["seed"])
    path = np.repeat(np.arange(n_paths), n + 1)

    _five_path_chunks(monkeypatch, "simulate", n)
    assert run("simulate", cfg, tmp_path / "sim") == 0
    pio.write_csv(tmp_path / "paths.csv", {
        "path": path, "t": np.tile(grid.times, n_paths),
        "x": batch.x.T.reshape(-1),
        "running_max": batch.running_max.T.reshape(-1)})
    assert _table_body(tmp_path / "sim" / "paths.csv") \
        == _table_body(tmp_path / "paths.csv")
    summary = read_json(tmp_path / "sim" / "summary.json")
    assert summary["terminal"]["mean"] == float(np.mean(batch.x[-1]))
    assert summary["running_max"]["max"] == float(np.max(batch.x))

    _five_path_chunks(monkeypatch, "derivative", n)
    assert run("derivative", cfg, tmp_path / "der") == 0
    fields = propagate_derivative_batch(batch, spec, grid,
                                        track_all_times=True)
    pio.write_csv(tmp_path / "derivative.csv", {
        "path": np.repeat(np.arange(n_paths), n),
        "r": np.tile(grid.times[:-1], n_paths),
        "d_x": fields.d_x.reshape(-1), "d_m": fields.d_m.reshape(-1)})
    assert _table_body(tmp_path / "der" / "derivative.csv") \
        == _table_body(tmp_path / "derivative.csv")
    doc = read_json(tmp_path / "der" / "derivative_summary.json")
    assert doc["h_norm_sq_final"] == fields.h_norm_sq_final.tolist()
    assert doc["sup_h_norm_sq"] == fields.sup_h_norm_sq.tolist()
    report = regime_report(spec, config["t0"])
    whole = floor_violations(report, grid, fields.sup_h_norm_sq,
                             fields.h_norm_sq_by_time)
    assert {k: doc["bounds"][k] for k in whole} == whole


def test_derivative_memory_is_bounded_by_the_chunk(tmp_path, write_config,
                                                   monkeypatch):
    # 250-path chunks of 200 steps hold about 2 MB of arrays; holding the
    # whole run's would add about 12 MB from 500 to 2000 paths
    monkeypatch.setattr(cli_mod, "_CHUNK_BYTES",
                        250 * cli_mod._DERIVATIVE_BYTES * 201)

    def peak(n_paths):
        cfg = write_config({"problem": _TANH, "grid": {"n_steps": 200},
                            "n_paths": n_paths, "seed": 13, "t0": 1.0},
                           name=f"{n_paths}.json")
        tracemalloc.start()
        try:
            assert run("derivative", cfg, tmp_path / str(n_paths)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2000) < peak(500) + 1_000_000


def test_derivative_chunk_frees_the_norm_curve_before_its_slots():
    # the by-time norm curve is one (n+1, P) float array; once the floors
    # are counted a chunk holds its values, flags and two slot arrays,
    # with less than half that curve to spare
    n_paths, n_steps = 256, 200
    grid_json = {"n_steps": n_steps, "horizon": 1.0}
    report = regime_report(problem_from_json(_TANH), 1.0)
    worker = cli_mod._derivative_worker
    worker(_TANH, grid_json, 13, report, 1, 0)   # one-time allocations
    tracemalloc.start()
    try:
        worker(_TANH, grid_json, 13, report, n_paths, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    curve = 8 * (n_steps + 1) * n_paths
    held = 9 * (n_steps + 1) * n_paths + 2 * 8 * n_steps * n_paths
    assert peak < held + curve // 2


@settings(max_examples=200, deadline=None)
@given(n_paths=st.integers(1, 20_000), n_steps=st.integers(1, 10**7),
       per_step=st.sampled_from([cli_mod._SIMULATE_BYTES,
                                 cli_mod._DERIVATIVE_BYTES]),
       min_paths=st.sampled_from([1, cli_mod._MIN_CHUNK_PATHS]))
def test_budget_partition_covers_every_path_in_order(n_paths, n_steps,
                                                     per_step, min_paths):
    with mock.patch.object(cli_mod, "_MIN_CHUNK_PATHS", min_paths):
        size = _chunk_paths(n_steps, per_step)
    chunks = _chunks(n_paths, size)
    offsets = [offset for offset, _ in chunks]
    counts = [count for _, count in chunks]
    assert offsets == [0, *np.cumsum(counts)[:-1].tolist()]
    assert sum(counts) == n_paths and min(counts) >= 1
    assert all(count == size for count in counts[:-1])
    # the budget sets the size unless the minimum path count does
    assert size >= min_paths
    assert size == min_paths \
        or size * per_step * (n_steps + 1) <= cli_mod._CHUNK_BYTES


def test_chunks_keep_a_minimum_path_count_on_long_grids():
    # at 1000 steps the budget sizes the chunks; at 4096 steps it would
    # give 49 derivative paths, and the minimum holds them at 200
    assert _chunk_paths(1000, cli_mod._DERIVATIVE_BYTES) == 204
    assert _chunk_paths(1000, cli_mod._SIMULATE_BYTES) == 492
    assert _chunk_paths(4096, cli_mod._DERIVATIVE_BYTES) == 200
    assert _chunk_paths(10**4, cli_mod._SIMULATE_BYTES) == 200


def test_chunks_are_sized_by_the_budget_not_the_workers(tmp_path,
                                                        write_config,
                                                        monkeypatch):
    seen = {}
    real_stream = cli_mod._stream

    def recording(worker, common, chunks, workers):
        seen.setdefault(worker.__name__, []).append(chunks)
        return real_stream(worker, common, chunks, 1)   # starts no pool

    monkeypatch.setattr(cli_mod, "_stream", recording)
    # seven derivative paths, or sixteen simulate paths, of 40 steps a chunk
    monkeypatch.setattr(cli_mod, "_CHUNK_BYTES",
                        7 * cli_mod._DERIVATIVE_BYTES * 41)
    monkeypatch.setattr(cli_mod, "_MIN_CHUNK_PATHS", 1)
    monkeypatch.setattr(cli_mod, "_usable_cpus", lambda: 4)
    cfg = write_config({"problem": _TANH, "grid": {"n_steps": 40},
                        "n_paths": 50, "seed": 1})
    for workers in (1, 3, 64):
        for command in ("simulate", "derivative", "density"):
            assert run(command, cfg, tmp_path / command,
                       "--workers", str(workers)) == 0
    assert seen["_simulate_worker"] == [_chunks(50, 16)] * 3
    assert seen["_derivative_worker"] == [_chunks(50, 7)] * 3
    # density cuts one chunk per process it would run: ceil(50 / processes)
    # paths each, with no more processes than usable CPUs
    assert seen["_terminal_worker"] == [
        [(0, 50)], [(0, 17), (17, 17), (34, 16)],
        [(0, 13), (13, 13), (26, 13), (39, 11)]]


class _StubPool:
    """Stands in for the process pool: runs each job as it is submitted
    and counts the jobs submitted."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.submitted = 0
        _StubPool.last = self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted += 1
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def _echo_worker(tag, n_paths, path_offset):
    return tag, path_offset, n_paths


def test_pool_results_in_flight_are_bounded(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _StubPool)
    monkeypatch.setattr(cli_mod, "_usable_cpus", lambda: 3)
    chunks = _chunks(20, 2)
    results = []
    for taken, result in enumerate(_stream(_echo_worker, ("c",), chunks,
                                           workers=8)):
        pool = _StubPool.last
        assert pool.max_workers == 3
        # results submitted and not yet consumed, this one included
        assert pool.submitted - taken <= pool.max_workers + 1
        results.append(result)
    assert results == [(off, ("c", off, n)) for off, n in chunks]


def _fresh_env(*path_entries) -> dict:
    """Environment of a new interpreter that imports the package from this
    checkout, with ``path_entries`` ahead of it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [*map(str, path_entries),
         os.path.dirname(os.path.dirname(perturbsde.__file__))]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_cli_import_loads_no_process_pool():
    # the pool is imported where it is started, so one-process runs never
    # load concurrent.futures or multiprocessing
    code = ("import sys, perturbsde.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('concurrent', "
            "'multiprocessing')))")
    res = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_artifacts_ignore_package_metadata_on_the_path(tmp_path, repo_configs,
                                                      package_metadata):
    # every artifact states the package's own version, so the metadata an
    # install or an editable build leaves on sys.path changes no byte
    runs = {}
    for name, entries in [("plain", []), ("metadata", [package_metadata])]:
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "perturbsde.cli", "regime", "--config",
             str(repo_configs / "regime.json"), "--out", str(out)],
            env=_fresh_env(*entries), capture_output=True, text=True,
            timeout=120)
        assert res.returncode == 0, res.stderr
        runs[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(runs["plain"]) == ["lower_bound_curve.csv", "regime.json"]
    assert runs["metadata"] == runs["plain"]
    assert json.loads(runs["plain"]["regime.json"])["meta"]["version"] \
        == TOOL_VERSION


def test_floor_counts_add_up_over_chunks():
    chunks = [{"slack_factor": 0.98, "n_sup_violations": 2,
               "final_bound_horizon": 0.5, "n_final_violations": 0},
              {"slack_factor": 0.98, "n_sup_violations": 1,
               "final_bound_horizon": 0.5, "n_final_violations": 4}]
    assert _fold_counts(chunks) == {
        "slack_factor": 0.98, "n_sup_violations": 3,
        "final_bound_horizon": 0.5, "n_final_violations": 4}


def test_regime_blocks_agree_across_subcommands(tmp_path, write_config):
    # A coarse transform table moves the transformed-drift slope estimate,
    # so every subcommand must classify on the configured table size.
    problem = {"x0": 0.0, "alpha": 0.1,
               "drift": {"preset": "tanh",
                         "params": {"amplitude": 0.1, "scale": 1.0}},
               "diffusion": {"preset": "sine",
                             "params": {"amplitude": 1.0, "offset": 2.0}},
               "horizon": 1.0}
    cfg = write_config({"problem": problem, "grid": {"n_steps": 50},
                        "n_paths": 20, "seed": 3, "t0": 0.5,
                        "transform": {"n_nodes": 9}})
    for command in ("regime", "derivative", "density"):
        assert run(command, cfg, tmp_path / command) == 0
    regime = read_json(tmp_path / "regime" / "regime.json")
    del regime["meta"]
    assert regime["lb"] != regime_report(problem_from_json(problem),
                                         0.5).lb
    derivative = read_json(tmp_path / "derivative"
                           / "derivative_summary.json")["bounds"]
    density = read_json(tmp_path / "density" / "diagnostic.json")["regime"]
    for block in (derivative, density):
        assert {k: block[k] for k in regime} == regime


def test_transform_artifacts_revalidate(tmp_path, write_config):
    problem = {"x0": 0.0, "alpha": 0.1,
               "drift": {"preset": "tanh",
                         "params": {"amplitude": 0.1, "scale": 1.0}},
               "diffusion": {"preset": "sine",
                             "params": {"amplitude": 1.0, "offset": 2.0}},
               "horizon": 1.0}
    cfg = write_config({"problem": problem})
    out = tmp_path / "run"
    assert run("transform", cfg, out) == 0
    assert (out / "transform_table.csv").exists()
    doc = read_json(out / "transformed_spec.json")
    assert doc["problem"]["x0"] == pytest.approx(0.0, abs=1e-9)
    assert doc["problem"]["diffusion"]["preset"] == "const"
    assert doc["n_nodes"] == 4097
    assert 1.0 <= doc["sigma_inf"] <= 1.001
    problem_from_json(doc["problem"])  # building it validates it


def test_transformed_spec_artifact_is_the_simulated_problem(
        tmp_path, repo_configs):
    out = tmp_path / "run"
    assert run("transform", repo_configs / "transform.json", out) == 0
    doc = read_json(out / "transformed_spec.json")
    problem = problem_from_json(read_json(
        repo_configs / "transform.json")["problem"])
    grid = GridSpec(n_steps=200, horizon=problem.horizon)
    read_back = simulate_batch(problem_from_json(doc["problem"]), grid, 16,
                               seed=11)
    direct = simulate_batch(transformed_spec(build_transform(problem)), grid,
                            16, seed=11)
    assert np.array_equal(read_back.x, direct.x)


def test_transformed_spec_problem_is_a_valid_config(tmp_path, repo_configs):
    out = tmp_path / "run"
    assert run("transform", repo_configs / "transform.json", out) == 0
    problem = read_json(out / "transformed_spec.json")["problem"]
    assert "declared_bounds" not in problem["diffusion"]
    check_config({"problem": problem})
    problem_from_json(problem)  # building it validates it


def test_regime_with_tabulated_diffusion(tmp_path, write_config):
    # 2 + sin sampled on 2401 nodes over [-60, 60] classifies like the
    # analytic sine: the drift table needs sigma and sigma' only
    nodes = np.linspace(-60.0, 60.0, 2401)
    sine = {"x0": 0.0, "alpha": 0.1,
            "drift": {"preset": "tanh",
                      "params": {"amplitude": 0.1, "scale": 1.0}},
            "diffusion": {"preset": "sine",
                          "params": {"amplitude": 1.0, "offset": 2.0}},
            "horizon": 1.0}
    tabulated = dict(sine, diffusion={
        "preset": "custom-tabulated",
        "params": {"nodes": nodes.tolist(),
                   "values": (2.0 + np.sin(nodes)).tolist()}})
    cfg = write_config({"problem": tabulated, "t0": 0.5})
    out = tmp_path / "run"
    assert run("regime", cfg, out) == 0
    doc = read_json(out / "regime.json")
    assert doc["transformed"] is True
    analytic = regime_report(problem_from_json(sine), 0.5).lb
    assert doc["lb"] == pytest.approx(analytic, rel=1e-3)


def test_regime_bound_of_the_transform_problem_is_the_table_sup(
        tmp_path, write_config, repo_configs):
    config = read_json(repo_configs / "transform.json")
    cfg = write_config(dict(config, t0=0.1))
    out = tmp_path / "run"
    assert run("regime", cfg, out) == 0
    doc = read_json(out / "regime.json")
    problem = problem_from_json(config["problem"])
    table = build_transform(problem, n_nodes=config["transform"]["n_nodes"])
    drift = transformed_spec(table).drift
    zs = np.linspace(*table.range, 10**6)
    assert doc["lb"] >= float(np.max(np.abs(drift(zs, 1))))
    # exact for the table, not for the tilde_b it interpolates
    assert doc["lb_source"] == "table"
    assert doc["rigorous"] is False


def _count_validations(monkeypatch) -> list:
    """Record every problem ``model.validate`` checks from now on."""
    checked, validate = [], model_mod.validate

    def counting(problem):
        checked.append(problem)
        return validate(problem)

    monkeypatch.setattr(model_mod, "validate", counting)
    return checked


def test_transform_validates_the_problem_once(tmp_path, repo_configs,
                                            monkeypatch):
    checked = _count_validations(monkeypatch)
    assert run("transform", repo_configs / "transform.json",
               tmp_path / "o") == 0
    # the config's problem, then the transformed one
    assert len(checked) == 2
    assert checked[1].drift.preset_id == "custom-tabulated"


def test_transform_too_narrow_for_its_problem_writes_nothing(
        tmp_path, write_config, repo_configs, capsys):
    config = read_json(repo_configs / "transform.json")
    cfg = write_config(dict(config, transform={"domain": [-3.0, 3.0]}))
    out = tmp_path / "o"
    assert run("transform", cfg, out) == 2
    assert ("drift is not finite on the validation grid [-10, 10]; "
            "its table covers [-2.34498, 1.14079]") in capsys.readouterr().err
    assert not any(out.iterdir())


def test_derivative_validates_the_problem_once_per_chunk(tmp_path,
                                                         write_config,
                                                         monkeypatch):
    checked = _count_validations(monkeypatch)
    _five_path_chunks(monkeypatch, "derivative", 32)
    cfg = write_config(simulate_config(n_paths=12))
    assert run("derivative", cfg, tmp_path / "o") == 0
    # once in the CLI process, once in each chunk's worker
    assert len(checked) == 1 + len(_chunks(12, 5))


# -- verification subcommand --------------------------------------------------


def test_verify_subset(tmp_path, write_config):
    cfg = write_config({"suites": ["additive_identity",
                                   "picard_consistency"]})
    out = tmp_path / "run"
    assert run("verify", cfg, out) == 0
    doc = read_json(out / "verify_report.json")
    assert doc["all_passed"] is True
    assert [s["name"] for s in doc["suites"]] == ["additive_identity",
                                                  "picard_consistency"]
    assert all(s["passed"] for s in doc["suites"])


def test_verify_unknown_suite(tmp_path, write_config, capsys):
    cfg = write_config({"suites": ["no_such_suite"]})
    assert run("verify", cfg, tmp_path / "o") == 2
    assert "available" in capsys.readouterr().err


@pytest.mark.parametrize("suites,message", [
    ([], "error: no verification suites listed"),
    (["picard_consistency", "picard_consistency"],
     "error: verification suites listed more than once: "
     "['picard_consistency']"),
])
def test_verify_refuses_empty_and_repeated_suite_lists(
        suites, message, tmp_path, write_config, capsys):
    cfg = write_config({"suites": suites})
    assert run("verify", cfg, tmp_path / "o") == 2
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "o" / "verify_report.json").exists()


def test_verify_failure_exits_4(tmp_path, write_config, monkeypatch, capsys):
    def stub(seed=None):
        return SuiteResult(name="stub_fail", passed=False, worst=1.0,
                           tolerance=0.0, details={})

    monkeypatch.setitem(verify_mod.ALL_SUITES, "stub_fail", stub)
    cfg = write_config({"suites": ["stub_fail"]})
    out = tmp_path / "run"
    assert run("verify", cfg, out) == 4
    assert "stub_fail" in capsys.readouterr().err
    doc = read_json(out / "verify_report.json")
    assert doc["all_passed"] is False


# -- shipped configurations ---------------------------------------------------


@pytest.mark.parametrize("name,command", [
    ("simulate.json", "simulate"),
    ("regime.json", "regime"),
    ("transform.json", "transform"),
    ("verify.json", "verify"),
])
def test_shipped_configs_run(tmp_path, name, command, repo_configs):
    assert run(command, repo_configs / name, tmp_path / "out") == 0


# -- exports ------------------------------------------------------------------


@pytest.mark.parametrize("module", ["perturbsde"] + [
    f"perturbsde.{m.name}" for m in pkgutil.iter_modules(perturbsde.__path__)])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing
