"""Command-line interface: artifacts, determinism, exit codes, and the
metadata contract."""

import json
import math

import pytest

import perturbsde.verify as verify_mod
from perturbsde import SuiteResult, regime_report, validate
from perturbsde.cli import _chunks, _pool_size, main
from perturbsde.io import TOOL_VERSION, problem_from_json, read_json


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


def test_json_table_format(tmp_path, write_config):
    cfg = write_config(simulate_config(n_paths=4, format="json"))
    out = tmp_path / "run"
    assert run("simulate", cfg, out) == 0
    assert not (out / "paths.csv").exists()
    doc = read_json(out / "paths.json")
    assert set(doc) == {"meta", "columns"}
    cols = doc["columns"]
    assert set(cols) == {"path", "t", "x", "running_max"}
    assert len(cols["x"]) == 4 * 33


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
], ids=["n_paths-float", "n_paths-negative", "seed-negative", "seed-2**64",
        "seed-float", "t0-zero", "t0-overflows-float", "bandwidth-string",
        "n_grid-float", "bandwidth-mesh-too-fine", "transform.n_nodes-float",
        "transform.domain-length", "transform-unknown-key", "suites-item",
        "out-type", "format-xml"])
def test_invalid_field_exits_2_and_names_it(tmp_path, write_config, capsys,
                                             command, field, value, name):
    cfg = write_config(simulate_config(**{field: value}))
    assert run(command, cfg, tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "config" in err and name in err


@pytest.mark.parametrize("block,path", [
    ("problem", ()),
    ("grid", ()),
    ("problem", ("drift",)),
    ("problem", ("diffusion", "declared_bounds")),
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


def test_workers_must_be_positive(tmp_path, write_config):
    cfg = write_config(simulate_config())
    assert run("simulate", cfg, tmp_path / "o", "--workers", "0") == 2


def test_pool_size_is_clamped():
    # pure function of the request, the chunk count and the usable CPUs;
    # no process is started here
    assert _pool_size(4, 4, 8) == 4
    assert _pool_size(10_000, len(_chunks(3, 10_000)), 64) == 3
    assert _pool_size(10_000, len(_chunks(10_000, 10_000)), 2) == 2
    assert _pool_size(1, 5, 8) == 1
    assert _pool_size(4, 4, 0) == 1


def test_numeric_blowup_exits_3(tmp_path, write_config, capsys):
    problem = base_problem()
    problem["drift"] = {"preset": "linear", "params": {"slope": 2000.0}}
    cfg = write_config({"problem": problem, "grid": {"n_steps": 1000},
                        "n_paths": 1, "seed": 1})
    assert run("simulate", cfg, tmp_path / "o") == 3
    assert "non-finite" in capsys.readouterr().err


def test_degenerate_transform_exits_3(tmp_path, write_config):
    problem = base_problem(x0=0.0)
    problem["diffusion"] = {"preset": "sine", "params": {"amplitude": 1.0}}
    cfg = write_config({"problem": problem})
    assert run("transform", cfg, tmp_path / "o") == 3


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
    assert run("density", cfg, out) == 0
    header_line = next(l for l in (out / "density.csv").read_text()
                       .splitlines() if not l.startswith("#"))
    assert header_line == "z,p_hat,p_oracle"
    doc = read_json(out / "diagnostic.json")
    assert doc["n_samples"] == 2000
    assert doc["bandwidth"] > 0
    assert doc["normalization"] == pytest.approx(1.0, abs=0.1)
    assert doc["l1_to_oracle"] >= 0.0
    assert "below the calibrated sample size" in doc["smoothness"]["note"]
    assert doc["regime"]["admissible"] is False


def test_density_deterministic_across_workers(tmp_path, write_config):
    cfg = write_config({"problem": base_problem(alpha=0.5, x0=0.0),
                        "grid": {"n_steps": 64}, "n_paths": 3000,
                        "seed": 5})
    one, two = tmp_path / "w1", tmp_path / "w2"
    assert run("density", cfg, one, "--workers", "1") == 0
    assert run("density", cfg, two, "--workers", "2") == 0
    for name in ("density.csv", "diagnostic.json"):
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
    rebuilt = problem_from_json(doc["problem"])
    validate(rebuilt)


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
