"""The shipped self-check suites must all pass on their default seeds."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from perturbsde import ALL_SUITES, run_suites
from perturbsde.verify import density_oracle_suite


EXPECTED = ["additive_identity", "malliavin_closed_form", "cameron_martin",
            "lower_bounds", "lamperti_consistency", "picard_consistency",
            "density_oracle"]


def test_catalog_names():
    assert list(ALL_SUITES) == EXPECTED


def test_all_suites_pass():
    results = run_suites()
    assert [r.name for r in results] == EXPECTED
    for r in results:
        assert r.passed, f"{r.name}: worst={r.worst} details={r.details}"
        assert r.worst <= r.tolerance
    by_name = {r.name: r for r in results}
    # headline margins on the sharp identities
    assert by_name["additive_identity"].worst <= 1e-12
    assert by_name["malliavin_closed_form"].worst <= 1e-10
    assert by_name["cameron_martin"].worst <= 1e-2
    assert by_name["picard_consistency"].worst <= 1e-5

    lb = by_name["lower_bounds"].details
    assert lb["sup_bound_violations"] == 0
    assert lb["final_bound_violations"] == 0
    assert lb["diff_bound_violations"] == 0
    # the unrepaired two-time bound fails at a visible rate; it is
    # reported for reference, not gated on
    assert 0.05 < lb["plain_diff_bound_violation_rate"] < 0.15

    lam = by_name["lamperti_consistency"].details
    assert lam["roundtrip_max_err"] <= 1e-8
    assert lam["lift_violations"] == 0
    assert lam["path_sup_diff_median"] <= 5e-2


def test_single_suite_selection():
    results = run_suites(["picard_consistency"])
    assert len(results) == 1
    assert results[0].name == "picard_consistency"
    assert results[0].passed


def test_seed_override():
    results = run_suites(["additive_identity"], seed=123)
    assert results[0].passed


def test_unknown_suite_name():
    with pytest.raises(KeyError):
        run_suites(["no_such_suite"])


@pytest.mark.parametrize("seed", [4, 9, 11, 15])
def test_density_oracle_passes_at_defaults_on_former_failing_seeds(seed):
    # these seeds failed the 5e-3 gate when the sample held 200 000 draws
    result = density_oracle_suite(seed=seed)
    assert result.passed, f"worst={result.worst} details={result.details}"
    assert result.tolerance == 5e-3


_ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_names_resolve():
    # bench/spans.py wraps package functions by module attribute, so a
    # renamed or deleted entry point breaks the traced benchmark run
    code = textwrap.dedent("""
        import importlib, json
        import spans
        for target in spans.SPAN_TARGETS + spans.COUNT_TARGETS:
            mod = importlib.import_module("perturbsde." + target[0])
            assert callable(getattr(mod, target[1])), target
        tracer = spans.Tracer()
        spans.install(tracer)
        from perturbsde import verify
        assert verify.picard_suite(n_paths=5, n_steps=100).passed
        json.dumps(tracer.counts)
        iterations = tracer.counts["integrate.picard_solve.iterations"]
        assert type(iterations) is int and iterations > 0, iterations
        # the suite builds one problem, so model.validate.calls reads 1
        validations = [s for s in tracer.spans if s[0] == "model.validate"]
        assert len(validations) == 1, len(validations)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src"), str(_ROOT / "bench")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
