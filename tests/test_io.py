"""Serialization: JSON round trips, canonical hashing, and artifact writers."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perturbsde import io
from perturbsde import (
    Coefficient,
    ConfigError,
    GridSpec,
    ProblemSpec,
    UnknownPreset,
)
from perturbsde.io import (
    TOOL_VERSION,
    canonical_json,
    coefficient_from_json,
    coefficient_to_json,
    config_hash,
    encode_floats,
    grid_from_json,
    problem_from_json,
    problem_to_json,
    read_json,
    write_csv,
    write_json,
)


# -- float sentinels and canonical form ---------------------------------------


def test_encode_floats_sentinels_and_arrays():
    payload = {"a": math.inf, "b": [-math.inf, 1.5],
               "c": np.array([1.0, 2.0]), "d": np.float64(3.5),
               "e": np.int64(7), "flag": np.bool_(True)}
    out = encode_floats(payload)
    assert out == {"a": "inf", "b": ["-inf", 1.5], "c": [1.0, 2.0],
                   "d": 3.5, "e": 7, "flag": True}
    assert isinstance(out["e"], int) and not isinstance(out["flag"], np.bool_)
    json.dumps(out, allow_nan=False)


def test_encode_floats_rejects_nan():
    with pytest.raises(ConfigError):
        encode_floats({"x": math.nan})
    with pytest.raises(ConfigError):
        encode_floats([np.nan])


def test_canonical_json_is_order_independent():
    a = {"x": 1, "y": {"p": 2.5, "q": [1, 2]}}
    b = {"y": {"q": [1, 2], "p": 2.5}, "x": 1}
    assert canonical_json(a) == canonical_json(b)
    assert " " not in canonical_json(a)
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 64
    assert config_hash(a) != config_hash({"x": 1, "y": {"p": 2.5,
                                                        "q": [1, 3]}})


# -- coefficient round trips --------------------------------------------------


@pytest.mark.parametrize("coeff", [
    Coefficient.const(2.5),
    Coefficient.linear(slope=-0.7, intercept=1.2),
    Coefficient.sine(amplitude=0.5, offset=2.0, frequency=3.0, phase=0.1),
    Coefficient.tanh(amplitude=0.1, scale=2.0),
    Coefficient.ornstein_uhlenbeck(rate=1.5, mean=-0.3),
])
def test_preset_round_trip(coeff):
    doc = coefficient_to_json(coeff)
    rebuilt = coefficient_from_json(doc)
    assert rebuilt.preset_id == coeff.preset_id
    x = np.linspace(-3.0, 3.0, 41)
    for order in (0, 1):
        np.testing.assert_array_equal(rebuilt(x, order), coeff(x, order))
    assert coefficient_to_json(rebuilt) == doc


def test_tabulated_round_trip():
    nodes = np.linspace(-2.0, 2.0, 41)
    coeff = Coefficient.tabulated(nodes, np.tanh(nodes))
    doc = coefficient_to_json(coeff)
    assert doc["preset"] == "custom-tabulated"
    assert isinstance(doc["params"]["nodes"], list)
    rebuilt = coefficient_from_json(doc)
    x = np.linspace(-1.9, 1.9, 23)
    np.testing.assert_array_equal(rebuilt(x, 0), coeff(x, 0))
    np.testing.assert_array_equal(rebuilt(x, 1), coeff(x, 1))


def test_callback_coefficients_do_not_serialize():
    # every coefficient is a catalog preset; a callback is none of them
    assert not hasattr(Coefficient, "from_callbacks")
    with pytest.raises(UnknownPreset, match="catalog: const, linear"):
        coefficient_from_json({"preset": "custom-callback", "params": {}})


def test_coefficient_json_validation():
    with pytest.raises(UnknownPreset, match="catalog"):
        coefficient_from_json({"preset": "cubic", "params": {}})
    with pytest.raises(ConfigError, match="missing"):
        coefficient_from_json({"preset": "const", "params": {}})
    with pytest.raises(ConfigError, match="wavelength"):
        coefficient_from_json({"preset": "sine",
                               "params": {"wavelength": 2.0}})
    with pytest.raises(ConfigError, match="extra"):
        coefficient_from_json({"preset": "const", "params": {"value": 1.0},
                               "extra": 1})
    with pytest.raises(ConfigError, match="number"):
        coefficient_from_json({"preset": "const",
                               "params": {"value": True}})
    with pytest.raises(ConfigError):
        coefficient_from_json(["not", "an", "object"])
    with pytest.raises(ConfigError, match="declared_bounds"):
        coefficient_from_json({"preset": "const", "params": {"value": 1.0},
                               "declared_bounds": {"sup_d3": 1.0}})


# -- problem and grid ---------------------------------------------------------


def test_problem_round_trip(tanh_spec):
    doc = problem_to_json(tanh_spec)
    rebuilt = problem_from_json(doc)
    assert rebuilt.x0 == tanh_spec.x0
    assert rebuilt.alpha == tanh_spec.alpha
    assert rebuilt.horizon == tanh_spec.horizon
    assert rebuilt.drift.preset_id == tanh_spec.drift.preset_id
    assert problem_to_json(rebuilt) == doc


def test_problem_json_validation():
    base = problem_to_json(ProblemSpec(
        x0=0.0, alpha=0.0, drift=Coefficient.const(0.0),
        diffusion=Coefficient.const(1.0), horizon=1.0))
    incomplete = {k: v for k, v in base.items() if k != "alpha"}
    with pytest.raises(ConfigError, match="alpha"):
        problem_from_json(incomplete)
    with pytest.raises(ConfigError, match="unknown"):
        problem_from_json({**base, "label": "run-3"})
    with pytest.raises(ConfigError, match="x0"):
        problem_from_json({**base, "x0": "zero"})


def test_grid_round_trip_and_horizon_inheritance():
    # a grid block states its steps; the horizon is the problem's
    grid = GridSpec(n_steps=128, horizon=2.0)
    rebuilt = grid_from_json({"n_steps": grid.n_steps}, grid.horizon)
    assert rebuilt == grid and rebuilt.dt == grid.dt
    inherited = grid_from_json({"n_steps": 64}, 0.5)
    assert inherited.n_steps == 64 and inherited.horizon == 0.5


def test_grid_json_validation():
    with pytest.raises(ConfigError, match="grid.horizon: unknown key"):
        grid_from_json({"n_steps": 64, "horizon": 0.5}, 0.5)
    with pytest.raises(ConfigError, match="n_steps"):
        grid_from_json({}, 1.0)
    with pytest.raises(ConfigError, match="n_steps"):
        grid_from_json({"n_steps": 0}, 1.0)
    with pytest.raises(ConfigError, match="grid.dt: unknown key"):
        grid_from_json({"n_steps": 64, "dt": 0.1}, 1.0)
    with pytest.raises(TypeError):
        grid_from_json({"n_steps": 64})     # the horizon is not optional


# -- artifact writers ---------------------------------------------------------


def test_write_json_places_meta_first(tmp_path):
    path = tmp_path / "report.json"
    write_json(path, {"value": math.inf, "curve": np.array([1.0, 2.0])},
               meta={"version": TOOL_VERSION, "seed": 7})
    text = path.read_text()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc) == ["meta", "value", "curve"]
    assert doc["meta"]["seed"] == 7
    assert doc["value"] == "inf"
    assert doc["curve"] == [1.0, 2.0]
    assert read_json(path) == doc


def test_write_json_refusal_leaves_the_path_as_it_was(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(ConfigError, match="NaN"):
        write_json(path, {"a": math.nan})
    assert not path.exists()
    write_json(path, {"a": 1.0}, meta={"seed": 7})
    before = path.read_bytes()
    with pytest.raises(ConfigError, match="NaN"):
        write_json(path, {"a": np.array([1.0, math.nan])}, meta={"seed": 7})
    assert path.read_bytes() == before


def test_write_csv_layout_and_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    floats = np.array([0.1, 1.0 / 3.0, -2.5e-17])
    write_csv(path, {"k": np.arange(3), "v": floats},
              meta={"seed": 42, "kind": "demo"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed = 42"
    assert lines[1] == "# kind = demo"
    assert lines[2] == "k,v"
    assert len(lines) == 6
    for i, line in enumerate(lines[3:]):
        k, v = line.split(",")
        assert k == str(i)
        assert "." not in k
        assert float(v) == floats[i]


def test_write_csv_validation(tmp_path):
    with pytest.raises(ConfigError):
        write_csv(tmp_path / "bad.csv", {})
    with pytest.raises(ConfigError, match="equal length"):
        write_csv(tmp_path / "bad.csv",
                  {"a": np.arange(3), "b": np.arange(4)})
    with pytest.raises(ConfigError):
        write_csv(tmp_path / "bad.csv", {"a": np.zeros((2, 2))})


# -- the CSV writer against the per-cell writer it replaced --------------------


def _reference_cell(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def reference_write_csv(path, columns, *, meta=None):
    """Byte reference for ``write_csv``: ``csv.writer`` with one formatted
    cell at a time, the writer's earlier per-cell form."""
    names = list(columns)
    arrays = [np.asarray(columns[name]) for name in names]
    n = arrays[0].shape[0]
    with open(path, "w", newline="", encoding="utf-8") as f:
        for key, value in (meta or {}).items():
            f.write(f"# {key} = {value}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(names)
        for i in range(n):
            writer.writerow([_reference_cell(a[i]) for a in arrays])


_SPECIAL_FLOATS = [0.1, 1.0 / 3.0, 2.0**53 + 1.0, math.inf, -math.inf,
                   math.nan, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                   2.2250738585072014e-308, 1e16, 123456789012345678.0, -2.5]


def _columns(n: int) -> dict:
    """Every column kind the writer distinguishes, ``n`` rows each."""
    rng = np.random.default_rng(5)
    specials = np.resize(np.array(_SPECIAL_FLOATS), n)
    return {
        "path": np.arange(n, dtype=np.int64) - 3,
        "big": np.resize(np.array([0, 2**64 - 1, 2**63, 7], np.uint64), n),
        "i64": np.resize(np.array([-2**63, 2**63 - 1, -1], np.int64), n),
        "small": np.arange(n, dtype=np.int8),
        "flag": np.arange(n) % 3 == 0,
        "special": specials,
        "f32": (rng.standard_normal(n) * 1e3).astype(np.float32),
        "f16": np.resize(np.array([0.1, -6e-8, 65504.0], np.float16), n),
        "normal": rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
    }


@pytest.mark.parametrize("n", [0, 1, len(_SPECIAL_FLOATS), 2 * 5 + 3])
def test_write_csv_bytes_match_reference_writer(tmp_path, monkeypatch, n):
    # a block of 5 rows makes n = 13 two full blocks and a partial one
    monkeypatch.setattr(io, "_CSV_BLOCK_ROWS", 5)
    columns = _columns(n)
    meta = {"tool_version": TOOL_VERSION, "seed": 7, "config_hash": "ab12",
            "alpha": 0.1}
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_csv(new, columns, meta=meta)
    reference_write_csv(ref, columns, meta=meta)
    assert new.read_bytes() == ref.read_bytes()


def test_write_csv_default_blocks_match_reference_writer(tmp_path):
    n = 2 * io._CSV_BLOCK_ROWS + 3
    rng = np.random.default_rng(9)
    columns = {"path": np.repeat(np.arange(n), 2)[:n],
               "r": np.tile(np.linspace(0.0, 1.0, 7), n)[:n],
               "d_x": rng.standard_normal(n),
               "d_m": np.where(rng.random(n) < 0.5, 0.0, rng.random(n))}
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_csv(new, columns)
    reference_write_csv(ref, columns)
    assert new.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("m", [3, 5, 7])
def test_path_major_blocks_match_the_reference_writer(tmp_path, monkeypatch,
                                                      m):
    # blocks of 5 rows: paths of 3 labels share a block, paths of 7 are
    # split over two
    monkeypatch.setattr(io, "_CSV_BLOCK_ROWS", 5)
    n_paths, first = 4, 9
    rng = np.random.default_rng(11)
    labels = np.linspace(0.0, 1.0, m + 1)[:m] / 3.0
    values = rng.standard_normal((m, n_paths))        # time-major
    values.flat[:len(_SPECIAL_FLOATS)] = _SPECIAL_FLOATS[:values.size]
    flags = rng.random((n_paths, m)) < 0.5
    counts = rng.integers(-5, 5, (n_paths, m))
    blocks = list(io.path_major_blocks(first, labels, values.T, flags,
                                       counts))
    assert all(0 < block.count("\n") <= 5 for block in blocks)
    ref = tmp_path / "ref.csv"
    reference_write_csv(ref, {
        "path": np.repeat(np.arange(first, first + n_paths), m),
        "t": np.tile(labels, n_paths), "x": values.T.reshape(-1),
        "flag": flags.reshape(-1), "count": counts.reshape(-1)})
    body = ref.read_text(encoding="utf-8").split("\n", 1)[1]
    assert "".join(blocks) == body


# -- the float kernel against '%.17g' -----------------------------------------


def _kernel_texts(values) -> list[str]:
    cells = io._float_cells(np.asarray(values, np.float64))
    return [row.tobytes().replace(b"\0", b"").decode("ascii")
            for row in cells]


def _assert_kernel_matches(values) -> None:
    values = np.asarray(values, np.float64)
    assert _kernel_texts(values) == ["%.17g" % v for v in values.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_float_kernel_matches_percent_17g_on_floats(values):
    _assert_kernel_matches(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_float_kernel_matches_percent_17g_on_bit_patterns(bits):
    _assert_kernel_matches(np.array(bits, np.uint64).view(np.float64))


def _boundary_floats() -> list[float]:
    values = []
    for j in range(-5, 19):
        power = float(f"1e{j}")
        values += [power, np.nextafter(power, 0.0),
                   np.nextafter(power, math.inf)]
    values += [
        9.9999999999999999e-5,       # parses to 1e-4: '0.0001'
        99999999999999992.0,         # parses to 1e17: '1e+17'
        99999999999999984.0,         # the largest double below 1e17
        1234567890123456.25,         # exact halves at the 17th digit,
        1234567890123456.75,         # which round to even
        0.5, 2.5e-4, 0.0, -0.0,
        2.0**53 - 1.0, 2.0**53, 2.0**53 + 2.0, 2.0**53 + 1.0,
    ]
    return values + [-v for v in values]


def test_float_kernel_matches_percent_17g_on_boundaries():
    _assert_kernel_matches(_boundary_floats())


def test_float_kernel_texts():
    assert _kernel_texts([-0.0, 0.0, 1e-3, 0.1, -2.5, 1e16, 1e17]) == \
        ["-0", "0", "0.001", "0.10000000000000001", "-2.5",
         "10000000000000000", "1e+17"]


_NAME = st.text(st.sampled_from('ab_ ,"\r\n\t\'#=1é'), max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(_NAME, min_size=1, max_size=3))
def test_write_csv_header_matches_reference_or_is_refused(tmp_path_factory,
                                                         names):
    columns = {name: np.zeros(1) for name in names}
    out = tmp_path_factory.mktemp("header")
    new, ref = out / "new.csv", out / "ref.csv"
    reference_write_csv(ref, columns)
    quoted = '"' in ref.read_text(encoding="utf-8")
    try:
        write_csv(new, columns)
    except ConfigError:
        bad = [n for n in columns if not n or set(n) & set(',"\r\n')]
        assert bad, "a name csv.writer leaves bare was refused"
        return
    assert not quoted
    assert new.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("name", ["a,b", 'say "x"', "cr\r", "line\nbreak",
                                  ""])
def test_write_csv_refuses_names_that_need_quoting(tmp_path, name):
    with pytest.raises(ConfigError, match="column name"):
        write_csv(tmp_path / "bad.csv", {"ok": np.zeros(2), name: np.ones(2)})
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("values", [np.array(["1.5", "2"]),
                                    np.array([1, "x"], dtype=object),
                                    np.array([1 + 2j, 0j]),
                                    np.array(["2020-01-01"] * 2,
                                             dtype="datetime64[D]")])
def test_write_csv_refuses_non_numeric_columns(tmp_path, values):
    with pytest.raises(ConfigError, match="non-numeric"):
        write_csv(tmp_path / "bad.csv", {"v": values})


def _write_peak_bytes(path, n: int) -> int:
    rng = np.random.default_rng(3)
    columns = {"path": np.repeat(np.arange(n // 64 + 1), 64)[:n],
               "r": np.tile(np.linspace(0.0, 1.0, 64), n // 64 + 1)[:n],
               "d_x": rng.standard_normal(n),
               "d_m": rng.standard_normal(n)}
    tracemalloc.start()
    try:
        write_csv(path, columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_csv_memory_is_bounded_by_the_block(tmp_path):
    # Each block of 4096 rows is formatted in one reused row buffer of
    # zero-padded cells, beside the float kernel's arrays: eight blocks
    # peak at about 1.34 MB under tracemalloc.  The budget leaves room for
    # that and nothing that grows with the row count: the whole table as
    # one block takes about 10.7 MB here, and 65536-row blocks (with the
    # row count scaled to eight of them) about 21 MB.
    budget = 3_000_000
    block = io._CSV_BLOCK_ROWS
    peak_2 = _write_peak_bytes(tmp_path / "two.csv", 2 * block)
    peak_8 = _write_peak_bytes(tmp_path / "eight.csv", 8 * block)
    assert peak_8 < budget
    assert peak_8 < peak_2 + 200_000


# -- the tool version ---------------------------------------------------------


def _fresh_interpreter(code: str, *path_entries) -> str:
    """Standard output of ``code`` in a new interpreter that imports the
    package from this checkout, with ``path_entries`` ahead of it."""
    src = os.path.dirname(os.path.dirname(io.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [*map(str, path_entries), src]
        + [p for p in [env.get("PYTHONPATH")] if p])
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_cli_import_loads_no_metadata_machinery():
    # the version is a literal, so no import reads package metadata or
    # loads the email package it needs
    code = ("import sys, perturbsde.cli\n"
            "print(sorted(m for m in ('importlib.metadata', 'email',\n"
            "                         'concurrent.futures')\n"
            "             if m in sys.modules))")
    assert _fresh_interpreter(code) == "[]"


def test_tool_version_ignores_package_metadata_on_the_path(package_metadata):
    code = ("import perturbsde\nfrom perturbsde.io import TOOL_VERSION\n"
            "print(TOOL_VERSION, perturbsde.__version__)")
    plain = _fresh_interpreter(code)
    assert plain == f"{TOOL_VERSION} {TOOL_VERSION}"
    assert _fresh_interpreter(code, package_metadata) == plain
