"""Serialization of specs, grids, and run artifacts.

JSON is the configuration and report format; CSV carries numerical tables.
Every coefficient is a catalog preset and round-trips through its preset
id and parameter dict, so a config file is a complete, hashable
description of a run.

Infinities appear in regime reports (``t0_max`` of a drift with no
slope), but strict JSON has no literal for them, so floats are encoded
with the string sentinels ``"inf"`` and ``"-inf"``.  No config field
holds an infinity, so a config is read as parsed.  NaN is rejected: a NaN
in a config or report is always a bug upstream.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from itertools import chain, product
from pathlib import Path
from typing import Any, TextIO

import numpy as np

from .errors import ConfigError, UnknownPreset
from .model import PRESETS, Coefficient, GridSpec, ProblemSpec

__all__ = [
    "TOOL_VERSION",
    "encode_floats",
    "canonical_json",
    "config_hash",
    "check_config",
    "coefficient_to_json",
    "coefficient_from_json",
    "problem_to_json",
    "problem_from_json",
    "grid_from_json",
    "read_json",
    "write_json",
    "write_csv",
]

# The package's version, written into every artifact's ``meta`` block and
# read by ``pyproject.toml``, so a checkout and an install state the same one.
TOOL_VERSION = "0.1.0"


# -- float sentinels ----------------------------------------------------------


def encode_floats(obj: Any) -> Any:
    """Recursively replace non-finite floats with string sentinels.

    numpy scalars and arrays become plain Python floats and lists so the
    result is directly serializable with ``json.dumps(allow_nan=False)``.
    """
    if isinstance(obj, Mapping):
        return {str(k): encode_floats(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [encode_floats(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [encode_floats(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            raise ConfigError("cannot serialize NaN")
        if v == math.inf:
            return "inf"
        if v == -math.inf:
            return "-inf"
        return v
    return obj


def canonical_json(obj: Any) -> str:
    """Key-sorted, whitespace-free serialization used for hashing."""
    return json.dumps(encode_floats(obj), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def config_hash(obj: Any) -> str:
    """SHA-256 of the canonical serialization, as a hex digest."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


# -- structural checks --------------------------------------------------------
#
# One set of checks serves both the library parsers below and
# :func:`check_config`, which the command line runs on the whole config
# before any subcommand looks at it.  Errors name the offending field as
# ``config: <field>: <reason>``.


def _invalid(field: str, reason: str) -> ConfigError:
    return ConfigError(f"config: {field}: {reason}")


def _check_keys(obj: Any, field: str, allowed, required=()) -> None:
    if not isinstance(obj, Mapping):
        raise _invalid(field, "must be an object")
    # each loop raises on its first key, in sorted order
    for key in sorted(set(required) - set(obj)):
        raise _invalid(f"{field}.{key}", "required field missing")
    for key in sorted(set(obj) - set(allowed)):
        raise _invalid(f"{field}.{key}", "unknown key")


def _is_number(value: Any) -> bool:
    """A JSON number that converts to a float; a bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def _check_number(value: Any, field: str, positive: bool = False) -> None:
    if not (_is_number(value) and math.isfinite(value)):
        raise _invalid(field, f"must be a finite number, got {value!r}")
    if positive and not value > 0:
        raise _invalid(field, f"must be > 0, got {value!r}")


def _check_int(value: Any, field: str, lo: int, hi: int | None = None) -> None:
    # JSON integers only: a float such as 4.0 or a bool is refused.
    if isinstance(value, bool) or not isinstance(value, int):
        raise _invalid(field, f"must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise _invalid(field, f"must be {bound}, got {value}")


def _check_coefficient(obj: Any, field: str) -> None:
    _check_keys(obj, field, ("preset", "params"), required=("preset",))
    preset = obj["preset"]
    if not isinstance(preset, str) or preset not in PRESETS:
        raise UnknownPreset(
            f"config: {field}.preset: unknown coefficient preset "
            f"{preset!r}; catalog: {', '.join(PRESETS)}")
    required, optional = PRESETS[preset]
    params = obj.get("params", {})
    _check_keys(params, f"{field}.params", required | optional, required)
    if preset == "custom-tabulated":
        _check_table(params, f"{field}.params")
    else:
        for key, value in params.items():
            if not _is_number(value):
                raise _invalid(f"{field}.params.{key}", "must be a number")


def _check_table(params: Mapping[str, Any], field: str) -> None:
    """The arrays of a ``custom-tabulated`` coefficient: lists of finite
    numbers, one per node, over at least 4 strictly increasing nodes."""
    nodes = params["nodes"]
    _check_list(nodes, f"{field}.nodes", _check_number)
    if len(nodes) < 4 or any(b <= a for a, b in zip(nodes, nodes[1:])):
        raise _invalid(f"{field}.nodes",
                       "must be at least 4 numbers that increase strictly")
    for key, value in params.items():
        _check_list(value, f"{field}.{key}", _check_number, len(nodes))


_PROBLEM_KEYS = ("x0", "alpha", "drift", "diffusion", "horizon")


def _check_problem(obj: Any, field: str = "problem") -> None:
    _check_keys(obj, field, _PROBLEM_KEYS, required=_PROBLEM_KEYS)
    _check_number(obj["x0"], f"{field}.x0")
    _check_number(obj["alpha"], f"{field}.alpha")
    _check_number(obj["horizon"], f"{field}.horizon", positive=True)
    _check_coefficient(obj["drift"], f"{field}.drift")
    _check_coefficient(obj["diffusion"], f"{field}.diffusion")


def _check_grid(obj: Any, field: str = "grid") -> None:
    _check_keys(obj, field, ("n_steps",), required=("n_steps",))
    _check_int(obj["n_steps"], f"{field}.n_steps", 1)


def _check_transform(obj: Any, field: str) -> None:
    _check_keys(obj, field, ("n_nodes", "domain"))
    if "n_nodes" in obj:
        _check_int(obj["n_nodes"], f"{field}.n_nodes", 5)
    if "domain" in obj:
        _check_list(obj["domain"], f"{field}.domain", _check_number, length=2)


def _check_list(value: Any, field: str, check_item,
                length: int | None = None) -> None:
    if not isinstance(value, list) or length not in (None, len(value)):
        raise _invalid(field, "must be a list" if length is None
                       else f"must be a list of {length} items")
    for i, item in enumerate(value):
        check_item(item, f"{field}[{i}]")


def _check_string(value: Any, field: str, choices=None) -> None:
    if not isinstance(value, str):
        raise _invalid(field, f"must be a string, got {value!r}")
    if choices is not None and value not in choices:
        raise _invalid(field, f"must be one of {list(choices)}, got {value!r}")


# Every top-level config key and its check; any other key is an error.
_CONFIG_FIELDS = {
    "problem": _check_problem,
    "grid": _check_grid,
    "n_paths": lambda v, f: _check_int(v, f, 1),
    "seed": lambda v, f: _check_int(v, f, 0, 2**64 - 1),
    "t0": lambda v, f: _check_number(v, f, positive=True),
    "bandwidth": lambda v, f: _check_number(v, f, positive=True),
    "n_grid": lambda v, f: _check_int(v, f, 8),
    "transform": _check_transform,
    "suites": lambda v, f: _check_list(v, f, _check_string),
    "format": lambda v, f: _check_string(v, f, ("csv",)),
}


def check_config(config: Any) -> None:
    """Check the keys, types and ranges of a whole run config.

    Every block present is checked, whether or not the subcommand reads
    it; which fields a subcommand requires is left to the subcommand.
    Integer fields take JSON integers only.  Raises :class:`ConfigError`
    naming the first offending field.
    """
    if not isinstance(config, Mapping):
        raise ConfigError("config: must be an object")
    for key in sorted(set(config) - set(_CONFIG_FIELDS)):
        raise _invalid(key, "unknown key")
    for key, value in config.items():
        _CONFIG_FIELDS[key](value, key)


# -- coefficients -------------------------------------------------------------


def coefficient_to_json(coefficient: Coefficient) -> dict[str, Any]:
    """Serialize a coefficient to a plain dict."""
    return {"preset": coefficient.preset_id,
            "params": encode_floats(dict(coefficient.params))}


def _build_coefficient(obj: Mapping[str, Any]) -> Coefficient:
    """Build a coefficient from a dict that passed ``_check_coefficient``."""
    preset, params = obj["preset"], obj.get("params", {})
    if preset == "custom-tabulated":
        return Coefficient.tabulated(params["nodes"], params["values"])
    builder = getattr(Coefficient, preset)
    return builder(**{key: float(value) for key, value in params.items()})


def coefficient_from_json(obj: Any) -> Coefficient:
    """Rebuild a coefficient from :func:`coefficient_to_json` output."""
    _check_coefficient(obj, "coefficient")
    return _build_coefficient(obj)


# -- problem and grid ---------------------------------------------------------


def problem_to_json(problem: ProblemSpec) -> dict[str, Any]:
    return {"x0": problem.x0,
            "alpha": problem.alpha,
            "drift": coefficient_to_json(problem.drift),
            "diffusion": coefficient_to_json(problem.diffusion),
            "horizon": problem.horizon}


def problem_from_json(obj: Any) -> ProblemSpec:
    _check_problem(obj)
    return ProblemSpec(x0=float(obj["x0"]),
                       alpha=float(obj["alpha"]),
                       drift=_build_coefficient(obj["drift"]),
                       diffusion=_build_coefficient(obj["diffusion"]),
                       horizon=float(obj["horizon"]))


def grid_from_json(obj: Any, horizon: float) -> GridSpec:
    """Build the :class:`GridSpec` of a config's ``grid`` block on the
    problem's ``horizon``, the one place a config states it."""
    _check_grid(obj)
    return GridSpec(n_steps=obj["n_steps"], horizon=horizon)


# -- artifact writers ---------------------------------------------------------


def read_json(path: str | Path) -> Any:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def write_json(path: str | Path, payload: Mapping[str, Any], *,
               meta: Mapping[str, Any] | None = None) -> None:
    """Write a JSON report; ``meta`` becomes a leading ``meta`` block.

    The report is serialized before the file is opened, so a payload that
    cannot be written (a NaN, say) leaves ``path`` as it was.
    """
    doc: dict[str, Any] = {}
    if meta is not None:
        doc["meta"] = dict(meta)
    doc.update(payload)
    text = json.dumps(encode_floats(doc), indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")


# Rows formatted per block.  A block's text is built in one reused row
# buffer of zero-padded cell slots (under 100 bytes a row for the four
# columns of ``derivative.csv``), so with the formatter's arrays and the
# block's text a block of 4096 rows holds about 1.5 MB.  Larger blocks
# barely save time and raise peak memory.
_CSV_BLOCK_ROWS = 4096
# Characters that would make a header cell need CSV quoting.
_CSV_SPECIAL = frozenset(',"\r\n')
# Bytes of the longest ``%.17g`` text of a double, "-2.2250738585072014e-308".
_CELL = 24
# 2**27 + 1: Veltkamp's constant, which splits a double into two halves of
# at most 26 significant bits each.
_SPLIT = 134217729.0


@functools.cache
def _float_tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of :func:`_float_cells`, built on first use.

    * the ASCII digits of every 4-digit group 0000..9999, one uint32 each;
    * the trailing zero digits of every group (4 for 0000);
    * ``10**k`` for ``k`` in 0..22, all exact doubles, and its two
      Veltkamp halves;
    * the cell layouts, one row of ``_CELL`` bytes per code
      ``((E + 4) * 17 + n_sig - 1) * 2 + negative`` of a value
      ``d_0.d_1d_2... * 10**E`` with ``n_sig`` significant digits.  A
      cell holds the sign at byte 0, the ``0.`` and zeros of a value
      below 1 at bytes 1..5, integer digit ``d_j`` (``j <= E``) at byte
      ``6 + j``, the decimal point at ``7 + E`` and fraction digit
      ``d_j`` at ``7 + j``: ``chars`` holds the fixed characters,
      ``whole`` and ``frac`` mask the integer and the fraction digits.
    """
    text = bytes(chain.from_iterable(product(b"0123456789", repeat=4)))
    digits = np.frombuffer(text, np.uint32)
    zeros = np.frombuffer(bytes(4 - len(text[i:i + 4].rstrip(b"0"))
                                for i in range(0, len(text), 4)), np.uint8)
    pow10 = np.array([float(10**k) for k in range(23)])
    big = pow10 * _SPLIT
    pow_hi = big - (big - pow10)
    chars, whole, frac = bytearray(), bytearray(), bytearray()
    for exp10 in range(-4, 17):
        for n_sig in range(1, 18):
            for sign in b"\0-":
                row = bytearray(_CELL)
                row[0] = sign
                if exp10 < 0:
                    row[1:2 - exp10] = b"0.000"[:1 - exp10]
                elif n_sig > exp10 + 1:
                    row[7 + exp10] = ord(".")
                chars += row
                row = bytearray(_CELL)
                row[6:7 + exp10] = b"\xff" * (exp10 + 1)
                whole += row
                row = bytearray(_CELL)
                first = max(exp10 + 1, 0)
                row[7 + first:7 + n_sig] = b"\xff" * (n_sig - first)
                frac += row
    return (digits, zeros, pow10, pow_hi, pow10 - pow_hi,
            *(np.frombuffer(t, np.uint8).reshape(-1, _CELL)
              for t in (chars, whole, frac)))


def _scaled(a: np.ndarray, k: np.ndarray):
    """``(p, e, step)``: ``a * 10**k == p + e`` exactly, by Dekker's
    product of the Veltkamp halves of both factors, and ``step`` the move
    of ``k`` (+1, -1 or 0) towards ``1e16 <= p + e < 1e17``."""
    _, _, pow10, pow_hi, pow_lo = _float_tables()[:5]
    p = a * np.take(pow10, k)
    big = a * _SPLIT
    a_hi = big - (big - a)
    a_lo = a - a_hi
    b_hi, b_lo = np.take(pow_hi, k), np.take(pow_lo, k)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    # p + e < 1e16 exactly when (p - 1e16) + e < 0: |e| is at most half
    # an ulp of p, which is smaller than any nonzero p - 1e16; so too at
    # 1e17
    low = (p - 1e16) + e < 0.0
    high = (p - 1e17) + e >= 0.0
    return p, e, low.view(np.int8) - high.view(np.int8)


def _split(v: np.ndarray, unit: int) -> tuple[np.ndarray, np.ndarray]:
    """``divmod(v, unit)`` of a non-negative integer array."""
    q = v // unit
    return q, v - q * unit


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` of every double ``v`` of the 1-D array ``x``, as
    an ``(x.size, _CELL)`` uint8 array of ASCII text padded with zero
    bytes, which may sit anywhere in a cell.

    The fast path covers zeros and finite ``1e-4 <= |v| < 1e17``, where
    ``%.17g`` writes fixed notation.  With ``E = floor(log10|v|)`` and
    ``k = 16 - E``, ``k`` lies in 0..20, so ``10**k`` is an exact double
    and Dekker's product gives ``|v| * 10**k = p + e`` exactly.
    ``log10`` can miss ``E`` by one next to a power of ten; an exact test
    on ``(p, e)`` then moves ``k`` by one, and a cell that still lies
    outside ``[1e16, 1e17)`` takes the fallback.  Inside it ``p`` is an
    even integer (doubles from 2**53 up are), so ``D = p + rint(e)``,
    with ``rint`` rounding half to even, is ``|v| * 10**k`` correctly
    rounded to 17 digits, exactly as ``%.17g`` rounds.  Then the cell is
    a fixed layout of the digits of ``D``, chosen by ``E``, the number
    of digits left once trailing zeros are dropped, and the sign bit (so
    ``-0.0`` reads ``-0``).  Every other cell (NaN, infinities,
    subnormals, ``|v| < 1e-4``, ``|v| >= 1e17`` and a ``D`` that carries
    to ``10**17``) is ``'%.17g' % v`` itself.
    """
    digits, zeros, _, _, _, chars, whole, frac = _float_tables()
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)     # the other cells are filled in last
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    np.maximum(k, 0, out=k)
    p, e, step = _scaled(a, k)
    moved = np.flatnonzero(step)
    if moved.size:
        k[moved] += step[moved]
        p[moved], e[moved], step[moved] = _scaled(a[moved], k[moved])
        fast[moved[step[moved] != 0]] = False
    sig = p.astype(np.int64) + np.rint(e).astype(np.int64)
    fast &= sig < 10**17
    exp10 = 16 - k
    exp10[~fast] = 0               # zeros, and a valid layout for the rest
    sig[zero] = 0
    # D as five 4-digit groups, the first one digit, and their text at
    # bytes 7..23 of each 24-byte row: digit j of D at byte 7 + j
    groups = np.zeros((x.size, 6), np.intp)
    groups[:, 1], rest = _split(sig, 10**16)
    high, low = _split(rest, 10**8)
    groups[:, 2], groups[:, 3] = _split(high, 10**4)
    groups[:, 4], groups[:, 5] = _split(low, 10**4)
    text = np.take(digits, groups).view(np.uint8).ravel()
    n_zeros = np.take(zeros, groups[:, 5])
    all_zero = n_zeros == 4
    for g in (4, 3, 2):
        n_zeros += all_zero * np.take(zeros, groups[:, g])
        all_zero &= groups[:, g] == 0
    # the layout code, with n_sig = 17 - n_zeros
    code = 34 * exp10 + 168 - 2 * n_zeros + np.signbit(x)
    out = np.take(chars, code, axis=0)
    flat = out.ravel()
    # text has digit j at byte 7 + j: where fraction digits sit, and one
    # byte to the right of where integer digits sit
    mask = np.take(frac, code, axis=0).ravel()
    mask &= text
    flat |= mask
    mask = np.take(whole, code, axis=0).ravel()
    mask[:-1] &= text[1:]
    flat |= mask
    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        cells = np.array(["%.17g" % v for v in x[slow].tolist()],
                         f"S{_CELL}")
        out[slow] = cells.view(np.uint8).reshape(-1, _CELL)
    return out


def _width(dtype: np.dtype) -> int:
    """Bytes of the longest cell of a column of ``dtype``."""
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        return max(len(str(info.min)), len(str(info.max)))
    return _CELL


def _cells(values: np.ndarray) -> np.ndarray:
    """Text of the cells of ``values``, in C order, as a zero-padded
    ``(values.size, _width(values.dtype))`` uint8 array: integers as
    ``%d``, bool and float as ``%.17g`` of their double value."""
    width = _width(values.dtype)
    if values.dtype.kind in "iu":
        return values.astype(f"S{width}").view(np.uint8).reshape(-1, width)
    return _float_cells(np.ascontiguousarray(values, np.float64).ravel())


def _row_buffer(n_rows: int, widths) -> tuple[np.ndarray, list[slice]]:
    """A zeroed ``(n_rows, width)`` uint8 buffer of rows with one slot per
    cell width, each followed by a comma or, for the last, the newline;
    returns the buffer and the slots' column slices."""
    ends = np.cumsum([w + 1 for w in widths])
    buf = np.zeros((n_rows, ends[-1]), np.uint8)
    buf[:, ends - 1] = ord(",")
    buf[:, -1] = ord("\n")
    return buf, [slice(end - w - 1, end - 1) for end, w in zip(ends, widths)]


def _text(rows: np.ndarray) -> str:
    """The text of a block of row-buffer rows: its bytes less the padding."""
    return rows[rows != 0].tobytes().decode("ascii")


@contextmanager
def open_csv(path: str | Path, names, *,
             meta: Mapping[str, Any] | None = None) -> Iterator[TextIO]:
    """Open ``path`` for a table with columns ``names``: write the
    ``# key = value`` metadata comment lines (a ``meta`` entry whose value
    is None is left out) and the header, then yield the text file for the
    caller to append row blocks to, in order.  If the caller raises, the
    partly written file is removed.

    Column names must be non-empty strings that need no CSV quoting (no
    comma, double quote, carriage return or newline).
    """
    names = list(names)
    if not names:
        raise ConfigError("a CSV table needs at least one column")
    for name in names:
        if not isinstance(name, str) or not name or _CSV_SPECIAL & set(name):
            raise ConfigError(f"CSV column name {name!r} must be a non-empty "
                              f"string without , \" or line breaks")
    with open(path, "w", newline="", encoding="utf-8") as f:
        try:
            for key, value in (meta or {}).items():
                if value is not None:
                    f.write(f"# {key} = {value}\n")
            f.write(",".join(names) + "\n")
            yield f
        except BaseException:
            # a run that fails while streaming leaves no partial table
            f.close()
            Path(path).unlink(missing_ok=True)
            raise


def path_major_blocks(first_path: int, labels: np.ndarray,
                      *fields: np.ndarray) -> Iterator[str]:
    """Text of a path-major table, in blocks of at most
    ``_CSV_BLOCK_ROWS`` rows.

    Each ``field`` is a ``(P, m)`` array (or view) with one row per path
    and ``labels`` holds the ``m`` values every path shares, such as grid
    times.  Row ``(p, k)`` reads ``first_path + p, labels[k],
    field[p, k]...``, formatted as :func:`write_csv` formats the same
    columns.  The labels are formatted once and each path index once, so
    only the field cells are formatted per row.
    """
    labels = np.asarray(labels)
    m, n_paths = labels.shape[0], fields[0].shape[0]
    paths = _cells(np.arange(first_path, first_path + n_paths))
    texts = _cells(labels)
    per_block = max(1, _CSV_BLOCK_ROWS // max(m, 1))
    buf, (path_slot, label_slot, *slots) = _row_buffer(
        min(per_block, n_paths) * min(m, _CSV_BLOCK_ROWS),
        [paths.shape[1], texts.shape[1], *(_width(f.dtype) for f in fields)])
    for p0 in range(0, n_paths, per_block):
        p1 = min(p0 + per_block, n_paths)
        for lo in range(0, m, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, m)
            rows = buf[:(p1 - p0) * (hi - lo)]
            grid = rows.reshape(p1 - p0, hi - lo, -1)
            grid[:, :, path_slot] = paths[p0:p1, None]
            grid[:, :, label_slot] = texts[None, lo:hi]
            for f, slot in zip(fields, slots):
                rows[:, slot] = _cells(f[p0:p1, lo:hi])
            yield _text(rows)


def write_csv(path: str | Path, columns: Mapping[str, np.ndarray], *,
              meta: Mapping[str, Any] | None = None) -> None:
    """Write named columns under the header and metadata of
    :func:`open_csv`.

    All columns must share one length and have a bool, integer or float
    dtype.  Integer-typed columns are written as ``%d``, everything else
    as ``%.17g`` of its double value (by :func:`_float_cells`), which
    round-trips any IEEE double exactly.

    Rows are formatted in blocks of ``_CSV_BLOCK_ROWS`` into one reused
    row buffer, with one write per block, so the memory the writer adds
    is bounded by the block size and does not grow with the number of
    rows.
    """
    names = list(columns)
    arrays = [np.asarray(columns[name]) for name in names]
    if any(a.ndim != 1 for a in arrays) \
            or len({a.shape[0] for a in arrays}) > 1:
        raise ConfigError("write_csv columns must be 1-D with equal length")
    for name, a in zip(names, arrays):
        if a.dtype.kind not in "biuf":
            raise ConfigError(f"write_csv column {name!r} has non-numeric "
                              f"dtype {a.dtype}")
    with open_csv(path, names, meta=meta) as f:
        n = arrays[0].shape[0]
        buf, slots = _row_buffer(min(n, _CSV_BLOCK_ROWS),
                                 [_width(a.dtype) for a in arrays])
        for lo in range(0, n, _CSV_BLOCK_ROWS):
            rows = buf[:min(n - lo, _CSV_BLOCK_ROWS)]
            for a, slot in zip(arrays, slots):
                rows[:, slot] = _cells(a[lo:lo + len(rows)])
            f.write(_text(rows))
