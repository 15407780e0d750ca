"""Path simulation for diffusions with running-supremum feedback.

The discrete scheme freezes coefficients at the left endpoint and resolves,
at every step, the scalar fixed point

    x = A + alpha * max(M_prev, x)

where ``A`` carries the initial value plus the accumulated drift and noise
increments, and ``M_prev`` is the running maximum so far.  For ``alpha < 1``
that equation has exactly one solution, split into a no-new-maximum branch
``x = A + alpha * M_prev`` and a new-maximum branch ``x = A / (1 - alpha)``;
ties land on the no-new-maximum branch.

Increment accumulation uses compensated (Kahan) summation so that the exact
additive identity against :func:`explicit_additive_path` holds to 1e-12 even
on long grids.  The batched engine works on time-major arrays: all paths
advance one step per iteration, which keeps every numpy operation on
contiguous memory.  Per-path values are bitwise independent of how paths are
grouped into batches, which is what makes worker-count-independent output
possible at the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridMismatch, NonFinite
from .model import GridSpec, ValidatedSpec, validate

__all__ = [
    "PathBatch",
    "TerminalSample",
    "PicardResult",
    "euler_path",
    "explicit_additive_path",
    "picard_solve",
    "simulate_increments",
    "simulate_batch",
    "simulate_terminal",
    "generate_increments",
    "kahan_cumsum",
    "max_bookkeeping",
]

_U64 = np.uint64
_MAX_U64 = 2**64
_NOISE_PATHS = 512
# paths per transposed write of a noise block into the time-major output
_NOISE_TILE = 64
# simulate_terminal draws and integrates this many paths per increment block
_TERMINAL_CHUNK_PATHS = 8192


def _check_u64(name: str, value: int) -> int:
    if not isinstance(value, (int, np.integer)) or not 0 <= int(value) < _MAX_U64:
        raise ConfigError(f"{name} must be an unsigned 64-bit integer")
    return int(value)


def generate_increments(seed: int, path_index: int, n_steps: int,
                        dt: float) -> np.ndarray:
    """Brownian increments for one path from a counter-based generator.

    The stream is keyed by ``(seed, path_index)``, so regenerating with the
    same pair yields bitwise-identical increments no matter how paths are
    grouped, ordered, or distributed over workers.
    """
    key = np.array([_check_u64("seed", seed),
                    _check_u64("path_index", path_index)], dtype=_U64)
    gen = np.random.Generator(np.random.Philox(key=key))
    db = gen.standard_normal(n_steps)
    db *= math.sqrt(dt)
    return db


def _generate_block(seed: int, path_offset: int, n_paths: int, n_steps: int,
                    dt: float) -> np.ndarray:
    """Increment block for paths ``path_offset .. path_offset+n_paths-1``,
    returned time-major with shape ``(n_steps, n_paths)``.

    One Philox bit generator serves the whole block: before each path its
    state is reset to the fresh state of key ``(seed, path_index)``, with
    counter, buffer and spare word cleared, which is exactly the state
    :func:`generate_increments` constructs.  Paths are drawn
    ``_NOISE_PATHS`` at a time into one reused path-major buffer, scaled,
    and written into the output in ``_NOISE_TILE``-path tiles, so no second
    full-size copy is held; column ``p`` is bitwise
    :func:`generate_increments` for path ``path_offset + p``.
    """
    seed = _check_u64("seed", seed)
    path_offset = _check_u64("path_index", path_offset)
    _check_u64("path_index", path_offset + n_paths - 1)
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=_U64))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    key = fresh["state"]["key"]
    out = np.empty((n_steps, n_paths))
    buf = np.empty((min(n_paths, _NOISE_PATHS), n_steps))
    scale = math.sqrt(dt)
    for lo in range(0, n_paths, _NOISE_PATHS):
        block = buf[:min(_NOISE_PATHS, n_paths - lo)]
        for i, row in enumerate(block):
            key[1] = path_offset + lo + i
            bitgen.state = fresh
            gen.standard_normal(out=row)
        block *= scale
        for t in range(0, block.shape[0], _NOISE_TILE):
            tile = block[t:t + _NOISE_TILE]
            out[:, lo + t:lo + t + tile.shape[0]] = tile.T
    return out


# -- batched Euler engine -----------------------------------------------------


def _euler_core(vspec: ValidatedSpec, dt: float, db_tm: np.ndarray,
                record: bool, path_offset: int):
    """Advance all columns of ``db_tm`` (time-major ``(n, P)``) through the
    left-frozen scheme.  Returns time-major state arrays when ``record``,
    otherwise only terminal quantities.  A non-finite state is reported
    for path ``path_offset + column``."""
    n, P = db_tm.shape
    alpha = vspec.alpha
    one_minus = 1.0 - alpha
    b, s = vspec.drift, vspec.diffusion
    b_const, s_const = b.constant_value, s.constant_value

    x = np.full(P, vspec.x0 / one_minus)
    M = x.copy()
    A = np.full(P, float(vspec.x0))      # compensated accumulator
    comp = np.zeros(P)
    tau = np.zeros(P, dtype=np.int64)

    if record:
        x_tm = np.empty((n + 1, P))
        M_tm = np.empty((n + 1, P))
        new_tm = np.zeros((n + 1, P), dtype=bool)
        x_tm[0] = x
        M_tm[0] = M

    # Overflow is not a warning condition here: divergence is detected on
    # the finished state and reported as NonFinite.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            bx = b_const if b_const is not None else b(x, 0)
            sx = s_const if s_const is not None else s(x, 0)
            incr = bx * dt + sx * db_tm[k]
            # Kahan update of A; the combined increment is one addend so the
            # accumulation order is part of the reproducibility contract.
            y = incr - comp
            t = A + y
            comp = (t - A) - y
            A = t
            keep = A + alpha * M
            new = keep > M
            x = np.where(new, A / one_minus, keep)
            M = np.where(new, x, M)
            if record:
                x_tm[k + 1] = x
                M_tm[k + 1] = M
                new_tm[k + 1] = new
            else:
                tau[new] = k + 1

    if record:
        bad = ~np.isfinite(x_tm)
        if bad.any():
            kk, pp = np.argwhere(bad)[0]
            pp += path_offset
            raise NonFinite(
                f"non-finite state at step {kk} of path {pp}",
                step=int(kk), path_index=int(pp))
        return x_tm, M_tm, new_tm
    bad = ~(np.isfinite(x) & np.isfinite(M))
    if bad.any():
        pp = path_offset + int(np.argwhere(bad)[0][0])
        raise NonFinite(f"non-finite terminal state on path {pp}",
                        path_index=pp)
    return x, M, tau


def max_bookkeeping(x: np.ndarray | None = None, *,
                    new: np.ndarray | None = None):
    """Running-maximum bookkeeping along the time axis (axis 0).

    Give exactly one source, shaped ``(n+1,)`` or time-major ``(n+1, P)``:

    - ``x``, path values: step ``k`` sets a new maximum when ``x[k]``
      strictly exceeds the running maximum before it;
    - ``new``, the per-step new-maximum flags themselves.

    Returns ``(running_max, new, argmax)`` with first-attainment argmax
    indices; ``running_max`` is None unless ``x`` was given.  Step 0 never
    sets a new maximum.
    """
    if (x is None) == (new is None):
        raise ConfigError("max_bookkeeping takes exactly one of x, new")
    running_max = None
    if x is not None:
        running_max = np.maximum.accumulate(x, axis=0)
        new = np.zeros(x.shape, dtype=bool)
        new[1:] = x[1:] > running_max[:-1]
    steps = np.arange(new.shape[0], dtype=np.int64).reshape(
        (-1,) + (1,) * (new.ndim - 1))
    argmax = np.where(new, steps, 0)
    np.maximum.accumulate(argmax, axis=0, out=argmax)
    return running_max, new, argmax


@dataclass(frozen=True)
class PathBatch:
    """A block of simulated paths stored time-major.

    ``x[k]`` is the vector of path values at time index ``k``; this layout
    keeps the per-step propagation of path and derivative states on
    contiguous memory.  Column ``i`` is path ``path_offset + i``; a single
    path is a batch of one column.
    """

    x: np.ndarray          # (n_steps+1, n_paths)
    running_max: np.ndarray
    new_max: np.ndarray    # bool, new_max[k] = path set a new maximum at k
    db: np.ndarray         # (n_steps, n_paths)
    seed: int | None = None
    path_offset: int = 0

    @property
    def n_paths(self) -> int:
        return self.x.shape[1]

    @property
    def n_steps(self) -> int:
        return self.db.shape[0]

    def argmax_idx(self) -> np.ndarray:
        """Time-major first-attainment argmax indices, shape (n+1, P)."""
        return max_bookkeeping(new=self.new_max)[2]

    def final_argmax_idx(self) -> np.ndarray:
        # a copy, so the (n+1, P) index array is freed on return
        return self.argmax_idx()[-1].copy()


@dataclass(frozen=True)
class TerminalSample:
    """Terminal-time summary of a (possibly large) simulated ensemble."""

    x_final: np.ndarray
    running_max_final: np.ndarray
    argmax_idx_final: np.ndarray
    seed: int
    path_offset: int = 0


def simulate_increments(spec, grid: GridSpec, db: np.ndarray, *,
                        record: bool = True, seed: int | None = None,
                        path_offset: int = 0):
    """Advance a caller-supplied increment block through the scheme.

    ``db`` is time-major with shape ``(n_steps, n_paths)``: row ``k`` holds
    the increments of step ``k`` for every path.  Column ``i`` comes out
    bitwise equal to the same column simulated alone, whatever the other
    columns hold.  With ``record`` the result is a :class:`PathBatch`
    holding whole trajectories (and ``db`` itself, not a copy); otherwise a
    :class:`TerminalSample` of terminal quantities.  ``seed`` and
    ``path_offset`` only label the result: they record which keyed stream
    the columns came from, ``None`` for synthetic blocks.  A
    :class:`NonFinite` error names path ``path_offset + i`` for column
    ``i``.

    The state starts at the time-zero fixed point ``x0 / (1 - alpha)``.
    With ``alpha = 0`` the scheme reduces bitwise to classical
    Euler-Maruyama with compensated increment accumulation.
    """
    vspec = validate(spec)
    db_tm = np.ascontiguousarray(db, dtype=float)
    if db_tm.ndim != 2 or db_tm.shape[0] != grid.n_steps \
            or db_tm.shape[1] < 1:
        raise GridMismatch(
            f"increment block has shape {db_tm.shape}, grid expects "
            f"({grid.n_steps}, n_paths >= 1)")
    if record:
        x_tm, M_tm, new_tm = _euler_core(vspec, grid.dt, db_tm, True,
                                         path_offset)
        return PathBatch(x=x_tm, running_max=M_tm, new_max=new_tm, db=db_tm,
                         seed=seed, path_offset=path_offset)
    x, M, tau = _euler_core(vspec, grid.dt, db_tm, False, path_offset)
    return TerminalSample(x, M, tau, seed=seed, path_offset=path_offset)


# No package code calls this: the benchmark's tracer wraps it by name
# (``integrate.euler_path`` in bench/spans.py), so it stays until the
# benchmark drops that span.
def euler_path(spec, grid: GridSpec, db: np.ndarray) -> PathBatch:
    """One path, increments ``db`` of shape ``(n_steps,)``, as a one-column
    :class:`PathBatch` of :func:`simulate_increments`."""
    return simulate_increments(spec, grid, np.asarray(db, float)[:, None])


def simulate_batch(spec, grid: GridSpec, n_paths: int, seed: int,
                   path_offset: int = 0) -> PathBatch:
    """Simulate ``n_paths`` keyed paths and keep full trajectories."""
    vspec = validate(spec)
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1")
    db_tm = _generate_block(seed, path_offset, n_paths, grid.n_steps, grid.dt)
    return simulate_increments(vspec, grid, db_tm, seed=seed,
                               path_offset=path_offset)


def simulate_terminal(spec, grid: GridSpec, n_paths: int, seed: int,
                      path_offset: int = 0) -> TerminalSample:
    """Simulate keyed paths keeping only terminal-time quantities.

    Memory stays bounded by one increment block of
    ``_TERMINAL_CHUNK_PATHS`` paths, so this scales to ensemble sizes used
    for density estimation.
    """
    vspec = validate(spec)
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1")
    parts = []
    for lo in range(0, n_paths, _TERMINAL_CHUNK_PATHS):
        hi = min(lo + _TERMINAL_CHUNK_PATHS, n_paths)
        db_tm = _generate_block(seed, path_offset + lo, hi - lo,
                                grid.n_steps, grid.dt)
        parts.append(simulate_increments(vspec, grid, db_tm, record=False,
                                         path_offset=path_offset + lo))
        del db_tm        # freed before the next block is drawn
    return TerminalSample(
        np.concatenate([p.x_final for p in parts]),
        np.concatenate([p.running_max_final for p in parts]),
        np.concatenate([p.argmax_idx_final for p in parts]),
        seed=seed, path_offset=path_offset)


# -- explicit solution in the driftless additive case -------------------------


def kahan_cumsum(increments: np.ndarray) -> np.ndarray:
    """Compensated cumulative sum with a leading zero, along axis 0.

    ``out[k] = sum(increments[:k])`` accumulated exactly like the Euler
    engine accumulates its increments, so both sides of the additive
    identity see the same partials.  ``increments`` is ``(n,)`` or
    time-major ``(n, P)``; each column of a 2-D input is summed
    independently and comes out bitwise equal to its 1-D sum.
    """
    inc = np.asarray(increments, float)
    out = np.empty((inc.shape[0] + 1,) + inc.shape[1:])
    out[0] = 0.0
    s = np.zeros(inc.shape[1:])
    c = np.zeros(inc.shape[1:])
    for k in range(inc.shape[0]):
        y = inc[k] - c
        t = s + y
        c = (t - s) - y
        s = t
        out[k + 1] = s
    return out


def explicit_additive_path(x0: float, alpha: float, sigma_const: float,
                           db: np.ndarray) -> np.ndarray:
    """Closed-form path values for zero drift and constant diffusion.

    ``db`` holds increments, ``(n,)`` or time-major ``(n, P)``, and the
    result has one more row.  With ``Z_k = sigma * B_k`` the resolved
    solution is

        x[k] = x0/(1-alpha) + Z_k + (alpha/(1-alpha)) * max_{j<=k} Z_j,

    which satisfies the per-step implicit equation of the Euler scheme
    exactly; the two constructions agree to floating-point roundoff on any
    noise.  (Taking the running maximum of ``Z`` rather than of ``B`` keeps
    the identity exact for negative ``sigma`` as well.)
    """
    if not alpha < 1.0:
        raise ConfigError("the additive closed form requires alpha < 1")
    z = kahan_cumsum(sigma_const * np.asarray(db, float))
    s = np.maximum.accumulate(z, axis=0)
    beta = alpha / (1.0 - alpha)
    return x0 / (1.0 - alpha) + z + beta * s


# -- Picard iteration ---------------------------------------------------------


@dataclass(frozen=True)
class PicardResult:
    """Outcome of :func:`picard_solve` for a block of ``P`` paths.

    ``paths`` holds the last iterate of every column.  ``n_sweeps[p]``
    counts the sweeps column ``p`` took, and ``sup_diffs[m, p]`` is the
    uniform distance between its iterates ``X^{m+1}`` and ``X^m``; rows
    past a column's last sweep are NaN.  ``n_iterations`` is the total
    sweep count.  A column that misses the tolerance within the iteration
    budget still returns its best iterate, with ``converged[p] = False``
    rather than an error; callers that need a hard failure can check the
    flags.
    """

    paths: PathBatch
    sup_diffs: np.ndarray      # (max sweeps, P)
    converged: np.ndarray      # bool, (P,)
    n_sweeps: np.ndarray       # int, (P,)
    n_iterations: int


def picard_solve(spec, grid: GridSpec, db: np.ndarray,
                 n_iter: int = 25, tol: float = 1e-10) -> PicardResult:
    """Solve the discrete dynamics by fixed-point iteration on whole paths.

    ``db`` is a time-major ``(n_steps, P)`` increment block.  Starting from
    the constant path ``X^0 = x0``, each sweep integrates the coefficients
    along the previous iterate,

        Z_k = sum_{j<k} [ b(X^n_j) dt + sigma(X^n_j) db_j ],

    and resolves the supremum feedback in closed form:

        X^{n+1}_k = x0/(1-alpha) + Z_k + (alpha/(1-alpha)) max_{j<=k} Z_j.

    The fixed point of this map is exactly the per-step Euler solution, so
    a converged iteration reproduces :func:`simulate_increments` on the
    same block.  A column stops sweeping once its gap is within ``tol``,
    so each column's iterates are those of a one-column solve.
    """
    vspec = validate(spec)
    db = np.asarray(db, float)
    if db.ndim != 2 or db.shape[0] != grid.n_steps or db.shape[1] < 1:
        raise GridMismatch(
            f"increment block has shape {db.shape}, grid expects "
            f"({grid.n_steps}, n_paths >= 1)")
    if n_iter < 1:
        raise ConfigError("n_iter must be >= 1")
    alpha, x0 = vspec.alpha, vspec.x0
    beta = alpha / (1.0 - alpha)
    c0 = x0 / (1.0 - alpha)
    b, s = vspec.drift, vspec.diffusion
    dt, P = grid.dt, db.shape[1]

    x = np.full((grid.n_steps + 1, P), float(x0))
    sup_diffs = np.full((n_iter, P), np.nan)
    n_sweeps = np.zeros(P, dtype=np.int64)
    converged = np.zeros(P, dtype=bool)
    live = np.arange(P)
    for m in range(n_iter):
        prev = x[:, live]
        left = prev[:-1]
        incr = b(left, 0) * dt + s(left, 0) * db[:, live]
        z = np.empty_like(prev)
        z[0] = 0.0
        np.cumsum(incr, axis=0, out=z[1:])
        x_new = c0 + z + beta * np.maximum.accumulate(z, axis=0)
        bad = ~np.all(np.isfinite(x_new), axis=0)
        if bad.any():
            raise NonFinite("non-finite Picard iterate",
                            path_index=int(live[bad][0]))
        gap = np.max(np.abs(x_new - prev), axis=0)
        x[:, live] = x_new
        sup_diffs[m, live] = gap
        n_sweeps[live] += 1
        done = gap <= tol
        converged[live[done]] = True
        live = live[~done]
        if live.size == 0:
            break

    running_max, new, _ = max_bookkeeping(x)
    paths = PathBatch(x=x, running_max=running_max, new_max=new, db=db)
    return PicardResult(paths=paths, sup_diffs=sup_diffs[:n_sweeps.max()],
                        converged=converged, n_sweeps=n_sweeps,
                        n_iterations=int(n_sweeps.sum()))
