"""Path simulation for diffusions with running-supremum feedback.

The discrete scheme freezes coefficients at the left endpoint and resolves,
at every step, the scalar fixed point

    x = A + alpha * max(M_prev, x)

where ``A = x0 + Z``, ``Z`` is the sum of the drift and noise increments
so far, and ``M_prev`` is the running maximum so far.  For ``alpha < 1``
that equation has exactly one solution, split into a no-new-maximum branch
``x = A + alpha * M_prev`` and a new-maximum branch ``x = A / (1 - alpha)``;
ties land on the no-new-maximum branch.  The engine records which branch
each step took as the new-maximum flags of a :class:`PathBatch`; they are
the package's only new-maximum bookkeeping.  :func:`picard_solve` returns
its final iterate's values alone.

The engine, :func:`explicit_additive_path` and :func:`picard_solve` share
one summation rule: ``Z`` is a plain running sum started at zero, and
``x0`` is added to it afterwards.  The batched engine works on time-major
arrays: all paths advance one step per iteration, which keeps every numpy
operation on contiguous memory.  Per-path values are bitwise independent of
how paths are grouped into batches, which is what makes
worker-count-independent output possible at the command line.
Coefficients enter through :meth:`~perturbsde.model.Coefficient.evaluator`,
so a structurally constant one is a float the step multiplies by, not an
array it builds.

Memory: a recorded :class:`PathBatch` of ``P`` paths over ``n`` steps
holds ``9 (n+1) P`` bytes (float values plus bool new-maximum flags); one
of :func:`simulate_increments` also keeps the caller's increment block.
:func:`simulate_batch` draws its keyed block into rows ``1..n`` of the
value array and integrates it in place, so a keyed batch stores no
increments: a counter-based stream is a pure function of its key, and
``PathBatch.db`` redraws the block bitwise on first read.  The running
maximum is derived from the values when asked for, and the step loop
itself allocates only ``(P,)`` vectors.  Without recording, a run returns
the ``(P,)`` terminal values and nothing else.  :func:`simulate_terminal`
holds one time window of increments, ``_TERMINAL_WINDOW_STEPS`` steps of
``_TERMINAL_CHUNK_PATHS`` paths (512 x 2048, 8 MiB), whatever the step
and path counts: each path's keyed stream pauses at the end of a window
and resumes at the start of the next, and the step loop carries its
state from one window to the next.  Keyed noise is drawn
``_NOISE_TILE`` paths at a time into a path-major staging tile, one
window long, and scaled into the time-major window by the transposing
write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, GridMismatch, NonFinite
from .model import GridSpec, ProblemSpec

__all__ = [
    "PathBatch",
    "PicardResult",
    "euler_path",
    "explicit_additive_path",
    "picard_solve",
    "simulate_increments",
    "simulate_batch",
    "simulate_terminal",
    "generate_increments",
]

_U64 = np.uint64
_MAX_U64 = 2**64
# paths drawn into the staging tile, then scaled into the time-major output
# by one transposed write
_NOISE_TILE = 64
# simulate_terminal integrates this many paths at a time, as wide vectors
# keep the step loop's per-call overhead small; 2048 holds half the window
# of 4096, and on density's input ran from 5 % faster to 7 % slower than it,
# by host phase (2 shared vCPUs) ...
_TERMINAL_CHUNK_PATHS = 2048
# ... over time windows of this many steps.  Shorter windows hold less but
# call each path's generator more often: on 100 000 x 2048 (2 shared
# vCPUs) 256 steps took about 11 % longer than 512, for 9 MB less.
_TERMINAL_WINDOW_STEPS = 512


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


def _check_paths(path_offset: int, n_paths: int) -> None:
    _check_u64("path_index", path_offset)
    _check_u64("path_index", path_offset + n_paths - 1)


class _KeyedNoise:
    """Keyed increments of ``n_steps`` steps, drawn one time window at a
    time for up to ``width`` paths.

    Path ``i`` draws from a Philox stream reset to the fresh state of key
    ``(seed, i)``, with counter, buffer and spare word cleared, which is
    exactly the state :func:`generate_increments` constructs.  When one
    window spans the grid, no stream outlives it and one shared generator
    serves every path, reset before each.  Otherwise each of the ``width``
    paths owns a generator (about 800 bytes, and slower to build than to
    reset), reset at the start of every chunk of paths: its stream pauses
    at the end of a window and resumes at the start of the next, so a
    path's windows join bitwise into its one stream.

    Paths are drawn ``_NOISE_TILE`` at a time into one reused path-major
    staging tile, which one transposed multiply by ``sqrt(dt)`` writes
    into the time-major window.
    """

    def __init__(self, seed: int, width: int, n_steps: int, dt: float,
                 window: int):
        key = np.array([_check_u64("seed", seed), 0], dtype=_U64)
        self.n_steps, self.window = n_steps, min(window, n_steps)
        self.shared = self.window == n_steps
        self.gens = [np.random.Generator(np.random.Philox(key=key))
                     for _ in range(1 if self.shared else width)]
        # the state setter takes lists faster than the arrays it returns
        fresh = self.gens[0].bit_generator.state
        fresh["state"] = {k: v.tolist() for k, v in fresh["state"].items()}
        fresh["buffer"] = fresh["buffer"].tolist()
        self.fresh = fresh
        self.scale = math.sqrt(dt)
        self.tile = np.empty(min(width, _NOISE_TILE) * self.window)

    def _reset(self, gen, path_index: int) -> None:
        self.fresh["state"]["key"][1] = path_index
        gen.bit_generator.state = self.fresh

    def windows(self, path_offset: int, n_paths: int, out: np.ndarray):
        """Yield the increments of paths ``path_offset ..
        path_offset+n_paths-1`` as time-major ``(w, n_paths)`` windows in
        time order, each a view of the flat buffer ``out`` (at least
        ``window * n_paths`` long) that the next one overwrites."""
        if not self.shared:
            for i, gen in enumerate(self.gens[:n_paths], path_offset):
                self._reset(gen, i)
        for t0 in range(0, self.n_steps, self.window):
            w = min(self.window, self.n_steps - t0)
            tm = out[:w * n_paths].reshape(w, n_paths)
            for lo in range(0, n_paths, _NOISE_TILE):
                m = min(_NOISE_TILE, n_paths - lo)
                tile = self.tile[:m * w].reshape(m, w)
                if self.shared:
                    gen = self.gens[0]
                    for i, row in enumerate(tile, path_offset + lo):
                        self._reset(gen, i)
                        gen.standard_normal(out=row)
                else:
                    for gen, row in zip(self.gens[lo:], tile):
                        gen.standard_normal(out=row)
                np.multiply(tile.T, self.scale, out=tm[:, lo:lo + m])
            yield tm


def _generate_block(seed: int, path_offset: int, n_paths: int, n_steps: int,
                    dt: float) -> np.ndarray:
    """Increment block for paths ``path_offset .. path_offset+n_paths-1``,
    returned time-major with shape ``(n_steps, n_paths)``: the one-window
    case of :class:`_KeyedNoise`, so column ``p`` is bitwise
    :func:`generate_increments` for path ``path_offset + p``.
    """
    # the block is allocated before the staging tile, which is freed on
    # return: the other order left the allocator holding about 1.4 MB more
    # on the benchmark's 1000-step derivative chunks, measured when the
    # tile held 512 paths
    out = np.empty(n_steps * n_paths)
    return _draw_block(seed, path_offset, n_paths, n_steps, dt, out)


def _draw_block(seed: int, path_offset: int, n_paths: int, n_steps: int,
                dt: float, out: np.ndarray) -> np.ndarray:
    """Draw the keyed block of :func:`_generate_block` into the flat
    buffer ``out``, ``n_steps * n_paths`` long, and return its time-major
    ``(n_steps, n_paths)`` view."""
    noise = _KeyedNoise(seed, n_paths, n_steps, dt, n_steps)
    _check_paths(path_offset, n_paths)
    (block,) = noise.windows(path_offset, n_paths, out)
    return block


# -- batched Euler engine -----------------------------------------------------


def _euler_core(spec: ProblemSpec, dt: float, tiles, n_paths: int,
                path_offset: int, record=None):
    """Advance ``n_paths`` columns through the left-frozen scheme, driven
    by ``tiles``: time-major ``(w, n_paths)`` increment arrays taken in
    time order, the state carried from one to the next.  Without
    ``record`` the terminal values are returned.  With it, a pair of
    time-major ``(n+1, n_paths)`` arrays of :func:`_recorded_arrays`, the
    path values and new-maximum flags are written into them, and ``tiles``
    may be the one view ``record[0][1:]`` holding the increments: step
    ``k`` reads ``db_k`` from row ``k+1`` before it writes ``x_{k+1}``
    there.  Each path's running maximum ``M`` and minimum ``lo`` bound its
    states and carry NaN, so one test after the loop raises
    :class:`NonFinite` for any non-finite state, recorded or not, naming
    path ``path_offset + column``: the lowest failing column, with
    ``record`` the lowest at the first step that holds one.

    Every step writes into buffers allocated before the loop: with
    ``record`` the state and flags go straight into their rows of the
    output, otherwise into one ``(P,)`` vector each.  The running maximum
    is ``max(M, x)``, so it equals ``maximum.accumulate`` of the recorded
    values by construction and is never stored.  A structurally constant
    diffusion of 1.0 skips its multiply, and one of drift ``+-0.0`` its
    add, where either pass would change no bit: ``Z`` starts at ``+0.0``
    and so is never ``-0.0``, whatever sign a zero increment has."""
    P = n_paths
    alpha = spec.alpha
    one_minus = 1.0 - alpha
    b, s = spec.drift.evaluator(0), spec.diffusion.evaluator(0)
    unit_sigma = spec.diffusion.constant_value == 1.0
    zero_drift = spec.drift.constant_value == 0.0

    if record:
        x_tm, new_tm = record
        x = x_tm[0]
        x[:] = spec.x0 / one_minus
    else:
        x = np.full(P, spec.x0 / one_minus)
        new = np.empty(P, dtype=bool)
    M, lo = x.copy(), x.copy()
    Z = np.zeros(P)                      # the increments summed from zero
    A, incr = np.empty(P), np.empty(P)
    k = 0

    # Overflow is not a warning condition here: divergence is detected from
    # lo and M after the loop and reported as NonFinite.
    with np.errstate(over="ignore", invalid="ignore"):
        for tile in tiles:
            for inc in tile:
                # inc = b(x) dt + s(x) db_k; the sum is formed in the
                # other order, which IEEE addition leaves bitwise unchanged
                if not unit_sigma:
                    inc = np.multiply(s(x), inc, out=incr)
                if not zero_drift:
                    inc = np.add(inc, b(x) * dt, out=incr)
                Z += inc
                np.add(Z, spec.x0, out=A)
                if record:
                    k += 1
                    x, new = x_tm[k], new_tm[k]
                # keep = A + alpha M, then x = A / (1 - alpha) on a new
                # maximum
                np.multiply(M, alpha, out=x)
                x += A
                np.greater(x, M, out=new)
                np.divide(A, one_minus, out=x, where=new)
                np.maximum(M, x, out=M)
                np.minimum(lo, x, out=lo)

    bad = ~(np.isfinite(lo) & np.isfinite(M))
    if bad.any():
        if record:
            kk, pp = np.argwhere(~np.isfinite(x_tm))[0]
            pp = path_offset + int(pp)    # a Python int: offsets reach 2**64
            raise NonFinite(f"non-finite state at step {kk} of path {pp}",
                            step=int(kk), path_index=pp)
        pp = path_offset + int(np.argwhere(bad)[0][0])
        raise NonFinite(f"non-finite state on path {pp}", path_index=pp)
    return None if record else x


@dataclass(frozen=True, eq=False, init=False)
class PathBatch:
    """A block of simulated paths stored time-major.

    ``x[k]`` is the vector of path values at time index ``k``; this layout
    keeps the per-step propagation of path and derivative states on
    contiguous memory.  Column ``i`` is path ``path_offset + i``; a single
    path is a batch of one column.

    A batch holds two arrays: the values ``x`` (float, ``(n+1, P)``) and
    the new-maximum flags ``new_max`` (bool, ``(n+1, P)``).  The running
    maximum is derived from them on request as a fresh ``(n+1, P)`` array,
    the terminal argmax index as a ``(P,)`` one.  The flags are kept
    because a tie ``x[k] == max(x[:k])`` may set a new maximum in the
    engine, so they do not follow from ``x``.

    The increments ``db`` (float, ``(n, P)``) are the block passed in, if
    any (with no ``seed`` from :func:`simulate_increments`).  A keyed
    batch, built with its ``seed``, ``path_offset`` and grid step ``dt``
    and no block, stores none: the first read of ``db`` redraws the block
    of :func:`_generate_block`, bitwise the one it was simulated on, and
    keeps it.  ``n_steps`` comes from ``x`` and never redraws.
    Batches compare and hash by identity.
    """

    x: np.ndarray          # (n_steps+1, n_paths)
    new_max: np.ndarray    # bool, new_max[k] = path set a new maximum at k
    seed: int | None
    path_offset: int
    dt: float | None

    def __init__(self, x: np.ndarray, new_max: np.ndarray,
                 db: np.ndarray | None = None, seed: int | None = None,
                 path_offset: int = 0, dt: float | None = None):
        if db is None and (seed is None or dt is None):
            raise TypeError("PathBatch needs db, or the seed and dt that "
                            "redraw it")
        for name, value in (("x", x), ("new_max", new_max), ("seed", seed),
                            ("path_offset", path_offset), ("dt", dt)):
            object.__setattr__(self, name, value)
        if db is not None:
            object.__setattr__(self, "db", db)   # what the property returns

    @cached_property
    def db(self) -> np.ndarray:
        """Time-major ``(n_steps, n_paths)`` increments."""
        return _generate_block(self.seed, self.path_offset, self.n_paths,
                               self.n_steps, self.dt)

    @property
    def n_paths(self) -> int:
        return self.x.shape[1]

    @property
    def n_steps(self) -> int:
        return self.x.shape[0] - 1

    @property
    def running_max(self) -> np.ndarray:
        """Time-major running maximum ``max(x[:k+1])``, shape (n+1, P)."""
        return np.maximum.accumulate(self.x, axis=0)

    def final_argmax_idx(self) -> np.ndarray:
        """Terminal argmax index per path: the last step that set a new
        maximum, 0 for a path that never did."""
        new = self.new_max
        last = new.shape[0] - 1 - np.argmax(new[::-1], axis=0)
        return np.where(new.any(axis=0), last, 0)


def _increment_block(db, grid: GridSpec) -> np.ndarray:
    """``db`` as a contiguous float block, refused with
    :class:`GridMismatch` unless time-major ``(grid.n_steps, n_paths >= 1)``.
    """
    block = np.ascontiguousarray(db, dtype=float)
    if block.ndim != 2 or block.shape[0] != grid.n_steps \
            or block.shape[1] < 1:
        raise GridMismatch(
            f"increment block has shape {block.shape}, grid expects "
            f"({grid.n_steps}, n_paths >= 1)")
    return block


def simulate_increments(spec, grid: GridSpec, db: np.ndarray, *,
                        record: bool = True, path_offset: int = 0):
    """Advance a caller-supplied increment block through the scheme.

    ``db`` is time-major with shape ``(n_steps, n_paths)``: row ``k`` holds
    the increments of step ``k`` for every path.  Column ``i`` comes out
    bitwise equal to the same column simulated alone, whatever the other
    columns hold.  With ``record`` the result is a :class:`PathBatch`
    holding whole trajectories (and ``db`` itself, not a copy); otherwise
    the ``(n_paths,)`` array of terminal values.  The batch carries
    ``db``, so it never redraws it and its ``seed`` is ``None``, whatever
    stream the block came from.  ``path_offset`` labels the columns: a
    :class:`NonFinite` error names path ``path_offset + i`` for column
    ``i``.

    The state starts at the time-zero fixed point ``x0 / (1 - alpha)``.
    With ``alpha = 0`` the scheme reduces bitwise to classical
    Euler-Maruyama with ``x_k = x0 + Z_k``, ``Z`` the running sum of the
    increments from zero.
    """
    db_tm = _increment_block(db, grid)
    P = db_tm.shape[1]
    if not record:
        return _euler_core(spec, grid.dt, [db_tm], P, path_offset)
    x_tm, new_tm = _recorded_arrays(grid, P)
    _euler_core(spec, grid.dt, [db_tm], P, path_offset, (x_tm, new_tm))
    return PathBatch(x=x_tm, new_max=new_tm, db=db_tm,
                     path_offset=path_offset, dt=grid.dt)


def _recorded_arrays(grid: GridSpec, n_paths: int):
    """Empty time-major values and cleared flags of a recorded batch."""
    shape = (grid.n_steps + 1, n_paths)
    return np.empty(shape), np.zeros(shape, dtype=bool)


# No package code calls this: the benchmark's tracer wraps it by name
# (``integrate.euler_path`` in bench/spans.py), so it stays until the
# benchmark drops that span.
def euler_path(spec, grid: GridSpec, db: np.ndarray) -> PathBatch:
    """One path, increments ``db`` of shape ``(n_steps,)``, as a one-column
    :class:`PathBatch` of :func:`simulate_increments`."""
    return simulate_increments(spec, grid, np.asarray(db, float)[:, None])


def simulate_batch(spec, grid: GridSpec, n_paths: int, seed: int,
                   path_offset: int = 0) -> PathBatch:
    """Simulate ``n_paths`` keyed paths and keep full trajectories.

    The keyed block is drawn into rows ``1..n`` of the value array and
    integrated in place, each step overwriting the increments it consumed,
    so the result is bitwise :func:`simulate_increments` on
    ``_generate_block(seed, path_offset, n_paths, n_steps, dt)`` but holds
    no block: its ``db`` redraws one on first read.
    """
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1")
    x_tm, new_tm = _recorded_arrays(grid, n_paths)
    _draw_block(seed, path_offset, n_paths, grid.n_steps, grid.dt,
                x_tm[1:].reshape(-1))
    _euler_core(spec, grid.dt, [x_tm[1:]], n_paths, path_offset,
                (x_tm, new_tm))
    return PathBatch(x=x_tm, new_max=new_tm, seed=seed,
                     path_offset=path_offset, dt=grid.dt)


def simulate_terminal(spec, grid: GridSpec, n_paths: int, seed: int,
                      path_offset: int = 0) -> np.ndarray:
    """Simulate keyed paths and return their ``(n_paths,)`` terminal
    values.

    Paths run ``_TERMINAL_CHUNK_PATHS`` at a time, and each chunk's noise
    is drawn one window of ``_TERMINAL_WINDOW_STEPS`` steps at a time and
    integrated before the next is drawn.  So the increments held are one
    ``(window, chunk)`` array (8 MiB) and one staging tile of
    ``_NOISE_TILE`` paths, plus one generator per path of a chunk, however
    many paths and steps the run has; the result is bitwise that of
    :func:`simulate_increments` on the whole block.  A non-finite state
    at any step raises :class:`NonFinite` naming the lowest such path.
    """
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1")
    width = min(n_paths, _TERMINAL_CHUNK_PATHS)
    noise = _KeyedNoise(seed, width, grid.n_steps, grid.dt,
                        _TERMINAL_WINDOW_STEPS)
    _check_paths(path_offset, n_paths)
    window = np.empty(noise.window * width)
    x_final = np.empty(n_paths)
    for lo in range(0, n_paths, width):
        count = min(width, n_paths - lo)
        x_final[lo:lo + count] = _euler_core(
            spec, grid.dt, noise.windows(path_offset + lo, count, window),
            count, path_offset + lo)
    return x_final


# -- explicit solution in the driftless additive case -------------------------


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
    the identity exact for negative ``sigma`` as well.)  ``Z`` is summed
    from zero, the engine's rule, so each column of a 2-D ``db`` comes out
    bitwise equal to its 1-D run.
    """
    if not alpha < 1.0:
        raise ConfigError("the additive closed form requires alpha < 1")
    z = np.insert(sigma_const * np.asarray(db, float), 0, 0.0, axis=0)
    np.cumsum(z, axis=0, out=z)
    s = np.maximum.accumulate(z, axis=0)
    beta = alpha / (1.0 - alpha)
    return x0 / (1.0 - alpha) + z + beta * s


# -- Picard iteration ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PicardResult:
    """Outcome of :func:`picard_solve` for a block of ``P`` paths.

    ``x`` is the last iterate, time-major ``(n_steps+1, P)`` like a
    batch's values; the result keeps no flags and no increments.
    ``n_sweeps[p]`` counts the sweeps column ``p`` took, and
    ``sup_diffs[m, p]`` is the uniform distance between its iterates
    ``X^{m+1}`` and ``X^m``; rows past a column's last sweep are NaN.
    ``n_iterations`` is the total sweep count.  A column that misses the
    tolerance within the iteration budget still returns its best iterate,
    with ``converged[p] = False`` rather than an error; callers that need a
    hard failure can check the flags.  Results compare and hash by
    identity, since the generated field-wise ``==`` cannot compare arrays.
    """

    x: np.ndarray              # (n_steps+1, P)
    sup_diffs: np.ndarray      # (max sweeps, P)
    converged: np.ndarray      # bool, (P,)
    n_sweeps: np.ndarray       # int, (P,)
    n_iterations: int


def picard_solve(spec, grid: GridSpec, db: np.ndarray,
                 n_iter: int = 25, tol: float = 1e-10) -> PicardResult:
    """Solve the discrete dynamics by fixed-point iteration on whole paths.

    ``db`` is a time-major ``(n_steps, P)`` increment block.  Starting from
    the constant path ``X^0 = x0``, each sweep sums from zero, the engine's
    rule, the increments along the previous iterate,

        Z_k = sum_{j<k} [ b(X^n_j) dt + sigma(X^n_j) db_j ],

    and resolves the supremum feedback in closed form:

        X^{n+1}_k = x0/(1-alpha) + Z_k + (alpha/(1-alpha)) max_{j<=k} Z_j.

    The fixed point of this map is exactly the per-step Euler solution, so
    a converged iteration reproduces :func:`simulate_increments` on the
    same block.  A column stops sweeping once its gap is within ``tol``,
    so each column's iterates are those of a one-column solve.  The
    result holds the final iterate's values and no new-maximum flags:
    those are set only by the Euler engine, as it steps.
    """
    db = _increment_block(db, grid)
    if n_iter < 1:
        raise ConfigError("n_iter must be >= 1")
    alpha, x0 = spec.alpha, spec.x0
    beta = alpha / (1.0 - alpha)
    c0 = x0 / (1.0 - alpha)
    b, s = spec.drift.evaluator(0), spec.diffusion.evaluator(0)
    dt, P = grid.dt, db.shape[1]

    x = np.full((grid.n_steps + 1, P), float(x0))
    sup_diffs = np.full((n_iter, P), np.nan)
    n_sweeps = np.zeros(P, dtype=np.int64)
    converged = np.zeros(P, dtype=bool)
    live = np.arange(P)
    for m in range(n_iter):
        prev = x[:, live]
        left = prev[:-1]
        incr = b(left) * dt + s(left) * db[:, live]
        z = np.insert(incr, 0, 0.0, axis=0)
        np.cumsum(z, axis=0, out=z)
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

    return PicardResult(x=x, sup_diffs=sup_diffs[:n_sweeps.max()],
                        converged=converged, n_sweeps=n_sweeps,
                        n_iterations=int(n_sweeps.sum()))
