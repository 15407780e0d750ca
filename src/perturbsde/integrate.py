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
from .model import GridSpec, PathState, ValidatedSpec, validate

__all__ = [
    "NoiseBlock",
    "PathBatch",
    "TerminalSample",
    "PicardResult",
    "resolve_step",
    "euler_path",
    "explicit_additive_path",
    "picard_solve",
    "simulate_increments",
    "simulate_batch",
    "simulate_terminal",
    "generate_increments",
    "kahan_cumsum",
    "additive_closed_form",
    "max_bookkeeping",
]

_U64 = np.uint64
_MAX_U64 = 2**64
_NOISE_PATHS = 512


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

    Paths are drawn ``_NOISE_PATHS`` at a time into one reused path-major
    buffer and transposed into the output, so no second full-size copy is
    held; column ``p`` is bitwise :func:`generate_increments` for path
    ``path_offset + p``.
    """
    out = np.empty((n_steps, n_paths))
    buf = np.empty((min(n_paths, _NOISE_PATHS), n_steps))
    key = np.array([_check_u64("seed", seed), 0], dtype=_U64)
    scale = math.sqrt(dt)
    for lo in range(0, n_paths, _NOISE_PATHS):
        block = buf[:min(_NOISE_PATHS, n_paths - lo)]
        for i, row in enumerate(block):
            key[1] = path_offset + lo + i
            gen = np.random.Generator(np.random.Philox(key=key))
            gen.standard_normal(out=row)
        block *= scale
        out[:, lo:lo + block.shape[0]] = block.T
    return out


@dataclass(frozen=True)
class NoiseBlock:
    """The Brownian increments driving one path, with their provenance.

    ``seed``/``path_index`` identify a reproducible generator stream; they
    are ``None`` for synthetic blocks (for example Cameron-Martin shifted
    increments) that were not drawn from a keyed stream.
    """

    db: np.ndarray
    seed: int | None = None
    path_index: int | None = None

    def __post_init__(self) -> None:
        db = np.asarray(self.db, float)
        if db.ndim != 1 or db.shape[0] < 1:
            raise GridMismatch("db must be a 1-D array with >= 1 increment")
        object.__setattr__(self, "db", db)
        db.flags.writeable = False

    @classmethod
    def generate(cls, seed: int, path_index: int, grid: GridSpec
                 ) -> "NoiseBlock":
        db = generate_increments(seed, path_index, grid.n_steps, grid.dt)
        return cls(db, seed=seed, path_index=path_index)

    @classmethod
    def from_increments(cls, db: np.ndarray) -> "NoiseBlock":
        return cls(np.array(db, float))

    @property
    def n_steps(self) -> int:
        return self.db.shape[0]


def resolve_step(A, M_prev, alpha: float):
    """Solve ``x = A + alpha * max(M_prev, x)`` for one step.

    Returns ``(x, is_new_max)``.  Scalar or array inputs are accepted and
    broadcast.  The solution is unique for ``alpha < 1``: if
    ``A + alpha * M_prev <= M_prev`` the maximum is unchanged and
    ``x = A + alpha * M_prev``; otherwise a new maximum forms and
    ``x = A / (1 - alpha)``.  At the boundary both branches coincide and
    ``is_new_max`` is False.
    """
    if not alpha < 1.0:
        raise ConfigError("resolve_step requires alpha < 1")
    A_arr = np.asarray(A, float)
    M_arr = np.asarray(M_prev, float)
    keep = A_arr + alpha * M_arr
    new = keep > M_arr
    x = np.where(new, A_arr / (1.0 - alpha), keep)
    if A_arr.ndim == 0 and M_arr.ndim == 0:
        return float(x), bool(new)
    return x, new


# -- batched Euler engine -----------------------------------------------------


def _euler_core(vspec: ValidatedSpec, dt: float, db_tm: np.ndarray,
                record: bool):
    """Advance all columns of ``db_tm`` (time-major ``(n, P)``) through the
    left-frozen scheme.  Returns time-major state arrays when ``record``,
    otherwise only terminal quantities."""
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
            raise NonFinite(
                f"non-finite state at step {kk} of path {pp}",
                step=int(kk), path_index=int(pp))
        return x_tm, M_tm, new_tm
    bad = ~(np.isfinite(x) & np.isfinite(M))
    if bad.any():
        pp = int(np.argwhere(bad)[0][0])
        raise NonFinite(f"non-finite terminal state on path {pp}",
                        path_index=pp)
    return x, M, tau


def max_bookkeeping(x: np.ndarray | None = None, *,
                    new: np.ndarray | None = None,
                    argmax: np.ndarray | None = None):
    """Running-maximum bookkeeping along the time axis (axis 0).

    Give exactly one source, shaped ``(n+1,)`` or time-major ``(n+1, P)``:

    - ``x``, path values: step ``k`` sets a new maximum when ``x[k]``
      strictly exceeds the running maximum before it;
    - ``new``, the per-step new-maximum flags themselves;
    - ``argmax``, first-attainment argmax indices: ``new[k]`` holds exactly
      when ``argmax[k] == k`` for ``k >= 1``.

    Returns ``(running_max, new, argmax)``; ``running_max`` is None unless
    ``x`` was given.  Step 0 never sets a new maximum.
    """
    if sum(a is not None for a in (x, new, argmax)) != 1:
        raise ConfigError("max_bookkeeping takes exactly one of x, new, "
                          "argmax")
    running_max = None
    if x is not None:
        running_max = np.maximum.accumulate(x, axis=0)
        new = np.zeros(x.shape, dtype=bool)
        new[1:] = x[1:] > running_max[:-1]
    src = new if argmax is None else argmax
    steps = np.arange(src.shape[0], dtype=np.int64).reshape(
        (-1,) + (1,) * (src.ndim - 1))
    if argmax is None:
        argmax = np.where(new, steps, 0)
        np.maximum.accumulate(argmax, axis=0, out=argmax)
    else:
        new = argmax == steps
        new[0] = False
    return running_max, new, argmax


@dataclass(frozen=True)
class PathBatch:
    """A block of simulated paths stored time-major.

    ``x[k]`` is the vector of path values at time index ``k``; this layout
    keeps the per-step propagation of path and derivative states on
    contiguous memory.  ``path(i)`` extracts a standard :class:`PathState`.
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

    def path(self, i: int) -> PathState:
        argmax = max_bookkeeping(new=self.new_max[:, i])[2]
        return PathState(
            x=self.x[:, i].copy(),
            running_max=self.running_max[:, i].copy(),
            argmax_idx=argmax,
            db=self.db[:, i].copy(),
            seed=self.seed,
            path_index=None if self.seed is None else self.path_offset + i,
        )


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
    bitwise equal to :func:`euler_path` on ``db[:, i]``, whatever the other
    columns hold.  With ``record`` the result is a :class:`PathBatch`
    holding whole trajectories (and ``db`` itself, not a copy); otherwise a
    :class:`TerminalSample` of terminal quantities.  ``seed`` and
    ``path_offset`` only label the result: they record which keyed stream
    the columns came from, ``None`` for synthetic blocks.
    """
    vspec = validate(spec)
    db_tm = np.ascontiguousarray(db, dtype=float)
    if db_tm.ndim != 2 or db_tm.shape[0] != grid.n_steps \
            or db_tm.shape[1] < 1:
        raise GridMismatch(
            f"increment block has shape {db_tm.shape}, grid expects "
            f"({grid.n_steps}, n_paths >= 1)")
    if record:
        x_tm, M_tm, new_tm = _euler_core(vspec, grid.dt, db_tm, record=True)
        return PathBatch(x=x_tm, running_max=M_tm, new_max=new_tm, db=db_tm,
                         seed=seed, path_offset=path_offset)
    x, M, tau = _euler_core(vspec, grid.dt, db_tm, record=False)
    return TerminalSample(x, M, tau, seed=seed, path_offset=path_offset)


def euler_path(spec, grid: GridSpec, noise: NoiseBlock) -> PathState:
    """Simulate one path of the perturbed dynamics on the given grid.

    The state starts at the time-zero fixed point ``x0 / (1 - alpha)`` and
    each step resolves the implicit maximum equation; see
    :func:`resolve_step`.  With ``alpha = 0`` the scheme reduces bitwise to
    classical Euler-Maruyama with compensated increment accumulation.
    """
    batch = simulate_increments(spec, grid, noise.db[:, None])
    return PathState(x=batch.x[:, 0], running_max=batch.running_max[:, 0],
                     argmax_idx=max_bookkeeping(new=batch.new_max[:, 0])[2],
                     db=noise.db, seed=noise.seed,
                     path_index=noise.path_index)


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
                      path_offset: int = 0,
                      chunk_paths: int = 8192) -> TerminalSample:
    """Simulate keyed paths keeping only terminal-time quantities.

    Memory stays bounded by one increment block of ``chunk_paths`` paths,
    so this scales to ensemble sizes used for density estimation.
    """
    vspec = validate(spec)
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1")
    parts = []
    for lo in range(0, n_paths, chunk_paths):
        hi = min(lo + chunk_paths, n_paths)
        db_tm = _generate_block(seed, path_offset + lo, hi - lo,
                                grid.n_steps, grid.dt)
        try:
            parts.append(simulate_increments(vspec, grid, db_tm,
                                             record=False))
        except NonFinite as exc:
            raise NonFinite(
                str(exc), step=exc.step,
                path_index=None if exc.path_index is None
                else path_offset + lo + exc.path_index) from None
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


def additive_closed_form(x0: float, alpha: float, sigma_const: float,
                         db: np.ndarray) -> np.ndarray:
    """Closed-form driftless path values from increments ``db``, ``(n,)``
    or time-major ``(n, P)``; see :func:`explicit_additive_path`."""
    if not alpha < 1.0:
        raise ConfigError("the additive closed form requires alpha < 1")
    z = kahan_cumsum(sigma_const * np.asarray(db, float))
    s = np.maximum.accumulate(z, axis=0)
    beta = alpha / (1.0 - alpha)
    return x0 / (1.0 - alpha) + z + beta * s


def explicit_additive_path(x0: float, alpha: float, sigma_const: float,
                           noise: NoiseBlock) -> PathState:
    """Closed-form path for zero drift and constant diffusion.

    With ``Z_k = sigma * B_k`` the resolved solution is

        x[k] = x0/(1-alpha) + Z_k + (alpha/(1-alpha)) * max_{j<=k} Z_j,

    which satisfies the per-step implicit equation of the Euler scheme
    exactly; the two constructions agree to floating-point roundoff on any
    noise.  (Taking the running maximum of ``Z`` rather than of ``B`` keeps
    the identity exact for negative ``sigma`` as well.)
    """
    x = additive_closed_form(x0, alpha, sigma_const, noise.db)
    M, _, argmax = max_bookkeeping(x)
    return PathState(x=x, running_max=M, argmax_idx=argmax, db=noise.db,
                     seed=noise.seed, path_index=noise.path_index)


# -- Picard iteration ---------------------------------------------------------


@dataclass(frozen=True)
class PicardResult:
    """Outcome of :func:`picard_solve`.

    ``sup_diffs[m]`` is the uniform distance between successive iterates
    ``X^{m+1}`` and ``X^m``.  When the tolerance is not reached within the
    iteration budget the best iterate is still returned with
    ``converged = False`` rather than raising; callers that need a hard
    failure can check the flag.
    """

    path: PathState
    sup_diffs: np.ndarray
    converged: bool
    n_iterations: int


def picard_solve(spec, grid: GridSpec, noise: NoiseBlock,
                 n_iter: int = 25, tol: float = 1e-10) -> PicardResult:
    """Solve the discrete dynamics by fixed-point iteration on whole paths.

    Starting from the constant path ``X^0 = x0``, each sweep integrates the
    coefficients along the previous iterate,

        Z_k = sum_{j<k} [ b(X^n_j) dt + sigma(X^n_j) db_j ],

    and resolves the supremum feedback in closed form:

        X^{n+1}_k = x0/(1-alpha) + Z_k + (alpha/(1-alpha)) max_{j<=k} Z_j.

    The fixed point of this map is exactly the per-step Euler solution, so
    a converged iteration reproduces :func:`euler_path` on the same noise.
    """
    vspec = validate(spec)
    if noise.n_steps != grid.n_steps:
        raise GridMismatch("noise/grid step mismatch in picard_solve")
    if n_iter < 1:
        raise ConfigError("n_iter must be >= 1")
    alpha, x0 = vspec.alpha, vspec.x0
    beta = alpha / (1.0 - alpha)
    c0 = x0 / (1.0 - alpha)
    b, s = vspec.drift, vspec.diffusion
    dt, db = grid.dt, noise.db
    n1 = grid.n_steps + 1

    x_prev = np.full(n1, float(x0))
    sup_diffs: list[float] = []
    converged = False
    z = np.empty(n1)
    for _ in range(n_iter):
        left = x_prev[:-1]
        incr = b(left, 0) * dt + s(left, 0) * db
        z[0] = 0.0
        np.cumsum(incr, out=z[1:])
        x_new = c0 + z + beta * np.maximum.accumulate(z)
        if not np.all(np.isfinite(x_new)):
            raise NonFinite("non-finite Picard iterate")
        sup_diffs.append(float(np.max(np.abs(x_new - x_prev))))
        x_prev = x_new
        if sup_diffs[-1] <= tol:
            converged = True
            break

    M, _, argmax = max_bookkeeping(x_prev)
    path = PathState(x=x_prev, running_max=M, argmax_idx=argmax, db=db,
                     seed=noise.seed, path_index=noise.path_index)
    return PicardResult(path=path, sup_diffs=np.asarray(sup_diffs),
                        converged=converged, n_iterations=len(sup_diffs))
