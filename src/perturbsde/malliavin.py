"""Pathwise noise-derivative propagation along simulated paths.

For a simulated path ``x`` driven by increments ``db``, slot ``i`` of a
derivative field holds the sensitivity of the state to increment ``i`` (the
one acting on ``[t_i, t_{i+1})``), obtained by differentiating the discrete
scheme itself.  The slot is created when its increment first acts:

    d_i(t_{i+1}) = sigma(x_i) / (1 - alpha)   if step i+1 set a new maximum
    d_i(t_{i+1}) = sigma(x_i)                 otherwise

because a new maximum at that step feeds the sensitivity back through the
implicit equation, while otherwise the running maximum was attained before
the increment existed and contributes nothing.  Afterwards every step
multiplies all live slots by the same factor

    1 + c_k,   c_k = b'(x_k) dt + sigma'(x_k) db_k,

and a new-maximum step additionally resolves the feedback,

    d_i <- (d_i (1 + c_k) - alpha * m_i) / (1 - alpha),   m_i <- d_i,

where ``m_i`` is the slot's frozen derivative of the running maximum
(zero until the first new maximum after slot creation).  Slots with
``r > t`` stay exactly zero.

The squared Cameron-Martin norm at time ``t_k`` is the left-endpoint sum
``dt * sum_{i < k} d_i(t_k)^2``.  Because the ordinary step is a common
scalar multiple, the engine keeps slots in a lazily rescaled form: actual
value = stored value * path scale.  Ordinary steps then cost O(paths) and
only new-maximum steps touch O(active slots), which keeps large sweeps
(10^4 paths x 10^3 steps) in the seconds range.  The rescaling is exact
algebra, not an approximation; stored scales are renormalized long before
they can overflow or vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridMismatch
from .integrate import PathBatch, simulate_increments
from .model import GridSpec, validate

__all__ = [
    "DerivativeFieldBatch",
    "propagate_derivative_batch",
    "h_norm_sq",
    "cameron_martin_fd",
    "inner_product",
]

# Lazy path scales are renormalized outside this band; values are far from
# the representable limits so the rescaling itself is always safe.
_RESCALE_LO = 1e-130
_RESCALE_HI = 1e130


@dataclass(frozen=True)
class DerivativeFieldBatch:
    """Noise derivatives of a batch of paths at their final time.

    ``d_x[p, i]`` is the sensitivity of path ``p``'s ``x[n]`` to increment
    ``i`` and ``d_m[p, i]`` the matching sensitivity of its final running
    maximum; slot arrays are path-major ``(n_paths, n_steps)``.
    ``h_norm_sq_final`` is the squared Cameron-Martin norm at the final
    time, ``sup_h_norm_sq`` its maximum over all grid times, and
    ``h_norm_sq_by_time`` (when tracked) the whole time-major
    ``(n_steps+1, n_paths)`` curve with row ``k`` for time ``t_k``.  One
    path is a batch of one.
    """

    d_x: np.ndarray
    d_m: np.ndarray
    h_norm_sq_final: np.ndarray
    sup_h_norm_sq: np.ndarray
    dt: float
    h_norm_sq_by_time: np.ndarray | None = None

    @property
    def n_paths(self) -> int:
        return self.d_x.shape[0]


def propagate_derivative_batch(batch: PathBatch, spec, grid: GridSpec,
                               track_all_times: bool = False
                               ) -> DerivativeFieldBatch:
    """Propagate derivative fields for every path of a batch."""
    vspec = validate(spec)
    if batch.n_steps != grid.n_steps:
        raise GridMismatch("batch/grid step mismatch")
    x_tm, db_tm, new_tm, dt = batch.x, batch.db, batch.new_max, grid.dt
    n1, P = x_tm.shape
    n = n1 - 1
    alpha = vspec.alpha
    one_minus = 1.0 - alpha
    b, s = vspec.drift, vspec.diffusion

    D = np.zeros((P, n))       # lazily scaled slot values
    dm = np.zeros((P, n))      # frozen max-derivatives, absolute scale
    phi = np.ones(P)           # actual d = D * phi
    Q = np.zeros(P)            # sum of D^2 over live slots
    h_sup = np.zeros(P)
    by_time = np.zeros((n1, P)) if track_all_times else None

    for k in range(n):
        xk = x_tm[k]
        c = b(xk, 1) * dt + s(xk, 1) * db_tm[k]
        phi = phi * (1.0 + c)

        dead = phi == 0.0
        if dead.any():
            # every live slot was annihilated at this step; the frozen
            # max-derivatives survive untouched
            D[dead, :k] = 0.0
            Q[dead] = 0.0
            phi[dead] = 1.0
        norm = (np.abs(phi) < _RESCALE_LO) | (np.abs(phi) > _RESCALE_HI)
        if norm.any():
            D[norm, :k] *= phi[norm, None]
            Q[norm] *= phi[norm] ** 2
            phi[norm] = 1.0

        new = new_tm[k + 1]
        if new.any() and k > 0:
            sub = (D[new, :k] - (alpha / phi[new, None]) * dm[new, :k]) \
                / one_minus
            D[new, :k] = sub
            dm[new, :k] = sub * phi[new, None]
            Q[new] = np.einsum("ij,ij->i", sub, sub)

        sk = s(xk, 0)
        init = np.where(new, sk / one_minus, sk)
        D[:, k] = init / phi
        dm[:, k] = np.where(new, init, 0.0)
        Q = Q + D[:, k] ** 2

        h = (phi * phi) * Q * dt
        np.maximum(h_sup, h, out=h_sup)
        if track_all_times:
            by_time[k + 1] = h

    d_x = D * phi[:, None]
    h_final = dt * np.einsum("ij,ij->i", d_x, d_x)
    np.maximum(h_sup, h_final, out=h_sup)
    if track_all_times:
        by_time[n] = h_final
    return DerivativeFieldBatch(d_x=d_x, d_m=dm, h_norm_sq_final=h_final,
                                sup_h_norm_sq=h_sup, dt=grid.dt,
                                h_norm_sq_by_time=by_time)


def h_norm_sq(d_x: np.ndarray, dt: float, k: int | None = None) -> float:
    """Squared Cameron-Martin norm from a slot array.

    ``dt * sum_{i < k} d_x[i]^2`` with ``k`` defaulting to all slots; slot
    ``i`` carries the left-endpoint weight of the increment interval.
    Accepts a batch array (slots on the last axis).
    """
    arr = np.asarray(d_x, float)
    if k is None:
        k = arr.shape[-1]
    if not 0 <= k <= arr.shape[-1]:
        raise GridMismatch(f"k={k} outside slot range {arr.shape[-1]}")
    sub = arr[..., :k]
    out = dt * np.einsum("...i,...i->...", sub, sub)
    return float(out) if arr.ndim == 1 else out


def inner_product(fields: DerivativeFieldBatch, h: np.ndarray,
                  dt: float) -> np.ndarray:
    """Pairings ``dt * sum_i d_x[p, i] h[i]`` of every path's field with a
    direction ``h`` sampled at the increment left endpoints, shape
    ``(n_paths,)``.  Each path is one ``np.dot``, so a pairing does not
    depend on the other paths of the batch."""
    h_arr = np.asarray(h, float)
    if h_arr.shape != fields.d_x.shape[1:]:
        raise GridMismatch("direction h must have one entry per increment")
    return np.array([dt * np.dot(row, h_arr) for row in fields.d_x])


def cameron_martin_fd(spec, grid: GridSpec, db: np.ndarray,
                      h: np.ndarray, eps: float = 1e-4,
                      base: np.ndarray | None = None) -> np.ndarray:
    """Finite-difference directional derivatives of terminal values.

    ``db`` is a time-major ``(n_steps, n_paths)`` increment block.  Every
    column is re-simulated with its increments shifted by
    ``eps * h(t_k) * dt`` and the result is ``(X_T^eps - X_T) / eps`` per
    path.  ``base`` may supply the unshifted terminal values ``X_T`` when
    the caller has already simulated ``db``; otherwise the base and the
    shifted columns run together as one block.  Either way column ``i``
    comes out bitwise equal to the same column run alone.

    As ``eps`` shrinks this converges to :func:`inner_product` of the
    propagated field with ``h`` (they differ by O(eps), plus rare jumps
    when the shift reorders near-tied maxima), so it serves as a
    derivative-free cross-check of the propagation.
    """
    if eps <= 0.0:
        raise ConfigError("eps must be positive")
    h_arr = np.asarray(h, float)
    if h_arr.shape != (grid.n_steps,):
        raise GridMismatch("h must have one entry per increment")
    db = np.asarray(db, float)
    if db.ndim != 2 or db.shape[0] != grid.n_steps:
        raise GridMismatch("db must be a time-major (n_steps, n_paths) "
                           "block")
    shifted = db + (eps * h_arr * grid.dt)[:, None]
    if base is None:
        block = np.concatenate([db, shifted], axis=1)
        final = simulate_increments(spec, grid, block, record=False).x_final
        base, bumped = np.split(final, 2)
    else:
        bumped = simulate_increments(spec, grid, shifted,
                                     record=False).x_final
        base = np.asarray(base, float)
        if base.shape != bumped.shape:
            raise GridMismatch("base must hold one terminal value per path")
    return (bumped - base) / eps
