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

    a_k = 1 + b'(x_k) dt + sigma'(x_k) db_k,

and a new-maximum step additionally resolves the feedback,

    d_i <- (d_i a_k - alpha * m_i) / (1 - alpha),   m_i <- d_i,

where ``m_i`` is the slot's frozen derivative of the running maximum
(zero until the first new maximum after slot creation).  Slots with
``r > t`` stay exactly zero.  The squared Cameron-Martin norm at time
``t_k`` is the left-endpoint sum ``dt * sum_{i < k} d_i(t_k)^2``.

No slot is stored while stepping.  A slot born up to the last new maximum
equals ``m_i * G``, with ``G`` the product of ``a`` since that maximum, so
at the next maximum ``k`` all their ``m_i`` scale by one factor ``mu_k =
(G - alpha) / (1 - alpha)`` (``G`` including ``a_k``) and every younger
slot (``m_i = 0``), once multiplied by ``a_k``, by ``1 / (1 - alpha)``.
The forward sweep therefore carries three numbers per path: ``G``, the sum
``S`` of ``m_i^2`` over the older slots and the sum ``Y`` of ``d_i^2`` over
the younger ones, and reads the norm at every time as ``dt (G^2 S + Y)``.
The backward sweep then builds each slot's final values from products of
``a`` and ``mu`` over the steps after it, the adjoint argument of Giles &
Glasserman, "Smoking adjoints" (Risk, 2006).  Both cost O(paths) per step,
and a step with ``a_k = 0`` (every live slot annihilated) is no special case.

Only the forward sweep runs during propagation.  The backward sweep, and
its two ``(n_paths, n_steps)`` slot arrays, run once on the first read of
``d_x`` or ``d_m``, so a caller that reads only the norms never pays for
them.  Until then the field holds the simulated batch, whose arrays must
not be modified.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import ConfigError, GridMismatch
from .integrate import PathBatch, _increment_block, simulate_increments
from .model import GridSpec

__all__ = [
    "DerivativeFieldBatch",
    "propagate_derivative_batch",
    "cameron_martin_fd",
    "inner_product",
]

@dataclass(frozen=True, eq=False)
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

    The slot arrays are computed on the first read of ``d_x`` or ``d_m``
    by ``_slots``, which returns both; later reads return the same
    arrays.  The field holds the batch it was propagated along, whose
    arrays must not be modified before that first read.  Fields compare
    and hash by identity, since the generated field-wise ``==`` cannot
    compare arrays.
    """

    h_norm_sq_final: np.ndarray
    sup_h_norm_sq: np.ndarray
    dt: float
    _slots: Callable[[], tuple[np.ndarray, np.ndarray]] = field(
        repr=False, compare=False)
    h_norm_sq_by_time: np.ndarray | None = None

    @cached_property
    def _slot_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._slots()

    @property
    def d_x(self) -> np.ndarray:
        return self._slot_arrays[0]

    @property
    def d_m(self) -> np.ndarray:
        return self._slot_arrays[1]

    @property
    def n_paths(self) -> int:
        return self.h_norm_sq_final.shape[0]


def propagate_derivative_batch(batch: PathBatch, spec, grid: GridSpec,
                               track_all_times: bool = False
                               ) -> DerivativeFieldBatch:
    """Propagate derivative fields for every path of a batch.

    Runs the forward sweep, which gives every norm; the slot arrays come
    from the backward sweep on the first read of ``d_x`` or ``d_m``.
    """
    if batch.n_steps != grid.n_steps:
        raise GridMismatch("batch/grid step mismatch")
    x_tm, new_tm, dt = batch.x, batch.new_max, grid.dt
    n1, P = x_tm.shape
    n = n1 - 1
    alpha = spec.alpha
    one_minus = 1.0 - alpha
    with np.errstate(over="ignore"):    # inf where a float's ** raises
        one_minus_sq = np.float64(one_minus) ** 2
    s0 = spec.diffusion.evaluator(0)
    step_factor = _step_factor(spec, batch, dt)

    # forward sweep: the norm curve from three per-path sums; only the
    # paths that set a new maximum at a step change S, and reset Y and G
    G = np.ones(P)
    S = np.zeros(P)
    Y = np.zeros(P)
    h_sup = np.zeros(P)
    by_time = np.zeros((n1, P)) if track_all_times else None
    h = np.empty(P)
    for k in range(n):
        xk = x_tm[k]
        a = step_factor(xk, k)
        G *= a
        Y *= a * a
        idx = np.flatnonzero(new_tm[k + 1])
        Y_new = Y[idx]
        sk = s0(xk)
        Y += sk * sk
        q = (sk[idx] if np.ndim(sk) else sk) / one_minus
        mu = (G[idx] - alpha) / one_minus
        S[idx] = S[idx] * (mu * mu) + Y_new / one_minus_sq + q * q
        Y[idx] = 0.0
        G[idx] = 1.0
        if track_all_times:
            h = by_time[k + 1]
        np.multiply(G, G, out=h)
        h *= S
        h += Y
        h *= dt
        np.maximum(h_sup, h, out=h_sup)
    return DerivativeFieldBatch(
        h_norm_sq_final=h.copy(), sup_h_norm_sq=h_sup, dt=dt,
        _slots=partial(_backward_sweep, batch, spec, dt, G),
        h_norm_sq_by_time=by_time)


def _step_factor(spec, batch: PathBatch, dt: float):
    """``(x_k, k) -> a_k = 1 + b'(x_k) dt + sigma'(x_k) db_k`` along
    ``batch``.  A constant diffusion has ``sigma' = 0.0``, whose term adds
    a signed zero and so leaves ``a_k`` bitwise unchanged: it is not
    formed, and the batch's increments are not read, so a keyed batch
    never redraws them."""
    b1, s1 = spec.drift.evaluator(1), spec.diffusion.evaluator(1)
    if spec.diffusion.constant_value is not None:
        return lambda xk, k: 1.0 + b1(xk) * dt
    db_tm = batch.db
    return lambda xk, k: 1.0 + (b1(xk) * dt + s1(xk) * db_tm[k])


def _backward_sweep(batch: PathBatch, spec, dt: float,
                    G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(d_x, d_m)`` of a batch, newest slot first.

    ``G`` is the forward sweep's final product of ``a`` since the last new
    maximum.  R is the product of a from slot k+1 to the next maximum j
    (or the end) and M the product of mu over the maxima after j.  At a
    maximum k, R is the forward G at j, so mu_j needs no storage.  Only
    the paths that set a new maximum at step k+1 change M or reset R,
    so those are updated by index.
    """
    x_tm, new_tm = batch.x, batch.new_max
    n1, P = x_tm.shape
    n = n1 - 1
    alpha = spec.alpha
    one_minus = 1.0 - alpha
    s0 = spec.diffusion.evaluator(0)
    step_factor = _step_factor(spec, batch, dt)
    d_x = np.empty((P, n))
    d_m = np.empty((P, n))
    R = np.ones(P)
    M = np.ones(P)
    later = np.zeros(P, bool)
    for k in range(n - 1, -1, -1):
        xk = x_tm[k]
        new = new_tm[k + 1]
        idx = np.flatnonzero(new)
        again = idx[later[idx]]
        M[again] = (R[again] - alpha) / one_minus * M[again]
        sk = s0(xk)
        m = sk / one_minus * np.where(new, M, np.where(later, R * M, 0.0))
        d_m[:, k] = m
        d_x[:, k] = np.where(new | later, m * G, sk * R)
        a = step_factor(xk, k)
        R *= a
        R[idx] = a[idx] if np.ndim(a) else a
        later[idx] = True
    return d_x, d_m


def inner_product(fields: DerivativeFieldBatch, h: np.ndarray) -> np.ndarray:
    """Pairings ``dt * sum_i d_x[p, i] h[i]`` of every path's field with a
    direction ``h`` sampled at the increment left endpoints, shape
    ``(n_paths,)``, with the fields' own ``dt``.  Each path is one
    ``np.dot``, so a pairing does not depend on the other paths of the
    batch."""
    h_arr = np.asarray(h, float)
    if h_arr.shape != fields.d_x.shape[1:]:
        raise GridMismatch("direction h must have one entry per increment")
    return np.array([fields.dt * np.dot(row, h_arr) for row in fields.d_x])


def cameron_martin_fd(spec, grid: GridSpec, db: np.ndarray,
                      h: np.ndarray, eps: float = 1e-4, *,
                      base: np.ndarray) -> np.ndarray:
    """Finite-difference directional derivatives of terminal values.

    ``db`` is a time-major ``(n_steps, n_paths)`` increment block and
    ``base`` the terminal values ``X_T`` its caller simulated on it, one
    per path.  Every column is re-simulated once, with its increments
    shifted by ``eps * h(t_k) * dt``, and the result is
    ``(X_T^eps - X_T) / eps`` per path; column ``i`` comes out bitwise
    equal to the same column run alone.

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
    db = _increment_block(db, grid)
    base = np.asarray(base, float)
    if base.shape != (db.shape[1],):
        raise GridMismatch("base must hold one terminal value per path")
    shifted = db + (eps * h_arr * grid.dt)[:, None]
    bumped = simulate_increments(spec, grid, shifted, record=False)
    return (bumped - base) / eps
