"""Adaptive Gauss-Kronrod (G7/K15) quadrature for survival expectations.

One call integrates N problems in lockstep: row i of every node array handed
to the integrand belongs to problem i, so an integrand that closes over
per-problem parameters of shape (N, 1) broadcasts against it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import QuadratureError

# K15 nodes with the matching G7 and K15 weights. Gauss weight 0 marks the
# Kronrod-only nodes. The weights are (15, 1) columns: a stacked
# (M, 1, 15) @ (15, 1) matmul takes one dot product per panel, in the same
# order whatever M is, so a problem's value does not depend on its batch.
_NODES = np.array([
    0.000000000000000,
    -0.207784955007898, 0.207784955007898,
    -0.405845151377397, 0.405845151377397,
    -0.586087235467691, 0.586087235467691,
    -0.741531185599394, 0.741531185599394,
    -0.864864423359769, 0.864864423359769,
    -0.949107912342759, 0.949107912342759,
    -0.991455371120813, 0.991455371120813,
])
_WEIGHTS_GAUSS = np.array([
    0.417959183673469,
    0.0, 0.0,
    0.381830050505119, 0.381830050505119,
    0.0, 0.0,
    0.279705391489277, 0.279705391489277,
    0.0, 0.0,
    0.129484966168870, 0.129484966168870,
    0.0, 0.0,
])[:, None]
_WEIGHTS_KRONROD = np.array([
    0.209482141084728,
    0.204432940075298, 0.204432940075298,
    0.190350578064785, 0.190350578064785,
    0.169004726639267, 0.169004726639267,
    0.140653259715525, 0.140653259715525,
    0.104790010322250, 0.104790010322250,
    0.063092092629979, 0.063092092629979,
    0.022935322010529, 0.022935322010529,
])[:, None]


def _panels(
    f: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    checked: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """G7/K15 on the (N, m) panels [lo, hi] with one call of f.

    Returns (K15 values, error estimates), each (N, m). Only the rows where
    checked is True must be finite; the others are results nobody keeps.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    fx = np.asarray(f((mid[..., None] + half[..., None] * _NODES).reshape(len(lo), -1)),
                    dtype=float)
    if not np.isfinite(fx[checked]).all():
        i = int(np.argmax(checked & ~np.isfinite(fx).all(axis=1)))
        raise QuadratureError(f"integrand non-finite on [{lo[i, 0]}, {hi[i, -1]}]")
    fx = fx.reshape(-1, 1, _NODES.size)
    k15 = half * np.matmul(fx, _WEIGHTS_KRONROD).reshape(lo.shape)
    g7 = half * np.matmul(fx, _WEIGHTS_GAUSS).reshape(lo.shape)
    diff = np.abs(k15 - g7)
    # QUADPACK-style sharpening: K15 is far more accurate than the G7/K15
    # difference once that difference is already small.
    return k15, np.minimum(diff, (200.0 * diff) ** 1.5)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a,
    b,
    abs_tol: float = 1e-8,
    max_panels: int = 2000,
):
    """Integrate a vectorized function on [a, b] to an absolute tolerance.

    a and b are scalars or (N,) arrays of N problems; f maps an (N, k) node
    array, row i belonging to problem i, to values of the same shape. Each
    round splits every unconverged problem's panel with the largest error
    estimate (ties to the leftmost) until the problem's summed estimate drops
    below abs_tol. f sees every row each round, and floating-point warnings
    are silenced: only a non-finite value in a panel that is kept raises.
    Scalar limits return a float, array limits an (N,) array; a problem
    with b <= a integrates to 0.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    scalar = a.ndim == 0
    a, b = a.reshape(-1), b.reshape(-1)
    nonempty = b > a
    if not nonempty.any():
        return 0.0 if scalar else np.zeros(a.shape)
    n = a.size
    rows = np.arange(n)
    # One record (lo, hi, value, error) per panel slot, grown by doubling.
    # An unused slot has error -inf and value 0.
    cap = min(max_panels, 16)
    slots = np.zeros((n, cap, 4))
    slots[:, :, 3] = -np.inf
    halves = np.empty((n, 2, 4))  # the records of each row's split panel
    with np.errstate(all="ignore"):
        slots[:, 0, 0], slots[:, 0, 1] = a, np.where(nonempty, b, a)
        value, err = _panels(f, slots[:, :1, 0], slots[:, :1, 1], nonempty)
        slots[:, 0, 2] = np.where(nonempty, value[:, 0], 0.0)
        slots[:, 0, 3] = np.where(nonempty, err[:, 0], 0.0)
        total = slots[:, 0, 3].copy()
        count = np.ones(n, dtype=int)
        most = 1  # a bound on any problem's panel count
        while True:
            active = total > abs_tol
            r = np.flatnonzero(active)
            if not r.size:
                break
            if most >= max_panels and (count[r] >= max_panels).any():
                i = r[np.argmax(count[r] >= max_panels)]
                raise QuadratureError(
                    f"quadrature on [{a[i]}, {b[i]}] did not converge: {count[i]} panels, "
                    f"error estimate {total[i]:.3e} > tolerance {abs_tol:.3e}"
                )
            if most == cap:
                grown = np.zeros((n, cap, 4))
                grown[:, :, 3] = -np.inf
                slots = np.concatenate([slots, grown], axis=1)
                cap *= 2
            err = slots[:, :, 3]
            leftmost_worst = np.where(err == err.max(axis=1, keepdims=True), slots[:, :, 0], np.inf)
            j = leftmost_worst.argmin(axis=1)
            worst = slots[rows, j]
            halves[:, 0, 0], halves[:, 1, 1] = worst[:, 0], worst[:, 1]
            halves[:, 0, 1] = halves[:, 1, 0] = 0.5 * (worst[:, 0] + worst[:, 1])
            halves[:, :, 2], halves[:, :, 3] = _panels(f, halves[:, :, 0], halves[:, :, 1], active)
            total[r] += halves[r, 0, 3] + halves[r, 1, 3] - worst[r, 3]
            slots[r, j[r]] = halves[r, 0]
            slots[r, count[r]] = halves[r, 1]
            count[r] += 1
            most += 1
    # a running sum along each row adds its panels in slot order, whatever n is
    result = np.cumsum(slots[:, :, 2], axis=1)[:, -1]
    return float(result[0]) if scalar else result
