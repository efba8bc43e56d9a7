"""AMP sensitivity analysis (Section 4.2.1, Eq. 11).

The sensitivity of output ``y_j`` to the variation of device ``(i, j)``
is ``dy_j / d(e^theta_ij) = x_i * w_ij``: the product of the input the
device sees and the weight it stores.  Rows whose devices carry large
products demand the best-behaved physical rows; AMP orders the mapping
queue by this quantity.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cell_sensitivity", "row_sensitivity", "mapping_order"]


def cell_sensitivity(
    weights: np.ndarray, x_mean: np.ndarray
) -> np.ndarray:
    """Per-cell sensitivity ``|x_i * w_ij|`` (Eq. 11).

    Args:
        weights: Signed weight matrix ``(n, m)``.
        x_mean: Mean input activity per feature, shape ``(n,)`` --
            the expected drive each word line sees over the workload.

    Returns:
        Non-negative sensitivity matrix ``(n, m)``.
    """
    w, x = _checked(weights, x_mean)
    return np.abs(w) * x[:, None]


def _checked(
    weights: np.ndarray, x_mean: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    w = np.asarray(weights, dtype=float)
    x = np.asarray(x_mean, dtype=float)
    if w.ndim != 2 or x.shape != (w.shape[0],):
        raise ValueError(
            f"weights must be (n, m) and x_mean (n,); got {w.shape}, {x.shape}"
        )
    if np.any(x < 0):
        raise ValueError("x_mean must be non-negative (inputs are in [0, 1])")
    return w, x


def row_sensitivity(weights: np.ndarray, x_mean: np.ndarray) -> np.ndarray:
    """Total sensitivity of each weight row: ``x_i * sum_j |w_ij|``."""
    return cell_sensitivity(weights, x_mean).sum(axis=1)


def mapping_order(weights: np.ndarray, x_mean: np.ndarray) -> np.ndarray:
    """Row indices in decreasing sensitivity (the greedy queue order).

    "The mapping starts with the row of W with the largest device
    variation sensitivity calculated in Eq. (11)" (Section 4.2.2).
    Ties break toward the lower row index for determinism.

    Each weight row and each input is first rescaled by an exact power
    of two that puts its peak magnitude in [1, 2), and rows are ranked
    by the rescaled sensitivity's binary exponent and mantissa with
    the scale factors taken back out.  On normal-range data this is
    the same order as ranking :func:`row_sensitivity` directly (the
    rescaling multiplies every product and row sum exactly), but tiny
    weights never reach the subnormal range, where ``x_i * |w_ij|``
    would round rows that differ onto ties or past each other -- and a
    uniform gain on ``w`` or ``x`` would then change the order.
    """
    w, x = _checked(weights, x_mean)
    w_shift = _unit_exponent_shift(np.max(np.abs(w), axis=1, initial=0.0))
    x_shift = _unit_exponent_shift(x)
    sens = row_sensitivity(
        np.ldexp(w, w_shift[:, None]), np.ldexp(x, x_shift)
    )
    zero = sens == 0
    mantissa, exponent = np.frexp(sens)
    exponent = np.where(zero, 0, exponent - w_shift - x_shift)
    # lexsort is stable and its last key is primary: nonzero rows
    # first, then decreasing exponent, decreasing mantissa, and
    # ascending row index.
    return np.lexsort((-mantissa, -exponent, zero))


def _unit_exponent_shift(peaks: np.ndarray) -> np.ndarray:
    """Per-entry power-of-two exponent moving ``|peaks|`` into [1, 2).

    Zero and non-finite entries get a shift of 0.
    """
    peaks = np.abs(peaks)
    scalable = np.isfinite(peaks) & (peaks > 0)
    _, exponent = np.frexp(np.where(scalable, peaks, 1.0))
    return 1 - exponent.astype(np.int64)
