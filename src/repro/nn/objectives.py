"""Training objectives: the conventional and robust hinge losses.

The paper trains each output column as a "1 vs. all" hinge problem
(Eq. 3):

    min sum_i eps_i   s.t.  y_i * (x_i . w) >= 1 - eps_i,  eps_i >= 0

i.e. the standard hinge loss ``max(0, 1 - y * (x . w))``.  VAT adds the
variation penalty (Eqs. 6-10): under the linearised lognormal model the
worst-case output deviation is bounded by ``rho * ||x (.) w||_2``
(Cauchy-Schwarz on Eq. 7), giving the robust hinge

    max(0, 1 - y * (x . w) + gamma * rho * ||x (.) w||_2).

Both losses and their (sub)gradients are vectorised over all output
columns simultaneously: ``X (s, n)``, ``W (n, m)``, ``Y (s, m)`` in
{-1, +1}.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "hinge_loss",
    "hinge_gradient",
    "robust_hinge_loss",
    "robust_hinge_gradient",
    "variation_penalty",
]

_EPS = 1e-12


def _validate(x: np.ndarray, w: np.ndarray, y: np.ndarray) -> None:
    if x.ndim != 2 or w.ndim != 2 or y.ndim != 2:
        raise ValueError("X, W, Y must all be 2-D")
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"X width {x.shape[1]} != W rows {w.shape[0]}")
    if y.shape != (x.shape[0], w.shape[1]):
        raise ValueError(
            f"Y shape {y.shape} != (samples, columns) "
            f"{(x.shape[0], w.shape[1])}"
        )


def _forward(
    x: np.ndarray,
    x2: np.ndarray,
    w: np.ndarray,
    y: np.ndarray,
    penalty_scale: float,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Margins ``y * (x . w)`` and penalty norms at ``w``.

    The one forward pass that both the loss and the subgradient read.
    ``x2`` is ``x * x``, so a trainer can square its inputs once; the
    penalty norm is skipped (``None``) at ``penalty_scale == 0``, where
    it would only ever be multiplied by zero.
    """
    margin = y * (x @ w)
    if penalty_scale == 0:
        return margin, None
    return margin, _penalty_norm(x2, w)


def _loss(
    margin: np.ndarray, pen_norm: np.ndarray | None, penalty_scale: float
) -> float:
    """Column-summed sample mean of the (robust) hinge at a forward."""
    slack = 1.0 - margin
    if pen_norm is not None:
        slack = slack + penalty_scale * pen_norm
    return float(np.mean(np.sum(np.maximum(0.0, slack), axis=1)))


def _gradient(
    x: np.ndarray,
    x2: np.ndarray,
    w: np.ndarray,
    y: np.ndarray,
    margin: np.ndarray,
    pen_norm: np.ndarray | None,
    penalty_scale: float,
) -> np.ndarray:
    """Subgradient of :func:`_loss` w.r.t. ``W`` from the same forward.

    For an active sample/column the penalty contributes
    ``penalty_scale * (x^2 (.) w) / ||x (.) w||_2``.
    """
    s = x.shape[0]
    if pen_norm is None:
        active = (margin < 1.0).astype(float)
        return -(x.T @ (active * y)) / s
    active = (margin < 1.0 + penalty_scale * pen_norm).astype(float)
    grad = -(x.T @ (active * y)) / s
    # d/dW of ||x (.) w||_2 summed over active samples.
    weights = active / pen_norm  # (s, m)
    return grad + penalty_scale * (x2.T @ weights) * w / s


def _penalty_norm(x2: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.sqrt(x2 @ (w * w) + _EPS)


def _check_scale(penalty_scale: float) -> None:
    if not penalty_scale >= 0:
        raise ValueError(f"penalty_scale must be >= 0, got {penalty_scale}")


def hinge_loss(x: np.ndarray, w: np.ndarray, y: np.ndarray) -> float:
    """Hinge loss: mean over samples of the per-column sums (Eq. 3).

    Eq. 3 minimises ``sum_i eps_i`` independently per column; the
    column problems are summed here (they share no weights) and the
    sample mean keeps the value comparable across dataset sizes.
    """
    return robust_hinge_loss(x, w, y, 0.0)


def hinge_gradient(x: np.ndarray, w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Subgradient of the mean hinge loss w.r.t. ``W``."""
    return robust_hinge_gradient(x, w, y, 0.0)


def variation_penalty(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-sample, per-column penalty term ``||x (.) w||_2`` (Eq. 7).

    ``V^(i)`` in the paper is the element-wise product of the input
    vector with the column weights; its 2-norm bounds the variation-
    induced output deviation via Cauchy-Schwarz.

    Returns:
        Array of shape ``(samples, columns)``.
    """
    return _penalty_norm(x * x, w)


def robust_hinge_loss(
    x: np.ndarray, w: np.ndarray, y: np.ndarray, penalty_scale: float
) -> float:
    """Robust hinge loss (Eq. 10 objective), column-summed sample mean.

    Args:
        x: Inputs ``(s, n)``.
        w: Weights ``(n, m)``.
        y: Targets in {-1, +1}, ``(s, m)``.
        penalty_scale: The combined coefficient ``gamma * rho`` (with
            ``alpha_0 = alpha_1 = 1`` from the first-order expansion of
            ``exp(theta)``).
    """
    _validate(x, w, y)
    _check_scale(penalty_scale)
    return _loss(*_forward(x, x * x, w, y, penalty_scale), penalty_scale)


def robust_hinge_gradient(
    x: np.ndarray, w: np.ndarray, y: np.ndarray, penalty_scale: float
) -> np.ndarray:
    """Subgradient of the mean robust hinge loss w.r.t. ``W``.

    For an active sample/column the penalty contributes
    ``penalty_scale * (x^2 (.) w) / ||x (.) w||_2``.
    """
    _validate(x, w, y)
    _check_scale(penalty_scale)
    x2 = x * x
    margin, pen_norm = _forward(x, x2, w, y, penalty_scale)
    return _gradient(x, x2, w, y, margin, pen_norm, penalty_scale)
