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
{-1, +1}.  The private forward/gradient helpers also evaluate a stack
of such problems sharing ``X``, laid side by side as one column block
(:func:`repro.nn.gdt.train_gdt_stacked`).
"""

from __future__ import annotations

import functools

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
    pen_scale: np.ndarray | None,
    width: int,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Margins ``y * (x . w)``, penalty norms and scaled penalty norms.

    The one forward pass that both the loss and the subgradient read.
    ``x2`` is ``x * x``, so a trainer can square its inputs once.  ``w``
    is a block of problems ``width`` columns wide (see
    :func:`_sliced_product`); ``pen_scale`` holds the penalty scale of
    each of the block's first ``pen_scale.size`` columns, and only
    those carry a penalty.  Without one (``None``) the norms are
    skipped, where they would only ever be multiplied by zero.
    """
    margin = y * _sliced_product(x, w, width)
    if pen_scale is None:
        return margin, None, None
    pen_norm = _penalty_norm(x2, w[:, :pen_scale.size], width)
    return margin, pen_norm, pen_scale * pen_norm


def _hinge(margin: np.ndarray, pen: np.ndarray | None) -> np.ndarray:
    """Per-sample, per-column (robust) hinge at a forward."""
    slack = 1.0 - margin
    if pen is not None:
        slack[:, :pen.shape[1]] += pen
    return np.maximum(0.0, slack)


def _loss(hinge: np.ndarray) -> float:
    """Column-summed sample mean of one problem's hinge."""
    return float(np.mean(np.sum(hinge, axis=1)))


def _gradient(
    x: np.ndarray,
    x2: np.ndarray,
    w: np.ndarray,
    y: np.ndarray,
    margin: np.ndarray,
    pen_norm: np.ndarray | None,
    pen: np.ndarray | None,
    pen_scale: np.ndarray | None,
    width: int,
) -> np.ndarray:
    """Subgradient of the hinge w.r.t. ``W`` from the same forward.

    For an active sample/column the penalty contributes
    ``penalty_scale * (x^2 (.) w) / ||x (.) w||_2``.
    """
    s = x.shape[0]
    active = margin < 1.0
    if pen is not None:
        p = pen.shape[1]
        active[:, :p] = margin[:, :p] < 1.0 + pen
    active = active.astype(float)
    grad = -_sliced_product(x.T, active * y, width) / s
    if pen is not None:
        # d/dW of ||x (.) w||_2 summed over active samples.
        weights = active[:, :p] / pen_norm
        grad[:, :p] += pen_scale * _sliced_product(
            x2.T, weights, width
        ) * w[:, :p] / s
    return grad


def _penalty_norm(x2: np.ndarray, w: np.ndarray, width: int) -> np.ndarray:
    return np.sqrt(_sliced_product(x2, w * w, width) + _EPS)


def _column_scales(penalty_scale: float, m: int) -> np.ndarray | None:
    """``pen_scale`` of one ``m``-column problem (``None`` unpenalised)."""
    return None if penalty_scale == 0 else np.full(m, penalty_scale)


def _sliced_product(a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """``a @ b`` for a block ``b`` of problems ``width`` columns wide.

    Each ``width``-column slice of the result is bit-identical to ``a``
    times that slice alone, as a C-ordered array (``b`` is C-ordered,
    as the trainers keep their blocks): one wide BLAS product where
    :func:`_wide_product_exact` has shown the library computes it that
    way at this shape, one product per slice otherwise.
    """
    k = b.shape[1] // width
    if k == 1 or _wide_product_exact(a.shape, a.strides, width, k):
        return a @ b
    return np.hstack([
        a @ b[:, j:j + width].copy() for j in range(0, b.shape[1], width)
    ])


@functools.lru_cache(maxsize=256)
def _wide_product_exact(
    a_shape: tuple[int, int], a_strides: tuple[int, int], width: int, k: int
) -> bool:
    """Whether BLAS computes each slice of a wide product as it alone.

    A BLAS ``@`` picks its kernel and blocking from the operand shapes
    and strides, so a column of ``a @ b`` need not carry the bits of
    the same column computed in a narrower product (OpenBLAS, for one,
    switches to a small-matrix kernel below a size threshold).  The
    kernels do not branch on values, so products of random operands of
    the same shapes and strides answer for every product of that shape
    in this process.  The operands span many binades, so a different
    summation order shows in almost every output, and small products
    are drawn repeatedly until some 4096 outputs have been compared.
    An ``a`` that is neither C- nor F-ordered is not checked and always
    runs slice by slice.
    """
    rows, cols = a_shape
    if a_strides not in ((cols * 8, 8), (8, rows * 8)):
        return False
    rng = np.random.default_rng(0)
    draws = min(64, -(-4096 // (rows * width * k)))
    for _ in range(draws):
        if a_strides == (cols * 8, 8):
            a = _spread(rng, a_shape)
        else:
            a = _spread(rng, (cols, rows)).T
        b = _spread(rng, (cols, width * k))
        wide = a @ b
        for j in range(0, width * k, width):
            if not np.array_equal(
                wide[:, j:j + width], a @ b[:, j:j + width].copy()
            ):
                return False
    return True


def _spread(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.standard_normal(shape) * np.exp2(rng.integers(-30, 30, shape))


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
    return _penalty_norm(x * x, w, w.shape[1])


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
    m = w.shape[1]
    margin, _, pen = _forward(
        x, x * x, w, y, _column_scales(penalty_scale, m), m
    )
    return _loss(_hinge(margin, pen))


def robust_hinge_gradient(
    x: np.ndarray, w: np.ndarray, y: np.ndarray, penalty_scale: float
) -> np.ndarray:
    """Subgradient of the mean robust hinge loss w.r.t. ``W``.

    For an active sample/column the penalty contributes
    ``penalty_scale * (x^2 (.) w) / ||x (.) w||_2``.
    """
    _validate(x, w, y)
    _check_scale(penalty_scale)
    x2, m = x * x, w.shape[1]
    pen_scale = _column_scales(penalty_scale, m)
    forward = _forward(x, x2, w, y, pen_scale, m)
    return _gradient(x, x2, w, y, *forward, pen_scale, m)
