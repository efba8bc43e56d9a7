"""Image under-sampling for the crossbar-size experiments.

Section 5.4 scales the classifier to smaller crossbars by sampling the
benchmark images from 28x28 down to 14x14 and 7x7 pixels ("Benchmark
may need to be under-sampled to fit into the memristor crossbars with
difference sizes").  Block-average pooling is the natural model of the
analog down-sampling front-end.
"""

from __future__ import annotations

import numpy as np

__all__ = ["undersample", "undersample_flat"]


def undersample(images: np.ndarray, target: int) -> np.ndarray:
    """Block-average pooling of square images to ``target x target``.

    Args:
        images: Array of shape ``(s, d, d)`` (or a single ``(d, d)``).
        target: Output side length; must divide ``d``.

    Returns:
        Pooled images of shape ``(s, target, target)``.
    """
    images = np.asarray(images, dtype=float)
    single = images.ndim == 2
    if single:
        images = images[None]
    if images.ndim != 3 or images.shape[1] != images.shape[2]:
        raise ValueError("images must be square, shape (s, d, d)")
    d = images.shape[1]
    if target < 1 or d % target != 0:
        raise ValueError(f"target {target} must divide image size {d}")
    block = d // target
    pooled = images.reshape(-1, target, block, target, block).mean(axis=(2, 4))
    return pooled[0] if single else pooled


def undersample_flat(x: np.ndarray, original: int, target: int) -> np.ndarray:
    """Under-sample flattened feature vectors.

    Args:
        x: Features of shape ``(s, original*original)`` or
            ``(original*original,)``.
        original: Source side length.
        target: Output side length (divides ``original``).

    Returns:
        Flattened pooled features, ``(s, target*target)``.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None]
    if x.shape[1] != original * original:
        raise ValueError(
            f"feature width {x.shape[1]} != {original}*{original}"
        )
    images = x.reshape(-1, original, original)
    pooled = undersample(images, target).reshape(x.shape[0], -1)
    return pooled[0] if single else pooled
