"""Encoding for the one-vs-all linear classifier (the paper's network model).

The NCS implements a two-layer network: the input layer drives the
crossbar rows and the ten output currents directly score the ten digit
classes ("1 vs. all", Section 4.1.1).  Functionally this is a linear
classifier ``scores = x @ W`` with prediction ``argmax``; the bias is
realised as an always-on input row appended to the feature vector, the
standard crossbar idiom.
"""

from __future__ import annotations

import numpy as np

__all__ = ["one_vs_all_targets", "add_bias_feature"]


def add_bias_feature(x: np.ndarray, value: float = 1.0) -> np.ndarray:
    """Append a constant (always-on) feature column.

    In crossbar hardware the bias weight occupies one extra row whose
    word line is tied to the read voltage.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return np.concatenate([x, [value]])
    return np.concatenate(
        [x, np.full((x.shape[0], 1), value, dtype=float)], axis=1
    )


def one_vs_all_targets(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Encode integer labels as a {-1, +1} one-vs-all target matrix.

    ``Y[i, r] = +1`` iff sample ``i`` belongs to class ``r`` (Eq. 3's
    ``y_r`` convention).
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D integer array")
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ValueError(f"labels must lie in [0, {n_classes})")
    y = -np.ones((labels.size, n_classes))
    y[np.arange(labels.size), labels] = 1.0
    return y
