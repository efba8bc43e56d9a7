"""Training-rate / test-rate metrics.

The paper quantifies robustness as the *test rate*: "The probability of
successfully classifying the test samples" by the trained NCS
(Section 2.2.3).  The *training rate* is the same quantity on the
training samples.  Both are plain classification accuracies of the
argmax decision; the hardware enters through whichever score function
is evaluated (software weights, variation-injected weights, or a full
hardware read path).
"""

from __future__ import annotations

import numpy as np

__all__ = ["rate_from_scores"]


def rate_from_scores(scores: np.ndarray, labels: np.ndarray) -> float:
    """Accuracy of argmax decisions over a score matrix ``(s, m)``."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    if scores.ndim != 2 or scores.shape[0] != labels.size:
        raise ValueError("scores must be (s, m) with one row per label")
    return float(np.mean(np.argmax(scores, axis=1) == labels))
