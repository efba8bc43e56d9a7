"""Tests for training/test-rate metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.metrics import rate_from_scores


class TestRateFromScores:
    def test_perfect(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert rate_from_scores(scores, np.array([0, 1])) == 1.0

    def test_partial(self):
        scores = np.array([[0.9, 0.1], [0.9, 0.1]])
        assert rate_from_scores(scores, np.array([0, 1])) == 0.5

    def test_shape_validated(self):
        with pytest.raises(ValueError, match="one row"):
            rate_from_scores(np.ones((3, 2)), np.array([0, 1]))
