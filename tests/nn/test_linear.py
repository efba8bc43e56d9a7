"""Tests for the linear one-vs-all classifier."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.linear import add_bias_feature, one_vs_all_targets


class TestOneVsAll:
    def test_encoding(self):
        y = one_vs_all_targets(np.array([0, 2, 1]), 3)
        expected = np.array(
            [[1, -1, -1], [-1, -1, 1], [-1, 1, -1]], dtype=float
        )
        assert np.array_equal(y, expected)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError, match="labels"):
            one_vs_all_targets(np.array([0, 3]), 3)
        with pytest.raises(ValueError, match="labels"):
            one_vs_all_targets(np.array([-1]), 3)

    def test_rejects_2d_labels(self):
        with pytest.raises(ValueError, match="1-D"):
            one_vs_all_targets(np.zeros((2, 2), dtype=int), 3)


class TestBiasFeature:
    def test_vector(self):
        out = add_bias_feature(np.array([1.0, 2.0]))
        assert np.array_equal(out, [1.0, 2.0, 1.0])

    def test_batch(self):
        out = add_bias_feature(np.zeros((3, 2)), value=0.5)
        assert out.shape == (3, 3)
        assert np.all(out[:, -1] == 0.5)
