"""Tests for image under-sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.sampling import undersample, undersample_flat


class TestUndersample:
    def test_block_average_exact(self):
        img = np.array([[1.0, 1.0, 0.0, 0.0],
                        [1.0, 1.0, 0.0, 0.0],
                        [0.0, 0.0, 2.0, 2.0],
                        [0.0, 0.0, 2.0, 2.0]])
        out = undersample(img, 2)
        assert np.array_equal(out, [[1.0, 0.0], [0.0, 2.0]])

    def test_batch_shape(self, rng):
        imgs = rng.random((5, 28, 28))
        assert undersample(imgs, 14).shape == (5, 14, 14)

    def test_identity_when_target_equals_size(self, rng):
        imgs = rng.random((2, 8, 8))
        assert np.allclose(undersample(imgs, 8), imgs)

    def test_indivisible_target_rejected(self, rng):
        with pytest.raises(ValueError, match="divide"):
            undersample(rng.random((2, 28, 28)), 13)

    def test_nonsquare_rejected(self, rng):
        with pytest.raises(ValueError, match="square"):
            undersample(rng.random((2, 28, 14)), 7)

    @given(st.integers(min_value=1, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_mean_preserved(self, factor):
        rng = np.random.default_rng(0)
        size = 4 * factor
        imgs = rng.random((3, size, size))
        out = undersample(imgs, 4)
        assert np.mean(out) == pytest.approx(np.mean(imgs), rel=1e-9)


class TestUndersampleFlat:
    def test_matches_2d_path(self, rng):
        imgs = rng.random((4, 28, 28))
        flat = imgs.reshape(4, -1)
        out = undersample_flat(flat, 28, 7)
        expected = undersample(imgs, 7).reshape(4, -1)
        assert np.allclose(out, expected)

    def test_single_vector(self, rng):
        img = rng.random(28 * 28)
        out = undersample_flat(img, 28, 14)
        assert out.shape == (196,)

    def test_wrong_width_rejected(self, rng):
        with pytest.raises(ValueError, match="width"):
            undersample_flat(rng.random((2, 100)), 28, 14)
