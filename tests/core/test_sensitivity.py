"""Tests for the Eq. 11 sensitivity analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sensitivity import (
    cell_sensitivity,
    mapping_order,
    row_sensitivity,
)


class TestCellSensitivity:
    def test_formula(self):
        w = np.array([[2.0, -3.0], [0.5, 1.0]])
        x = np.array([0.5, 1.0])
        s = cell_sensitivity(w, x)
        assert np.allclose(s, [[1.0, 1.5], [0.5, 1.0]])

    def test_zero_input_zero_sensitivity(self):
        w = np.ones((3, 2))
        x = np.array([0.0, 1.0, 0.0])
        s = cell_sensitivity(w, x)
        assert np.all(s[0] == 0) and np.all(s[2] == 0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cell_sensitivity(np.ones((3, 2)), np.ones(4))

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            cell_sensitivity(np.ones((2, 2)), np.array([-0.1, 0.5]))


class TestRowSensitivity:
    def test_sums_over_columns(self):
        w = np.array([[1.0, -1.0], [2.0, 2.0]])
        x = np.array([1.0, 0.5])
        assert np.allclose(row_sensitivity(w, x), [2.0, 2.0])


class TestMappingOrder:
    def test_most_sensitive_first(self):
        w = np.array([[0.1], [5.0], [1.0]])
        x = np.ones(3)
        assert mapping_order(w, x).tolist() == [1, 2, 0]

    def test_input_weighting_matters(self):
        w = np.array([[1.0], [1.0]])
        x = np.array([0.1, 0.9])
        assert mapping_order(w, x).tolist() == [1, 0]

    def test_ties_stable(self):
        w = np.ones((4, 1))
        x = np.ones(4)
        assert mapping_order(w, x).tolist() == [0, 1, 2, 3]

    def test_zero_rows_rank_last_in_index_order(self):
        w = np.array([[0.0], [1.0], [0.0], [2.0]])
        x = np.array([1.0, 0.5, 0.3, 0.0])
        assert mapping_order(w, x).tolist() == [1, 0, 2, 3]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            mapping_order(np.ones(3), np.ones(3))

    def test_matches_row_sensitivity_ranking_on_normal_range_data(self, rng):
        # The exponent/mantissa ranking is a pure re-encoding of the
        # sensitivities, so wherever nothing underflows it must equal
        # a stable sort of row_sensitivity bit for bit.
        for _ in range(50):
            n, m = rng.integers(1, 40), rng.integers(1, 8)
            scales = 10.0 ** rng.uniform(-150, 150, (n, 1))
            w = rng.uniform(-1, 1, (n, m)) * scales
            w[rng.random(n) < 0.2] = 0.0
            x = rng.random(n)
            x[rng.random(n) < 0.2] = 0.0
            w[n // 2:] = w[: n - n // 2]  # duplicated rows: exact ties
            x[n // 2:] = x[: n - n // 2]
            expected = np.argsort(-row_sensitivity(w, x), kind="stable")
            assert np.array_equal(mapping_order(w, x), expected)

    def test_subnormal_rows_keep_their_order(self):
        # x_i * 5e-324 rounds to 0 or 5e-324, so row_sensitivity alone
        # ties rows 0 and 2 and would rank row 0 first.
        w = np.full((3, 2), 5e-324)
        x = np.array([0.6, 0.3, 0.9])
        assert mapping_order(w, x).tolist() == [2, 0, 1]

