"""Tests for the greedy and optimal mapping algorithms."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.greedy import greedy_mapping, optimal_mapping


def brute_force_cost(swv):
    """Minimum assignment cost by exhaustive search."""
    n, m = swv.shape
    best = np.inf
    for perm in itertools.permutations(range(m), n):
        cost = sum(swv[i, q] for i, q in enumerate(perm))
        best = min(best, cost)
    return best


class TestGreedy:
    def test_injective_assignment(self, rng):
        swv = rng.random((6, 6))
        a = greedy_mapping(swv)
        assert len(set(a.tolist())) == 6

    def test_picks_cheapest_for_first_row(self):
        swv = np.array([[3.0, 1.0, 2.0], [1.0, 1.0, 1.0]])
        a = greedy_mapping(swv, order=np.array([0, 1]))
        assert a[0] == 1

    def test_order_changes_result(self):
        swv = np.array([[1.0, 5.0], [1.0, 5.0]])
        a01 = greedy_mapping(swv, order=np.array([0, 1]))
        a10 = greedy_mapping(swv, order=np.array([1, 0]))
        assert a01[0] == 0 and a01[1] == 1
        assert a10[1] == 0 and a10[0] == 1

    def test_redundant_columns_used(self):
        swv = np.array([[5.0, 5.0, 0.1]])
        assert greedy_mapping(swv)[0] == 2

    def test_insufficient_rows_rejected(self):
        with pytest.raises(ValueError, match="physical rows"):
            greedy_mapping(np.ones((4, 3)))

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            greedy_mapping(np.ones((3, 3)), order=np.array([0, 0, 2]))

    @given(
        arrays(
            float, (4, 6),
            elements=st.floats(min_value=0, max_value=10),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_greedy_always_injective(self, swv):
        a = greedy_mapping(swv)
        assert len(set(a.tolist())) == 4
        assert np.all(a >= 0) and np.all(a < 6)


class TestOptimal:
    def test_matches_brute_force(self, rng):
        for _ in range(5):
            swv = rng.random((4, 5))
            a = optimal_mapping(swv)
            cost = swv[np.arange(4), a].sum()
            assert cost == pytest.approx(brute_force_cost(swv))

    @given(
        arrays(
            float, (4, 5),
            elements=st.floats(min_value=0, max_value=10),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_optimal_never_worse_than_greedy(self, swv):
        greedy_cost = swv[np.arange(4), greedy_mapping(swv)].sum()
        optimal_cost = swv[np.arange(4), optimal_mapping(swv)].sum()
        assert optimal_cost <= greedy_cost + 1e-9
