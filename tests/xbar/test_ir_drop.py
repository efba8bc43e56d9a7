"""Tests for the fast IR-drop models against ground truth."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import solve_banded

from repro.xbar.ir_drop import (
    _ladder_banded,
    _ladder_inverse_diag,
    column_ladder_solve,
    program_column_factors,
    program_factors,
    program_row_factors,
    read_attenuation_reference,
    read_column_gains,
    read_output_currents,
)
from repro.xbar.nodal import CrossbarNetwork


def _dense_ladder(g_devices, g_wire):
    ab = _ladder_banded(np.asarray(g_devices, float), g_wire)
    n = g_devices.size
    dense = np.zeros((n, n))
    for i in range(n):
        dense[i, i] = ab[1, i]
        if i > 0:
            dense[i, i - 1] = -g_wire
        if i < n - 1:
            dense[i, i + 1] = -g_wire
    return dense


class TestLadderPrimitives:
    def test_solve_matches_dense(self, rng):
        g = 10 ** rng.uniform(-6, -4, 40)
        p = rng.uniform(0, 2, 40)
        v = column_ladder_solve(g, p, 2.5, 0.3)
        dense = _dense_ladder(g, 0.4)
        rhs = g * p
        rhs[-1] += 0.4 * 0.3
        assert np.allclose(v, np.linalg.solve(dense, rhs), rtol=1e-10)

    def test_inverse_diag_matches_dense_inverse(self, rng):
        g = 10 ** rng.uniform(-6, -4, 60)
        inv_diag = _ladder_inverse_diag(g, 0.4)
        dense = _dense_ladder(g, 0.4)
        assert np.allclose(inv_diag, np.diag(np.linalg.inv(dense)),
                           rtol=1e-9)

    def test_inverse_diag_stable_for_long_ladders(self):
        # The minor recurrence underflows at this length; the pivot
        # formula must not.
        g = np.full(2000, 1e-5)
        inv_diag = _ladder_inverse_diag(g, 0.4)
        assert np.all(np.isfinite(inv_diag))
        assert np.all(inv_diag > 0)

    def test_solve_validates_inputs(self):
        with pytest.raises(ValueError, match="equal-length"):
            column_ladder_solve(np.ones(3), np.ones(4), 1.0)
        with pytest.raises(ValueError, match="r_wire"):
            column_ladder_solve(np.ones(3), np.ones(3), 0.0)

    def test_banded_solve_consistency(self, rng):
        # solve_banded round trip for the same ab matrix.
        g = 10 ** rng.uniform(-6, -4, 30)
        ab = _ladder_banded(g, 0.4)
        x = rng.random(30)
        dense = _dense_ladder(g, 0.4)
        assert np.allclose(
            solve_banded((1, 1), ab, dense @ x), x, rtol=1e-8
        )


class TestProgramFactors:
    def test_matches_nodal_ground_truth(self):
        g = np.full((48, 6), 1e-4)
        factors = program_column_factors(g, 2.5, 2.9)
        net = CrossbarNetwork(g, 2.5)
        for row in (0, 24, 47):
            exact = net.program_voltages(row, 2, 2.9).device_voltage[row, 2]
            approx = 2.9 * (
                factors[row, 2] + program_row_factors(g, 2.5, 2.9)[row, 2]
                - 1.0
            )
            assert approx == pytest.approx(exact, rel=0.02)

    def test_zero_wire_resistance_gives_unity(self):
        g = np.full((8, 4), 1e-4)
        assert np.all(program_column_factors(g, 0.0, 2.9) == 1.0)
        assert np.all(program_row_factors(g, 0.0, 2.9) == 1.0)

    def test_vertical_factors_increase_toward_driver(self):
        # The bit line is driven from the bottom (row n-1): delivered
        # voltage improves toward it (Fig. 3c).
        g = np.full((64, 4), 1e-4)
        factors = program_column_factors(g, 2.5, 2.9)
        assert factors[-1, 0] > factors[0, 0]

    def test_row_factors_decrease_rightward(self):
        g = np.full((16, 8), 1e-4)
        factors = program_row_factors(g, 2.5, 2.9)
        assert np.all(np.diff(factors[0]) < 0)

    def test_skew_grows_with_height(self):
        skews = []
        for n in (32, 64, 128):
            g = np.full((n, 4), 1e-4)
            decomposition = program_factors(g, 2.5, 2.9)
            skews.append(decomposition.d_skew.max())
        assert skews[0] < skews[1] < skews[2]

    def test_lighter_loading_reduces_skew(self):
        lrs = program_factors(np.full((64, 4), 1e-4), 2.5, 2.9)
        hrs = program_factors(np.full((64, 4), 1e-6), 2.5, 2.9)
        assert hrs.d_skew.max() < lrs.d_skew.max()

    def test_beta_below_unity(self):
        decomposition = program_factors(np.full((32, 8), 1e-4), 2.5, 2.9)
        assert np.all(decomposition.beta < 1.0)
        assert np.all(decomposition.beta > 0.0)


class TestReadModels:
    def test_fixed_point_matches_nodal(self, rng):
        g = 10 ** rng.uniform(-6, -4, (48, 8))
        x = rng.random(48)
        net = CrossbarNetwork(g, 2.5)
        exact = net.read(x, 1.0)
        fast = read_output_currents(g, x, 2.5, 1.0)
        assert np.allclose(fast, exact, rtol=0.02)

    def test_zero_wire_is_exact_product(self, rng):
        g = 10 ** rng.uniform(-6, -4, (16, 4))
        x = rng.random(16)
        assert np.allclose(read_output_currents(g, x, 0.0), x @ g)

    def test_batch_matches_loop(self, rng):
        g = 10 ** rng.uniform(-6, -4, (20, 5))
        xb = rng.random((7, 20))
        batched = read_output_currents(g, xb, 2.5)
        looped = np.stack(
            [read_output_currents(g, row, 2.5) for row in xb]
        )
        assert np.allclose(batched, looped)

    def test_chunking_invariant(self, rng):
        g = 10 ** rng.uniform(-6, -4, (20, 5))
        xb = rng.random((9, 20))
        a = read_output_currents(g, xb, 2.5, chunk=3)
        b = read_output_currents(g, xb, 2.5, chunk=256)
        assert np.allclose(a, b)

    def test_input_width_validated(self, rng):
        g = 10 ** rng.uniform(-6, -4, (20, 5))
        with pytest.raises(ValueError, match="width"):
            read_output_currents(g, np.ones(7), 2.5)

    def test_column_gains_predict_nodal_outputs(self, rng):
        g = 10 ** rng.uniform(-6, -4, (48, 8))
        x_ref = rng.random(48) * 0.3
        gains = read_column_gains(g, x_ref, 2.5, 1.0)
        net = CrossbarNetwork(g, 2.5)
        exact = net.read(x_ref, 1.0)
        assert np.allclose((x_ref @ g) * gains, exact, rtol=0.02)

    def test_column_gains_in_unit_interval(self, rng):
        g = 10 ** rng.uniform(-6, -4, (32, 6))
        gains = read_column_gains(g, rng.random(32), 2.5)
        assert np.all(gains > 0) and np.all(gains <= 1)

    def test_column_gains_zero_wire(self, rng):
        g = 10 ** rng.uniform(-6, -4, (8, 3))
        assert np.all(read_column_gains(g, rng.random(8), 0.0) == 1.0)

    def test_per_cell_reference_factors_shape(self, rng):
        g = 10 ** rng.uniform(-6, -4, (16, 4))
        factors = read_attenuation_reference(g, rng.random(16), 2.5)
        assert factors.shape == (16, 4)
        assert np.all(factors > 0) and np.all(factors <= 1)
