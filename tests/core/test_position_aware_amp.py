"""Tests for the position-aware AMP extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CrossbarConfig, SensingConfig, VariationConfig
from repro.core.amp import row_read_factors, run_amp
from repro.core.base import HardwareSpec, build_pair, hardware_test_rate
from repro.core.old import OLDConfig, program_pair_open_loop, train_old
from repro.core.swv import position_cost
from repro.nn.gdt import GDTConfig
from repro.xbar.mapping import WeightScaler


class TestPositionCost:
    def test_outer_product_form(self):
        cost = position_cost(np.array([2.0, 1.0]),
                             np.array([0.5, 1.0, 0.8]))
        assert cost.shape == (2, 3)
        assert cost[0, 0] == pytest.approx(1.0)
        assert cost[0, 1] == pytest.approx(0.0)
        assert cost[1, 2] == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError, match="1-D"):
            position_cost(np.ones((2, 2)), np.ones(3))
        with pytest.raises(ValueError, match="factors"):
            position_cost(np.ones(2), np.array([0.0, 0.5]))


class TestRowReadFactors:
    def test_no_wire_gives_ones(self, rng):
        spec = HardwareSpec(
            variation=VariationConfig(sigma=0.0, sigma_cycle=0.0),
            crossbar=CrossbarConfig(rows=16, cols=4, r_wire=0.0),
        )
        pair = build_pair(spec, WeightScaler(1.0), rng)
        factors = row_read_factors(pair, np.ones((16, 4)), np.full(16, 0.5))
        assert np.all(factors == 1.0)

    def test_far_rows_attenuate_more(self, rng):
        spec = HardwareSpec(
            variation=VariationConfig(sigma=0.0, sigma_cycle=0.0),
            crossbar=CrossbarConfig(rows=64, cols=4, r_wire=2.5),
        )
        pair = build_pair(spec, WeightScaler(1.0), rng)
        factors = row_read_factors(
            pair, 0.3 * np.ones((64, 4)), np.full(64, 0.5)
        )
        # Bit lines are driven from the bottom (last row).
        assert factors[-1] > factors[0]
        assert np.all(factors > 0) and np.all(factors <= 1)


class TestPositionAwareMapping:
    def test_negative_weight_rejected(self, rng):
        spec = HardwareSpec(
            variation=VariationConfig(sigma=0.2, sigma_cycle=0.0),
            crossbar=CrossbarConfig(rows=8, cols=10, r_wire=0.0),
        )
        pair = build_pair(spec, WeightScaler(1.0), rng)
        with pytest.raises(ValueError, match="position_weight"):
            run_amp(pair, np.ones((8, 10)), np.ones(8),
                    position_weight=-1.0)

    def test_zero_weight_reproduces_plain_algorithm(self, rng):
        spec = HardwareSpec(
            variation=VariationConfig(sigma=0.5, sigma_cycle=0.0),
            crossbar=CrossbarConfig(rows=24, cols=10, r_wire=2.5),
        )
        pair = build_pair(spec, WeightScaler(1.0), rng)
        w = rng.uniform(-1, 1, (20, 10))
        x_mean = rng.random(20)
        plain = run_amp(pair, w, x_mean, SensingConfig(adc_bits=8))
        aware = run_amp(pair, w, x_mean, SensingConfig(adc_bits=8),
                        pretest=plain.pretest, position_weight=0.0)
        assert np.array_equal(plain.mapping.assignment,
                              aware.mapping.assignment)

    def test_awareness_prefers_near_driver_rows(self, rng):
        # With negligible variation the plain algorithm is indifferent
        # to position; the aware variant must place the (only)
        # sensitive row near the bit-line driver.
        spec = HardwareSpec(
            variation=VariationConfig(sigma=0.01, sigma_cycle=0.0),
            crossbar=CrossbarConfig(rows=32, cols=10, r_wire=5.0),
        )
        pair = build_pair(spec, WeightScaler(1.0), rng)
        w = np.full((8, 10), 0.05)
        w[3] = 1.0  # one dominant row
        x_mean = np.full(8, 0.5)
        aware = run_amp(pair, w, x_mean, SensingConfig(adc_bits=8),
                        position_weight=1.0)
        # The dominant row lands in the near-driver (high-index) half.
        assert aware.mapping.assignment[3] >= 16

    def test_improves_hardware_rate_under_read_ir(self, small_dataset):
        ds = small_dataset
        n = ds.n_features
        weights = train_old(
            ds.x_train, ds.y_train, 10, OLDConfig(gdt=GDTConfig(epochs=80))
        ).weights
        x_mean = ds.x_train.mean(axis=0)
        spec = HardwareSpec(
            variation=VariationConfig(sigma=0.3),
            crossbar=CrossbarConfig(rows=n, cols=10, r_wire=4.0),
        )
        gains = []
        for seed in range(3):
            rng = np.random.default_rng(300 + seed)
            pair = build_pair(spec, WeightScaler(1.0), rng, rows=n + 32)
            plain = run_amp(pair, weights, x_mean,
                            SensingConfig(adc_bits=8), rng=rng)
            aware = run_amp(pair, weights, x_mean,
                            SensingConfig(adc_bits=8),
                            pretest=plain.pretest, position_weight=1.0)
            rates = {}
            for name, amp in (("plain", plain), ("aware", aware)):
                program_pair_open_loop(
                    pair, amp.mapping.weights_to_physical(weights),
                    x_reference=amp.mapping.inputs_to_physical(x_mean),
                )
                rates[name] = hardware_test_rate(
                    pair, ds.x_test, ds.y_test, "nodal",
                    input_map=amp.mapping.inputs_to_physical,
                )
            gains.append(rates["aware"] - rates["plain"])
        assert np.mean(gains) > -0.01  # never substantially worse
