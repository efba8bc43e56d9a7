"""Tests for the shared hardware spec and evaluation harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CrossbarConfig, SensingConfig, VariationConfig
from repro.core.base import (
    HardwareSpec,
    build_pair,
    hardware_test_rate,
)
from repro.xbar.mapping import WeightScaler


class TestHardwareSpec:
    def test_with_rows(self):
        spec = HardwareSpec().with_rows(123)
        assert spec.crossbar.rows == 123

    def test_diff_adc_sizing(self):
        spec = HardwareSpec(
            crossbar=CrossbarConfig(rows=100, cols=10, r_wire=0.0),
            sensing=SensingConfig(adc_bits=6),
            score_headroom=0.02,
        )
        adc = spec.diff_adc()
        assert adc is not None
        assert adc.bipolar
        expected_fs = 1.0 * spec.device.g_range * 100 * 0.02
        assert adc.full_scale == pytest.approx(expected_fs)

    def test_diff_adc_disabled(self):
        spec = HardwareSpec(quantize_read=False)
        assert spec.diff_adc() is None

    def test_pretest_adc_covers_one_device(self):
        spec = HardwareSpec()
        adc = spec.pretest_adc()
        assert adc.full_scale == pytest.approx(
            spec.crossbar.v_read * spec.device.g_on
        )


class TestBuildPair:
    def test_row_override(self, rng):
        spec = HardwareSpec(
            crossbar=CrossbarConfig(rows=10, cols=4, r_wire=0.0)
        )
        pair = build_pair(spec, WeightScaler(1.0), rng, rows=17)
        assert pair.shape == (17, 4)

    def test_seed_reproducibility(self):
        spec = HardwareSpec(variation=VariationConfig(sigma=0.5))
        a = build_pair(spec, WeightScaler(1.0), np.random.default_rng(1))
        b = build_pair(spec, WeightScaler(1.0), np.random.default_rng(1))
        assert np.array_equal(a.positive.array.theta,
                              b.positive.array.theta)
        assert np.array_equal(a.negative.array.theta,
                              b.negative.array.theta)


class TestHardwareTestRate:
    def test_perfect_hardware_matches_software(self, rng):
        spec = HardwareSpec(
            variation=VariationConfig(sigma=0.0, sigma_cycle=0.0),
            crossbar=CrossbarConfig(rows=6, cols=3, r_wire=0.0),
            quantize_read=False,
        )
        pair = build_pair(spec, WeightScaler(1.0), rng)
        w = rng.uniform(-1, 1, (6, 3))
        pair.program_weights(w, with_cycle_noise=False)
        x = rng.random((40, 6))
        labels = np.argmax(x @ w, axis=1)
        assert hardware_test_rate(pair, x, labels, "ideal") == 1.0

    def test_input_map_applied(self, rng):
        spec = HardwareSpec(
            variation=VariationConfig(sigma=0.0, sigma_cycle=0.0),
            crossbar=CrossbarConfig(rows=6, cols=3, r_wire=0.0),
            quantize_read=False,
        )
        pair = build_pair(spec, WeightScaler(1.0), rng)
        w = rng.uniform(-1, 1, (6, 3))
        perm = rng.permutation(6)
        w_phys = np.zeros_like(w)
        w_phys[perm] = w
        pair.program_weights(w_phys, with_cycle_noise=False)
        x = rng.random((40, 6))
        labels = np.argmax(x @ w, axis=1)

        def route(batch):
            out = np.zeros_like(batch)
            out[:, perm] = batch
            return out

        assert hardware_test_rate(pair, x, labels, "ideal", route) == 1.0
