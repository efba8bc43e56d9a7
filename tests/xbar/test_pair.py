"""Tests for the differential crossbar pair."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.adc import ADC
from repro.circuits.sensing import CurrentSense
from repro.config import CrossbarConfig, VariationConfig
from repro.xbar.mapping import WeightScaler
from repro.xbar.pair import DifferentialCrossbar


def make_pair(rows=12, cols=3, sigma=0.0, r_wire=0.0, seed=0,
              diff_sense=None):
    return DifferentialCrossbar(
        scaler=WeightScaler(1.0),
        config=CrossbarConfig(rows=rows, cols=cols, r_wire=r_wire),
        variation=VariationConfig(sigma=sigma, sigma_cycle=0.0),
        rng=np.random.default_rng(seed),
        diff_sense=diff_sense,
    )


class TestProgramAndRead:
    def test_matvec_matches_ideal_product(self, rng):
        pair = make_pair()
        w = rng.uniform(-1, 1, (12, 3))
        pair.program_weights(w, with_cycle_noise=False)
        x = rng.random((5, 12))
        assert np.allclose(pair.matvec(x), x @ w, atol=1e-9)

    def test_effective_weights_roundtrip(self, rng):
        pair = make_pair()
        w = rng.uniform(-1, 1, (12, 3))
        pair.program_weights(w, with_cycle_noise=False)
        assert np.allclose(pair.effective_weights(), w, atol=1e-12)

    def test_variation_perturbs_effective_weights(self, rng):
        pair = make_pair(sigma=0.6, seed=4)
        w = rng.uniform(-1, 1, (12, 3))
        pair.program_weights(w, with_cycle_noise=False)
        realised = pair.effective_weights()
        assert not np.allclose(realised, w, atol=1e-3)

    def test_weight_shape_validated(self):
        pair = make_pair()
        with pytest.raises(ValueError, match="shape"):
            pair.program_weights(np.zeros((3, 3)))

    def test_theta_maps_are_independent(self):
        pair = make_pair(sigma=0.5, seed=1)
        t_pos, t_neg = pair.theta_maps()
        assert t_pos.shape == (12, 3)
        assert not np.allclose(t_pos, t_neg)

    def test_program_conductances_direct(self):
        pair = make_pair()
        g = np.full((12, 3), 3e-5)
        pair.program_conductances(g, g, with_cycle_noise=False)
        assert np.allclose(pair.positive.conductance, g)
        assert np.allclose(pair.negative.conductance, g)


class TestDifferentialSensing:
    def test_diff_adc_quantises_scores(self, rng):
        adc = ADC(4, 1e-4, bipolar=True)
        pair = make_pair(diff_sense=CurrentSense(adc=adc))
        w = rng.uniform(-1, 1, (12, 3))
        pair.program_weights(w, with_cycle_noise=False)
        out = pair.matvec(rng.random(12))
        # Outputs must be on the quantisation grid (in weight units).
        scale = pair.config.v_read * pair.scaler.device.g_range
        lsb_w = adc.lsb / scale
        steps = out / lsb_w
        assert np.allclose(steps, np.round(steps), atol=1e-6)

    def test_quantisation_error_bounded(self, rng):
        adc = ADC(8, 2e-4, bipolar=True)
        pair = make_pair(diff_sense=CurrentSense(adc=adc))
        w = rng.uniform(-0.5, 0.5, (12, 3))
        pair.program_weights(w, with_cycle_noise=False)
        x = rng.random(12)
        ideal = x @ w
        out = pair.matvec(x)
        scale = pair.config.v_read * pair.scaler.device.g_range
        assert np.all(np.abs(out - ideal) <= adc.lsb / scale + 1e-9)


class TestIRDropPath:
    def test_wire_resistance_shrinks_array_currents(self, rng):
        # Each array's column currents are attenuated; the differential
        # score can move either way, so the invariant lives at the
        # single-array level.
        pair_ideal = make_pair(rows=48, r_wire=0.0, seed=2)
        pair_ir = make_pair(rows=48, r_wire=2.5, seed=2)
        w = rng.uniform(-1, 1, (48, 3))
        pair_ideal.program_weights(w, with_cycle_noise=False)
        pair_ir.program_weights(w, with_cycle_noise=False)
        x = np.ones(48)
        i_ideal = pair_ideal.positive.read(x, "nodal")
        i_ir = pair_ir.positive.read(x, "nodal")
        assert np.all(i_ir < i_ideal)

    def test_set_reference_input_propagates(self, rng):
        pair = make_pair(rows=24, r_wire=2.5)
        w = rng.uniform(-1, 1, (24, 3))
        pair.program_weights(w, with_cycle_noise=False)
        pair.set_reference_input(np.full(24, 0.3))
        out = pair.matvec(rng.random(24), "reference")
        assert out.shape == (3,)
