"""Tests for open-loop off-device training and programming."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CrossbarConfig, VariationConfig
from repro.core.base import HardwareSpec, build_pair, hardware_test_rate
from repro.core.old import OLDConfig, program_pair_open_loop, train_old
from repro.nn.gdt import GDTConfig
from repro.xbar.mapping import WeightScaler


def ideal_spec(rows, r_wire=0.0):
    return HardwareSpec(
        variation=VariationConfig(sigma=0.0, sigma_cycle=0.0),
        crossbar=CrossbarConfig(rows=rows, cols=10, r_wire=r_wire),
        quantize_read=False,
    )


class TestTrainOLD:
    def test_trains_reasonable_classifier(self, tiny_dataset):
        ds = tiny_dataset
        outcome = train_old(ds.x_train, ds.y_train, 10,
                            OLDConfig(gdt=GDTConfig(epochs=80)))
        assert outcome.training_rate > 0.6
        assert outcome.diagnostics["scheme"] == "OLD"


class TestProgramming:
    def test_normalisation_preserves_argmax(self, tiny_dataset, rng):
        ds = tiny_dataset
        outcome = train_old(ds.x_train, ds.y_train, 10,
                            OLDConfig(gdt=GDTConfig(epochs=80)))
        spec = ideal_spec(ds.n_features)
        pair = build_pair(spec, WeightScaler(1.0), rng)
        program_pair_open_loop(pair, outcome.weights)
        hw_rate = hardware_test_rate(pair, ds.x_test, ds.y_test, "ideal")
        sw_rate = float(np.mean(
            np.argmax(ds.x_test @ outcome.weights, axis=1) == ds.y_test
        ))
        assert hw_rate == pytest.approx(sw_rate, abs=0.02)

    def test_unnormalised_large_weights_clip(self, tiny_dataset, rng):
        ds = tiny_dataset
        outcome = train_old(ds.x_train, ds.y_train, 10,
                            OLDConfig(gdt=GDTConfig(epochs=80)))
        assert np.abs(outcome.weights).max() > 1.0  # would clip at w_max=1
        spec = ideal_spec(ds.n_features)
        pair = build_pair(spec, WeightScaler(1.0), rng)
        program_pair_open_loop(
            pair, outcome.weights, OLDConfig(normalize_weights=False)
        )
        clipped = hardware_test_rate(pair, ds.x_test, ds.y_test, "ideal")
        pair2 = build_pair(spec, WeightScaler(1.0), rng)
        program_pair_open_loop(pair2, outcome.weights)
        normalised = hardware_test_rate(pair2, ds.x_test, ds.y_test, "ideal")
        assert normalised > clipped

    def test_variation_degrades_hardware_rate(self, tiny_dataset):
        ds = tiny_dataset
        outcome = train_old(ds.x_train, ds.y_train, 10,
                            OLDConfig(gdt=GDTConfig(epochs=80)))
        rates = []
        for sigma in (0.0, 1.0):
            spec = HardwareSpec(
                variation=VariationConfig(sigma=sigma, sigma_cycle=0.0),
                crossbar=CrossbarConfig(rows=ds.n_features, cols=10,
                                        r_wire=0.0),
                quantize_read=False,
            )
            trial = []
            for seed in range(4):
                pair = build_pair(spec, WeightScaler(1.0),
                                  np.random.default_rng(seed))
                program_pair_open_loop(pair, outcome.weights)
                trial.append(
                    hardware_test_rate(pair, ds.x_test, ds.y_test, "ideal")
                )
            rates.append(np.mean(trial))
        assert rates[1] < rates[0] - 0.05

    def test_ir_compensation_improves_fidelity(self, small_dataset, rng):
        ds = small_dataset
        outcome = train_old(ds.x_train, ds.y_train, 10,
                            OLDConfig(gdt=GDTConfig(epochs=80)))
        x_mean = ds.x_train.mean(axis=0)
        sw = np.argmax(ds.x_test @ outcome.weights, axis=1)

        def fidelity(compensate):
            spec = ideal_spec(ds.n_features, r_wire=2.5)
            pair = build_pair(spec, WeightScaler(1.0),
                              np.random.default_rng(0))
            program_pair_open_loop(
                pair, outcome.weights,
                OLDConfig(compensate_ir_drop=compensate),
                x_reference=x_mean,
            )
            scores = pair.matvec(ds.x_test, "nodal")
            return float(np.mean(np.argmax(scores, axis=1) == sw))

        assert fidelity(True) >= fidelity(False)
