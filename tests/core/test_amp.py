"""Tests for the AMP flow and row mapping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CrossbarConfig, SensingConfig, VariationConfig
from repro.core.amp import RowMapping, effective_sigma, program_amp, run_amp
from repro.core.base import HardwareSpec, build_pair
from repro.core.greedy import greedy_mapping
from repro.core.old import OLDConfig, program_pair_open_loop
from repro.core.pretest import pretest_pair
from repro.core.sensitivity import mapping_order
from repro.core.swv import swv_pair
from repro.xbar.mapping import WeightScaler


def make_pair(rows, sigma=0.6, seed=0, cols=10):
    spec = HardwareSpec(
        variation=VariationConfig(sigma=sigma, sigma_cycle=0.01),
        crossbar=CrossbarConfig(rows=rows, cols=cols, r_wire=0.0),
        quantize_read=False,
    )
    return build_pair(spec, WeightScaler(1.0), np.random.default_rng(seed))


class TestRowMapping:
    def test_rejects_duplicate_targets(self):
        with pytest.raises(ValueError, match="injective"):
            RowMapping(assignment=np.array([0, 0]), n_physical=3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="physical"):
            RowMapping(assignment=np.array([0, 3]), n_physical=3)

    def test_weights_scatter(self):
        mapping = RowMapping(assignment=np.array([2, 0]), n_physical=3)
        w = np.array([[1.0], [2.0]])
        physical = mapping.weights_to_physical(w)
        assert physical.tolist() == [[2.0], [0.0], [1.0]]

    def test_inputs_route(self):
        mapping = RowMapping(assignment=np.array([2, 0]), n_physical=3)
        x = np.array([0.5, 0.7])
        routed = mapping.inputs_to_physical(x)
        assert routed.tolist() == [0.7, 0.0, 0.5]

    def test_matvec_invariance(self, rng):
        # The defining property (Fig. 6): permuting rows together with
        # their inputs leaves x @ W unchanged.
        n, m, extra = 8, 3, 4
        w = rng.uniform(-1, 1, (n, m))
        x = rng.random((5, n))
        perm = rng.permutation(n + extra)[:n]
        mapping = RowMapping(assignment=perm, n_physical=n + extra)
        out = mapping.inputs_to_physical(x) @ mapping.weights_to_physical(w)
        assert np.allclose(out, x @ w)

    def test_weight_row_count_validated(self):
        mapping = RowMapping(assignment=np.array([0, 1]), n_physical=2)
        with pytest.raises(ValueError, match="rows"):
            mapping.weights_to_physical(np.ones((3, 1)))

    def test_input_width_validated(self):
        mapping = RowMapping(assignment=np.array([0, 1]), n_physical=2)
        with pytest.raises(ValueError, match="width"):
            mapping.inputs_to_physical(np.ones((2, 3)))


class TestEffectiveSigma:
    def test_zero_variation_gives_zero(self):
        mapping = RowMapping(assignment=np.arange(3), n_physical=3)
        w = np.ones((3, 2))
        assert effective_sigma(
            mapping, w, np.zeros((3, 2)), np.zeros((3, 2))
        ) == 0.0

    def test_weights_emphasise_their_rows(self):
        mapping = RowMapping(assignment=np.arange(2), n_physical=2)
        w = np.array([[1.0], [0.0]])
        theta_hot_row0 = np.array([[1.0], [0.0]])
        theta_hot_row1 = np.array([[0.0], [1.0]])
        zeros = np.zeros((2, 1))
        s0 = effective_sigma(mapping, w, theta_hot_row0, zeros)
        s1 = effective_sigma(mapping, w, theta_hot_row1, zeros)
        assert s0 > s1


class TestRunAMP:
    def test_mapping_reduces_effective_sigma(self, rng):
        pair = make_pair(rows=40, sigma=0.6, seed=1)
        w = rng.uniform(-1, 1, (32, 10))
        x_mean = rng.random(32)
        result = run_amp(pair, w, x_mean, SensingConfig(adc_bits=8))
        identity = RowMapping(assignment=np.arange(32), n_physical=40)
        true_pos, true_neg = pair.theta_maps()
        s_amp = effective_sigma(result.mapping, w, true_pos, true_neg)
        s_id = effective_sigma(identity, w, true_pos, true_neg)
        assert s_amp < s_id

    def test_redundancy_improves_mapping(self, rng):
        w = rng.uniform(-1, 1, (32, 10))
        x_mean = rng.random(32)
        sigmas = {}
        for extra in (0, 16):
            pair = make_pair(rows=32 + extra, sigma=0.6, seed=2)
            result = run_amp(pair, w, x_mean, SensingConfig(adc_bits=8))
            true_pos, true_neg = pair.theta_maps()
            sigmas[extra] = effective_sigma(
                result.mapping, w, true_pos, true_neg
            )
        assert sigmas[16] < sigmas[0]

    def test_optimal_method_not_worse_on_swv(self, rng):
        pair = make_pair(rows=24, sigma=0.5, seed=3)
        w = rng.uniform(-1, 1, (20, 10))
        x_mean = rng.random(20)
        greedy = run_amp(pair, w, x_mean, SensingConfig(adc_bits=8),
                         method="greedy")
        optimal = run_amp(pair, w, x_mean, SensingConfig(adc_bits=8),
                          method="optimal", pretest=greedy.pretest)
        greedy_cost = greedy.swv[
            np.arange(20), greedy.mapping.assignment
        ].sum()
        optimal_cost = optimal.swv[
            np.arange(20), optimal.mapping.assignment
        ].sum()
        assert optimal_cost <= greedy_cost + 1e-9

    def test_unknown_method_rejected(self, rng):
        pair = make_pair(rows=8, cols=2)
        with pytest.raises(ValueError, match="method"):
            run_amp(pair, np.ones((8, 2)), np.ones(8), method="magic")

    def test_too_many_weight_rows_rejected(self, rng):
        pair = make_pair(rows=4, cols=2)
        with pytest.raises(ValueError, match="exceed"):
            run_amp(pair, np.ones((6, 2)), np.ones(6))

    def test_column_mismatch_rejected(self, rng):
        pair = make_pair(rows=8, cols=2)
        with pytest.raises(ValueError, match="columns"):
            run_amp(pair, np.ones((8, 3)), np.ones(8))

    def test_amp_improves_hardware_accuracy(self, tiny_dataset, rng):
        # End to end: AMP-mapped programming beats identity placement.
        from repro.core.base import hardware_test_rate
        from repro.core.vat import VATConfig, train_vat
        from repro.nn.gdt import GDTConfig

        ds = tiny_dataset
        outcome = train_vat(
            ds.x_train, ds.y_train, 10,
            VATConfig(gamma=0.0, sigma=0.0, gdt=GDTConfig(epochs=60)),
        )
        w = outcome.weights
        x_mean = ds.x_train.mean(axis=0)
        gains = []
        for seed in range(3):
            pair = make_pair(rows=ds.n_features + 10, sigma=0.7,
                             seed=seed)
            amp = run_amp(pair, w, x_mean, SensingConfig(adc_bits=8))
            program_pair_open_loop(
                pair, amp.mapping.weights_to_physical(w)
            )
            with_amp = hardware_test_rate(
                pair, ds.x_test, ds.y_test, "ideal",
                input_map=amp.mapping.inputs_to_physical,
            )
            identity = RowMapping(
                assignment=np.arange(ds.n_features),
                n_physical=ds.n_features + 10,
            )
            program_pair_open_loop(
                pair, identity.weights_to_physical(w)
            )
            without = hardware_test_rate(
                pair, ds.x_test, ds.y_test, "ideal",
                input_map=identity.inputs_to_physical,
            )
            gains.append(with_amp - without)
        assert np.mean(gains) > 0.0


class TestProgramAMP:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("extra", [0, 6])
    def test_equals_the_inline_recipe(self, seed, extra):
        # Two identically fabricated pairs: one programmed by the
        # step-by-step recipe program_amp replaces, one by program_amp.
        n, cols = 16, 10
        spec = HardwareSpec(
            variation=VariationConfig(sigma=0.6, sigma_cycle=0.01),
            crossbar=CrossbarConfig(rows=n + extra, cols=cols, r_wire=2.5),
        )
        gen = np.random.default_rng(100 + seed)
        weights = np.clip(gen.normal(scale=0.3, size=(n, cols)), -0.9, 0.9)
        x_mean = gen.random(n)
        pairs, pretests = [], []
        for _ in range(2):
            pair = build_pair(
                spec, WeightScaler(1.0), np.random.default_rng(seed)
            )
            pairs.append(pair)
            pretests.append(pretest_pair(
                pair, spec.sensing, rng=np.random.default_rng(seed + 50)
            ))
        recipe, amp = pairs

        pretest = pretests[0]
        swv = swv_pair(
            weights, pretest.theta_pos, pretest.theta_neg, recipe.scaler
        )
        expected = RowMapping(
            assignment=greedy_mapping(swv, mapping_order(weights, x_mean)),
            n_physical=n + extra,
        )
        program_pair_open_loop(
            recipe, expected.weights_to_physical(weights), OLDConfig(),
            x_reference=expected.inputs_to_physical(x_mean),
        )
        mapping = program_amp(amp, weights, x_mean, pretests[1], OLDConfig())

        assert np.array_equal(mapping.assignment, expected.assignment)
        assert np.array_equal(
            amp.positive.conductance, recipe.positive.conductance
        )
        assert np.array_equal(
            amp.negative.conductance, recipe.negative.conductance
        )
