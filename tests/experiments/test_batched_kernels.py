"""Bit-identity property tests for the trial-batched kernels.

The batched Monte-Carlo kernels promise *exact* equality with the
looped scalar trials -- not closeness -- at any jobs/chunk-size
combination, because they consume identical per-trial generator
streams and evaluate with fixed-accumulation array math.  These tests
enforce that contract with ``np.array_equal`` for every ported
experiment kernel and the self-tuning injection scores.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.config import CrossbarConfig, VariationConfig
from repro.core.base import HardwareSpec
from repro.core.old import OLDConfig
from repro.core.self_tuning import injected_rate, injected_rate_looped
from repro.data.datasets import N_CLASSES
from repro.experiments.common import ExperimentScale, get_dataset
from repro.experiments.fig2_column import (
    ColumnTrialConfig,
    _column_trial,
    _column_trial_batch,
)
from repro.experiments.fig7_amp import _fig7_trial, _fig7_trial_batch
from repro.experiments.fig9_redundancy import _fig9_trial, _fig9_trial_batch
from repro.runtime import map_trials, map_trials_batched
from repro.xbar.mapping import WeightScaler


def assert_batched_bit_identical(
    trial, batch_trial, trials, seed, combos=((1, 1), (1, 3), (4, 2))
):
    """Batched values must equal looped values at every (jobs, chunk)."""
    looped = map_trials(trial, trials, seed=seed, jobs=1)
    for jobs, chunk_size in combos:
        batched = map_trials_batched(
            batch_trial, trials, seed=seed, jobs=jobs,
            chunk_size=chunk_size,
        )
        assert np.array_equal(looped, batched), (
            f"batched != looped at jobs={jobs} chunk_size={chunk_size}"
        )


@pytest.fixture(scope="module")
def tiny_dataset():
    scale = ExperimentScale(n_train=120, n_test=80, seed=11)
    return get_dataset(scale, image_size=7)


class TestFig2Kernel:
    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_bit_identical(self, sigma):
        cfg = ColumnTrialConfig(
            sigma=sigma, n_devices=20, target_current=1e-3, v_read=1.0,
            adc_bits=6, cld_iterations=30,
        )
        assert_batched_bit_identical(
            functools.partial(_column_trial, cfg=cfg),
            functools.partial(_column_trial_batch, cfg=cfg),
            trials=12, seed=21,
            combos=((1, 1), (1, 5), (1, None), (4, 3)),
        )

    def test_column_workload_serial_parallel_batched(self):
        # The Fig. 2 column workload at its study size: looped serial,
        # looped on two workers and the batched kernel agree exactly.
        cfg = ColumnTrialConfig(
            sigma=0.5, n_devices=100, target_current=1e-3, v_read=1.0,
            adc_bits=6, cld_iterations=60,
        )
        trial = functools.partial(_column_trial, cfg=cfg)
        serial = map_trials(trial, 96, seed=1234, jobs=1)
        assert np.array_equal(
            serial, map_trials(trial, 96, seed=1234, jobs=2)
        )
        assert np.array_equal(
            serial,
            map_trials_batched(
                functools.partial(_column_trial_batch, cfg=cfg), 96,
                seed=1234, jobs=1,
            ),
        )


class TestFig7Kernel:
    def test_bit_identical(self, tiny_dataset):
        ds = tiny_dataset
        n = ds.n_features
        spec = HardwareSpec(
            variation=VariationConfig(sigma=0.8),
            crossbar=CrossbarConfig(rows=n, cols=N_CLASSES, r_wire=0.0),
        )
        gen = np.random.default_rng(3)
        weights_per_gamma = [
            np.clip(gen.normal(scale=0.3, size=(n, N_CLASSES)), -0.9, 0.9)
            for _ in range(2)
        ]
        kwargs = dict(
            spec=spec, scaler=WeightScaler(1.0),
            weights_per_gamma=weights_per_gamma,
            x_test=ds.x_test, y_test=ds.y_test,
            x_mean=ds.x_train.mean(axis=0),
        )
        assert_batched_bit_identical(
            functools.partial(_fig7_trial, **kwargs),
            functools.partial(_fig7_trial_batch, **kwargs),
            trials=6, seed=77,
        )


class TestFig9Kernel:
    def test_bit_identical(self, tiny_dataset):
        ds = tiny_dataset
        n = ds.n_features
        spec = HardwareSpec(
            variation=VariationConfig(sigma=0.8),
            crossbar=CrossbarConfig(rows=n, cols=N_CLASSES, r_wire=0.0),
            ir_mode="ideal",
        )
        gen = np.random.default_rng(5)
        old_weights = np.clip(
            gen.normal(scale=0.3, size=(n, N_CLASSES)), -0.9, 0.9
        )
        vortex_weights = np.clip(
            gen.normal(scale=0.3, size=(n, N_CLASSES)), -0.9, 0.9
        )
        x_mean = ds.x_train.mean(axis=0)
        kwargs = dict(
            spec=spec, scaler=WeightScaler(1.0),
            old_weights=old_weights, vortex_weights=vortex_weights,
            paper_programming=OLDConfig(
                compensate_ir_drop=False, digital_calibration=False
            ),
            redundancy=(0, 6),
            x_train=ds.x_train, y_train=ds.y_train,
            x_test=ds.x_test, y_test=ds.y_test, x_mean=x_mean,
        )
        assert_batched_bit_identical(
            functools.partial(_fig9_trial, **kwargs),
            functools.partial(_fig9_trial_batch, **kwargs),
            trials=4, seed=99,
            combos=((1, 1), (1, 3), (4, 2)),
        )


class TestFig7NonIdealFallback:
    @pytest.mark.parametrize("kernel", ["fig7", "fig9"])
    def test_falls_back_to_scalar_loop(self, tiny_dataset, kernel):
        # A non-ideal read path cannot be stacked; the kernel must
        # degrade to looping the scalar trial -- still bit-identical.
        ds = tiny_dataset
        n = ds.n_features
        spec = HardwareSpec(
            variation=VariationConfig(sigma=0.6),
            crossbar=CrossbarConfig(rows=n, cols=N_CLASSES, r_wire=2.5),
            ir_mode="reference",
        )
        gen = np.random.default_rng(9)

        def weights():
            return np.clip(
                gen.normal(scale=0.3, size=(n, N_CLASSES)), -0.9, 0.9
            )

        kwargs = dict(
            spec=spec, scaler=WeightScaler(1.0),
            x_test=ds.x_test, y_test=ds.y_test,
            x_mean=ds.x_train.mean(axis=0),
        )
        if kernel == "fig7":
            trial, batch_trial = _fig7_trial, _fig7_trial_batch
            kwargs.update(weights_per_gamma=[weights()])
        else:
            trial, batch_trial = _fig9_trial, _fig9_trial_batch
            kwargs.update(
                old_weights=weights(), vortex_weights=weights(),
                paper_programming=OLDConfig(
                    compensate_ir_drop=False, digital_calibration=False
                ),
                redundancy=(0, 6),
                x_train=ds.x_train, y_train=ds.y_train,
            )
        assert_batched_bit_identical(
            functools.partial(trial, **kwargs),
            functools.partial(batch_trial, **kwargs),
            trials=2, seed=42, combos=((1, 2),),
        )


class TestInjectedRateKernel:
    """Fig. 4's hot loop: vectorised injection vs the per-draw oracle."""

    def test_bit_identical_with_rng(self):
        gen = np.random.default_rng(1)
        weights = gen.normal(size=(20, N_CLASSES))
        x = gen.random((40, 20))
        labels = gen.integers(0, N_CLASSES, size=40)
        batched = injected_rate(
            weights, x, labels, sigma=0.5, n_injections=5,
            rng=np.random.default_rng(33),
        )
        looped = injected_rate_looped(
            weights, x, labels, sigma=0.5, n_injections=5,
            rng=np.random.default_rng(33),
        )
        assert batched == looped

    def test_bit_identical_with_explicit_thetas(self):
        gen = np.random.default_rng(2)
        weights = gen.normal(size=(15, N_CLASSES))
        x = gen.random((30, 15))
        labels = gen.integers(0, N_CLASSES, size=30)
        thetas = gen.standard_normal((4,) + weights.shape)
        assert injected_rate(
            weights, x, labels, sigma=0.7, n_injections=4, thetas=thetas
        ) == injected_rate_looped(
            weights, x, labels, sigma=0.7, n_injections=4, thetas=thetas
        )

    def test_sigma_zero_matches(self):
        gen = np.random.default_rng(4)
        weights = gen.normal(size=(12, N_CLASSES))
        x = gen.random((25, 12))
        labels = gen.integers(0, N_CLASSES, size=25)
        assert injected_rate(
            weights, x, labels, sigma=0.0, n_injections=3,
            rng=np.random.default_rng(8),
        ) == injected_rate_looped(
            weights, x, labels, sigma=0.0, n_injections=3,
            rng=np.random.default_rng(8),
        )
