"""Tests for the Monte-Carlo harness."""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest

from repro.analysis.montecarlo import run_monte_carlo
from repro.runtime import RunLog, RuntimeConfig, use_run_log, use_runtime


class TestRunMonteCarlo:
    def test_scalar_statistics(self):
        summary = run_monte_carlo(lambda rng: rng.normal(5.0, 1.0),
                                  trials=2000, seed=1)
        assert summary.mean == pytest.approx(5.0, abs=0.1)
        assert summary.std == pytest.approx(1.0, abs=0.1)
        assert summary.n_trials == 2000

    def test_vector_statistics(self):
        summary = run_monte_carlo(
            lambda rng: np.array([1.0, rng.random()]), trials=50, seed=2
        )
        assert summary.values.shape == (50, 2)
        assert summary.mean[0] == 1.0
        assert summary.std[0] == 0.0

    def test_percentiles_ordered(self):
        summary = run_monte_carlo(lambda rng: rng.random(), trials=500,
                                  seed=3)
        assert summary.percentile_5 < summary.mean < summary.percentile_95

    def test_deterministic_by_seed(self):
        a = run_monte_carlo(lambda rng: rng.random(), trials=10, seed=9)
        b = run_monte_carlo(lambda rng: rng.random(), trials=10, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_single_trial_std_zero_division_safe(self):
        summary = run_monte_carlo(lambda rng: 1.0, trials=1, seed=0)
        assert summary.std == 0.0

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            run_monte_carlo(lambda rng: rng.random(), trials=0)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            run_monte_carlo(lambda rng: rng.random(), trials=-3)


def _mc_trial(rng: np.random.Generator, scale: float = 1.0):
    return rng.normal(size=2) * scale


def _mc_batch(rngs, scale: float = 1.0):
    return np.stack([rng.normal(size=2) * scale for rng in rngs])


@dataclasses.dataclass(frozen=True)
class _TrialConfig:
    scale: float = 1.0


class TestParallelDeterminism:
    def test_values_identical_at_jobs_1_2_4(self):
        trial = functools.partial(_mc_trial, scale=3.0)
        baseline = run_monte_carlo(trial, trials=25, seed=17, jobs=1)
        for jobs in (2, 4):
            summary = run_monte_carlo(trial, trials=25, seed=17,
                                      jobs=jobs)
            assert np.array_equal(baseline.values, summary.values)
            assert np.array_equal(baseline.mean, summary.mean)
            assert np.array_equal(baseline.std, summary.std)

    def test_matches_serial_child_rngs_derivation(self):
        # The engine must reproduce the original all-up-front spawn
        # tree exactly, so pre-engine results stay valid.
        summary = run_monte_carlo(
            functools.partial(_mc_trial), trials=12, seed=5, jobs=2
        )
        legacy = np.asarray([
            _mc_trial(np.random.default_rng(child))
            for child in np.random.SeedSequence(5).spawn(12)
        ])
        assert np.array_equal(summary.values, legacy)

    def test_ambient_jobs_do_not_change_values(self):
        trial = functools.partial(_mc_trial)
        baseline = run_monte_carlo(trial, trials=9, seed=4)
        with use_runtime(RuntimeConfig(jobs=2)):
            ambient = run_monte_carlo(trial, trials=9, seed=4)
        assert np.array_equal(baseline.values, ambient.values)


class TestArtifactCaching:
    def test_miss_then_hit(self, tmp_path):
        trial = functools.partial(_mc_trial, scale=2.0)
        cfg = _TrialConfig(scale=2.0)
        log = RunLog()
        with use_runtime(RuntimeConfig(cache_dir=tmp_path)), \
                use_run_log(log):
            first = run_monte_carlo(trial, trials=8, seed=3,
                                    cache_config=cfg)
            second = run_monte_carlo(trial, trials=8, seed=3,
                                     cache_config=cfg)
        assert np.array_equal(first.values, second.values)
        assert [b.cache_hit for b in log.batches] == [False, True]
        # The hit executed zero trials.
        assert log.batches[1].trials == 0

    def test_config_change_invalidates(self, tmp_path):
        with use_runtime(RuntimeConfig(cache_dir=tmp_path)):
            run_monte_carlo(functools.partial(_mc_trial, scale=2.0),
                            trials=8, seed=3,
                            cache_config=_TrialConfig(scale=2.0))
            log = RunLog()
            with use_run_log(log):
                run_monte_carlo(functools.partial(_mc_trial, scale=4.0),
                                trials=8, seed=3,
                                cache_config=_TrialConfig(scale=4.0))
        assert [b.cache_hit for b in log.batches] == [False]

    def test_seed_and_trials_invalidate(self, tmp_path):
        trial = functools.partial(_mc_trial)
        cfg = _TrialConfig()
        with use_runtime(RuntimeConfig(cache_dir=tmp_path)):
            run_monte_carlo(trial, trials=8, seed=3, cache_config=cfg)
            log = RunLog()
            with use_run_log(log):
                run_monte_carlo(trial, trials=8, seed=4, cache_config=cfg)
                run_monte_carlo(trial, trials=9, seed=3, cache_config=cfg)
        assert [b.cache_hit for b in log.batches] == [False, False]

    def test_no_cache_without_config(self, tmp_path):
        log = RunLog()
        with use_runtime(RuntimeConfig(cache_dir=tmp_path)), \
                use_run_log(log):
            run_monte_carlo(functools.partial(_mc_trial), trials=4,
                            seed=0)
            run_monte_carlo(functools.partial(_mc_trial), trials=4,
                            seed=0)
        assert [b.cache_hit for b in log.batches] == [False, False]


class TestBatchedKernel:
    def test_bit_identical_to_looped(self):
        looped = run_monte_carlo(
            functools.partial(_mc_trial, scale=2.0), trials=21, seed=13,
            jobs=1,
        )
        batched = run_monte_carlo(
            functools.partial(_mc_trial, scale=2.0), trials=21, seed=13,
            jobs=1, batch_trial=functools.partial(_mc_batch, scale=2.0),
        )
        assert np.array_equal(looped.values, batched.values)

    def test_identical_across_jobs(self):
        baseline = run_monte_carlo(
            functools.partial(_mc_trial), trials=17, seed=6, jobs=1,
            batch_trial=functools.partial(_mc_batch),
        )
        for jobs in (2, 4):
            summary = run_monte_carlo(
                functools.partial(_mc_trial), trials=17, seed=6, jobs=jobs,
                batch_trial=functools.partial(_mc_batch),
            )
            assert np.array_equal(baseline.values, summary.values)

    def test_shares_cache_key_with_looped(self, tmp_path):
        # A batched run must hit artifacts a looped run populated and
        # vice versa: the kernel is an execution detail, not an input.
        cfg = _TrialConfig(scale=2.0)
        log = RunLog()
        with use_runtime(RuntimeConfig(cache_dir=tmp_path)), \
                use_run_log(log):
            looped = run_monte_carlo(
                functools.partial(_mc_trial, scale=2.0), trials=8,
                seed=3, cache_config=cfg,
            )
            batched = run_monte_carlo(
                functools.partial(_mc_trial, scale=2.0), trials=8,
                seed=3, cache_config=cfg,
                batch_trial=functools.partial(_mc_batch, scale=2.0),
            )
        assert [b.cache_hit for b in log.batches] == [False, True]
        assert np.array_equal(looped.values, batched.values)

    def test_batched_populates_cache_for_looped(self, tmp_path):
        cfg = _TrialConfig(scale=1.5)
        log = RunLog()
        with use_runtime(RuntimeConfig(cache_dir=tmp_path)), \
                use_run_log(log):
            batched = run_monte_carlo(
                functools.partial(_mc_trial, scale=1.5), trials=8,
                seed=3, cache_config=cfg,
                batch_trial=functools.partial(_mc_batch, scale=1.5),
            )
            looped = run_monte_carlo(
                functools.partial(_mc_trial, scale=1.5), trials=8,
                seed=3, cache_config=cfg,
            )
        assert [b.cache_hit for b in log.batches] == [False, True]
        assert np.array_equal(batched.values, looped.values)
