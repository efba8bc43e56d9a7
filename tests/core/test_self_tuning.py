"""Tests for the gamma self-tuning loop (Fig. 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.self_tuning import (
    GammaScanPoint,
    SelfTuningConfig,
    injected_rate,
    tune_gamma,
)
from repro.core.vat import VATConfig, train_vat
from repro.devices.variation import sample_standard_thetas
from repro.nn.gdt import GDTConfig
from repro.nn.metrics import rate_from_scores
from repro.nn.split import stratified_split


class TestInjectedRate:
    def test_sigma_zero_equals_clean_rate(self, tiny_dataset, rng):
        ds = tiny_dataset
        w = rng.uniform(-1, 1, (ds.n_features, 10))
        clean = float(np.mean(
            np.argmax(ds.x_test @ w, axis=1) == ds.y_test
        ))
        injected = injected_rate(w, ds.x_test, ds.y_test, 0.0, 3, rng)
        assert injected == pytest.approx(clean)

    def test_injection_degrades_rate(self, tiny_dataset, rng):
        from repro.core.vat import VATConfig, train_vat

        ds = tiny_dataset
        outcome = train_vat(ds.x_train, ds.y_train, 10,
                            VATConfig(gamma=0.0, gdt=GDTConfig(epochs=60)))
        clean = injected_rate(outcome.weights, ds.x_test, ds.y_test,
                              0.0, 1, rng)
        noisy = injected_rate(outcome.weights, ds.x_test, ds.y_test,
                              1.2, 10, rng)
        assert noisy < clean

    def test_shared_thetas_are_deterministic(self, tiny_dataset, rng):
        ds = tiny_dataset
        w = rng.uniform(-1, 1, (ds.n_features, 10))
        thetas = rng.standard_normal((4,) + w.shape)
        r1 = injected_rate(w, ds.x_test, ds.y_test, 0.5, 4,
                           np.random.default_rng(0), thetas=thetas)
        r2 = injected_rate(w, ds.x_test, ds.y_test, 0.5, 4,
                           np.random.default_rng(99), thetas=thetas)
        assert r1 == r2

    def test_invalid_injection_count(self, tiny_dataset, rng):
        ds = tiny_dataset
        w = np.zeros((ds.n_features, 10))
        with pytest.raises(ValueError, match="n_injections"):
            injected_rate(w, ds.x_test, ds.y_test, 0.5, 0, rng)

    def test_theta_shape_validated(self, tiny_dataset, rng):
        ds = tiny_dataset
        w = np.zeros((ds.n_features, 10))
        with pytest.raises(ValueError, match="thetas"):
            injected_rate(w, ds.x_test, ds.y_test, 0.5, 3, rng,
                          thetas=np.zeros((2, 3, 3)))


class TestTuneGamma:
    @pytest.fixture(scope="class")
    def tuned(self, tiny_dataset):
        ds = tiny_dataset
        cfg = SelfTuningConfig(
            gammas=(0.0, 0.3, 0.7),
            n_injections=4,
            gdt=GDTConfig(epochs=60),
        )
        return tune_gamma(
            ds.x_train, ds.y_train, 10, sigma=0.8, config=cfg,
            rng=np.random.default_rng(5),
        )

    def test_scan_covers_all_candidates(self, tuned):
        assert [p.gamma for p in tuned.scan] == [0.0, 0.3, 0.7]

    def test_best_gamma_maximises_injected_rate(self, tuned):
        rates = {p.gamma: p.validation_rate_injected for p in tuned.scan}
        assert tuned.best_gamma == max(rates, key=rates.get)

    def test_rates_are_probabilities(self, tuned):
        for p in tuned.scan:
            assert 0.0 <= p.training_rate <= 1.0
            assert 0.0 <= p.validation_rate_clean <= 1.0
            assert 0.0 <= p.validation_rate_injected <= 1.0

    def test_final_weights_shape(self, tuned, tiny_dataset):
        assert tuned.weights.shape == (tiny_dataset.n_features, 10)

    def test_empty_gammas_rejected(self, tiny_dataset):
        ds = tiny_dataset
        with pytest.raises(ValueError, match="candidate"):
            tune_gamma(
                ds.x_train, ds.y_train, 10, sigma=0.5,
                config=SelfTuningConfig(gammas=()),
            )


class TestColdStartScan:
    """``warm_start=False`` trains the grid as one stacked descent; it
    must give what training each candidate alone gives."""

    def test_matches_per_candidate_loop(self, tiny_dataset):
        ds = tiny_dataset
        sigma = 0.8
        # A loose tolerance, so the candidates stop at different epochs.
        cfg = SelfTuningConfig(
            gammas=(0.0, 0.2, 0.5, 0.9), n_injections=3,
            gdt=GDTConfig(epochs=80, tolerance=2e-3), warm_start=False,
        )
        tuned = tune_gamma(
            ds.x_train, ds.y_train, 10, sigma=sigma, config=cfg,
            rng=np.random.default_rng(5),
        )

        rng = np.random.default_rng(5)
        split = stratified_split(ds.y_train, cfg.val_fraction, rng)
        x_tr, y_tr, x_val, y_val = split.apply(ds.x_train, ds.y_train)
        thetas = sample_standard_thetas(
            rng, cfg.distribution,
            (cfg.n_injections, ds.n_features, 10),
        )
        scan, epochs = [], []
        for gamma in cfg.gammas:
            outcome = train_vat(
                x_tr, y_tr, 10,
                VATConfig(gamma=gamma, sigma=sigma, gdt=cfg.gdt),
            )
            epochs.append(len(outcome.diagnostics["loss_history"]))
            scan.append(GammaScanPoint(
                gamma=gamma,
                training_rate=outcome.training_rate,
                validation_rate_clean=rate_from_scores(
                    x_val @ outcome.weights, y_val
                ),
                validation_rate_injected=injected_rate(
                    outcome.weights, x_val, y_val, sigma,
                    cfg.n_injections, thetas=thetas,
                ),
            ))
        best = max(scan, key=lambda p: p.validation_rate_injected).gamma
        final = train_vat(
            ds.x_train, ds.y_train, 10,
            VATConfig(gamma=best, sigma=sigma, gdt=cfg.gdt),
        )

        assert len(set(epochs)) > 1
        assert tuned.scan == scan
        assert tuned.best_gamma == best
        assert np.array_equal(tuned.weights, final.weights)
