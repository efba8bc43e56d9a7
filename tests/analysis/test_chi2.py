"""Tests for the chi-square variation-norm bound."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.chi2 import rho_bound


class TestRhoBound:
    def test_zero_sigma(self):
        assert rho_bound(0.0, 100) == 0.0

    def test_monotone_in_sigma(self):
        assert rho_bound(0.8, 100) > rho_bound(0.4, 100)

    def test_monotone_in_n(self):
        assert rho_bound(0.5, 400) > rho_bound(0.5, 100)

    def test_monotone_in_confidence(self):
        assert rho_bound(0.5, 100, 0.99) > rho_bound(0.5, 100, 0.9)

    def test_scales_like_sqrt_n_for_large_n(self):
        r1 = rho_bound(0.5, 1000)
        r2 = rho_bound(0.5, 4000)
        assert r2 / r1 == pytest.approx(2.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            rho_bound(-0.1, 10)
        with pytest.raises(ValueError, match="n"):
            rho_bound(0.5, 0)
        with pytest.raises(ValueError, match="confidence"):
            rho_bound(0.5, 10, 1.0)

    def test_bound_holds_empirically(self):
        rng = np.random.default_rng(0)
        sigma, n, conf = 0.6, 200, 0.95
        rho = rho_bound(sigma, n, conf)
        norms = np.linalg.norm(
            rng.normal(0, sigma, size=(4000, n)), axis=1
        )
        coverage = np.mean(norms <= rho)
        assert coverage == pytest.approx(conf, abs=0.02)
