"""Tests for the current-sensing chain."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.adc import ADC
from repro.circuits.sensing import CurrentSense
from repro.config import CrossbarConfig, VariationConfig
from repro.core.base import HardwareSpec, build_pair
from repro.serve.artifact import ProgramConfig, program_array
from repro.xbar.mapping import WeightScaler
from repro.xbar.tiling import TiledPair


class TestCurrentSense:
    def test_ideal_chain_is_identity(self):
        sense = CurrentSense()
        x = np.array([1e-4, 2e-4])
        assert np.array_equal(sense.sense(x), x)

    def test_adc_quantises(self):
        adc = ADC(4, 1e-3)
        sense = CurrentSense(adc=adc)
        out = sense.sense(np.array([3.3e-4]))
        assert float(out[0]) % adc.lsb == pytest.approx(0.0, abs=1e-18)

    def test_noise_added(self, rng):
        sense = CurrentSense(noise_std=1e-5, rng=rng)
        x = np.full(5000, 1e-4)
        out = sense.sense(x)
        assert np.std(out - x) == pytest.approx(1e-5, rel=0.1)

    def test_negative_noise_std_rejected(self):
        with pytest.raises(ValueError, match="noise_std"):
            CurrentSense(noise_std=-1.0)

    def test_resolution_property(self):
        assert CurrentSense().resolution == 0.0
        adc = ADC(4, 1.6)
        assert CurrentSense(adc=adc).resolution == pytest.approx(0.1)


class TestNoiselessSenseTakesNoGenerator:
    """A sense without readout noise never draws, so it needs no ``rng``.

    The three pair builders construct one without a generator (a noisy
    sense without one raises), and their reads must equal those through
    a sense holding a seeded generator.
    """

    @staticmethod
    def _seeded_sense(adc):
        return CurrentSense(adc=adc, rng=np.random.default_rng(0))

    def _assert_reads_unchanged(self, pair, x):
        got = pair.matvec(x)
        pair.diff_sense = self._seeded_sense(pair.diff_sense.adc)
        assert np.array_equal(got, pair.matvec(x))

    def test_noiseless_sense_keeps_no_generator(self):
        sense = CurrentSense(adc=ADC(4, 1.0))
        assert sense.rng is None

    def test_noisy_sense_without_rng_raises(self):
        with pytest.raises(TypeError, match="CurrentSense"):
            CurrentSense(noise_std=1e-6)

    def test_build_pair(self):
        spec = HardwareSpec(
            variation=VariationConfig(sigma=0.3),
            crossbar=CrossbarConfig(rows=12, cols=3, r_wire=0.0),
        )
        pair = build_pair(spec, WeightScaler(1.0), np.random.default_rng(2))
        assert pair.diff_sense is not None
        pair.program_weights(np.linspace(-0.8, 0.8, 36).reshape(12, 3))
        x = np.random.default_rng(3).random((5, 12))
        self._assert_reads_unchanged(pair, x)

    def test_program_array_and_restore(self):
        config = ProgramConfig(
            scheme="vortex", image_size=7, n_train=120, sigma=0.3, seed=5,
        )
        artifact = program_array(config)
        pair = artifact.build_pair()
        assert pair.diff_sense is not None
        x = np.random.default_rng(4).random((6, pair.shape[0]))
        self._assert_reads_unchanged(pair, x)

    def test_tiled_pair_with_adc(self):
        tiled = TiledPair(
            WeightScaler(1.0), n_rows=16, cols=3, tile_rows=6,
            config=CrossbarConfig(rows=16, cols=3, r_wire=0.0),
            variation=VariationConfig(sigma=0.2, sigma_cycle=0.0),
            rng=np.random.default_rng(6), adc_bits=6,
        )
        tiled.program_weights(np.linspace(-0.5, 0.5, 48).reshape(16, 3))
        x = np.random.default_rng(7).random((4, 16))
        got = tiled.matvec(x)
        for tile in tiled.tiles:
            tile.diff_sense = self._seeded_sense(tile.diff_sense.adc)
        assert np.array_equal(got, tiled.matvec(x))
