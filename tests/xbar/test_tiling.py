"""Tests for row-wise crossbar tiling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CrossbarConfig, VariationConfig
from repro.xbar.mapping import WeightScaler
from repro.xbar.pair import DifferentialCrossbar
from repro.xbar.tiling import TiledPair, split_rows


def make_tiled(n_rows=24, cols=4, tile_rows=8, r_wire=0.0, sigma=0.0,
               seed=0, adc_bits=None):
    return TiledPair(
        WeightScaler(1.0),
        n_rows=n_rows,
        cols=cols,
        tile_rows=tile_rows,
        config=CrossbarConfig(rows=n_rows, cols=cols, r_wire=r_wire),
        variation=VariationConfig(sigma=sigma, sigma_cycle=0.0),
        rng=np.random.default_rng(seed),
        adc_bits=adc_bits,
    )


class TestSplitRows:
    def test_even_partition(self):
        assert split_rows(12, 4) == [(0, 4), (4, 8), (8, 12)]

    def test_ragged_tail(self):
        assert split_rows(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_single_tile(self):
        assert split_rows(5, 100) == [(0, 5)]

    def test_tile_rows_exceeding_n_rows_covers_everything(self):
        ranges = split_rows(3, 4)
        assert ranges == [(0, 3)]
        assert ranges[-1][1] == 3  # no phantom rows past the layer

    def test_exact_multiple_has_no_stub_tile(self):
        assert split_rows(12, 12) == [(0, 12)]
        assert split_rows(12, 6) == [(0, 6), (6, 12)]
        # Ranges partition [0, n_rows) exactly: contiguous, disjoint.
        for n_rows, tile_rows in [(12, 12), (12, 6), (13, 6), (1, 1)]:
            ranges = split_rows(n_rows, tile_rows)
            assert ranges[0][0] == 0
            assert ranges[-1][1] == n_rows
            assert all(
                a[1] == b[0] for a, b in zip(ranges, ranges[1:])
            )

    def test_single_row_layer(self):
        assert split_rows(1, 8) == [(0, 1)]

    def test_validation(self):
        with pytest.raises(ValueError, match="n_rows"):
            split_rows(0, 4)
        with pytest.raises(ValueError, match="tile_rows"):
            split_rows(4, 0)


class TestTiledPair:
    def test_tile_count_and_shapes(self):
        tiled = make_tiled(n_rows=20, tile_rows=8)
        assert tiled.n_tiles == 3
        assert [t.shape[0] for t in tiled.tiles] == [8, 8, 4]

    def test_matvec_matches_monolithic_ideal(self, rng):
        w = rng.uniform(-1, 1, (24, 4))
        x = rng.random((10, 24))
        tiled = make_tiled()
        tiled.program_weights(w, with_cycle_noise=False)
        mono = DifferentialCrossbar(
            WeightScaler(1.0),
            config=CrossbarConfig(rows=24, cols=4, r_wire=0.0),
            variation=VariationConfig(sigma=0.0, sigma_cycle=0.0),
            rng=np.random.default_rng(1),
        )
        w_norm = w * (1.0 / np.abs(w).max())
        mono.program_weights(w_norm, with_cycle_noise=False)
        assert np.allclose(tiled.matvec(x), mono.matvec(x), atol=1e-9)

    def test_effective_weights_roundtrip(self, rng):
        w = rng.uniform(-1, 1, (24, 4))
        tiled = make_tiled()
        tiled.program_weights(w, with_cycle_noise=False)
        w_norm = w * (1.0 / np.abs(w).max())
        assert np.allclose(tiled.effective_weights(), w_norm, atol=1e-9)

    def test_weight_shape_validated(self):
        tiled = make_tiled()
        with pytest.raises(ValueError, match="shape"):
            tiled.program_weights(np.ones((10, 4)))

    def test_input_width_validated(self, rng):
        tiled = make_tiled()
        tiled.program_weights(rng.uniform(-1, 1, (24, 4)),
                              with_cycle_noise=False)
        with pytest.raises(ValueError, match="width"):
            tiled.matvec(np.ones(10))

    def test_tiles_fabricated_independently(self):
        tiled = make_tiled(sigma=0.5, seed=3)
        t0 = tiled.tiles[0].positive.array.theta
        t1 = tiled.tiles[1].positive.array.theta
        assert not np.allclose(t0, t1)

    def test_tiling_reduces_read_ir_error(self, rng):
        # The whole point: shorter bit lines -> less IR loss at the
        # same wire resistance.
        w = rng.uniform(-1, 1, (96, 4))
        x = rng.random((20, 96))
        w_norm = w * (1.0 / np.abs(w).max())
        ideal = x @ w_norm

        def error(tile_rows):
            tiled = make_tiled(
                n_rows=96, tile_rows=tile_rows, r_wire=5.0, seed=4
            )
            tiled.program_weights(w, with_cycle_noise=False)
            out = tiled.matvec(x, "nodal")
            return float(np.mean(np.abs(out - ideal)))

        assert error(24) < error(96)

    @pytest.mark.parametrize("ir_mode", ["ideal", "nodal"])
    def test_batched_read_bit_identical_to_looped_reads(self, rng, ir_mode):
        # The serving contract, extended to tiles: one batched read
        # (multi-RHS solve per tile) equals looping the single-query
        # path, bit for bit, so schedulers may batch freely.
        w = rng.uniform(-1, 1, (24, 4))
        x = rng.random((7, 24))
        tiled = make_tiled(r_wire=2.0 if ir_mode == "nodal" else 0.0)
        tiled.program_weights(w, with_cycle_noise=False)
        batched = tiled.matvec(x, ir_mode)
        looped = np.stack([tiled.matvec(q, ir_mode) for q in x])
        assert np.array_equal(batched, looped)

    def test_partial_matvec_reduces_to_matvec(self, rng):
        w = rng.uniform(-1, 1, (24, 4))
        x = rng.random((5, 24))
        tiled = make_tiled()
        tiled.program_weights(w, with_cycle_noise=False)
        parts = tiled.partial_matvec(x)
        assert len(parts) == tiled.n_tiles
        assert all(p.shape == (5, 4) for p in parts)
        assert np.array_equal(
            TiledPair.reduce_partials(parts), tiled.matvec(x)
        )

    def test_partial_matvec_validates_width(self, rng):
        tiled = make_tiled()
        tiled.program_weights(rng.uniform(-1, 1, (24, 4)),
                              with_cycle_noise=False)
        with pytest.raises(ValueError, match="width"):
            tiled.partial_matvec(np.ones(23))

    def test_reduce_partials_rejects_empty(self):
        with pytest.raises(ValueError, match="partial"):
            TiledPair.reduce_partials([])

    def test_adc_calibration_per_tile(self, rng):
        tiled = make_tiled(adc_bits=6)
        w = rng.uniform(-1, 1, (24, 4))
        tiled.program_weights(w, with_cycle_noise=False)
        x = rng.random((30, 24))
        tiled.calibrate_sense(x)
        w_norm = w * (1.0 / np.abs(w).max())
        out = tiled.matvec(x)
        # Quantised but close: per-tile auto-ranging keeps the summed
        # output faithful.
        assert np.mean(np.abs(out - x @ w_norm)) < 0.1
