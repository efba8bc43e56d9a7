"""Shard planning: programming, snapshots, persistence, reconstruction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fleet import (
    FleetConfig,
    ProgrammedFleet,
    fleet_key,
    program_fleet,
)
from repro.runtime.cache import ArtifactCache
from repro.xbar.tiling import TiledPair


def make_fleet(n_rows=30, cols=5, tile_rows=12, **kwargs):
    config = FleetConfig(
        n_rows=n_rows, cols=cols, tile_rows=tile_rows,
        sigma=kwargs.pop("sigma", 0.2), seed=kwargs.pop("seed", 3),
        n_probes=kwargs.pop("n_probes", 6), **kwargs,
    )
    w = np.random.default_rng(0).uniform(
        -1, 1, (config.n_rows, config.cols)
    )
    return config, w, program_fleet(config, w)


class TestFleetConfig:
    def test_ranges_follow_split_rows(self):
        config = FleetConfig(n_rows=30, tile_rows=12)
        assert config.ranges == [(0, 12), (12, 24), (24, 30)]
        assert config.n_shards == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="n_rows"):
            FleetConfig(n_rows=0)
        with pytest.raises(ValueError, match="tile_rows"):
            FleetConfig(n_rows=10, tile_rows=0)
        with pytest.raises(ValueError, match="cols"):
            FleetConfig(n_rows=10, cols=0)
        with pytest.raises(ValueError, match="n_probes"):
            FleetConfig(n_rows=10, n_probes=0)
        with pytest.raises(ValueError, match="ir_mode"):
            FleetConfig(n_rows=10, ir_mode="magic")


class TestProgramFleet:
    def test_shard_shapes_cover_the_layer(self):
        config, _, fleet = make_fleet()
        assert fleet.n_shards == 3
        for shard, (start, stop) in zip(fleet.shards, config.ranges):
            assert shard.g_pos.shape == (stop - start, config.cols)
            assert shard.probes.shape == (config.n_probes, stop - start)
            assert shard.metadata["row_start"] == start
            assert shard.metadata["row_stop"] == stop

    def test_one_global_weight_normalisation(self):
        _, w, fleet = make_fleet()
        stacked = np.concatenate(
            [shard.weights for shard in fleet.shards], axis=0
        )
        assert np.allclose(stacked, w * (1.0 / np.abs(w).max()))

    def test_shard_baselines_are_tile_partials(self):
        # The fleet baseline is the left-to-right reduction of the
        # per-shard partial baselines -- and must equal a single tiled
        # read of the reassembled probes, bit for bit.
        config, _, fleet = make_fleet()
        tiled = fleet.build_tiled()
        probes = fleet.probes
        assert np.array_equal(
            TiledPair.reduce_partials(fleet.baseline),
            tiled.matvec(probes, config.ir_mode),
        )
        partials = tiled.partial_matvec(probes, config.ir_mode)
        for shard, baseline, partial in zip(
            fleet.shards, fleet.baseline, partials
        ):
            assert np.array_equal(shard.baseline, partial)
            assert np.array_equal(baseline, partial)

    def test_identical_inputs_produce_identical_fleets(self):
        _, _, first = make_fleet()
        _, _, second = make_fleet()
        for a, b in zip(first.shards, second.shards):
            assert np.array_equal(a.g_pos, b.g_pos)
            assert np.array_equal(a.theta_neg, b.theta_neg)
            assert np.array_equal(a.probes, b.probes)

    def test_weight_shape_validated(self):
        config = FleetConfig(n_rows=10, cols=4)
        with pytest.raises(ValueError, match="shape"):
            program_fleet(config, np.ones((10, 3)))

    def test_probe_shape_validated(self):
        config = FleetConfig(n_rows=10, cols=4)
        with pytest.raises(ValueError, match="probes"):
            program_fleet(
                config, np.ones((10, 4)), probes=np.ones((3, 7))
            )


class TestPersistence:
    def test_round_trip(self, tmp_path):
        config, w, fleet = make_fleet()
        cache = ArtifactCache(tmp_path)
        key = fleet_key(config, w)
        fleet.save(cache, key)
        loaded = ProgrammedFleet.load(cache, key)
        assert loaded.config == config
        assert loaded.n_shards == fleet.n_shards
        for a, b in zip(fleet.shards, loaded.shards):
            assert np.array_equal(a.g_pos, b.g_pos)
            assert np.array_equal(a.g_neg, b.g_neg)
            assert np.array_equal(a.baseline, b.baseline)
            assert np.array_equal(a.defects_pos, b.defects_pos)

    def test_missing_key_raises(self, tmp_path):
        with pytest.raises(KeyError, match="fleet"):
            ProgrammedFleet.load(ArtifactCache(tmp_path), "deadbeef")

    def test_key_depends_on_weights(self):
        config = FleetConfig(n_rows=10, cols=4)
        a = fleet_key(config, np.ones((10, 4)))
        b = fleet_key(config, np.zeros((10, 4)))
        assert a != b


class TestBuildTiled:
    def test_restored_tiled_reads_like_the_snapshots(self):
        # Restoring twice must give bit-identical hardware: the golden
        # reference the router equivalence tests compare against is
        # itself reproducible.
        config, _, fleet = make_fleet(sigma=0.3)
        x = np.random.default_rng(9).random((8, config.n_rows))
        first = fleet.build_tiled().matvec(x, config.ir_mode)
        second = fleet.build_tiled().matvec(x, config.ir_mode)
        assert np.array_equal(first, second)

    def test_partial_reduction_matches_matvec(self):
        config, _, fleet = make_fleet()
        tiled = fleet.build_tiled()
        x = np.random.default_rng(4).random((5, config.n_rows))
        parts = tiled.partial_matvec(x, config.ir_mode)
        assert len(parts) == fleet.n_shards
        assert np.array_equal(
            TiledPair.reduce_partials(parts),
            tiled.matvec(x, config.ir_mode),
        )
