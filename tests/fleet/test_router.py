"""Scatter-gather routing: exactness, load balance, failure retry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fleet import (
    FleetConfig,
    FleetService,
    NoLiveReplicaError,
    program_fleet,
)

N_ROWS = 20
COLS = 4


def make_service(tile_rows, replicas=2, ir_mode="ideal", r_wire=0.0,
                 **kwargs):
    config = FleetConfig(
        n_rows=N_ROWS, cols=COLS, tile_rows=tile_rows, sigma=0.2,
        r_wire=r_wire, seed=7, ir_mode=ir_mode, n_probes=4,
    )
    w = np.random.default_rng(1).uniform(-1, 1, (N_ROWS, COLS))
    fleet = program_fleet(config, w)
    return fleet, FleetService(fleet, replicas=replicas, **kwargs)


class TestExactness:
    @pytest.mark.parametrize("tile_rows", [20, 10, 4])
    def test_bit_identical_across_shard_counts(self, tile_rows):
        # tile_rows 20/10/4 -> 1/2/5 shards: the gathered, digitally
        # reduced result must equal the single TiledPair read exactly
        # at every shard count (fixed left-to-right accumulation).
        fleet, service = make_service(tile_rows)
        assert fleet.n_shards == -(-N_ROWS // tile_rows)
        x = np.random.default_rng(2).random((9, N_ROWS))
        reference = fleet.build_tiled().matvec(x)
        try:
            assert np.array_equal(service.forward(x), reference)
        finally:
            service.close()

    @pytest.mark.parametrize("replicas", [1, 2, 3])
    def test_bit_identical_across_replica_counts(self, replicas):
        fleet, service = make_service(10, replicas=replicas)
        x = np.random.default_rng(3).random((6, N_ROWS))
        reference = fleet.build_tiled().matvec(x)
        try:
            assert np.array_equal(service.forward(x), reference)
        finally:
            service.close()

    def test_bit_identical_under_nodal_ir(self):
        # The hard case: per-tile sparse nodal solves, multi-RHS
        # batches of router-dependent composition.
        fleet, service = make_service(10, ir_mode="nodal", r_wire=2.0)
        x = np.random.default_rng(4).random((8, N_ROWS))
        reference = fleet.build_tiled().matvec(x, "nodal")
        try:
            assert np.array_equal(service.forward(x), reference)
            assert np.array_equal(service.predict(x[0]), reference[0])
        finally:
            service.close()

    def test_input_width_validated(self):
        _, service = make_service(10)
        try:
            with pytest.raises(ValueError, match="width"):
                service.predict(np.ones(N_ROWS + 1))
        finally:
            service.close()


class TestRouting:
    def test_ties_break_to_lowest_replica_index(self):
        _, service = make_service(10)
        try:
            for group in service.groups:
                assert group.pick().replica_index == 0
        finally:
            service.close()

    def test_draining_replicas_are_skipped(self):
        _, service = make_service(10)
        try:
            group = service.groups[0]
            group.replicas[0].draining = True
            assert group.pick().replica_index == 1
            assert len(group.live_replicas) == 1
        finally:
            service.close()

    def test_exclusion_exhaustion_raises(self):
        _, service = make_service(10, replicas=1)
        try:
            group = service.groups[0]
            with pytest.raises(NoLiveReplicaError):
                group.pick(exclude=frozenset({"shard0/r0"}))
        finally:
            service.close()


class TestFailureRetry:
    def test_killing_one_replica_drops_zero_queries(self):
        self._kill_one_replica("ideal", r_wire=0.0)

    def test_killing_one_replica_drops_zero_queries_under_nodal_ir(self):
        self._kill_one_replica("nodal", r_wire=2.0)

    @staticmethod
    def _kill_one_replica(ir_mode: str, r_wire: float) -> None:
        fleet, service = make_service(
            10, replicas=2, ir_mode=ir_mode, r_wire=r_wire
        )
        x = np.random.default_rng(5).random((16, N_ROWS))
        reference = fleet.build_tiled().matvec(x, ir_mode)
        try:
            futures = [service.submit(row) for row in x]
            service.kill_replica(0, 0)
            gathered = np.stack([f.result(timeout=30.0) for f in futures])
            assert np.array_equal(gathered, reference)
            # Later traffic also survives on the sibling alone.
            assert np.array_equal(service.forward(x), reference)
            assert service.stats()["dropped"] == 0
        finally:
            service.close()
        kills = [
            e for e in service.log.fleet_events if e.action == "kill"
        ]
        assert len(kills) == 1
        assert (kills[0].shard, kills[0].replica) == (0, 0)

    def test_unreplicated_shard_death_fails_queries_loudly(self):
        _, service = make_service(10, replicas=1)
        try:
            service.kill_replica(1, 0)
            with pytest.raises(NoLiveReplicaError):
                service.predict(np.ones(N_ROWS), timeout=30.0)
        finally:
            service.close()

    def test_killed_replica_rejects_new_work(self):
        _, service = make_service(10, replicas=2)
        try:
            replica = service.groups[0].replicas[0]
            replica.kill()
            assert not replica.live
            from repro.fleet import ReplicaDeadError

            with pytest.raises(ReplicaDeadError):
                replica.submit(np.ones(10))
        finally:
            service.close()
