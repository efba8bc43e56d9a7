"""Replica routing: exactness, load balance, whole-block replay."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.fleet import (
    FleetConfig,
    FleetService,
    NoLiveReplicaError,
    ShardGroup,
    program_fleet,
)
from repro.xbar.tiling import TiledPair

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


def hold_reads(replica, entered, release) -> None:
    """Hold ``replica``'s reads until ``release`` is set."""
    forward = replica.engine.forward

    def held_forward(x):
        entered.set()
        release.wait(10.0)
        return forward(x)

    replica.engine.forward = held_forward


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
            assert service.group.pick().replica_index == 0
        finally:
            service.close()

    def test_exclusion_exhaustion_raises(self):
        _, service = make_service(10, replicas=1)
        try:
            group = service.group
            with pytest.raises(NoLiveReplicaError):
                group.pick(exclude=frozenset({"r0"}))
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
            service.kill_replica(0)
            gathered = np.stack([f.result(timeout=30.0) for f in futures])
            assert np.array_equal(gathered, reference)
            # Later traffic also survives on the sibling alone.
            assert np.array_equal(service.forward(x), reference)
            assert service.stats()["dropped"] == 0
        finally:
            service.close()
        kills = [
            e for e in service.log.health_events if e.action == "kill"
        ]
        assert len(kills) == 1
        assert kills[0].replica == 0

    def test_unreplicated_shard_death_fails_queries_loudly(self):
        _, service = make_service(10, replicas=1)
        try:
            service.kill_replica(0)
            with pytest.raises(NoLiveReplicaError):
                service.predict(np.ones(N_ROWS), timeout=30.0)
        finally:
            service.close()

    def test_killed_replica_rejects_new_work(self):
        _, service = make_service(10, replicas=2)
        try:
            replica = service.group.replicas[0]
            replica.kill()
            assert not replica.alive
            from repro.fleet import ReplicaDeadError

            with pytest.raises(ReplicaDeadError):
                replica.submit(np.ones(N_ROWS))
        finally:
            service.close()


class TestBlockPath:
    """A block of k rows goes whole to one replica: one lane hand-off,
    one tiled read (one partial per shard, one reduce)."""

    def test_one_partial_per_shard_and_one_reduce(self, monkeypatch):
        fleet, service = make_service(4)  # 5 shards
        x = np.random.default_rng(8).random((9, N_ROWS))
        reference = fleet.build_tiled().matvec(x)
        calls = {"shard_submit": 0, "reduce": 0}
        shard_submit = ShardGroup.submit
        reduce = TiledPair.reduce_partials

        def counted_submit(group, *args, **kwargs):
            calls["shard_submit"] += 1
            return shard_submit(group, *args, **kwargs)

        def counted_reduce(parts):
            calls["reduce"] += 1
            return reduce(parts)

        monkeypatch.setattr(ShardGroup, "submit", counted_submit)
        monkeypatch.setattr(
            TiledPair, "reduce_partials", staticmethod(counted_reduce)
        )
        try:
            got = service.forward(x, timeout=30.0)
        finally:
            service.close()
        assert np.array_equal(got, reference)
        assert calls == {"shard_submit": 1, "reduce": 1}
        # One record per block, counted in rows.
        assert [r.rows for r in service.log.requests] == [9]
        assert service.stats()["answered"] == 9

    def test_client_rows_count_once_across_shards(self):
        fleet, service = make_service(7)  # 3 shards
        assert fleet.n_shards == 3
        x = np.random.default_rng(10).random((5, N_ROWS))
        try:
            service.forward(x, timeout=30.0)
        finally:
            service.close()
        stats = service.stats()
        assert (stats["requests"], stats["answered"]) == (5, 5)

    @pytest.mark.parametrize(
        "ir_mode,r_wire", [("ideal", 0.0), ("nodal", 2.0)],
        ids=["ideal", "nodal"],
    )
    def test_killed_replica_replays_queued_block_partial(
        self, ir_mode, r_wire
    ):
        fleet, service = make_service(
            10, replicas=2, ir_mode=ir_mode, r_wire=r_wire
        )
        blocks = np.random.default_rng(9).random((3, 7, N_ROWS))
        tiled = fleet.build_tiled()
        reference = [tiled.matvec(b, ir_mode) for b in blocks]
        victim, sibling = service.group.replicas
        entered, release = threading.Event(), threading.Event()
        hold_reads(victim, entered, release)
        # Every block goes to the victim until it is killed: the
        # sibling is held in a read with two more queries queued
        # behind it, so its queue stays the deeper one.
        held, free = threading.Event(), threading.Event()
        hold_reads(sibling, held, free)
        queries = np.random.default_rng(10).random((3, N_ROWS))
        try:
            fillers = [sibling.submit(queries[0])]
            assert held.wait(10.0)
            fillers += [sibling.submit(q) for q in queries[1:]]
            futures = [service.submit(blocks[0])]
            assert entered.wait(10.0)  # a block is in flight
            futures += [service.submit(b) for b in blocks[1:]]
            assert victim.depth == 2  # and two more are queued
            free.set()
            timer = threading.Timer(0.05, release.set)
            timer.start()
            service.kill_replica(0)
            got = [f.result(timeout=30.0) for f in futures]
            filled = [f.result(timeout=30.0) for f in fillers]
            timer.join()
        finally:
            free.set()
            release.set()
            service.close()
        for block, expected in zip(got, reference):
            assert np.array_equal(block, expected)
        assert np.array_equal(np.stack(filled), tiled.matvec(queries, ir_mode))
        stats = service.stats()
        assert stats["dropped"] == 0
        # The sibling served every replayed row, each counted once,
        # besides its own three queries.
        assert stats["lanes"]["r1"]["answered"] == 21 + 3
        assert "r0" not in stats["lanes"]
        assert (stats["requests"], stats["answered"]) == (24, 24)

    def test_failed_replay_counts_the_block_as_dropped(self):
        _, service = make_service(10, replicas=1)
        victim = service.group.replicas[0]
        entered, release = threading.Event(), threading.Event()
        hold_reads(victim, entered, release)
        block = np.random.default_rng(11).random((3, N_ROWS))
        try:
            future = service.submit(block)
            assert entered.wait(10.0)  # the block is in the read
            timer = threading.Timer(0.05, release.set)
            timer.start()
            service.kill_replica(0)
            with pytest.raises(NoLiveReplicaError):
                future.result(timeout=30.0)
            timer.join()
        finally:
            release.set()
            service.close()
        stats = service.stats()
        assert (stats["requests"], stats["answered"], stats["dropped"]) == (
            3, 0, 3
        )
        assert stats["lanes"]["r0"]["dropped"] == 3

    def test_wrong_width_block_refused(self):
        _, service = make_service(10)
        try:
            for shape in [(2, N_ROWS + 1), (0, N_ROWS), (1, 1, N_ROWS)]:
                with pytest.raises(ValueError, match="width"):
                    service.submit(np.ones(shape))
        finally:
            service.close()
