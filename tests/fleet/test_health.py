"""In-place drift repair: every fleet lane restores itself."""

from __future__ import annotations

import threading
import types

import numpy as np
import pytest

from repro.devices.retention import RetentionConfig, age_pair
from repro.fleet import FleetConfig, FleetService, program_fleet
from repro.serve.health import DriftPolicy
from repro.serve.service import CrossbarService

N_ROWS = 24
COLS = 4
EVERY_BATCH = DriftPolicy(threshold=0.05, check_every=1)


def make_fleet(ir_mode="ideal", r_wire=0.0):
    config = FleetConfig(
        n_rows=N_ROWS, cols=COLS, tile_rows=8, sigma=0.2, seed=5,
        n_probes=4, ir_mode=ir_mode, r_wire=r_wire,
    )
    w = np.random.default_rng(2).uniform(-1, 1, (N_ROWS, COLS))
    return program_fleet(config, w)


def make_service(replicas=2, ir_mode="ideal", r_wire=0.0, **kwargs):
    fleet = make_fleet(ir_mode, r_wire)
    kwargs.setdefault("policy", EVERY_BATCH)
    return fleet, FleetService(fleet, replicas=replicas, **kwargs)


def drift_tile(replica, tile: int = 1) -> None:
    """Heavy retention aging of one tile of a replica's tiled layer."""
    age_pair(
        replica.engine.target.tiles[tile], 3e5,
        RetentionConfig(nu_median=0.05, nu_sigma=0.5),
        np.random.default_rng(11),
    )


def actions(log) -> list[tuple[int | None, str]]:
    return [(e.replica, e.action) for e in log.health_events]


class TestSelfRepair:
    @pytest.mark.parametrize("replicas", [1, 2])
    def test_drifted_replica_recovers(self, replicas):
        self._restore_drifted_replica(replicas, "ideal", r_wire=0.0)

    def test_drifted_replica_recovers_under_nodal_ir(self):
        self._restore_drifted_replica(2, "nodal", r_wire=2.5)

    @staticmethod
    def _restore_drifted_replica(
        replicas: int, ir_mode: str, r_wire: float
    ) -> None:
        fleet, service = make_service(
            replicas=replicas, ir_mode=ir_mode, r_wire=r_wire
        )
        x = np.random.default_rng(6).random((8, N_ROWS))
        reference = fleet.build_tiled().matvec(x, ir_mode)
        try:
            victim = service.group.replicas[0]
            drift_tile(victim)
            # Only the aged tile reads as drifted.
            tiles = victim.monitor.tile_discrepancies()
            assert tiles[1] > 0.05
            assert tiles[0] == tiles[2] == 0.0
            assert victim.monitor.discrepancy() == tiles[1]
            # The first block is read from the drifted hardware (that
            # is what drift *is*); the lane's own check after that
            # batch restores the tile before its next read.
            for _ in range(3):
                assert service.forward(x).shape == (8, COLS)
            assert actions(service.log) == [(0, "restore")]
            event = service.log.health_events[0]
            assert event.discrepancy > 0.05
            assert event.recovered_discrepancy == 0.0
            assert event.seconds > 0.0
            assert np.array_equal(service.forward(x), reference)
            # The lane never left rotation.
            assert victim.alive
            assert victim.monitor.discrepancy() == 0.0
            assert service.stats()["dropped"] == 0
        finally:
            service.close()

    def test_healthy_fleet_has_nothing_to_recover(self):
        fleet, service = make_service()
        x = np.random.default_rng(6).random((8, N_ROWS))
        try:
            for _ in range(3):
                assert np.array_equal(
                    service.forward(x), fleet.build_tiled().matvec(x)
                )
            assert service.log.health_events == []
            assert service.stats()["health_events"] == 0
        finally:
            service.close()


class TestFleetTelemetry:
    def test_summary_counts_fleet_events(self):
        _, service = make_service()
        try:
            drift_tile(service.group.replicas[0])
            for _ in range(2):
                service.predict(np.ones(N_ROWS), timeout=30.0)
            summary = service.stats()
            assert summary["health_events"] == 1
            assert summary["repairs"] == 1
            assert set(summary["lanes"]) <= {"r0", "r1"}
        finally:
            service.close()

    def test_fleet_events_serialise_to_json(self):
        import json

        _, service = make_service()
        try:
            drift_tile(service.group.replicas[0])
            for _ in range(2):
                service.predict(np.ones(N_ROWS), timeout=30.0)
        finally:
            service.close()
        doc = json.loads(service.log.to_json())
        events = doc["health_events"]
        assert len(events) == 1
        assert events[0]["action"] == "restore"
        assert events[0]["replica"] == 0
        assert events[0]["recovered_discrepancy"] == 0.0


class TestReadModeOverride:
    # The fleet is deployed under the ideal read and served under the
    # exact nodal read.
    def test_status_reports_the_served_mode(self):
        fleet = make_fleet(r_wire=2.5)
        with FleetService(fleet, ir_mode="nodal") as service:
            assert service.status()["ir_mode"] == "nodal"
        with FleetService(fleet) as service:
            assert service.status()["ir_mode"] == "ideal"

    def test_override_baseline_reads_no_drift(self):
        with FleetService(make_fleet(r_wire=2.5), ir_mode="nodal") as service:
            replicas = service.status()["replicas"]
        assert [r["name"] for r in replicas] == ["r0", "r1"]
        assert all(r["discrepancy"] == [0.0] * 3 for r in replicas)


class TestLaneFaults:
    def test_failing_health_check_hands_partials_to_a_sibling(self):
        fleet, service = make_service(
            policy=DriftPolicy(threshold=1e-12, check_every=1)
        )
        x = np.random.default_rng(6).random((8, N_ROWS))
        reference = fleet.build_tiled().matvec(x, "ideal")
        victim, sibling = service.group.replicas
        entered, release = threading.Event(), threading.Event()

        def broken_check():
            entered.set()
            release.wait(10.0)
            raise OSError("probe read fault")

        victim.monitor.check = broken_check
        try:
            futures = [service.submit(x[0])]
            assert entered.wait(10.0)  # the victim's worker is stuck
            futures += [service.submit(row) for row in x[1:]]
            assert victim.depth >= 1  # queries queued behind the fault
            release.set()
            # The queued queries fail with ReplicaDeadError and are
            # replayed on the sibling: nothing is lost or changed.
            got = np.stack([f.result(timeout=5.0) for f in futures])
            assert np.array_equal(got, reference)
            assert not victim.alive and sibling.alive
            assert actions(service.log) == [(0, "fail")]
            assert service.status()["live"] == 1
            assert service.stats()["dropped"] == 0
        finally:
            release.set()
            service.close()

    def test_kill_during_health_check_records_one_kill(self):
        fleet, service = make_service()
        victim = service.group.replicas[0]
        entered, release = threading.Event(), threading.Event()
        discrepancy = victim.monitor.discrepancy

        def held_discrepancy():
            entered.set()
            release.wait(10.0)
            return discrepancy()

        victim.monitor.discrepancy = held_discrepancy
        try:
            future = service.submit(np.ones(N_ROWS))
            assert entered.wait(10.0)  # the worker is inside its check
            timer = threading.Timer(0.05, release.set)
            timer.start()
            service.kill_replica(0)
            timer.join()
            assert np.array_equal(
                future.result(timeout=10.0),
                fleet.build_tiled().matvec(np.ones(N_ROWS)),
            )
            assert actions(service.log) == [(0, "kill")]
        finally:
            release.set()
            service.close()

    def test_standalone_fleet_service_repairs_itself(self):
        # A CrossbarService over a whole fleet, outside FleetService,
        # restores a drifted tile itself and keeps answering.
        fleet = make_fleet()
        x = np.random.default_rng(6).random((4, N_ROWS))
        reference = fleet.build_tiled().matvec(x)
        service = CrossbarService(fleet, policy=EVERY_BATCH)
        try:
            drift_tile(service)
            drifted = service.engine.target.matvec(x, "ideal")
            assert not np.array_equal(drifted, reference)
            got = service.submit(x).result(timeout=10.0)
            assert np.array_equal(got, drifted)
            # Served after the check that followed the first batch.
            got = service.submit(x).result(timeout=10.0)
            assert np.array_equal(got, reference)
            assert service.alive
            assert actions(service.log) == [(None, "restore")]
            assert service.log.health_events[0].recovered_discrepancy == 0.0
            assert service.status()["discrepancy"] == 0.0
        finally:
            service.close()

    def test_failing_reprogram_kills_the_replica(self):
        # A restore that raises (a programming fault on real hardware)
        # takes the lane down loudly; its queued block replays on the
        # sibling and no answer is read from the drifted tile.
        fleet, service = make_service()
        x = np.random.default_rng(6).random((8, N_ROWS))
        reference = fleet.build_tiled().matvec(x, "ideal")
        victim, sibling = service.group.replicas

        def broken_restore(tiled):
            raise OSError("programming fault")

        victim.artifact = types.SimpleNamespace(restore=broken_restore)
        entered, release = threading.Event(), threading.Event()
        forward = victim.engine.forward

        def read_then_age(rows):
            entered.set()
            release.wait(10.0)
            answer = forward(rows)
            drift_tile(victim)
            return answer

        victim.engine.forward = read_then_age
        try:
            futures = [service.submit(x[:4])]
            assert entered.wait(10.0)  # the first block is in the read
            futures.append(service.submit(x[4:]))
            assert victim.depth == 1  # and the second is queued
            release.set()
            got = np.concatenate([f.result(timeout=10.0) for f in futures])
            assert np.array_equal(got, reference)
            assert not victim.alive and sibling.alive
            assert actions(service.log) == [(0, "fail")]
            status = service.status()
            assert status["live"] == 1
            assert [r["alive"] for r in status["replicas"]] == [False, True]
            assert status["replicas"][0]["discrepancy"] is None
            assert service.group.pick() is sibling
            assert np.array_equal(service.forward(x), reference)
            assert service.stats()["dropped"] == 0
        finally:
            release.set()
            service.close()
