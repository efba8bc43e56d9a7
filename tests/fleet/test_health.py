"""Rolling drift recovery: drain, reprogram, quorum, telemetry."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.devices.retention import RetentionConfig, age_pair
from repro.fleet import (
    FleetConfig,
    FleetService,
    RollingReprogrammer,
    program_fleet,
)
from repro.serve.health import DriftPolicy
from repro.serve.service import CrossbarService

N_ROWS = 24
COLS = 4


def make_fleet(ir_mode="ideal", r_wire=0.0):
    config = FleetConfig(
        n_rows=N_ROWS, cols=COLS, tile_rows=8, sigma=0.2, seed=5,
        n_probes=4, ir_mode=ir_mode, r_wire=r_wire,
    )
    w = np.random.default_rng(2).uniform(-1, 1, (N_ROWS, COLS))
    return program_fleet(config, w)


def make_service(replicas=2, ir_mode="ideal", r_wire=0.0, **kwargs):
    fleet = make_fleet(ir_mode, r_wire)
    kwargs.setdefault("policy", DriftPolicy(threshold=0.05))
    return fleet, FleetService(fleet, replicas=replicas, **kwargs)


def drift_tile(replica, tile: int = 1) -> None:
    """Heavy retention aging of one tile of a replica's tiled layer."""
    age_pair(
        replica.engine.target.tiles[tile], 3e5,
        RetentionConfig(nu_median=0.05, nu_sigma=0.5),
        np.random.default_rng(11),
    )


class TestRollingReprogram:
    def test_drifted_replica_recovers_while_sibling_serves(self):
        self._recover_drifted_replica("ideal", r_wire=0.0)

    def test_drifted_replica_recovers_under_nodal_ir(self):
        self._recover_drifted_replica("nodal", r_wire=2.5)

    @staticmethod
    def _recover_drifted_replica(ir_mode: str, r_wire: float) -> None:
        fleet, service = make_service(ir_mode=ir_mode, r_wire=r_wire)
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
            # Queries in flight across the recovery are all answered
            # (the sibling covers the drained replica); answers routed
            # through the drifted hardware are off until recovery --
            # that is what drift *is* -- but nothing is dropped, and
            # post-recovery traffic is exact again.
            before = [service.submit(row) for row in x]
            events = service.run_recovery_cycle()
            after = service.forward(x)
            assert all(
                f.result(timeout=30.0).shape == (COLS,) for f in before
            )
            assert np.array_equal(after, reference)
            assert [e.action for e in events] == ["reprogram"]
            event = events[0]
            assert event.replica == 0
            assert event.discrepancy > 0.05
            assert event.recovered_discrepancy == 0.0
            assert event.seconds > 0.0
            # The recovered replica is back in rotation.
            assert victim.live
            assert victim.monitor.discrepancy() == 0.0
            assert service.stats()["dropped"] == 0
        finally:
            service.close()

    def test_healthy_fleet_has_nothing_to_recover(self):
        _, service = make_service()
        try:
            assert service.run_recovery_cycle() == []
            assert service.log.fleet_events == []
        finally:
            service.close()

    def test_recovery_defers_below_quorum(self):
        _, service = make_service(replicas=1)
        try:
            victim = service.group.replicas[0]
            drift_tile(victim)
            events = service.run_recovery_cycle()
            assert [e.action for e in events] == ["defer"]
            assert events[0].discrepancy > 0.05
            # Deferred means untouched: still drifted, still serving.
            assert victim.live
            assert victim.monitor.discrepancy() > 0.05
        finally:
            service.close()

    def test_dead_sibling_blocks_recovery(self):
        _, service = make_service(replicas=2)
        try:
            service.kill_replica(1)
            drift_tile(service.group.replicas[0], tile=2)
            events = service.run_recovery_cycle()
            assert [e.action for e in events] == ["defer"]
        finally:
            service.close()

    def test_custom_reprogram_fn_is_used(self):
        _, service = make_service()
        seen = []
        reprogrammer = RollingReprogrammer(
            service.group,
            reprogram_fn=seen.append,
            log=service.log,
        )
        try:
            victim = service.group.replicas[1]
            drift_tile(victim, tile=0)
            reprogrammer.run_cycle()
            assert seen == [victim]
        finally:
            service.close()

    def test_min_live_validated(self):
        _, service = make_service()
        try:
            with pytest.raises(ValueError, match="min_live"):
                RollingReprogrammer(service.group, min_live=0)
        finally:
            service.close()


class TestFleetTelemetry:
    def test_summary_counts_fleet_events(self):
        _, service = make_service()
        try:
            drift_tile(service.group.replicas[0])
            service.run_recovery_cycle()
            service.predict(np.ones(N_ROWS), timeout=30.0)
            summary = service.stats()
            assert summary["fleet_events"] == 1
            assert summary["reprograms"] == 1
            assert set(summary["lanes"]) <= {"r0", "r1"}
        finally:
            service.close()

    def test_fleet_events_serialise_to_json(self):
        import json

        _, service = make_service()
        try:
            drift_tile(service.group.replicas[0])
            service.run_recovery_cycle()
        finally:
            service.close()
        doc = json.loads(service.log.to_json())
        events = doc["fleet_events"]
        assert len(events) == 1
        assert events[0]["action"] == "reprogram"


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
            assert not victim.alive and sibling.live
            assert [
                (e.replica, e.action) for e in service.log.fleet_events
            ] == [(0, "fail")]
            assert service.status()["live"] == 1
            assert service.stats()["dropped"] == 0
        finally:
            release.set()
            service.close()

    def test_standalone_fleet_service_alerts_on_drift(self):
        # A CrossbarService over a whole fleet, outside FleetService,
        # has no repair hook: a drifted tile raises an alert, and the
        # service stays alive and keeps answering.
        fleet = make_fleet()
        x = np.random.default_rng(6).random((4, N_ROWS))
        service = CrossbarService(
            fleet, policy=DriftPolicy(threshold=0.05, check_every=1)
        )
        try:
            assert service.monitor.repair is None
            drift_tile(service)
            drifted = service.engine.target.matvec(x, "ideal")
            got = service.submit(x).result(timeout=10.0)
            assert np.array_equal(got, drifted)
            assert service.submit(x).result(timeout=10.0).shape == (4, COLS)
            assert service.alive
            assert [e.action for e in service.log.drift_events][:1] == [
                "alert"
            ]
            assert service.status()["discrepancy"] > 0.05
            assert service.log.fleet_events == []
        finally:
            service.close()

    def test_failing_reprogram_kills_the_replica(self):
        fleet, service = make_service()

        def broken_reprogram(replica):
            raise OSError("programming fault")

        service.reprogrammer.reprogram_fn = broken_reprogram
        x = np.random.default_rng(6).random((8, N_ROWS))
        reference = fleet.build_tiled().matvec(x, "ideal")
        try:
            victim, sibling = service.group.replicas
            drift_tile(victim)
            with pytest.raises(OSError, match="programming fault"):
                service.run_recovery_cycle()
            # Drained and half-reprogrammed: out of rotation for good.
            assert not victim.alive and not victim.live
            assert [
                (e.replica, e.action) for e in service.log.fleet_events
            ] == [(0, "kill")]
            status = service.status()
            assert status["live"] == 1
            assert [r["alive"] for r in status["replicas"]] == [False, True]
            assert status["replicas"][0]["discrepancy"] is None
            assert service.group.pick() is sibling
            assert np.array_equal(service.forward(x), reference)
        finally:
            service.close()
