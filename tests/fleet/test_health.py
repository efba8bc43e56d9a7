"""Rolling drift recovery: drain, reprogram, quorum, telemetry."""

from __future__ import annotations

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

N_ROWS = 24
COLS = 4


def make_service(replicas=2, ir_mode="ideal", r_wire=0.0, **kwargs):
    config = FleetConfig(
        n_rows=N_ROWS, cols=COLS, tile_rows=8, sigma=0.2, seed=5,
        n_probes=4, ir_mode=ir_mode, r_wire=r_wire,
    )
    w = np.random.default_rng(2).uniform(-1, 1, (N_ROWS, COLS))
    fleet = program_fleet(config, w)
    kwargs.setdefault("policy", DriftPolicy(threshold=0.05))
    return fleet, FleetService(fleet, replicas=replicas, **kwargs)


def drift_replica(replica) -> None:
    """Heavy retention aging of one replica's restored pair."""
    age_pair(
        replica.engine.target, 3e5,
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
            victim = service.groups[1].replicas[0]
            drift_replica(victim)
            assert victim.monitor.discrepancy() > 0.05
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
            assert (event.shard, event.replica) == (1, 0)
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
            victim = service.groups[0].replicas[0]
            drift_replica(victim)
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
            service.kill_replica(2, 1)
            drift_replica(service.groups[2].replicas[0])
            events = service.run_recovery_cycle()
            assert [e.action for e in events] == ["defer"]
        finally:
            service.close()

    def test_custom_reprogram_fn_is_used(self):
        _, service = make_service()
        seen = []
        reprogrammer = RollingReprogrammer(
            service.groups,
            policy=DriftPolicy(threshold=0.05),
            reprogram_fn=seen.append,
            log=service.log,
        )
        try:
            victim = service.groups[0].replicas[1]
            drift_replica(victim)
            reprogrammer.run_cycle()
            assert seen == [victim]
        finally:
            service.close()

    def test_min_live_validated(self):
        _, service = make_service()
        try:
            with pytest.raises(ValueError, match="min_live"):
                RollingReprogrammer(service.groups, min_live=0)
        finally:
            service.close()


class TestFleetTelemetry:
    def test_summary_counts_fleet_events(self):
        _, service = make_service()
        try:
            drift_replica(service.groups[0].replicas[0])
            service.run_recovery_cycle()
            service.predict(np.ones(N_ROWS), timeout=30.0)
            summary = service.stats()
            assert summary["fleet_events"] == 1
            assert summary["reprograms"] == 1
            assert any(
                label.startswith("shard") for label in summary["lanes"]
            )
        finally:
            service.close()

    def test_fleet_events_serialise_to_json(self):
        import json

        _, service = make_service()
        try:
            drift_replica(service.groups[0].replicas[0])
            service.run_recovery_cycle()
        finally:
            service.close()
        doc = json.loads(service.log.to_json())
        events = doc["fleet_events"]
        assert len(events) == 1
        assert events[0]["action"] == "reprogram"
