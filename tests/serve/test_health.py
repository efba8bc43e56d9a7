"""Drift monitoring and the re-pretest + remap repair round trip."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.devices.defects import STUCK_AT_HRS, STUCK_AT_LRS
from repro.devices.retention import RetentionConfig, age_pair
from repro.runtime.telemetry import RunLog
from repro.serve.artifact import ProgramConfig, program_array
from repro.serve.engine import InferenceEngine
from repro.serve.health import DriftMonitor, DriftPolicy
from repro.serve.service import CrossbarService, ReplicaDeadError


@pytest.fixture(scope="module")
def artifact():
    return program_array(
        ProgramConfig(
            scheme="vortex", image_size=7, n_train=200, sigma=0.15,
            seed=5, redundancy=12,
        )
    )


def drift_the_pair(pair, stuck=((3, 2), (10, 5))) -> None:
    """Heavy retention aging plus a couple of stuck-open cells."""
    age_pair(
        pair, 3e5,
        RetentionConfig(nu_median=0.05, nu_sigma=0.5),
        np.random.default_rng(11),
    )
    defects = pair.positive.array.defects.copy()
    for row, col in stuck:
        defects[row, col] = STUCK_AT_HRS
    pair.positive.array.defects = defects


class TestDriftPolicy:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="threshold"):
            DriftPolicy(threshold=0.0)
        with pytest.raises(ValueError, match="check_every"):
            DriftPolicy(check_every=0)


class TestDriftMonitor:
    def test_fresh_restore_has_zero_discrepancy(self, artifact):
        repairs = []
        monitor = DriftMonitor(
            InferenceEngine.from_artifact(artifact),
            probes=artifact.probes,
            baseline=artifact.baseline,
            repair=repairs.append,
        )
        assert monitor.discrepancy() == 0.0
        assert monitor.check() is None
        assert repairs == []

    def test_read_mode_override_records_its_own_baseline(self):
        # A snapshot deployed under the ideal read and served under the
        # exact nodal read: the gap between the two read models is not
        # drift, so an undrifted array reads 0.
        snapshot = program_array(
            ProgramConfig(
                scheme="old", image_size=7, n_train=100, r_wire=2.5,
                seed=2,
            )
        )
        assert snapshot.ir_mode == "ideal"
        with CrossbarService(
            snapshot, ir_mode="nodal", log=RunLog()
        ) as service:
            assert service.monitor.discrepancy() == 0.0
            assert service.status()["ir_mode"] == "nodal"
        with CrossbarService(snapshot, log=RunLog()) as service:
            assert np.array_equal(
                service.monitor.baseline, snapshot.baseline
            )

    def test_cadence_respects_check_every(self, artifact):
        engine = InferenceEngine.from_artifact(artifact)
        drift_the_pair(engine.target)
        repairs = []
        monitor = DriftMonitor(
            engine, artifact.probes, artifact.baseline, repairs.append,
            policy=DriftPolicy(threshold=0.08, check_every=4),
        )
        for _ in range(3):
            monitor()
        assert repairs == []  # not yet at the 4th batch
        monitor()
        assert len(repairs) == 1
        assert repairs[0] > 0.08  # the repair gets the discrepancy

    def test_discrepancy_divides_by_the_current_baseline(self, artifact):
        engine = InferenceEngine.from_artifact(artifact)
        monitor = DriftMonitor(
            engine, artifact.probes, artifact.baseline,
            repair=lambda discrepancy: None,
        )
        drift_the_pair(engine.target)
        y = engine.forward(artifact.probes)
        for baseline in (artifact.baseline, 2.0 * artifact.baseline):
            # A replaced baseline brings its own denominator.
            monitor.baseline = baseline
            assert monitor.discrepancy() == float(
                np.mean(np.abs(y - baseline))
                / float(np.mean(np.abs(baseline)))
            )

    def test_probe_baseline_shape_mismatch_rejected(self, artifact):
        with pytest.raises(ValueError, match="baseline"):
            DriftMonitor(
                InferenceEngine.from_artifact(artifact),
                probes=artifact.probes,
                baseline=artifact.baseline[:-1],
                repair=lambda discrepancy: None,
            )


class TestRemapRoundTrip:
    """Retention drift x stuck-at defects x AMP remap, end to end."""

    def test_drift_triggers_exactly_one_recovering_remap(self, artifact):
        log = RunLog()
        service = CrossbarService(
            artifact,
            policy=DriftPolicy(threshold=0.08, check_every=2),
            log=log,
        )
        try:
            assert service.monitor.discrepancy() == 0.0
            drift_the_pair(service.pair)
            assert service.monitor.discrepancy() > 0.08
            for i in range(8):
                service.predict(
                    artifact.probes[i % len(artifact.probes)],
                    timeout=30.0,
                )
        finally:
            service.close()
        assert [(e.replica, e.action) for e in log.health_events] == [
            (None, "remap")
        ]
        event = log.health_events[0]
        assert event.discrepancy > 0.08
        assert event.recovered_discrepancy is not None
        assert event.recovered_discrepancy < 0.08
        # The re-pretest saw both injected stuck-at-HRS cells.
        assert event.defects["stuck_at_hrs"] >= 2
        summary = log.serve_summary()
        assert summary["repairs"] == 1
        assert summary["dropped"] == 0

    def test_remap_avoids_stuck_cells_with_redundancy(self, artifact):
        service = CrossbarService(
            artifact, policy=DriftPolicy(threshold=0.08)
        )
        try:
            # Kill an entire physical row of the positive array: AMP
            # must route every logical row away from it.
            dead_row = int(artifact.assignment[0])
            defects = service.pair.positive.array.defects.copy()
            defects[dead_row, :] = STUCK_AT_LRS
            service.pair.positive.array.defects = defects
            service.remap()
            assert dead_row not in service.engine.mapping.assignment
        finally:
            service.close()


class TestFailingHealthHook:
    # A repair that raises (a programming fault on real hardware) must
    # take the service down loudly, not kill its worker and leave the
    # requests queued behind it waiting forever.
    def test_failing_repair_fails_queued_requests(self, artifact):
        log = RunLog()
        service = CrossbarService(
            artifact,
            policy=DriftPolicy(threshold=1e-12, check_every=1),
            log=log,
        )
        entered, release = threading.Event(), threading.Event()

        def broken_repair(discrepancy):
            entered.set()
            release.wait(10.0)
            raise OSError("write driver fault")

        service.monitor.repair = broken_repair
        x = artifact.probes
        try:
            drift_the_pair(service.pair)
            first = service.submit(x[0])
            assert entered.wait(10.0)  # the worker is inside the repair
            queued = [service.submit(row) for row in x[1:4]]
            release.set()
            # Answered before the hook ran.
            assert first.result(timeout=10.0).shape == (10,)
            for future in queued:
                with pytest.raises(OSError, match="write driver fault"):
                    future.result(timeout=3.0)
            assert not service.alive
            with pytest.raises(ReplicaDeadError):
                service.submit(x[0])
            assert [(e.replica, e.action) for e in log.health_events] == [
                (None, "fail")
            ]
        finally:
            release.set()
            service.close()
