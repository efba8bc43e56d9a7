"""Rolling drift recovery: reprogram replicas without losing capacity.

Each replica carries its own :class:`~repro.serve.health.DriftMonitor`
against the shard's *programming-time* partial baseline, so a fleet
notices per-tile degradation exactly the way single-array serving
does.  What is new here is the repair choreography: a drifted replica
is taken out of rotation (``draining``), allowed to finish what it
accepted, reprogrammed back to the golden artifact, re-measured, and
only then returned to rotation — while its siblings keep the shard
serving.  A shard is never drained below ``min_live`` live replicas
(the quorum): if recovery would do that, the action is deferred and
recorded, to be retried on a later cycle.

The default repair (:func:`restore_replica`) is a noise-free restore
of the golden snapshot — the simulation counterpart of re-running the
open-loop programming sequence on the tile.  It is a module-level
function so fleet deployments that fan repair work out to worker
processes pass a picklable callable (rule REP002).
"""

from __future__ import annotations

import time
from typing import Callable

from repro.fleet.router import ShardGroup
from repro.runtime.telemetry import FleetEvent, RunLog, resolve_run_log
from repro.serve.health import DriftPolicy
from repro.serve.service import CrossbarService

__all__ = ["RollingReprogrammer", "restore_replica"]


def restore_replica(replica: CrossbarService) -> None:
    """Reprogram a replica's hardware back to its golden artifact.

    Conductances, variation maps and defect maps all return to the
    snapshot state, so the post-repair probe discrepancy is exactly
    zero — recovery in the strongest sense the monitor can verify.
    """
    replica.artifact.restore(replica.pair)


class RollingReprogrammer:
    """Drain-reprogram-return cycles over a fleet's replica groups.

    Args:
        groups: The fleet's shard groups (shared with the router).
        policy: Drift policy; its ``threshold`` decides which replicas
            need recovery.
        min_live: Quorum — the minimum live replicas a shard must keep
            *while* one of its replicas is being recovered.
        reprogram_fn: Repair callable ``(replica) -> None``;
            :func:`restore_replica` when omitted.  Must be picklable
            for process-pool deployments (rule REP002).
        log: Telemetry sink for :class:`FleetEvent` records.
    """

    def __init__(
        self,
        groups: list[ShardGroup],
        policy: DriftPolicy | None = None,
        min_live: int = 1,
        reprogram_fn: Callable[[CrossbarService], None] | None = None,
        log: RunLog | None = None,
    ):
        if min_live < 1:
            raise ValueError(f"min_live must be >= 1, got {min_live}")
        self.groups = list(groups)
        self.policy = policy if policy is not None else DriftPolicy()
        self.min_live = int(min_live)
        self.reprogram_fn = (
            reprogram_fn if reprogram_fn is not None else restore_replica
        )
        self.log = resolve_run_log(log)

    def scan(self) -> list[tuple[ShardGroup, CrossbarService, float]]:
        """Live replicas over the drift threshold, with their readings.

        Probe replays cost a hardware read per replica, so callers
        control the cadence (the fleet service runs a cycle on demand
        or from its status loop, not per batch).
        """
        drifted = []
        for group in self.groups:
            for replica in group.live_replicas:
                value = replica.monitor.discrepancy()
                if value > self.policy.threshold:
                    drifted.append((group, replica, value))
        return drifted

    def recover(
        self,
        group: ShardGroup,
        replica: CrossbarService,
        discrepancy: float,
    ) -> FleetEvent:
        """Recover one drifted replica, quorum permitting.

        Returns the recorded :class:`FleetEvent` — ``'reprogram'`` on
        success, ``'defer'`` when draining the replica would leave the
        shard below ``min_live`` live replicas.  A recovery that raises
        kills the replica (recording its ``'kill'`` event) before the
        error propagates, so a half-reprogrammed replica never stays in
        rotation.
        """
        if len(group.live_replicas) - 1 < self.min_live:
            return self.log.record_fleet(
                shard=replica.shard_index,
                replica=replica.replica_index,
                action="defer",
                discrepancy=discrepancy,
            )
        start = time.monotonic()
        replica.draining = True
        try:
            replica.drain()
            self.reprogram_fn(replica)
            recovered = replica.monitor.discrepancy()
            replica.restart_scheduler()
        except Exception:
            replica.kill()
            raise
        finally:
            replica.draining = False
        return self.log.record_fleet(
            shard=replica.shard_index,
            replica=replica.replica_index,
            action="reprogram",
            seconds=time.monotonic() - start,
            discrepancy=discrepancy,
            recovered_discrepancy=recovered,
        )

    def run_cycle(self) -> list[FleetEvent]:
        """One rolling pass: scan everything, recover what quorum allows."""
        return [
            self.recover(group, replica, value)
            for group, replica, value in self.scan()
        ]
