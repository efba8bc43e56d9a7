"""Rolling drift recovery: reprogram replicas without losing capacity.

Each replica is one serving lane over the whole tiled layer, and its
:class:`~repro.serve.health.DriftMonitor` judges every tile against
that shard's *programming-time* partial baseline (one
:meth:`~repro.xbar.tiling.TiledPair.partial_matvec` of the probes), so
one aged tile is enough to mark the replica drifted.  What is new here
is the repair choreography: a drifted replica is taken out of rotation
(``draining``), allowed to finish what it accepted, reprogrammed back
to the golden shard artifacts, re-measured, and only then returned to
rotation — while its siblings keep the layer serving.  The fleet is
never drained below ``min_live`` live replicas (the quorum): if
recovery would do that, the action is deferred and recorded, to be
retried on a later cycle.

The default repair (:func:`restore_replica`) is a noise-free restore
of the golden snapshots, tile by tile — the simulation counterpart of
re-running the open-loop programming sequence on every tile.  It is a
module-level function so fleet deployments that fan repair work out to
worker processes pass a picklable callable (rule REP002).
"""

from __future__ import annotations

import time
from typing import Callable

from repro.fleet.router import ShardGroup
from repro.runtime.telemetry import FleetEvent, RunLog, resolve_run_log
from repro.serve.service import CrossbarService

__all__ = ["RollingReprogrammer", "restore_replica"]


def restore_replica(replica: CrossbarService) -> None:
    """Reprogram a replica's hardware back to its golden artifact.

    Conductances, variation maps and defect maps of every tile return
    to the snapshot state, so the post-repair probe discrepancy is
    exactly zero — recovery in the strongest sense the monitor can
    verify.
    """
    replica.artifact.restore(replica.pair)


class RollingReprogrammer:
    """Drain-reprogram-return cycles over a fleet's replica set.

    A replica counts as drifted when its monitor's discrepancy (its
    worst tile's) exceeds the threshold of the monitor's own policy.

    Args:
        group: The fleet's replica set (shared with the router).
        min_live: Quorum — the minimum live replicas the fleet must
            keep *while* one replica is being recovered.
        reprogram_fn: Repair callable ``(replica) -> None``;
            :func:`restore_replica` when omitted.  Must be picklable
            for process-pool deployments (rule REP002).
        log: Telemetry sink for :class:`FleetEvent` records.
    """

    def __init__(
        self,
        group: ShardGroup,
        min_live: int = 1,
        reprogram_fn: Callable[[CrossbarService], None] | None = None,
        log: RunLog | None = None,
    ):
        if min_live < 1:
            raise ValueError(f"min_live must be >= 1, got {min_live}")
        self.group = group
        self.min_live = int(min_live)
        self.reprogram_fn = (
            reprogram_fn if reprogram_fn is not None else restore_replica
        )
        self.log = resolve_run_log(log)

    def scan(self) -> list[tuple[CrossbarService, float]]:
        """Live replicas over the drift threshold, with their readings.

        Probe replays cost a hardware read per replica, so callers
        control the cadence (the fleet service runs a cycle on demand
        or from its status loop, not per batch).
        """
        drifted = []
        for replica in self.group.live_replicas:
            value = replica.monitor.discrepancy()
            if value > replica.monitor.policy.threshold:
                drifted.append((replica, value))
        return drifted

    def recover(
        self, replica: CrossbarService, discrepancy: float
    ) -> FleetEvent:
        """Recover one drifted replica, quorum permitting.

        Returns the recorded :class:`FleetEvent` — ``'reprogram'`` on
        success, ``'defer'`` when draining the replica would leave the
        fleet below ``min_live`` live replicas.  A recovery that raises
        kills the replica (recording its ``'kill'`` event) before the
        error propagates, so a half-reprogrammed replica never stays in
        rotation.
        """
        siblings = [r for r in self.group.live_replicas if r is not replica]
        if len(siblings) < self.min_live:
            return self.log.record_fleet(
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
            replica=replica.replica_index,
            action="reprogram",
            seconds=time.monotonic() - start,
            discrepancy=discrepancy,
            recovered_discrepancy=recovered,
        )

    def run_cycle(self) -> list[FleetEvent]:
        """One rolling pass: scan everything, recover what quorum allows."""
        return [
            self.recover(replica, value) for replica, value in self.scan()
        ]
