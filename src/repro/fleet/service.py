"""The fleet facade: programmed shard plan in, routed service out.

:class:`FleetService` is the horizontal counterpart of
:class:`~repro.serve.service.CrossbarService`: it serves a
:class:`~repro.fleet.plan.ProgrammedFleet` as ``replicas`` independent
:class:`~repro.serve.service.CrossbarService` lanes, each over the
whole rebuilt tiled layer, and fronts them with a
:class:`~repro.fleet.router.FleetRouter`.  A block costs one lane
hand-off and one tiled read.  Every lane keeps itself healthy: its own
per-batch drift check restores a drifted tile to the golden shard
snapshot in place, between batches, without leaving rotation.  One
shared :class:`~repro.runtime.telemetry.RunLog` collects every lane's
request records (labelled ``r<j>``) and every health event, so
:meth:`stats` summarises the whole fleet with each client row counted
once.
"""

from __future__ import annotations

import concurrent.futures

import numpy as np

from repro.fleet.plan import ProgrammedFleet
from repro.fleet.router import FleetRouter, ShardGroup
from repro.runtime.telemetry import RunLog, resolve_run_log
from repro.serve.health import DriftPolicy
from repro.serve.protocol import Service, ServiceLifecycle
from repro.serve.service import CrossbarService

__all__ = ["FleetService", "Service"]


class FleetService(ServiceLifecycle):
    """Routed, replicated, self-repairing serving of a sharded layer.

    Implements the :class:`~repro.serve.protocol.Service` protocol.

    Args:
        fleet: The programmed shard plan to serve.
        replicas: Serving copies of the whole layer (2 tolerates one
            failure).
        ir_mode: Read-model override (the fleet's own mode when
            ``None``).
        policy: Drift policy shared by every replica monitor.
        max_batch / max_queue / default_deadline_s: Per-replica
            scheduler parameters.
        log: Telemetry sink; the ambient run log (or a private one)
            when omitted.
        label_prefix: Prepended to every replica's telemetry lane
            label (``repro.pipeline`` passes ``"layer<k>/"`` so one
            shared run log splits per layer).
    """

    def __init__(
        self,
        fleet: ProgrammedFleet,
        replicas: int = 2,
        ir_mode: str | None = None,
        policy: DriftPolicy | None = None,
        max_batch: int = 32,
        max_queue: int = 128,
        default_deadline_s: float | None = None,
        log: RunLog | None = None,
        label_prefix: str = "",
    ):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.fleet = fleet
        self.ir_mode = ir_mode if ir_mode is not None else fleet.config.ir_mode
        self.log = resolve_run_log(log)

        self.group = ShardGroup([
            CrossbarService(
                fleet,
                ir_mode=ir_mode,
                policy=policy,
                max_batch=max_batch,
                max_queue=max_queue,
                default_deadline_s=default_deadline_s,
                log=self.log,
                replica_index=r,
                name_prefix=label_prefix,
            )
            for r in range(int(replicas))
        ])
        self.router = FleetRouter(self.group)

    # -- request path --------------------------------------------------
    def submit(
        self, x: np.ndarray, deadline_s: float | None = None
    ) -> concurrent.futures.Future:
        """Route one query or block (see :meth:`FleetRouter.submit`)."""
        return self.router.submit(x, deadline_s)

    # -- health --------------------------------------------------------
    def kill_replica(self, replica: int) -> None:
        """Crash one replica (testing/benchmark failure injection)."""
        self.group.replicas[replica].kill()

    def status(self) -> dict:
        """Deterministic fleet inventory, one entry per replica.

        A replica's ``discrepancy`` lists every tile's probe
        discrepancy in shard order (``None`` once dead); it comes from
        a probe replay, so a status call costs one hardware read per
        live replica.
        """
        replicas = [
            {
                "name": r.name,
                "alive": r.alive,
                "depth": r.depth,
                "deadline_misses": r.scheduler.deadline_misses,
                "discrepancy": (
                    [round(v, 6) for v in r.monitor.tile_discrepancies()]
                    if r.alive else None
                ),
            }
            for r in self.group.replicas
        ]
        return {
            "n_shards": self.fleet.n_shards,
            "shard_rows": [list(rows) for rows in self.fleet.ranges],
            "ir_mode": self.ir_mode,
            "live": len(self.group.live_replicas),
            "replicas": replicas,
        }

    def stats(self) -> dict:
        """Fleet-wide serving telemetry summary, in client rows."""
        summary = self.log.serve_summary()
        labels = self.log.label_summary()
        if labels:
            summary["lanes"] = labels
        return summary

    # -- lifecycle (close/context from ServiceLifecycle) ---------------
    def drain(self, timeout: float | None = None) -> None:
        """Drain every replica."""
        for replica in self.group.replicas:
            replica.drain(timeout)
