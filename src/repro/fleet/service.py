"""The fleet facade: programmed shard plan in, routed service out.

:class:`FleetService` is the horizontal counterpart of
:class:`~repro.serve.service.CrossbarService`: it restores every shard
of a :class:`~repro.fleet.plan.ProgrammedFleet` into ``replicas``
independent :class:`~repro.serve.service.CrossbarService` lanes, fronts
them with a :class:`~repro.fleet.router.FleetRouter`, and keeps them
healthy with a :class:`~repro.fleet.health.RollingReprogrammer`.  One
shared :class:`~repro.runtime.telemetry.RunLog` collects every lane's
request records (labelled ``shard<i>/r<j>``) and every health action,
so :meth:`stats` summarises the whole fleet.
"""

from __future__ import annotations

import concurrent.futures

import numpy as np

from repro.fleet.health import RollingReprogrammer
from repro.fleet.plan import ProgrammedFleet
from repro.fleet.router import FleetRouter, ShardGroup
from repro.runtime.telemetry import FleetEvent, RunLog, resolve_run_log
from repro.serve.health import DriftPolicy
from repro.serve.protocol import Service, ServiceLifecycle
from repro.serve.service import CrossbarService

__all__ = ["FleetService", "Service"]


class FleetService(ServiceLifecycle):
    """Routed, replicated, drift-managed serving of a sharded layer.

    Implements the :class:`~repro.serve.protocol.Service` protocol.

    Args:
        fleet: The programmed shard plan to serve.
        replicas: Serving copies per shard (2 tolerates one failure or
            one rolling reprogram per shard with no capacity gap).
        ir_mode: Read-model override (the fleet's own mode when
            ``None``).
        policy: Drift policy shared by every replica monitor and the
            rolling reprogrammer.
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
        self.replicas = int(replicas)
        self.label_prefix = str(label_prefix)
        self.policy = policy if policy is not None else DriftPolicy()
        self.log = resolve_run_log(log)

        def lane(shard, i: int, r: int) -> CrossbarService:
            lane = CrossbarService(
                shard,
                ir_mode=ir_mode,
                policy=self.policy,
                max_batch=max_batch,
                max_queue=max_queue,
                default_deadline_s=default_deadline_s,
                log=self.log,
                shard_index=i,
                replica_index=r,
                name_prefix=self.label_prefix,
            )
            # A fleet lane only alerts on drift: the rolling
            # reprogrammer restores it, under quorum, instead.
            lane.monitor.repair = None
            return lane

        self.groups = [
            ShardGroup(i, [lane(shard, i, r) for r in range(self.replicas)])
            for i, shard in enumerate(fleet.shards)
        ]
        self.router = FleetRouter(self.groups, fleet.ranges)
        self.reprogrammer = RollingReprogrammer(
            self.groups, policy=self.policy, log=self.log
        )

    # -- request path --------------------------------------------------
    def submit(
        self, x: np.ndarray, deadline_s: float | None = None
    ) -> concurrent.futures.Future:
        """Scatter one query or block (see :meth:`FleetRouter.submit`)."""
        return self.router.submit(x, deadline_s)

    # -- health --------------------------------------------------------
    def kill_replica(self, shard: int, replica: int) -> None:
        """Crash one replica (testing/benchmark failure injection)."""
        self.groups[shard].replicas[replica].kill()

    def run_recovery_cycle(self) -> list[FleetEvent]:
        """One rolling scan-and-reprogram pass over the whole fleet."""
        return self.reprogrammer.run_cycle()

    def status(self) -> dict:
        """Deterministic per-shard fleet inventory.

        Replica discrepancies come from a probe replay, so a status
        call costs one hardware read per live replica.
        """
        shards = []
        for group, (start, stop) in zip(
            self.groups, self.fleet.ranges
        ):
            lanes = []
            for r in group.replicas:
                lanes.append({
                    "name": r.name,
                    "alive": r.alive,
                    "draining": r.draining,
                    "depth": r.depth,
                    "deadline_misses": r.scheduler.deadline_misses,
                    "discrepancy": (
                        round(r.monitor.discrepancy(), 6)
                        if r.alive else None
                    ),
                })
            shards.append({
                "shard": group.shard_index,
                "rows": [start, stop],
                "live": len(group.live_replicas),
                "replicas": lanes,
            })
        return {
            "n_shards": self.fleet.n_shards,
            "replicas_per_shard": self.replicas,
            "ir_mode": self.ir_mode,
            "shards": shards,
        }

    def stats(self) -> dict:
        """Fleet-wide serving telemetry summary."""
        summary = self.log.serve_summary()
        labels = self.log.label_summary()
        if labels:
            summary["lanes"] = labels
        return summary

    # -- lifecycle (close/context from ServiceLifecycle) ---------------
    def drain(self, timeout: float | None = None) -> None:
        """Drain every replica of every shard."""
        for group in self.groups:
            for replica in group.replicas:
                replica.drain(timeout)
