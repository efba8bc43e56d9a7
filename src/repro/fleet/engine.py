"""Shard replicas: one scheduler-backed engine per programmed tile.

A :class:`ShardReplica` is the fleet's unit of failure and repair —
its own restored hardware, its own batching worker thread, its own
drift monitor.  Replicas of the same shard restore the same golden
:class:`~repro.serve.artifact.ProgrammedArray`, so *which* replica
answers a query cannot change the answer; the router is free to pick
by load alone.

Two liveness flags separate the failure modes the fleet handles:

* ``alive`` — cleared by :meth:`ShardReplica.kill` (a crash).  Queued
  and in-flight work fails fast with :class:`ReplicaDeadError` so the
  router can retry the partial on a sibling; a dead replica never
  comes back.
* ``draining`` — set by the rolling reprogrammer while the replica is
  being drained and reprogrammed.  A draining replica finishes what it
  accepted, takes no new work, and returns to rotation afterwards.
"""

from __future__ import annotations

import concurrent.futures

import numpy as np

from repro.runtime.telemetry import RunLog, current_run_log
from repro.serve.artifact import ProgrammedArray
from repro.serve.engine import InferenceEngine
from repro.serve.health import DriftMonitor, DriftPolicy
from repro.serve.scheduler import BatchScheduler, ServeOverloadedError

__all__ = ["ReplicaDeadError", "ShardReplica"]


class ReplicaDeadError(RuntimeError):
    """The replica was killed; the query must be retried on a sibling."""


class _DeadTarget:
    """Hardware stand-in after a kill: every read fails fast."""

    def __init__(self, name: str):
        self.name = name

    def matvec(self, x: np.ndarray, ir_mode: str = "ideal") -> np.ndarray:
        raise ReplicaDeadError(f"replica {self.name} is dead")


class ShardReplica:
    """One serving copy of one shard's programmed tile.

    Args:
        artifact: The shard's golden bundle; the replica hardware is an
            exact restore of it.
        shard_index: Which shard this replica serves.
        replica_index: Position within the shard's replica set.
        ir_mode: Read-model override (the artifact's mode when ``None``).
        policy: Drift policy for the per-replica monitor.
        max_batch / max_queue / default_deadline_s / min_retry_after_s:
            Scheduler parameters (see
            :class:`~repro.serve.scheduler.BatchScheduler`).
        microbatch: Engine microbatch size.
        log: Telemetry sink shared with the rest of the fleet.
        name_prefix: Prepended to the replica name (and thus its
            telemetry lane label).  A multi-fleet composition such as
            ``repro.pipeline`` uses ``"layer<k>/"`` so one shared run
            log keeps the per-layer lanes apart.
    """

    def __init__(
        self,
        artifact: ProgrammedArray,
        shard_index: int,
        replica_index: int,
        ir_mode: str | None = None,
        policy: DriftPolicy | None = None,
        max_batch: int = 32,
        max_queue: int = 128,
        default_deadline_s: float | None = None,
        microbatch: int = 64,
        min_retry_after_s: float = 0.05,
        log: RunLog | None = None,
        name_prefix: str = "",
    ):
        self.artifact = artifact
        self.shard_index = int(shard_index)
        self.replica_index = int(replica_index)
        self.name = f"{name_prefix}shard{shard_index}/r{replica_index}"
        ambient = current_run_log()
        self.log = log if log is not None else (
            ambient if ambient is not None else RunLog()
        )
        self.engine = InferenceEngine.from_artifact(
            artifact, ir_mode=ir_mode, microbatch=microbatch,
        )
        self.monitor = DriftMonitor.for_artifact(
            self.engine,
            artifact,
            policy=policy,
            repair=None,
            log=self.log,
        )
        # Single-writer liveness flags, read racily on purpose: 'alive'
        # flips True->False exactly once (kill, caller thread) and is
        # read advisorily by the scheduler worker and by router
        # callbacks — a stale read is harmless because every downstream
        # path fails fast with ReplicaDeadError and is retried.
        # 'draining' is bracketed by the reprogrammer on the caller
        # thread only.  Python bool loads/stores are atomic.
        self.alive = True  # repro-lint: atomic
        self.draining = False  # repro-lint: atomic
        self._scheduler_kwargs = dict(
            max_batch=max_batch,
            max_queue=max_queue,
            default_deadline_s=default_deadline_s,
            min_retry_after_s=min_retry_after_s,
        )
        self.scheduler = self._make_scheduler()

    def _make_scheduler(self) -> BatchScheduler:
        return BatchScheduler(
            self.engine,
            on_batch=self._on_batch,
            log=self.log,
            label=self.name,
            **self._scheduler_kwargs,
        )

    def _on_batch(self) -> None:  # repro-lint: thread=worker
        # The monitor replays probes through the engine; after a kill
        # that read would raise inside the worker thread, so skip it.
        if self.alive:
            self.monitor()

    # -- liveness ------------------------------------------------------
    @property
    def live(self) -> bool:
        """In rotation: accepting new queries from the router."""
        return self.alive and not self.draining

    @property
    def depth(self) -> int:
        """Queue depth (the router's least-loaded signal)."""
        return self.scheduler.depth

    # -- request path --------------------------------------------------
    def submit(
        self, x: np.ndarray, deadline_s: float | None = None
    ) -> concurrent.futures.Future:
        """Enqueue one partial query on this replica.

        Raises:
            ReplicaDeadError: The replica was killed (or its scheduler
                is mid-restart); retry on a sibling.
            ServeOverloadedError: The replica's queue is full.
        """
        if not self.live:
            raise ReplicaDeadError(
                f"replica {self.name} is not accepting work"
            )
        try:
            return self.scheduler.submit(x, deadline_s)
        except ServeOverloadedError:
            raise
        except RuntimeError as exc:
            # The scheduler shut down between the liveness check and
            # the enqueue (drain/kill race): same remedy as a death.
            raise ReplicaDeadError(
                f"replica {self.name} stopped accepting work"
            ) from exc

    # -- lifecycle -----------------------------------------------------
    def drain(self, timeout: float | None = None) -> None:
        """Stop intake and answer everything already queued."""
        self.scheduler.shutdown(timeout)

    def restart_scheduler(self) -> None:
        """Fresh worker thread after a drain (post-reprogram)."""
        self.scheduler = self._make_scheduler()

    def kill(self, timeout: float | None = None) -> None:
        """Simulate a replica crash.

        The hardware target is swapped for one whose reads raise
        :class:`ReplicaDeadError`, so every queued and in-flight query
        fails fast (the router retries them on siblings) instead of
        being served or silently stranded; then the worker is joined.
        A killed replica records a ``'kill'`` fleet event and never
        returns to rotation.
        """
        if not self.alive:
            return
        self.alive = False
        self.engine.target = _DeadTarget(self.name)
        self.scheduler.shutdown(timeout)
        self.log.record_fleet(
            shard=self.shard_index,
            replica=self.replica_index,
            action="kill",
        )

    def shutdown(self, timeout: float | None = None) -> None:
        """Graceful exit (fleet shutdown): drain, keep state intact."""
        self.scheduler.shutdown(timeout)
