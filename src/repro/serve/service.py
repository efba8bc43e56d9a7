"""The serving lane: artifact in, scheduled self-repairing service out.

:class:`CrossbarService` wires the four layers together: it rebuilds
the hardware from a :class:`~repro.serve.artifact.ProgrammedArray`,
wraps it in a batched :class:`~repro.serve.engine.InferenceEngine`,
watches it with a :class:`~repro.serve.health.DriftMonitor`, and
fronts it with a :class:`~repro.serve.scheduler.BatchScheduler`.

It also owns the repair the monitor triggers, and repairs the same
hardware in place.  For a single array that is the paper's own answer
to device degradation, reapplied at run time: re-pretest the fabric
(Section 4.2.1) so drifted and newly-stuck devices show up in the
measured thetas, rerun AMP so sensitive weight rows move off the bad
devices, and reprogram open-loop.  The stored *logical* weights never
change -- only their placement and the device states do.

The same class is the fleet's serving lane:
:class:`~repro.fleet.service.FleetService` serves every replica as one
``CrossbarService`` named ``r<j>`` over the replica's whole tiled
layer (its artifact is the :class:`~repro.fleet.plan.ProgrammedFleet`,
which offers the members read here).  A drifted tiled layer is
reprogrammed to its golden shard snapshots instead, a noise-free
restore.  Either repair runs on the lane's own worker between batches,
so no read is in flight on the hardware it rewrites and the lane never
leaves rotation.

A lane leaves service only by dying: :meth:`CrossbarService.kill` (a
crash), or a per-batch health check or repair that raises (a read or
programming fault), clears ``alive``.  Queued and in-flight work then
fails loudly -- a fleet lane's with :class:`ReplicaDeadError`, so the
router replays the block on a sibling -- and a dead lane never comes
back.
"""

from __future__ import annotations

import concurrent.futures
import time
from typing import TYPE_CHECKING

import numpy as np

from repro.core.amp import program_amp
from repro.core.pretest import pretest_pair
from repro.runtime.telemetry import HealthEvent, RunLog, resolve_run_log
from repro.serve.artifact import ProgrammedArray
from repro.serve.engine import InferenceEngine
from repro.serve.health import DriftMonitor, DriftPolicy
from repro.serve.protocol import Service, ServiceLifecycle
from repro.serve.scheduler import (
    BatchScheduler,
    ReplicaDeadError,
    ServeOverloadedError,
)

if TYPE_CHECKING:
    from repro.fleet.plan import ProgrammedFleet

__all__ = ["CrossbarService", "ReplicaDeadError", "Service"]


#: A re-pretested device whose |theta| exceeds this counts as stuck-at
#: in the repair report.
DEFECT_THETA_CUTOFF = 1.5


class _DeadTarget:
    """Hardware stand-in after a kill: every read fails fast."""

    def __init__(self, name: str, shape: tuple[int, int]):
        self.name = name
        self.shape = shape

    def matvec(self, x: np.ndarray, ir_mode: str = "ideal") -> np.ndarray:
        raise ReplicaDeadError(f"replica {self.name} is dead")

    partial_matvec = matvec


class CrossbarService(ServiceLifecycle):
    """In-process inference service over one programmed crossbar.

    Implements the :class:`~repro.serve.protocol.Service` protocol.

    Args:
        artifact: Deployment snapshot to serve: a
            :class:`~repro.serve.artifact.ProgrammedArray`, or a
            :class:`~repro.fleet.plan.ProgrammedFleet` for a fleet
            replica over the whole tiled layer.
        ir_mode: Read-model override (artifact's own mode when
            ``None``).
        policy: Drift policy; defaults applied when ``None``.
        max_batch: Scheduler batch bound.
        max_queue: Scheduler queue bound.
        default_deadline_s: Default per-request deadline.
        log: Telemetry sink shared by scheduler and monitor.
        nodal_solver: ``None`` or ``"lu"`` (sparse LU, the only nodal
            solver); any other value raises :class:`ValueError`.  It
            sets nothing: it is kept because callers written when the
            solver was selectable, among them the
            ``serve-nodal-repair`` workload of ``perfbench``, pass
            ``nodal_solver="lu"``.
        replica_index: The lane's position in a fleet's replica
            set; ``None`` (the default) for a standalone service.
        name_prefix: Prepended to a fleet lane's name (and thus its
            telemetry lane label).  A multi-fleet composition such as
            ``repro.pipeline`` uses ``"layer<k>/"`` so one shared run
            log keeps the per-layer lanes apart.
    """

    def __init__(
        self,
        artifact: ProgrammedArray | ProgrammedFleet,
        ir_mode: str | None = None,
        policy: DriftPolicy | None = None,
        max_batch: int = 32,
        max_queue: int = 128,
        default_deadline_s: float | None = None,
        log: RunLog | None = None,
        nodal_solver: str | None = None,
        *,
        replica_index: int | None = None,
        name_prefix: str = "",
    ):
        if nodal_solver not in (None, "lu"):
            raise ValueError(
                f"nodal_solver must be None or 'lu', got {nodal_solver!r}"
            )
        self.artifact = artifact
        self.replica_index = (
            None if replica_index is None else int(replica_index)
        )
        # A standalone service stamps no lane label on its requests.
        self.name = (
            "" if replica_index is None
            else f"{name_prefix}r{replica_index}"
        )
        # Re-pretests during repair draw from the artifact's recorded
        # seed, so a service restarted from it repairs identically.
        self._rng = np.random.default_rng(
            int(artifact.metadata.get("seed", 0))
        )
        self.log = resolve_run_log(log)
        self.policy = policy if policy is not None else DriftPolicy()
        self.engine = InferenceEngine.from_artifact(artifact, ir_mode=ir_mode)
        self.pair = self.engine.target
        self.monitor = DriftMonitor.for_artifact(
            self.engine, artifact, repair=self.repair, policy=self.policy
        )
        # Single-writer liveness flag, read racily on purpose: it flips
        # True->False exactly once (kill on the caller thread, or a
        # failed health hook on the worker thread) and is read
        # advisorily by router callbacks -- a stale read is harmless
        # because every downstream path fails fast with
        # ReplicaDeadError and is retried.  Python bool loads/stores
        # are atomic.
        self.alive = True  # repro-lint: atomic
        self.scheduler = BatchScheduler(
            self.engine,
            max_batch=max_batch,
            max_queue=max_queue,
            default_deadline_s=default_deadline_s,
            on_batch=self._on_batch,
            log=self.log,
            label=self.name,
        )

    # -- liveness ------------------------------------------------------
    @property
    def depth(self) -> int:
        """Queue depth (the router's least-loaded signal)."""
        return self.scheduler.depth

    def _on_batch(self) -> None:  # repro-lint: thread=worker
        # The monitor replays probes through the engine; after a kill
        # that read would raise inside the worker thread, so skip it.
        if not self.alive:
            return
        try:
            self.monitor()
        except Exception as exc:
            if not self.alive:
                # Killed mid-check: the read that raised was the dead
                # target's, and the kill records itself.
                raise
            # A probe read or repair fault: leave service and fail
            # loudly.  The scheduler closes intake and fails every
            # queued request with what this raises -- for a fleet lane
            # a ReplicaDeadError, which the router replays on a sibling.
            self.alive = False
            self.log.record_health(
                replica=self.replica_index, action="fail", lane=self.name
            )
            if self.replica_index is None:
                raise
            raise ReplicaDeadError(
                f"replica {self.name} failed its health check: {exc!r}"
            ) from exc

    # -- request path --------------------------------------------------
    def submit(
        self, x: np.ndarray, deadline_s: float | None = None
    ) -> concurrent.futures.Future:
        """Enqueue one query or block (see :meth:`BatchScheduler.submit`).

        Raises:
            ValueError: ``x`` is neither a query nor a non-empty block
                of the served width.
            ServeOverloadedError: The queue is full.
            ReplicaDeadError: The lane was killed, failed or drained; a
                fleet retries on a sibling.
        """
        if not self.alive:
            raise ReplicaDeadError(
                f"{self.name or 'the service'} is not accepting work"
            )
        try:
            return self.scheduler.submit(x, deadline_s)
        except ServeOverloadedError:
            raise
        except RuntimeError as exc:
            # The scheduler shut down between the liveness check and
            # the enqueue (drain/kill race): same remedy as a death.
            raise ReplicaDeadError(
                f"{self.name or 'the service'} stopped accepting work"
            ) from exc

    def stats(self) -> dict:
        """Serving telemetry summary (latency, drops, health events)."""
        return self.log.serve_summary()

    def status(self) -> dict:
        """Deterministic inventory of the served hardware.

        The discrepancy comes from a probe replay, so a status call
        costs one hardware read.
        """
        return {
            "scheme": self.artifact.scheme,
            "ir_mode": self.engine.ir_mode,
            "n_features": self.engine.n_features,
            "depth": self.scheduler.depth,
            "discrepancy": round(self.monitor.discrepancy(), 6),
        }

    # -- lifecycle (close/context from ServiceLifecycle) ---------------
    def drain(self, timeout: float | None = None) -> None:
        """Stop intake, answer everything already queued."""
        self.scheduler.shutdown(timeout)

    def kill(self, timeout: float | None = None) -> None:
        """Simulate a lane crash.

        The hardware target is swapped for one whose reads raise
        :class:`ReplicaDeadError`, so every queued and in-flight query
        fails fast (a fleet router retries them on siblings) instead
        of being served or silently stranded; then the worker is
        joined.  A killed lane records a ``'kill'`` health event and
        never returns to rotation.
        """
        if not self.alive:
            return
        self.alive = False
        self.engine.target = _DeadTarget(self.name, self.pair.shape)
        self.scheduler.shutdown(timeout)
        self.log.record_health(
            replica=self.replica_index, action="kill", lane=self.name
        )

    # -- repair path ---------------------------------------------------
    def repair(self, discrepancy: float) -> HealthEvent:
        """Repair the drifted hardware in place; record and return it.

        A single array is re-mapped (:meth:`remap`, action
        ``'remap'``); a tiled layer is reprogrammed to its golden
        shard snapshots (action ``'restore'``), which brings its
        re-measured discrepancy back to exactly zero.

        Args:
            discrepancy: The probe discrepancy that crossed the
                threshold.
        """
        start = time.monotonic()
        if isinstance(self.artifact, ProgrammedArray):
            action, defects = "remap", self.remap()
        else:
            self.artifact.restore(self.pair)
            action, defects = "restore", None
        recovered = self.monitor.discrepancy()
        return self.log.record_health(
            replica=self.replica_index,
            action=action,
            seconds=time.monotonic() - start,
            discrepancy=discrepancy,
            recovered_discrepancy=recovered,
            defects=defects,
            lane=self.name,
        )

    def remap(self) -> dict:
        """Re-pretest, re-map and reprogram the drifted fabric.

        Returns:
            Stuck-at defect counts inferred from the re-pretest (a
            measured |theta| beyond ``DEFECT_THETA_CUTOFF`` reads as a
            stuck device -- the pre-test cannot distinguish a defect
            from an extreme variation, and AMP does not need it to).
        """
        artifact = self.artifact
        pretest = pretest_pair(self.pair, rng=self._rng)
        mapping = program_amp(
            self.pair, artifact.weights, artifact.x_mean, pretest
        )
        self.engine.replace_mapping(mapping)
        theta = np.concatenate(
            [pretest.theta_pos.ravel(), pretest.theta_neg.ravel()]
        )
        return {
            "stuck_at_lrs": int(np.sum(theta > DEFECT_THETA_CUTOFF)),
            "stuck_at_hrs": int(np.sum(theta < -DEFECT_THETA_CUTOFF)),
        }
