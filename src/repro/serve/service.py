"""The serving facade: artifact in, scheduled drift-aware service out.

:class:`CrossbarService` wires the four layers together: it rebuilds
the hardware from a :class:`~repro.serve.artifact.ProgrammedArray`,
wraps it in a batched :class:`~repro.serve.engine.InferenceEngine`,
watches it with a :class:`~repro.serve.health.DriftMonitor`, and
fronts it with a :class:`~repro.serve.scheduler.BatchScheduler`.

It also owns the repair path the monitor triggers.  Repair is the
paper's own answer to device degradation, reapplied at run time:
re-pretest the fabric (Section 4.2.1) so drifted and newly-stuck
devices show up in the measured thetas, rerun AMP so sensitive weight
rows move off the bad devices, and reprogram open-loop.  The stored
*logical* weights never change -- only their placement and the device
states do.
"""

from __future__ import annotations

import numpy as np

from repro.core.amp import run_amp
from repro.core.old import program_pair_open_loop
from repro.core.pretest import pretest_pair
from repro.runtime.telemetry import RunLog, current_run_log
from repro.seeding import ensure_rng
from repro.serve.artifact import ProgrammedArray
from repro.serve.engine import InferenceEngine
from repro.serve.health import DriftMonitor, DriftPolicy
from repro.serve.protocol import Service, ServiceLifecycle
from repro.serve.scheduler import BatchScheduler

__all__ = ["CrossbarService", "Service"]


class CrossbarService(ServiceLifecycle):
    """In-process inference service over one programmed crossbar.

    Implements the :class:`~repro.serve.protocol.Service` protocol.

    Args:
        artifact: Deployment snapshot to serve.
        ir_mode: Read-model override (artifact's own mode when
            ``None``).
        policy: Drift policy; defaults applied when ``None``.
        max_batch: Scheduler batch bound.
        max_queue: Scheduler queue bound.
        default_deadline_s: Default per-request deadline.
        microbatch: Engine microbatch size.
        rng: Randomness for re-pretests during repair; derived from
            the artifact's recorded seed when omitted (so a service
            restarted from the same artifact repairs identically).
        log: Telemetry sink shared by scheduler and monitor.
        nodal_solver: ``None`` or ``"lu"`` (sparse LU, the only nodal
            solver); any other value raises :class:`ValueError`.  It
            sets nothing: it is kept because callers written when the
            solver was selectable, among them the
            ``serve-nodal-repair`` workload of ``perfbench``, pass
            ``nodal_solver="lu"``.
    """

    def __init__(
        self,
        artifact: ProgrammedArray,
        ir_mode: str | None = None,
        policy: DriftPolicy | None = None,
        max_batch: int = 32,
        max_queue: int = 128,
        default_deadline_s: float | None = None,
        microbatch: int = 64,
        rng: np.random.Generator | None = None,
        log: RunLog | None = None,
        nodal_solver: str | None = None,
    ):
        if nodal_solver not in (None, "lu"):
            raise ValueError(
                f"nodal_solver must be None or 'lu', got {nodal_solver!r}"
            )
        self.artifact = artifact
        if rng is None:
            rng = np.random.default_rng(
                int(artifact.metadata.get("seed", 0))
            )
        self._rng = ensure_rng(rng, "repro.serve.service.CrossbarService")
        ambient = current_run_log()
        self.log = log if log is not None else (
            ambient if ambient is not None else RunLog()
        )
        self.policy = policy if policy is not None else DriftPolicy()
        self.engine = InferenceEngine.from_artifact(
            artifact, ir_mode=ir_mode, microbatch=microbatch
        )
        self.pair = self.engine.target
        self.monitor = DriftMonitor.for_artifact(
            self.engine,
            artifact,
            policy=self.policy,
            repair=self.remap,
            log=self.log,
        )
        self.scheduler = BatchScheduler(
            self.engine,
            max_batch=max_batch,
            max_queue=max_queue,
            default_deadline_s=default_deadline_s,
            on_batch=self.monitor,
            log=self.log,
        )

    # -- request path --------------------------------------------------
    def submit(self, x: np.ndarray, deadline_s: float | None = None):
        """Enqueue one query (see :meth:`BatchScheduler.submit`)."""
        return self.scheduler.submit(x, deadline_s)

    def predict(
        self,
        x: np.ndarray,
        deadline_s: float | None = None,
        timeout: float | None = None,
    ) -> np.ndarray:
        """Synchronous single-query scores."""
        return self.scheduler.predict(x, deadline_s, timeout)

    def stats(self) -> dict:
        """Serving telemetry summary (latency, drops, drift events)."""
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

    # -- repair path ---------------------------------------------------
    def remap(self) -> dict:
        """Re-pretest, re-map and reprogram the drifted fabric.

        Returns:
            Stuck-at defect counts inferred from the re-pretest (a
            measured |theta| beyond the policy cutoff reads as a stuck
            device -- the pre-test cannot distinguish a defect from an
            extreme variation, and AMP does not need it to).
        """
        artifact = self.artifact
        pretest = pretest_pair(self.pair, rng=self._rng)
        amp = run_amp(
            self.pair,
            artifact.weights,
            artifact.x_mean,
            rng=self._rng,
            pretest=pretest,
        )
        mapping = amp.mapping
        program_pair_open_loop(
            self.pair,
            mapping.weights_to_physical(artifact.weights),
            x_reference=mapping.inputs_to_physical(artifact.x_mean),
        )
        self.engine.replace_mapping(mapping)
        cutoff = self.policy.defect_theta_cutoff
        theta = np.concatenate(
            [pretest.theta_pos.ravel(), pretest.theta_neg.ravel()]
        )
        return {
            "stuck_at_lrs": int(np.sum(theta > cutoff)),
            "stuck_at_hrs": int(np.sum(theta < -cutoff)),
        }
