"""The pipeline facade: programmed layer stack in, served workload out.

:class:`PipelineService` composes one
:class:`~repro.fleet.service.FleetService` per programmed layer —
every layer gets its own replicated serving plane (each replica one
lane over the whole tiled layer that restores its own drifted tiles
in place), labelled ``layer<k>/r<j>`` in the shared run log — and
fronts them with a :class:`~repro.pipeline.engine.PipelineEngine` that
chains the stages (or iterates the recall loop) through future
callbacks.  It implements the shared
:class:`~repro.serve.protocol.Service` protocol, so the generic CLI
front ends (stdin/HTTP) and the lifecycle contract (drain-on-close)
apply unchanged.
"""

from __future__ import annotations

import concurrent.futures

import numpy as np

from repro.fleet.service import FleetService
from repro.nn.bsb import BSBResult
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.plan import PipelineArtifact
from repro.runtime.telemetry import RunLog, resolve_run_log
from repro.serve.health import DriftPolicy
from repro.serve.protocol import Service, ServiceLifecycle

__all__ = ["PipelineService", "Service"]


class PipelineService(ServiceLifecycle):
    """Multi-layer analog inference as one routed service.

    Implements the :class:`~repro.serve.protocol.Service` protocol.

    Args:
        artifact: The programmed pipeline to serve.
        replicas: Serving copies of every layer.
        ir_mode: Read-model override (the artifact's mode when
            ``None``).
        policy: Drift policy shared by every replica monitor.
        max_batch / max_queue: Per-replica scheduler parameters.
        default_deadline_s: Deadline applied to pipeline queries that
            do not carry their own; the budget spans the whole staged
            chain (each stage consumes from what remains).
        log: Telemetry sink shared by every layer; the ambient run log
            (or a private one) when omitted.
    """

    def __init__(
        self,
        artifact: PipelineArtifact,
        replicas: int = 1,
        ir_mode: str | None = None,
        policy: DriftPolicy | None = None,
        max_batch: int = 32,
        max_queue: int = 256,
        default_deadline_s: float | None = None,
        log: RunLog | None = None,
    ):
        self.artifact = artifact
        self.kind = artifact.config.kind
        self.ir_mode = (
            ir_mode if ir_mode is not None else artifact.config.ir_mode
        )
        self.default_deadline_s = default_deadline_s
        self.log = resolve_run_log(log)
        self.layer_services = [
            FleetService(
                fleet,
                replicas=replicas,
                ir_mode=self.ir_mode,
                policy=policy,
                max_batch=max_batch,
                max_queue=max_queue,
                # Deadlines live at the pipeline level: the engine
                # passes each stage the remaining chain budget.
                default_deadline_s=None,
                log=self.log,
                label_prefix=f"layer{i}/",
            )
            for i, fleet in enumerate(artifact.layers)
        ]
        self.engine = PipelineEngine(
            lanes=self.layer_services,
            scales=artifact.scales,
            kind=self.kind,
            hidden_gain=artifact.hidden_gain,
            dynamics=(
                artifact.bsb_dynamics() if self.kind == "bsb" else None
            ),
        )

    # -- request path --------------------------------------------------
    def submit(
        self, x: np.ndarray, deadline_s: float | None = None
    ) -> concurrent.futures.Future:
        """Start one query ``(n,)`` or block ``(k, n)`` through the chain.

        The future resolves to the scores (MLP) or the recalled states
        (BSB), ``(cols,)`` or ``(k, cols)``.
        """
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        return self.engine.submit(x, deadline_s)

    def recall(
        self,
        probe: np.ndarray,
        deadline_s: float | None = None,
        timeout: float | None = None,
    ) -> BSBResult | list[BSBResult]:
        """Run a BSB recall (one per row of a probe block) through the
        served layer."""
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        return self.engine.recall(probe, deadline_s, timeout)

    # -- health --------------------------------------------------------
    def kill_replica(self, layer: int, replica: int) -> None:
        """Crash one replica of one layer (failure injection)."""
        self.layer_services[layer].kill_replica(replica)

    def status(self) -> dict:
        """Deterministic pipeline inventory with per-lane counters.

        ``queues`` maps every replica lane label (``layer<k>/r<j>``)
        to its live queue depth and deadline-miss count, across all
        layers.  Layer entries carry the full per-replica fleet
        inventory (a status call costs one probe read per live
        replica).
        """
        queues: dict[str, dict] = {}
        layers = []
        for i, service in enumerate(self.layer_services):
            layer_status = service.status()
            layers.append({
                "layer": i,
                "shape": list(self.artifact.shapes[i]),
                "scale": self.artifact.scales[i],
                **layer_status,
            })
            for lane in layer_status["replicas"]:
                queues[lane["name"]] = {
                    "depth": lane["depth"],
                    "deadline_misses": lane["deadline_misses"],
                }
        status = {
            "kind": self.kind,
            "n_layers": self.artifact.n_layers,
            "ir_mode": self.ir_mode,
            "hidden_gain": self.artifact.hidden_gain,
            "activation": self.artifact.activation,
            "layers": layers,
            "queues": queues,
            "deadline_misses": sum(
                q["deadline_misses"] for q in queues.values()
            ),
        }
        if self.kind == "bsb":
            status["recall"] = self.engine.recall_stats()
        return status

    def stats(self) -> dict:
        """Pipeline-wide serving telemetry with a per-stage breakdown.

        ``stages`` aggregates the shared run log's labelled request
        records by layer prefix (requests, drops, mean latency per
        layer); ``lanes`` keeps the full per-replica split.
        """
        summary = self.log.serve_summary()
        labels = self.log.label_summary()
        if labels:
            summary["lanes"] = labels
        stages: dict[str, dict] = {}
        for label in sorted(labels):
            prefix = label.split("/", 1)[0]
            stage = stages.setdefault(prefix, {
                "requests": 0, "answered": 0, "dropped": 0,
                "latency_weight": 0.0,
            })
            lane = labels[label]
            stage["requests"] += lane["requests"]
            stage["answered"] += lane["answered"]
            stage["dropped"] += lane["dropped"]
            stage["latency_weight"] += (
                lane["mean_latency_s"] * lane["answered"]
            )
        summary["stages"] = {
            name: {
                "requests": s["requests"],
                "answered": s["answered"],
                "dropped": s["dropped"],
                "mean_latency_s": (
                    s["latency_weight"] / s["answered"]
                    if s["answered"] else 0.0
                ),
            }
            for name, s in sorted(stages.items())
        }
        if self.kind == "bsb":
            summary["recall"] = self.engine.recall_stats()
        return summary

    # -- lifecycle (close/context from ServiceLifecycle) ---------------
    def drain(self, timeout: float | None = None) -> None:
        """Drain every replica of every layer, front to back.

        Front-to-back order lets queries already past layer ``k``
        finish on the layers behind it before those drain.
        """
        for service in self.layer_services:
            service.drain(timeout)
