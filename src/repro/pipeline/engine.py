"""Staged pipeline execution: chained lanes, digital glue, recall loop.

A pipeline forward pass alternates analog reads with digital work:

    DAC -> layer-0 tiles -> sense/ADC -> scale -> activation ->
    DAC -> layer-1 tiles -> sense/ADC -> scale -> scores

:class:`PipelineEngine` runs that chain over abstract *lanes* — any
object with ``submit(x, deadline_s) -> Future`` — so the same engine
drives both deployment shapes:

* **Served**: each lane is a :class:`~repro.fleet.service.FleetService`
  (scatter-gather routing, batching, backpressure, per-layer drift
  monitors).  Stages chain through future callbacks: a query occupies
  no thread between reads, and layer ``k+1`` starts batching a query
  the moment layer ``k`` answers it.
* **Offline**: each lane is a :class:`DirectLane` over the restored
  :class:`~repro.xbar.tiling.TiledPair` hardware.  Because both
  deployments run *this same engine* and the routed read is
  bit-identical to the direct tiled read, served results equal offline
  results float for float.

For BSB pipelines the engine iterates the saturating recall dynamics,
driving the two bipolar phases (positive and negative half-states)
through the single weight layer each iteration, exactly as the offline
:func:`~repro.nn.bsb.bsb_recall` hardware loop does.
"""

from __future__ import annotations

import concurrent.futures
import functools
import time

import numpy as np

from repro.lint.sanitize import make_lock
from repro.nn.bsb import BSBConfig, BSBResult
from repro.serve.protocol import Submitter

__all__ = [
    "DirectLane",
    "PipelineEngine",
    "offline_engine",
    "stage_activation",
]


def stage_activation(out_scaled, gain: float):  # repro-lint: batch-invariant
    """Digital inter-layer activation: ReLU, gain, clamp to [0, 1].

    The scaled layer output re-enters the next crossbar as word-line
    drives, so it must land in [0, 1]; the calibrated ``gain``
    normalises the activation range first (the same expression
    :meth:`~repro.nn.mlp.MLPOnCrossbars.scores` computes, kept
    identical so the pipeline is bit-compatible with the offline
    reference).
    """
    return np.clip(np.maximum(out_scaled, 0.0) * gain, 0.0, 1.0)


class DirectLane:
    """Synchronous in-process lane over restored tile hardware.

    The offline counterpart of a served fleet layer: ``submit``
    answers immediately with a resolved future, reading through the
    exact :class:`~repro.xbar.tiling.TiledPair` restore of the layer's
    golden snapshot.  Deadlines are ignored — there is no queue to
    wait in.

    Args:
        tiled: Restored layer hardware
            (:meth:`~repro.fleet.plan.ProgrammedFleet.build_tiled`).
        ir_mode: Read-fidelity model for every read.
    """

    def __init__(self, tiled, ir_mode: str = "ideal"):
        self.tiled = tiled
        self.ir_mode = ir_mode

    def submit(
        self, x: np.ndarray, deadline_s: float | None = None
    ) -> concurrent.futures.Future:
        future: concurrent.futures.Future = concurrent.futures.Future()
        try:
            future.set_result(
                self.tiled.matvec(np.asarray(x, dtype=float), self.ir_mode)
            )
        except Exception as exc:  # pragma: no cover - hardware faults
            future.set_exception(exc)
        return future


class PipelineEngine(Submitter):
    """Drives the staged forward pass over per-layer lanes.

    Args:
        lanes: One lane per weight layer, in forward order (a
            :class:`~repro.fleet.service.FleetService` or
            :class:`DirectLane`).
        scales: Digital restore gain per layer.
        kind: ``'mlp'`` (feed-forward chain) or ``'bsb'`` (iterated
            recall on a single layer).
        hidden_gain: Calibrated inter-layer gain (MLP).
        dynamics: Recall dynamics (required for ``'bsb'``).
    """

    def __init__(
        self,
        lanes: list,
        scales: list[float],
        kind: str = "mlp",
        hidden_gain: float = 1.0,
        dynamics: BSBConfig | None = None,
    ):
        if not lanes:
            raise ValueError("a pipeline needs at least one lane")
        if len(lanes) != len(scales):
            raise ValueError(
                f"{len(lanes)} lanes but {len(scales)} scales"
            )
        if kind not in ("mlp", "bsb"):
            raise ValueError(f"unknown pipeline kind {kind!r}")
        if kind == "bsb":
            if dynamics is None:
                raise ValueError("a BSB pipeline needs its dynamics")
            if len(lanes) != 1:
                raise ValueError(
                    "BSB recall iterates a single weight layer"
                )
        self.lanes = list(lanes)
        self.scales = [float(s) for s in scales]
        self.kind = kind
        self.hidden_gain = float(hidden_gain)
        self.dynamics = dynamics
        # Recall telemetry, written by lane worker callbacks and read
        # by status/stats callers; one leaf lock guards every access.
        self._state = make_lock("pipeline-state")
        self._recalls = 0  # guarded-by: _state
        self._recalls_converged = 0  # guarded-by: _state
        self._recall_iterations = 0  # guarded-by: _state

    # -- feed-forward chain --------------------------------------------
    def submit(
        self, x: np.ndarray, deadline_s: float | None = None
    ) -> concurrent.futures.Future:
        """Start one query through the staged chain.

        For ``'mlp'`` the future resolves to the score vector; for
        ``'bsb'`` to the recalled state vector (use
        :meth:`submit_recall` for the full :class:`BSBResult`).  The
        deadline budget spans the *whole* chain: each stage is
        submitted with whatever time remains.

        A refusal by the first lane (wrong width, full queue, no live
        replica) raises here; later stages' refusals fail the future.
        """
        if self.kind == "bsb":
            inner = self.submit_recall(x, deadline_s)
            done: concurrent.futures.Future = concurrent.futures.Future()
            inner.add_done_callback(
                lambda f: self._adapt_recall(done, f)
            )
            return done
        done = concurrent.futures.Future()
        deadline = (
            None if deadline_s is None
            else time.monotonic() + deadline_s
        )
        self._read(
            self.lanes[0], np.asarray(x, dtype=float), deadline, done,
            functools.partial(self._on_stage, 0, deadline, done),
        )
        return done

    @staticmethod
    def _remaining(deadline: float | None) -> float | None:
        return (
            None if deadline is None else deadline - time.monotonic()
        )

    def _read(
        self,
        lane,
        x: np.ndarray,
        deadline: float | None,
        done: concurrent.futures.Future,
        then,
    ) -> None:
        """Submit ``x`` to ``lane``; ``then`` gets the answer.

        A refusal of this submit raises to the caller.  A failed read,
        or anything ``then`` raises (a later read's refusal among it),
        fails ``done`` instead.
        """
        future = lane.submit(x, self._remaining(deadline))
        future.add_done_callback(lambda f: self._on_read(done, then, f))

    @staticmethod
    def _on_read(done, then, future) -> None:  # repro-lint: thread=worker
        try:
            then(np.asarray(future.result(), dtype=float))
        except Exception as exc:
            done.set_exception(exc)

    def _on_stage(  # repro-lint: thread=worker
        self,
        index: int,
        deadline: float | None,
        done: concurrent.futures.Future,
        out: np.ndarray,
    ) -> None:
        out = out * self.scales[index]
        if index + 1 == len(self.lanes):
            done.set_result(out)
        else:
            self._read(
                self.lanes[index + 1],
                stage_activation(out, self.hidden_gain), deadline, done,
                functools.partial(self._on_stage, index + 1, deadline, done),
            )

    # -- BSB recall loop -----------------------------------------------
    def submit_recall(
        self, probe: np.ndarray, deadline_s: float | None = None
    ) -> concurrent.futures.Future:
        """Start one recall; the future resolves to a :class:`BSBResult`.

        Each iteration drives the positive then the negative phase of
        the current state through the weight layer (word lines accept
        [0, 1] drives), recombines them digitally, applies the
        saturating update, and either stops at a corner or resubmits —
        the same float sequence as the offline bipolar
        :func:`~repro.nn.bsb.bsb_recall` loop.  A refusal of the first
        read raises at the call (see :meth:`submit`).
        """
        if self.kind != "bsb":
            raise ValueError("recall is only defined for BSB pipelines")
        done: concurrent.futures.Future = concurrent.futures.Future()
        deadline = (
            None if deadline_s is None
            else time.monotonic() + deadline_s
        )
        state = np.clip(np.asarray(probe, dtype=float), -1.0, 1.0)
        self._recall_iterate(state, 1, deadline, done)
        return done

    @staticmethod
    def _adapt_recall(  # repro-lint: thread=worker
        done: concurrent.futures.Future,
        future: concurrent.futures.Future,
    ) -> None:
        exc = future.exception()
        if exc is not None:
            done.set_exception(exc)
        else:
            done.set_result(future.result().state)

    def _recall_iterate(
        self,
        state: np.ndarray,
        iteration: int,
        deadline: float | None,
        done: concurrent.futures.Future,
    ) -> None:
        self._read(
            self.lanes[0], np.clip(state, 0.0, 1.0), deadline, done,
            functools.partial(
                self._recall_pos, state, iteration, deadline, done
            ),
        )

    def _recall_pos(  # repro-lint: thread=worker
        self,
        state: np.ndarray,
        iteration: int,
        deadline: float | None,
        done: concurrent.futures.Future,
        pos: np.ndarray,
    ) -> None:
        self._read(
            self.lanes[0], np.clip(-state, 0.0, 1.0), deadline, done,
            functools.partial(
                self._recall_neg, state, pos, iteration, deadline, done
            ),
        )

    def _recall_neg(  # repro-lint: thread=worker
        self,
        state: np.ndarray,
        pos: np.ndarray,
        iteration: int,
        deadline: float | None,
        done: concurrent.futures.Future,
        neg: np.ndarray,
    ) -> None:
        cfg = self.dynamics
        # Same expression order as the offline hardware loop:
        # mv = (pos - neg) * scale, then the saturating update.
        mv = (pos - neg) * self.scales[0]
        updated = np.clip(
            cfg.alpha * mv + cfg.lam * state, -1.0, 1.0
        )
        if np.all(np.abs(updated) >= 1.0 - 1e-12):
            self._record_recall(iteration, True)
            done.set_result(BSBResult(
                state=updated, iterations=iteration, converged=True,
            ))
        elif iteration >= cfg.max_iterations:
            self._record_recall(cfg.max_iterations, False)
            done.set_result(BSBResult(
                state=updated, iterations=cfg.max_iterations,
                converged=False,
            ))
        else:
            self._recall_iterate(updated, iteration + 1, deadline, done)

    def _record_recall(self, iterations: int, converged: bool) -> None:
        with self._state:
            self._recalls += 1
            self._recall_iterations += int(iterations)
            if converged:
                self._recalls_converged += 1

    def recall_stats(self) -> dict:
        """Aggregate recall telemetry (count, convergence, iterations)."""
        with self._state:
            recalls = self._recalls
            converged = self._recalls_converged
            iterations = self._recall_iterations
        return {
            "recalls": recalls,
            "converged": converged,
            "mean_iterations": (
                iterations / recalls if recalls else 0.0
            ),
        }

    # -- synchronous recall (predict/forward come from Submitter) -----
    def recall(
        self,
        probe: np.ndarray,
        deadline_s: float | None = None,
        timeout: float | None = None,
    ) -> BSBResult:
        """Run one recall to completion and return the full result."""
        return self.submit_recall(probe, deadline_s).result(
            timeout=timeout
        )


def offline_engine(
    artifact,
    ir_mode: str | None = None,
) -> PipelineEngine:
    """The in-process reference deployment of a programmed pipeline.

    Restores every layer's golden snapshot into a
    :class:`~repro.xbar.tiling.TiledPair` and runs the same
    :class:`PipelineEngine` over :class:`DirectLane` adapters.  Because
    the routed fleet read is bit-identical to the direct tiled read,
    a :class:`~repro.pipeline.service.PipelineService` over the same
    artifact answers every query with exactly these floats — this
    engine is the ground truth the served pipeline is tested against.

    Args:
        artifact: A :class:`~repro.pipeline.plan.PipelineArtifact`.
        ir_mode: Read-model override (the artifact's mode when
            ``None``).
    """
    mode = ir_mode if ir_mode is not None else artifact.config.ir_mode
    lanes = [
        DirectLane(fleet.build_tiled(), mode) for fleet in artifact.layers
    ]
    kind = artifact.config.kind
    return PipelineEngine(
        lanes=lanes,
        scales=artifact.scales,
        kind=kind,
        hidden_gain=artifact.hidden_gain,
        dynamics=(
            artifact.bsb_dynamics() if kind == "bsb" else None
        ),
    )
