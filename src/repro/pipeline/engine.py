"""Staged pipeline execution: chained lanes, digital glue, recall loop.

A pipeline forward pass alternates analog reads with digital work:

    DAC -> layer-0 tiles -> sense/ADC -> scale -> activation ->
    DAC -> layer-1 tiles -> sense/ADC -> scale -> scores

:class:`PipelineEngine` runs that chain over abstract *lanes* — any
object with ``submit(x, deadline_s) -> Future`` — so the same engine
drives both deployment shapes:

* **Served**: each lane is a :class:`~repro.fleet.service.FleetService`
  (replica routing, batching, backpressure, per-layer drift
  monitors).  Stages chain through future callbacks: a query occupies
  no thread between reads, and layer ``k+1`` starts batching a query
  the moment layer ``k`` answers it.
* **Offline**: each lane is a :class:`DirectLane` over the restored
  :class:`~repro.xbar.tiling.TiledPair` hardware.  Because both
  deployments run *this same engine* and the routed read is
  bit-identical to the direct tiled read, served results equal offline
  results float for float.

Every stage takes a query ``(n,)`` or a block ``(k, n)``: the digital
glue is elementwise, so a block rides the chain as one request per
lane.

For BSB pipelines the engine iterates the saturating recall dynamics:
each iteration reads the two bipolar phases (positive and negative
half-states) of every unconverged probe as one stacked block through
the single weight layer, and retires each probe at its own convergence
or iteration budget, exactly as the offline
:func:`~repro.nn.bsb.bsb_recall` hardware loop would for that probe
alone.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
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


@dataclasses.dataclass
class _Recall:
    """One recall request in flight: a probe or a block of probes."""

    single: bool  # submitted as one (n,) probe
    deadline: float | None
    done: concurrent.futures.Future
    results: list  # BSBResult per probe row, filled as rows retire
    active: np.ndarray  # probe rows still iterating, in row order


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
        """Start one query ``(n,)`` or block ``(k, n)`` through the chain.

        For ``'mlp'`` the future resolves to the scores; for ``'bsb'``
        to the recalled states (use :meth:`submit_recall` for the full
        :class:`BSBResult`), ``(cols,)`` or ``(k, cols)``.  The
        deadline budget spans the *whole* chain: each stage is
        submitted with whatever time remains, and a block misses it
        whole.

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
        """Start one recall, or one per row of a probe block.

        The future resolves to a :class:`BSBResult` for a probe
        ``(n,)`` and to a list of them, in row order, for a block
        ``(k, n)``.  Each iteration drives the positive and negative
        phases of every unconverged state through the weight layer as
        one stacked read (word lines accept [0, 1] drives), recombines
        them digitally, applies the saturating update, and retires
        each probe at a corner or at the iteration budget -- the same
        float sequence, per probe, as the offline bipolar
        :func:`~repro.nn.bsb.bsb_recall` loop.  A refusal of the first
        read raises at the call (see :meth:`submit`).
        """
        if self.kind != "bsb":
            raise ValueError("recall is only defined for BSB pipelines")
        probe = np.asarray(probe, dtype=float)
        states = np.clip(np.atleast_2d(probe), -1.0, 1.0)
        recall = _Recall(
            single=probe.ndim == 1,
            deadline=(
                None if deadline_s is None
                else time.monotonic() + deadline_s
            ),
            done=concurrent.futures.Future(),
            results=[None] * len(states),
            active=np.arange(len(states)),
        )
        self._recall_iterate(recall, states, 1)
        return recall.done

    @staticmethod
    def _adapt_recall(  # repro-lint: thread=worker
        done: concurrent.futures.Future,
        future: concurrent.futures.Future,
    ) -> None:
        exc = future.exception()
        if exc is not None:
            done.set_exception(exc)
            return
        result = future.result()
        done.set_result(
            result.state if isinstance(result, BSBResult)
            else np.stack([r.state for r in result])
        )

    def _recall_iterate(
        self, recall: _Recall, states: np.ndarray, iteration: int
    ) -> None:
        """Read both phases of the unconverged ``states`` at once."""
        self._read(
            self.lanes[0],
            np.concatenate(
                [np.clip(states, 0.0, 1.0), np.clip(-states, 0.0, 1.0)]
            ),
            recall.deadline, recall.done,
            functools.partial(self._recall_pos, recall, states, iteration),
        )

    def _recall_pos(  # repro-lint: thread=worker
        self,
        recall: _Recall,
        states: np.ndarray,
        iteration: int,
        out: np.ndarray,
    ) -> None:
        """Split the stacked answer into its two phases."""
        k = len(states)
        self._recall_neg(recall, states, out[:k], out[k:], iteration)

    def _recall_neg(  # repro-lint: thread=worker
        self,
        recall: _Recall,
        states: np.ndarray,
        pos: np.ndarray,
        neg: np.ndarray,
        iteration: int,
    ) -> None:
        cfg = self.dynamics
        # Same expression order as the offline hardware loop:
        # mv = (pos - neg) * scale, then the saturating update.
        mv = (pos - neg) * self.scales[0]
        updated = np.clip(cfg.alpha * mv + cfg.lam * states, -1.0, 1.0)
        converged = np.all(np.abs(updated) >= 1.0 - 1e-12, axis=1)
        if iteration >= cfg.max_iterations:
            retire = np.ones_like(converged)
        elif converged.any():
            retire = converged
        else:
            self._recall_iterate(recall, updated, iteration + 1)
            return
        for j in np.flatnonzero(retire):
            recall.results[recall.active[j]] = BSBResult(
                state=updated[j],
                iterations=iteration,
                converged=bool(converged[j]),
            )
        self._record_recall(
            int(retire.sum()), iteration, int(converged[retire].sum())
        )
        if retire.all():
            recall.done.set_result(
                recall.results[0] if recall.single else recall.results
            )
        else:
            keep = ~retire
            recall.active = recall.active[keep]
            self._recall_iterate(recall, updated[keep], iteration + 1)

    def _record_recall(
        self, recalls: int, iterations: int, converged: int
    ) -> None:
        """Count ``recalls`` probes retired after ``iterations`` each."""
        with self._state:
            self._recalls += recalls
            self._recall_iterations += recalls * iterations
            self._recalls_converged += converged

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
    ) -> BSBResult | list[BSBResult]:
        """Run a recall (or one per block row) to completion."""
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
