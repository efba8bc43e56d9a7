"""Batched request scheduling: queueing, backpressure, deadlines.

One worker thread drains a bounded queue, packs whatever is waiting
(up to ``max_batch``) into a single microbatched forward pass, and
resolves each request's future.  The design choices mirror a real
serving stack scaled down to in-process size:

* **Bounded depth + rejection.**  An unbounded queue converts overload
  into unbounded latency; a full queue instead rejects immediately
  with :class:`ServeOverloadedError` carrying a retry-after hint
  estimated from recent batch throughput.
* **Deadlines.**  A request whose deadline has passed by the time its
  batch forms is dropped (its future receives
  :class:`DeadlineExceededError`) rather than wasting a hardware read
  on an answer nobody is waiting for.
* **Graceful shutdown.**  ``shutdown()`` stops intake, lets the worker
  drain everything already queued, then joins the thread -- accepted
  requests are always answered or explicitly failed, never stranded.

Every request is recorded in the ambient
:class:`~repro.runtime.telemetry.RunLog` (latency, queue share, batch
size, dropped flag), so serving telemetry flows through the same
channel as Monte-Carlo telemetry.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import queue
import threading
import time
from typing import Callable

import numpy as np

from repro.lint.sanitize import make_lock
from repro.runtime.telemetry import RunLog, current_run_log
from repro.serve.engine import InferenceEngine

__all__ = [
    "BatchScheduler",
    "DeadlineExceededError",
    "ServeOverloadedError",
]


class ServeOverloadedError(RuntimeError):
    """The request queue is full; retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: float):
        super().__init__(
            f"request queue full; retry after {retry_after_s:.3f}s"
        )
        self.retry_after_s = retry_after_s


class DeadlineExceededError(RuntimeError):
    """The request's deadline passed before it reached the hardware."""


@dataclasses.dataclass
class _Request:
    x: np.ndarray
    deadline: float | None
    submitted: float
    future: concurrent.futures.Future


_SHUTDOWN = object()


class BatchScheduler:
    """Thread-based batching scheduler over an inference engine.

    Args:
        engine: The batched forward pass to drive.
        max_batch: Largest request count packed into one forward pass.
        max_queue: Queue depth bound; submissions beyond it are
            rejected with :class:`ServeOverloadedError`.
        default_deadline_s: Deadline applied to requests that do not
            carry their own (``None`` = no deadline).
        on_batch: Optional hook invoked after every completed batch
            (the drift monitor's entry point).
        log: Telemetry sink; the ambient run log (or a private one)
            when omitted.
        min_retry_after_s: Floor for the overload retry-after hint.
            Before the first batch completes there is no throughput
            sample, so a cold-start rejection falls back to this floor
            instead of advertising an instant (or zero) retry.
        label: Serving-lane tag stamped on every request record (the
            fleet uses ``"shard<i>/r<j>"``); empty for a lone scheduler.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        max_batch: int = 32,
        max_queue: int = 128,
        default_deadline_s: float | None = None,
        on_batch: Callable[[], None] | None = None,
        log: RunLog | None = None,
        min_retry_after_s: float = 0.05,
        label: str = "",
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if min_retry_after_s <= 0:
            raise ValueError(
                f"min_retry_after_s must be > 0, got {min_retry_after_s}"
            )
        self.engine = engine
        # Every query of a batch is stacked into one read, so a query
        # of the wrong width is refused at the door rather than failing
        # the batch it would join.  The width is fixed for the
        # engine's life (``replace_mapping`` refuses to change it).
        self._shape = (engine.n_features,)
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self.default_deadline_s = default_deadline_s
        self.on_batch = on_batch
        self.min_retry_after_s = float(min_retry_after_s)
        self.label = label
        ambient = current_run_log()
        self.log = log if log is not None else (
            ambient if ambient is not None else RunLog()
        )
        self._queue: queue.Queue = queue.Queue(maxsize=self.max_queue)
        # One lock guards everything the submitter and the worker
        # thread both touch: the intake flag, the throughput EMA, the
        # served-batch counter and the deadline-miss counter.
        # Critically, the closed check and
        # the enqueue happen under the same acquisition in submit(),
        # and shutdown() flips the flag under it before posting the
        # sentinel — so no accepted request can ever land behind the
        # sentinel and be stranded.
        self._state = make_lock("scheduler-state")
        self.batches_served = 0
        self._deadline_misses = 0
        self._closed = False
        # EMA of per-batch wall time; None until the first batch lands
        # so cold-start backpressure can fall back to the floor.
        self._batch_seconds: float | None = None
        self._worker = threading.Thread(
            target=self._run, name="repro-serve-worker", daemon=True
        )
        self._worker.start()

    # -- client side ---------------------------------------------------
    def submit(
        self, x: np.ndarray, deadline_s: float | None = None
    ) -> concurrent.futures.Future:
        """Enqueue one query; the future resolves to its score vector.

        Raises:
            ValueError: ``x`` is not one query of the engine's width.
            ServeOverloadedError: The queue is at capacity.
            RuntimeError: The scheduler has been shut down.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != self._shape:
            raise ValueError(
                f"query shape {x.shape} != engine input {self._shape}"
            )
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        now = time.monotonic()
        request = _Request(
            x=x,
            deadline=None if deadline_s is None else now + deadline_s,
            submitted=now,
            future=concurrent.futures.Future(),
        )
        with self._state:
            if self._closed:
                raise RuntimeError("scheduler is shut down")
            try:
                self._queue.put_nowait(request)
            except queue.Full:
                # Hint: time to drain the current backlog at the recent
                # per-batch pace, never below the configured floor (a
                # cold scheduler has no pace sample and must not
                # advertise an instant retry).
                backlog_batches = 1 + self._queue.qsize() / self.max_batch
                pace = (
                    self._batch_seconds
                    if self._batch_seconds is not None
                    else self.min_retry_after_s
                )
                raise ServeOverloadedError(
                    retry_after_s=max(
                        self.min_retry_after_s, backlog_batches * pace
                    )
                ) from None
        return request.future

    @property
    def depth(self) -> int:
        """Current queue depth (the fleet router's load signal)."""
        return self._queue.qsize()

    @property
    def deadline_misses(self) -> int:
        """Requests dropped because their deadline passed while queued."""
        with self._state:
            return self._deadline_misses

    def predict(
        self,
        x: np.ndarray,
        deadline_s: float | None = None,
        timeout: float | None = None,
    ) -> np.ndarray:
        """Synchronous convenience: submit one query and wait."""
        return self.submit(x, deadline_s).result(timeout=timeout)

    def shutdown(self, timeout: float | None = None) -> None:
        """Stop intake, drain the queue, join the worker thread."""
        with self._state:
            if self._closed:
                return
            self._closed = True
        # The sentinel is posted *outside* the lock: a full queue makes
        # this put block until the worker drains, and the worker needs
        # the state lock to finish each batch.
        self._queue.put(_SHUTDOWN)
        self._worker.join(timeout=timeout)

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- worker side ---------------------------------------------------
    def _collect(self) -> list[_Request] | None:
        """Block for one request, then greedily pack up to max_batch."""
        first = self._queue.get()
        if first is _SHUTDOWN:
            return None
        batch = [first]
        while len(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                # Keep draining: shutdown is graceful, so everything
                # queued ahead of the sentinel still gets answered.
                self._queue.put(item)
                break
            batch.append(item)
        return batch

    def _serve_batch(self, batch: list[_Request]) -> None:
        start = time.monotonic()
        live: list[_Request] = []
        for request in batch:
            if request.deadline is not None and request.deadline < start:
                request.future.set_exception(
                    DeadlineExceededError(
                        "deadline passed while queued "
                        f"({start - request.submitted:.3f}s)"
                    )
                )
                with self._state:
                    self._deadline_misses += 1
                self.log.record_request(
                    latency_s=start - request.submitted,
                    queue_s=start - request.submitted,
                    batch_size=len(batch),
                    ok=False,
                    label=self.label,
                )
            else:
                live.append(request)
        if not live:
            return
        try:
            scores = self.engine.forward(
                np.stack([r.x for r in live], axis=0)
            )
        except Exception as exc:
            # Not swallowed: every waiting future receives the error.
            for request in live:
                request.future.set_exception(exc)
            return
        done = time.monotonic()
        measured = done - start
        with self._state:
            self._batch_seconds = (
                measured
                if self._batch_seconds is None
                else 0.7 * self._batch_seconds + 0.3 * measured
            )
        for i, request in enumerate(live):
            request.future.set_result(scores[i])
            self.log.record_request(
                latency_s=done - request.submitted,
                queue_s=start - request.submitted,
                batch_size=len(live),
                ok=True,
                label=self.label,
            )

    def _run(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            self._serve_batch(batch)
            with self._state:
                self.batches_served += 1
            if self.on_batch is not None:
                self.on_batch()
