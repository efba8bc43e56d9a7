"""Batched request scheduling: queueing, backpressure, deadlines.

A request is one query ``(n,)`` or a block of query rows ``(k, n)``.
One worker thread drains a bounded queue, packs whole waiting requests
until their rows reach ``max_batch`` (a larger block is served alone),
makes a single forward pass, and resolves each request's future with
its own rows of the answer.  The design choices mirror a real serving
stack scaled down to in-process size:

* **Bounded depth + rejection.**  An unbounded queue converts overload
  into unbounded latency; a full queue instead rejects immediately
  with :class:`ServeOverloadedError` carrying a retry-after hint
  estimated from recent batch throughput.
* **Deadlines.**  A request whose deadline has passed by the time its
  batch forms is dropped whole (its future receives
  :class:`DeadlineExceededError`) rather than wasting a hardware read
  on an answer nobody is waiting for.
* **Graceful shutdown.**  ``shutdown()`` stops intake, lets the worker
  drain everything already queued, then joins the thread -- accepted
  requests are always answered or explicitly failed, never stranded.
* **Loud hook failure.**  When the per-batch hook raises (a drift
  check whose probe read or repair fails), the scheduler closes intake
  and fails every queued request with that error before the worker
  exits, so nothing waits on a worker that is gone.

Every request is recorded once in the ambient
:class:`~repro.runtime.telemetry.RunLog` (latency, queue share, batch
rows, its own rows, dropped flag), so serving telemetry flows through
the same channel as Monte-Carlo telemetry.  A failed read or a failed
lane counts the requests it fails as dropped, except a
:class:`ReplicaDeadError`: that hands the request back to its sender
(a fleet router replays it on a sibling), and the replay is recorded
where it is served.
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
from repro.runtime.telemetry import RunLog, resolve_run_log
from repro.serve.engine import InferenceEngine
from repro.serve.protocol import Submitter

__all__ = [
    "BatchScheduler",
    "DeadlineExceededError",
    "ReplicaDeadError",
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


class ReplicaDeadError(RuntimeError):
    """The lane was killed or failed; retry the query on a sibling."""


@dataclasses.dataclass(slots=True)
class _Request:
    x: np.ndarray  # always a (rows, n) block
    single: bool  # submitted as one (n,) query: answer (cols,)
    deadline: float | None
    submitted: float
    future: concurrent.futures.Future


_SHUTDOWN = object()


class BatchScheduler(Submitter):
    """Thread-based batching scheduler over an inference engine.

    Args:
        engine: The batched forward pass to drive.
        max_batch: Most query rows packed into one forward pass; a
            single larger block is served alone.
        max_queue: Queue depth bound; submissions beyond it are
            rejected with :class:`ServeOverloadedError`.
        default_deadline_s: Deadline applied to requests that do not
            carry their own (``None`` = no deadline).
        on_batch: Optional hook invoked after every completed batch
            (the drift monitor's entry point).  If it raises, intake
            closes and every queued request fails with its error.
        log: Telemetry sink; the ambient run log (or a private one)
            when omitted.
        min_retry_after_s: Floor for the overload retry-after hint.
            Before the first batch completes there is no throughput
            sample, so a cold-start rejection falls back to this floor
            instead of advertising an instant (or zero) retry.
        label: Serving-lane tag stamped on every request record (the
            fleet uses ``"r<j>"``); empty for a lone scheduler.
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
        # Every request of a batch is stacked into one read, so a
        # request of the wrong width is refused at the door rather than
        # failing the batch it would join.  The width is fixed for the
        # engine's life (``replace_mapping`` refuses to change it).
        self._width = engine.n_features
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self.default_deadline_s = default_deadline_s
        self.on_batch = on_batch
        self.min_retry_after_s = float(min_retry_after_s)
        self.label = label
        self.log = resolve_run_log(log)
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
        # A request taken off the queue that would have overfilled the
        # batch being packed; it opens the next batch.  Worker-only.
        self._carry: _Request | None = None
        self._worker = threading.Thread(
            target=self._run, name="repro-serve-worker", daemon=True
        )
        self._worker.start()

    # -- client side ---------------------------------------------------
    def submit(
        self, x: np.ndarray, deadline_s: float | None = None
    ) -> concurrent.futures.Future:
        """Enqueue one request; the future resolves to its scores.

        A query ``(n,)`` resolves to ``(cols,)``, a block ``(k, n)``
        to ``(k, cols)``.

        Raises:
            ValueError: ``x`` is neither a query nor a non-empty block
                of the engine's width.
            ServeOverloadedError: The queue is at capacity.
            RuntimeError: The scheduler has been shut down.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self._width or not x.size:
            raise ValueError(
                f"query shape {x.shape} != engine input width "
                f"({self._width},) or (k, {self._width})"
            )
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        now = time.monotonic()
        single = x.ndim == 1
        request = _Request(
            x=x[None, :] if single else x,
            single=single,
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
        """Block for one request, then pack whole ones up to max_batch rows."""
        first, self._carry = self._carry, None
        if first is None:
            first = self._queue.get()
        if first is _SHUTDOWN:
            return None
        batch = [first]
        rows = len(first.x)
        while rows < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                # Keep draining: shutdown is graceful, so everything
                # queued ahead of the sentinel still gets answered.
                self._queue.put(item)
                break
            if rows + len(item.x) > self.max_batch:
                self._carry = item
                break
            batch.append(item)
            rows += len(item.x)
        return batch

    def _record(
        self, request: _Request, now: float, start: float,
        batch_rows: int, ok: bool,
    ) -> None:
        self.log.record_request(
            latency_s=now - request.submitted,
            queue_s=start - request.submitted,
            batch_size=batch_rows,
            ok=ok,
            label=self.label,
            rows=len(request.x),
        )

    def _fail(self, requests: list[_Request], exc: BaseException) -> None:
        """Fail ``requests`` with ``exc``, counting them as dropped
        unless ``exc`` hands them back for a replay."""
        now = time.monotonic()
        if not isinstance(exc, ReplicaDeadError):
            for request in requests:
                self._record(request, now, now, len(request.x), ok=False)
        for request in requests:
            request.future.set_exception(exc)

    def _serve_batch(self, batch: list[_Request]) -> None:
        start = time.monotonic()
        rows = sum(len(r.x) for r in batch)
        live: list[_Request] = []
        for request in batch:
            if request.deadline is not None and request.deadline < start:
                with self._state:
                    self._deadline_misses += 1
                self._record(request, start, start, rows, ok=False)
                request.future.set_exception(
                    DeadlineExceededError(
                        "deadline passed while queued "
                        f"({start - request.submitted:.3f}s)"
                    )
                )
            else:
                live.append(request)
        if not live:
            return
        if len(live) < len(batch):
            rows = sum(len(r.x) for r in live)
        try:
            scores = self.engine.forward(
                live[0].x if len(live) == 1
                else np.concatenate([r.x for r in live], axis=0)
            )
        except Exception as exc:
            # Not swallowed: every waiting future receives the error.
            self._fail(live, exc)
            return
        done = time.monotonic()
        measured = done - start
        with self._state:
            self._batch_seconds = (
                measured
                if self._batch_seconds is None
                else 0.7 * self._batch_seconds + 0.3 * measured
            )
        offset = 0
        for request in live:
            k = len(request.x)
            request.future.set_result(
                scores[offset] if request.single
                else scores[offset : offset + k]
            )
            offset += k
            self._record(request, done, start, rows, ok=True)

    def _abort(self, exc: BaseException) -> None:
        """Close intake and fail every queued request with ``exc``."""
        with self._state:
            self._closed = True
        # Nothing is enqueued once the flag is set (submit checks it
        # under the same lock), so this empties the queue for good.
        # Futures fail outside the lock: they fire user callbacks.
        queued = [] if self._carry is None else [self._carry]
        self._carry = None
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                queued.append(item)
        self._fail(queued, exc)

    def _run(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            self._serve_batch(batch)
            with self._state:
                self.batches_served += 1
            if self.on_batch is not None:
                try:
                    self.on_batch()
                except Exception as exc:
                    self._abort(exc)
                    return
