"""The shared service surface of the serving stack.

:class:`~repro.serve.service.CrossbarService` (one programmed array)
and :class:`~repro.fleet.service.FleetService` (a sharded, replicated
fleet) expose the same contract, captured here as the runtime-checkable
:class:`Service` protocol.  The CLI's stdin/HTTP front-ends, the
benchmarks and the tests are written against this surface alone, so
they never branch on the concrete service type.

The lifecycle verbs are:

* ``drain(timeout)`` -- stop accepting new queries and answer
  everything already queued.
* ``close(timeout)`` -- full release of the service (drains first);
  also what ``with service:`` runs on exit.

:class:`Submitter` supplies ``predict`` and the block ``forward`` on
top of a concrete ``submit``, and
:class:`ServiceLifecycle` adds ``close``/context management on top of
a concrete ``drain``, so every service writes them once.
"""

from __future__ import annotations

import concurrent.futures
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["Service", "ServiceLifecycle", "Submitter"]


@runtime_checkable
class Service(Protocol):
    """What every serving facade exposes, single-array or fleet."""

    def submit(
        self, x: np.ndarray, deadline_s: float | None = None
    ) -> concurrent.futures.Future:
        """Enqueue one query ``(n,)`` or block ``(k, n)``; the future
        resolves to its scores, ``(cols,)`` or ``(k, cols)``."""
        ...

    def predict(
        self,
        x: np.ndarray,
        deadline_s: float | None = None,
        timeout: float | None = None,
    ) -> np.ndarray:
        """Synchronous single-query scores."""
        ...

    def status(self) -> dict:
        """Deterministic inventory of the serving hardware."""
        ...

    def stats(self) -> dict:
        """Serving telemetry summary (latency, drops, health events)."""
        ...

    def drain(self, timeout: float | None = None) -> None:
        """Stop intake, answer everything already queued."""
        ...

    def close(self, timeout: float | None = None) -> None:
        """Drain and release the service."""
        ...


class Submitter:
    """Mixin: synchronous ``predict`` and block ``forward`` on top of
    ``submit`` (services, the pipeline engine, the scheduler)."""

    def submit(
        self, x: np.ndarray, deadline_s: float | None = None
    ) -> concurrent.futures.Future:
        raise NotImplementedError

    def predict(
        self,
        x: np.ndarray,
        deadline_s: float | None = None,
        timeout: float | None = None,
    ) -> np.ndarray:
        """Synchronous single-query result vector."""
        return self.submit(x, deadline_s).result(timeout=timeout)

    def forward(
        self, x: np.ndarray, timeout: float | None = None
    ) -> np.ndarray:
        """Serve a query or a whole block as one request and wait.

        The block travels whole: one lane hand-off, one read per
        lane batch.  Each row's result is still bit-identical to its
        single-query run because every read path in between is
        batch-invariant.
        """
        return self.submit(x).result(timeout=timeout)


class ServiceLifecycle(Submitter):
    """Mixin: ``close``/``with`` on top of ``drain``, plus
    :class:`Submitter`'s ``predict`` and ``forward``."""

    def drain(self, timeout: float | None = None) -> None:
        raise NotImplementedError

    def close(self, timeout: float | None = None) -> None:
        """Drain and release the service (idempotent)."""
        self.drain(timeout)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
