"""Replica routing: one whole-layer replica answers each request.

Every fleet replica is one serving lane over the whole tiled layer
(:class:`~repro.serve.service.CrossbarService` over a
:class:`~repro.xbar.tiling.TiledPair`), and every replica restores the
same golden shard artifacts, so they are interchangeable.  A request
-- one query ``(n,)`` or a block of query rows ``(k, n)`` -- therefore
goes whole to the least-loaded live replica, whose single
:meth:`TiledPair.matvec` reads every tile and reduces the partial
column currents in the one true accumulation order
(:meth:`TiledPair.reduce_partials`, left-to-right in shard order).
The answer is bit-identical to a single tiled read on the same
hardware state, and a block costs one lane hand-off however many
shards the layer has.

Failure handling is per request: a request that fails with
:class:`~repro.serve.scheduler.ReplicaDeadError` (its replica died
with it queued or in flight) is replayed whole on a sibling that has
not been tried yet, so killing one replica drops zero queries.  When
no untried live sibling is left, the request fails with
:class:`NoLiveReplicaError` and its rows are recorded once as dropped,
under the lane that lost them.  Deadline expiries are *not* retried --
a dropped deadline is the scheduler doing its job, and a retry would
arrive even later.
"""

from __future__ import annotations

import concurrent.futures
import time

import numpy as np

from repro.serve.scheduler import ReplicaDeadError, ServeOverloadedError
from repro.serve.service import CrossbarService

__all__ = ["FleetRouter", "NoLiveReplicaError", "ShardGroup"]


class NoLiveReplicaError(RuntimeError):
    """Every replica is dead or excluded; the request fails."""


class ShardGroup:
    """The replica set of one sharded layer.

    Each replica serves every shard of the layer, so the group is the
    whole serving capacity of a fleet.

    Args:
        replicas: The replicas, in replica-index order.
    """

    def __init__(self, replicas: list[CrossbarService]):
        if not replicas:
            raise ValueError("a replica set needs at least one replica")
        self.replicas = list(replicas)

    @property
    def live_replicas(self) -> list[CrossbarService]:
        return [r for r in self.replicas if r.alive]

    def pick(self, exclude: frozenset[str] = frozenset()) -> CrossbarService:
        """Least-loaded live replica, deterministic on depth ties."""
        candidates = [
            r for r in self.live_replicas if r.name not in exclude
        ]
        if not candidates:
            raise NoLiveReplicaError("the fleet has no live replica left")
        return min(
            candidates, key=lambda r: (r.depth, r.replica_index)
        )

    def submit(
        self,
        x: np.ndarray,
        deadline_s: float | None = None,
        exclude: frozenset[str] = frozenset(),
    ) -> tuple[CrossbarService, concurrent.futures.Future]:
        """Enqueue a request on the best replica, walking past failures.

        A replica that dies between pick and enqueue is skipped; an
        overloaded replica is skipped too, but if *every* live replica
        is overloaded the last :class:`ServeOverloadedError` propagates
        (backpressure, not failure).
        """
        tried = set(exclude)
        overloaded: ServeOverloadedError | None = None
        while True:
            try:
                replica = self.pick(frozenset(tried))
            except NoLiveReplicaError:
                if overloaded is not None:
                    raise overloaded from None
                raise
            try:
                return replica, replica.submit(x, deadline_s)
            except ReplicaDeadError:
                tried.add(replica.name)
            except ServeOverloadedError as exc:
                overloaded = exc
                tried.add(replica.name)


class FleetRouter:
    """Route whole requests to live replicas; replay on replica death.

    Args:
        group: The fleet's replica set.
    """

    def __init__(self, group: ShardGroup):
        self.group = group

    def submit(
        self, x: np.ndarray, deadline_s: float | None = None
    ) -> concurrent.futures.Future:
        """Route one request; the future resolves to its scores.

        A query ``(n,)`` resolves to ``(cols,)``, a block ``(k, n)``
        to ``(k, cols)``.

        Raises:
            ValueError: ``x`` is neither a query nor a non-empty block
                of the fleet's width.
            ServeOverloadedError: Every live replica's queue is full.
            NoLiveReplicaError: No replica is live.
        """
        replica, future = self.group.submit(x, deadline_s)
        done: concurrent.futures.Future = concurrent.futures.Future()
        self._watch(done, x, deadline_s, replica, frozenset(), future,
                    time.monotonic())
        return done

    def _watch(
        self,
        done: concurrent.futures.Future,
        x: np.ndarray,
        deadline_s: float | None,
        replica: CrossbarService,
        tried: frozenset[str],
        future: concurrent.futures.Future,
        submitted: float,
    ) -> None:
        tried = tried | {replica.name}
        future.add_done_callback(
            lambda f: self._on_answer(
                done, x, deadline_s, replica, tried, f, submitted
            )
        )

    def _on_answer(  # repro-lint: thread=worker
        self,
        done: concurrent.futures.Future,
        x: np.ndarray,
        deadline_s: float | None,
        replica: CrossbarService,
        tried: frozenset[str],
        future: concurrent.futures.Future,
        submitted: float,
    ) -> None:
        exc = future.exception()
        if exc is None:
            done.set_result(future.result())
            return
        if isinstance(exc, ReplicaDeadError):
            # The replica died with this request queued or in flight:
            # replay it whole on a sibling not tried yet.
            try:
                sibling, retry = self.group.submit(x, deadline_s, tried)
            except Exception as replay_exc:
                # Recorded once, in the run log the lost lane shares
                # with its siblings.
                replica.log.record_request(
                    latency_s=time.monotonic() - submitted,
                    ok=False,
                    label=replica.name,
                    rows=1 if np.ndim(x) == 1 else len(x),
                )
                done.set_exception(replay_exc)
                return
            self._watch(done, x, deadline_s, sibling, tried, retry,
                        submitted)
            return
        done.set_exception(exc)
