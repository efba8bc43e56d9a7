"""Scatter-gather routing: every shard answers, one replica per shard.

A fleet request -- one query ``(n,)`` or a block of query rows
``(k, n)`` -- touches *all* shards (each owns a row slice of the
layer) but only *one replica* of each (any replica of a shard restores
the same golden artifact, so they are interchangeable).  The router
therefore:

1. splits the request at the shard row boundaries (``x[..., a:b]``),
2. scatters each slice to the least-loaded live replica of its shard,
3. gathers the partial column currents, and
4. reduces them digitally with the one true accumulation order
   (:meth:`TiledPair.reduce_partials`, left-to-right in shard order),
   so the gathered result is bit-identical to a single
   :meth:`TiledPair.matvec` on the same hardware state.

A block travels as one partial per shard and is reduced once, so a
``k``-row block costs the router what one query does.

Failure handling is per-partial: a partial that fails with
:class:`~repro.serve.scheduler.ReplicaDeadError` is resubmitted to a
sibling replica of the same shard (excluding replicas already tried),
so killing one replica of a replicated shard drops zero queries.
Deadline expiries are *not* retried — a dropped deadline is the
scheduler doing its job, and a retry would arrive even later.
"""

from __future__ import annotations

import concurrent.futures

import numpy as np

from repro.lint.sanitize import make_lock
from repro.serve.scheduler import ReplicaDeadError, ServeOverloadedError
from repro.serve.service import CrossbarService
from repro.xbar.tiling import TiledPair

__all__ = ["FleetRouter", "NoLiveReplicaError", "ShardGroup"]


class NoLiveReplicaError(RuntimeError):
    """Every replica of a shard is dead or excluded; the query fails."""


class ShardGroup:
    """The replica set of one shard.

    Args:
        shard_index: Which shard the group serves.
        replicas: The shard's replicas, in replica-index order.
    """

    def __init__(self, shard_index: int, replicas: list[CrossbarService]):
        if not replicas:
            raise ValueError("a shard group needs at least one replica")
        self.shard_index = int(shard_index)
        self.replicas = list(replicas)

    @property
    def live_replicas(self) -> list[CrossbarService]:
        return [r for r in self.replicas if r.live]

    def pick(self, exclude: frozenset[str] = frozenset()) -> CrossbarService:
        """Least-loaded live replica, deterministic on depth ties."""
        candidates = [
            r for r in self.live_replicas if r.name not in exclude
        ]
        if not candidates:
            raise NoLiveReplicaError(
                f"shard {self.shard_index} has no live replica left"
            )
        return min(
            candidates, key=lambda r: (r.depth, r.replica_index)
        )

    def submit(
        self,
        x: np.ndarray,
        deadline_s: float | None = None,
        exclude: frozenset[str] = frozenset(),
    ) -> tuple[CrossbarService, concurrent.futures.Future]:
        """Enqueue a partial on the best replica, walking past failures.

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


class _GatherState:
    """Mutable rendezvous of one request's scattered partials."""

    def __init__(self, n_parts: int, future: concurrent.futures.Future):
        self.parts: list[np.ndarray | None] = [None] * n_parts
        self.remaining = n_parts
        self.future = future
        self.lock = make_lock("gather-state")
        self.failed = False

    def deliver(self, index: int, part: np.ndarray) -> None:  # repro-lint: thread=worker
        with self.lock:
            if self.failed:
                return
            self.parts[index] = part
            self.remaining -= 1
            # Snapshot under the lock: only the thread that lands the
            # last partial sees a full list, and taking the copy here
            # (not after release) keeps every self.parts access
            # lock-guarded.
            parts = list(self.parts) if self.remaining == 0 else None
        if parts is not None:
            # Fixed reduction order: left-to-right in shard order, the
            # same order TiledPair.matvec uses, so the gathered result
            # is bit-identical to the single-machine read.  set_result
            # runs outside the lock: it fires user callbacks.
            self.future.set_result(TiledPair.reduce_partials(parts))

    def fail(self, exc: BaseException) -> None:  # repro-lint: thread=worker
        with self.lock:
            if self.failed:
                return
            self.failed = True
        self.future.set_exception(exc)


class FleetRouter:
    """Scatter queries across shard groups, gather exact results.

    Args:
        groups: One :class:`ShardGroup` per shard, in shard order.
        ranges: The shard row ranges (``FleetConfig.ranges``); group
            ``i`` serves rows ``ranges[i]``.
    """

    def __init__(
        self,
        groups: list[ShardGroup],
        ranges: list[tuple[int, int]],
    ):
        if len(groups) != len(ranges):
            raise ValueError(
                f"{len(groups)} shard groups but {len(ranges)} row ranges"
            )
        self.groups = list(groups)
        self.ranges = list(ranges)
        self.n_rows = ranges[-1][1]

    # -- request path --------------------------------------------------
    def submit(
        self, x: np.ndarray, deadline_s: float | None = None
    ) -> concurrent.futures.Future:
        """Scatter one request; the future resolves to the reduced scores.

        A query ``(n,)`` resolves to ``(cols,)``, a block ``(k, n)``
        to ``(k, cols)``.

        Raises:
            ValueError: ``x`` is neither a query nor a non-empty block
                of the fleet's width.
            ServeOverloadedError: Some shard had every replica's queue
                full (nothing was half-served: failed requests fail
                whole).
            NoLiveReplicaError: Some shard has no live replica at all.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n_rows or not x.size:
            raise ValueError(
                f"input width {x.shape} != fleet rows ({self.n_rows},) "
                f"or (k, {self.n_rows})"
            )
        done: concurrent.futures.Future = concurrent.futures.Future()
        state = _GatherState(len(self.groups), done)
        for i, (start, stop) in enumerate(self.ranges):
            try:
                self._dispatch(
                    state, i, x[..., start:stop], deadline_s, frozenset()
                )
            except Exception as exc:
                state.fail(exc)  # drop partials queued on earlier shards
                raise
        return done

    def _dispatch(
        self,
        state: _GatherState,
        shard_index: int,
        x_slice: np.ndarray,
        deadline_s: float | None,
        exclude: frozenset[str],
    ) -> None:
        replica, future = self.groups[shard_index].submit(
            x_slice, deadline_s, exclude=exclude
        )
        future.add_done_callback(
            lambda f: self._on_part(
                state, shard_index, x_slice, deadline_s,
                exclude | {replica.name}, f,
            )
        )

    def _on_part(
        self,
        state: _GatherState,
        shard_index: int,
        x_slice: np.ndarray,
        deadline_s: float | None,
        tried: frozenset[str],
        future: concurrent.futures.Future,
    ) -> None:
        exc = future.exception()
        if exc is None:
            state.deliver(shard_index, future.result())
        elif isinstance(exc, ReplicaDeadError):
            # The replica died with this partial queued or in flight:
            # replay it on a sibling that has not been tried yet.
            try:
                self._dispatch(
                    state, shard_index, x_slice, deadline_s, tried
                )
            except Exception as replay_exc:
                state.fail(replay_exc)
        else:
            state.fail(exc)
