"""In-memory span tracing for the benchmark's traced runs.

A :class:`Tracer` wraps functions and methods of the program from the
outside (by replacing module and class attributes) and records one span
per call: name, start, end, thread and the parent span open on the same
thread.  Nothing is written until the run ends.  Worker processes forked
by the Monte-Carlo executor inherit the wrappers; each one ships its
spans back to the parent through a spool directory when it exits, so
per-layer times also cover work done in workers.

Self time of a span is its duration minus the time its direct child
spans cover.  Children of one span run on the span's own thread and
nest inside it, so they never overlap one another and the covered part
is simply the sum of their durations.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import json
import multiprocessing.util
import os
import sys
import threading
import time
from array import array
from pathlib import Path
from typing import Callable

__all__ = ["GCWatch", "Span", "Tracer", "collect", "summarize"]


@dataclasses.dataclass
class Span:
    """One recorded call.

    Attributes:
        name: Span name, ``"<layer group>:<entry point>"``.
        start: ``time.perf_counter()`` at entry.
        end: ``time.perf_counter()`` at exit.
        thread: Identifier of the recording thread (``pid:tid``).
        parent: Index of the enclosing span on the same thread, or -1.
        count: Units of work the call carried (rows, trials); 1 when
            the entry point has no natural unit.
    """

    name: str
    start: float
    end: float
    thread: str
    parent: int
    count: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped callables; restores them on close.

    Args:
        spool: Directory where forked worker processes leave their
            spans at exit; ``None`` disables cross-process collection.
    """

    def __init__(self, spool: Path | None = None):
        self._reset()
        self._patches: list[tuple[object, str, object]] = []
        self._spool = spool
        if spool is not None:
            spool.mkdir(parents=True, exist_ok=True)
            multiprocessing.util.register_after_fork(self, Tracer._in_child)

    def _reset(self) -> None:
        # Columns rather than one object per span: typed arrays hold no
        # objects the garbage collector must traverse, which keeps the
        # tracer from inflating the collection pauses it measures.
        self._names: list[str] = []
        self._threads: list[str] = []
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._count = array("q")
        self._local = threading.local()
        self._lock = threading.Lock()

    @property
    def spans(self) -> list[Span]:
        """Every recorded span, in the order they were opened."""
        return [
            Span(*row) for row in zip(
                self._names, self._start, self._end, self._threads,
                self._parent, self._count,
            )
        ]

    # -- recording -----------------------------------------------------
    def begin(self, name: str, count: int = 1) -> int:
        """Open a span on the calling thread; returns its index."""
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.label = f"{os.getpid()}:{threading.get_ident()}"
        start = time.perf_counter()
        with self._lock:
            index = len(self._names)
            self._names.append(name)
            self._threads.append(local.label)
            self._start.append(start)
            self._end.append(float("nan"))
            self._parent.append(stack[-1] if stack else -1)
            self._count.append(count)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span ``index`` opened by :meth:`begin`."""
        self._end[index] = time.perf_counter()
        self._local.stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Callable[..., int] | None = None,
    ) -> Callable:
        """A traced stand-in for ``fn`` recording spans named ``name``.

        ``name`` may be a callable of the call's arguments returning
        the span name (used to split reads by IR mode).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            units = count(*args, **kwargs) if count is not None else 1
            index = tracer.begin(label, units)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        return traced

    def patch(
        self,
        owner: object,
        attr: str,
        name,
        count: Callable[..., int] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        A module-level function is also replaced in every loaded
        ``repro`` module that imported it by name, so callers that did
        ``from module import fn`` see the wrapper too.  Static methods
        stay static.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(name, raw.__func__, count))
        else:
            wrapped = self.wrap(name, raw, count)
        self._set(owner, attr, raw, wrapped)
        if isinstance(owner, type) or isinstance(raw, staticmethod):
            return
        for module in list(sys.modules.values()):
            if module is owner or module is None:
                continue
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            if module.__dict__.get(attr) is raw:
                self._set(module, attr, raw, wrapped)

    def _set(self, owner: object, attr: str, raw, wrapped) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def close(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- worker processes ----------------------------------------------
    def _in_child(self) -> None:
        # A forked worker starts with a copy of the parent's spans and
        # of the forking thread's open stack; keep only its own.
        self._reset()
        multiprocessing.util.Finalize(None, self._dump, exitpriority=10)

    def _dump(self) -> None:
        path = self._spool / f"spans-{os.getpid()}.json"
        rows = [dataclasses.astuple(s) for s in self.spans]
        path.write_text(json.dumps(rows), encoding="utf-8")

    def collect_children(self) -> None:
        """Merge the spans worker processes left in the spool."""
        if self._spool is None:
            return
        for path in sorted(self._spool.glob("spans-*.json")):
            rows = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            with self._lock:
                base = len(self._names)
                for name, start, end, thread, parent, count in rows:
                    self._names.append(name)
                    self._threads.append(thread)
                    self._start.append(start)
                    self._end.append(end)
                    self._parent.append(parent + base if parent >= 0 else -1)
                    self._count.append(count)


def group_of(name: str) -> str:
    """Layer group of a span name: the part before ``:``."""
    return name.split(":", 1)[0]


def summarize(spans: list[Span]) -> tuple[dict, dict]:
    """Aggregate spans per layer group and per span name.

    Returns:
        ``(groups, names)``.  ``groups[g]`` holds ``busy_s`` (inclusive
        time, counting only spans with no enclosing span of the same
        group, so a re-entrant layer is not counted twice) and
        ``self_s`` (summed self time, which adds up exactly).
        ``names[n]`` holds ``calls`` and ``units``.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    groups: dict[str, dict[str, float]] = {}
    names: dict[str, dict[str, int]] = {}
    for i, span in enumerate(spans):
        row = names.setdefault(span.name, {"calls": 0, "units": 0})
        row["calls"] += 1
        row["units"] += span.count
        group = group_of(span.name)
        agg = groups.setdefault(group, {"busy_s": 0.0, "self_s": 0.0})
        agg["self_s"] += span.duration - covered[i]
        if not _inside_group(spans, i, group):
            agg["busy_s"] += span.duration
    return groups, names


def _inside_group(spans: list[Span], index: int, group: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if group_of(spans[parent].name) == group:
            return True
        parent = spans[parent].parent
    return False


_muted = False


def collect() -> None:
    """``gc.collect()`` for the benchmark's own use; no watch sees it."""
    global _muted
    _muted = True
    try:
        gc.collect()
    finally:
        _muted = False


class GCWatch:
    """Garbage-collector pauses, recorded through ``gc.callbacks``.

    Attributes:
        collections: Collections seen, by generation.
        intervals: ``(start, end)`` (``time.perf_counter()``) of each
            pause, in order.
    """

    def __init__(self):
        self.collections = [0, 0, 0]
        self.intervals: list[tuple[float, float]] = []
        self._started: float | None = None

    @property
    def pauses(self) -> list[float]:
        return [end - start for start, end in self.intervals]

    def _callback(self, phase: str, info: dict) -> None:
        if _muted:
            return
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.intervals.append((self._started, time.perf_counter()))
            self.collections[info["generation"]] += 1
            self._started = None

    def __enter__(self) -> "GCWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

    def metrics(self) -> dict[str, float]:
        return {
            "py.gc.collections_gen2": self.collections[2],
            "py.gc.pause_s": sum(self.pauses),
            "py.gc.max_pause_ms": max(self.pauses, default=0.0) * 1e3,
        }
