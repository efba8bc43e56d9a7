"""Observability for the execution engine: run logs and progress.

Two kinds of records accumulate while a report (or any engine-driven
workload) runs:

* :class:`TrialBatch` -- one per Monte-Carlo dispatch, with trial
  count, wall time, worker count and throughput.
* :class:`ExperimentRecord` -- one per report section, with wall time
  and whether the artifact cache served it.

Serving adds two more: a :class:`RequestRecord` per answered or
dropped request, and a :class:`HealthEvent` per health action a
serving lane takes (an in-place drift repair, a kill or a failure),
whether the lane stands alone or is one replica of a fleet.

The records split into a *deterministic* view (``render_summary``:
names, trial counts, cache status -- safe to embed in the report text,
which must be byte-identical across worker counts) and a *timing* view
(``render_timing`` / ``to_json``: wall times and throughput, emitted
on stderr or to a JSON file where nondeterminism is fine).

Like the runtime configuration, the active :class:`RunLog` travels
through a context variable so deep call sites can record into it
without signature changes.  When no log is installed, recording is a
cheap no-op on a throwaway default.
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
import dataclasses
import itertools
import json
import math
import time
from typing import Callable, Iterator

__all__ = [
    "TrialBatch",
    "ExperimentRecord",
    "RequestRecord",
    "HealthEvent",
    "RunLog",
    "current_run_log",
    "resolve_run_log",
    "use_run_log",
]

ProgressCallback = Callable[[str, int, int], None]


@dataclasses.dataclass
class TrialBatch:
    """Telemetry for one Monte-Carlo dispatch.

    Attributes:
        label: Caller-supplied name of the workload.
        trials: Trials executed (0 when served from cache).
        seconds: Wall time of the dispatch.
        jobs: Worker processes used (1 = serial in-process).
        cache_hit: Whether the artifact cache supplied the result.
        kernel: Execution path: ``'loop'`` (one Python callable per
            trial) or ``'batched'`` (vectorised chunk kernel).
        chunk_size: Trials per chunk dispatch (0 when unknown, e.g.
            cache hits and ``parallel_map`` batches).
    """

    label: str
    trials: int
    seconds: float
    jobs: int
    cache_hit: bool = False
    kernel: str = "loop"
    chunk_size: int = 0

    @property
    def trials_per_second(self) -> float:
        if self.seconds <= 0.0 or self.trials == 0:
            return 0.0
        return self.trials / self.seconds


@dataclasses.dataclass
class ExperimentRecord:
    """Telemetry for one report section.

    Attributes:
        name: Experiment key (``fig2`` ... ``table1``).
        seconds: Wall time spent producing the section.
        cache_hit: Whether the section came from the artifact cache.
        cache_key: Stable artifact key (empty when caching is off).
    """

    name: str
    seconds: float
    cache_hit: bool
    cache_key: str = ""


@dataclasses.dataclass
class RequestRecord:
    """Telemetry for one inference request served by ``repro.serve``.

    A request is one query or one block of query rows; the summaries
    of :class:`RunLog` count rows, so the same traffic reads the same
    whether it was sent row by row or as blocks.

    Attributes:
        latency_s: Submit-to-result wall time.
        queue_s: Portion of the latency spent waiting in the queue.
        batch_size: Rows of the hardware read the request rode in.
        ok: ``False`` when the request was dropped (deadline exceeded,
            failed read, failed lane) instead of answered.
        label: Which serving lane took the request (a fleet replica
            such as ``"r1"``, or ``"layer0/r1"`` in a pipeline; empty
            for a single-array scheduler), so one shared log can split
            latency per lane.
        rows: Query rows the request carried.
    """

    latency_s: float
    queue_s: float = 0.0
    batch_size: int = 1
    ok: bool = True
    label: str = ""
    rows: int = 1


@dataclasses.dataclass
class HealthEvent:
    """Telemetry for one health action on a serving lane.

    Attributes:
        replica: The lane's index in its fleet's replica set (``None``
            for a standalone service).
        action: What happened: ``'remap'`` (a drifted array was
            re-pretested, re-mapped by AMP and reprogrammed in place),
            ``'restore'`` (a drifted tiled layer was reprogrammed to
            its golden shard snapshots in place), ``'kill'`` (the lane
            crashed, e.g. a simulated crash) or ``'fail'`` (the lane's
            per-batch health check or repair raised, so the lane took
            itself out of service).
        seconds: Wall time of a repair.
        discrepancy: Probe discrepancy that triggered a repair (the
            Fig. 2 relative column-output error against the
            programming-time baseline).
        recovered_discrepancy: Probe discrepancy re-measured after a
            repair.
        defects: Stuck-at counts reported by a remap's re-pretest.
        lane: The lane's label, e.g. ``'r0'`` in a fleet or
            ``'layer1/r0'`` in a pipeline (``''`` for a standalone
            service); unlike ``replica`` it tells apart equal replica
            indices of different layers.
    """

    replica: int | None
    action: str
    seconds: float = 0.0
    discrepancy: float | None = None
    recovered_discrepancy: float | None = None
    defects: dict = dataclasses.field(default_factory=dict)
    lane: str = ""


@dataclasses.dataclass
class RunLog:
    """Structured log of one engine run.

    Attributes:
        experiments: Section records, in execution order.
        batches: Monte-Carlo dispatch records, in execution order.
        progress: Optional callback ``(label, done, total)`` invoked as
            trial chunks complete.
    """

    experiments: list[ExperimentRecord] = dataclasses.field(
        default_factory=list
    )
    batches: list[TrialBatch] = dataclasses.field(default_factory=list)
    requests: list[RequestRecord] = dataclasses.field(default_factory=list)
    health_events: list[HealthEvent] = dataclasses.field(
        default_factory=list
    )
    progress: ProgressCallback | None = None

    # -- recording -----------------------------------------------------
    def record_experiment(
        self,
        name: str,
        seconds: float,
        cache_hit: bool,
        cache_key: str = "",
    ) -> ExperimentRecord:
        record = ExperimentRecord(
            name=name, seconds=seconds, cache_hit=cache_hit,
            cache_key=cache_key,
        )
        self.experiments.append(record)
        return record

    def record_batch(
        self,
        label: str,
        trials: int,
        seconds: float,
        jobs: int,
        cache_hit: bool = False,
        kernel: str = "loop",
        chunk_size: int = 0,
    ) -> TrialBatch:
        batch = TrialBatch(
            label=label, trials=trials, seconds=seconds, jobs=jobs,
            cache_hit=cache_hit, kernel=kernel, chunk_size=chunk_size,
        )
        self.batches.append(batch)
        return batch

    def record_request(
        self,
        latency_s: float,
        queue_s: float = 0.0,
        batch_size: int = 1,
        ok: bool = True,
        label: str = "",
        rows: int = 1,
    ) -> RequestRecord:
        record = RequestRecord(
            latency_s=latency_s, queue_s=queue_s, batch_size=batch_size,
            ok=ok, label=label, rows=rows,
        )
        self.requests.append(record)
        return record

    def record_health(
        self,
        replica: int | None,
        action: str,
        seconds: float = 0.0,
        discrepancy: float | None = None,
        recovered_discrepancy: float | None = None,
        defects: dict | None = None,
        lane: str = "",
    ) -> HealthEvent:
        event = HealthEvent(
            replica=replica,
            action=action,
            seconds=seconds,
            discrepancy=discrepancy,
            recovered_discrepancy=recovered_discrepancy,
            defects=dict(defects) if defects else {},
            lane=lane,
        )
        self.health_events.append(event)
        return event

    def report_progress(self, label: str, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(label, done, total)

    @contextlib.contextmanager
    def time_experiment(self, name: str) -> Iterator[ExperimentRecord]:
        """Time a section; the yielded record is appended on exit."""
        record = ExperimentRecord(
            name=name, seconds=0.0, cache_hit=False
        )
        t0 = time.perf_counter()
        try:
            yield record
        finally:
            record.seconds = time.perf_counter() - t0
            self.experiments.append(record)

    # -- aggregates ----------------------------------------------------
    @property
    def recomputed_experiments(self) -> int:
        """Sections actually executed (the cache-hit ones excluded)."""
        return sum(1 for r in self.experiments if not r.cache_hit)

    @property
    def cached_experiments(self) -> int:
        return sum(1 for r in self.experiments if r.cache_hit)

    @property
    def total_trials(self) -> int:
        return sum(b.trials for b in self.batches)

    @property
    def dropped_requests(self) -> int:
        """Query rows dropped instead of answered."""
        return sum(r.rows for r in self.requests if not r.ok)

    def serve_summary(self) -> dict:
        """Aggregate serving telemetry (latency, drops, health), in rows."""
        summary = _row_summary(self.requests)
        answered = [r for r in self.requests if r.ok]
        summary["mean_batch_size"] = (
            sum(r.batch_size * r.rows for r in answered)
            / summary["answered"]
            if answered else 0.0
        )
        summary["health_events"] = len(self.health_events)
        summary["repairs"] = sum(
            1 for e in self.health_events
            if e.action in ("remap", "restore")
        )
        summary.update(_row_percentiles(answered))
        return summary

    def label_summary(self) -> dict[str, dict]:
        """Per-label (per fleet replica lane) request breakdown, in rows.

        Labels sort lexicographically so the summary is deterministic
        for a fixed request history.
        """
        by_label: dict[str, list[RequestRecord]] = {}
        for record in self.requests:
            if record.label:
                by_label.setdefault(record.label, []).append(record)
        return {
            label: _row_summary(by_label[label]) for label in sorted(by_label)
        }

    # -- rendering -----------------------------------------------------
    def render_summary(self) -> str:
        """Deterministic run-log section (no wall times).

        Safe to embed in the report body: for a fixed cache state the
        text depends only on what ran and what the cache served, never
        on how fast it ran or how many workers ran it.
        """
        lines = []
        for r in self.experiments:
            status = "cached" if r.cache_hit else "computed"
            key = f"  key={r.cache_key[:12]}" if r.cache_key else ""
            lines.append(f"{r.name:<8s} {status:<8s}{key}")
        lines.append(
            f"({len(self.experiments)} experiments: "
            f"{self.recomputed_experiments} computed, "
            f"{self.cached_experiments} cached)"
        )
        return "\n".join(lines)

    def render_timing(self) -> str:
        """Wall-time view for stderr (not embedded in the report)."""
        lines = []
        for r in self.experiments:
            status = "cached" if r.cache_hit else "computed"
            lines.append(f"{r.name:<8s} {r.seconds:8.2f}s  {status}")
        for b in self.batches:
            rate = (
                f"{b.trials_per_second:9.1f} trials/s"
                if b.trials else "    (cache)"
            )
            lines.append(
                f"  mc {b.label:<24s} {b.trials:6d} trials "
                f"{b.seconds:8.2f}s  jobs={b.jobs} "
                f"kernel={b.kernel} {rate}"
            )
        total = sum(r.seconds for r in self.experiments)
        lines.append(
            f"total {total:.2f}s over {len(self.experiments)} experiments, "
            f"{self.total_trials} Monte-Carlo trials"
        )
        if self.requests:
            s = self.serve_summary()
            lines.append(
                f"serve {s['answered']}/{s['requests']} answered "
                f"({s['dropped']} dropped), "
                f"p50 {s['p50'] * 1e3:.2f}ms p95 {s['p95'] * 1e3:.2f}ms "
                f"p99 {s['p99'] * 1e3:.2f}ms, "
                f"{s['health_events']} health events "
                f"({s['repairs']} repairs)"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        """Structured run log (one JSON document)."""
        return json.dumps(
            {
                "experiments": [
                    dataclasses.asdict(r) for r in self.experiments
                ],
                "batches": [dataclasses.asdict(b) for b in self.batches],
                "health_events": [
                    dataclasses.asdict(e) for e in self.health_events
                ],
                "recomputed_experiments": self.recomputed_experiments,
                "cached_experiments": self.cached_experiments,
                "total_trials": self.total_trials,
                "serve": self.serve_summary() if self.requests else None,
            },
            indent=2,
            sort_keys=True,
        )


def _row_summary(records: list[RequestRecord]) -> dict:
    """Requests, answers and drops counted in rows; row-mean latency."""
    requests = answered = 0
    latency = 0.0
    for r in records:
        requests += r.rows
        if r.ok:
            answered += r.rows
            latency += r.latency_s * r.rows
    return {
        "requests": requests,
        "answered": answered,
        "dropped": requests - answered,
        "mean_latency_s": latency / answered if answered else 0.0,
    }


def _row_percentiles(answered: list[RequestRecord]) -> dict[str, float]:
    """Nearest-rank p50/p95/p99 latency, each record weighted by its rows."""
    ranked = sorted((r.latency_s, r.rows) for r in answered)
    if not ranked:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    cumulative = list(itertools.accumulate(rows for _, rows in ranked))
    return {
        f"p{q}": ranked[bisect.bisect_left(
            cumulative, max(1, math.ceil(q / 100.0 * cumulative[-1]))
        )][0]
        for q in (50, 95, 99)
    }


_CURRENT: contextvars.ContextVar[RunLog | None] = contextvars.ContextVar(
    "repro_run_log", default=None
)


def current_run_log() -> RunLog | None:
    """The ambient :class:`RunLog`, or ``None`` when not observing."""
    return _CURRENT.get()


def resolve_run_log(log: RunLog | None) -> RunLog:
    """``log`` itself, else the ambient run log, else a private one."""
    if log is not None:
        return log
    ambient = _CURRENT.get()
    return ambient if ambient is not None else RunLog()


@contextlib.contextmanager
def use_run_log(log: RunLog) -> Iterator[RunLog]:
    """Install ``log`` as the ambient run log for a ``with`` block."""
    token = _CURRENT.set(log)
    try:
        yield log
    finally:
        _CURRENT.reset(token)
