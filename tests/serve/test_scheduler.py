"""Scheduler behaviour: batching, backpressure, deadlines, shutdown."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.runtime.telemetry import RunLog
from repro.serve.scheduler import (
    BatchScheduler,
    DeadlineExceededError,
    ReplicaDeadError,
    ServeOverloadedError,
)


class FakeEngine:
    """Deterministic stand-in engine: scores = inputs summed per row."""

    def __init__(self, delay_s: float = 0.0, gate: threading.Event | None = None):
        self.delay_s = delay_s
        self.gate = gate
        self.entered = threading.Event()
        self.batch_sizes: list[int] = []

    @property
    def n_features(self) -> int:
        return 4

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.entered.set()
        if self.gate is not None:
            self.gate.wait(timeout=5.0)
        if self.delay_s:
            time.sleep(self.delay_s)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self.batch_sizes.append(x.shape[0])
        return np.stack([x.sum(axis=1), -x.sum(axis=1)], axis=1)


class TestScheduling:
    def test_results_match_direct_forward(self):
        engine = FakeEngine()
        log = RunLog()
        rng = np.random.default_rng(0)
        queries = rng.uniform(size=(20, 4))
        with BatchScheduler(engine, max_batch=8, log=log) as sched:
            futures = [sched.submit(q) for q in queries]
            results = np.stack([f.result(timeout=5.0) for f in futures])
        direct = np.stack([FakeEngine().forward(q)[0] for q in queries])
        assert np.array_equal(results, direct)
        assert len(log.requests) == 20
        assert log.dropped_requests == 0

    def test_requests_coalesce_into_batches(self):
        gate = threading.Event()
        engine = FakeEngine(gate=gate)
        with BatchScheduler(engine, max_batch=16, max_queue=64) as sched:
            futures = [sched.submit(np.ones(4)) for _ in range(12)]
            gate.set()
            for f in futures:
                f.result(timeout=5.0)
        # The gate held the worker on the first request, so the other
        # 11 piled up and were served in (at most) a couple of batches.
        assert max(engine.batch_sizes) > 1

    @pytest.mark.parametrize(
        "shape", [(5,), (3,), (1, 5), (2, 3), (1, 1, 4), (0, 4), ()],
        ids=[
            "wide", "narrow", "wide-block", "narrow-block", "3-d",
            "empty-block", "scalar",
        ],
    )
    def test_wrong_width_query_rejected_alone(self, shape):
        # Every request of a batch is stacked into one read, so a
        # query or block of the wrong shape must be refused at submit,
        # not fail the valid queries it would have been batched with.
        gate = threading.Event()
        engine = FakeEngine(gate=gate)
        with BatchScheduler(engine, max_batch=8) as sched:
            held = sched.submit(np.ones(4))
            assert engine.entered.wait(timeout=5.0)
            valid = [sched.submit(np.full(4, float(i))) for i in range(3)]
            with pytest.raises(ValueError, match="shape"):
                sched.submit(np.ones(shape))
            gate.set()
            results = [f.result(timeout=5.0) for f in [held, *valid]]
        assert [float(r[0]) for r in results] == [4.0, 0.0, 4.0, 8.0]
        assert engine.batch_sizes == [1, 3]

    def test_blocks_answer_like_their_rows(self):
        engine = FakeEngine()
        log = RunLog()
        rng = np.random.default_rng(1)
        blocks = [rng.uniform(size=(k, 4)) for k in (1, 3, 5, 2)]
        with BatchScheduler(engine, max_batch=8, log=log) as sched:
            futures = [sched.submit(b) for b in blocks]
            single = sched.submit(blocks[1][0])
            results = [f.result(timeout=5.0) for f in futures]
            assert np.array_equal(
                single.result(timeout=5.0), results[1][0]
            )
        for block, got in zip(blocks, results):
            assert got.shape == (len(block), 2)
            assert np.array_equal(got, FakeEngine().forward(block))
        # One record per request, counted in rows by the summaries.
        assert [r.rows for r in log.requests] == [1, 3, 5, 2, 1]
        summary = log.serve_summary()
        assert (summary["requests"], summary["answered"]) == (12, 12)

    def test_packs_whole_requests_up_to_max_batch_rows(self):
        gate = threading.Event()
        engine = FakeEngine(gate=gate)
        with BatchScheduler(engine, max_batch=8, max_queue=64) as sched:
            held = sched.submit(np.ones(4))
            assert engine.entered.wait(timeout=5.0)
            # 3 + 4 rows fit in one read of 8; the next 3 would not and
            # open the next read; 12 rows exceed max_batch and go alone.
            futures = [
                sched.submit(np.ones((k, 4))) for k in (3, 4, 3, 12, 1)
            ]
            gate.set()
            for f in [held, *futures]:
                f.result(timeout=5.0)
        assert engine.batch_sizes == [1, 7, 3, 12, 1]

    def test_full_queue_rejects_with_retry_after(self):
        gate = threading.Event()
        engine = FakeEngine(gate=gate)
        sched = BatchScheduler(engine, max_batch=4, max_queue=2)
        try:
            # At most one request can be in flight (held at the gate)
            # and two queued; seven submissions must overflow.
            with pytest.raises(ServeOverloadedError) as excinfo:
                for _ in range(7):
                    sched.submit(np.ones(4))
            assert excinfo.value.retry_after_s > 0
        finally:
            gate.set()
            sched.shutdown()

    def test_cold_start_overload_respects_retry_floor(self):
        # A queue that fills before the first batch ever completes has
        # no throughput sample; the hint must fall back to the
        # configured floor, never 0.0s.
        gate = threading.Event()
        engine = FakeEngine(gate=gate)
        sched = BatchScheduler(
            engine, max_batch=4, max_queue=2, min_retry_after_s=0.25
        )
        try:
            assert sched._batch_seconds is None  # truly cold
            with pytest.raises(ServeOverloadedError) as excinfo:
                for _ in range(7):
                    sched.submit(np.ones(4))
            assert excinfo.value.retry_after_s >= 0.25
        finally:
            gate.set()
            sched.shutdown()

    def test_warm_overload_hint_never_below_floor(self):
        gate = threading.Event()
        engine = FakeEngine(gate=gate)
        sched = BatchScheduler(
            engine, max_batch=4, max_queue=2, min_retry_after_s=0.5
        )
        try:
            first = sched.submit(np.ones(4))
            assert engine.entered.wait(timeout=5.0)
            gate.set()
            assert first.result(timeout=5.0) is not None
            # The EMA now holds a (tiny) real sample; the floor still
            # bounds the hint from below.
            assert sched._batch_seconds is not None
            gate.clear()
            with pytest.raises(ServeOverloadedError) as excinfo:
                for _ in range(7):
                    sched.submit(np.ones(4))
            assert excinfo.value.retry_after_s >= 0.5
        finally:
            gate.set()
            sched.shutdown()

    def test_retry_floor_validated(self):
        with pytest.raises(ValueError, match="min_retry_after_s"):
            BatchScheduler(FakeEngine(), min_retry_after_s=0.0)

    def test_depth_reports_queue_backlog(self):
        gate = threading.Event()
        engine = FakeEngine(gate=gate)
        sched = BatchScheduler(engine, max_batch=1, max_queue=8)
        try:
            sched.submit(np.ones(4))
            assert engine.entered.wait(timeout=5.0)
            sched.submit(np.ones(4))
            sched.submit(np.ones(4))
            assert sched.depth == 2
        finally:
            gate.set()
            sched.shutdown()

    def test_label_stamped_on_request_records(self):
        log = RunLog()
        with BatchScheduler(
            FakeEngine(), log=log, label="layer3/r1"
        ) as sched:
            sched.predict(np.ones(4), timeout=5.0)
        assert [r.label for r in log.requests] == ["layer3/r1"]
        assert "layer3/r1" in log.label_summary()

    def test_expired_deadline_drops_the_whole_block(self):
        gate = threading.Event()
        engine = FakeEngine(gate=gate)
        log = RunLog()
        sched = BatchScheduler(engine, max_batch=8, log=log)
        blocker = sched.submit(np.ones(4))
        assert engine.entered.wait(timeout=5.0)
        doomed = sched.submit(np.ones((5, 4)), deadline_s=0.01)
        time.sleep(0.05)
        gate.set()
        assert blocker.result(timeout=5.0) is not None
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=5.0)
        sched.shutdown()
        assert engine.batch_sizes == [1]
        assert sched.deadline_misses == 1
        assert log.serve_summary()["dropped"] == 5

    def test_expired_deadline_drops_request(self):
        gate = threading.Event()
        engine = FakeEngine(gate=gate)
        log = RunLog()
        sched = BatchScheduler(engine, max_batch=8, log=log)
        blocker = sched.submit(np.ones(4))
        # Wait until the worker is inside forward() so the doomed
        # request lands in the *next* batch, after its deadline passed.
        assert engine.entered.wait(timeout=5.0)
        doomed = sched.submit(np.ones(4), deadline_s=0.01)
        time.sleep(0.05)
        gate.set()
        assert blocker.result(timeout=5.0) is not None
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=5.0)
        sched.shutdown()
        assert log.dropped_requests == 1
        assert any(not r.ok for r in log.requests)

    def test_deadline_miss_counter_tracks_drops(self):
        gate = threading.Event()
        engine = FakeEngine(gate=gate)
        sched = BatchScheduler(engine, max_batch=8)
        assert sched.deadline_misses == 0
        blocker = sched.submit(np.ones(4))
        assert engine.entered.wait(timeout=5.0)
        doomed = [
            sched.submit(np.ones(4), deadline_s=0.01) for _ in range(3)
        ]
        time.sleep(0.05)
        gate.set()
        assert blocker.result(timeout=5.0) is not None
        for future in doomed:
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=5.0)
        sched.shutdown()
        assert sched.deadline_misses == 3

    def test_graceful_shutdown_answers_queued_requests(self):
        gate = threading.Event()
        engine = FakeEngine(gate=gate)
        sched = BatchScheduler(engine, max_batch=2, max_queue=64)
        futures = [sched.submit(np.ones(4)) for _ in range(10)]
        gate.set()
        sched.shutdown(timeout=5.0)
        assert all(f.result(timeout=0.0) is not None for f in futures)
        with pytest.raises(RuntimeError, match="shut down"):
            sched.submit(np.ones(4))

    def test_concurrent_submit_and_shutdown_strands_no_future(self):
        # Regression: submit() used to check _closed and enqueue in two
        # separate steps, so a request could slip into the queue after
        # shutdown's drain decision and hang forever.  The check+put is
        # now atomic under the state lock: every submit either raises
        # "shut down" or returns a future that resolves.
        for _ in range(5):
            engine = FakeEngine()
            sched = BatchScheduler(engine, max_batch=4, max_queue=64)
            start = threading.Barrier(3)
            futures: list = []
            errors: list = []

            def submitter():
                start.wait(timeout=5.0)
                for _ in range(50):
                    try:
                        futures.append(sched.submit(np.ones(4)))
                    except RuntimeError:
                        errors.append("closed")
                        return

            def closer():
                start.wait(timeout=5.0)
                time.sleep(0.002)
                sched.shutdown(timeout=5.0)

            threads = [
                threading.Thread(target=submitter),
                threading.Thread(target=submitter),
                threading.Thread(target=closer),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
            assert not any(t.is_alive() for t in threads)
            # Every accepted future resolves; none is stranded.
            for f in futures:
                assert f.result(timeout=5.0) is not None

    def test_engine_error_propagates_to_futures(self):
        class BrokenEngine(FakeEngine):
            def forward(self, x):
                raise ValueError("boom")

        with BatchScheduler(BrokenEngine(), max_batch=4) as sched:
            future = sched.submit(np.ones(4))
            with pytest.raises(ValueError, match="boom"):
                future.result(timeout=5.0)

    def test_failed_reads_count_as_dropped_rows(self):
        class FaultyEngine(FakeEngine):
            def forward(self, x):
                raise OSError("sense amplifier fault")

        log = RunLog()
        with BatchScheduler(FaultyEngine(), max_batch=4, log=log) as sched:
            futures = [
                sched.submit(np.ones(4)),
                sched.submit(np.ones((3, 4))),
                sched.submit(np.ones((6, 4))),
            ]
            for future in futures:
                with pytest.raises(OSError, match="sense amplifier"):
                    future.result(timeout=5.0)
            summary = log.serve_summary()
        assert summary["requests"] == summary["dropped"] == 10
        assert summary["answered"] == 0
        assert log.dropped_requests == 10

    def test_hook_failure_counts_queued_rows_as_dropped(self):
        gate = threading.Event()
        entered = threading.Event()

        def broken_hook():
            entered.set()
            gate.wait(timeout=5.0)
            raise OSError("probe read fault")

        log = RunLog()
        sched = BatchScheduler(
            FakeEngine(), max_batch=2, log=log, on_batch=broken_hook
        )
        try:
            first = sched.submit(np.ones(4))
            assert entered.wait(timeout=5.0)
            queued = [sched.submit(np.ones((k, 4))) for k in (1, 2, 5)]
            gate.set()
            assert first.result(timeout=5.0) is not None
            for future in queued:
                with pytest.raises(OSError, match="probe read fault"):
                    future.result(timeout=5.0)
        finally:
            gate.set()
            sched.shutdown(timeout=5.0)
        summary = log.serve_summary()
        assert (summary["answered"], summary["dropped"]) == (1, 8)

    def test_hand_back_is_not_a_drop(self):
        # A ReplicaDeadError hands the request back for a replay on a
        # sibling; the replay is recorded where it is served.
        class DeadEngine(FakeEngine):
            def forward(self, x):
                raise ReplicaDeadError("replica is dead")

        log = RunLog()
        with BatchScheduler(DeadEngine(), log=log) as sched:
            future = sched.submit(np.ones((2, 4)))
            with pytest.raises(ReplicaDeadError):
                future.result(timeout=5.0)
        assert log.requests == []

    def test_on_batch_hook_runs_after_each_batch(self):
        calls: list[int] = []
        engine = FakeEngine()
        sched = BatchScheduler(
            engine, max_batch=4, on_batch=lambda: calls.append(1)
        )
        with sched:
            for _ in range(3):
                sched.predict(np.ones(4), timeout=5.0)
        assert len(calls) == sched.batches_served
        assert len(calls) >= 3

    def test_latency_percentiles_recorded(self):
        log = RunLog()
        with BatchScheduler(FakeEngine(), log=log) as sched:
            for _ in range(10):
                sched.predict(np.ones(4), timeout=5.0)
        summary = log.serve_summary()
        assert summary["requests"] == 10
        assert summary["dropped"] == 0
        assert 0 < summary["p50"] <= summary["p99"]
