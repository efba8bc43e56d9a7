"""Runtime lock-order sanitizer: inversion detection and the env gate."""

import threading

import pytest

from repro.lint.sanitize import (
    LockOrderError,
    SanitizedLock,
    enabled,
    findings,
    make_lock,
    reset,
)


@pytest.fixture(autouse=True)
def _clean_registry():
    reset()
    yield
    reset()


def _run_in_thread(fn, name):
    err = []

    def wrapped():
        try:
            fn()
        except LockOrderError as exc:
            err.append(exc)

    t = threading.Thread(target=wrapped, name=name)
    t.start()
    t.join()
    return err


class TestInversionDetection:
    def test_abba_inversion_is_caught(self):
        a = SanitizedLock("role-a")
        b = SanitizedLock("role-b")
        # Path 1 establishes a -> b.
        with a:
            with b:
                pass
        assert findings() == ()
        # Path 2 attempts b -> a: the classic ABBA deadlock shape,
        # caught deterministically without any unlucky interleaving.
        with pytest.raises(LockOrderError, match="inversion"):
            with b:
                with a:
                    pass
        assert len(findings()) == 1
        assert "role-a" in findings()[0]
        assert "role-b" in findings()[0]

    def test_inversion_across_threads_names_both_threads(self):
        a = SanitizedLock("role-a")
        b = SanitizedLock("role-b")

        def first():
            with a:
                with b:
                    pass

        def second():
            with b:
                with a:
                    pass

        assert _run_in_thread(first, "orderer") == []
        errors = _run_in_thread(second, "inverter")
        assert len(errors) == 1
        assert "orderer" in str(errors[0])
        assert "inverter" in str(errors[0])

    def test_consistent_ordering_is_clean(self):
        a = SanitizedLock("role-a")
        b = SanitizedLock("role-b")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert findings() == ()

    def test_same_role_nesting_is_a_finding(self):
        a = SanitizedLock("shard-state")
        other = SanitizedLock("shard-state")
        with pytest.raises(LockOrderError, match="same-role"):
            with a:
                with other:
                    pass
        assert len(findings()) == 1

    def test_disjoint_holds_do_not_order(self):
        # Sequential (non-nested) use never establishes an edge.
        a = SanitizedLock("role-a")
        b = SanitizedLock("role-b")
        with a:
            pass
        with b:
            pass
        with b:
            with a:
                pass
        assert findings() == ()

    def test_reset_clears_the_order_graph(self):
        a = SanitizedLock("role-a")
        b = SanitizedLock("role-b")
        with a:
            with b:
                pass
        reset()
        with b:
            with a:
                pass
        assert findings() == ()


class TestGate:
    def test_disabled_returns_plain_lock(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not enabled()
        lock = make_lock("anything")
        assert not isinstance(lock, SanitizedLock)
        with lock:
            pass

    def test_enabled_returns_sanitized_lock(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert enabled()
        lock = make_lock("scheduler-state")
        assert isinstance(lock, SanitizedLock)
        assert lock.role == "scheduler-state"
        assert not lock.locked()
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_other_values_keep_it_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not enabled()


class TestServeStackUnderSanitizer:
    def test_scheduler_lifecycle_is_inversion_free(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        import numpy as np

        from repro.serve.scheduler import BatchScheduler

        class Engine:
            n_features = 3

            def forward(self, x):
                x = np.atleast_2d(np.asarray(x, dtype=float))
                return x.sum(axis=1, keepdims=True)

        scheduler = BatchScheduler(Engine(), max_batch=4)
        assert isinstance(scheduler._state, SanitizedLock)
        try:
            futures = [
                scheduler.submit(np.full(3, float(i))) for i in range(8)
            ]
            results = [float(f.result(timeout=5.0)[0]) for f in futures]
            assert results == [3.0 * i for i in range(8)]
        finally:
            scheduler.shutdown(timeout=5.0)
        assert findings() == ()
