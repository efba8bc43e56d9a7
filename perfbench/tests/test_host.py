"""Timings scale by the host clock's samples, averaged over each interval."""

import os
import time

import numpy as np
import pytest

from perfbench.host import NOMINAL_CHUNK_MS, HostClock, Sidecar
from perfbench.workloads import Outcome


def clock_with(times, chunks) -> HostClock:
    clock = HostClock()
    clock.add(times, chunks)
    return clock


def test_factors_interpolate_between_samples_and_hold_at_the_ends():
    nominal = NOMINAL_CHUNK_MS
    clock = clock_with([10.0, 20.0], [nominal, 2 * nominal])
    points = [(t, t) for t in (10.0, 15.0, 20.0)]
    assert clock.factors(points) == pytest.approx([1.0, 1 / 1.5, 0.5])
    assert clock.factors([(0.0, 0.0), (99.0, 99.0)]) == pytest.approx(
        [1.0, 0.5]
    )


def test_a_long_interval_averages_the_samples_inside_it():
    nominal = NOMINAL_CHUNK_MS
    clock = clock_with([0.0, 1.0, 2.0, 3.0], [nominal, 3 * nominal] * 2)
    # The loop time rises and falls linearly: its mean over [0, 2] is 2x.
    assert clock.factors([(0.0, 2.0)]) == pytest.approx([0.5])
    assert clock.scaled_s([(0.0, 2.0), (3.0, 3.5)]) == pytest.approx(
        2.0 * 0.5 + 0.5 / 3
    )


def test_a_host_twice_as_slow_reads_the_same_once_scaled():
    fast, slow = Outcome(), Outcome()
    for i in range(10):
        for out, seconds in ((fast, 0.1), (slow, 0.2)):
            out.latency(i, i + seconds)
            out.timed(i, i + seconds)
    nominal = clock_with([0.0], [NOMINAL_CHUNK_MS])
    halved = clock_with([0.0], [2 * NOMINAL_CHUNK_MS])
    assert slow.busy_s == pytest.approx(2.0)
    assert halved.scaled_s(slow.busy) == pytest.approx(1.0)
    assert nominal.scaled_s(fast.busy) == pytest.approx(1.0)
    scaled = np.asarray(slow.latencies) * halved.factors(slow.intervals)
    assert scaled == pytest.approx(fast.latencies)


def test_a_clock_without_samples_refuses_to_scale():
    with pytest.raises(ValueError):
        HostClock().factors([(0.0, 1.0)])


def test_tick_samples_at_most_once_per_interval():
    clock = HostClock(every=60.0, span=0.001)
    clock.tick()
    clock.tick()
    assert len(clock.chunks) == 1 and np.isfinite(clock.chunks[0])


def test_the_sidecar_samples_in_order_and_is_stopped():
    clock = clock_with([0.0], [NOMINAL_CHUNK_MS])
    with Sidecar(clock, cpu=min(os.sched_getaffinity(0)), every=0.05) as car:
        time.sleep(1.0)
    assert car.proc.returncode is not None
    assert len(clock.chunks) > 3
    assert clock.times == sorted(clock.times)
    assert all(c > 0 for c in clock.chunks)


def test_collector_pauses_inside_an_interval_keep_their_length():
    clock = clock_with([0.0], [2 * NOMINAL_CHUNK_MS])  # factor 0.5
    pauses = [(1.0, 1.5), (3.0, 4.0)]
    got = clock.scaled([(0.0, 2.0), (1.2, 3.5), (5.0, 6.0)], pauses)
    assert got == pytest.approx([0.5 + 1.5 * 0.5, 0.8 + 1.5 * 0.5, 0.5])
    assert clock.scaled_s([(0.0, 2.0)]) == pytest.approx(1.0)
