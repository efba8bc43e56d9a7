"""The host's speed, sampled through a run, to scale timings by.

The benchmark shares its CPUs with other tenants of the machine, and
their load changes how fast the same code runs by up to a factor of two
over minutes: a fixed pure-Python loop took 2.5 ms in one 20-second
stretch and 4.8 ms three minutes later.  Runs of unchanged code then
differ by more than any useful regression bound.

A :class:`HostClock` times that fixed loop (code of this package only,
so no change to the program can move it) on the CPU the workload runs
on, in one of two ways:

* between the workload's calls, while nothing of the program runs, for
  a few tens of milliseconds every half second (:meth:`HostClock.tick`);
* for calls that last seconds, from a :class:`Sidecar` process pinned
  to the same CPU, which wakes every quarter second and times one loop
  chunk in its own CPU time, so that the time-slices it waits for the
  workload do not count.

Each timed interval is then scaled by ``NOMINAL_CHUNK_MS`` over the
loop time averaged over the interval: the end-to-end timings read as
they would on a host where one loop chunk takes ``NOMINAL_CHUNK_MS``.
Garbage-collector pauses inside an interval keep their length: a pause
chases pointers through memory, whose speed the host's load barely
moves (in ten ``fleet-ideal`` runs whose loop time ranged from 1.26 to
1.99 ms, the 99th-percentile latency, a full-collection pause, ranged
from 61 to 75 ms unscaled).  The unscaled figures and a summary of the
samples are printed in the run envelope.

Run as a script, this module is the sidecar:
``python3 perfbench/host.py --sidecar CPU EVERY``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

__all__ = ["NOMINAL_CHUNK_MS", "HostClock", "Sidecar", "chunk_ms"]

CHUNK = 20_000
# The scale's reference point; only ratios between runs matter, so it
# is a round figure near the loop time on a quiet 2.1 GHz Xeon vCPU.
NOMINAL_CHUNK_MS = 2.0


def chunk_ms(clock=time.perf_counter) -> float:
    """Milliseconds one fixed chunk of pure-Python arithmetic takes."""
    t0 = clock()
    acc = 0
    for i in range(CHUNK):
        acc += i * i % 7
    return (clock() - t0) * 1e3


class HostClock:
    """Samples the loop time during a run and scales timings by it.

    Args:
        every: Seconds between samples taken by :meth:`tick`.
        span: Seconds of loop chunks per sample; the sample is their
            median.
    """

    def __init__(self, every: float = 0.5, span: float = 0.04):
        self.every = every
        self.span = span
        self.times: list[float] = []
        self.chunks: list[float] = []

    def sample(self, span: float | None = None) -> float:
        """Take one sample of ``span`` seconds (default: the clock's)
        now; returns its loop time in ms."""
        span = self.span if span is None else span
        t0 = time.perf_counter()
        values = [chunk_ms()]
        while time.perf_counter() - t0 < span:
            values.append(chunk_ms())
        self.add([(t0 + time.perf_counter()) / 2], [statistics.median(values)])
        return self.chunks[-1]

    def tick(self) -> None:
        """Sample if the last sample is older than ``every`` seconds.

        Called between a workload's calls, with nothing in flight.
        """
        if not self.times or time.perf_counter() - self.times[-1] >= self.every:
            self.sample()

    def add(self, times, chunks) -> None:
        """Merge samples taken elsewhere, keeping them in time order."""
        merged = sorted(zip([*self.times, *times], [*self.chunks, *chunks]))
        self.times = [t for t, _ in merged]
        self.chunks = [c for _, c in merged]

    def factors(self, intervals) -> np.ndarray:
        """Scale factors for operations spanning ``(t0, t1)`` intervals.

        The loop time is interpolated linearly between samples (held
        flat before the first and after the last) and averaged over
        each interval.
        """
        if not self.times:
            raise ValueError("the host clock took no sample")
        times = np.asarray(self.times)
        chunks = np.asarray(self.chunks)
        out = np.empty(len(intervals))
        for k, (t0, t1) in enumerate(intervals):
            lo, hi = np.searchsorted(times, [t0, t1], side="right")
            if hi == lo:  # no sample inside: the line is straight
                out[k] = np.interp((t0 + t1) / 2, times, chunks)
                continue
            grid = np.concatenate(([t0], times[lo:hi], [t1]))
            values = np.interp(grid, times, chunks)
            out[k] = np.trapezoid(values, grid) / (t1 - t0)
        return NOMINAL_CHUNK_MS / out

    def scaled(self, intervals, held=()) -> np.ndarray:
        """Scaled lengths of ``(t0, t1)`` intervals.

        The parts of each interval that fall inside one of the ``held``
        intervals (sorted, disjoint: collector pauses) keep their
        length; the rest is scaled.
        """
        bounds = np.asarray(intervals, dtype=float).reshape(-1, 2)
        kept = _covered(held, bounds[:, 1]) - _covered(held, bounds[:, 0])
        rest = bounds[:, 1] - bounds[:, 0] - kept
        return kept + rest * self.factors(intervals)

    def scaled_s(self, intervals, held=()) -> float:
        """Total scaled length of ``(t0, t1)`` intervals."""
        return float(np.sum(self.scaled(intervals, held)))

    def summary(self) -> dict:
        return {
            "samples": len(self.chunks),
            "chunk_ms_median": statistics.median(self.chunks),
            "chunk_ms_min": min(self.chunks),
            "chunk_ms_max": max(self.chunks),
        }


def _covered(held, t: np.ndarray) -> np.ndarray:
    """Time covered by the sorted, disjoint ``held`` intervals up to
    each time in ``t``."""
    if not len(held):
        return np.zeros_like(t)
    starts, ends = np.asarray(held, dtype=float).T
    done = np.concatenate(([0.0], np.cumsum(ends - starts)))
    k = np.searchsorted(starts, t, side="right")  # intervals begun by t
    last_end = ends[np.maximum(k - 1, 0)]
    open_part = np.where((k > 0) & (t < last_end), last_end - t, 0.0)
    return done[k] - open_part


class Sidecar:
    """A process that samples the loop time on one CPU into a clock.

    While the context is open, the process sleeps ``every`` seconds,
    then times one chunk in its own CPU time and reports it.  On exit
    it is stopped and waited for, and its samples are added to
    ``clock``.
    """

    def __init__(self, clock: HostClock, cpu: int, every: float = 0.25):
        self.clock = clock
        self.args = [
            sys.executable, os.path.abspath(__file__), "--sidecar",
            str(cpu), str(every),
        ]
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> "Sidecar":
        self.proc = subprocess.Popen(
            self.args, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        out, _ = self.proc.communicate(timeout=30)
        times, chunks = [], []
        for line in out.splitlines():
            # Each line is one pipe write, whole even if the process
            # was stopped right after it.
            t, chunk = line.split()
            times.append(float(t))
            chunks.append(float(chunk))
        self.clock.add(times, chunks)


def _sidecar(cpu: int, every: float) -> None:
    os.sched_setaffinity(0, [cpu])
    parent = os.getppid()
    while os.getppid() == parent:  # outlive no runner, however it ended
        time.sleep(every)
        t0 = time.perf_counter()
        cpu_ms = chunk_ms(time.thread_time)
        print(f"{(t0 + time.perf_counter()) / 2!r} {cpu_ms!r}", flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] != ["--sidecar"]:
        sys.exit("usage: host.py --sidecar CPU EVERY")
    _sidecar(int(sys.argv[2]), float(sys.argv[3]))
