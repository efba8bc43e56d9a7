"""Runtime-engine throughput: looped vs parallel vs batched kernels.

Times the same Monte-Carlo column workload (the Fig. 2 trial at a
fixed configuration) through the ``repro.runtime`` executor three
ways -- looped at ``jobs=1``, looped at ``jobs=N``, and through the
trial-batched kernel -- asserts all runs are bit-identical (the
engine's core guarantee), asserts the batched kernel clears a 3x
throughput floor over the looped path, and appends the measurements to
a ``BENCH_runtime.json`` trajectory artifact so both speedups can be
tracked across revisions.  Skipped when the platform cannot start
worker processes; the parallel-speedup check (and only it) is skipped
on single-CPU hosts, where fan-out cannot win.
"""

from __future__ import annotations

import concurrent.futures
import functools
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.fig2_column import (
    ColumnTrialConfig,
    _column_trial,
    _column_trial_batch,
)
from repro.runtime import map_trials, map_trials_batched

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"

TRIALS = 96
SEED = 1234
# The vectorised kernel must clear this throughput multiple over the
# looped path -- pure vectorisation, no parallelism, so the floor holds
# on any host.
BATCHED_SPEEDUP_FLOOR = 3.0


def _parallel_jobs() -> int:
    return min(4, os.cpu_count() or 1)


def _workers_available() -> bool:
    """Whether worker processes can actually start on this platform."""
    try:
        with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(int, 1).result(timeout=60) == 1
    except Exception:
        return False


def _timed(mapper, fn, jobs: int) -> tuple[float, np.ndarray]:
    t0 = time.perf_counter()
    values = mapper(fn, TRIALS, seed=SEED, jobs=jobs)
    return time.perf_counter() - t0, values


def test_runtime_throughput():
    if not _workers_available():
        pytest.skip("worker processes unavailable on this platform")

    cfg = ColumnTrialConfig(
        sigma=0.5, n_devices=100, target_current=1e-3, v_read=1.0,
        adc_bits=6, cld_iterations=60,
    )
    trial = functools.partial(_column_trial, cfg=cfg)
    batch_trial = functools.partial(_column_trial_batch, cfg=cfg)
    jobs = _parallel_jobs()

    serial_s, serial_values = _timed(map_trials, trial, 1)
    parallel_s, parallel_values = _timed(map_trials, trial, jobs)
    batched_s, batched_values = _timed(map_trials_batched, batch_trial, 1)

    # The engine's contract: neither the worker count nor the kernel
    # ever changes a value.
    assert np.array_equal(serial_values, parallel_values)
    assert np.array_equal(serial_values, batched_values)

    # Vectorisation floor: the batched kernel amortises the per-trial
    # Python overhead regardless of core count.
    batched_speedup = serial_s / batched_s if batched_s else float("inf")
    assert batched_speedup >= BATCHED_SPEEDUP_FLOOR, (
        f"batched kernel only {batched_speedup:.2f}x over looped; "
        f"floor is {BATCHED_SPEEDUP_FLOOR}x"
    )

    # Parallel speedup needs actual cores; on a single-CPU host the
    # fan-out can only add dispatch overhead, so only the bit-identity
    # above is meaningful there.
    if (os.cpu_count() or 1) > 1:
        assert parallel_s < serial_s, (
            f"jobs={jobs} slower than serial ({parallel_s:.3f}s vs "
            f"{serial_s:.3f}s) on a {os.cpu_count()}-CPU host"
        )

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "trials": TRIALS,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(serial_s / parallel_s, 3) if parallel_s else None,
        "batched_speedup": round(batched_speedup, 3),
        "serial_trials_per_s": round(TRIALS / serial_s, 1),
        "parallel_trials_per_s": round(TRIALS / parallel_s, 1),
        "batched_trials_per_s": round(TRIALS / batched_s, 1),
    }
    trajectory = {"runs": []}
    if BENCH_PATH.exists():
        try:
            trajectory = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            pass
    trajectory.setdefault("runs", []).append(entry)
    BENCH_PATH.write_text(
        json.dumps(trajectory, indent=2) + "\n", encoding="utf-8"
    )

    print()
    print("=== runtime throughput (Fig. 2 column workload) ===")
    print(f"trials           {TRIALS}")
    print(f"looped           {serial_s:8.3f}s "
          f"({entry['serial_trials_per_s']} trials/s)")
    print(f"jobs={jobs:<12d} {parallel_s:8.3f}s "
          f"({entry['parallel_trials_per_s']} trials/s)")
    print(f"batched          {batched_s:8.3f}s "
          f"({entry['batched_trials_per_s']} trials/s)")
    print(f"parallel speedup {entry['speedup']}x")
    print(f"batched speedup  {entry['batched_speedup']}x")
    print(f"trajectory       {BENCH_PATH}")
