"""Serving nodal reads must not leak sparse-LU factors across threads.

SciPy never frees a SuperLU factor that is built on one thread and
released on another.  A served array reads on the scheduler's worker
thread, while drift and repairs change its state from the client
thread, which drops whatever the worker left cached.  Nodal reads
therefore build and drop their factor inside one call.  This test runs
whole service lifecycles in a fresh interpreter and bounds its
resident-set growth.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

CYCLES = 20
WARMUP = 3
GROWTH_LIMIT_MB = 15.0

SCRIPT = f"""
import numpy as np
from repro.devices.retention import RetentionConfig, age_pair
from repro.serve import (
    CrossbarService, DriftPolicy, ProgramConfig, program_array,
)


def rss_mb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0


artifact = program_array(ProgramConfig(
    scheme="vortex", image_size=14, n_train=150, sigma=0.3,
    r_wire=2.5, ir_mode="nodal", seed=0,
))
query = np.random.default_rng(1).random(artifact.n_logical)


def lifecycle(i):
    service = CrossbarService(
        artifact,
        policy=DriftPolicy(threshold=1e9, check_every=10**9),
    )
    service.predict(query, timeout=60.0)  # read on the worker thread
    age_pair(service.pair, 10.0, RetentionConfig(), np.random.default_rng(i))
    service.monitor.check()  # state changed: read on this thread
    service.close()


for i in range({WARMUP}):
    lifecycle(i)
start = rss_mb()
for i in range({CYCLES}):
    lifecycle({WARMUP} + i)
print(rss_mb() - start)
"""


@pytest.mark.skipif(
    not Path("/proc/self/status").exists(),
    reason="needs /proc/self/status for VmRSS",
)
def test_service_lifecycles_hold_steady_rss():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        # One malloc arena and one BLAS thread keep RSS a clean signal.
        MALLOC_ARENA_MAX="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    growth = float(done.stdout.strip().splitlines()[-1])
    assert growth < GROWTH_LIMIT_MB, (
        f"RSS grew {growth:.1f} MB over {CYCLES} service lifecycles"
    )
