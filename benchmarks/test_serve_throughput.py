"""Serving throughput: batched reads vs sequential single-query reads.

Times the same 64-query workload against a programmed nodal-mode
crossbar three ways -- naive sequential (a fresh network, factorised
per query, the pre-serving status quo), cached sequential (one cached
transfer matrix shared across single-vector reads) and batched (one
read of the whole workload through it) -- asserts all three agree
bit-for-bit, that they match the per-input splu oracle, and that the
batched path clears the 5x contract over the naive sequential path.
Then pushes 200 queries through the full scheduler and records tail
latency and drop counts.  Everything lands in ``BENCH_serve.json``,
appended as a trajectory across revisions.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.config import CrossbarConfig, VariationConfig
from repro.runtime.telemetry import RunLog
from repro.serve.engine import InferenceEngine
from repro.serve.scheduler import BatchScheduler
from repro.xbar.crossbar import Crossbar
from repro.xbar.nodal import CrossbarNetwork

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


class SingleArrayTarget:
    """Adapts a bare :class:`Crossbar` to the engine's matvec contract."""

    def __init__(self, xbar: Crossbar):
        self.xbar = xbar

    @property
    def shape(self) -> tuple[int, int]:
        return self.xbar.shape

    def matvec(self, x: np.ndarray, ir_mode: str = "ideal") -> np.ndarray:
        return self.xbar.read(x, ir_mode)

ROWS, COLS = 96, 10
N_QUERIES = 64
SMOKE_QUERIES = 200
SEED = 42


def make_programmed_crossbar() -> Crossbar:
    xbar = Crossbar(
        config=CrossbarConfig(rows=ROWS, cols=COLS, r_wire=2.5),
        variation=VariationConfig(sigma=0.3),
        rng=np.random.default_rng(SEED),
    )
    rng = np.random.default_rng(SEED + 1)
    d = xbar.device
    xbar.program(
        rng.uniform(d.g_off, d.g_on, size=(ROWS, COLS)),
        with_cycle_noise=False,
    )
    return xbar


def test_serve_throughput():
    xbar = make_programmed_crossbar()
    queries = np.random.default_rng(SEED + 2).uniform(
        0.0, 1.0, size=(N_QUERIES, ROWS)
    )

    # Naive sequential: what a caller paid before the serving layer --
    # assemble and factorise the nodal network for every single query.
    g = xbar.conductance
    t0 = time.perf_counter()
    naive = np.stack([
        CrossbarNetwork(g, xbar.config.r_wire).read_batch(
            q, xbar.config.v_read
        )
        for q in queries
    ])
    naive_s = time.perf_counter() - t0
    # The per-input splu solve stays the oracle for every read path.
    oracle_net = CrossbarNetwork(g, xbar.config.r_wire)
    oracle = np.stack([oracle_net.read(q, xbar.config.v_read) for q in queries])
    oracle_error = np.abs(naive - oracle).max() / np.abs(oracle).max()
    assert oracle_error <= 1e-12, oracle_error

    # Cached sequential: single-vector reads sharing one transfer matrix.
    xbar.read(queries[0], "nodal")  # warm the cache
    t0 = time.perf_counter()
    cached = np.stack([xbar.read(q, "nodal") for q in queries])
    cached_s = time.perf_counter() - t0

    # Batched: one read of the whole workload.
    t0 = time.perf_counter()
    batched = xbar.read(queries, "nodal")
    batched_s = time.perf_counter() - t0

    # Bit-identical across all three paths, and fast.
    assert np.allclose(naive, cached, rtol=0, atol=1e-18)
    assert np.array_equal(cached, batched)
    speedup_naive = naive_s / batched_s
    speedup_cached = cached_s / batched_s
    assert speedup_naive >= 5.0, (
        f"batched read only {speedup_naive:.1f}x faster than naive "
        f"sequential (contract: >= 5x)"
    )

    # Scheduler smoke: 200 queries through the full serving stack.
    log = RunLog()
    engine = InferenceEngine(
        SingleArrayTarget(xbar), ir_mode="nodal", microbatch=64
    )
    smoke = np.random.default_rng(SEED + 3).uniform(
        0.0, 1.0, size=(SMOKE_QUERIES, ROWS)
    )
    t0 = time.perf_counter()
    with BatchScheduler(
        engine, max_batch=64, max_queue=SMOKE_QUERIES, log=log
    ) as scheduler:
        futures = [scheduler.submit(q) for q in smoke]
        for future in futures:
            future.result(timeout=60.0)
    smoke_s = time.perf_counter() - t0
    summary = log.serve_summary()
    assert summary["answered"] == SMOKE_QUERIES
    assert summary["dropped"] == 0
    assert summary["p99"] < 5.0  # seconds; generous CI headroom

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "rows": ROWS,
        "cols": COLS,
        "queries": N_QUERIES,
        "cpu_count": os.cpu_count(),
        "naive_sequential_s": round(naive_s, 4),
        "cached_sequential_s": round(cached_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup_vs_naive": round(speedup_naive, 2),
        "speedup_vs_cached": round(speedup_cached, 2),
        "scheduler": {
            "queries": SMOKE_QUERIES,
            "wall_s": round(smoke_s, 4),
            "throughput_qps": round(SMOKE_QUERIES / smoke_s, 1),
            "mean_batch_size": round(summary["mean_batch_size"], 2),
            "p50_ms": round(summary["p50"] * 1e3, 3),
            "p95_ms": round(summary["p95"] * 1e3, 3),
            "p99_ms": round(summary["p99"] * 1e3, 3),
            "dropped": summary["dropped"],
        },
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
    print("=== serving throughput (nodal reads, 96x10 crossbar) ===")
    print(f"naive sequential  {naive_s:8.3f}s")
    print(f"cached sequential {cached_s:8.3f}s")
    print(f"batched           {batched_s:8.3f}s "
          f"({speedup_naive:.1f}x vs naive, "
          f"{speedup_cached:.1f}x vs cached)")
    print(f"scheduler         {SMOKE_QUERIES} queries in {smoke_s:.3f}s, "
          f"p99 {entry['scheduler']['p99_ms']}ms, 0 dropped")
    print(f"trajectory        {BENCH_PATH}")
