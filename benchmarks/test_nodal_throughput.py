"""Nodal solver throughput: lu vs schur vs cg, plus MC trial batching.

Two measurements, appended to a ``BENCH_nodal.json`` trajectory:

1. A solver size sweep -- the same batched read answered through the
   transfer matrix built by sparse LU, the Schur-complement banded
   factorisation, and the preconditioned conjugate-gradient path
   across square geometries -- recording wall-clock, the
   transfer-matrix build time, each fast solver's relative error
   against ``lu``, and ``lu``'s against the per-input splu oracle.
2. Monte-Carlo trial throughput in nodal mode on the Fig. 2 column
   workload: per-trial splu solves through ``map_trials`` versus the
   trial-stacked CG kernel (one nominal-state preconditioner shared by
   the whole chunk) through ``map_trials_batched``.  The stacked kernel
   must clear a 3x throughput floor; the check is skipped on single-CPU
   hosts where timing noise dominates, but accuracy against the
   per-trial oracle is asserted everywhere.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments.bench_nodal import (
    DEFAULT_SIZES,
    NodalColumnConfig,
    nodal_trial_throughput,
    solver_size_sweep,
)
from repro.xbar.solvers import CG_CURRENT_RTOL, SCHUR_RTOL

#: Agreement of the ``lu`` read through the transfer matrix with the
#: per-input splu solve (relative to the largest column current).
TRANSFER_RTOL = 1e-12

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_nodal.json"

TRIALS = 128
SEED = 1234
# The trial-stacked nodal kernel amortises assembly, factorisation, and
# Python dispatch across the chunk; the floor is pure vectorisation, no
# parallelism, but single-CPU CI hosts are too noisy to enforce it.
STACKED_SPEEDUP_FLOOR = 3.0


def _workers_available() -> bool:
    """Whether worker processes can actually start on this platform."""
    try:
        with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(int, 1).result(timeout=60) == 1
    except Exception:
        return False


def test_nodal_throughput():
    if not _workers_available():
        pytest.skip("worker processes unavailable on this platform")

    sweep = solver_size_sweep(DEFAULT_SIZES, seed=SEED)
    throughput = nodal_trial_throughput(
        trials=TRIALS, seed=SEED, cfg=NodalColumnConfig()
    )

    # Accuracy contracts hold at every benchmarked size, not only the
    # geometries the unit tests pick.
    for row in sweep:
        assert row["lu"]["rel_error_vs_splu"] <= TRANSFER_RTOL, row
        assert row["schur"]["rel_error_vs_lu"] <= SCHUR_RTOL, row
        assert row["cg"]["rel_error_vs_lu"] <= CG_CURRENT_RTOL, row
    assert throughput["rel_error"] <= throughput["rel_error_budget"]

    speedup = throughput["speedup"]
    if (os.cpu_count() or 1) > 1:
        assert speedup >= STACKED_SPEEDUP_FLOOR, (
            f"stacked nodal kernel only {speedup:.2f}x over per-trial "
            f"splu; floor is {STACKED_SPEEDUP_FLOOR}x"
        )

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "trials": TRIALS,
        "cpu_count": os.cpu_count(),
        "size_sweep": sweep,
        "mc_throughput": throughput,
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
    print("=== nodal solver size sweep (batched read; T build) ===")
    print(f"{'size':>10} {'lu':>9} {'schur':>9} {'cg':>9} "
          f"{'lu T':>9} {'schur T':>9} {'cg T':>9} "
          f"{'lu err':>10} {'schur err':>10} {'cg err':>10}")
    for row in sweep:
        print(f"{row['n']:>4}x{row['m']:<5} "
              f"{row['lu']['seconds']:>8.3f}s "
              f"{row['schur']['seconds']:>8.3f}s "
              f"{row['cg']['seconds']:>8.3f}s "
              f"{row['lu']['transfer_s']:>8.3f}s "
              f"{row['schur']['transfer_s']:>8.3f}s "
              f"{row['cg']['transfer_s']:>8.3f}s "
              f"{row['lu']['rel_error_vs_splu']:>10.2e} "
              f"{row['schur']['rel_error_vs_lu']:>10.2e} "
              f"{row['cg']['rel_error_vs_lu']:>10.2e}")
    print("=== MC nodal trial throughput (Fig. 2 column workload) ===")
    print(f"trials           {TRIALS}")
    print(f"per-trial splu   {throughput['baseline_s']:8.3f}s "
          f"({throughput['baseline_trials_per_s']} trials/s)")
    print(f"stacked cg       {throughput['stacked_s']:8.3f}s "
          f"({throughput['stacked_trials_per_s']} trials/s)")
    print(f"stacked speedup  {speedup}x")
    print(f"rel error        {throughput['rel_error']:.2e} "
          f"(budget {throughput['rel_error_budget']:.0e})")
    print(f"trajectory       {BENCH_PATH}")
