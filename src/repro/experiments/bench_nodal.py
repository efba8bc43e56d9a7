"""Nodal-solver benchmark: lu vs schur vs cg, plus MC trial throughput.

Two measurements back the solver subsystem of :mod:`repro.xbar.solvers`
(see ``docs/ir_drop.md``):

* **Size sweep** -- one cold read (setup, transfer-matrix build and
  the batched read through it) per solver across square crossbar
  sizes, with the transfer-matrix build timed on its own, every
  non-oracle result checked against the ``lu`` answer and the ``lu``
  answer checked against the per-input splu solve on the spot.  This
  is the serving-shaped cost: a freshly programmed state answering its
  first query batch.
* **Monte-Carlo throughput** -- the Fig. 2 column workload in nodal
  mode: the per-trial baseline builds a fresh sparse LU for every
  variation draw (the pre-subsystem cost), while the trial-stacked
  kernel runs preconditioned CG over the whole stack, factorising the
  *nominal* state exactly once.  The acceptance floor is a >= 3x
  trial-throughput win for the stacked kernel.

Shared by ``repro bench nodal`` (CLI) and
``benchmarks/test_nodal_throughput.py`` (which appends the entries to
the ``BENCH_nodal.json`` trajectory).  Timing is telemetry and never
feeds back into any result; the measured values themselves are
seed-deterministic.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Sequence

import numpy as np

from repro.config import NODAL_SOLVERS, DeviceConfig
from repro.devices.variation import lognormal_multipliers
from repro.runtime import map_trials, map_trials_batched
from repro.xbar.nodal import CrossbarNetwork
from repro.xbar.solvers import CG_CURRENT_RTOL, nodal_read_trial_stack

__all__ = [
    "NodalColumnConfig",
    "run_nodal_bench",
    "solver_size_sweep",
    "nodal_trial_throughput",
]

#: Square geometries of the size sweep (the ISSUE's {64^2, 128^2, 256^2}).
DEFAULT_SIZES = ((64, 64), (128, 128), (256, 256))


@dataclasses.dataclass(frozen=True)
class NodalColumnConfig:
    """The Fig. 2 column workload evaluated with full nodal IR-drop.

    Frozen so it can serve as a cache key (the benchmark itself never
    caches, but the trial kernels follow the experiment conventions).

    Attributes:
        sigma: Persistent lognormal variation level of each draw.
        n_devices: Column height (the paper's Fig. 2 uses 100).
        cols: Bit lines; 1 reproduces the paper's single column.
        r_wire: Wire segment resistance in Ohm.
        v_read: Word-line read voltage.
        target_current: Column training goal at full drive; sets the
            per-device nominal conductance.
    """

    sigma: float = 0.5
    n_devices: int = 100
    cols: int = 1
    r_wire: float = 2.5
    v_read: float = 1.0
    target_current: float = 1e-3

    @property
    def g_target(self) -> float:
        """Nominal per-device conductance hitting the target current."""
        return self.target_current / (self.n_devices * self.v_read)


def _trial_conductance(
    rng: np.random.Generator, cfg: NodalColumnConfig
) -> np.ndarray:
    """One fabrication draw of the column's conductance matrix."""
    device = DeviceConfig()
    mult = lognormal_multipliers(
        rng, cfg.sigma, (cfg.n_devices, cfg.cols)
    )
    return np.clip(cfg.g_target * mult, device.g_off, device.g_on)


def _nodal_column_trial(
    rng: np.random.Generator, cfg: NodalColumnConfig
) -> np.ndarray:
    """Per-trial baseline: fresh sparse LU for every variation draw."""
    g = _trial_conductance(rng, cfg)
    network = CrossbarNetwork(g, cfg.r_wire, solver="lu")
    return network.read(np.ones(cfg.n_devices), cfg.v_read)


def _nodal_column_trial_batch(  # repro-lint: batch-invariant
    rngs: Sequence[np.random.Generator],
    cfg: NodalColumnConfig,
) -> np.ndarray:
    """Trial-stacked kernel: one nominal preconditioner, CG per stack.

    Each trial's conductance draw comes from that trial's own generator
    (same draws as :func:`_nodal_column_trial`), the stack is solved by
    :func:`~repro.xbar.solvers.nodal_read_trial_stack` with the nominal
    (unperturbed) state as the shared preconditioner, so no draw ever
    refactorises.  Accurate to the documented
    :data:`~repro.xbar.solvers.CG_CURRENT_RTOL` against the baseline.
    """
    g_stack = np.stack(
        [_trial_conductance(rng, cfg) for rng in rngs], axis=0
    )
    nominal = np.full((cfg.n_devices, cfg.cols), cfg.g_target)
    x = np.ones((1, cfg.n_devices))
    currents = nodal_read_trial_stack(
        g_stack,
        x,
        cfg.r_wire,
        v_read=cfg.v_read,
        solver="cg",
        precond_g=nominal,
    )
    # (T, 1, cols) -> (T, cols)
    return currents[:, 0, :]


def solver_size_sweep(
    sizes: Sequence[tuple[int, int]] = DEFAULT_SIZES,
    batch: int = 8,
    sigma: float = 0.5,
    r_wire: float = 2.5,
    seed: int = 0,
) -> list[dict]:
    """Cold read wall-clock per solver across crossbar sizes.

    Each entry times a cold ``batch``-wide read per solver on the same
    conductance state: ``seconds`` covers setup, the transfer-matrix
    build and the read through it, and ``transfer_s`` the build alone
    (min(n, m) right-hand sides, factorisation included).  It records
    each non-oracle solver's maximum relative column-current error
    against the ``lu`` answer, and the ``lu`` answer's against the
    per-input splu :meth:`~repro.xbar.nodal.CrossbarNetwork.solve`
    (``rel_error_vs_splu``).
    """
    device = DeviceConfig()
    g_nominal = 1.0 / (10.0 * device.r_on)
    results = []
    for n, m in sizes:
        rng = np.random.default_rng(seed)
        g = np.clip(
            g_nominal * lognormal_multipliers(rng, sigma, (n, m)),
            device.g_off,
            device.g_on,
        )
        x = rng.uniform(size=(batch, n))
        entry: dict = {"n": int(n), "m": int(m), "batch": int(batch)}
        reference = None
        for solver in NODAL_SOLVERS:
            network = CrossbarNetwork(g, r_wire, solver=solver)
            t0 = time.perf_counter()
            network.transfer_matrix()
            t1 = time.perf_counter()
            currents = network.read_batch(x)
            elapsed = time.perf_counter() - t0
            record = {
                "seconds": round(elapsed, 4),
                "transfer_s": round(t1 - t0, 4),
            }
            if solver == "lu":
                reference = currents
                splu = np.stack([network.solve(row).column_current
                                 for row in x])
                record["rel_error_vs_splu"] = float(
                    np.max(np.abs(currents - splu))
                    / np.max(np.abs(splu))
                )
            else:
                scale = float(np.max(np.abs(reference)))
                record["rel_error_vs_lu"] = float(
                    np.max(np.abs(currents - reference)) / scale
                )
            entry[solver] = record
        results.append(entry)
    return results


def nodal_trial_throughput(
    trials: int = 64,
    seed: int = 1234,
    cfg: NodalColumnConfig | None = None,
) -> dict:
    """Fig. 2 column MC throughput: per-trial splu vs stacked CG.

    Returns the wall-clock of both paths, the trial-throughput speedup,
    and the maximum relative disagreement between them (which must stay
    within :data:`~repro.xbar.solvers.CG_CURRENT_RTOL`).
    """
    cfg = cfg if cfg is not None else NodalColumnConfig()
    trial = functools.partial(_nodal_column_trial, cfg=cfg)
    batch_trial = functools.partial(_nodal_column_trial_batch, cfg=cfg)

    t0 = time.perf_counter()
    baseline = map_trials(trial, trials, seed=seed, jobs=1)
    baseline_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    stacked = map_trials_batched(batch_trial, trials, seed=seed, jobs=1)
    stacked_s = time.perf_counter() - t0

    scale = float(np.max(np.abs(baseline)))
    rel_error = float(np.max(np.abs(stacked - baseline)) / scale)
    speedup = baseline_s / stacked_s if stacked_s > 0 else float("inf")
    return {
        "trials": int(trials),
        "seed": int(seed),
        "n_devices": cfg.n_devices,
        "cols": cfg.cols,
        "r_wire": cfg.r_wire,
        "baseline_s": round(baseline_s, 4),
        "stacked_s": round(stacked_s, 4),
        "speedup": round(speedup, 3),
        "baseline_trials_per_s": round(trials / baseline_s, 1),
        "stacked_trials_per_s": round(trials / stacked_s, 1),
        "rel_error": rel_error,
        "rel_error_budget": CG_CURRENT_RTOL,
    }


def run_nodal_bench(
    trials: int = 64,
    sizes: Sequence[tuple[int, int]] = DEFAULT_SIZES,
    seed: int = 1234,
) -> dict:
    """The full nodal benchmark: size sweep + MC trial throughput."""
    return {
        "size_sweep": solver_size_sweep(sizes=sizes),
        "mc_throughput": nodal_trial_throughput(trials=trials, seed=seed),
    }
