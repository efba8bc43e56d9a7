"""Monte-Carlo harness for variation studies.

Every robustness number in the paper is a Monte-Carlo average over
fabrication draws (e.g. the 1000-run column study of Fig. 2).  The
harness centralises seeding -- each trial gets an independent child
generator spawned from one seed sequence -- and summary statistics.

Execution is delegated to :mod:`repro.runtime.executor`: trials fan
out over worker processes in deterministic chunks, generators are
spawned lazily per chunk (memory stays flat at large trial counts),
and the worker count can never change a result -- ``jobs=1`` and
``jobs=8`` return bit-identical :class:`MonteCarloSummary` values.
When a ``cache_config`` is supplied and the ambient runtime has a
cache directory, the raw value array is persisted under a stable hash
of (trial config, seed, trial count, package version) and re-runs are
pure reads.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Sequence

import numpy as np

from repro.runtime.cache import get_cache
from repro.runtime.executor import map_trials, map_trials_batched
from repro.runtime.telemetry import current_run_log

__all__ = [
    "MonteCarloSummary",
    "run_monte_carlo",
    "summarize_values",
]


@dataclasses.dataclass(frozen=True)
class MonteCarloSummary:
    """Summary statistics of a Monte-Carlo run.

    Attributes:
        values: Raw per-trial values, shape ``(trials,) + value_shape``.
        mean: Mean over trials.
        std: Standard deviation over trials (ddof=1 when trials > 1).
        percentile_5: 5th percentile over trials.
        percentile_95: 95th percentile over trials.
    """

    values: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    percentile_5: np.ndarray
    percentile_95: np.ndarray

    @property
    def n_trials(self) -> int:
        return self.values.shape[0]


def summarize_values(values: np.ndarray) -> MonteCarloSummary:
    """Build the summary statistics from a stacked value array."""
    trials = values.shape[0]
    ddof = 1 if trials > 1 else 0
    return MonteCarloSummary(
        values=values,
        mean=values.mean(axis=0),
        std=values.std(axis=0, ddof=ddof),
        percentile_5=np.percentile(values, 5, axis=0),
        percentile_95=np.percentile(values, 95, axis=0),
    )


def run_monte_carlo(
    trial: Callable[[np.random.Generator], float | Sequence[float] | np.ndarray],
    trials: int,
    seed: int = 0,
    jobs: int | None = None,
    cache_config: Any = None,
    label: str = "montecarlo",
    batch_trial: Callable[
        [Sequence[np.random.Generator]], np.ndarray
    ] | None = None,
) -> MonteCarloSummary:
    """Run a trial function over independent random draws.

    Args:
        trial: Callable receiving a dedicated generator and returning a
            scalar or array statistic (consistent shape across trials).
            Module-level functions (or ``functools.partial`` of them)
            additionally unlock process-pool fan-out; closures run
            serially.
        trials: Number of independent repetitions (must be >= 1).
        seed: Master seed; the same seed reproduces every trial
            bit-for-bit at any worker count.
        jobs: Worker processes; ``None`` reads the ambient
            :class:`~repro.runtime.config.RuntimeConfig` (serial by
            default), ``0`` means one per CPU.
        cache_config: When given (typically a frozen dataclass fully
            describing the trial), the value array is cached under a
            stable hash of (cache_config, seed, trials, version) in the
            ambient artifact cache, and matching re-runs skip the
            computation entirely.
        label: Telemetry label for the run log.
        batch_trial: Optional vectorised kernel that evaluates a whole
            chunk of per-trial generators at once (see
            :func:`repro.runtime.executor.map_trials_batched`).  It
            must be bit-identical to looping ``trial`` -- same draws
            from the same streams, fixed-accumulation math -- so it is
            purely an execution strategy: the cache key, the summary
            and every value stay exactly those of the looped path.

    Returns:
        A :class:`MonteCarloSummary` of the collected statistics.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    cache = get_cache() if cache_config is not None else None
    key = ""
    if cache is not None:
        key = cache.make_key(
            "montecarlo",
            {"config": cache_config, "seed": seed, "trials": trials},
        )
        t0 = time.perf_counter()
        stored = cache.get_arrays(key)
        if stored is not None:
            log = current_run_log()
            if log is not None:
                log.record_batch(
                    label, 0, time.perf_counter() - t0, 1, cache_hit=True
                )
            return summarize_values(stored["values"])
    if batch_trial is not None:
        values = map_trials_batched(
            batch_trial, trials, seed=seed, jobs=jobs, label=label
        )
    else:
        values = map_trials(trial, trials, seed=seed, jobs=jobs, label=label)
    if cache is not None:
        cache.put_arrays(key, values=values)
    return summarize_values(values)
