"""Deterministic parallel execution of Monte-Carlo trials.

The engine fans trials out over a :class:`~concurrent.futures.\
ProcessPoolExecutor` in fixed index chunks while keeping one invariant
absolute: **the worker count can never change a result**.  Trial ``i``
always runs against the generator spawned at position ``i`` of the
master ``SeedSequence`` tree -- the executor constructs it directly as
``SeedSequence(entropy=seed, spawn_key=(i,))``, which NumPy guarantees
equals ``SeedSequence(seed).spawn(n)[i]`` -- and results are
reassembled in index order.  ``jobs=1`` and ``jobs=8`` therefore
produce bit-identical value arrays, and the serial path spawns
generators lazily chunk by chunk, so memory stays flat at large trial
counts.

Three entry points:

* :func:`map_trials` -- the Monte-Carlo primitive: run
  ``trial(rng)`` for ``trials`` independent draws, return the stacked
  value array.
* :func:`map_trials_batched` -- the trial-batched kernel primitive:
  hand a whole chunk's per-trial generators to one vectorised kernel,
  which draws every trial's variations into stacked tensors and
  evaluates the chunk with fixed-accumulation array math.  Because the
  kernel consumes *exactly* the per-trial generator streams of the
  looped path, its values are bit-identical to :func:`map_trials` of
  the equivalent scalar trial at any jobs/chunk-size combination.
* :func:`parallel_map` -- order-preserving map over independent
  *deterministic* tasks (the gamma grid of the self-tuning loop, the
  per-gamma training of the Fig. 4 sweep).

All fall back to in-process execution when the callable cannot be
pickled (e.g. a closure), when only one worker is requested, or when
the platform cannot start worker processes -- parallelism is an
optimisation here, never a requirement.

Looped trials run through the same chunk-kernel path as batched ones:
:func:`map_trials` wraps the scalar trial as a kernel that calls it
once per generator of the chunk.  Chunk results cross process
boundaries as whole ``ndarray`` blocks (one binary pickle per chunk)
and are assembled into a preallocated output array, so the parent
never re-serialises bulk trial values through per-trial Python lists.
"""

from __future__ import annotations

import concurrent.futures
import functools
import pickle
import time
from typing import Any, Callable, Iterable, Sequence, TypeVar

import numpy as np

from repro.runtime.config import resolve_jobs
from repro.runtime.telemetry import current_run_log

__all__ = [
    "trial_seed_sequence",
    "chunk_bounds",
    "map_trials",
    "map_trials_batched",
    "parallel_map",
]

T = TypeVar("T")
R = TypeVar("R")

TrialFn = Callable[[np.random.Generator], Any]
BatchTrialFn = Callable[[Sequence[np.random.Generator]], np.ndarray]

# Upper bound on trials per worker task: small enough for progress
# reporting and load balancing, large enough to amortise dispatch.
_MAX_CHUNK = 64


def trial_seed_sequence(seed: int, index: int) -> np.random.SeedSequence:
    """The seed sequence of trial ``index`` under master ``seed``.

    Identical to ``np.random.SeedSequence(seed).spawn(n)[index]`` for
    any ``n > index``, but O(1): children of a fresh parent carry
    ``spawn_key=(index,)``, so they can be constructed directly without
    materialising the whole spawn tree.  This is what lets workers (and
    the lazy serial path) derive exactly the generators the original
    all-up-front implementation used.
    """
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """The dedicated generator of trial ``index`` under ``seed``."""
    return np.random.default_rng(trial_seed_sequence(seed, index))


def chunk_bounds(
    trials: int, jobs: int, chunk_size: int | None = None
) -> list[tuple[int, int]]:
    """Deterministic ``[start, stop)`` index ranges covering all trials.

    The partition depends only on ``trials`` and the requested chunk
    size -- never on scheduling -- so the same work decomposition is
    replayed on every run.
    """
    if chunk_size is None:
        # A few chunks per worker balances load without tiny tasks.
        chunk_size = max(1, min(_MAX_CHUNK, -(-trials // (jobs * 4))))
    return [
        (start, min(start + chunk_size, trials))
        for start in range(0, trials, chunk_size)
    ]


def _loop_kernel(
    trial: TrialFn, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """A scalar trial as a chunk kernel: one call per generator, stacked."""
    return np.stack([np.asarray(trial(rng), dtype=float) for rng in rngs])


def _run_batch_chunk(
    batch_trial: BatchTrialFn, seed: int, start: int, stop: int
) -> np.ndarray:
    """Run one chunk through a kernel.

    The kernel receives trials ``start..stop``'s child generators in
    index order -- for :func:`map_trials` the scalar trial consumes them
    one by one (:func:`_loop_kernel`), which is the stream identity
    that makes batched results bit-identical to looped ones.
    """
    rngs = [trial_rng(seed, i) for i in range(start, stop)]
    block = np.asarray(batch_trial(rngs), dtype=float)
    if block.ndim < 1 or block.shape[0] != stop - start:
        raise ValueError(
            f"batch kernel returned shape {block.shape} for a chunk of "
            f"{stop - start} trials; expected a leading trial axis"
        )
    return block


def _is_picklable(obj: Any) -> bool:
    try:
        pickle.dumps(obj)
    except Exception:
        return False
    return True


# Item types that are trivially picklable, so :func:`parallel_map` can
# route them to workers without serialising each payload up front (a
# full ``pickle.dumps`` probe of every item copies entire arrays just
# to decide the execution path).
_CHEAP_PICKLABLE_TYPES = (
    type(None), bool, int, float, complex, str, bytes,
    np.integer, np.floating, np.bool_,
)


def _item_is_picklable(item: Any, _depth: int = 0) -> bool:
    """Cheap, conservative picklability check for task items.

    Scalars, strings and numeric arrays are accepted by type alone;
    shallow containers are checked element-wise.  Anything else falls
    back to a real pickle probe -- typically a small config object,
    never a bulk payload.
    """
    if isinstance(item, _CHEAP_PICKLABLE_TYPES):
        return True
    if isinstance(item, np.ndarray):
        return item.dtype != object
    if isinstance(item, (tuple, list, frozenset, set)) and _depth < 2:
        return all(_item_is_picklable(v, _depth + 1) for v in item)
    return _is_picklable(item)


def map_trials(
    trial: TrialFn,
    trials: int,
    seed: int = 0,
    jobs: int | None = None,
    chunk_size: int | None = None,
    label: str = "montecarlo",
) -> np.ndarray:
    """Run ``trial`` over independent draws; stack the per-trial values.

    Args:
        trial: Callable receiving a dedicated generator.  Must be
            picklable (a module-level function or ``functools.partial``
            of one) to actually run in worker processes; closures fall
            back to serial execution.
        trials: Number of independent repetitions (>= 1).
        seed: Master seed of the spawn tree.
        jobs: Worker processes; ``None`` reads the ambient
            :class:`~repro.runtime.config.RuntimeConfig`, ``0`` means
            one per CPU.  Any value yields bit-identical results.
        chunk_size: Trials per worker task; ``None`` auto-sizes.
        label: Telemetry label for the run log.

    Returns:
        Array of shape ``(trials,) + value_shape``.
    """
    return _map_chunked(
        functools.partial(_loop_kernel, trial), trials,
        seed=seed, jobs=jobs, chunk_size=chunk_size, label=label,
        kernel="loop",
    )


def map_trials_batched(
    batch_trial: BatchTrialFn,
    trials: int,
    seed: int = 0,
    jobs: int | None = None,
    chunk_size: int | None = None,
    label: str = "montecarlo",
) -> np.ndarray:
    """Run a vectorised kernel over deterministic chunks of trials.

    The batched counterpart of :func:`map_trials`: instead of one
    callable per draw, ``batch_trial`` receives the *list* of per-trial
    child generators of a whole chunk and returns the stacked block of
    that chunk's values, shape ``(len(rngs),) + value_shape``.  A
    conforming kernel draws each trial's variations from its own
    generator (in the same order the scalar trial would -- e.g. via
    :func:`repro.analysis.lognormal.stacked_standard_thetas`) and then
    evaluates the whole stack with fixed-accumulation array math, so
    its output is bit-identical to looping the scalar trial while the
    per-trial Python overhead is paid once per chunk.

    Args:
        batch_trial: Vectorised kernel ``rngs -> (T, ...)`` block.
            Must be picklable (module-level function or a
            ``functools.partial`` of one) to unlock process fan-out.
        trials: Number of independent repetitions (>= 1).
        seed: Master seed of the spawn tree (same tree as
            :func:`map_trials`).
        jobs: Worker processes; ``None`` reads the ambient config.
        chunk_size: Trials per kernel invocation; ``None`` auto-sizes.
            Any value yields bit-identical results; larger chunks
            amortise more Python overhead at more memory per call.
        label: Telemetry label for the run log.

    Returns:
        Array of shape ``(trials,) + value_shape``.
    """
    return _map_chunked(
        batch_trial, trials,
        seed=seed, jobs=jobs, chunk_size=chunk_size, label=label,
        kernel="batched",
    )


def _map_chunked(
    batch_trial: BatchTrialFn,
    trials: int,
    seed: int,
    jobs: int | None,
    chunk_size: int | None,
    label: str,
    kernel: str,
) -> np.ndarray:
    """Chunked dispatch of a kernel, serial or over worker processes."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    jobs = resolve_jobs(jobs)
    log = current_run_log()
    bounds = chunk_bounds(trials, jobs, chunk_size)

    t0 = time.perf_counter()
    values: np.ndarray | None = None
    if jobs > 1 and trials > 1 and _is_picklable(batch_trial):
        values = _map_chunks_parallel(
            batch_trial, seed, bounds, jobs, label, trials
        )
    if values is None:
        done = 0
        for start, stop in bounds:
            block = _run_batch_chunk(batch_trial, seed, start, stop)
            values = _store_block(values, block, trials, start, stop)
            done += stop - start
            if log is not None:
                log.report_progress(label, done, trials)
    if log is not None:
        log.record_batch(
            label, trials, time.perf_counter() - t0, jobs,
            kernel=kernel,
            chunk_size=bounds[0][1] - bounds[0][0] if bounds else 0,
        )
    return values


def _store_block(
    values: np.ndarray | None,
    block: np.ndarray,
    trials: int,
    start: int,
    stop: int,
) -> np.ndarray:
    """Copy one chunk block into the preallocated result array.

    The output is allocated once, from the first block's value shape,
    and every chunk lands at its trial offset -- no per-trial Python
    list is ever materialised in the parent.
    """
    if values is None:
        values = np.empty((trials,) + block.shape[1:], dtype=block.dtype)
    if block.shape[1:] != values.shape[1:]:
        raise ValueError(
            f"chunk value shape {block.shape[1:]} differs from earlier "
            f"chunks {values.shape[1:]}; trials must return a "
            "consistent shape"
        )
    values[start:stop] = block
    return values


def _map_chunks_parallel(
    batch_trial: BatchTrialFn,
    seed: int,
    bounds: Sequence[tuple[int, int]],
    jobs: int,
    label: str,
    trials: int,
) -> np.ndarray | None:
    """Fan chunks out over worker processes, reassemble in order.

    Returns ``None`` when worker processes cannot start, signalling the
    caller to run the serial path instead.
    """
    log = current_run_log()
    total = bounds[-1][1] if bounds else 0
    values: np.ndarray | None = None
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(bounds))
        ) as pool:
            futures = [
                pool.submit(_run_batch_chunk, batch_trial, seed, start, stop)
                for start, stop in bounds
            ]
            done = 0
            for future, (start, stop) in zip(futures, bounds):
                # Await in submission order: completion order varies
                # run to run, assembly order must not.
                block = future.result()
                values = _store_block(values, block, total, start, stop)
                done += stop - start
                if log is not None:
                    log.report_progress(label, done, total)
            return values
    except (OSError, PermissionError):
        # Platforms without working process pools (e.g. missing
        # /dev/shm semaphores) degrade to the serial path.
        return None


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = None,
    label: str = "tasks",
) -> list[R]:
    """Order-preserving map over independent deterministic tasks.

    Only sound for pure functions: results must not depend on execution
    order or shared mutable state, which is exactly what makes the
    output independent of ``jobs``.  Falls back to a plain in-process
    map when ``jobs == 1``, when ``fn`` (or an item) is unpicklable, or
    when worker processes cannot start.  The callable is pickle-probed
    once; items only get a cheap type check, never a full serialisation
    of bulk array payloads.

    Args:
        fn: Pure function applied to every item.
        items: Task inputs (materialised up front).
        jobs: Worker processes; ``None`` reads the ambient config.
        label: Telemetry label for the run log.

    Returns:
        ``[fn(item) for item in items]``, in input order.
    """
    seq = list(items)
    jobs = resolve_jobs(jobs)
    log = current_run_log()
    t0 = time.perf_counter()
    results: list[R]
    if (
        jobs > 1
        and len(seq) > 1
        and _is_picklable(fn)
        and all(_item_is_picklable(item) for item in seq)
    ):
        try:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(jobs, len(seq))
            ) as pool:
                results = list(pool.map(fn, seq))
        except (OSError, PermissionError):
            results = [fn(item) for item in seq]
    else:
        results = [fn(item) for item in seq]
    if log is not None:
        log.record_batch(label, len(seq), time.perf_counter() - t0, jobs)
    return results
