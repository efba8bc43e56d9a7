"""``repro.runtime`` -- the execution engine for variation studies.

Every robustness number in the paper is a Monte-Carlo average over
fabrication draws; this subsystem is the shared machinery that runs
those draws fast without ever changing them:

* :mod:`repro.runtime.config` -- the ambient :class:`RuntimeConfig`
  (worker count, cache location) installed by the CLI and read by the
  drivers, so knobs travel without signature churn.
* :mod:`repro.runtime.executor` -- deterministic chunked fan-out over
  a process pool; ``jobs=1`` and ``jobs=N`` are bit-identical because
  trial ``i`` always gets the generator at spawn position ``i``.
* :mod:`repro.runtime.cache` -- persistent artifacts keyed on a stable
  hash of (trial config, seed, trial count, package version), so
  re-runs skip unchanged experiments.
* :mod:`repro.runtime.telemetry` -- run logs, progress callbacks and
  throughput counters; the deterministic part is embedded in the
  report, the timing part goes to stderr / JSON.
"""

from repro.runtime.cache import ArtifactCache, get_cache, stable_key
from repro.runtime.config import (
    RuntimeConfig,
    current_runtime,
    resolve_jobs,
    use_runtime,
)
from repro.runtime.executor import (
    chunk_bounds,
    map_trials,
    map_trials_batched,
    parallel_map,
    trial_seed_sequence,
)
from repro.runtime.telemetry import (
    ExperimentRecord,
    HealthEvent,
    RequestRecord,
    RunLog,
    TrialBatch,
    current_run_log,
    use_run_log,
)

__all__ = [
    "ArtifactCache",
    "ExperimentRecord",
    "HealthEvent",
    "RequestRecord",
    "RunLog",
    "RuntimeConfig",
    "TrialBatch",
    "chunk_bounds",
    "current_run_log",
    "current_runtime",
    "get_cache",
    "map_trials",
    "map_trials_batched",
    "parallel_map",
    "resolve_jobs",
    "stable_key",
    "trial_seed_sequence",
    "use_run_log",
    "use_runtime",
]
