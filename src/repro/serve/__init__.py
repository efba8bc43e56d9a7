"""``repro.serve`` -- batched, drift-aware inference serving.

The training pipelines (:mod:`repro.core`) end with a programmed
differential crossbar; this subsystem is everything that happens
*after* programming, when the array is deployed as an inference
accelerator:

* :mod:`repro.serve.artifact` -- the :class:`ProgrammedArray` bundle:
  a complete snapshot of a programmed crossbar (conductances, AMP
  permutation, device variation and defect maps, probe baseline)
  persisted through :class:`repro.runtime.cache.ArtifactCache`, so a
  serving process reconstructs the hardware bit-for-bit without
  re-training.
* :mod:`repro.serve.engine` -- the vectorized forward pass: inputs are
  routed through the AMP permutation and a whole batch is one read, so
  one IR-drop solve serves a whole batch instead of one query.
* :mod:`repro.serve.scheduler` -- a thread-based request queue with
  bounded depth, backpressure (reject with a retry-after hint),
  per-request deadlines and graceful shutdown.
* :mod:`repro.serve.health` -- the drift monitor: the probe set is
  replayed between batches and compared against the programming-time
  baseline (the paper's Fig. 2 column-output discrepancy); when the
  discrepancy crosses the policy threshold, the monitor triggers the
  lane's in-place repair.
* :mod:`repro.serve.service` -- :class:`CrossbarService`, the facade
  wiring all four layers together, and the repair the monitor invokes
  (an AMP re-pretest and remap of an array, a golden restore of a
  tiled layer).  It is also the serving lane every fleet replica runs
  on.
"""

from repro.serve.artifact import (
    ProgramConfig,
    ProgrammedArray,
    artifact_key,
    program_array,
)
from repro.serve.engine import InferenceEngine
from repro.serve.health import DriftMonitor, DriftPolicy
from repro.serve.scheduler import (
    BatchScheduler,
    DeadlineExceededError,
    ReplicaDeadError,
    ServeOverloadedError,
)
from repro.serve.service import CrossbarService

__all__ = [
    "BatchScheduler",
    "CrossbarService",
    "DeadlineExceededError",
    "DriftMonitor",
    "DriftPolicy",
    "InferenceEngine",
    "ProgramConfig",
    "ProgrammedArray",
    "ReplicaDeadError",
    "ServeOverloadedError",
    "artifact_key",
    "program_array",
]
