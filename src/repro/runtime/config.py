"""Ambient runtime configuration for the execution engine.

The experiment drivers sit several call layers below the CLI, so the
engine's knobs (worker count, cache location) travel through a context
variable instead of through every function signature.  ``use_runtime``
installs a :class:`RuntimeConfig` for the duration of a ``with`` block;
:func:`current_runtime` reads whatever is installed (a serial,
cache-less default otherwise), which keeps every existing call site
working unchanged.

The configuration deliberately carries *no* randomness and does not
participate in seeding: the executor derives every trial generator
from the experiment seed alone, so changing ``jobs`` or the cache
location can never change a result.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import os
from pathlib import Path
from typing import Iterator

__all__ = ["RuntimeConfig", "current_runtime", "use_runtime", "resolve_jobs"]


@dataclasses.dataclass(frozen=True)
class RuntimeConfig:
    """Execution-engine settings shared by every runner below the CLI.

    Attributes:
        jobs: Worker processes for Monte-Carlo fan-out; ``1`` (the
            default) runs everything serially in-process, ``0`` means
            "one per CPU".
        cache_dir: Directory for the artifact cache; ``None`` disables
            persistence entirely.
        use_cache: When ``False``, the cache is neither read nor
            written even if ``cache_dir`` is set (the CLI's
            ``--no-cache``).
    """

    jobs: int = 1
    cache_dir: str | Path | None = None
    use_cache: bool = True

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {self.jobs}")


_CURRENT: contextvars.ContextVar[RuntimeConfig] = contextvars.ContextVar(
    "repro_runtime_config", default=RuntimeConfig()
)


def current_runtime() -> RuntimeConfig:
    """The ambient :class:`RuntimeConfig` (serial default if unset)."""
    return _CURRENT.get()


@contextlib.contextmanager
def use_runtime(config: RuntimeConfig) -> Iterator[RuntimeConfig]:
    """Install ``config`` as the ambient runtime for a ``with`` block."""
    token = _CURRENT.set(config)
    try:
        yield config
    finally:
        _CURRENT.reset(token)


def resolve_jobs(jobs: int | None) -> int:
    """An explicit ``jobs`` argument, or the ambient one when ``None``.

    ``0`` resolves to one worker per CPU.
    """
    if jobs is None:
        jobs = current_runtime().jobs
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs
