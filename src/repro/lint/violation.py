"""Violation record and the REP rule catalogue.

Each rule guards one of the contracts the runtime engine made
load-bearing (see ``docs/determinism.md``): seed discipline (REP001),
process-pool picklability (REP002), cache-key stability (REP003), two
general determinism/robustness hygiene rules (REP004, REP005),
cross-thread state and lifecycle discipline in the serving stack
(REP007, REP008), and fixed-order accumulation in batch-invariant
kernels (REP009).
The full catalogue with examples lives in ``docs/linting.md``.
"""

from __future__ import annotations

import dataclasses

__all__ = ["Violation", "RULES", "ALL_CODES"]

#: Rule catalogue: code -> one-line contract statement.
RULES: dict[str, str] = {
    "REP000": "file could not be parsed (reported, never suppressible)",
    "REP001": (
        "unseeded randomness: np.random.default_rng() without a seed, "
        "legacy RandomState, or the numpy global RNG"
    ),
    "REP002": (
        "unpicklable trial callable: executor APIs need module-level "
        "functions (or functools.partial over them), not lambdas or "
        "nested functions"
    ),
    "REP003": (
        "unstable cache key: dataclasses used as cache keys must be "
        "frozen=True with deterministically-hashable fields (no "
        "dict/set fields)"
    ),
    "REP004": "mutable default argument",
    "REP005": "bare except or silently swallowed exception",
    "REP007": (
        "unguarded shared mutable state: an instance attribute shared "
        "between a worker-thread method and the public API must be "
        "accessed under one consistent lock, or declared "
        "'# guarded-by: <lock>' / '# repro-lint: atomic'"
    ),
    "REP008": (
        "lifecycle violation: every started Thread must be joined on "
        "the drain/close path, and every ServiceLifecycle "
        "implementation must expose the full Service protocol surface"
    ),
    "REP009": (
        "order-unstable accumulation in a kernel marked "
        "'# repro-lint: batch-invariant': use the blessed "
        "einsum/stacked-reduction helpers (batch_invariant_matmul, "
        "np.einsum), not bare '@', builtin sum(), or '+=' "
        "accumulation loops"
    ),
}

ALL_CODES = frozenset(RULES)


@dataclasses.dataclass(frozen=True)
class Violation:
    """One finding of the linter.

    Attributes:
        path: File the violation was found in (as given to the engine).
        line: 1-based source line.
        col: 1-based source column.
        code: Rule code (``REP001`` .. ``REP009``).
        message: Human-readable description of this specific finding.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """``path:line:col: CODE message`` (clickable in most editors)."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict[str, object]:
        """JSON-stable representation for ``--format json``."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }
