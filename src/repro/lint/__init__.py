"""Project-specific static analysis guarding the determinism contracts.

The runtime engine (PR 1) made three implicit contracts load-bearing;
this package enforces them statically (stdlib ``ast`` only, no new
dependencies), in two phases: per-file AST checks, then cross-module
rules over a repo-wide symbol table:

==========  ==========================================================
``REP001``  every stochastic path flows from an explicit seeded
            ``np.random.Generator`` — no unseeded ``default_rng()``,
            no legacy ``RandomState``, no global-state draws
``REP002``  callables handed to the executor APIs must survive
            process-pool pickling (module-level functions or
            ``functools.partial`` over them)
``REP003``  dataclasses used as cache keys must be ``frozen=True``
            with deterministically-hashable fields
``REP004``  no mutable default arguments
``REP005``  no bare ``except:`` / silently swallowed exceptions
``REP007``  instance state shared across threads is lock-guarded or
            declared ``# guarded-by: <lock>`` / atomic
``REP008``  started threads are joined on the drain/close path;
            ``ServiceLifecycle`` implementations expose the full
            ``Service`` surface
``REP009``  kernels marked ``# repro-lint: batch-invariant`` reduce
            through fixed-accumulation helpers (einsum), never bare
            ``@``/``sum``/``+=`` loops
==========  ==========================================================

Run it as ``python -m repro.lint src``; suppress a
reviewed finding inline with ``# repro-lint: disable=REPxxx``.  The
sibling runtime check — the lock-order sanitizer in
:mod:`repro.lint.sanitize` — is enabled with ``REPRO_SANITIZE=1``.
See ``docs/linting.md`` for the full rule catalogue with examples and
``docs/determinism.md`` for the underlying contracts.
"""

from repro.lint.engine import LintResult, discover_files, lint_paths, lint_sources
from repro.lint.suppress import SuppressionMap, parse_suppressions
from repro.lint.violation import ALL_CODES, RULES, Violation

__all__ = [
    "ALL_CODES",
    "LintResult",
    "RULES",
    "SuppressionMap",
    "Violation",
    "discover_files",
    "lint_paths",
    "lint_sources",
    "parse_suppressions",
]
