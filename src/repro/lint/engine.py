"""Lint driver: file discovery, the two-phase run, suppression filtering.

Phase 1 analyses every file independently (REP001/2/4/5/9 plus the
raw material for the cross-file passes); per-file analysis is a pure
function of ``(path, source)``.  Phase 2 joins the per-file tables
across the whole file set: dataclass definitions against cache-key
uses (REP003) and the project symbol table for the
concurrency/lifecycle rules (REP007/REP008).  Suppression directives
are applied last so the engine can report how many findings a tree is
explicitly living with.

Everything here is stdlib-only and deterministic: files are discovered
and reported in sorted order, so two runs over the same tree emit
byte-identical output.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.cachekeys import check_cache_keys
from repro.lint.project import check_project
from repro.lint.rules import analyze_file
from repro.lint.suppress import parse_suppressions
from repro.lint.violation import ALL_CODES, Violation

__all__ = ["LintResult", "discover_files", "lint_sources", "lint_paths"]

#: Directory names never descended into.
_SKIP_DIRS = {
    "__pycache__", ".git", ".hypothesis", ".pytest_cache", ".ruff_cache",
    "build", "dist", ".eggs",
}


@dataclasses.dataclass(frozen=True)
class LintResult:
    """Outcome of one lint run.

    Attributes:
        violations: Unsuppressed findings, sorted by (path, line, col).
        suppressed: Findings covered by an inline directive.
        files_checked: Number of files analysed.
    """

    violations: tuple[Violation, ...]
    suppressed: tuple[Violation, ...]
    files_checked: int

    @property
    def counts(self) -> dict[str, int]:
        """Unsuppressed findings per rule code (only non-zero codes)."""
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.code] = counts.get(violation.code, 0) + 1
        return dict(sorted(counts.items()))


def discover_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Raises:
        FileNotFoundError: If an argument names nothing on disk.
    """
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    found.add(sub)
        elif path.is_file():
            found.add(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(found)


def _sort_key(violation: Violation) -> tuple[str, int, int, str]:
    return (violation.path, violation.line, violation.col, violation.code)


def lint_sources(
    sources: Sequence[tuple[str, str]],
    select: Iterable[str] | None = None,
) -> LintResult:
    """Lint in-memory ``(path, source)`` pairs (the testable core).

    Args:
        sources: Files as ``(display path, source text)``.
        select: Rule codes to enforce (default: all).
    """
    selected = frozenset(select) if select is not None else ALL_CODES
    analyses = [analyze_file(path, source) for path, source in sources]
    suppression_by_path = {
        path: parse_suppressions(source) for path, source in sources
    }

    all_violations: list[Violation] = []
    for analysis in analyses:
        all_violations.extend(analysis.violations)
    all_violations.extend(
        check_cache_keys(
            [d for a in analyses for d in a.dataclasses],
            [u for a in analyses for u in a.cache_key_uses],
        )
    )
    all_violations.extend(
        check_project([a.symbols for a in analyses if a.symbols is not None])
    )
    for path, smap in suppression_by_path.items():
        for line, code in smap.unknown:
            all_violations.append(
                Violation(
                    path=path,
                    line=line,
                    col=1,
                    code="REP000",
                    message=(
                        f"unknown rule code '{code}' in suppression "
                        "directive; check --list-rules (a typo here "
                        "suppresses nothing)"
                    ),
                )
            )

    kept: list[Violation] = []
    suppressed: list[Violation] = []
    for violation in sorted(all_violations, key=_sort_key):
        if violation.code not in selected and violation.code != "REP000":
            continue
        smap = suppression_by_path.get(violation.path)
        # REP000 (broken file / broken directive) is never suppressible:
        # a directive that cannot be trusted must not silence the
        # warning about itself.
        if (
            violation.code != "REP000"
            and smap is not None
            and smap.is_suppressed(violation)
        ):
            suppressed.append(violation)
        else:
            kept.append(violation)
    return LintResult(
        violations=tuple(kept),
        suppressed=tuple(suppressed),
        files_checked=len(sources),
    )


def lint_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
) -> LintResult:
    """Discover, read and lint files under ``paths``.

    Unreadable or undecodable files surface as REP000 findings rather
    than crashing the run.
    """
    sources: list[tuple[str, str]] = []
    unreadable: list[Violation] = []
    for path in discover_files(paths):
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            unreadable.append(
                Violation(
                    path=str(path),
                    line=1,
                    col=1,
                    code="REP000",
                    message=f"cannot read file: {exc}",
                )
            )
            continue
        sources.append((str(path), text))
    result = lint_sources(sources, select=select)
    if unreadable:
        merged = sorted(
            list(result.violations) + unreadable, key=_sort_key
        )
        result = dataclasses.replace(
            result,
            violations=tuple(merged),
            files_checked=result.files_checked + len(unreadable),
        )
    return result
