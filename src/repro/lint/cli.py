"""Command-line front-end: ``python -m repro.lint``.

Exit codes follow convention: 0 clean, 1 violations found, 2 usage
error (a missing path or an unknown ``--select`` code).  ``--format
json`` emits a machine-readable document (stable schema, see
``docs/determinism.md``) for CI and tooling; ``--format github`` emits
GitHub Actions ``::error`` workflow commands so findings surface as
inline PR annotations; the default text mode prints one
``path:line:col: CODE message`` per finding plus a summary line.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.lint.engine import LintResult, lint_paths
from repro.lint.violation import ALL_CODES, RULES

__all__ = ["main", "build_parser"]

#: Schema version of the ``--format json`` document.
JSON_SCHEMA_VERSION = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Project-specific determinism/picklability/cache-contract "
            "checker (rules REP001-REP005 and REP007-REP009)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help=(
            "output format (json is the CI interface; github emits "
            "::error workflow commands for inline PR annotations)"
        ),
    )
    parser.add_argument(
        "--select",
        type=str,
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to enforce (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _parse_select(raw: str | None) -> frozenset[str] | None:
    if raw is None:
        return None
    return frozenset(c.strip().upper() for c in raw.split(",") if c.strip())


def _render_json(result: LintResult) -> str:
    document = {
        "schema_version": JSON_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "violations": [v.to_dict() for v in result.violations],
        "suppressed": [v.to_dict() for v in result.suppressed],
        "counts": result.counts,
        "clean": not result.violations,
    }
    return json.dumps(document, indent=2, sort_keys=True)


def _escape_workflow_data(value: str) -> str:
    """Escape message data for a GitHub Actions workflow command."""
    return (
        value.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
    )


def _escape_workflow_property(value: str) -> str:
    """Escape a property value (also escapes ``:`` and ``,``)."""
    return (
        _escape_workflow_data(value)
        .replace(":", "%3A")
        .replace(",", "%2C")
    )


def _summary(result: LintResult) -> str:
    n = len(result.violations)
    return (
        f"{n} violation{'s' if n != 1 else ''} "
        f"({len(result.suppressed)} suppressed) "
        f"in {result.files_checked} files"
    )


def _render_github(result: LintResult) -> str:
    """One ``::error`` workflow command per finding.

    GitHub renders these as inline annotations on the PR diff; the
    summary goes through as a ``::notice`` so the job log still states
    the totals.
    """
    lines = []
    for violation in result.violations:
        lines.append(
            "::error file={file},line={line},col={col},title={title}::"
            "{message}".format(
                file=_escape_workflow_property(violation.path),
                line=violation.line,
                col=violation.col,
                title=_escape_workflow_property(violation.code),
                message=_escape_workflow_data(violation.message),
            )
        )
    lines.append(f"::notice::repro-lint: {_summary(result)}")
    return "\n".join(lines)


def _render_text(result: LintResult) -> str:
    lines = [v.render() for v in result.violations]
    summary = _summary(result)
    lines.append(summary if lines else f"clean: {summary}")
    return "\n".join(lines)


def _run(args: argparse.Namespace) -> int:
    if args.list_rules:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code]}")
        return 0
    select = _parse_select(args.select)
    unknown = sorted((select or frozenset()) - ALL_CODES)
    if unknown:
        print(f"error: unknown rule code(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    try:
        result = lint_paths(args.paths, select=select)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(_render_json(result))
    elif args.format == "github":
        print(_render_github(result))
    else:
        print(_render_text(result))
    return 1 if result.violations else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``python -m repro.lint``; returns the exit code."""
    try:
        return _run(build_parser().parse_args(argv))
    except BrokenPipeError:
        # Output was piped into e.g. `head`; exiting quietly is the
        # conventional CLI behaviour.
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
