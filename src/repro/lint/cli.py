"""Command-line front-end: ``python -m repro.lint`` / ``repro lint``.

Exit codes follow convention: 0 clean, 1 violations found, 2 usage
error.  ``--format json`` emits a machine-readable document (stable
schema, see ``docs/determinism.md``) for CI and tooling; ``--format
github`` emits GitHub Actions ``::error`` workflow commands so findings
surface as inline PR annotations; the default text mode prints one
``path:line:col: CODE message`` per finding plus a summary line.

``--jobs N`` parallelizes the per-file phase over worker processes
(identical output at any N); ``--baseline FILE`` tolerates the
accepted findings recorded by ``--write-baseline FILE`` so a new rule
can gate CI before its pre-existing debt is burned down.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.lint.baseline import load_baseline, write_baseline
from repro.lint.engine import LintResult, lint_paths
from repro.lint.violation import ALL_CODES, RULES

__all__ = ["main", "build_parser", "add_lint_arguments", "run_lint"]

#: Schema version of the ``--format json`` document.
JSON_SCHEMA_VERSION = 1


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options (shared with the ``repro lint`` subcommand)."""
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
        "--allow-unseeded",
        action="append",
        default=[],
        metavar="PATH_SUFFIX",
        help=(
            "path suffix of a sanctioned entry point where REP001 "
            "(unseeded randomness) is permitted; repeatable"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for the per-file analysis phase "
            "(default: 1; output is identical at any N)"
        ),
    )
    parser.add_argument(
        "--baseline",
        type=str,
        default=None,
        metavar="FILE",
        help=(
            "baseline file of accepted findings (written by "
            "--write-baseline); matches are reported but do not fail "
            "the run"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        type=str,
        default=None,
        metavar="FILE",
        help=(
            "record the current unsuppressed findings as the accepted "
            "baseline and exit 0"
        ),
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="print per-rule counts after the findings",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Project-specific determinism/picklability/cache-contract "
            "checker (rules REP001-REP005 and REP007-REP009)."
        ),
    )
    add_lint_arguments(parser)
    return parser


def _parse_select(raw: str | None) -> frozenset[str] | None:
    if raw is None:
        return None
    codes = frozenset(c.strip().upper() for c in raw.split(",") if c.strip())
    unknown = codes - ALL_CODES
    if unknown:
        raise SystemExit(
            f"error: unknown rule code(s): {', '.join(sorted(unknown))}"
        )
    return codes


def _render_json(result: LintResult) -> str:
    document = {
        "schema_version": JSON_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "violations": [v.to_dict() for v in result.violations],
        "suppressed": [v.to_dict() for v in result.suppressed],
        "baselined": [v.to_dict() for v in result.baselined],
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
    n = len(result.violations)
    lines.append(
        f"::notice::repro-lint: {n} violation{'s' if n != 1 else ''} "
        f"({len(result.suppressed)} suppressed, "
        f"{len(result.baselined)} baselined) "
        f"in {result.files_checked} files"
    )
    return "\n".join(lines)


def _render_text(result: LintResult, statistics: bool) -> str:
    lines = [v.render() for v in result.violations]
    if statistics and result.counts:
        lines.append("")
        for code, count in result.counts.items():
            lines.append(f"{code}: {count}")
    n = len(result.violations)
    summary = (
        f"{n} violation{'s' if n != 1 else ''} "
        f"({len(result.suppressed)} suppressed, "
        f"{len(result.baselined)} baselined) "
        f"in {result.files_checked} files"
    )
    lines.append(summary if lines else f"clean: {summary}")
    return "\n".join(lines)


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code]}")
        return 0
    baseline = None
    if args.baseline is not None and args.write_baseline is None:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"error: cannot load baseline: {exc}", file=sys.stderr)
            return 2
    try:
        result = lint_paths(
            args.paths,
            select=_parse_select(args.select),
            allow_unseeded=args.allow_unseeded,
            jobs=max(1, args.jobs),
            baseline=baseline,
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline is not None:
        count = write_baseline(args.write_baseline, result.violations)
        print(
            f"wrote {count} accepted finding"
            f"{'s' if count != 1 else ''} to {args.write_baseline}"
        )
        return 0
    if args.format == "json":
        print(_render_json(result))
    elif args.format == "github":
        print(_render_github(result))
    else:
        print(_render_text(result, args.statistics))
    return 1 if result.violations else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``python -m repro.lint``."""
    try:
        return run_lint(build_parser().parse_args(argv))
    except BrokenPipeError:
        # Output was piped into e.g. `head`; exiting quietly is the
        # conventional CLI behaviour.
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
