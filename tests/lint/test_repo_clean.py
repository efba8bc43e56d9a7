"""Meta-test: the repository's own source tree must lint clean.

This is the executable form of the determinism contracts: any new
unseeded RNG, unpicklable trial callable, unstable cache key, mutable
default, swallowed exception, unguarded cross-thread state, leaked
worker thread or order-unstable accumulation in a batch-invariant
kernel under ``src/repro`` fails the suite (and the ``repro-lint`` CI job)
until fixed or explicitly suppressed.
"""

import ast
import re
from pathlib import Path

import repro
from repro.lint import lint_paths
from repro.lint.violation import RULES

SRC_ROOT = Path(repro.__file__).parent
REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_lints_clean():
    result = lint_paths([SRC_ROOT])
    rendered = "\n".join(v.render() for v in result.violations)
    assert result.violations == (), (
        "src/repro violates its determinism contracts "
        "(see docs/determinism.md):\n" + rendered
    )


def test_repo_scan_covers_the_package():
    result = lint_paths([SRC_ROOT])
    # Sanity floor so a path/discovery regression cannot silently turn
    # the clean-tree assertion into a no-op.
    assert result.files_checked > 50


def test_concurrency_rules_are_actually_enforced():
    # Guard against the clean-tree assertion passing because the new
    # cross-module rules were accidentally disabled rather than because
    # the tree is clean.
    assert {"REP007", "REP008", "REP009"} <= set(RULES)
    result = lint_paths([SRC_ROOT], select=["REP007", "REP008", "REP009"])
    # The project pass ran (it would have flagged these files before
    # the scheduler/fleet fixes); zero findings means fixed, not off.
    assert result.violations == ()
    assert result.files_checked > 50


def test_suppressions_in_tree_are_reviewed_waivers():
    # Every inline suppression under src/repro is a deliberate,
    # commented waiver.  This pins the count so a new suppression has
    # to be justified here rather than slipping in silently.
    result = lint_paths([SRC_ROOT])
    waived = sorted(
        (Path(v.path).name, v.code) for v in result.suppressed
    )
    assert waived == []


# The array-math kernels REP009 polices: every function whose results
# must not depend on how trials or queries are batched.
BATCH_INVARIANT_KERNELS = {
    "analysis/lognormal.py::stacked_standard_thetas",
    "analysis/lognormal.py::stacked_parametric_thetas",
    "analysis/lognormal.py::stacked_cycle_multipliers",
    "core/base.py::batched_hardware_test_rates",
    "experiments/fig2_column.py::_column_trial_batch",
    "pipeline/engine.py::stage_activation",
    "xbar/crossbar.py::read",
    "xbar/mapping.py::currents_to_outputs",
    "xbar/pair.py::matvec",
    "xbar/tiling.py::partial_matvec",
    "xbar/tiling.py::matvec",
    "xbar/matmul.py::batch_invariant_matmul",
    "xbar/matmul.py::trial_stacked_matmul",
}

_MARKED_DEF = re.compile(
    r"^\s*def\s+(\w+)\(.*#\s*repro-lint\s*:\s*batch-invariant\b"
)


def test_batch_invariant_marker_coverage_is_pinned():
    # REP009 only polices marked functions, so dropping a marker would
    # silently switch the rule off for that kernel.  Adding or removing
    # one has to be a visible edit of this set.
    marked = set()
    for path in sorted(SRC_ROOT.rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            match = _MARKED_DEF.match(line)
            if match is not None:
                rel = path.relative_to(SRC_ROOT).as_posix()
                marked.add(f"{rel}::{match.group(1)}")
    assert marked == BATCH_INVARIANT_KERNELS


def _run_time_imports(tree: ast.AST):
    """Modules imported outside ``if TYPE_CHECKING:`` blocks."""
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and getattr(
            node.test, "id", getattr(node.test, "attr", None)
        ) == "TYPE_CHECKING":
            node.body = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_devices_never_import_xbar_at_run_time():
    # ``repro.xbar`` builds on ``repro.devices``; a run-time import the
    # other way closes a cycle (xbar.crossbar -> devices ->
    # xbar.pair -> xbar.crossbar) that only resolves when something
    # happens to import ``repro.devices`` first.  Annotations import
    # under TYPE_CHECKING instead.
    offenders = [
        f"{path.name}: {module}"
        for path in sorted((SRC_ROOT / "devices").glob("*.py"))
        for module in _run_time_imports(
            ast.parse(path.read_text(encoding="utf-8"))
        )
        if module == "repro.xbar" or module.startswith("repro.xbar.")
    ]
    assert offenders == []


# Public definitions whose only callers are tests, each kept on purpose.
TEST_ONLY_PUBLIC = {
    "swv_single": "paper-exact Eq. 12 oracle for the SWV kernels",
    "train_gdt": "looped reference for train_gdt_stacked",
    "injected_rate_looped": "per-injection oracle for injected_rate",
    "hinge_loss": "Eq. 3 oracle for robust_hinge_loss",
    "hinge_gradient": "Eq. 3 oracle for robust_hinge_gradient",
    "variation_penalty": "Eq. 7 oracle for the VAT penalty term",
    "Service": "protocol declaration that REP008 checks lanes against",
    "findings": "test seam of the lock-order sanitizer",
}

# Directories whose code counts as a caller; tests/ does not.
CALLER_DIRS = ("src", "benchmarks", "perfbench", "examples")


def _public_definitions():
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                yield node.name, path.relative_to(SRC_ROOT).as_posix()


def _referenced_names():
    """Names loaded or attributes read anywhere in the caller dirs.

    Imports and ``__all__`` strings are not references, so a
    re-export alone does not keep a definition alive.
    """
    names = set()
    for directory in CALLER_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Load
                ):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_definition_has_a_non_test_caller():
    # A public function or class only tests call is code that serves
    # nothing: delete it with its tests, or, if it is an oracle the
    # production code is checked against, name it above with a reason.
    referenced = _referenced_names()
    unused = sorted(
        f"{module}::{name}"
        for name, module in _public_definitions()
        if name not in referenced and name not in TEST_ONLY_PUBLIC
    )
    assert unused == []
    # An exemption whose name gained a real caller is stale.
    assert sorted(set(TEST_ONLY_PUBLIC) & referenced) == []
