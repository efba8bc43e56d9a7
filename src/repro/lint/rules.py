"""Per-file AST analysis implementing the REP rule set.

One :class:`FileChecker` walk produces (a) direct violations of
REP001/REP002/REP004/REP005/REP009 and (b) the raw material of the
cross-file passes: every dataclass definition and cache-key use
(REP003, resolved in :mod:`repro.lint.cachekeys`) and the per-file
symbol table the project-wide rules join (REP007/REP008, resolved in
:mod:`repro.lint.project`).

The checker is deliberately conservative: it only reports what it can
*prove* from the AST (a literal lambda, a name assigned from a lambda
in the same scope, a constructor call it can see), so a clean run never
depends on suppressing false positives from dynamic code.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator

from repro.lint.project import (
    Annotations,
    FileSymbols,
    collect_file,
    parse_annotations,
)
from repro.lint.violation import Violation

__all__ = [
    "DataclassInfo",
    "CacheKeyUse",
    "FileAnalysis",
    "analyze_file",
]

# numpy.random attributes that touch the *global* legacy RNG state.
_GLOBAL_STATE_FNS = frozenset(
    {
        "seed",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "rand",
        "randn",
        "randint",
        "random_integers",
        "normal",
        "uniform",
        "standard_normal",
        "choice",
        "shuffle",
        "permutation",
        "lognormal",
        "exponential",
        "poisson",
        "binomial",
        "beta",
        "gamma",
    }
)

# Executor entry points whose callable argument must survive pickling
# into a worker process.
_EXECUTOR_APIS = {
    "run_monte_carlo": ("trial", "batch_trial"),
    "map_trials": ("trial",),
    "map_trials_batched": ("batch_trial",),
    "parallel_map": ("fn",),
}

# Positional index of the callable when it is passed without a keyword.
_CALLABLE_ARG_INDEX = {
    "run_monte_carlo": 0,
    "map_trials": 0,
    "map_trials_batched": 0,
    "parallel_map": 0,
}

# Type names that make a cache-key dataclass field order- or
# identity-dependent and therefore non-deterministically hashable.
_UNSTABLE_FIELD_TYPES = frozenset(
    {"dict", "set", "Dict", "Set", "defaultdict", "OrderedDict",
     "MutableMapping", "MutableSet", "Counter", "bytearray"}
)

_MUTABLE_BUILTIN_CALLS = frozenset({"list", "dict", "set", "bytearray"})

# The blessed fixed-accumulation helpers: reductions routed through
# these are bit-stable under batching, so REP009 never fires on them —
# and the functions *defining* them are exempt (they are the
# implementation of the contract).
_BLESSED_ACCUMULATORS = frozenset(
    {"batch_invariant_matmul", "trial_stacked_matmul"}
)

# Allocation calls whose result is an accumulator candidate: a name
# assigned from one of these and then ``+=``-ed inside a loop is an
# incremental accumulation whose order depends on iteration.
_ACCUMULATOR_FACTORIES = frozenset(
    {"zeros", "zeros_like", "empty", "empty_like"}
)


@dataclasses.dataclass(frozen=True)
class DataclassInfo:
    """A dataclass definition, as far as the linter is concerned.

    Attributes:
        name: Class name.
        frozen: Whether the decorator passed ``frozen=True``.
        path: Defining file.
        line: 1-based line of the ``class`` statement.
        unstable_fields: ``(field_name, type_name)`` pairs whose
            annotation mentions a non-deterministically-hashable type.
    """

    name: str
    frozen: bool
    path: str
    line: int
    unstable_fields: tuple[tuple[str, str], ...]


@dataclasses.dataclass(frozen=True)
class CacheKeyUse:
    """One expression observed flowing into a cache-key position."""

    class_name: str
    path: str
    line: int


@dataclasses.dataclass(frozen=True)
class FileAnalysis:
    """Everything one file contributes to the lint run."""

    violations: tuple[Violation, ...]
    dataclasses: tuple[DataclassInfo, ...]
    cache_key_uses: tuple[CacheKeyUse, ...]
    #: Phase-1 symbol table for the project-wide rules (REP007/8/10).
    symbols: FileSymbols | None = None


def _annotation_names(node: ast.AST) -> Iterator[str]:
    """Every identifier mentioned anywhere in an annotation tree."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _annotation_roots(node: ast.AST) -> Iterator[str]:
    """Top-level type names of an annotation (unions unwrapped).

    ``ExperimentScale | None`` yields ``ExperimentScale``;
    ``Optional[Foo]`` yields ``Optional`` and ``Foo`` (harmless: only
    names that resolve to known dataclasses are ever used).
    """
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        yield from _annotation_roots(node.left)
        yield from _annotation_roots(node.right)
    elif isinstance(node, ast.Subscript):
        yield from _annotation_roots(node.value)
        yield from _annotation_roots(node.slice)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: treat the whole string as one name.
        yield node.value.strip()


class _Scope:
    """One function (or module/class) namespace during the walk."""

    def __init__(self, kind: str):
        self.kind = kind  # "module" | "class" | "function"
        # name -> tag: "lambda", "nested_func", "bad_partial",
        #              or a dataclass-ish class name (from `x = Cls(...)`)
        self.bindings: dict[str, str] = {}
        # Function scopes only: carries the batch-invariant marker on
        # its ``def`` line, so REP009 polices its accumulations.
        self.batch_invariant = False
        # Function scopes only: this *is* a blessed accumulation
        # helper, so REP009 does not police its internals.
        self.rep009_exempt = False
        # Names assigned from zeros()/empty()-style factories in this
        # scope: ``+=`` on one of these inside a loop is incremental
        # accumulation (REP009).
        self.accumulators: set[str] = set()


class FileChecker(ast.NodeVisitor):
    """Single-pass rule checker over one module's AST."""

    def __init__(self, path: str, annotations: Annotations):
        self.path = path
        self._batch_invariant_lines = annotations.batch_invariant_lines
        self.violations: list[Violation] = []
        self.dataclasses: list[DataclassInfo] = []
        self.cache_key_uses: list[CacheKeyUse] = []
        self.scopes: list[_Scope] = [_Scope("module")]
        # Names bound to the numpy package / numpy.random module /
        # specific numpy.random attributes, tracked through aliases.
        self._numpy_names: set[str] = set()
        self._nprandom_names: set[str] = set()
        self._default_rng_names: set[str] = set()
        self._randomstate_names: set[str] = set()
        self._partial_names: set[str] = set()
        self._functools_names: set[str] = set()
        self._loop_depth = 0

    # -- helpers -------------------------------------------------------
    def _report(self, node: ast.AST, code: str, message: str) -> None:
        self.violations.append(
            Violation(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
            )
        )

    def _lookup(self, name: str) -> str | None:
        """Innermost binding tag for ``name`` (function scopes only)."""
        for scope in reversed(self.scopes):
            if name in scope.bindings:
                return scope.bindings[name]
        return None

    def _in_function(self) -> bool:
        return any(s.kind == "function" for s in self.scopes)

    # -- import tracking -----------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "numpy" or alias.name.startswith("numpy."):
                if alias.asname is None:
                    self._numpy_names.add(bound)
                elif alias.name == "numpy":
                    self._numpy_names.add(bound)
                elif alias.name == "numpy.random":
                    self._nprandom_names.add(bound)
            if alias.name == "functools":
                self._functools_names.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            bound = alias.asname or alias.name
            if module == "numpy" and alias.name == "random":
                self._nprandom_names.add(bound)
            elif module == "numpy.random":
                if alias.name == "default_rng":
                    self._default_rng_names.add(bound)
                elif alias.name == "RandomState":
                    self._randomstate_names.add(bound)
            elif module == "functools" and alias.name == "partial":
                self._partial_names.add(bound)
        self.generic_visit(node)

    # -- numpy.random resolution ---------------------------------------
    def _is_numpy_random(self, node: ast.AST) -> bool:
        """Whether ``node`` denotes the ``numpy.random`` module."""
        if isinstance(node, ast.Name):
            return node.id in self._nprandom_names
        if isinstance(node, ast.Attribute) and node.attr == "random":
            return (
                isinstance(node.value, ast.Name)
                and node.value.id in self._numpy_names
            )
        return False

    def _is_partial(self, func: ast.AST) -> bool:
        if isinstance(func, ast.Name):
            return func.id in self._partial_names
        if isinstance(func, ast.Attribute) and func.attr == "partial":
            return (
                isinstance(func.value, ast.Name)
                and func.value.id in self._functools_names
            )
        return False

    # -- REP001 --------------------------------------------------------
    def _check_rep001(self, node: ast.Call) -> None:
        func = node.func
        is_default_rng = (
            isinstance(func, ast.Name) and func.id in self._default_rng_names
        ) or (
            isinstance(func, ast.Attribute)
            and func.attr == "default_rng"
            and self._is_numpy_random(func.value)
        )
        if is_default_rng and not node.args and not node.keywords:
            self._report(
                node,
                "REP001",
                "np.random.default_rng() without a seed: results change "
                "run to run; thread an explicit rng/seed from the caller "
                "(see repro.seeding.ensure_rng)",
            )
            return
        is_randomstate = (
            isinstance(func, ast.Name) and func.id in self._randomstate_names
        ) or (
            isinstance(func, ast.Attribute)
            and func.attr == "RandomState"
            and self._is_numpy_random(func.value)
        )
        if is_randomstate:
            self._report(
                node,
                "REP001",
                "legacy np.random.RandomState: use a seeded "
                "np.random.Generator (np.random.default_rng(seed))",
            )
            return
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _GLOBAL_STATE_FNS
            and self._is_numpy_random(func.value)
        ):
            self._report(
                node,
                "REP001",
                f"np.random.{func.attr}() draws from the process-global "
                "legacy RNG; use an explicit np.random.Generator",
            )

    # -- REP002 --------------------------------------------------------
    def _callable_problem(self, node: ast.AST) -> str | None:
        """Why ``node`` cannot cross a process-pool boundary (or None)."""
        if isinstance(node, ast.Lambda):
            return "a lambda"
        if isinstance(node, ast.Name):
            tag = self._lookup(node.id)
            if tag == "lambda":
                return f"'{node.id}' (assigned from a lambda)"
            if tag == "nested_func":
                return f"'{node.id}' (a function defined inside a function)"
            if tag == "bad_partial":
                return f"'{node.id}' (a partial over an unpicklable callable)"
            return None
        if isinstance(node, ast.Call) and self._is_partial(node.func):
            if node.args:
                inner = self._callable_problem(node.args[0])
                if inner is not None:
                    return f"functools.partial over {inner}"
            return None
        return None

    def _check_rep002(self, node: ast.Call) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name not in _EXECUTOR_APIS:
            return
        target: ast.AST | None = None
        kw_names = _EXECUTOR_APIS[name]
        for kw in node.keywords:
            if kw.arg in kw_names:
                target = kw.value
                break
        if target is None:
            index = _CALLABLE_ARG_INDEX[name]
            if index < len(node.args):
                target = node.args[index]
        if target is None:
            return
        problem = self._callable_problem(target)
        if problem is not None:
            self._report(
                target,
                "REP002",
                f"{name}() received {problem}; worker processes need a "
                "module-level function or functools.partial over one",
            )

    # -- REP003 raw material -------------------------------------------
    def _resolve_class_names(self, node: ast.AST) -> list[str]:
        """Class names an expression provably evaluates to instances of."""
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "replace":
                # dataclasses.replace(cfg, ...) keeps cfg's type.
                if node.args:
                    return self._resolve_class_names(node.args[0])
                return []
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name and name[:1].isupper():
                return [name]
            return []
        if isinstance(node, ast.Name):
            tag = self._lookup(node.id)
            if tag and tag[:1].isupper():
                return [tag]
            return []
        if isinstance(node, ast.Dict):
            names: list[str] = []
            for value in node.values:
                if value is not None:
                    names.extend(self._resolve_class_names(value))
            return names
        return []

    def _record_cache_use(self, config_arg: ast.AST, node: ast.Call) -> None:
        for class_name in self._resolve_class_names(config_arg):
            self.cache_key_uses.append(
                CacheKeyUse(
                    class_name=class_name,
                    path=self.path,
                    line=getattr(node, "lineno", 1),
                )
            )

    def _check_cache_key_flow(self, node: ast.Call) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in {"make_key", "stable_key"}:
            config_arg: ast.AST | None = None
            for kw in node.keywords:
                if kw.arg == "config":
                    config_arg = kw.value
            if config_arg is None and len(node.args) >= 2:
                config_arg = node.args[1]
            if config_arg is not None:
                self._record_cache_use(config_arg, node)
        elif name == "run_monte_carlo":
            for kw in node.keywords:
                if kw.arg == "cache_config":
                    self._record_cache_use(kw.value, node)

    # -- REP004 --------------------------------------------------------
    def _is_mutable_default(self, node: ast.AST) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
             ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _MUTABLE_BUILTIN_CALLS
            ):
                return True
            if isinstance(func, ast.Attribute) and func.attr == "defaultdict":
                return True
        return False

    def _check_rep004(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    ) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable_default(default):
                self._report(
                    default,
                    "REP004",
                    "mutable default argument is shared across calls; "
                    "default to None and create inside the function",
                )

    # -- REP009 --------------------------------------------------------
    def _rep009_scope(self) -> _Scope | None:
        """The enclosing function scope REP009 applies to, if any."""
        scope = next(
            (s for s in reversed(self.scopes) if s.kind == "function"),
            None,
        )
        if scope is None or not scope.batch_invariant or scope.rep009_exempt:
            return None
        return scope

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.MatMult) and self._rep009_scope():
            self._report(
                node,
                "REP009",
                "'@' in a batch-invariant kernel picks a shape-dependent "
                "BLAS accumulation strategy and is not bit-stable under "
                "batching; route the product through "
                "batch_invariant_matmul / trial_stacked_matmul or "
                "np.einsum",
            )
        self.generic_visit(node)

    def _check_rep009_sum(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "sum"
            and self._lookup("sum") is None
            and self._rep009_scope()
        ):
            self._report(
                node,
                "REP009",
                "builtin sum() in a batch-invariant kernel reduces by "
                "repeated '+' in iteration order; use "
                "np.sum(..., axis=...) or np.einsum so each trial "
                "slice reduces in the same fixed order",
            )

    def visit_For(self, node: ast.For) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        scope = self._rep009_scope()
        if scope is not None:
            if isinstance(node.op, ast.MatMult):
                self._report(
                    node,
                    "REP009",
                    "'@=' in a batch-invariant kernel is a BLAS product "
                    "with shape-dependent accumulation; use "
                    "batch_invariant_matmul / np.einsum",
                )
            elif (
                isinstance(node.op, ast.Add)
                and self._loop_depth > 0
                and isinstance(node.target, ast.Name)
                and node.target.id in scope.accumulators
            ):
                self._report(
                    node,
                    "REP009",
                    f"'{node.target.id} +=' inside a loop accumulates "
                    "in iteration order, which chunking reorders; "
                    "stack the terms and reduce once with np.einsum or "
                    "a trailing-axis np.sum",
                )
        self.generic_visit(node)

    def _record_accumulator(self, name: str, value: ast.AST) -> None:
        if not isinstance(value, ast.Call):
            return
        func = value.func
        factory = None
        if isinstance(func, ast.Attribute):
            factory = func.attr
        elif isinstance(func, ast.Name):
            factory = func.id
        if factory in _ACCUMULATOR_FACTORIES:
            self.scopes[-1].accumulators.add(name)
        else:
            self.scopes[-1].accumulators.discard(name)

    # -- REP005 --------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                node,
                "REP005",
                "bare 'except:' catches SystemExit/KeyboardInterrupt; "
                "name the exceptions you mean",
            )
        else:
            broad = (
                isinstance(node.type, ast.Name)
                and node.type.id in {"Exception", "BaseException"}
            )
            swallowed = all(
                isinstance(stmt, ast.Pass)
                or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is Ellipsis
                )
                for stmt in node.body
            )
            if broad and swallowed:
                self._report(
                    node,
                    "REP005",
                    f"'except {node.type.id}: pass' hides every failure; "
                    "handle, log, or narrow the exception",
                )
        self.generic_visit(node)

    # -- dataclass collection ------------------------------------------
    def _dataclass_frozen(self, node: ast.ClassDef) -> bool | None:
        """``frozen`` flag if ``node`` is a dataclass, else ``None``."""
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            is_dc = (
                isinstance(target, ast.Name) and target.id == "dataclass"
            ) or (
                isinstance(target, ast.Attribute) and target.attr == "dataclass"
            )
            if not is_dc:
                continue
            if isinstance(deco, ast.Call):
                for kw in deco.keywords:
                    if kw.arg == "frozen":
                        return (
                            isinstance(kw.value, ast.Constant)
                            and kw.value.value is True
                        )
            return False
        return None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        frozen = self._dataclass_frozen(node)
        if frozen is not None:
            unstable: list[tuple[str, str]] = []
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                if not isinstance(stmt.target, ast.Name):
                    continue
                names = set(_annotation_names(stmt.annotation))
                if "ClassVar" in names:
                    continue
                bad = sorted(names & _UNSTABLE_FIELD_TYPES)
                if bad:
                    unstable.append((stmt.target.id, bad[0]))
            self.dataclasses.append(
                DataclassInfo(
                    name=node.name,
                    frozen=frozen,
                    path=self.path,
                    line=node.lineno,
                    unstable_fields=tuple(unstable),
                )
            )
        self.scopes.append(_Scope("class"))
        self.generic_visit(node)
        self.scopes.pop()

    # -- scope & binding tracking --------------------------------------
    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        if self._in_function():
            # A def nested inside a function: unpicklable by construction.
            self.scopes[-1].bindings[node.name] = "nested_func"
        self._check_rep004(node)
        scope = _Scope("function")
        # Parameter annotations let cache-key flow resolve `scale` in
        # `make_key(..., {"scale": scale})` to its dataclass.
        args = node.args
        all_args = (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
        scope.batch_invariant = node.lineno in self._batch_invariant_lines
        scope.rep009_exempt = node.name in _BLESSED_ACCUMULATORS
        for arg in all_args:
            if arg.annotation is not None:
                for root in _annotation_roots(arg.annotation):
                    if root[:1].isupper():
                        scope.bindings.setdefault(arg.arg, root)
        for arg in all_args + [args.vararg, args.kwarg]:
            if arg is not None:
                # Mark every parameter as locally bound so builtin-name
                # checks (e.g. REP009's sum()) see the shadowing.
                scope.bindings.setdefault(arg.arg, "param")
        self.scopes.append(scope)
        self.generic_visit(node)
        self.scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_rep004(node)
        self.scopes.append(_Scope("function"))
        self.generic_visit(node)
        self.scopes.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            value = node.value
            if isinstance(value, ast.Lambda):
                self.scopes[-1].bindings[name] = "lambda"
            elif isinstance(value, ast.Call) and self._is_partial(value.func):
                if value.args and self._callable_problem(value.args[0]):
                    self.scopes[-1].bindings[name] = "bad_partial"
            else:
                resolved = self._resolve_class_names(value)
                if len(resolved) == 1:
                    self.scopes[-1].bindings[name] = resolved[0]
            self._record_accumulator(name, value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            if isinstance(node.value, ast.Lambda):
                self.scopes[-1].bindings[node.target.id] = "lambda"
            else:
                resolved = self._resolve_class_names(node.value)
                if len(resolved) == 1:
                    self.scopes[-1].bindings[node.target.id] = resolved[0]
        self.generic_visit(node)

    # -- call dispatch -------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._check_rep001(node)
        self._check_rep002(node)
        self._check_rep009_sum(node)
        self._check_cache_key_flow(node)
        self.generic_visit(node)


def analyze_file(path: str, source: str) -> FileAnalysis:
    """Parse and check one file; syntax errors surface as violations."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return FileAnalysis(
            violations=(
                Violation(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) or 1,
                    code="REP000",
                    message=f"syntax error: {exc.msg}",
                ),
            ),
            dataclasses=(),
            cache_key_uses=(),
        )
    annotations = parse_annotations(source)
    checker = FileChecker(path, annotations)
    checker.visit(tree)
    return FileAnalysis(
        violations=tuple(checker.violations),
        dataclasses=tuple(checker.dataclasses),
        cache_key_uses=tuple(checker.cache_key_uses),
        symbols=collect_file(path, tree, annotations),
    )
