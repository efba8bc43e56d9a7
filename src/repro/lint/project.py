"""Phase 1/2 of the project-wide analysis: symbol table + cross-module rules.

Phase 1 (:func:`collect_file`) walks each file once and records every
class, with its methods' attribute reads/writes (and which
``with self.<lock>:`` blocks each access sits inside), its lock
attributes, the threads it creates/starts/joins, and which of its
methods run on a worker thread -- inferred from
``threading.Thread(target=self.<m>)`` roots plus the
``# repro-lint: thread=worker`` annotation escape hatch, closed over
``self.<m>()`` calls.

Phase 2 (:func:`check_project`) joins those tables across the whole
file set and enforces:

* **REP007** -- shared-mutable-state discipline: an instance attribute
  shared between a worker-thread method and a public API method must be
  accessed under one consistent class lock at every site, or be
  explicitly declared ``# guarded-by: <lock>`` / ``# repro-lint:
  atomic`` where it is initialised.
* **REP008** -- thread & service lifecycle: every started
  ``threading.Thread`` must be joined on the ``drain``/``close`` path,
  and every :class:`~repro.serve.protocol.ServiceLifecycle`
  implementation must define the full Service surface.

Everything stays stdlib-only, picklable (for ``--jobs``) and
deterministic: tables are tuples of frozen dataclasses, and phase 2
iterates them in sorted order.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import re
import tokenize
from typing import Iterable, Iterator, Sequence

from repro.lint.violation import Violation

__all__ = [
    "Annotations",
    "AttrAccess",
    "ClassInfo",
    "MethodInfo",
    "ThreadInfo",
    "check_project",
    "collect_file",
    "parse_annotations",
]

# -- inline annotations ----------------------------------------------------

_THREAD_ANNOTATION = re.compile(
    r"#\s*repro-lint\s*:\s*thread\s*=\s*worker\b"
)
_ATOMIC_ANNOTATION = re.compile(r"#\s*repro-lint\s*:\s*atomic\b")
_BATCH_INVARIANT_ANNOTATION = re.compile(
    r"#\s*repro-lint\s*:\s*batch-invariant\b"
)
_GUARDED_BY = re.compile(r"#\s*guarded-by\s*:\s*(?P<lock>[A-Za-z_]\w*)")

# Methods that count as the teardown surface of a class: a thread join
# reachable from any of these satisfies the REP008 lifecycle contract.
_LIFECYCLE_ROOTS = frozenset(
    {"drain", "close", "shutdown", "stop", "join", "__exit__", "__del__"}
)

# The Service protocol surface a ServiceLifecycle implementation must
# provide itself (predict, close and context management come from the
# mixin).
_SERVICE_SURFACE = ("submit", "status", "stats", "drain")

# Lock factories recognised as creating a lock attribute.
_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "make_lock"})

# Container methods that mutate their receiver: ``self.x.append(...)``
# is a *write* to ``self.x`` for sharing purposes, not just a read.
# Queue put/get are deliberately absent -- queue.Queue is itself a
# synchronisation primitive.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem",
        "clear", "add", "discard", "update", "setdefault", "sort",
        "appendleft", "popleft",
    }
)

@dataclasses.dataclass(frozen=True)
class Annotations:
    """Per-file inline annotations, keyed by 1-based source line.

    Attributes:
        worker_lines: Lines carrying ``# repro-lint: thread=worker``.
        atomic_lines: Lines carrying ``# repro-lint: atomic``.
        guarded_lines: Line -> lock attribute name from
            ``# guarded-by: <lock>``.
        batch_invariant_lines: Lines carrying
            ``# repro-lint: batch-invariant`` (REP009's scope).
    """

    worker_lines: frozenset[int]
    atomic_lines: frozenset[int]
    guarded_lines: tuple[tuple[int, str], ...]
    batch_invariant_lines: frozenset[int]

    def guard_for(self, line: int) -> str | None:
        for guarded_line, lock in self.guarded_lines:
            if guarded_line == line:
                return lock
        return None


def parse_annotations(source: str) -> Annotations:
    """Extract thread/atomic/guarded-by/batch-invariant annotations.

    Parsed from tokenizer output like the suppression directives, so an
    annotation inside a string literal is never mistaken for one.
    Files that do not tokenize contribute no annotations (the engine
    reports them as REP000 separately).
    """
    worker: set[int] = set()
    atomic: set[int] = set()
    batch_invariant: set[int] = set()
    guarded: list[tuple[int, str]] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        tokens = []
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        line = tok.start[0]
        if _THREAD_ANNOTATION.search(tok.string):
            worker.add(line)
        if _ATOMIC_ANNOTATION.search(tok.string):
            atomic.add(line)
        if _BATCH_INVARIANT_ANNOTATION.search(tok.string):
            batch_invariant.add(line)
        match = _GUARDED_BY.search(tok.string)
        if match is not None:
            guarded.append((line, match.group("lock")))
    return Annotations(
        worker_lines=frozenset(worker),
        atomic_lines=frozenset(atomic),
        guarded_lines=tuple(guarded),
        batch_invariant_lines=frozenset(batch_invariant),
    )


# -- phase-1 records -------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class AttrAccess:
    """One ``self.<attr>`` read or write inside a method."""

    attr: str
    line: int
    #: Names of ``with self.<name>:`` blocks enclosing the access.
    locks_held: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class ThreadInfo:
    """One ``threading.Thread(...)`` construction inside a class."""

    #: ``self.<attr>`` the thread was stored on (None = fire-and-forget).
    attr: str | None
    #: Method name passed as ``target=self.<m>`` (None if unresolvable).
    target_method: str | None
    line: int


@dataclasses.dataclass(frozen=True)
class MethodInfo:
    """One method of a class, as the concurrency rules see it."""

    name: str
    line: int
    reads: tuple[AttrAccess, ...]
    writes: tuple[AttrAccess, ...]
    #: ``self.<m>()`` call targets (for worker/lifecycle closures).
    self_calls: tuple[str, ...]
    #: ``self.<attr>.join(...)`` targets.
    joins: tuple[str, ...]
    #: ``self.<attr>.start(...)`` targets.
    starts: tuple[str, ...]
    #: Carries ``# repro-lint: thread=worker`` on its ``def`` line.
    worker_annotated: bool

    @property
    def public(self) -> bool:
        return not self.name.startswith("_")


@dataclasses.dataclass(frozen=True)
class ClassInfo:
    """One class definition, as the cross-module rules see it."""

    name: str
    path: str
    line: int
    bases: tuple[str, ...]
    methods: tuple[MethodInfo, ...]
    lock_attrs: tuple[str, ...]
    threads: tuple[ThreadInfo, ...]
    #: Attributes declared ``# repro-lint: atomic`` at a write site.
    atomic_attrs: tuple[str, ...]
    #: ``(attr, lock)`` pairs declared ``# guarded-by: <lock>``.
    guarded_attrs: tuple[tuple[str, str], ...]

    def method(self, name: str) -> MethodInfo | None:
        for m in self.methods:
            if m.name == name:
                return m
        return None

    def worker_methods(self) -> frozenset[str]:
        """Methods that run on a worker thread (roots + self-call closure)."""
        roots = {m.name for m in self.methods if m.worker_annotated}
        roots.update(
            t.target_method for t in self.threads
            if t.target_method is not None
        )
        seen: set[str] = set()
        frontier = [name for name in roots if self.method(name) is not None]
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            info = self.method(name)
            if info is None:
                continue
            for callee in info.self_calls:
                if callee not in seen and self.method(callee) is not None:
                    frontier.append(callee)
        return frozenset(seen)


@dataclasses.dataclass(frozen=True)
class FileSymbols:
    """Everything one file contributes to the project-wide pass."""

    path: str
    classes: tuple[ClassInfo, ...]


# -- phase-1 collection ----------------------------------------------------


def _self_attr(node: ast.AST) -> str | None:
    """``attr`` when ``node`` is ``self.<attr>``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _MethodCollector(ast.NodeVisitor):
    """Record one method's attribute accesses, calls, joins and starts."""

    def __init__(self) -> None:
        self.reads: list[AttrAccess] = []
        self.writes: list[AttrAccess] = []
        self.self_calls: list[str] = []
        self.joins: list[str] = []
        self.starts: list[str] = []
        self._lock_stack: list[str] = []

    def _held(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self._lock_stack))

    def visit_With(self, node: ast.With) -> None:
        pushed = 0
        for item in node.items:
            expr = item.context_expr
            # ``with self._lock:`` -- the only statically provable
            # lock-guard idiom (an .acquire()/.release() pair is not).
            attr = _self_attr(expr)
            if attr is not None:
                self._lock_stack.append(attr)
                pushed += 1
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        for stmt in node.body:
            self.visit(stmt)
        for _ in range(pushed):
            self._lock_stack.pop()

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node)
        if attr is not None:
            access = AttrAccess(
                attr=attr, line=node.lineno, locks_held=self._held()
            )
            if isinstance(node.ctx, ast.Store):
                self.writes.append(access)
            elif isinstance(node.ctx, ast.Load):
                self.reads.append(access)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = _self_attr(node.target)
        if attr is not None:
            access = AttrAccess(
                attr=attr, line=node.lineno, locks_held=self._held()
            )
            # ``self.x += 1`` is a read-modify-write.
            self.reads.append(access)
            self.writes.append(access)
            self.visit(node.value)
            return
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # ``self.x[i] = v`` / ``del self.x[i]`` mutate self.x.
        attr = _self_attr(node.value)
        if attr is not None and isinstance(node.ctx, (ast.Store, ast.Del)):
            self.writes.append(
                AttrAccess(
                    attr=attr, line=node.lineno, locks_held=self._held()
                )
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            inner_attr = _self_attr(func.value)
            if inner_attr is not None and func.attr in _MUTATOR_METHODS:
                self.writes.append(
                    AttrAccess(
                        attr=inner_attr,
                        line=node.lineno,
                        locks_held=self._held(),
                    )
                )
            target = _self_attr(func)
            if target is not None:
                # self.<m>(...) -- a candidate method call.
                self.self_calls.append(func.attr)
            else:
                inner = _self_attr(func.value)
                if inner is not None and func.attr == "join":
                    self.joins.append(inner)
                elif inner is not None and func.attr == "start":
                    self.starts.append(inner)
        self.generic_visit(node)


def _thread_constructions(
    body: Iterable[ast.stmt], threading_names: set[str]
) -> Iterator[ThreadInfo]:
    """``self.<attr> = threading.Thread(target=self.<m>)`` patterns."""
    for node in _walk_stmts(body):
        value: ast.AST | None = None
        attr: str | None = None
        if isinstance(node, ast.Assign):
            value = node.value
            if len(node.targets) == 1:
                attr = _self_attr(node.targets[0])
        elif isinstance(node, ast.Expr):
            value = node.value
        if value is None:
            continue
        call = value
        # ``threading.Thread(...).start()`` -- unwrap the .start() call.
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "start"
        ):
            call = call.func.value
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        is_thread = (
            isinstance(func, ast.Attribute)
            and func.attr == "Thread"
            and isinstance(func.value, ast.Name)
            and func.value.id in threading_names
        ) or (isinstance(func, ast.Name) and func.id == "Thread")
        if not is_thread:
            continue
        target_method = None
        for kw in call.keywords:
            if kw.arg == "target":
                target_method = _self_attr(kw.value)
        yield ThreadInfo(attr=attr, target_method=target_method,
                         line=node.lineno)


def _walk_stmts(body: Iterable[ast.stmt]) -> Iterator[ast.AST]:
    for stmt in body:
        yield from ast.walk(stmt)


def collect_file(
    path: str, tree: ast.Module, annotations: Annotations
) -> FileSymbols:
    """Phase-1 symbol collection for one parsed file."""
    threading_names = {"threading"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "threading" and alias.asname:
                    threading_names.add(alias.asname)

    classes: list[ClassInfo] = []

    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods: list[MethodInfo] = []
            threads: list[ThreadInfo] = []
            atomic: list[str] = []
            guarded: list[tuple[str, str]] = []
            for stmt in node.body:
                if not isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                collector = _MethodCollector()
                for sub in stmt.body:
                    collector.visit(sub)
                methods.append(
                    MethodInfo(
                        name=stmt.name,
                        line=stmt.lineno,
                        reads=tuple(collector.reads),
                        writes=tuple(collector.writes),
                        self_calls=tuple(
                            dict.fromkeys(collector.self_calls)
                        ),
                        joins=tuple(dict.fromkeys(collector.joins)),
                        starts=tuple(dict.fromkeys(collector.starts)),
                        worker_annotated=(
                            stmt.lineno in annotations.worker_lines
                        ),
                    )
                )
                threads.extend(
                    _thread_constructions([stmt], threading_names)
                )
                # Attribute declarations: a write whose line carries an
                # atomic/guarded-by annotation declares the attribute.
                for access in methods[-1].writes:
                    if access.line in annotations.atomic_lines:
                        atomic.append(access.attr)
                    lock = annotations.guard_for(access.line)
                    if lock is not None:
                        guarded.append((access.attr, lock))
            lock_attrs = sorted(
                {
                    access.attr
                    for m in methods
                    for access, value in _lock_assignments(node, m)
                }
            )
            classes.append(
                ClassInfo(
                    name=node.name,
                    path=path,
                    line=node.lineno,
                    bases=tuple(_base_names(node)),
                    methods=tuple(methods),
                    lock_attrs=tuple(lock_attrs),
                    threads=tuple(threads),
                    atomic_attrs=tuple(sorted(set(atomic))),
                    guarded_attrs=tuple(sorted(set(guarded))),
                )
            )
    return FileSymbols(path=path, classes=tuple(classes))


def _base_names(node: ast.ClassDef) -> Iterator[str]:
    for base in node.bases:
        if isinstance(base, ast.Name):
            yield base.id
        elif isinstance(base, ast.Attribute):
            yield base.attr


def _lock_assignments(
    cls: ast.ClassDef, method: MethodInfo
) -> Iterator[tuple[AttrAccess, None]]:
    """Writes of ``self.<attr> = <lock factory>(...)`` in ``method``."""
    stmt = next(
        (
            s for s in cls.body
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
            and s.name == method.name
        ),
        None,
    )
    if stmt is None:
        return
    for node in _walk_stmts(stmt.body):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        attr = _self_attr(node.targets[0])
        if attr is None or not isinstance(node.value, ast.Call):
            continue
        func = node.value.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in _LOCK_FACTORIES:
            yield (
                AttrAccess(attr=attr, line=node.lineno, locks_held=()),
                None,
            )


# -- phase-2 rules ---------------------------------------------------------


def _check_rep007(cls: ClassInfo) -> Iterator[Violation]:
    workers = cls.worker_methods()
    if not workers:
        return
    guarded_by = dict(cls.guarded_attrs)
    lock_attrs = set(cls.lock_attrs)
    # Gather per-attribute access sets, split by thread role.
    worker_accesses: dict[str, list[tuple[str, AttrAccess, bool]]] = {}
    api_accesses: dict[str, list[tuple[str, AttrAccess, bool]]] = {}
    for method in cls.methods:
        if method.name == "__init__":
            continue
        is_worker = method.name in workers
        bucket = worker_accesses if is_worker else api_accesses
        if not is_worker and not method.public:
            # Private non-worker helpers only run under a public entry
            # point; holding the rule to the public surface keeps it
            # conservative.
            continue
        for access in method.reads:
            bucket.setdefault(access.attr, []).append(
                (method.name, access, False)
            )
        for access in method.writes:
            bucket.setdefault(access.attr, []).append(
                (method.name, access, True)
            )
    for attr in sorted(set(worker_accesses) | set(api_accesses)):
        if attr in lock_attrs:
            continue
        w = worker_accesses.get(attr, [])
        a = api_accesses.get(attr, [])
        w_writes = [x for x in w if x[2]]
        a_writes = [x for x in a if x[2]]
        # Shared mutable state: a write on one side of the thread
        # boundary with any access on the other.  A worker-side write
        # to a public attribute counts even without an in-class reader:
        # the attribute *is* the class's API surface.
        shared = (
            (w_writes and a)
            or (a_writes and w)
            or (w_writes and not attr.startswith("_"))
        )
        if not shared:
            continue
        if attr in guarded_by or attr in set(cls.atomic_attrs):
            continue
        flagged = w + a
        common = None
        for _, access, _w in flagged:
            held = set(access.locks_held) & lock_attrs
            common = held if common is None else (common & held)
        if common:
            continue
        unguarded = sorted(
            (x for x in flagged
             if not (set(x[1].locks_held) & lock_attrs)),
            key=lambda x: x[1].line,
        )
        site = unguarded[0] if unguarded else flagged[0]
        writer = w_writes[0][0] if w_writes else (
            a_writes[0][0] if a_writes else site[0]
        )
        readers = sorted(
            {name for name, _, is_write in flagged if name != writer}
        )
        where = f"'{writer}'" + (
            f" and accessed in {', '.join(repr(r) for r in readers)}"
            if readers else ""
        )
        yield Violation(
            path=cls.path,
            line=site[1].line,
            col=1,
            code="REP007",
            message=(
                f"attribute 'self.{attr}' of '{cls.name}' is shared "
                f"across threads (written in {where}) without a "
                "consistent lock; hold one class lock at every access, "
                "or declare it '# guarded-by: <lock>' / "
                "'# repro-lint: atomic' where it is initialised"
            ),
        )


def _check_rep008(cls: ClassInfo) -> Iterator[Violation]:
    # (a) every started thread is joined on the teardown path.
    started_attrs = {
        attr for m in cls.methods for attr in m.starts
    }
    thread_attrs = {t.attr for t in cls.threads if t.attr is not None}
    lifecycle = _reachable_from(cls, _LIFECYCLE_ROOTS)
    for thread in cls.threads:
        if thread.attr is None:
            yield Violation(
                path=cls.path,
                line=thread.line,
                col=1,
                code="REP008",
                message=(
                    f"'{cls.name}' starts a thread it does not keep a "
                    "reference to; store it on self so the drain/close "
                    "path can join it"
                ),
            )
            continue
        if thread.attr not in started_attrs:
            continue  # constructed but never started here
        joining = [
            m.name for m in cls.methods if thread.attr in m.joins
        ]
        if not joining:
            yield Violation(
                path=cls.path,
                line=thread.line,
                col=1,
                code="REP008",
                message=(
                    f"thread 'self.{thread.attr}' of '{cls.name}' is "
                    "started but never joined; join it on the "
                    "drain/close path so shutdown is graceful"
                ),
            )
        elif not any(name in lifecycle for name in joining):
            yield Violation(
                path=cls.path,
                line=thread.line,
                col=1,
                code="REP008",
                message=(
                    f"thread 'self.{thread.attr}' of '{cls.name}' is "
                    f"joined only in {joining!r}, which is not "
                    "reachable from drain/close/shutdown; move the "
                    "join onto the lifecycle path"
                ),
            )
    del thread_attrs
    # (b) ServiceLifecycle implementations provide the Service surface.
    if "ServiceLifecycle" in cls.bases:
        defined = {m.name for m in cls.methods}
        missing = [m for m in _SERVICE_SURFACE if m not in defined]
        if missing:
            yield Violation(
                path=cls.path,
                line=cls.line,
                col=1,
                code="REP008",
                message=(
                    f"'{cls.name}' implements ServiceLifecycle but is "
                    f"missing {', '.join(missing)}; every service must "
                    "expose the full Service protocol surface "
                    "(see repro.serve.protocol)"
                ),
            )


def _reachable_from(cls: ClassInfo, roots: frozenset[str]) -> frozenset[str]:
    seen: set[str] = set()
    frontier = [name for name in roots if cls.method(name) is not None]
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        info = cls.method(name)
        if info is None:
            continue
        for callee in info.self_calls:
            if callee not in seen and cls.method(callee) is not None:
                frontier.append(callee)
    return frozenset(seen)


def check_project(symbols: Sequence[FileSymbols]) -> list[Violation]:
    """Phase 2: run REP007/REP008 over the joined symbol table."""
    violations: list[Violation] = []
    for sym in symbols:
        for cls in sym.classes:
            violations.extend(_check_rep007(cls))
            violations.extend(_check_rep008(cls))
    return violations
