"""Cross-module rules (REP007, REP008) and the symbol table."""

from pathlib import Path

from repro.lint import lint_paths, lint_sources
from repro.lint.project import collect_file, parse_annotations

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name):
    return lint_paths([FIXTURES / name])


def codes_of(result):
    return [v.code for v in result.violations]


def lines_of(result):
    return [v.line for v in result.violations]


class TestRep007:
    def test_flags_every_unguarded_sharing_pattern(self):
        result = lint_fixture("rep007_bad.py")
        assert codes_of(result) == ["REP007"] * 3
        # One finding per class: unguarded counter, worker-side-only
        # lock, and the annotation-rooted worker.
        assert lines_of(result) == [15, 38, 52]

    def test_messages_name_attr_and_remedy(self):
        result = lint_fixture("rep007_bad.py")
        assert any("_count" in v.message for v in result.violations)
        assert any("guarded-by" in v.message for v in result.violations)

    def test_clean_on_locks_and_declarations(self):
        assert codes_of(lint_fixture("rep007_good.py")) == []

    def test_guarded_by_annotation_is_load_bearing(self):
        # Stripping the declaration from the good fixture must flag it.
        source = (FIXTURES / "rep007_good.py").read_text(encoding="utf-8")
        assert "# guarded-by: _lock" in source
        stripped = source.replace("  # guarded-by: _lock", "")
        result = lint_sources([("g.py", stripped)])
        assert "REP007" in codes_of(result)

    def test_atomic_annotation_is_load_bearing(self):
        source = (FIXTURES / "rep007_good.py").read_text(encoding="utf-8")
        assert "# repro-lint: atomic" in source
        stripped = source.replace("  # repro-lint: atomic", "")
        result = lint_sources([("g.py", stripped)])
        assert "REP007" in codes_of(result)


class TestRep008:
    def test_flags_leaked_threads_and_partial_surfaces(self):
        result = lint_fixture("rep008_bad.py")
        assert codes_of(result) == ["REP008"] * 4
        # never joined, joined off the lifecycle path, fire-and-forget,
        # and the half-implemented ServiceLifecycle subclass.
        assert lines_of(result) == [12, 26, 40, 46]

    def test_surface_message_lists_missing_methods(self):
        result = lint_fixture("rep008_bad.py")
        surface = [v for v in result.violations if "ServiceLifecycle" in v.message]
        assert len(surface) == 1
        for missing in ("status", "stats"):
            assert missing in surface[0].message

    def test_clean_on_joined_threads_and_full_surface(self):
        assert codes_of(lint_fixture("rep008_good.py")) == []


class TestAnnotations:
    def test_parse_annotations_maps_lines(self):
        source = (
            "class C:\n"
            "    def run(self):  # repro-lint: thread=worker\n"
            "        self.n = 1  # repro-lint: atomic\n"
            "        self.m = 2  # guarded-by: _lock\n"
            "def kernel(x):  # repro-lint: batch-invariant\n"
        )
        ann = parse_annotations(source)
        assert ann.worker_lines == frozenset({2})
        assert ann.atomic_lines == frozenset({3})
        assert ann.guard_for(4) == "_lock"
        assert ann.guard_for(3) is None
        assert ann.batch_invariant_lines == frozenset({5})

    def test_annotation_inside_string_is_ignored(self):
        ann = parse_annotations('s = "# repro-lint: thread=worker"\n')
        assert ann.worker_lines == frozenset()


class TestSymbolTable:
    def test_collect_file_sees_threads_and_locks(self):
        import ast

        source = (FIXTURES / "rep007_bad.py").read_text(encoding="utf-8")
        tree = ast.parse(source)
        symbols = collect_file(
            "rep007_bad.py", tree, parse_annotations(source)
        )
        by_name = {c.name: c for c in symbols.classes}
        assert set(by_name) == {
            "UnguardedCounter", "InconsistentLock", "AnnotatedWorker"
        }
        assert by_name["InconsistentLock"].lock_attrs == ("_lock",)
        assert [t.target_method for t in by_name["UnguardedCounter"].threads] \
            == ["_run"]
        assert "_drain" in by_name["AnnotatedWorker"].worker_methods()

    def test_symbols_are_picklable(self):
        import ast
        import pickle

        source = (FIXTURES / "rep008_good.py").read_text(encoding="utf-8")
        symbols = collect_file(
            "rep008_good.py", ast.parse(source), parse_annotations(source)
        )
        assert pickle.loads(pickle.dumps(symbols)) == symbols
