"""Per-rule positive/negative fixture coverage for the REP linter."""

from pathlib import Path

import pytest

from repro.lint import lint_paths, lint_sources

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name):
    return lint_paths([FIXTURES / name])


def codes_of(result):
    return [v.code for v in result.violations]


class TestRep001:
    def test_flags_every_unseeded_form(self):
        result = lint_fixture("rep001_bad.py")
        assert codes_of(result) == ["REP001"] * 8
        lines = [v.line for v in result.violations]
        assert lines == [10, 14, 18, 22, 26, 30, 34, 35]

    def test_clean_on_seeded_randomness(self):
        assert codes_of(lint_fixture("rep001_good.py")) == []


class TestRep002:
    def test_flags_unpicklable_callables(self):
        result = lint_fixture("rep002_bad.py")
        assert codes_of(result) == ["REP002"] * 6
        lines = [v.line for v in result.violations]
        assert lines == [11, 16, 23, 28, 35, 39]

    def test_clean_on_module_level_callables(self):
        assert codes_of(lint_fixture("rep002_good.py")) == []


class TestRep003:
    def test_flags_mutable_and_unstable_key_classes(self):
        result = lint_fixture("rep003_bad.py")
        assert codes_of(result) == ["REP003"] * 3
        # Violations attach to the class definitions, not the call sites.
        flagged = {(v.line, v.code) for v in result.violations}
        assert flagged == {(9, "REP003"), (15, "REP003"), (21, "REP003")}

    def test_messages_cite_the_use_site(self):
        result = lint_fixture("rep003_bad.py")
        assert any("MutableKeyConfig" in v.message for v in result.violations)
        assert any("not frozen=True" in v.message for v in result.violations)
        assert any("'options'" in v.message for v in result.violations)

    def test_clean_on_frozen_stable_keys(self):
        assert codes_of(lint_fixture("rep003_good.py")) == []

    def test_cross_file_resolution(self):
        # Class defined in one file, used as a key in another.
        definition = (
            "defs.py",
            "import dataclasses\n"
            "@dataclasses.dataclass\n"
            "class SharedConfig:\n"
            "    sigma: float\n",
        )
        use = (
            "use.py",
            "from repro.runtime.cache import stable_key\n"
            "from defs import SharedConfig\n"
            "def key():\n"
            "    return stable_key('mc', SharedConfig(0.1))\n",
        )
        result = lint_sources([definition, use])
        assert [v.code for v in result.violations] == ["REP003"]
        assert result.violations[0].path == "defs.py"


class TestRep004:
    def test_flags_mutable_defaults(self):
        result = lint_fixture("rep004_bad.py")
        assert codes_of(result) == ["REP004"] * 6
        assert [v.line for v in result.violations] == [6, 10, 14, 18, 22, 26]

    def test_clean_on_immutable_defaults(self):
        assert codes_of(lint_fixture("rep004_good.py")) == []


class TestRep005:
    def test_flags_bare_and_swallowed_excepts(self):
        result = lint_fixture("rep005_bad.py")
        assert codes_of(result) == ["REP005"] * 3
        assert [v.line for v in result.violations] == [7, 14, 21]

    def test_clean_on_narrow_or_handled_excepts(self):
        assert codes_of(lint_fixture("rep005_good.py")) == []


class TestRep009:
    def test_flags_raw_accumulation_forms(self):
        result = lint_fixture("rep009_bad.py")
        assert codes_of(result) == ["REP009"] * 4
        assert [v.line for v in result.violations] == [7, 11, 16, 22]

    def test_clean_on_einsum_and_blessed_helpers(self):
        assert codes_of(lint_fixture("rep009_good.py")) == []

    def test_unmarked_function_is_not_flagged(self):
        marked = (
            "def matmul(x, w):  # repro-lint: batch-invariant\n"
            "    return x @ w\n"
        )
        unmarked = (
            "def matmul(x, w):\n"
            "    return x @ w\n"
        )
        assert codes_of(lint_sources([("kernel.py", marked)])) == ["REP009"]
        assert codes_of(lint_sources([("kernel.py", unmarked)])) == []

    def test_shadowed_sum_is_not_flagged(self):
        source = (
            "def reduce(parts, sum):  # repro-lint: batch-invariant\n"
            "    return sum(parts)\n"
        )
        assert codes_of(lint_sources([("f.py", source)])) == []


class TestSelect:
    def test_select_narrows_enforced_rules(self):
        result = lint_paths(
            [FIXTURES / "rep004_bad.py", FIXTURES / "rep005_bad.py"],
            select=["REP005"],
        )
        assert set(codes_of(result)) == {"REP005"}


class TestSyntaxError:
    def test_unparseable_file_reports_rep000(self):
        result = lint_sources([("broken.py", "def f(:\n")])
        assert [v.code for v in result.violations] == ["REP000"]


@pytest.mark.parametrize(
    "name", ["rep001_bad.py", "rep002_bad.py", "rep003_bad.py",
             "rep004_bad.py", "rep005_bad.py", "rep007_bad.py",
             "rep008_bad.py", "rep009_bad.py"]
)
def test_every_positive_fixture_is_dirty(name):
    assert lint_fixture(name).violations


@pytest.mark.parametrize(
    "name", ["rep001_good.py", "rep002_good.py", "rep003_good.py",
             "rep004_good.py", "rep005_good.py", "rep007_good.py",
             "rep008_good.py", "rep009_good.py"]
)
def test_every_negative_fixture_is_clean(name):
    assert not lint_fixture(name).violations
