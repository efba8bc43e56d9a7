"""Engine behaviour: suppressions, CLI exit codes, JSON schema."""

import json
from pathlib import Path

import pytest

from repro.lint import lint_paths, parse_suppressions
from repro.lint.cli import JSON_SCHEMA_VERSION, main

FIXTURES = Path(__file__).parent / "fixtures"


class TestSuppressions:
    def test_inline_directives_cover_every_finding(self):
        result = lint_paths([FIXTURES / "suppressed.py"])
        assert result.violations == ()
        assert len(result.suppressed) == 4
        assert {v.code for v in result.suppressed} == {"REP001", "REP004"}

    def test_file_wide_directive(self):
        result = lint_paths([FIXTURES / "file_disabled.py"])
        # Both REP001 findings are file-disabled; REP004 still fires.
        assert [v.code for v in result.violations] == ["REP004"]
        assert [v.code for v in result.suppressed] == ["REP001", "REP001"]

    def test_directive_on_other_line_does_not_suppress(self):
        source = (
            "import numpy as np\n"
            "# repro-lint: disable=REP001\n"
            "def f():\n"
            "    return np.random.default_rng()\n"
        )
        from repro.lint import lint_sources

        result = lint_sources([("f.py", source)])
        assert [v.code for v in result.violations] == ["REP001"]

    def test_directive_inside_string_is_ignored(self):
        smap = parse_suppressions(
            's = "# repro-lint: disable=REP001"\n'
        )
        assert smap.by_line == {}
        assert smap.file_wide == frozenset()

    def test_unknown_codes_are_dropped(self):
        smap = parse_suppressions("x = 1  # repro-lint: disable=REP999\n")
        assert smap.by_line == {}
        assert smap.unknown == ((1, "REP999"),)

    def test_multi_code_inline_directive(self):
        # One directive, several codes: all suppressed on that line.
        source = (
            "def f(x, w, items=[]):  # repro-lint: batch-invariant\n"
            "    return x @ w  # repro-lint: disable=REP004,REP009\n"
        )
        from repro.lint import lint_sources

        result = lint_sources([("f.py", source)])
        assert [v.code for v in result.violations] == ["REP004"]
        assert [v.code for v in result.suppressed] == ["REP009"]

    def test_multi_code_directive_with_spaces_and_case(self):
        smap = parse_suppressions(
            "x = 1  # repro-lint: disable=rep007 , REP009\n"
        )
        assert smap.by_line == {1: frozenset({"REP007", "REP009"})}
        assert smap.unknown == ()

    def test_unknown_code_surfaces_as_rep000(self):
        from repro.lint import lint_sources

        result = lint_sources(
            [("f.py", "x = 1  # repro-lint: disable=REP777\n")]
        )
        assert [v.code for v in result.violations] == ["REP000"]
        assert "REP777" in result.violations[0].message
        # REP000 is never suppressible, even by disable=all.
        result = lint_sources(
            [("f.py", "x = 1  # repro-lint: disable=all,REP777\n")]
        )
        assert [v.code for v in result.violations] == ["REP000"]

    def test_mixed_known_and_unknown_codes(self):
        smap = parse_suppressions(
            "x = 1  # repro-lint: disable=REP001,REP998\n"
        )
        assert smap.by_line == {1: frozenset({"REP001"})}
        assert smap.unknown == ((1, "REP998"),)

    def test_file_level_suppression_covers_cross_module_rules(self):
        # A project-wide REP007 finding attaches to the class's file;
        # a file-wide directive there suppresses it like any per-file
        # rule.
        source = (
            "# repro-lint: disable-file=REP007\n"
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._x = 0\n"
            "        self._t = threading.Thread(target=self._run)\n"
            "        self._t.start()\n"
            "    def _run(self):\n"
            "        self._x += 1\n"
            "    def value(self):\n"
            "        return self._x\n"
            "    def close(self):\n"
            "        self._t.join()\n"
        )
        from repro.lint import lint_sources

        clean = lint_sources([("c.py", source)])
        assert clean.violations == ()
        assert [v.code for v in clean.suppressed] == ["REP007"]
        dirty = lint_sources(
            [("c.py", source.replace("# repro-lint: disable-file=REP007\n", ""))]
        )
        assert [v.code for v in dirty.violations] == ["REP007"]


class TestCli:
    def test_exit_zero_on_clean_file(self, capsys):
        assert main([str(FIXTURES / "rep001_good.py")]) == 0
        assert "clean" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name", ["rep001_bad.py", "rep002_bad.py", "rep003_bad.py",
                 "rep004_bad.py", "rep005_bad.py"]
    )
    def test_exit_nonzero_on_each_rule_fixture(self, name, capsys):
        assert main([str(FIXTURES / name)]) == 1
        capsys.readouterr()

    def test_exit_two_on_missing_path(self, capsys):
        assert main(["definitely/not/a/path.py"]) == 2
        assert "error" in capsys.readouterr().err

    def test_text_output_format(self, capsys):
        main([str(FIXTURES / "rep004_bad.py")])
        out = capsys.readouterr().out
        assert "rep004_bad.py:6:" in out
        assert "6 violations (0 suppressed) in 1 files" in out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("REP001", "REP002", "REP003", "REP004", "REP005"):
            assert code in out

    def test_unknown_select_code_errors(self, capsys):
        # A usage error (2), never the "violations found" code (1).
        assert main(
            [str(FIXTURES / "rep001_good.py"), "--select", "REP9"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown rule code(s): REP9\n"


class TestJsonOutput:
    def test_schema(self, capsys):
        exit_code = main(
            [str(FIXTURES / "rep005_bad.py"), "--format", "json"]
        )
        assert exit_code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == JSON_SCHEMA_VERSION
        assert doc["clean"] is False
        assert doc["files_checked"] == 1
        assert doc["counts"] == {"REP005": 3}
        assert doc["suppressed"] == []
        first = doc["violations"][0]
        assert set(first) == {"path", "line", "col", "code", "message"}
        assert first["code"] == "REP005"
        assert isinstance(first["line"], int)

    def test_clean_document(self, capsys):
        assert main(
            [str(FIXTURES / "rep002_good.py"), "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is True
        assert doc["violations"] == []

    def test_suppressions_are_reported(self, capsys):
        main([str(FIXTURES / "suppressed.py"), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is True
        assert len(doc["suppressed"]) == 4

    def test_output_is_deterministic(self, capsys):
        main([str(FIXTURES), "--format", "json"])
        first = capsys.readouterr().out
        main([str(FIXTURES), "--format", "json"])
        second = capsys.readouterr().out
        assert first == second


class TestGithubFormat:
    def test_error_annotations(self, capsys):
        exit_code = main(
            [str(FIXTURES / "rep005_bad.py"), "--format", "github"]
        )
        assert exit_code == 1
        lines = capsys.readouterr().out.strip().splitlines()
        errors = [ln for ln in lines if ln.startswith("::error ")]
        assert len(errors) == 3
        assert "file=" in errors[0]
        assert "line=7" in errors[0]
        assert "title=REP005" in errors[0]
        assert errors[0].count("::") == 2  # command + data separator
        assert lines[-1].startswith("::notice::repro-lint: 3 violations")

    def test_clean_emits_only_the_notice(self, capsys):
        assert main(
            [str(FIXTURES / "rep001_good.py"), "--format", "github"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("::notice::repro-lint: 0 violations")

    def test_message_special_characters_are_escaped(self):
        from repro.lint.cli import _render_github
        from repro.lint.engine import LintResult
        from repro.lint.violation import Violation

        result = LintResult(
            violations=(
                Violation(
                    path="a,b:c.py", line=1, col=1, code="REP001",
                    message="bad\nnews: 100%",
                ),
            ),
            suppressed=(),
            files_checked=1,
        )
        out = _render_github(result)
        assert "file=a%2Cb%3Ac.py" in out
        assert "bad%0Anews: 100%25" in out
