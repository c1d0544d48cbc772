"""Engine mechanics: pragmas, rule selection, file collection, CLI."""

import json

import pytest

from repro.analysis import (
    LintConfig,
    LintEngine,
    Severity,
    all_rules,
    lint_source,
    module_name_for,
)
from repro.analysis.findings import Finding, Report
from repro.analysis.runner import main as lint_main

BARE_SLEEP = """
import time

def f():
    time.sleep(1)
"""
R13 = LintConfig(select=frozenset({"R13"}))


class TestPragmas:
    def test_line_pragma_suppresses(self):
        src = BARE_SLEEP.replace("(1)", "(1)  # reprolint: disable=R13")
        assert not lint_source(src, config=R13).findings

    def test_line_pragma_is_rule_specific(self):
        src = BARE_SLEEP.replace("(1)", "(1)  # reprolint: disable=R16")
        report = lint_source(src, config=R13)
        assert len(report.findings) == 1

    @pytest.mark.parametrize(
        "pragma",
        ["(1)  # reprolint: disable=all", "(1)\n# reprolint: disable-file=R13"],
        ids=["disable-all", "disable-file"],
    )
    def test_only_line_pragmas_naming_the_rule_suppress(self, pragma):
        src = BARE_SLEEP.replace("(1)", pragma)
        assert [f.rule_id for f in lint_source(src, config=R13).findings] == ["R13"]

    def test_multiple_rule_ids_in_one_pragma(self):
        src = (
            "import time\n"
            "def f(db, t):\n"
            '    db.execute(f"DELETE FROM {t}"); time.sleep(1)  # reprolint: disable=R16, R13\n'
            "    time.sleep(2)\n"
        )
        report = lint_source(src, config=LintConfig(select=frozenset({"R16", "R13"})))
        # both rules are suppressed on line 3; R13 fires on line 4, untouched
        assert [(f.rule_id, f.line) for f in report.findings] == [("R13", 4)]

    def test_pragma_on_continuation_line_of_multiline_statement(self):
        # the finding anchors on line 3 (the f-string); the pragma sits on the
        # closing line of the same statement and must still cover it
        src = (
            "def f(db, t):\n"
            "    db.execute(\n"
            '        f"DELETE FROM {t}",\n'
            "    )  # reprolint: disable=R16\n"
        )
        assert not lint_source(src, config=LintConfig(select=frozenset({"R16"}))).findings

    def test_pragma_on_one_statement_does_not_leak_to_neighbours(self):
        src = (
            "def f(db, t):\n"
            "    db.execute(\n"
            '        f"DELETE FROM {t}",\n'
            "    )  # reprolint: disable=R16\n"
            '    db.execute(f"DELETE FROM {t}")\n'
        )
        report = lint_source(src, config=LintConfig(select=frozenset({"R16"})))
        assert [f.line for f in report.findings] == [5]

    def test_unknown_rule_id_in_pragma_disables_nothing_else(self):
        src = BARE_SLEEP.replace("(1)", "(1)  # reprolint: disable=R999")
        report = lint_source(src, config=R13)
        assert [f.rule_id for f in report.findings] == ["R13"]


class TestConfig:
    def test_default_runs_all_rules(self):
        assert len(LintEngine().rules) == len(all_rules()) == 8

    def test_r13_has_no_allowlist(self):
        # the resilience layer used to be the one sanctioned sleeper
        assert not hasattr(LintConfig(), "sleep_allowlist")
        for module in ("repro.resilience.policy", "repro.web.api", "fixture"):
            report = lint_source(BARE_SLEEP, module=module, config=R13)
            assert [f.rule_id for f in report.findings] == ["R13"], module

    def test_with_rules_builds_new_config(self):
        config = LintConfig().with_rules(["R5", "R16"])
        assert config.wants("R16") and not config.wants("R13")


class TestModuleNames:
    def test_walks_up_init_chain(self, tmp_path):
        pkg = tmp_path / "mypkg" / "sub"
        pkg.mkdir(parents=True)
        (tmp_path / "mypkg" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("")
        assert module_name_for(pkg / "mod.py") == "mypkg.sub.mod"
        assert module_name_for(pkg / "__init__.py") == "mypkg.sub"

    def test_bare_file(self, tmp_path):
        assert module_name_for(tmp_path / "script.py") == "script"


class TestLintPaths:
    def test_directory_scan_and_parse_error(self, tmp_path):
        (tmp_path / "ok.py").write_text("__all__ = []\n")
        (tmp_path / "broken.py").write_text("def f(:\n")
        report = LintEngine(R13).lint_paths([tmp_path])
        parse = [f for f in report.findings if f.rule_id == "PARSE"]
        assert len(parse) == 1 and parse[0].severity is Severity.ERROR
        assert not report.ok

    def test_duplicate_paths_deduplicated(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text(BARE_SLEEP)
        report = LintEngine(R13).lint_paths([target, target, tmp_path])
        assert len(report.findings) == 1


class TestReportModel:
    def finding(self, **kw):
        base = dict(
            rule_id="R4",
            severity=Severity.ERROR,
            path="x.py",
            line=3,
            col=1,
            message="boom",
            fix_hint="fix it",
        )
        base.update(kw)
        return Finding(**base)

    def test_sorted_and_rendered(self):
        report = Report(
            findings=[self.finding(line=9), self.finding(line=2)], n_files=1, n_rules=1
        )
        assert [f.line for f in report.findings] == [2, 9]
        text = report.to_text()
        assert "x.py:2:1: R4 error: boom" in text
        assert "hint: fix it" in text

    def test_ok_reflects_error_severity(self):
        assert Report().ok
        assert not Report(findings=[self.finding()]).ok

    def test_json_round_trips(self):
        report = Report(findings=[self.finding()], n_files=1, n_rules=10)
        payload = json.loads(report.to_json())
        assert payload["n_errors"] == 1
        assert payload["findings"][0]["rule"] == "R4"

    def test_ordering_is_total(self):
        """path, line, col, rule id, then message -- no unordered ties."""
        findings = [
            self.finding(path="b.py"),
            self.finding(path="a.py", line=5),
            self.finding(path="a.py", line=2, col=9),
            self.finding(path="a.py", line=2, col=1, rule_id="R9"),
            self.finding(path="a.py", line=2, col=1, rule_id="R4", message="zz"),
            self.finding(path="a.py", line=2, col=1, rule_id="R4", message="aa"),
        ]
        expected = [
            ("a.py", 2, 1, "R4", "aa"),
            ("a.py", 2, 1, "R4", "zz"),
            ("a.py", 2, 1, "R9", "boom"),
            ("a.py", 2, 9, "R4", "boom"),
            ("a.py", 5, 1, "R4", "boom"),
            ("b.py", 3, 1, "R4", "boom"),
        ]
        for perm in (findings, findings[::-1], findings[3:] + findings[:3]):
            report = Report(findings=list(perm))
            got = [
                (f.path, f.line, f.col, f.rule_id, f.message) for f in report.findings
            ]
            assert got == expected

    def test_report_independent_of_module_walk_order(self):
        sources = [
            ("mod_a", BARE_SLEEP),
            ("mod_b", "import time\n\ndef g():\n    time.sleep(2)\n"),
        ]
        engine = LintEngine(R13)

        def render(order):
            modules = [
                engine.load_source(src, path=f"{name}.py", module=name)
                for name, src in order
            ]
            return engine.lint_modules(modules).to_text()

        assert render(sources) == render(sources[::-1])


class TestRunner:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("__all__ = []\n")
        assert lint_main([str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(BARE_SLEEP)
        assert lint_main(["--select", "R13", str(target)]) == 1
        assert "R13" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(BARE_SLEEP)
        assert lint_main(["--format", "json", "--select", "R13", str(target)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "R13"

    @pytest.mark.parametrize(
        "flags",
        [["--fix"], ["--diff"], ["--baseline", "b.json"], ["--write-baseline"],
         ["--output", "out.txt"], ["--format", "sarif"], ["--ignore", "R13"],
         ["--no-hints"]],
    )
    def test_retired_options_are_usage_errors(self, flags, tmp_path, capsys):
        """Autofix, baselines, --output and SARIF went with the hygiene rules;
        --ignore and --no-hints had no user."""
        with pytest.raises(SystemExit) as exc:
            lint_main([*flags, str(tmp_path)])
        assert exc.value.code == 2

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        assert lint_main(["--select", "R99", str(tmp_path)]) == 2

    def test_missing_path_exits_two(self, tmp_path):
        assert lint_main([str(tmp_path / "nope")]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R5", "R14", "R16", "R17"):
            assert rule_id in out

    def test_list_rules_survives_missing_docstring(self, capsys, monkeypatch):
        """A rule without a docstring lists by title instead of crashing."""
        from repro.analysis import Rule
        from repro.analysis import runner as runner_mod

        class Bare(Rule):
            rule_id = "R98"
            title = "bare-rule"

        Bare.__doc__ = None
        monkeypatch.setattr(runner_mod, "all_rules", lambda: [Bare])
        assert lint_main(["--list-rules"]) == 0
        assert "bare-rule" in capsys.readouterr().out

    def test_cli_lint_subcommand(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        target = tmp_path / "bad.py"
        target.write_text(BARE_SLEEP)
        assert repro_main(["lint", "--select", "R13", str(target)]) == 1


@pytest.mark.parametrize("cls", all_rules())
def test_rule_metadata_complete(cls):
    """Each rule ships an id, a title, a docstring, and a fix hint."""
    assert cls.rule_id and cls.rule_id.startswith("R")
    assert cls.title
    assert cls.__doc__ and cls.__doc__.strip()
    assert cls.fix_hint
