"""Engine mechanics: alias resolution, scoping, suppression, reports."""

import textwrap

import pytest

from repro.analysis.lint.engine import (
    PARSE_ERROR_RULE,
    LintReport,
    ModuleSource,
    Rule,
    iter_python_files,
    lint_paths,
    lint_source,
)
from repro.analysis.lint.findings import Finding, sort_findings
from repro.analysis.lint.rules import UnseededRngRule


def _module(source, path="pkg/mod.py"):
    return ModuleSource(path, textwrap.dedent(source))


class TestModuleSource:
    def test_resolve_expands_import_aliases(self):
        module = _module("""
            import numpy as np
            import numpy.random as npr
            from numpy import linalg
            from numpy.linalg import norm as l2

            a = np.linalg.norm
            b = npr.shuffle
            c = linalg.norm
            d = l2
        """)
        import ast

        exprs = {
            node.targets[0].id: node.value
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Assign)
        }
        assert module.resolve(exprs["a"]) == "numpy.linalg.norm"
        assert module.resolve(exprs["b"]) == "numpy.random.shuffle"
        assert module.resolve(exprs["c"]) == "numpy.linalg.norm"
        assert module.resolve(exprs["d"]) == "numpy.linalg.norm"

    def test_line_is_one_indexed_and_bounded(self):
        module = _module("x = 1\ny = 2\n")
        assert module.line(1) == "x = 1"
        assert module.line(99) == ""


class TestRuleScoping:
    class ScopedRule(Rule):
        rule_id = "GR998"
        title = "scoped"
        scopes = ("core/compressors/",)

        def check(self, module):
            return [self.finding(module, module.tree, "hit")]

    def test_applies_only_inside_scope(self):
        rule = self.ScopedRule()
        assert rule.applies_to("src/repro/core/compressors/topk.py")
        assert not rule.applies_to("src/repro/telemetry/tracing.py")

    def test_empty_scopes_match_everything(self):
        assert UnseededRngRule().applies_to("anything/at/all.py")


class TestInlineSuppression:
    def _run(self, line, tmp_path):
        (tmp_path / "mod.py").write_text(
            f"import numpy as np\n{line}\n", encoding="utf-8"
        )
        return lint_paths(
            [tmp_path], rules=[UnseededRngRule()], root=tmp_path
        )

    def test_bare_ignore_suppresses_any_rule(self, tmp_path):
        report = self._run("np.random.seed(0)  # lint-ignore", tmp_path)
        assert report.findings == []
        assert report.inline_suppressed == 1

    def test_listed_ignore_suppresses_named_rule(self, tmp_path):
        report = self._run(
            "np.random.seed(0)  # lint-ignore: GR001, GR002", tmp_path
        )
        assert report.findings == []
        assert report.inline_suppressed == 1

    def test_mismatched_ignore_does_not_suppress(self, tmp_path):
        report = self._run(
            "np.random.seed(0)  # lint-ignore: GR002", tmp_path
        )
        assert len(report.findings) == 1
        assert report.inline_suppressed == 0


class TestLintPaths:
    def test_reports_relative_paths_and_file_count(self, tmp_path):
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "good.py").write_text("x = 1\n", encoding="utf-8")
        (sub / "bad.py").write_text(
            "import numpy as np\nnp.random.rand(3)\n", encoding="utf-8"
        )
        report = lint_paths([sub], rules=[UnseededRngRule()], root=tmp_path)
        assert report.files_checked == 2
        assert [f.file for f in report.findings] == ["pkg/bad.py"]

    def test_syntax_error_becomes_gr000(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n", encoding="utf-8")
        report = lint_paths([tmp_path], rules=[], root=tmp_path)
        assert len(report.findings) == 1
        assert report.findings[0].rule_id == PARSE_ERROR_RULE

    def test_unknown_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "nope.txt"], rules=[])

    def test_iter_python_files_skips_pycache(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "mod.cpython-311.py").write_text("x=1", encoding="utf-8")
        (tmp_path / "real.py").write_text("x=1", encoding="utf-8")
        files = iter_python_files([tmp_path])
        assert [f.name for f in files] == ["real.py"]


class TestReport:
    def _finding(self, **overrides):
        values = dict(
            rule_id="GR001", severity="error", message="m",
            file="a.py", line=3, col=0, snippet="np.random.rand()",
        )
        values.update(overrides)
        return Finding(**values)

    def test_exit_codes(self):
        assert LintReport().exit_code() == 0
        assert LintReport(findings=[self._finding()]).exit_code() == 1

    def test_sort_is_by_location_then_rule(self):
        unsorted = [
            self._finding(file="b.py", line=1),
            self._finding(file="a.py", line=9),
            self._finding(file="a.py", line=2),
        ]
        ordered = sort_findings(unsorted)
        assert [(f.file, f.line) for f in ordered] == [
            ("a.py", 2), ("a.py", 9), ("b.py", 1),
        ]

    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError):
            self._finding(severity="fatal")

    def test_lint_source_helper(self):
        findings = lint_source(
            "import numpy as np\nnp.random.rand(2)\n", "x.py",
            [UnseededRngRule()],
        )
        assert len(findings) == 1
        assert findings[0].location() == "x.py:2"
