"""The AST lint engine: module parsing, the ``Rule`` API, and the runner.

The engine is deliberately small and dependency-free: a
:class:`ModuleSource` wraps one parsed file (source text, AST, import
alias table), a :class:`Rule` inspects it and yields
:class:`~repro.analysis.lint.findings.Finding` objects, and
:func:`lint_paths` drives the walk over files, applies inline
suppressions (``# lint-ignore: GR002``), and returns a
:class:`LintReport`.

Rules resolve NumPy calls through the module's import aliases
(:meth:`ModuleSource.resolve`), so ``np.linalg.norm``,
``numpy.linalg.norm`` and ``from numpy import linalg; linalg.norm`` all
canonicalize to ``numpy.linalg.norm``.
"""

from __future__ import annotations

import abc
import ast
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from repro.analysis.lint.findings import Finding, sort_findings

#: Rule id reserved for files the engine cannot parse.
PARSE_ERROR_RULE = "GR000"

_IGNORE_RE = re.compile(r"#\s*lint-ignore\s*(?::\s*([A-Z0-9,\s]+))?")


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted names they import."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                aliases[local] = name.name if name.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for name in node.names:
                aliases[name.asname or name.name] = (
                    f"{node.module}.{name.name}"
                )
    return aliases


class ModuleSource:
    """One parsed Python module, as rules see it."""

    def __init__(self, path: str, text: str):
        self.path = str(PurePosixPath(path))
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        self.aliases = _import_aliases(self.tree)
        self._callgraph = None

    @property
    def callgraph(self):
        """The module's :class:`~repro.analysis.lint.dataflow.ModuleCallGraph`
        (built lazily; shared by every rule linting this module)."""
        if self._callgraph is None:
            from repro.analysis.lint.dataflow import ModuleCallGraph

            self._callgraph = ModuleCallGraph(self.tree)
        return self._callgraph

    def line(self, lineno: int) -> str:
        """The 1-indexed source line (empty past EOF)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def dotted_name(self, node: ast.AST) -> str | None:
        """``a.b.c`` chain of a Name/Attribute expression, or None."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        return ".".join(reversed(parts))

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted name with the leading import alias expanded.

        ``np.linalg.norm`` resolves to ``numpy.linalg.norm`` when the
        module did ``import numpy as np``; unknown heads resolve as
        written (so intra-repo names still compare usefully).
        """
        dotted = self.dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        expanded = self.aliases.get(head, head)
        return f"{expanded}.{rest}" if rest else expanded


class Rule(abc.ABC):
    """One lint check.

    Subclasses set ``rule_id`` / ``title`` / ``severity`` and implement
    :meth:`check`.  ``scopes`` restricts a rule to files whose
    POSIX-style path contains one of the given substrings; an empty
    tuple means the rule applies to every linted file.
    """

    rule_id: str = "GR999"
    title: str = "untitled rule"
    severity: str = "error"
    scopes: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (POSIX-style)."""
        return not self.scopes or any(scope in path for scope in self.scopes)

    @abc.abstractmethod
    def check(self, module: ModuleSource) -> list[Finding]:
        """All violations of this rule in ``module``."""

    def finding(
        self, module: ModuleSource, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        lineno = getattr(node, "lineno", 1)
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
            file=module.path,
            line=lineno,
            col=getattr(node, "col_offset", 0),
            snippet=module.line(lineno).strip(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(id={self.rule_id})"


def inline_suppressed(module: ModuleSource, finding: Finding) -> bool:
    """Whether the finding's source line carries a matching lint-ignore.

    ``# lint-ignore`` suppresses every rule on that line;
    ``# lint-ignore: GR002, GR005`` suppresses only the listed ids.
    """
    match = _IGNORE_RE.search(module.line(finding.line))
    if match is None:
        return False
    listed = match.group(1)
    if listed is None:
        return True
    return finding.rule_id in {
        rule.strip() for rule in listed.split(",") if rule.strip()
    }


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    inline_suppressed: int = 0
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        """True when no unsuppressed findings remain."""
        return not self.findings

    def exit_code(self) -> int:
        """Process exit code: 1 on any finding, 0 otherwise."""
        return 0 if self.ok else 1


def iter_python_files(paths: list[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            files.add(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {raw}")
    return sorted(files)


def _relative_path(path: Path, root: Path | None) -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def lint_module(module: ModuleSource, rules: list[Rule]) -> list[Finding]:
    """Run every applicable rule over one parsed module."""
    findings: list[Finding] = []
    for rule in rules:
        if rule.applies_to(module.path):
            findings.extend(rule.check(module))
    return findings


def lint_source(text: str, path: str, rules: list[Rule]) -> list[Finding]:
    """Lint in-memory source (unit tests and tooling)."""
    return sort_findings(lint_module(ModuleSource(path, text), rules))


def lint_paths(
    paths: list[str | Path],
    rules: list[Rule],
    root: str | Path | None = None,
) -> LintReport:
    """Lint every Python file under ``paths`` and apply inline
    suppressions.

    ``root`` anchors the repo-relative paths findings report (defaults
    to the current working directory).
    """
    root_path = Path(root) if root is not None else Path.cwd()
    report = LintReport()
    for file_path in iter_python_files(paths):
        rel = _relative_path(file_path, root_path)
        try:
            module = ModuleSource(rel, file_path.read_text(encoding="utf-8"))
        except SyntaxError as error:
            report.findings.append(Finding(
                rule_id=PARSE_ERROR_RULE,
                severity="error",
                message=f"file does not parse: {error.msg}",
                file=rel,
                line=error.lineno or 1,
                col=(error.offset or 1) - 1,
                snippet=(error.text or "").strip(),
            ))
            continue
        report.files_checked += 1
        for finding in lint_module(module, rules):
            if inline_suppressed(module, finding):
                report.inline_suppressed += 1
            else:
                report.findings.append(finding)
    report.findings = sort_findings(report.findings)
    return report
