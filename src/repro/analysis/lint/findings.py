"""Finding objects produced by the lint engine.

A :class:`Finding` pins one rule violation to a ``file:line`` location.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Finding severities, in increasing order of importance.
SEVERITIES = ("note", "warning", "error")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    severity: str
    message: str
    file: str  # POSIX-style path, repo-relative when possible
    line: int  # 1-indexed
    col: int  # 0-indexed, as reported by the ast module
    snippet: str = ""  # the offending source line, stripped

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def location(self) -> str:
        """``file:line`` for terminal output (clickable in most editors)."""
        return f"{self.file}:{self.line}"

    def to_dict(self) -> dict:
        """JSON-ready representation (the ``--format json`` schema)."""
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "snippet": self.snippet,
        }


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Deterministic report order: file, line, column, rule id."""
    return sorted(
        findings, key=lambda f: (f.file, f.line, f.col, f.rule_id)
    )
