"""Text and JSON renderers for lint reports."""

from __future__ import annotations

import json

from repro.analysis.lint.engine import LintReport


def render_text(report: LintReport) -> str:
    """Human-readable report: one ``file:line rule message`` per finding."""
    lines: list[str] = []
    for finding in report.findings:
        lines.append(
            f"{finding.location()}: {finding.severity} "
            f"[{finding.rule_id}] {finding.message}"
        )
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    lines.append(
        f"{len(report.findings)} finding(s) in {report.files_checked} "
        f"file(s) ({report.inline_suppressed} inline-suppressed)"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report (the CI artifact format)."""
    return json.dumps(
        {
            "version": 2,
            "ok": report.ok,
            "files_checked": report.files_checked,
            "findings": [f.to_dict() for f in report.findings],
            "inline_suppressed": report.inline_suppressed,
        },
        indent=2,
    )
