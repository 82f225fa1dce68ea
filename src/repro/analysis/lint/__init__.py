"""``repro.analysis.lint`` — AST contract checking for the GRACE stack.

A small, dependency-free static-analysis framework (engine + pluggable
:class:`Rule` API) plus the eleven repo-specific rules that
machine-check the conventions the codebase's correctness rests on:

========  ==========================================================
GR001     global/unseeded NumPy RNG in library code
GR002     float64 leakage into compressor/ndl float32 hot paths
GR003     tensor-derived values in ``ctx`` instead of the payload
GR004     payload parts that are not ndarrays
GR005     nonblocking collective handles never waited on
GR006     telemetry spans opened outside a context manager
GR007     payload stores after sequence-number publication
GR008     poll loops without a heartbeat or abort check
GR009     spawn-unsafe targets, captures or module side effects
GR010     blocking collectives while an async handle is undrained
GR011     metric names missing from the generated registry manifest
========  ==========================================================

Run it with ``repro lint``; it exits 1 on any finding not suppressed
inline.  Rule rationale and suppression mechanics are documented in
``docs/ANALYSIS.md``.  The runtime complement is
:class:`repro.core.contract.ContractChecker`.
"""

from repro.analysis.lint.engine import (
    LintReport, ModuleSource, Rule, lint_paths, lint_source,
)
from repro.analysis.lint.findings import Finding, sort_findings
from repro.analysis.lint.output import render_json, render_text
from repro.analysis.lint.rules import default_rules

__all__ = [
    "Finding",
    "LintReport",
    "ModuleSource",
    "Rule",
    "default_rules",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "sort_findings",
]
