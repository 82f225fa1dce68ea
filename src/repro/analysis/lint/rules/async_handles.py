"""GR005 — nonblocking collective handles that are never drained.

``iallreduce_parts`` / ``iallgather`` return an ``AsyncHandle`` whose
``wait()`` both yields the result and anchors the simulated-timeline
event; THC-style aggregation bugs in compression pipelines are exactly
this shape — a code path that fires the collective and never joins it,
so the gradient silently never arrives (or the timeline never charges
the transfer).  The real-parallel backend raised the stakes: a leaked
``ParallelAsyncHandle`` leaves an arena sequence number unposted, which
is not a quiet accounting error but a cross-rank deadlock.

The rule flags a handle-producing call — a nonblocking launcher *or* a
direct ``ParallelAsyncHandle``/``AsyncHandle`` construction — whose
result is discarded outright, or bound to a local name the enclosing
function never touches again.  Any later use counts as draining:
``.wait()``, ``.result``, appending to a pending list, returning or
passing the handle on, and in particular drains on recovery paths —
a handle waited (or cancelled) only inside an
``except ArenaAbortedError`` / watchdog-recovery handler is still
owned code, not a leak, so the whole function body including every
``except`` block is searched for uses.
"""

from __future__ import annotations

import ast

from repro.analysis.lint.engine import ModuleSource, Rule

#: Attribute names of the nonblocking collective launchers.
NONBLOCKING_CALLS = frozenset({
    "iallreduce_parts", "iallgather", "iallreduce", "ibroadcast", "ireduce",
    "iexchange_objects",
})

#: Handle types whose direct construction creates drain responsibility.
HANDLE_CONSTRUCTORS = frozenset({"ParallelAsyncHandle", "AsyncHandle"})


class UndrainedHandleRule(Rule):
    """Flag fire-and-forget nonblocking collective calls."""

    rule_id = "GR005"
    title = "nonblocking collective handle never waited on"
    severity = "error"

    def check(self, module: ModuleSource) -> list:
        findings = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_function(module, node))
        return findings

    def _handle_source(self, node: ast.AST) -> str | None:
        """Label of a handle-producing call, or None."""
        if not isinstance(node, ast.Call):
            return None
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in NONBLOCKING_CALLS
        ):
            return f"{node.func.attr}()"
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in HANDLE_CONSTRUCTORS
        ):
            return f"{node.func.id}(...)"
        return None

    def _check_function(self, module: ModuleSource, func: ast.FunctionDef):
        # The launcher methods themselves (and thin wrappers that hand
        # the handle straight back) return the call — that is ownership
        # transfer, not a leak.
        statements = list(ast.walk(func))
        for stmt in statements:
            if isinstance(stmt, ast.Expr):
                source = self._handle_source(stmt.value)
                if source is not None:
                    yield self.finding(
                        module, stmt.value,
                        f"result of {source} is discarded; the "
                        "collective's handle must be waited on (or handed "
                        "off) or the aggregated payload never lands — "
                        "under the parallel backend the leaked sequence "
                        "number deadlocks the peer ranks",
                    )
            elif (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                source = self._handle_source(stmt.value)
                if source is None:
                    continue
                name = stmt.targets[0].id
                if not self._used_later(func, stmt, name):
                    yield self.finding(
                        module, stmt.value,
                        f"handle {name!r} from {source} is never used "
                        f"again in this function; call {name}.wait() (or "
                        "hand the handle off) so the collective actually "
                        "drains",
                    )

    def _used_later(
        self, func: ast.FunctionDef, assign: ast.Assign, name: str
    ) -> bool:
        """Whether ``name`` is loaded anywhere else in the function.

        The walk deliberately includes ``except`` handlers and
        ``finally`` blocks: a drain on the ArenaAbortedError recovery
        path is a legitimate hand-off, not a leak.
        """
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Name)
                and node.id == name
                and isinstance(node.ctx, ast.Load)
            ):
                return True
        return False
