"""GR009 — spawn-safety of work shipped across the process boundary.

The parallel backend forks its ranks from a forkserver: everything
handed to a worker — the ``Process`` target, its args, the
``Checkpoint`` payloads recovery reloads — is still pickled in the
parent and rebuilt in the rank.  Three shapes break that contract, and
without the rule each one is discovered only when pickling throws (or
worse, silently re-runs module side effects where nobody expects):

* a ``Process`` target that is a ``lambda``, a nested function, or a
  bound method — none survive pickling;
* spawn args / checkpoint payloads that capture a ``lambda`` or a
  *live* ``Parameter`` (a value built from ``.parameters()`` /
  ``named_parameters()``), which drags the whole model graph through
  the pickle instead of the detached arrays the checkpoint format
  expects;
* module-level side-effecting calls in a module that also starts
  workers: the server imports ``repro.comm.parallel`` and
  ``repro.bench.runner`` once, so their top-level calls run once, in
  the server, and every rank inherits the result; any other module a
  rank needs is imported in the rank, so its top-level calls run once
  per worker (the classic double-init bug).

The rule checks all three.  Top-level calls inside an
``if __name__ == "__main__":`` guard are exempt, as are pure
definitions (decorators, ``TypeVar(...)`` style assignments — only
bare ``Expr`` calls at module scope count as side effects).
"""

from __future__ import annotations

import ast

from repro.analysis.lint.dataflow import local_aliases, resolve_chain
from repro.analysis.lint.engine import ModuleSource, Rule

#: Constructors whose arguments cross the pickle boundary.
SPAWN_SINKS = frozenset({"Process", "Checkpoint"})

#: Call names that yield live parameter objects.
_LIVE_PARAM_CALLS = frozenset({"parameters", "named_parameters"})


def _is_main_guard(node: ast.stmt) -> bool:
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
    )


def _yields_live_parameters(value: ast.AST) -> bool:
    """Whether an expression pulls live ``Parameter`` objects."""
    for node in ast.walk(value):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _LIVE_PARAM_CALLS
        ):
            return True
    return False


class SpawnSafetyRule(Rule):
    """Flag unpicklable or side-effecting material at spawn boundaries."""

    rule_id = "GR009"
    title = "spawn-unsafe target, capture, or module side effect"
    severity = "error"
    scopes = ("comm/", "faults/")

    def check(self, module: ModuleSource) -> list:
        findings = []
        graph = module.callgraph
        sinks = [
            call
            for call in ast.walk(module.tree)
            if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))
            and (
                call.func.id
                if isinstance(call.func, ast.Name)
                else call.func.attr
            )
            in SPAWN_SINKS
        ]
        for call in sinks:
            findings.extend(self._check_sink(module, graph, call))
        if any(
            (c.func.id if isinstance(c.func, ast.Name) else c.func.attr)
            == "Process"
            for c in sinks
        ):
            findings.extend(self._check_module_side_effects(module))
        return findings

    # -- spawn sinks ---------------------------------------------------------

    def _check_sink(self, module, graph, call):
        caller = graph.enclosing(call)
        aliases = local_aliases(caller.node) if caller is not None else {}
        nested = self._nested_function_names(caller)
        for keyword in call.keywords:
            if keyword.arg == "target":
                yield from self._check_target(
                    module, keyword.value, aliases, nested
                )
        payloads = [
            *call.args,
            *(k.value for k in call.keywords if k.arg != "target"),
        ]
        for value in payloads:
            yield from self._check_payload(module, value, aliases)

    def _nested_function_names(self, caller) -> frozenset[str]:
        if caller is None:
            return frozenset()
        return frozenset(
            node.name
            for node in ast.walk(caller.node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not caller.node
        )

    def _check_target(self, module, value, aliases, nested):
        resolved = value
        if isinstance(value, ast.Name):
            alias = aliases.get(value.id)
            if alias is not None:
                resolved = alias
            if value.id in nested:
                yield self.finding(
                    module, value,
                    f"Process target {value.id!r} is a nested function; "
                    "a rank unpickles its target by qualified name and a "
                    "closure-local function cannot be rebuilt in the "
                    "child — hoist it to module level",
                )
                return
        if isinstance(resolved, ast.Lambda):
            yield self.finding(
                module, resolved,
                "Process target is a lambda; lambdas do not pickle, and "
                "a rank gets its target pickled — use a module-level "
                "function",
            )
        elif isinstance(resolved, ast.Attribute) and isinstance(
            resolved.value, ast.Name
        ) and resolved.value.id == "self":
            yield self.finding(
                module, resolved,
                f"Process target self.{resolved.attr} is a bound method; "
                "pickling it drags the whole owning object into the "
                "child — pass a module-level function and explicit state",
            )

    def _check_payload(self, module, value, aliases):
        for node in ast.walk(value):
            if isinstance(node, ast.Lambda):
                yield self.finding(
                    module, node,
                    "lambda captured in a spawn/checkpoint payload; it "
                    "will fail to pickle when the worker starts (or the "
                    "checkpoint is written) — replace with a module-level "
                    "function or plain data",
                )
            elif isinstance(node, ast.Name):
                alias = aliases.get(node.id)
                if alias is not None and _yields_live_parameters(alias):
                    yield self.finding(
                        module, node,
                        f"{node.id!r} holds live Parameter objects (built "
                        "from .parameters()); shipping them across the "
                        "spawn/checkpoint boundary pickles the full model "
                        "graph — detach to plain arrays first",
                    )
        if _yields_live_parameters(value) and not isinstance(value, ast.Name):
            chain = resolve_chain(value, aliases)
            label = chain or "expression"
            yield self.finding(
                module, value,
                f"{label} pulls live Parameter objects directly into a "
                "spawn/checkpoint payload — detach to plain arrays first",
            )

    # -- module scope --------------------------------------------------------

    def _check_module_side_effects(self, module):
        for stmt in module.tree.body:
            if _is_main_guard(stmt):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Call
            ):
                yield self.finding(
                    module, stmt,
                    "module-level side-effecting call in a module that "
                    "starts workers; the rank server or every rank "
                    "re-imports this module and re-runs the call — "
                    "move it under `if __name__ == \"__main__\":` or into "
                    "an explicit init function",
                )
