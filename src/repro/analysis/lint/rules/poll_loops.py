"""GR008 — poll loops in ``comm/`` that can outlive a dead cluster.

The watchdog (PR 9) convicts a rank by heartbeat staleness and unblocks
survivors by setting the arena's abort word.  Both mechanisms assume
every wait loop in the communication layer cooperates: it *beats* the
heartbeat so the parent can tell "slow" from "dead", and it *checks*
the abort word so a conviction actually interrupts it.  A poll loop
that does neither is invisible to the watchdog while alive and immune
to it when aborted — the precise shape of bug the runtime machinery
cannot catch, because the symptom is a hang.

The rule finds the poll loops of ``comm/`` — a ``while`` that sleeps
(``time.sleep`` or an ``Event.wait``-style timed wait), or one whose
condition or body re-reads an arena control word (``_posted``,
``_drained``, ``_status``, the abort flag; directly, through a local
alias, or in a module-local helper it calls), *sleeping or not*: the
spin phase of a spin-then-sleep wait is exactly a poll loop that does
not sleep — and demands that the loop, or anything transitively
reachable from it through the module call graph, shows both:

* heartbeat evidence: a call whose name contains ``beat``/``heartbeat``
  or a store to an ``_hb_*`` slot;
* abort evidence: a call to ``_check_abort``-style helpers or a read of
  an ``abort``/``aborted`` attribute.

Sleeps that do not loop (one-shot backoff) and loops that neither sleep
nor look at the arena (bounded drains of a local queue) are out of
scope.
"""

from __future__ import annotations

import ast

from repro.analysis.lint.dataflow import (
    chain_tail,
    local_aliases,
    resolve_chain,
)
from repro.analysis.lint.engine import ModuleSource, Rule

_BEAT_CALL_FRAGMENTS = ("beat", "heartbeat")
_BEAT_STORE_PREFIX = "_hb_"
_ABORT_CALL_FRAGMENTS = ("check_abort", "abort")
_ABORT_ATTRS = frozenset({"aborted", "abort", "_abort"})
# What a rank polls.  Not plain ``abort``: ``arena.abort()`` raises the
# flag (the parent's loops do that), it does not wait on it.
_CONTROL_WORDS = frozenset(
    {"_posted", "_drained", "_status", "aborted", "_abort"}
)


def _sleeps(node: ast.AST, module: ModuleSource) -> bool:
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        resolved = module.resolve(call.func)
        if resolved == "time.sleep":
            return True
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "wait"
            and call.args
        ):
            # Timed Event.wait(timeout) — a sleep in disguise.
            return True
    return False


def _reads_control_word(node: ast.AST, aliases) -> bool:
    """A load of an arena control word, by name or through a local
    that aliases one (``posted = self._posted``)."""
    for sub in ast.walk(node):
        if not isinstance(getattr(sub, "ctx", None), ast.Load):
            continue
        if isinstance(sub, ast.Attribute) and sub.attr in _CONTROL_WORDS:
            return True
        if isinstance(sub, ast.Name) and aliases.get(sub.id) is not None:
            if chain_tail(resolve_chain(sub, aliases)) in _CONTROL_WORDS:
                return True
    return False


def _call_names(node: ast.AST) -> list[str]:
    names = []
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            if isinstance(call.func, ast.Attribute):
                names.append(call.func.attr)
            elif isinstance(call.func, ast.Name):
                names.append(call.func.id)
    return names


def _beats(node: ast.AST, aliases) -> bool:
    if any(
        fragment in name
        for name in _call_names(node)
        for fragment in _BEAT_CALL_FRAGMENTS
    ):
        return True
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Assign, ast.AugAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            for target in targets:
                tail = chain_tail(resolve_chain(target, aliases))
                if tail is not None and tail.startswith(_BEAT_STORE_PREFIX):
                    return True
    return False


def _checks_abort(node: ast.AST) -> bool:
    if any(
        fragment in name
        for name in _call_names(node)
        for fragment in _ABORT_CALL_FRAGMENTS
    ):
        return True
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Load)
            and sub.attr in _ABORT_ATTRS
        ):
            return True
    return False


class UncooperativePollLoopRule(Rule):
    """Flag poll loops (sleeping or spinning) that neither beat nor
    check abort."""

    rule_id = "GR008"
    title = "poll loop without heartbeat or abort check"
    severity = "error"
    scopes = ("comm/",)

    def check(self, module: ModuleSource) -> list:
        findings = []
        graph = module.callgraph
        for loop in ast.walk(module.tree):
            if not isinstance(loop, ast.While):
                continue
            caller = graph.enclosing(loop)
            aliases = (
                local_aliases(caller.node) if caller is not None else {}
            )
            # Follow calls out of the loop before concluding anything.
            callees = [
                graph.functions[qualname] for qualname in sorted(
                    graph.reachable_from_node(loop, caller=caller)
                )
            ]
            callee_aliases = [local_aliases(info.node) for info in callees]
            if not (
                _sleeps(loop, module)
                or _reads_control_word(loop, aliases)
                or any(
                    _reads_control_word(info.node, local)
                    for info, local in zip(callees, callee_aliases)
                )
            ):
                continue
            beats = _beats(loop, aliases) or any(
                _beats(info.node, local)
                for info, local in zip(callees, callee_aliases)
            )
            aborts = _checks_abort(loop) or any(
                _checks_abort(info.node) for info in callees
            )
            if beats and aborts:
                continue
            missing = []
            if not beats:
                missing.append("beat the heartbeat")
            if not aborts:
                missing.append("check the abort word")
            findings.append(self.finding(
                module, loop,
                "poll loop does not "
                + " or ".join(missing)
                + " (directly or via any called helper); the watchdog "
                "cannot distinguish it from a dead rank while it runs "
                "and cannot interrupt it once a peer is convicted",
            ))
        return findings
