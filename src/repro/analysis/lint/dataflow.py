"""Interprocedural support for lint rules: call graph + local dataflow.

The original engine (PR 5) gave rules one parsed module and left every
check intra-function: a rule saw a single ``FunctionDef`` and pattern-
matched inside it.  The concurrency rules (GR007–GR010) need more —
``post()`` publishes a sequence number while ``_record_meta()`` writes
the metadata slot, and whether the pair is ordered correctly is only
visible when the rule can *follow the call*.  This module adds the two
pieces that make that possible while staying deliberately lightweight
(no fixpoint iteration, no heap model):

* :class:`ModuleCallGraph` — every function/method defined in the
  module, call-site resolution (``helper(...)``, ``self._helper(...)``)
  and a memoized transitive closure, so a rule can ask "does anything
  reachable from this loop body beat the heartbeat?".
* :func:`local_aliases` / :func:`resolve_chain` — straight-line
  reaching definitions over a function's simple locals, used to expand
  attribute chains through aliases: after ``slot = self._meta[r, i]``
  the store ``slot[0] = offset`` resolves to the chain
  ``self._meta`` even though the name ``slot`` appears in the code.

Both analyses are intentionally conservative in opposite directions:
the call graph *over*-approximates (an unresolvable call contributes
nothing, a method name shared by several classes resolves to all of
them), while alias resolution *under*-approximates (a name reassigned
in a branch resolves to nothing rather than to a guess).  Rules built
on top should treat "unknown" as "no finding".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field


@dataclass
class FunctionInfo:
    """One function or method defined in the linted module."""

    qualname: str  # "f" or "Class.method"
    name: str  # bare name
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None  # enclosing class, if a method
    calls: list[ast.Call] = field(default_factory=list)


def _collect_calls(node: ast.AST) -> list[ast.Call]:
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)]


class ModuleCallGraph:
    """Definitions and call edges of one module, resolved by name.

    Resolution is purely syntactic and module-local:

    * ``helper(...)`` — a module-level function named ``helper``;
    * ``self._helper(...)`` / ``cls._helper(...)`` — a method of the
      caller's own class first, then (if absent there) any class in the
      module that defines the name;
    * ``obj.helper(...)`` — every method named ``helper`` in the
      module (the receiver's type is unknown, so all candidates count).

    Calls into other modules resolve to nothing, which makes closures
    computed here *under*-approximate behaviour but never hallucinate
    it — the right bias for "this loop forgets to beat" style rules.
    """

    def __init__(self, tree: ast.Module):
        self.functions: dict[str, FunctionInfo] = {}
        self._methods_by_name: dict[str, list[FunctionInfo]] = {}
        self._enclosing: dict[int, FunctionInfo] = {}
        self._closure_cache: dict[str, frozenset[str]] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add(node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self._add(item, class_name=node.name)

    def _add(self, node, class_name: str | None) -> None:
        qualname = f"{class_name}.{node.name}" if class_name else node.name
        info = FunctionInfo(
            qualname=qualname,
            name=node.name,
            node=node,
            class_name=class_name,
            calls=_collect_calls(node),
        )
        self.functions[qualname] = info
        if class_name is not None:
            self._methods_by_name.setdefault(node.name, []).append(info)
        for sub in ast.walk(node):
            self._enclosing.setdefault(id(sub), info)

    # -- lookups ------------------------------------------------------------

    def enclosing(self, node: ast.AST) -> FunctionInfo | None:
        """The function/method whose body contains ``node``, if any."""
        return self._enclosing.get(id(node))

    def resolve_call(
        self, call: ast.Call, caller: FunctionInfo | None = None
    ) -> list[FunctionInfo]:
        """Module-local definitions a call site may reach (possibly [])."""
        func = call.func
        if isinstance(func, ast.Name):
            info = self.functions.get(func.id)
            return [info] if info is not None else []
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in ("self", "cls")
                and caller is not None
                and caller.class_name is not None
            ):
                own = self.functions.get(f"{caller.class_name}.{func.attr}")
                if own is not None:
                    return [own]
            return list(self._methods_by_name.get(func.attr, []))
        return []

    def reachable(self, start: FunctionInfo) -> frozenset[str]:
        """Qualnames of every module-local function reachable from
        ``start`` (including itself), following resolved call edges."""
        cached = self._closure_cache.get(start.qualname)
        if cached is not None:
            return cached
        seen: set[str] = set()
        stack = [start]
        while stack:
            info = stack.pop()
            if info.qualname in seen:
                continue
            seen.add(info.qualname)
            for call in info.calls:
                for callee in self.resolve_call(call, caller=info):
                    if callee.qualname not in seen:
                        stack.append(callee)
        closure = frozenset(seen)
        self._closure_cache[start.qualname] = closure
        return closure

    def reachable_from_node(
        self, node: ast.AST, caller: FunctionInfo | None = None
    ) -> frozenset[str]:
        """Closure of every function reachable from calls *inside* a
        subtree (a loop body, a with-block) rather than a whole
        function — the shape GR008 asks about."""
        seen: set[str] = set()
        for call in _collect_calls(node):
            for callee in self.resolve_call(call, caller=caller):
                seen.update(self.reachable(callee))
        return frozenset(seen)


# ---------------------------------------------------------------------------
# Local dataflow: reaching definitions over simple names
# ---------------------------------------------------------------------------


def local_aliases(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, ast.AST | None]:
    """Last-write map of a function's simple locals.

    ``name -> value expression`` for plain single-target assignments;
    names that are also bound by loops, ``with ... as``, unpacking or
    reassigned through augmented stores map to ``None`` ("unknown"), so
    chain resolution through them stops rather than guesses.
    """
    aliases: dict[str, ast.AST | None] = {}

    def poison(target: ast.AST) -> None:
        # Only names actually being *bound* are unknowns; Load-context
        # names inside a subscript/attribute target (the ``self`` in
        # ``self._meta[r] = v``) are reads, not rebinds.
        for node in ast.walk(target):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Store
            ):
                aliases[node.id] = None

    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            if len(node.targets) == 1 and isinstance(
                node.targets[0], ast.Name
            ):
                name = node.targets[0].id
                # Two different definitions of the same name: ambiguous.
                if name in aliases and aliases[name] is not node.value:
                    aliases[name] = None
                else:
                    aliases[name] = node.value
            else:
                for target in node.targets:
                    poison(target)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            poison(node.target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            poison(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    poison(item.optional_vars)
    return aliases


def resolve_chain(
    node: ast.AST,
    aliases: dict[str, ast.AST | None] | None = None,
    _depth: int = 0,
) -> str | None:
    """Dotted attribute chain of an expression, expanded through locals.

    Subscripts are transparent (``self._meta[r, i]`` has the same chain
    as ``self._meta``) and simple local aliases are followed up to a
    small depth, so after ``slot = self._meta[r, i]`` the expression
    ``slot[0]`` resolves to ``"self._meta"``.  Returns ``None`` when
    the base is a call result, a literal, or an unknown name.
    """
    if _depth > 8:
        return None
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        else:
            break
    if isinstance(node, ast.Name):
        if aliases is not None and node.id in aliases:
            value = aliases[node.id]
            if value is None:
                return None
            base = resolve_chain(value, aliases, _depth + 1)
            if base is None:
                return None
            return ".".join([base, *reversed(parts)]) if parts else base
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def chain_tail(chain: str | None) -> str | None:
    """Last component of a dotted chain (``"self._meta"`` -> ``"_meta"``)."""
    if chain is None:
        return None
    return chain.rsplit(".", 1)[-1]


def statement_blocks(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[list[ast.stmt]]:
    """Every straight-line statement list inside ``func``.

    The function body plus the bodies of nested ``if``/``for``/
    ``while``/``with``/``try`` blocks, each as its own ordered list.
    Ordering questions ("does this store come after that one?") are
    only meaningful *within* one block — across a loop back-edge the
    textual order says nothing — so rules iterate blocks independently.
    """
    blocks: list[list[ast.stmt]] = [func.body]
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While, ast.If)):
            blocks.append(node.body)
            if node.orelse:
                blocks.append(node.orelse)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            blocks.append(node.body)
        elif isinstance(node, ast.Try):
            blocks.append(node.body)
            for handler in node.handlers:
                blocks.append(handler.body)
            if node.orelse:
                blocks.append(node.orelse)
            if node.finalbody:
                blocks.append(node.finalbody)
    return blocks
