"""GR004 — payload parts that are not ndarrays of a wire dtype.

``CompressedTensor.nbytes`` sums ``part.nbytes`` over the payload: a
Python list coerces through ``np.asarray`` to whatever dtype NumPy
guesses (ints become int64 — 8 bytes each where the compressor meant
packed bits), and an object-dtype array counts pointer bytes instead of
data.  Both silently mis-size the accounted wire volume, which is the
one number every compression-ratio and throughput claim rests on.  The
runtime side of this rule is :class:`repro.core.contract.ContractChecker`
and the typed :class:`repro.core.api.PayloadTypeError` raised by the
wire framer; the static side flags payload list elements that are
obviously not ndarrays, and parts cast with ``.astype(<literal dtype>)``
to a dtype outside :data:`repro.core.api.WIRE_DTYPES` (a uint32 or bool
part passes every sequential run and then fails to frame when the
payload crosses processes).
"""

from __future__ import annotations

import ast
import builtins

import numpy as np

from repro.analysis.lint.engine import ModuleSource, Rule
from repro.core.api import WIRE_DTYPES

#: Calls that produce Python containers, not ndarrays.
_CONTAINER_CALLS = frozenset({"list", "tuple", "dict", "set"})


class PayloadTypeRule(Rule):
    """Flag payload list elements that cannot be ndarrays."""

    rule_id = "GR004"
    title = "non-ndarray payload part defeats nbytes accounting"
    severity = "error"

    def check(self, module: ModuleSource) -> list:
        findings = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_function(module, node))
        return findings

    def _check_function(self, module: ModuleSource, func: ast.FunctionDef):
        # Track `payload = [...]` list literals so the common
        # assign-then-construct idiom is checked too.
        list_literals: dict[str, ast.List] = {}
        for stmt in ast.walk(func):
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.List)
            ):
                list_literals[stmt.targets[0].id] = stmt.value
        for stmt in ast.walk(func):
            if not (
                isinstance(stmt, ast.Call)
                and (module.resolve(stmt.func) or "").split(".")[-1]
                == "CompressedTensor"
            ):
                continue
            payload_expr = None
            for keyword in stmt.keywords:
                if keyword.arg == "payload":
                    payload_expr = keyword.value
            if payload_expr is None and stmt.args:
                payload_expr = stmt.args[0]
            if isinstance(payload_expr, ast.Name):
                payload_expr = list_literals.get(payload_expr.id)
            if isinstance(payload_expr, ast.List):
                yield from self._check_elements(module, payload_expr)

    def _check_elements(self, module: ModuleSource, payload: ast.List):
        for element in payload.elts:
            problem = self._element_problem(module, element)
            if problem:
                yield self.finding(
                    module, element,
                    f"payload part is {problem}; every part must be an "
                    "np.ndarray with a real dtype so nbytes accounting "
                    "(and the wire framer) size it honestly",
                )

    def _element_problem(
        self, module: ModuleSource, element: ast.AST
    ) -> str | None:
        if isinstance(element, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
            return "a Python container literal"
        if isinstance(element, ast.Constant):
            return "a bare constant"
        if isinstance(element, ast.Call):
            name = module.resolve(element.func) or ""
            tail = name.split(".")[-1]
            if tail in _CONTAINER_CALLS:
                return f"a {tail}() call (a Python container)"
            if tail == "tolist" or (
                isinstance(element.func, ast.Attribute)
                and element.func.attr == "tolist"
            ):
                return "a .tolist() result (a Python list)"
            if (
                isinstance(element.func, ast.Attribute)
                and element.func.attr == "astype"
                and element.args
            ):
                dtype = self._literal_dtype(module, element.args[0])
                if dtype is not None and dtype not in WIRE_DTYPES:
                    return (
                        f"cast to {dtype}, a dtype the wire cannot frame"
                    )
            for keyword in element.keywords:
                if (
                    keyword.arg == "dtype"
                    and (
                        module.resolve(keyword.value)
                        in ("object", "numpy.object_")
                        or (
                            isinstance(keyword.value, ast.Constant)
                            and keyword.value.value in ("object", "O")
                        )
                    )
                ):
                    return "an object-dtype array (nbytes counts pointers)"
        return None

    @staticmethod
    def _literal_dtype(module: ModuleSource, node: ast.AST) -> np.dtype | None:
        """The dtype a literal names (``np.uint32``, ``"bool"``, ``int``);
        ``None`` for anything computed."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            literal = node.value
        else:
            head, _, name = (module.resolve(node) or "").rpartition(".")
            namespace = {"numpy": np, "": builtins}.get(head)
            literal = getattr(namespace, name, None) if namespace else None
            if literal is None:
                return None
        try:
            return np.dtype(literal)
        except TypeError:
            return None
