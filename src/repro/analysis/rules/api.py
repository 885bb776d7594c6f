"""api-hygiene: small API landmines that generic review keeps missing.

* **Mutable default arguments** (``def f(x=[])``, ``=``{}``, ``=set()``,
  ``=list()``, ...) — shared across calls, the classic aliasing bug.
  Default to ``None`` and materialise inside the function.
* **``assert`` for runtime validation** in ``src/`` — asserts vanish
  under ``python -O``; library code must raise typed exceptions from
  :mod:`repro.exceptions` (or the stdlib ones) instead. pytest-style
  code (tests, benchmarks) sets ``flag_asserts: False`` — there the
  assert *is* the reporting mechanism.
"""

from __future__ import annotations

import ast
from typing import List

from . import Rule, register

_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray",
    "collections.OrderedDict", "collections.defaultdict",
    "collections.deque", "collections.Counter",
})

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set,
                     ast.ListComp, ast.DictComp, ast.SetComp)


@register
class ApiHygiene(Rule):
    rule_id = "api-hygiene"
    description = ("no mutable default arguments; no assert for runtime "
                   "validation in library code")
    default_options = {"flag_asserts": True}

    def check(self, module, program, options) -> List:
        flag_asserts = options.get("flag_asserts", True)
        out = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.extend(self._check_defaults(module, node))
            elif flag_asserts and isinstance(node, ast.Assert):
                out.append(module.finding(
                    self.rule_id, node,
                    "assert used for runtime validation; asserts vanish "
                    "under -O — raise a typed exception instead"))
        return out

    def _check_defaults(self, module, fn) -> List:
        out = []
        defaults = list(fn.args.defaults) \
            + [d for d in fn.args.kw_defaults if d is not None]
        for default in defaults:
            if self._is_mutable(module, default):
                out.append(module.finding(
                    self.rule_id, default,
                    f"mutable default argument in {fn.name}(); the object "
                    f"is shared across calls — default to None and build "
                    f"it inside"))
        return out

    @staticmethod
    def _is_mutable(module, node: ast.AST) -> bool:
        if isinstance(node, _MUTABLE_LITERALS):
            return True
        if isinstance(node, ast.Call):
            name = module.resolve_name(node.func)
            return name in _MUTABLE_CALLS
        return False
