"""dtype-discipline: float64 is canonical in the numeric packages.

The autodiff engine, the exact measures and their caches all assume
float64 (``Parameter`` coerces to it, ``Tensor`` coerces non-float input,
cache keys hash float64 bytes, and the fused kernels' bit-identical
guarantees only hold in one precision).
A stray float32 array entering a kernel would silently change results;
an array built *without* an explicit dtype inherits whatever its input
happened to be. Inside the configured packages this rule flags:

* numpy array constructors (``zeros``/``ones``/``empty``/``full``/
  ``array``/``asarray``/...) with **no** explicit ``dtype`` — spell it,
  even for int/bool arrays: explicitness is the discipline;
* an explicit **non-float64 floating** dtype anywhere (``float32``,
  ``float16``, ``half``, ``single``) in constructors or ``.astype``.

Integer and bool dtypes are fine when explicit (indices and masks are
legitimate); ``*_like`` constructors are exempt (they deliberately
inherit their prototype's dtype).

The rule reads one call at a time: a dtype that travels through a
variable (``compact = np.float32``) is invisible to it. What reaches the
encoder is held at run time instead: after one training step every
encoder parameter has float64 data and a nonzero float64 gradient, and
``embed`` returns float64 (``tests/core/test_encoder.py``).
"""

from __future__ import annotations

import ast
from typing import List, Optional

from . import Rule, register
from ..program import dotted_name

#: Constructor -> 0-based positional index where dtype may be passed.
_CTOR_DTYPE_POS = {
    "zeros": 1,
    "ones": 1,
    "empty": 1,
    "full": 2,
    "array": 1,
    "asarray": 1,
    "ascontiguousarray": 1,
    "asfortranarray": 1,
    "fromiter": 1,
    "frombuffer": 1,
    "arange": 4,
}

_BAD_FLOAT_NAMES = frozenset({"float32", "float16", "half", "single",
                              "csingle", "complex64"})


def _dtype_expr_name(node: ast.AST) -> Optional[str]:
    """Best-effort name of a dtype expression (``np.float32`` -> float32)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    name = dotted_name(node)
    if name:
        return name.split(".")[-1]
    return None


@register
class DtypeDiscipline(Rule):
    rule_id = "dtype-discipline"
    description = ("numpy constructors in repro.nn/repro.measures must "
                   "state an explicit dtype; floating dtypes must be "
                   "float64")
    default_options = {"packages": ()}

    def check(self, module, program, options) -> List:
        packages = options.get("packages", ())
        if packages and not any(p in module.rel_path for p in packages):
            return []
        out = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            out.extend(self._check_constructor(module, node))
            out.extend(self._check_astype(module, node))
        return out

    def _check_constructor(self, module, node: ast.Call) -> List:
        name = module.resolve_name(node.func)
        if not name or not name.startswith("numpy."):
            return []
        ctor = name[len("numpy."):]
        if ctor not in _CTOR_DTYPE_POS:
            return []
        dtype_expr = self._explicit_dtype(node, _CTOR_DTYPE_POS[ctor])
        if dtype_expr is None:
            return [module.finding(
                self.rule_id, node,
                f"np.{ctor}() without an explicit dtype; float64 is "
                f"canonical here — spell dtype= (even for int/bool "
                f"arrays)")]
        return self._check_dtype_value(module, node, dtype_expr)

    def _check_astype(self, module, node: ast.Call) -> List:
        if not isinstance(node.func, ast.Attribute) \
                or node.func.attr != "astype":
            return []
        dtype_expr = self._explicit_dtype(node, 0)
        if dtype_expr is None:
            return []
        return self._check_dtype_value(module, node, dtype_expr)

    def _check_dtype_value(self, module, node: ast.Call,
                           dtype_expr: ast.AST) -> List:
        dtype_name = _dtype_expr_name(dtype_expr)
        if dtype_name in _BAD_FLOAT_NAMES:
            return [module.finding(
                self.rule_id, node,
                f"non-canonical floating dtype {dtype_name!r}; the "
                f"engine/measures contract is float64 end to end")]
        return []

    @staticmethod
    def _explicit_dtype(node: ast.Call, pos: int) -> Optional[ast.AST]:
        for keyword in node.keywords:
            if keyword.arg == "dtype":
                return keyword.value
        if len(node.args) > pos:
            return node.args[pos]
        return None
