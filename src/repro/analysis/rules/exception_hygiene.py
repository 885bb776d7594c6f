"""exception-hygiene: no silent broad catches.

``except Exception`` has legitimate uses at process boundaries (turn
anything into a typed error, answer *something* over HTTP, keep a worker
thread alive) — but every one of them must do something with the error.
This rule flags:

* bare ``except:`` — always;
* ``except Exception`` / ``except BaseException`` handlers that neither
  **re-raise** (a bare ``raise``, a chained ``raise ... from ...``, or
  raising a typed exception from the project's :mod:`repro.exceptions`
  hierarchy — the blessed boundary-wrapping pattern
  ``raise TypedError(...) from exc`` is whitelisted first-class),
  **use the bound exception** (``except ... as exc`` with ``exc``
  referenced — forwarding it to a future, formatting it into a
  response, stashing it), nor **record it** (a
  ``logger.exception/error/warning/...`` call in the body).

Only statements that actually *execute* in the handler count: a
``raise`` (or a log call) inside a nested ``def``/``lambda`` defined by
the handler body is deferred code, not handling. And raising a fresh
*foreign* exception without ``from`` (``raise ValueError("bad")``)
discards the original traceback entirely, so it no longer counts as
re-raising — chain it or wrap it in a typed project exception.

Narrowing the handler to the typed exceptions the call can actually
raise is always the preferred fix; the record path exists for
keep-alive handlers (observer callbacks, daemon loops) where any
failure must be swallowed but never silently.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from . import Rule, register

_BROAD_NAMES = frozenset({"Exception", "BaseException"})

_RECORD_METHODS = frozenset({"exception", "error", "warning", "warn",
                             "critical", "log", "debug", "info"})

#: nested scopes whose bodies are deferred, not executed by the handler.
_DEFERRED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
             ast.ClassDef)


def _broad_name(type_node: ast.AST) -> str:
    """'Exception'/'BaseException' if the except type includes one."""
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) \
        else [type_node]
    for node in nodes:
        if isinstance(node, ast.Name) and node.id in _BROAD_NAMES:
            return node.id
    return ""


def _executed_nodes(stmts) -> Iterator[ast.AST]:
    """Walk statements without descending into deferred scopes."""
    stack = list(stmts)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _DEFERRED):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _typed_exception_names(tree: ast.AST) -> Set[str]:
    """Local names bound to the project's typed exception hierarchy.

    Covers ``from repro.exceptions import X`` and the relative spellings
    (``from ..exceptions import X``) the package itself uses.
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[-1] == "exceptions":
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


@register
class ExceptionHygiene(Rule):
    rule_id = "exception-hygiene"
    description = ("broad except handlers must re-raise (chained, or a "
                   "typed repro exception), use the caught exception, or "
                   "log it; bare except is banned")
    default_options = {}

    def check(self, module, program, options) -> List:
        typed_names = _typed_exception_names(module.tree)
        out = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                out.append(module.finding(
                    self.rule_id, node,
                    "bare `except:` catches SystemExit/KeyboardInterrupt "
                    "too; name the exceptions (at minimum `Exception`) "
                    "and handle them"))
                continue
            broad = _broad_name(node.type)
            if not broad or self._handles(node, module, typed_names):
                continue
            out.append(module.finding(
                self.rule_id, node,
                f"`except {broad}` that neither re-raises (chained or "
                f"typed), uses the exception, nor records it; narrow to "
                f"typed exceptions, `raise ... from exc`, or log before "
                f"swallowing"))
        return out

    def _handles(self, handler: ast.ExceptHandler, module,
                 typed_names: Set[str]) -> bool:
        for node in _executed_nodes(handler.body):
            if isinstance(node, ast.Raise) \
                    and self._reraises(node, module, typed_names):
                return True
            if handler.name and isinstance(node, ast.Name) \
                    and node.id == handler.name:
                return True
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _RECORD_METHODS:
                return True
        return False

    @staticmethod
    def _reraises(node: ast.Raise, module,
                  typed_names: Set[str]) -> bool:
        if node.exc is None:
            return True  # bare `raise`: the original propagates
        if node.cause is not None:
            return True  # `raise ... from ...`: explicitly chained
        # unchained: only a typed project exception is blessed — a
        # foreign `raise ValueError(...)` here drops the real traceback.
        exc = node.exc
        target = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(target, ast.Name) and target.id in typed_names:
            return True
        resolved = module.resolve_name(target) or ""
        return resolved.startswith("repro.exceptions.")
