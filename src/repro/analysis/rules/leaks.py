"""resource-leak: handle lifetime tracking on non-exception paths.

Every acquisition of an OS-backed resource — ``open``/``os.open`` file
handles, ``mmap.mmap`` maps, ``multiprocessing.Pipe()`` connection pairs,
``Process`` handles, ``os.pipe()`` fd pairs — must reach a release
(``close``/``join``/``terminate``/…) or be acquired by a ``with``
statement on every **non-exception** path. The sharded serving tier
leaks silently otherwise: a worker that early-returns past ``conn.close``
pins the pipe fd for the life of the parent.

The tracker is deliberately a *must-leak* detector, tuned for zero false
positives rather than completeness:

* any escape ends tracking — storing into ``self.x`` or a container,
  returning/yielding the handle, passing it to a call, aliasing it, or
  capturing it in a nested ``def``/``lambda`` transfers ownership to
  code this rule cannot see;
* an ``if``/``else`` join keeps a handle tracked only when it is still
  open (and unescaped) in **both** branches;
* ``try`` bodies are analysed on the non-exception path (body →
  ``else`` → ``finally``); releases inside ``except`` handlers also
  count, so cleanup-in-handler never trips the rule.

What survives all of that and is still open at a ``return`` or at the
end of the function leaks on a path that raises nothing — the report
anchors at the acquisition site.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from . import Rule, register

#: Canonical call targets that hand back one closable handle.
_SINGLE_ACQUIRERS = frozenset({
    "open", "io.open", "os.open", "os.fdopen", "gzip.open", "bz2.open",
    "lzma.open", "mmap.mmap", "tempfile.NamedTemporaryFile",
    "tempfile.TemporaryFile", "socket.socket",
})

#: Last-segment names that hand back a handle regardless of the prefix
#: (``multiprocessing.Pipe``, ``ctx.Pipe``, ``self._mp.Process``...).
_SUFFIX_ACQUIRERS = frozenset({"Pipe", "Process"})

#: Call targets returning a *pair* of handles to unpack.
_PAIR_ACQUIRERS = frozenset({"os.pipe"})

_RELEASE_METHODS = frozenset({
    "close", "join", "terminate", "kill", "release", "shutdown", "stop",
})

#: ``os.close(fd)``-style releases taking the handle as first argument.
_RELEASE_CALLS = frozenset({"os.close"})


class _Handle:
    __slots__ = ("name", "node", "what")

    def __init__(self, name: str, node: ast.AST, what: str):
        self.name = name
        self.node = node
        self.what = what


class _Tracker:
    """Statement-level handle tracking through one function body."""

    def __init__(self, rule, module, fn):
        self.rule = rule
        self.module = module
        self.fn = fn
        self.leaks: Dict[Tuple[int, int, str], _Handle] = {}
        #: inside an ``except`` handler: an exception path, whose exits
        #: never count as leaks (the acquisition may not have happened).
        self._in_handler = False

    def run(self) -> List:
        env: Dict[str, _Handle] = {}
        self._stmts(self.fn.node.body, env)
        self._record_exit(env)
        findings = []
        for handle in self.leaks.values():
            findings.append(self.module.finding(
                self.rule.rule_id, handle.node,
                f"{handle.what} `{handle.name}` acquired here never "
                f"reaches close()/join() on a non-exception path (and "
                f"never escapes this function); use a `with` block or "
                f"close it before every return"))
        return findings

    def _record_exit(self, env: Dict[str, _Handle]) -> None:
        if self._in_handler:
            return
        for handle in env.values():
            key = (getattr(handle.node, "lineno", 0),
                   getattr(handle.node, "col_offset", 0), handle.name)
            self.leaks[key] = handle

    # ------------------------------------------------------------ statements

    def _stmts(self, stmts, env: Dict[str, _Handle]) -> None:
        for stmt in stmts:
            self._stmt(stmt, env)

    def _stmt(self, stmt, env: Dict[str, _Handle]) -> None:
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value, stmt, env)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign([stmt.target], stmt.value, stmt, env)
        elif isinstance(stmt, ast.AugAssign):
            self._escape_in(stmt.value, env)
        elif isinstance(stmt, ast.Expr):
            self._expr_stmt(stmt.value, env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._escape_in(stmt.value, env)
            self._record_exit(env)
            if not self._in_handler:
                # the rest of this block is unreachable; inside a
                # handler the env copy must survive untouched so a bare
                # `return` is not mistaken for a release on the main
                # path.
                env.clear()
        elif isinstance(stmt, ast.If):
            then_env = dict(env)
            else_env = dict(env)
            self._stmts(stmt.body, then_env)
            self._stmts(stmt.orelse, else_env)
            env.clear()
            # must-leak join: open only when open on both branches
            for name, handle in then_env.items():
                if name in else_env:
                    env[name] = handle
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._escape_in(stmt.iter, env)
            self._stmts(stmt.body, env)
            self._stmts(stmt.orelse, env)
        elif isinstance(stmt, ast.While):
            self._escape_in(stmt.test, env)
            self._stmts(stmt.body, env)
            self._stmts(stmt.orelse, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                # `with open(...)` is the blessed form: never tracked.
                if not self._acquisition(item.context_expr):
                    self._escape_in(item.context_expr, env)
            self._stmts(stmt.body, env)
        elif isinstance(stmt, ast.Try):
            self._stmts(stmt.body, env)
            for handler in stmt.handlers:
                # Handlers run on exception paths we do not report, but
                # cleanup there still counts: anything the handler
                # releases or escapes stops being tracked on the main
                # path too (else close-in-except would be a false
                # positive).
                handler_env = dict(env)
                was_in_handler = self._in_handler
                self._in_handler = True
                self._stmts(handler.body, handler_env)
                self._in_handler = was_in_handler
                for name in list(env):
                    if name not in handler_env:
                        del env[name]
            self._stmts(stmt.orelse, env)
            self._stmts(stmt.finalbody, env)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            self._escape_captured(stmt, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            pass  # exception paths are out of scope
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._escape_in(child, env)

    def _assign(self, targets, value, stmt, env) -> None:
        acquisition = self._acquisition(value)
        if acquisition is not None:
            what, pair = acquisition
            for target in targets:
                if isinstance(target, ast.Name):
                    env[target.id] = _Handle(target.id, stmt, what)
                elif pair and isinstance(target, (ast.Tuple, ast.List)) \
                        and all(isinstance(e, ast.Name)
                                for e in target.elts):
                    for element in target.elts:
                        env[element.id] = _Handle(element.id, stmt, what)
                # any other target shape: handle escapes immediately
            return
        self._escape_in(value, env)
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    env.pop(node.id, None)

    def _expr_stmt(self, value, env) -> None:
        if isinstance(value, ast.Call):
            func = value.func
            # h.close() / proc.join() on a tracked handle releases it
            if isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id in env:
                if func.attr in _RELEASE_METHODS:
                    env.pop(func.value.id, None)
                # other methods on the handle (start, fileno, send)
                # keep it tracked; only args escape.
                for argument in value.args:
                    self._escape_in(argument, env)
                for keyword in value.keywords:
                    self._escape_in(keyword.value, env)
                return
            # os.close(fd)
            resolved = self.module.resolve_name(func) or ""
            if resolved in _RELEASE_CALLS and value.args \
                    and isinstance(value.args[0], ast.Name):
                env.pop(value.args[0].id, None)
                return
        self._escape_in(value, env)

    # -------------------------------------------------------------- escapes

    def _escape_in(self, node, env) -> None:
        """Any tracked name referenced under ``node`` escapes."""
        if node is None or not env:
            return
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                env.pop(child.id, None)

    def _escape_captured(self, stmt, env) -> None:
        self._escape_in(stmt, env)

    # --------------------------------------------------------- acquisitions

    def _acquisition(self, node) -> Optional[Tuple[str, bool]]:
        """``(kind, is_pair)`` when ``node`` acquires a handle."""
        if not isinstance(node, ast.Call):
            return None
        resolved = self.module.resolve_name(node.func)
        if resolved is None:
            return None
        if resolved in _SINGLE_ACQUIRERS:
            return resolved.rsplit(".", 1)[-1] + " handle", False
        if resolved in _PAIR_ACQUIRERS:
            return "pipe fd", True
        suffix = resolved.rsplit(".", 1)[-1]
        if suffix in _SUFFIX_ACQUIRERS:
            if suffix == "Pipe":
                return "Pipe connection", True
            return "Process handle", False
        return None


@register
class ResourceLeakRule(Rule):
    rule_id = "resource-leak"
    description = ("Pipe/Process/file/mmap handles must reach close/join "
                   "or a with-block on every non-exception path")
    default_options: Dict = {}

    def check(self, module, program, options):
        findings = []
        for fn in program.functions.values():
            if fn.module is not module:
                continue
            tracker = _Tracker(self, module, fn)
            findings.extend(tracker.run())
        return findings
