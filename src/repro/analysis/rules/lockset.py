"""lockset: interprocedural Eraser-style race detection on ``self`` fields.

"Caller must hold" docstrings are not trusted: this whole-program rule
*infers* locking. Per lock-owning class it:

1. collects every read, write and mutating container call
   (``self._queue.append(...)``) on each ``self`` field, together with
   the set of class locks lexically held (``with self._lock:``;
   Condition objects canonicalise to the lock they wrap);
2. propagates held locks through ``self.``-method dispatch: a private
   helper's *entry lockset* is the intersection of the locks held at its
   internal call sites (fixpoint over the class call graph), while
   public and dunder methods are externally callable and start with ∅;
3. treats "Caller must hold ``self._x``" docstrings as *checked claims*:
   the declared lock becomes the helper's entry lockset, and every
   internal call site that does not hold it is flagged as contradicting
   the contract;
4. applies the Eraser condition per field: if the intersection of held
   locksets over all post-``__init__`` accesses is empty — and at least
   one access *is* protected, so the field is evidently meant to be
   guarded — the field is racy, and the finding names both the
   unprotected and a protected access site;
5. reads a leading underscore as the missing intent when *no* access is
   protected: in a class that owns a lock, every post-``__init__`` write
   (tuple targets included) to a private ``self._*`` field is flagged.
   Public fields nobody guards stay out of scope.

Soundness limits (documented in DESIGN "Static analysis"): code
inside nested ``def``/``lambda`` bodies runs later on an unknown thread
and is excluded from the intersection; ``lock.acquire()``/``release()``
pairs are not tracked (the codebase uses ``with`` exclusively);
cross-object attribute writes (``other._field = ...``) are invisible;
fields written only in ``__init__`` are construction-local and skipped.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set

from . import Rule, register

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "insert", "remove", "pop", "popleft",
    "popitem", "clear", "add", "discard", "update", "setdefault", "sort",
    "reverse", "move_to_end",
})

_HELD_MARKERS = ("must hold", "must be held", "caller must hold",
                 "caller holds", "lock held", "while holding")

_SELF_ATTR_RE = re.compile(r"self\.(_?\w+)")

#: Methods whose accesses are construction/destruction-local.
_LIFECYCLE = frozenset({"__init__", "__new__", "__del__"})


class Access(NamedTuple):
    field: str
    kind: str            # "read" | "write" | "mutate"
    node: ast.AST
    held: FrozenSet[str]
    method: str


class InternalCall(NamedTuple):
    callee: str
    node: ast.AST
    held: FrozenSet[str]
    method: str


class _MethodScan:
    """Lexical accesses and self-dispatch call sites of one method."""

    def __init__(self, cls, fn):
        self.cls = cls
        self.fn = fn
        self.accesses: List[Access] = []
        self.calls: List[InternalCall] = []
        self._walk(fn.node.body, frozenset())

    # ------------------------------------------------------------ statements

    def _walk(self, stmts: List[ast.stmt], held: FrozenSet[str]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner: Set[str] = set(held)
                for item in stmt.items:
                    lock = self._lock_of(item.context_expr)
                    if lock is not None:
                        inner.add(lock)
                    else:
                        self._expr(item.context_expr, held)
                self._walk(stmt.body, frozenset(inner))
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                pass  # deferred execution: unknown thread, unknown locks
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    self._target(target, held)
                self._expr(stmt.value, held)
            elif isinstance(stmt, ast.AnnAssign):
                self._target(stmt.target, held)
                if stmt.value is not None:
                    self._expr(stmt.value, held)
            elif isinstance(stmt, ast.AugAssign):
                self._target(stmt.target, held, aug=True)
                self._expr(stmt.value, held)
            elif isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    self._target(target, held)
            elif isinstance(stmt, ast.If):
                self._expr(stmt.test, held)
                self._walk(stmt.body, held)
                self._walk(stmt.orelse, held)
            elif isinstance(stmt, ast.While):
                self._expr(stmt.test, held)
                self._walk(stmt.body, held)
                self._walk(stmt.orelse, held)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._expr(stmt.iter, held)
                self._target(stmt.target, held)
                self._walk(stmt.body, held)
                self._walk(stmt.orelse, held)
            elif isinstance(stmt, ast.Try):
                self._walk(stmt.body, held)
                for handler in stmt.handlers:
                    self._walk(handler.body, held)
                self._walk(stmt.orelse, held)
                self._walk(stmt.finalbody, held)
            else:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        self._expr(child, held)

    # ----------------------------------------------------------- expressions

    def _target(self, node: ast.AST, held: FrozenSet[str],
                aug: bool = False) -> None:
        """An assignment target: field write, container-slot mutate, ..."""
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                self._target(element, held)
        elif self._self_attr(node) is not None:
            self._record(self._self_attr(node), "write", node, held)
        elif isinstance(node, ast.Subscript):
            field = self._self_attr(node.value)
            if field is not None:
                self._record(field, "mutate", node, held)
            else:
                self._expr(node.value, held)
            self._expr(node.slice, held)
        elif isinstance(node, ast.Attribute):
            self._expr(node.value, held)
        elif isinstance(node, ast.Starred):
            self._target(node.value, held)

    def _expr(self, node: ast.AST, held: FrozenSet[str]) -> None:
        if isinstance(node, ast.Lambda):
            return  # deferred execution
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                receiver_field = self._self_attr(func.value)
                if receiver_field is not None:
                    kind = "mutate" if func.attr in _MUTATORS else "read"
                    self._record(receiver_field, kind, func.value, held)
                elif isinstance(func.value, ast.Name) \
                        and func.value.id == "self":
                    self.calls.append(InternalCall(func.attr, node, held,
                                                   self.fn.name))
                else:
                    self._expr(func.value, held)
            else:
                self._expr(func, held)
            for arg in node.args:
                self._expr(arg, held)
            for keyword in node.keywords:
                self._expr(keyword.value, held)
            return
        field = self._self_attr(node)
        if field is not None:
            self._record(field, "read", node, held)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.keyword):
                self._expr(child.value, held)
            elif isinstance(child, (ast.expr, ast.comprehension)):
                self._expr(child, held)

    # -------------------------------------------------------------- plumbing

    @staticmethod
    def _self_attr(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            return node.attr
        return None

    def _lock_of(self, node: ast.AST) -> Optional[str]:
        field = self._self_attr(node)
        if field is None:
            return None
        return self.cls.canonical_lock(field)

    def _record(self, field: str, kind: str, node: ast.AST,
                held: FrozenSet[str]) -> None:
        if field in self.cls.lock_attrs:
            return
        self.accesses.append(Access(field, kind, node, held, self.fn.name))


def _contract_locks(fn, cls) -> Optional[FrozenSet[str]]:
    """Locks a "Caller must hold ..." docstring declares, canonicalised."""
    doc = fn.docstring
    if not doc:
        return None
    lowered = doc.lower()
    if not any(marker in lowered for marker in _HELD_MARKERS):
        return None
    declared = {cls.lock_attrs[attr]
                for attr in _SELF_ATTR_RE.findall(doc)
                if attr in cls.lock_attrs}
    if not declared and len(set(cls.lock_attrs.values())) == 1:
        declared = set(cls.lock_attrs.values())
    return frozenset(declared) or None


@register
class LocksetRule(Rule):
    rule_id = "lockset"
    description = ("Eraser-style lockset inference: fields of lock-owning "
                   "classes whose access locksets have an empty "
                   "intersection, unguarded writes to their private "
                   "fields, and call sites contradicting 'caller must "
                   "hold' docstring contracts")
    default_options = {}

    def check(self, module, program, options):
        findings = []
        for cls in module.classes:
            if not cls.lock_attrs:
                continue
            findings.extend(self._check_class(module, cls))
        return findings

    # ------------------------------------------------------------- per class

    def _check_class(self, module, cls):
        scans: Dict[str, _MethodScan] = {
            name: _MethodScan(cls, fn)
            for name, fn in cls.methods.items()
            if name not in _LIFECYCLE
        }
        contracts: Dict[str, FrozenSet[str]] = {}
        for name, fn in cls.methods.items():
            declared = _contract_locks(fn, cls)
            if declared:
                contracts[name] = declared

        entry = self._entry_locksets(cls, scans, contracts)
        findings = []
        findings.extend(self._contract_findings(module, scans, contracts,
                                                entry))
        findings.extend(self._race_findings(module, cls, scans, entry))
        return findings

    def _entry_locksets(self, cls, scans, contracts):
        """Fixpoint: entry lockset of every method of the class."""
        all_locks = frozenset(cls.lock_attrs.values())
        entry: Dict[str, FrozenSet[str]] = {}
        for name in cls.methods:
            if name in contracts:
                entry[name] = contracts[name]
            elif name.startswith("_") and not name.endswith("__"):
                entry[name] = all_locks  # refined downward by call sites
            else:
                entry[name] = frozenset()
        # Call sites per callee (held sets are lexical; effective held
        # at a site is the caller's entry ∪ lexical).
        sites: Dict[str, List[InternalCall]] = {}
        for scan in scans.values():
            for call in scan.calls:
                if call.callee in cls.methods:
                    sites.setdefault(call.callee, []).append(call)
        for _ in range(len(cls.methods) + 1):
            changed = False
            for name in cls.methods:
                if name in contracts or not name.startswith("_") \
                        or name.endswith("__"):
                    continue
                callers = sites.get(name)
                if not callers:
                    new = frozenset()  # never called internally: assume ∅
                else:
                    held_sets = [entry[c.method] | c.held for c in callers]
                    new = frozenset.intersection(*held_sets)
                if new != entry[name]:
                    entry[name] = new
                    changed = True
            if not changed:
                break
        return entry

    def _contract_findings(self, module, scans, contracts, entry):
        findings = []
        for scan in scans.values():
            for call in scan.calls:
                declared = contracts.get(call.callee)
                if not declared:
                    continue
                effective = entry.get(call.method, frozenset()) | call.held
                missing = declared - effective
                if missing:
                    locks = ", ".join(f"self.{lock}"
                                      for lock in sorted(missing))
                    findings.append(module.finding(
                        self.rule_id, call.node,
                        f"call to `self.{call.callee}()` does not hold "
                        f"{locks}, contradicting its \"caller must hold\" "
                        f"docstring contract"))
        return findings

    def _race_findings(self, module, cls, scans, entry):
        accesses: Dict[str, List[Access]] = {}
        for scan in scans.values():
            base = entry.get(scan.fn.name, frozenset())
            for access in scan.accesses:
                effective = access._replace(held=access.held | base)
                accesses.setdefault(access.field, []).append(effective)

        findings = []
        for field, sites in sorted(accesses.items()):
            if not any(a.kind in ("write", "mutate") for a in sites):
                continue  # read-only after __init__: no race to have
            if not any(a.held for a in sites):
                # Never guarded anywhere. A public field carries no
                # locking intent; a private one in a lock-owning class
                # does, so each of its bare writes is reported.
                if field.startswith("_"):
                    lock = sorted(cls.lock_attrs.values())[0]
                    findings.extend(
                        module.finding(
                            self.rule_id, write.node,
                            f"{cls.name} guards state with self.{lock} "
                            f"but `{write.method}` writes `self.{field}` "
                            f"holding no lock, and no other access to it "
                            f"is guarded")
                        for write in sites if write.kind == "write")
                continue
            intersection = frozenset.intersection(
                *[a.held for a in sites])
            if intersection:
                continue
            unprotected = min(
                (a for a in sites if not a.held),
                key=lambda a: (0 if a.kind in ("write", "mutate") else 1,
                               a.node.lineno),
                default=None)
            if unprotected is None:
                # Sites hold different locks but never none; still racy.
                unprotected = min(sites, key=lambda a: a.node.lineno)
            protected = next((a for a in sorted(
                sites, key=lambda a: a.node.lineno) if a.held
                and a is not unprotected), None)
            if protected is None:
                continue
            held_desc = ("no lock" if not unprotected.held else
                         "only " + ", ".join(f"self.{lock}" for lock in
                                             sorted(unprotected.held)))
            other_locks = ", ".join(f"self.{lock}"
                                    for lock in sorted(protected.held))
            findings.append(module.finding(
                self.rule_id, unprotected.node,
                f"field `self.{field}` of {cls.name}: lockset "
                f"intersection over {len(sites)} access site(s) is empty "
                f"— this {unprotected.kind} in `{unprotected.method}` "
                f"holds {held_desc}, but the {protected.kind} at line "
                f"{protected.node.lineno} in `{protected.method}` holds "
                f"{other_locks}"))
        return findings
