"""The module model every rule runs against: parsed modules, class
database, lock inventory.

``python -m repro check`` parses each file once into a
:class:`ModuleInfo`; the syntactic rules need nothing more, while the
whole-program rules (``lockset``, ``resource-leak``) also see *across*
methods and functions through the :class:`ProgramModel` that holds them
all:

* :class:`ModuleInfo` — one parsed module with its dotted name, source
  lines and import map; resolves call names through import aliases and
  anchors findings;
* :class:`ClassInfo` / :class:`FunctionInfo` — a database of every class,
  method and module-level function, with per-class lock inventories
  (``self._x = threading.Lock()`` and Condition aliases such as
  ``self._cond = threading.Condition(self._mu)`` canonicalise to the
  underlying lock attribute);
* :class:`ProgramModel` — the container, with every function keyed
  program-wide.

The model is purely syntactic (no imports are executed) and cheap to
build — parsing dominates. Every rule derives a module's findings from
that module's AST plus this program-wide index.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .findings import Finding

#: Canonical dotted names that construct a mutual-exclusion lock.
LOCK_FACTORIES = frozenset({
    "threading.Lock", "threading.RLock", "threading.Semaphore",
    "threading.BoundedSemaphore", "multiprocessing.Lock",
    "multiprocessing.RLock",
})

#: Condition variables wrap a lock; holding one holds the other.
CONDITION_FACTORIES = frozenset({"threading.Condition"})


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a file path (``src/`` prefixes stripped)."""
    parts = list(Path(rel_path).with_suffix("").parts)
    if "src" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("src"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _import_map(tree: ast.AST) -> Dict[str, str]:
    """Local name -> canonical dotted origin, from the module's imports.

    ``import numpy as np`` maps ``np -> numpy``; ``from random import
    shuffle`` maps ``shuffle -> random.shuffle``. Relative imports are
    ignored (they cannot be stdlib/numpy).
    """
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mapping[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    mapping[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            for alias in node.names:
                local = alias.asname or alias.name
                mapping[local] = f"{node.module}.{alias.name}"
    return mapping


class ModuleInfo:
    """One parsed module of the program."""

    def __init__(self, rel_path: str, source: str, tree: ast.Module):
        self.rel_path = rel_path
        self.name = module_name_for(rel_path)
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.imports = _import_map(tree)
        self.classes: List["ClassInfo"] = []

    def resolve_name(self, node: ast.AST) -> Optional[str]:
        """Dotted name with import aliases canonicalised.

        ``np.random.seed`` (under ``import numpy as np``) resolves to
        ``numpy.random.seed``; a bare ``shuffle`` imported from
        :mod:`random` resolves to ``random.shuffle``.
        """
        name = dotted_name(node)
        if name is None:
            return None
        first, _, rest = name.partition(".")
        origin = self.imports.get(first)
        if origin is None:
            return name
        return f"{origin}.{rest}" if rest else origin

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=rule_id, path=self.rel_path, line=lineno,
                       col=col + 1, message=message,
                       line_text=self.line_text(lineno))


class FunctionInfo:
    """A module-level function or a method."""

    def __init__(self, module: ModuleInfo, node: ast.AST,
                 cls: Optional["ClassInfo"] = None):
        self.module = module
        self.node = node
        self.name = node.name
        self.cls = cls

    @property
    def qualname(self) -> str:
        if self.cls is not None:
            return f"{self.cls.name}.{self.name}"
        return self.name

    @property
    def key(self) -> str:
        """Globally unique id: ``module.dotted.name:Class.method``."""
        return f"{self.module.name}:{self.qualname}"

    @property
    def docstring(self) -> str:
        return ast.get_docstring(self.node, clean=True) or ""


class ClassInfo:
    """A class with its method table and lock inventory."""

    def __init__(self, module: ModuleInfo, node: ast.ClassDef):
        self.module = module
        self.node = node
        self.name = node.name
        self.methods: Dict[str, FunctionInfo] = {}
        #: lock-like attribute -> canonical lock attribute. A plain
        #: ``self._lock = threading.Lock()`` maps to itself; a Condition
        #: built over an existing lock maps to that lock's attribute.
        self.lock_attrs: Dict[str, str] = {}

    def canonical_lock(self, attr: str) -> Optional[str]:
        return self.lock_attrs.get(attr)

    def _index(self) -> None:
        for stmt in self.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[stmt.name] = FunctionInfo(self.module, stmt,
                                                       cls=self)
        # Lock inventory: every `self.<attr> = <factory>(...)` in any
        # method (nested defs included — a closure still writes the field).
        pending_conditions: List[Tuple[str, ast.Call]] = []
        for fn in self.methods.values():
            for node in ast.walk(fn.node):
                if not (isinstance(node, (ast.Assign, ast.AnnAssign))
                        and isinstance(node.value, ast.Call)):
                    continue
                factory = self.module.resolve_name(node.value.func)
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    if factory in LOCK_FACTORIES:
                        self.lock_attrs[target.attr] = target.attr
                    elif factory in CONDITION_FACTORIES:
                        pending_conditions.append((target.attr, node.value))
        for attr, call in pending_conditions:
            underlying = attr
            if call.args:
                arg = call.args[0]
                if isinstance(arg, ast.Attribute) \
                        and isinstance(arg.value, ast.Name) \
                        and arg.value.id == "self" \
                        and arg.attr in self.lock_attrs:
                    underlying = self.lock_attrs[arg.attr]
            self.lock_attrs[attr] = underlying


class ProgramModel:
    """Every parsed module of one run, indexed for cross-file lookups."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}      # rel_path -> module
        self.functions: Dict[str, FunctionInfo] = {}  # key -> function

    def add_module(self, module: ModuleInfo) -> None:
        self.modules[module.rel_path] = module
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionInfo(module, stmt)
                self.functions[fn.key] = fn
            elif isinstance(stmt, ast.ClassDef):
                info = ClassInfo(module, stmt)
                info._index()
                module.classes.append(info)
                for method in info.methods.values():
                    self.functions[method.key] = method
