"""tape-discipline: protect the autodiff tape from out-of-band mutation.

The tape engine (:mod:`repro.nn.tensor`) records backward closures that
capture ``Tensor.data`` arrays *by reference*; any code that mutates a
``.data`` or ``.grad`` buffer after the forward pass silently corrupts
gradients (the classic autograd "don't mutate arrays the tape saw"
failure). Outside the whitelisted engine internals this rule flags:

* assignments to ``<expr>.data`` / ``<expr>.grad`` (plain, augmented,
  and slice/index writes);
* in-place mutator calls on them (``.fill``, ``.sort``, ``np.add.at``,
  ...).

It also checks that configured inference entry points (``embed``,
``extend_prefix``) cannot start taping by accident: each either enters
``no_grad()``, or reaches the engine only through the tape-free kernel —
every use of an owner in the ``kernel_calls`` option is one of its allowed
calls (or hands the owner on as an argument), at least one such call, or
a ``self.`` call of another entry point of its file, is made, and the
body names neither ``Tensor`` nor ``as_tensor``.
"""

from __future__ import annotations

import ast
from typing import List

from . import Rule, register
from ..program import dotted_name

_TAPE_ATTRS = frozenset({"data", "grad"})

#: ndarray methods that mutate in place.
_INPLACE_METHODS = frozenset({"fill", "sort", "resize", "partition",
                              "put", "setfield"})

#: numpy functions whose first argument is mutated in place.
_INPLACE_FUNCS = frozenset({"numpy.add.at", "numpy.subtract.at",
                            "numpy.multiply.at", "numpy.put",
                            "numpy.copyto", "numpy.place", "numpy.putmask"})


def _tape_attr(node: ast.AST) -> str:
    """The ``data``/``grad`` attribute a (possibly subscripted) expr hits."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in _TAPE_ATTRS:
        return node.attr
    return ""


@register
class TapeDiscipline(Rule):
    rule_id = "tape-discipline"
    description = ("no Tensor.data/.grad mutation outside engine internals; "
                   "inference entry points run under no_grad() or reach "
                   "the engine only through the tape-free kernel")
    default_options = {
        "allowed_paths": ("repro/nn/",),
        "entry_points": {},
        "kernel_calls": {},  # owner -> calls an entry point may make on it
    }

    def check(self, module, program, options) -> List:
        findings = []
        allowed = options.get("allowed_paths", ())
        if not any(fragment in module.rel_path for fragment in allowed):
            findings.extend(self._mutations(module))
        findings.extend(self._entry_points(module, options))
        return findings

    # ------------------------------------------------------------- mutations

    def _mutations(self, module) -> List:
        out = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    attr = _tape_attr(target)
                    if attr:
                        out.append(self._mutation_finding(module, node, attr))
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                attr = _tape_attr(node.target)
                if attr:
                    out.append(self._mutation_finding(module, node, attr))
            elif isinstance(node, ast.Call):
                out.extend(self._call_mutation(module, node))
        return out

    def _call_mutation(self, module, node: ast.Call) -> List:
        name = module.resolve_name(node.func)
        if name in _INPLACE_FUNCS and node.args:
            attr = _tape_attr(node.args[0])
            if attr:
                return [module.finding(
                    self.rule_id, node,
                    f"{name}() mutates a tensor .{attr} buffer in place; "
                    f"the tape may hold a reference to it")]
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in _INPLACE_METHODS:
            attr = _tape_attr(node.func.value)
            if attr:
                return [module.finding(
                    self.rule_id, node,
                    f".{node.func.attr}() mutates a tensor .{attr} buffer "
                    f"in place; the tape may hold a reference to it")]
        return []

    def _mutation_finding(self, module, node: ast.AST, attr: str):
        return module.finding(
            self.rule_id, node,
            f"write to a .{attr} buffer outside the autodiff engine; "
            f"arrays recorded on the tape must not be mutated "
            f"(use tensor ops, or detach/copy first)")

    # ---------------------------------------------------------- entry points

    def _entry_points(self, module, options) -> List:
        out = []
        entry_points = options.get("entry_points", {})
        for suffix, names in entry_points.items():
            if not module.rel_path.endswith(suffix):
                continue
            wanted = set(names)
            kernel_calls = options.get("kernel_calls", {})
            for node in ast.walk(module.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and node.name in wanted \
                        and not self._enters_no_grad(node):
                    problem = self._outside_kernel(node, kernel_calls,
                                                   wanted - {node.name})
                    if problem:
                        out.append(module.finding(
                            self.rule_id, node,
                            f"inference entry point {node.name}() neither "
                            f"enters no_grad() nor stays inside the "
                            f"tape-free kernel ({problem}); inference "
                            f"would build a tape"))
        return out

    @staticmethod
    def _outside_kernel(fn: ast.AST, kernel_calls, siblings=frozenset()
                        ) -> str:
        """Why ``fn`` is not kernel-only ("" when it is); a ``self.`` call
        of one of the ``siblings`` entry points counts as a kernel call."""
        nodes = list(ast.walk(fn))
        prefixes = {id(n.value) for n in nodes if isinstance(n, ast.Attribute)}
        # Whole ``a.b.c`` chains only, not the ``a.b`` inside them.
        chains = {dotted_name(n) for n in nodes if id(n) not in prefixes
                  and isinstance(n, (ast.Name, ast.Attribute))} - {None}
        called = {dotted_name(n.func) for n in nodes
                  if isinstance(n, ast.Call)}
        kernel = ({f"{owner}.{call}" for owner, calls in kernel_calls.items()
                   for call in calls}
                  | {f"self.{name}" for name in siblings}) & called
        for name in sorted(chains - kernel):
            if name.split(".")[-1] in ("Tensor", "as_tensor"):
                return f"names {name}"
            # A bare owner may be handed on as an argument, never called.
            if (name in called and name in kernel_calls) or any(
                    name.startswith(owner + ".") for owner in kernel_calls):
                return f"uses {name}"
        return "" if kernel else "makes no kernel call"

    @staticmethod
    def _enters_no_grad(fn: ast.AST) -> bool:
        for node in ast.walk(fn):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    expr = expr.func
                name = dotted_name(expr)
                if name and name.split(".")[-1] == "no_grad":
                    return True
        return False
