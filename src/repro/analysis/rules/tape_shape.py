"""tape-shape: abstract interpretation of tensor code on the shape/dtype
lattice.

Runs over ``repro.nn`` modules (and anything that imports them, which is
how encoder fixtures opt in). Each function/method is interpreted
intraprocedurally on the :mod:`repro.analysis.lattice` domains:

* constructor arguments become symbolic dims (``hidden_size`` → ``d``),
  so ``__init__`` seeds a per-class attribute environment in which
  ``self.u_gates`` really is a ``(3d, d)`` array;
* ``forward``/``read``/``tape_step`` bodies then check every
  ``matmul``/``concat``/``stack``/broadcast against the
  symbolic shapes, reporting only *provable* mismatches — a branch join
  produces ⊤, never a guess;
* dtype constants are tracked through aliases, so a ``float32`` that
  reaches a ``Tensor``/``Parameter`` constructor or an ``astype`` via a
  variable is flagged even though no ``np.float32`` literal appears on
  the offending line (the gap the per-file ``dtype-discipline`` rule
  cannot see);
* ``Parameter`` fields that no method outside ``__init__`` (in the class
  or any program-known subclass) ever reads are dead weight: they are
  registered by ``parameters()`` but no forward path touches them, so
  their tape backward is unreachable and their gradient is forever zero.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from . import Rule, register
from .. import lattice
from ..lattice import AbstractValue, BAD_FLOATS, Dim, DTYPE_TOP, F64, Shape

_TOP = object()  # interp value: unknown

_NUMPY_CTORS = {
    "numpy.zeros": F64, "numpy.ones": F64, "numpy.empty": F64,
    "numpy.full": F64, "numpy.zeros_like": None, "numpy.ones_like": None,
    "numpy.empty_like": None,
}

_DTYPE_NAMES = {
    "numpy.float64": "float64", "numpy.float32": "float32",
    "numpy.float16": "float16", "numpy.half": "float16",
    "numpy.single": "float32", "numpy.double": "float64",
    "numpy.complex64": "complex64", "numpy.int64": "int",
    "numpy.int32": "int", "numpy.bool_": "bool",
    "float": "float64", "int": "int", "bool": "bool",
}

_SHAPE_PRESERVING_METHODS = frozenset({
    "softmax", "tanh", "sigmoid", "relu", "exp", "log", "sqrt", "copy",
    "clip", "abs",
})

_TENSOR_CTORS = frozenset({"Tensor", "Parameter"})


def _is_dim(value) -> bool:
    return isinstance(value, Dim)


def _as_array(value) -> Optional[AbstractValue]:
    return value if isinstance(value, AbstractValue) else None


def _as_shape(value) -> Optional[Shape]:
    """A tuple-of-dims interp value as a Shape, if fully understood."""
    if isinstance(value, Dim):
        return Shape.of(value)
    if isinstance(value, tuple):
        dims = []
        for element in value:
            if isinstance(element, Dim):
                dims.append(element)
            else:
                dims.append(Dim.top())
        return Shape(dims)
    return None


class _Interp:
    """One function's abstract interpretation; collects findings."""

    def __init__(self, rule, module, fn,
                 attrs: Optional[Dict[str, object]] = None):
        self.rule = rule
        self.module = module
        self.fn = fn
        self.attrs = attrs if attrs is not None else {}
        self.findings: List = []
        self._flagged: set = set()

    # --------------------------------------------------------------- driving

    def run(self, seed_symbols: bool) -> Dict[str, object]:
        env: Dict[str, object] = {}
        node = self.fn.node
        args = node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if args.vararg:
            names.append(args.vararg.arg)
        for name in names:
            if name == "self":
                continue
            env[name] = Dim.symbol(name) if seed_symbols else _TOP
        self._stmts(node.body, env)
        return env

    def _flag(self, node: ast.AST, message: str) -> None:
        key = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
               message)
        if key in self._flagged:
            return
        self._flagged.add(key)
        self.findings.append(self.module.finding(
            self.rule.rule_id, node, message))

    # ------------------------------------------------------------ statements

    def _stmts(self, stmts, env) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                value = self._eval(stmt.value, env)
                for target in stmt.targets:
                    self._bind(target, value, env)
            elif isinstance(stmt, ast.AnnAssign):
                if stmt.value is not None:
                    self._bind(stmt.target, self._eval(stmt.value, env), env)
            elif isinstance(stmt, ast.AugAssign):
                value = self._binop(stmt, self._load_target(stmt.target, env),
                                    self._eval(stmt.value, env), stmt.op)
                self._bind(stmt.target, value, env)
            elif isinstance(stmt, ast.If):
                self._eval(stmt.test, env)
                then_env = dict(env)
                else_env = dict(env)
                self._stmts(stmt.body, then_env)
                self._stmts(stmt.orelse, else_env)
                self._join_into(env, then_env, else_env)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._eval(stmt.iter, env)
                body_env = dict(env)
                self._bind(stmt.target, _TOP, body_env)
                self._stmts(stmt.body, body_env)
                self._stmts(stmt.orelse, body_env)
                self._join_into(env, env, body_env)
            elif isinstance(stmt, ast.While):
                self._eval(stmt.test, env)
                body_env = dict(env)
                self._stmts(stmt.body, body_env)
                self._join_into(env, env, body_env)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._eval(item.context_expr, env)
                    if item.optional_vars is not None:
                        self._bind(item.optional_vars, _TOP, env)
                self._stmts(stmt.body, env)
            elif isinstance(stmt, ast.Try):
                body_env = dict(env)
                self._stmts(stmt.body, body_env)
                self._stmts(stmt.orelse, body_env)
                for handler in stmt.handlers:
                    self._stmts(handler.body, dict(env))
                self._join_into(env, env, body_env)
                self._stmts(stmt.finalbody, env)
            elif isinstance(stmt, (ast.Return, ast.Expr)):
                if stmt.value is not None:
                    self._eval(stmt.value, env)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                pass  # nested defs (backward closures) are not re-entered
            else:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        self._eval(child, env)

    def _join_into(self, env, a, b) -> None:
        for key in set(a) | set(b):
            va, vb = a.get(key, _TOP), b.get(key, _TOP)
            env[key] = self._join(va, vb)
        for key in [k for k in env if k not in a and k not in b]:
            del env[key]

    @staticmethod
    def _join(a, b):
        if a is b:
            return a
        if isinstance(a, Dim) and isinstance(b, Dim):
            return a.join(b)
        array_a, array_b = _as_array(a), _as_array(b)
        if array_a is not None and array_b is not None:
            return array_a.join(array_b)
        if isinstance(a, str) and isinstance(b, str) and a == b:
            return a
        return _TOP

    def _bind(self, target, value, env) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            elements = value if isinstance(value, tuple) else None
            for i, element in enumerate(target.elts):
                item = elements[i] if elements is not None \
                    and i < len(elements) else _TOP
                self._bind(element, item, env)
        elif isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name) \
                and target.value.id == "self":
            self.attrs[target.attr] = value
        elif isinstance(target, ast.Starred):
            self._bind(target.value, _TOP, env)
        # subscripts and foreign attributes: no tracked cell

    def _load_target(self, target, env):
        if isinstance(target, ast.Name):
            return env.get(target.id, _TOP)
        return _TOP

    # ----------------------------------------------------------- expressions

    def _eval(self, node, env):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return _TOP
            if isinstance(node.value, int):
                return Dim.of(node.value)
            if isinstance(node.value, float):
                return AbstractValue(Shape.of(), F64)
            return _TOP
        if isinstance(node, ast.Name):
            return env.get(node.id, _TOP)
        if isinstance(node, ast.Attribute):
            return self._attribute(node, env)
        if isinstance(node, (ast.Tuple, ast.List)):
            return tuple(self._eval(element, env) for element in node.elts)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            return self._binop(node, left, right, node.op)
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, env)
            if isinstance(operand, Dim) and isinstance(node.op, ast.USub):
                return operand.scaled(-1)
            return operand if _as_array(operand) else _TOP
        if isinstance(node, ast.Call):
            return self._call(node, env)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env)
            return self._join(self._eval(node.body, env),
                              self._eval(node.orelse, env))
        if isinstance(node, ast.Subscript):
            return self._subscript(node, env)
        if isinstance(node, ast.Compare):
            self._eval(node.left, env)
            for comparator in node.comparators:
                self._eval(comparator, env)
            return _TOP
        if isinstance(node, (ast.Lambda,)):
            return _TOP
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child, env)
            elif isinstance(child, ast.comprehension):
                self._eval(child.iter, env)
        return _TOP

    def _attribute(self, node: ast.Attribute, env):
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            if node.attr in self.attrs:
                return self.attrs[node.attr]
            dotted = self.module.resolve_name(node)
            if dotted in _DTYPE_NAMES:
                return _DTYPE_NAMES[dotted]
            return Dim.symbol(f"self.{node.attr}")
        dotted = self.module.resolve_name(node)
        if dotted in _DTYPE_NAMES:
            return _DTYPE_NAMES[dotted]
        base = self._eval(node.value, env)
        array = _as_array(base)
        if array is not None:
            if node.attr == "shape" and not array.shape.is_top:
                return tuple(array.shape.dims)
            if node.attr == "T":
                if not array.shape.is_top:
                    return AbstractValue(Shape(array.shape.dims[::-1]),
                                         array.dtype, array.tensorlike)
                return AbstractValue(dtype=array.dtype)
            if node.attr == "data":
                return AbstractValue(array.shape, array.dtype, False)
            if node.attr == "dtype":
                return array.dtype
        return _TOP

    def _binop(self, node, left, right, op):
        if isinstance(left, Dim) and isinstance(right, Dim):
            if isinstance(op, ast.Add):
                return left.plus(right)
            if isinstance(op, ast.Sub):
                return left.plus(right.scaled(-1))
            if isinstance(op, ast.Mult):
                if left.known_const() is not None:
                    return right.scaled(left.known_const())
                if right.known_const() is not None:
                    return left.scaled(right.known_const())
                return Dim.top()
            if isinstance(op, ast.FloorDiv) \
                    and right.known_const() is not None:
                k = right.known_const()
                if k and left.coeff % k == 0 and left.const % k == 0:
                    return Dim(coeff=left.coeff // k, sym=left.sym,
                               const=left.const // k)
            return Dim.top()
        array_left, array_right = _as_array(left), _as_array(right)
        if isinstance(op, ast.MatMult):
            if array_left is not None and array_right is not None:
                result, error = lattice.matmul(array_left.shape,
                                               array_right.shape)
                if error:
                    self._flag(node, f"matmul of {array_left.shape!r} @ "
                                     f"{array_right.shape!r}: {error}")
                return self._combine(array_left, array_right, result)
            return _TOP
        if array_left is not None or array_right is not None:
            a = array_left or AbstractValue(Shape.of(),
                                            F64 if isinstance(left, Dim)
                                            else DTYPE_TOP)
            b = array_right or AbstractValue(Shape.of(),
                                             F64 if isinstance(right, Dim)
                                             else DTYPE_TOP)
            result, error = lattice.broadcast(a.shape, b.shape)
            if error:
                self._flag(node, f"elementwise op on {a.shape!r} and "
                                 f"{b.shape!r}: {error}")
            return self._combine(a, b, result)
        return _TOP

    @staticmethod
    def _combine(a: AbstractValue, b: AbstractValue,
                 shape: Shape) -> AbstractValue:
        dtype = a.dtype if a.dtype == b.dtype else (
            a.dtype if b.dtype == DTYPE_TOP else
            b.dtype if a.dtype == DTYPE_TOP else DTYPE_TOP)
        return AbstractValue(shape, dtype, a.tensorlike or b.tensorlike)

    # ----------------------------------------------------------------- calls

    def _call(self, node: ast.Call, env):
        func = node.func
        arg_values = [self._eval(argument, env) for argument in node.args]
        keyword_values = {kw.arg: self._eval(kw.value, env)
                          for kw in node.keywords if kw.arg}
        dotted = self.module.resolve_name(func) or ""
        simple = dotted.rsplit(".", 1)[-1]

        if simple in _TENSOR_CTORS and arg_values:
            return self._tensor_ctor(node, arg_values[0], keyword_values)
        if dotted in _NUMPY_CTORS:
            return self._numpy_ctor(node, dotted, arg_values, keyword_values)
        if dotted in ("numpy.asarray", "numpy.array",
                      "numpy.ascontiguousarray"):
            return self._asarray(node, arg_values, keyword_values)
        if dotted in ("numpy.matmul", "numpy.dot") and len(arg_values) >= 2:
            return self._binop(node, arg_values[0], arg_values[1],
                               ast.MatMult())
        if simple == "concat" and arg_values:
            return self._concat(node, arg_values, keyword_values)
        if simple == "stack" and arg_values:
            return self._stack(node, arg_values, keyword_values)
        if simple == "where" and len(arg_values) >= 3:
            return self._binop(node, arg_values[1], arg_values[2], ast.Add())
        if isinstance(func, ast.Attribute):
            return self._method_call(node, func, env, arg_values,
                                     keyword_values)
        if simple in ("xavier_uniform", "orthogonal", "glorot") \
                and arg_values:
            shape = _as_shape(arg_values[0])
            if shape is not None:
                return AbstractValue(shape, F64)
        if simple in ("zeros", "ones") and arg_values:
            shape = _as_shape(arg_values[0])
            if shape is not None:
                return AbstractValue(shape, F64)
        if simple == "lstm_forget_bias" and arg_values:
            return arg_values[0]
        return _TOP

    def _method_call(self, node, func: ast.Attribute, env, arg_values,
                     keyword_values):
        receiver = self._eval(func.value, env)
        array = _as_array(receiver)
        method = func.attr
        if array is None:
            return _TOP
        if method == "astype" and arg_values:
            dtype = arg_values[0] if isinstance(arg_values[0], str) \
                else DTYPE_TOP
            if dtype in BAD_FLOATS:
                self._flag(node, f"astype to {dtype} violates the float64 "
                                 f"tape discipline (dtype reached this "
                                 f"call through an alias)")
            return AbstractValue(array.shape, dtype, array.tensorlike)
        if method == "reshape":
            return self._reshape(node, array, arg_values)
        if method == "transpose":
            return self._transpose(array, arg_values)
        if method in _SHAPE_PRESERVING_METHODS:
            return AbstractValue(array.shape, array.dtype, array.tensorlike)
        if method in ("sum", "mean", "max", "min"):
            return AbstractValue(dtype=array.dtype,
                                 tensorlike=array.tensorlike)
        return _TOP

    def _tensor_ctor(self, node, data, keyword_values):
        array = _as_array(data)
        shape = array.shape if array is not None else _as_shape(data) \
            or Shape.top()
        if array is not None and array.dtype in BAD_FLOATS:
            self._flag(node, f"{array.dtype} value flows into a tape "
                             f"Tensor: float64 discipline violated through "
                             f"aliasing (the per-file dtype rule cannot "
                             f"see this)")
        return AbstractValue(shape, F64, tensorlike=True)

    def _numpy_ctor(self, node, dotted, arg_values, keyword_values):
        default = _NUMPY_CTORS[dotted]
        dtype = self._dtype_of(node, keyword_values, default or DTYPE_TOP)
        if dotted.endswith("_like"):
            source = _as_array(arg_values[0]) if arg_values else None
            shape = source.shape if source is not None else Shape.top()
            if default is None and "dtype" not in keyword_values \
                    and source is not None:
                dtype = source.dtype
            return AbstractValue(shape, dtype)
        shape = _as_shape(arg_values[0]) if arg_values else None
        return AbstractValue(shape or Shape.top(), dtype)

    def _asarray(self, node, arg_values, keyword_values):
        source = _as_array(arg_values[0]) if arg_values else None
        dtype = self._dtype_of(
            node, keyword_values,
            source.dtype if source is not None else DTYPE_TOP)
        shape = source.shape if source is not None else Shape.top()
        return AbstractValue(shape, dtype)

    def _dtype_of(self, node, keyword_values, default):
        if "dtype" not in keyword_values:
            return default
        dtype = keyword_values["dtype"]
        if isinstance(dtype, str):
            if dtype in BAD_FLOATS:
                self._flag(node, f"dtype {dtype} reached this constructor "
                                 f"through an alias: float64 discipline "
                                 f"violated (invisible to the per-file "
                                 f"dtype rule)")
            return dtype
        return DTYPE_TOP

    def _concat(self, node, arg_values, keyword_values):
        shapes = self._element_shapes(arg_values[0])
        if shapes is None:
            return _TOP
        axis = self._axis(arg_values[1:], keyword_values)
        result, error = lattice.concat(shapes, axis)
        if error:
            self._flag(node, error)
        return AbstractValue(result, F64, tensorlike=True)

    def _stack(self, node, arg_values, keyword_values):
        shapes = self._element_shapes(arg_values[0])
        if shapes is None:
            return _TOP
        axis = self._axis(arg_values[1:], keyword_values)
        result, error = lattice.stack(shapes, axis)
        if error:
            self._flag(node, error)
        return AbstractValue(result, F64, tensorlike=True)

    @staticmethod
    def _element_shapes(value) -> Optional[List[Shape]]:
        if not isinstance(value, tuple) or not value:
            return None
        shapes = []
        for element in value:
            array = _as_array(element)
            if array is None:
                return None
            shapes.append(array.shape)
        return shapes

    @staticmethod
    def _axis(positional, keyword_values) -> int:
        candidate = keyword_values.get("axis")
        if candidate is None and positional:
            candidate = positional[0]
        if isinstance(candidate, Dim) and candidate.known_const() is not None:
            return candidate.known_const()
        return 0

    def _reshape(self, node, array: AbstractValue, arg_values):
        dims = arg_values[0] if len(arg_values) == 1 \
            and isinstance(arg_values[0], tuple) else tuple(arg_values)
        shape = _as_shape(dims)
        if shape is None:
            return AbstractValue(dtype=array.dtype,
                                 tensorlike=array.tensorlike)
        if not array.shape.is_top:
            source = self._product(array.shape.dims)
            target = self._product(shape.dims)
            if source is not None and target is not None \
                    and -1 not in (d.known_const() for d in shape.dims) \
                    and source != target:
                self._flag(node, f"reshape of {array.shape!r} "
                                 f"({source} elements) to {shape!r} "
                                 f"({target} elements)")
        return AbstractValue(shape, array.dtype, array.tensorlike)

    @staticmethod
    def _product(dims) -> Optional[int]:
        total = 1
        for dim in dims:
            const = dim.known_const()
            if const is None or const < 0:
                return None
            total *= const
        return total

    def _transpose(self, array: AbstractValue, arg_values):
        if array.shape.is_top:
            return AbstractValue(dtype=array.dtype,
                                 tensorlike=array.tensorlike)
        dims = array.shape.dims
        perm = arg_values[0] if len(arg_values) == 1 \
            and isinstance(arg_values[0], tuple) else tuple(arg_values)
        indexes = []
        for element in perm:
            if isinstance(element, Dim) and element.known_const() is not None:
                indexes.append(element.known_const())
            else:
                return AbstractValue(dtype=array.dtype,
                                     tensorlike=array.tensorlike)
        if not indexes:
            indexes = list(range(len(dims)))[::-1]
        if sorted(indexes) != list(range(len(dims))):
            return AbstractValue(dtype=array.dtype,
                                 tensorlike=array.tensorlike)
        return AbstractValue(Shape([dims[i] for i in indexes]),
                             array.dtype, array.tensorlike)

    def _subscript(self, node: ast.Subscript, env):
        base = self._eval(node.value, env)
        index = self._eval(node.slice, env)
        array = _as_array(base)
        if isinstance(base, tuple):
            if isinstance(index, Dim) and index.known_const() is not None \
                    and 0 <= index.known_const() < len(base):
                return base[index.known_const()]
            return _TOP
        if array is None or array.shape.is_top:
            return _TOP
        if isinstance(index, Dim) and array.shape.dims:
            return AbstractValue(Shape(array.shape.dims[1:]), array.dtype,
                                 array.tensorlike)
        if isinstance(node.slice, ast.Slice) and array.shape.dims:
            return AbstractValue(Shape((Dim.top(),)
                                       + array.shape.dims[1:]),
                                 array.dtype, array.tensorlike)
        return AbstractValue(dtype=array.dtype, tensorlike=array.tensorlike)


@register
class TapeShapeRule(Rule):
    rule_id = "tape-shape"
    description = ("abstract shape/dtype interpretation of tape code: "
                   "provable matmul/concat/stack mismatches, "
                   "aliased float64-discipline violations, and Parameters "
                   "whose backward is unreachable from parameters()")
    default_options = {
        "packages": ("repro/nn/",),
        #: modules importing any of these packages are also in scope
        #: (fixture encoders opt in by importing the tape engine).
        "import_roots": ("repro.nn",),
    }

    def check(self, module, program, options):
        if not self._in_scope(module, options):
            return []
        findings = []
        for fn in module.functions:
            interp = _Interp(self, module, fn)
            interp.run(seed_symbols=False)
            findings.extend(interp.findings)
        for cls in module.classes:
            findings.extend(self._check_class(program, module, cls))
        return findings

    @staticmethod
    def _in_scope(module, options) -> bool:
        if any(fragment in module.rel_path
               for fragment in options.get("packages", ())):
            return True
        roots = options.get("import_roots", ())
        return any(origin.startswith(root)
                   for origin in module.imports.values()
                   for root in roots)

    def _check_class(self, program, module, cls):
        findings = []
        attrs: Dict[str, object] = {}
        init = cls.methods.get("__init__")
        if init is not None:
            interp = _Interp(self, module, init, attrs)
            interp.run(seed_symbols=True)
            findings.extend(interp.findings)
        for name, fn in cls.methods.items():
            if name == "__init__":
                continue
            interp = _Interp(self, module, fn, dict(attrs))
            interp.run(seed_symbols=False)
            findings.extend(interp.findings)
        findings.extend(self._dead_parameters(program, module, cls, init))
        return findings

    # A Parameter field nothing reads outside __init__ is registered by
    # parameters() but disconnected from every forward tape.
    def _dead_parameters(self, program, module, cls, init):
        if init is None or not self._is_module_subclass(program, cls):
            return []
        param_fields: Dict[str, ast.AST] = {}
        for node in ast.walk(init.node):
            if not isinstance(node, ast.Assign):
                continue
            target = node.targets[0] if node.targets else None
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            for call in ast.walk(node.value):
                if isinstance(call, ast.Call) \
                        and isinstance(call.func, ast.Name) \
                        and call.func.id == "Parameter":
                    param_fields[target.attr] = node
                    break
        if not param_fields:
            return []
        used = set()
        scopes = [cls] + program.subclasses_of(cls)
        for scope in scopes:
            for name, fn in scope.methods.items():
                if name == "__init__" and scope is cls:
                    continue
                for node in ast.walk(fn.node):
                    if isinstance(node, ast.Attribute) \
                            and node.attr in param_fields \
                            and not isinstance(node.ctx, ast.Store):
                        used.add(node.attr)
        findings = []
        for field, node in sorted(param_fields.items()):
            if field in used:
                continue
            findings.append(module.finding(
                self.rule_id, node,
                f"Parameter `self.{field}` of {cls.name} is registered by "
                f"parameters() but never read by any method: its tape "
                f"backward is unreachable and its gradient is always "
                f"zero"))
        return findings

    def _is_module_subclass(self, program, cls, _depth=0) -> bool:
        if _depth > 8:
            return False
        for base in cls.bases:
            if base.rsplit(".", 1)[-1] == "Module":
                return True
            resolved = program.resolve_class(base, cls.module)
            if resolved is not None and resolved is not cls \
                    and self._is_module_subclass(program, resolved,
                                                 _depth + 1):
                return True
        return False
