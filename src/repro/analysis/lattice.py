"""Symbolic shape/dtype lattice for the tape abstract interpreter.

The ``tape-shape`` rule interprets encoder code abstractly: every value
is a :class:`AbstractValue` carrying a symbolic shape and a dtype. Both
domains are honest lattices — when two control-flow paths disagree, the
join is ⊤ ("unknown"), never a guess — so the interpreter only reports
*provable* inconsistencies and branch-joined shapes produce no false
positives.

Dimensions are linear terms ``coeff·sym + const`` over a single symbol
(a constructor argument such as ``self.hidden_size``), which is exactly
the shape algebra the repro encoders use: gate blocks are ``3*d`` or
``4*d`` wide, so matmul compatibility of ``(3d, d) @ (d, B)`` is
decidable without knowing ``d``. Two dims are *provably different* only
when they share a symbol (or are both constant) and their linear forms
differ; ``d`` vs ``128`` is unknown, not an error.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

# --------------------------------------------------------------------- dims


class Dim:
    """One axis length: ``coeff * sym + const`` or ⊤ (unknown)."""

    __slots__ = ("coeff", "sym", "const", "is_top")

    def __init__(self, coeff: int = 0, sym: Optional[str] = None,
                 const: int = 0, is_top: bool = False):
        if sym is None:
            coeff = 0
        self.coeff = coeff
        self.sym = sym if coeff else None
        self.const = const
        self.is_top = is_top

    # constructors ----------------------------------------------------------

    @classmethod
    def top(cls) -> "Dim":
        return cls(is_top=True)

    @classmethod
    def of(cls, value: int) -> "Dim":
        return cls(const=int(value))

    @classmethod
    def symbol(cls, name: str) -> "Dim":
        return cls(coeff=1, sym=name)

    # algebra ---------------------------------------------------------------

    def scaled(self, k: int) -> "Dim":
        if self.is_top:
            return Dim.top()
        return Dim(coeff=self.coeff * k, sym=self.sym, const=self.const * k)

    def plus(self, other: "Dim") -> "Dim":
        if self.is_top or other.is_top:
            return Dim.top()
        if self.sym and other.sym and self.sym != other.sym:
            return Dim.top()
        sym = self.sym or other.sym
        return Dim(coeff=self.coeff + other.coeff, sym=sym,
                   const=self.const + other.const)

    # ordering --------------------------------------------------------------

    def same(self, other: "Dim") -> bool:
        """Provably equal (⊤ is never provably equal to anything)."""
        if self.is_top or other.is_top:
            return False
        return (self.coeff, self.sym, self.const) == \
            (other.coeff, other.sym, other.const)

    def provably_different(self, other: "Dim") -> bool:
        """True only when no assignment of the symbols makes them equal.

        Comparable forms (same symbol, or both constant) with different
        linear coefficients differ for every positive symbol value except
        when the difference has a positive-integer root — ``3d`` vs
        ``d+2`` meet at ``d=1`` — so mixed coeff/const differences are
        only reported when no such root exists.
        """
        if self.is_top or other.is_top:
            return False
        if self.sym != other.sym:
            if self.sym is None or other.sym is None:
                return False  # d vs 128: unknown
            return False      # d vs k: unknown
        dc = self.coeff - other.coeff
        dk = self.const - other.const
        if dc == 0:
            return dk != 0
        # coeff difference: equal only at sym = -dk/dc; dims are >= 1.
        if dk % dc != 0:
            return True
        root = -dk // dc
        return root < 1

    def join(self, other: "Dim") -> "Dim":
        return self if self.same(other) else Dim.top()

    def known_const(self) -> Optional[int]:
        if self.is_top or self.sym is not None:
            return None
        return self.const

    def __repr__(self) -> str:
        if self.is_top:
            return "?"
        parts = []
        if self.coeff:
            parts.append(f"{self.coeff}*{self.sym}" if self.coeff != 1
                         else str(self.sym))
        if self.const or not parts:
            parts.append(str(self.const))
        return "+".join(parts)


# ------------------------------------------------------------------- shapes


class Shape:
    """A tuple of :class:`Dim`, or ⊤ (unknown rank)."""

    __slots__ = ("dims", "is_top")

    def __init__(self, dims: Optional[Sequence[Dim]] = None,
                 is_top: bool = False):
        self.dims: Tuple[Dim, ...] = tuple(dims or ())
        self.is_top = is_top

    @classmethod
    def top(cls) -> "Shape":
        return cls(is_top=True)

    @classmethod
    def of(cls, *dims: Dim) -> "Shape":
        return cls(dims)

    @property
    def rank(self) -> Optional[int]:
        return None if self.is_top else len(self.dims)

    def join(self, other: "Shape") -> "Shape":
        if self.is_top or other.is_top or len(self.dims) != len(other.dims):
            return Shape.top()
        return Shape([a.join(b) for a, b in zip(self.dims, other.dims)])

    def __repr__(self) -> str:
        if self.is_top:
            return "(?)"
        return "(" + ", ".join(repr(d) for d in self.dims) + ")"


# ------------------------------------------------------------------- dtypes

F64 = "float64"
F32 = "float32"
F16 = "float16"
INT = "int"
BOOL = "bool"
DTYPE_TOP = "?"

#: dtypes that violate the project's float64 discipline when they reach
#: a tape op or Tensor constructor.
BAD_FLOATS = frozenset({F32, F16, "complex64"})


def join_dtype(a: str, b: str) -> str:
    return a if a == b else DTYPE_TOP


# ------------------------------------------------------------------- values


class AbstractValue:
    """Shape + dtype for one abstract array/tensor/scalar."""

    __slots__ = ("shape", "dtype", "tensorlike")

    def __init__(self, shape: Optional[Shape] = None, dtype: str = DTYPE_TOP,
                 tensorlike: bool = False):
        self.shape = shape if shape is not None else Shape.top()
        self.dtype = dtype
        self.tensorlike = tensorlike

    @classmethod
    def top(cls) -> "AbstractValue":
        return cls()

    def join(self, other: "AbstractValue") -> "AbstractValue":
        return AbstractValue(self.shape.join(other.shape),
                             join_dtype(self.dtype, other.dtype),
                             self.tensorlike and other.tensorlike)

    def __repr__(self) -> str:
        return f"AbstractValue({self.shape!r}, {self.dtype})"


TOP = AbstractValue.top()


# ------------------------------------------------------------- op transfers


def matmul(a: Shape, b: Shape) -> Tuple[Shape, Optional[str]]:
    """Numpy matmul transfer: result shape + error when provably wrong."""
    if a.is_top or b.is_top:
        return Shape.top(), None
    ra, rb = len(a.dims), len(b.dims)
    if ra == 0 or rb == 0:
        return Shape.top(), "matmul operand is 0-d"
    inner_a = a.dims[-1]
    inner_b = b.dims[-2] if rb >= 2 else b.dims[0]
    if inner_a.provably_different(inner_b):
        return Shape.top(), (f"inner dims {inner_a!r} and {inner_b!r} "
                             f"cannot match")
    if ra == 1 and rb == 1:
        return Shape.of(), None
    if ra == 1:
        return Shape(b.dims[:-2] + b.dims[-1:]), None
    if rb == 1:
        return Shape(a.dims[:-1]), None
    # Batch dims join elementwise; mismatches there broadcast or error,
    # both of which we approximate as ⊤ rather than guessing.
    if ra == 2 and rb == 2:
        return Shape.of(a.dims[0], b.dims[-1]), None
    return Shape.top(), None


def broadcast(a: Shape, b: Shape) -> Tuple[Shape, Optional[str]]:
    """Numpy broadcasting transfer for elementwise ops."""
    if a.is_top or b.is_top:
        return Shape.top(), None
    out: List[Dim] = []
    da, db = list(a.dims), list(b.dims)
    while len(da) < len(db):
        da.insert(0, Dim.of(1))
    while len(db) < len(da):
        db.insert(0, Dim.of(1))
    for x, y in zip(da, db):
        if x.known_const() == 1:
            out.append(y)
        elif y.known_const() == 1:
            out.append(x)
        elif x.provably_different(y):
            return Shape.top(), (f"shapes {a!r} and {b!r} do not broadcast "
                                 f"({x!r} vs {y!r})")
        else:
            out.append(x if x.same(y) else Dim.top())
    return Shape(out), None


def concat(shapes: Iterable[Shape], axis: int) -> Tuple[Shape,
                                                        Optional[str]]:
    shapes = list(shapes)
    if not shapes or any(s.is_top for s in shapes):
        return Shape.top(), None
    rank = len(shapes[0].dims)
    if any(len(s.dims) != rank for s in shapes) or not \
            (-rank <= axis < rank):
        return Shape.top(), None
    axis %= rank
    out = list(shapes[0].dims)
    total = shapes[0].dims[axis]
    for shape in shapes[1:]:
        for i in range(rank):
            if i == axis:
                continue
            if shape.dims[i].provably_different(out[i]):
                return Shape.top(), (
                    f"concat inputs disagree on non-concat axis {i}: "
                    f"{out[i]!r} vs {shape.dims[i]!r}")
            out[i] = out[i] if out[i].same(shape.dims[i]) else Dim.top()
        total = total.plus(shape.dims[axis])
    out[axis] = total
    return Shape(out), None


def stack(shapes: Iterable[Shape], axis: int) -> Tuple[Shape,
                                                       Optional[str]]:
    shapes = list(shapes)
    if not shapes or any(s.is_top for s in shapes):
        return Shape.top(), None
    rank = len(shapes[0].dims)
    base = list(shapes[0].dims)
    for shape in shapes[1:]:
        if len(shape.dims) != rank:
            return Shape.top(), "stack inputs have different ranks"
        for i in range(rank):
            if shape.dims[i].provably_different(base[i]):
                return Shape.top(), (
                    f"stack inputs disagree on axis {i}: "
                    f"{base[i]!r} vs {shape.dims[i]!r}")
            base[i] = base[i] if base[i].same(shape.dims[i]) else Dim.top()
    if not -(rank + 1) <= axis <= rank:
        return Shape.top(), None
    axis %= (rank + 1)
    base.insert(axis, Dim.of(len(shapes)))
    return Shape(base), None
