"""Scalar type system for the mini SSA IR.

The IR models the subset of LLVM types that Needle's analyses consume:
integers of a few widths, two floating point widths, a flat pointer type,
and ``void`` for functions without a return value.  Types are singletons;
identity comparison (``is``) is the intended equality check, though ``==``
also works because there is exactly one instance per kind/width.
"""

from __future__ import annotations


class Type:
    """A scalar IR type.

    Attributes:
        kind: one of ``"int"``, ``"float"``, ``"ptr"``, ``"void"``.
        bits: bit width (0 for void; pointers are 64-bit).
    """

    __slots__ = ("kind", "bits")

    def __init__(self, kind: str, bits: int):
        self.kind = kind
        self.bits = bits

    # -- predicates ---------------------------------------------------------

    @property
    def is_int(self) -> bool:
        return self.kind == "int"

    @property
    def is_float(self) -> bool:
        return self.kind == "float"

    @property
    def is_ptr(self) -> bool:
        return self.kind == "ptr"

    @property
    def is_void(self) -> bool:
        return self.kind == "void"

    @property
    def size_bytes(self) -> int:
        """Storage footprint of a value of this type."""
        if self.is_void:
            return 0
        return max(1, self.bits // 8)

    # -- value domain helpers ----------------------------------------------

    def wrap(self, value):
        """Normalise a Python number into this type's value domain.

        Integers wrap modulo 2**bits and are interpreted as signed
        (two's complement), matching the interpreter's arithmetic.
        """
        kind = self.kind  # compared directly: wrap runs per value
        if kind == "float":
            return float(value)
        if kind == "ptr":
            return int(value) & ((1 << 64) - 1)
        if kind == "int":
            bits = self.bits
            v = int(value) & ((1 << bits) - 1)
            sign = 1 << (bits - 1)
            return (v ^ sign) - sign if bits > 1 else v
        raise TypeError("void has no values")

    def __repr__(self) -> str:
        return str(self)

    def __str__(self) -> str:
        if self.is_void:
            return "void"
        if self.is_ptr:
            return "ptr"
        if self.is_float:
            return "f%d" % self.bits
        return "i%d" % self.bits

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Type)
            and self.kind == other.kind
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.bits))


#: The boolean type produced by comparisons and consumed by conditional
#: branches and selects.
I1 = Type("int", 1)
I8 = Type("int", 8)
I16 = Type("int", 16)
I32 = Type("int", 32)
I64 = Type("int", 64)
F32 = Type("float", 32)
F64 = Type("float", 64)
PTR = Type("ptr", 64)
VOID = Type("void", 0)

_BY_NAME = {str(t): t for t in (I1, I8, I16, I32, I64, F32, F64, PTR, VOID)}


def type_from_name(name: str) -> Type:
    """Look a type up by its textual spelling (``"i32"``, ``"f64"`` ...)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError("unknown IR type: %r" % name) from None
