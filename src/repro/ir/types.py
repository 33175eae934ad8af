"""Type system for the repro IR.

The IR is a small, typed, LLVM-like intermediate representation. Types are
immutable and interned by structural key, so identity comparison (`is`) and
equality (`==`) agree for any two types built through the public helpers
(:data:`i1`, :data:`i32`, :func:`IntType`, :func:`PointerType`, ...).

Sizes are measured in abstract *slots*: every scalar (integer of any width,
float, pointer) occupies exactly one slot. This matches how the HLS memory
model allocates BRAM words and keeps GEP arithmetic simple without
sacrificing any behaviour the paper's feature set or passes depend on.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = [
    "Type",
    "VoidType",
    "LabelType",
    "IntType",
    "FloatType",
    "PointerType",
    "ArrayType",
    "FunctionType",
    "void",
    "label",
    "i1",
    "i8",
    "i16",
    "i32",
    "i64",
    "f64",
]

_INTERN: Dict[tuple, "Type"] = {}


def _intern(cls, key: tuple, *args, **kwargs) -> "Type":
    full_key = (cls.__name__,) + key
    existing = _INTERN.get(full_key)
    if existing is not None:
        return existing
    obj = object.__new__(cls)
    obj._init(*args, **kwargs)  # type: ignore[attr-defined]
    _INTERN[full_key] = obj
    return obj


class Type:
    """Base class for all IR types."""

    __slots__ = ()

    # -- classification helpers ------------------------------------------
    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_int(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    @property
    def is_scalar(self) -> bool:
        """True for types that fit in a single memory slot."""
        return self.is_int or self.is_float or self.is_pointer

    @property
    def size_slots(self) -> int:
        """Size of a value of this type in abstract memory slots."""
        raise TypeError(f"type {self} has no in-memory size")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self}>"


class VoidType(Type):
    __slots__ = ()

    def _init(self) -> None:
        pass

    def __str__(self) -> str:
        return "void"


class LabelType(Type):
    """The type of basic-block labels (only used for printing)."""

    __slots__ = ()

    def _init(self) -> None:
        pass

    def __str__(self) -> str:
        return "label"


class IntType(Type):
    """An integer type of a fixed bit width with two's-complement semantics."""

    __slots__ = ("bits",)

    def _init(self, bits: int) -> None:
        if bits < 1 or bits > 128:
            raise ValueError(f"unsupported integer width: {bits}")
        self.bits = bits

    def __str__(self) -> str:
        return f"i{self.bits}"

    @property
    def size_slots(self) -> int:
        return 1

    @property
    def mask(self) -> int:
        """Bit mask selecting the low ``bits`` bits."""
        return (1 << self.bits) - 1

    @property
    def min_signed(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def max_signed(self) -> int:
        return (1 << (self.bits - 1)) - 1

    def wrap(self, value: int) -> int:
        """Wrap a Python int to this width (signed, two's complement)."""
        value &= self.mask
        if self.bits > 1 and value >> (self.bits - 1):
            value -= 1 << self.bits
        return value


class FloatType(Type):
    """A 64-bit IEEE double (the only float the substrate needs)."""

    __slots__ = ("bits",)

    def _init(self, bits: int = 64) -> None:
        self.bits = bits

    def __str__(self) -> str:
        return "double" if self.bits == 64 else f"f{self.bits}"

    @property
    def size_slots(self) -> int:
        return 1


class PointerType(Type):
    __slots__ = ("pointee",)

    def _init(self, pointee: Type) -> None:
        self.pointee = pointee

    def __str__(self) -> str:
        return f"{self.pointee}*"

    @property
    def size_slots(self) -> int:
        return 1


class ArrayType(Type):
    __slots__ = ("element", "count")

    def _init(self, element: Type, count: int) -> None:
        if count < 0:
            raise ValueError("array count must be non-negative")
        self.element = element
        self.count = count

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"

    @property
    def size_slots(self) -> int:
        return self.count * self.element.size_slots


class FunctionType(Type):
    __slots__ = ("return_type", "param_types")

    def _init(self, return_type: Type, param_types: Tuple[Type, ...]) -> None:
        self.return_type = return_type
        self.param_types = tuple(param_types)

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.param_types)
        return f"{self.return_type} ({params})"


# -- public constructors --------------------------------------------------

def int_type(bits: int) -> IntType:
    return _intern(IntType, (bits,), bits)  # type: ignore[return-value]


def float_type(bits: int = 64) -> FloatType:
    return _intern(FloatType, (bits,), bits)  # type: ignore[return-value]


def pointer_type(pointee: Type) -> PointerType:
    return _intern(PointerType, (id(pointee),), pointee)  # type: ignore[return-value]


def array_type(element: Type, count: int) -> ArrayType:
    return _intern(ArrayType, (id(element), count), element, count)  # type: ignore[return-value]


def function_type(return_type: Type, param_types) -> FunctionType:
    params = tuple(param_types)
    key = (id(return_type),) + tuple(id(p) for p in params)
    return _intern(FunctionType, key, return_type, params)  # type: ignore[return-value]


void: VoidType = _intern(VoidType, ())  # type: ignore[assignment]
label: LabelType = _intern(LabelType, ())  # type: ignore[assignment]
i1 = int_type(1)
i8 = int_type(8)
i16 = int_type(16)
i32 = int_type(32)
i64 = int_type(64)
f64 = float_type(64)

# Convenience aliases used across the code base.
IntType.get = staticmethod(int_type)  # type: ignore[attr-defined]
PointerType.get = staticmethod(pointer_type)  # type: ignore[attr-defined]
ArrayType.get = staticmethod(array_type)  # type: ignore[attr-defined]
FunctionType.get = staticmethod(function_type)  # type: ignore[attr-defined]
