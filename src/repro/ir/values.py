"""Core value hierarchy for the repro IR.

Mirrors LLVM's ``Value`` hierarchy at the granularity the AutoPhase
reproduction needs: everything that can appear as an instruction operand is
a :class:`Value`, instructions track their operands through explicit use
lists, and :meth:`Value.replace_all_uses_with` keeps def-use chains
consistent across transformations.
"""

from __future__ import annotations

import itertools
from typing import List, TYPE_CHECKING

from . import types as ty

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .instructions import Instruction
    from .module import Function

__all__ = [
    "Value",
    "Constant",
    "ConstantInt",
    "ConstantFloat",
    "UndefValue",
    "Argument",
    "GlobalVariable",
]

_name_counter = itertools.count()


def fresh_name(prefix: str = "v") -> str:
    """Generate a globally unique SSA name. Used when no name is supplied."""
    return f"{prefix}{next(_name_counter)}"


class Value:
    """Anything that can be used as an operand.

    Keeps one use entry per operand slot that references it, so
    ``replace_all_uses_with`` and dead-code queries are O(uses).
    """

    __slots__ = ("type", "name", "_uses")

    def __init__(self, type_: ty.Type, name: str = "") -> None:
        self.type = type_
        self.name = name or fresh_name()
        # One entry per operand slot referencing self: a user that reads
        # self twice (``add x, x``) appears twice.
        self._uses: List["Instruction"] = []

    # -- use bookkeeping (called by Instruction only) ---------------------
    def _add_use(self, user: "Instruction") -> None:
        self._uses.append(user)

    def _remove_use(self, user: "Instruction") -> None:
        # Drop the *last* entry of ``user``: its first entry, which fixes
        # its place in ``users()``, goes only with its last slot.
        uses = self._uses
        index = -1
        for _ in range(uses.count(user)):
            index = uses.index(user, index + 1)
        if index >= 0:
            del uses[index]

    # -- public API --------------------------------------------------------
    def users(self) -> List["Instruction"]:
        """Distinct instructions currently using this value, in the order
        they first started using it."""
        return list(dict.fromkeys(self._uses))

    @property
    def num_uses(self) -> int:
        """Total operand slots referencing this value (with multiplicity)."""
        return len(self._uses)

    @property
    def is_used(self) -> bool:
        return bool(self._uses)

    def replace_all_uses_with(self, new: "Value") -> None:
        """Rewrite every operand slot referencing ``self`` to ``new``."""
        if new is self:
            return
        for user in dict.fromkeys(self._uses):
            user._replace_operand_value(self, new)

    def __str__(self) -> str:
        return f"%{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self} : {self.type}>"


class Constant(Value):
    """Base class for immediate values. Constants are immutable leaves.

    They are shared freely across functions and modules (a clone reuses
    its source's constant objects), so they carry **no use list**: a use
    entry would pin every instruction of every module that ever mentioned
    the constant, and no transformation asks for the users of an
    immediate.
    """

    __slots__ = ()

    def __init__(self, type_: ty.Type, name: str) -> None:
        self.type = type_
        self.name = name
        self._uses = ()  # the shared empty tuple: no container per constant

    def _add_use(self, user: "Instruction") -> None:
        pass

    def _remove_use(self, user: "Instruction") -> None:
        pass


class ConstantInt(Constant):
    """An integer immediate, always stored wrapped to its type's width."""

    __slots__ = ("value",)

    def __init__(self, type_: ty.IntType, value: int) -> None:
        super().__init__(type_, name=f"const{value}")
        self.value = type_.wrap(int(value))

    def __str__(self) -> str:
        return str(self.value)

    @staticmethod
    def get(value: int, type_: ty.IntType = ty.i32) -> "ConstantInt":
        return ConstantInt(type_, value)

    @staticmethod
    def true() -> "ConstantInt":
        return ConstantInt(ty.i1, 1)

    @staticmethod
    def false() -> "ConstantInt":
        return ConstantInt(ty.i1, 0)


class ConstantFloat(Constant):
    __slots__ = ("value",)

    def __init__(self, type_: ty.FloatType, value: float) -> None:
        super().__init__(type_, name=f"fconst")
        self.value = float(value)

    def __str__(self) -> str:
        return repr(self.value)

    @staticmethod
    def get(value: float) -> "ConstantFloat":
        return ConstantFloat(ty.f64, value)


class UndefValue(Constant):
    """An unspecified value of a given type (LLVM ``undef``).

    The interpreter gives it a deterministic concrete value (zero) so that
    differential testing stays meaningful.
    """

    __slots__ = ()

    def __init__(self, type_: ty.Type) -> None:
        super().__init__(type_, name="undef")

    def __str__(self) -> str:
        return "undef"


class Argument(Value):
    """A formal parameter of a function."""

    __slots__ = ("parent", "index")

    def __init__(self, type_: ty.Type, name: str, parent: "Function", index: int) -> None:
        super().__init__(type_, name)
        self.parent = parent
        self.index = index


class GlobalVariable(Value):
    """A module-level variable. Its value type is ``type.pointee``.

    ``initializer`` is a Python scalar for scalar globals or a list of
    scalars for array globals (flattened, row-major). ``is_constant`` marks
    read-only globals (lookup tables), which the scheduler may map to ROMs.
    """

    __slots__ = ("value_type", "initializer", "is_constant", "linkage")

    def __init__(
        self,
        name: str,
        value_type: ty.Type,
        initializer=None,
        is_constant: bool = False,
        linkage: str = "internal",
    ) -> None:
        super().__init__(ty.pointer_type(value_type), name)
        self.value_type = value_type
        self.initializer = initializer
        self.is_constant = is_constant
        self.linkage = linkage

    def __str__(self) -> str:
        return f"@{self.name}"

    def flat_initializer(self) -> List:
        """The initializer flattened to ``size_slots`` scalars (zero-filled)."""
        size = self.value_type.size_slots
        init = self.initializer
        if init is None:
            return [0] * size
        if isinstance(init, (int, float)):
            values = [init]
        else:
            values = list(init)
        if len(values) < size:
            values = values + [0] * (size - len(values))
        return values[:size]
