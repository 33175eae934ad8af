"""A small alias analysis over allocas, globals, and GEP chains.

The precision target is set by what the memory-optimizing passes (GVN load
elimination, DSE, LICM store hoisting/sinking, -sink, -memcpyopt) and the
HLS scheduler's memory-dependence edges need: distinguish distinct
allocations, and distinguish constant-index accesses into the same
allocation. Everything else is conservatively MayAlias.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Tuple

from ..ir.instructions import AllocaInst, CallInst, GEPInst
from ..ir.values import Argument, ConstantInt, GlobalVariable, Value

__all__ = ["AliasResult", "underlying_object", "constant_offset", "alias", "points_into"]


class AliasResult(Enum):
    NO_ALIAS = 0
    MAY_ALIAS = 1
    MUST_ALIAS = 2


def underlying_object(pointer: Value) -> Value:
    """Strip GEP chains back to the allocation site / argument / global."""
    seen = 0
    while isinstance(pointer, GEPInst) and seen < 64:
        pointer = pointer.pointer
        seen += 1
    return pointer


def constant_offset(pointer: Value) -> Optional[Tuple[Value, int]]:
    """Resolve ``pointer`` to (base object, constant slot offset) if possible."""
    offset = 0
    depth = 0
    while isinstance(pointer, GEPInst) and depth < 64:
        strides = pointer.element_strides()
        for idx, stride in zip(pointer.indices, strides):
            if not isinstance(idx, ConstantInt):
                return None
            offset += idx.value * stride
        pointer = pointer.pointer
        depth += 1
    return pointer, offset


def _is_identified_object(v: Value) -> bool:
    """Objects with a known, distinct allocation: allocas and globals."""
    return isinstance(v, (AllocaInst, GlobalVariable))


def alias(p1: Value, p2: Value) -> AliasResult:
    """Classify whether two pointers can address the same slot."""
    if p1 is p2:
        return AliasResult.MUST_ALIAS

    base1 = underlying_object(p1)
    base2 = underlying_object(p2)

    # Distinct identified objects never alias.
    if base1 is not base2:
        if _is_identified_object(base1) and _is_identified_object(base2):
            return AliasResult.NO_ALIAS
        # An alloca whose address never escapes cannot alias an unknown
        # pointer (argument); be conservative only when both are opaque.
        if _is_identified_object(base1) and isinstance(base2, Argument) and not _escapes(base1):
            return AliasResult.NO_ALIAS
        if _is_identified_object(base2) and isinstance(base1, Argument) and not _escapes(base2):
            return AliasResult.NO_ALIAS
        return AliasResult.MAY_ALIAS

    # Same base object: compare constant offsets when available.
    r1 = constant_offset(p1)
    r2 = constant_offset(p2)
    if r1 is not None and r2 is not None:
        if r1[1] == r2[1]:
            return AliasResult.MUST_ALIAS
        return AliasResult.NO_ALIAS
    return AliasResult.MAY_ALIAS


def _escapes(obj: Value) -> bool:
    """Does the object's address flow somewhere we cannot track?

    True if the pointer (or a GEP of it) is stored to memory or passed to
    a call. Loads/stores *through* the pointer do not escape it.
    """
    from ..ir.instructions import LoadInst, StoreInst

    worklist = [obj]
    visited = set()
    while worklist:
        v = worklist.pop()
        if id(v) in visited:
            continue
        visited.add(id(v))
        for user in v.users():
            if isinstance(user, GEPInst) and user.pointer is v:
                worklist.append(user)
            elif isinstance(user, LoadInst):
                continue
            elif isinstance(user, StoreInst):
                if user.value is v:
                    return True
            elif isinstance(user, CallInst):
                return True
            else:
                return True
    return False


def points_into(pointer: Value, obj: Value) -> bool:
    """True when ``pointer`` certainly addresses within ``obj``."""
    return underlying_object(pointer) is obj
