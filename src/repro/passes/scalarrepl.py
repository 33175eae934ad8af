"""Scalar replacement of aggregates: -sroa, -scalarrepl, -scalarrepl-ssa.

An alloca of an array that is only ever accessed through constant-index
GEPs is split into one scalar alloca per touched element. The three
Table-1 spellings map onto the same core with LLVM-faithful policy
differences:

* ``-scalarrepl``   — split aggregates up to a size threshold (the old
  pass's behaviour); promotion to SSA left to a later -mem2reg;
* ``-scalarrepl-ssa`` — split, then promote the new scalars using SSAUpdater
  (here: the mem2reg machinery);
* ``-sroa``          — split without a size threshold and promote, the
  modern pass.

On BRAM-backed HLS this turns 2-cycle memory reads into register reads
once promoted — for small coefficient arrays that is the difference
between a memory-port-bound loop and a fully chained one.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.instructions import AllocaInst, GEPInst, LoadInst, StoreInst
from ..ir.module import Function
from ..ir.values import ConstantInt
from .base import FunctionPass, register_pass
from .mem2reg import promotable_allocas, promote_allocas

__all__ = ["SROA", "ScalarRepl", "ScalarReplSSA"]


def _splittable(alloca: AllocaInst) -> Optional[List[GEPInst]]:
    """All users must be constant-index GEPs used only by loads/stores."""
    if not alloca.allocated_type.is_array:
        return None
    if not alloca.allocated_type.element.is_scalar:
        return None  # nested arrays: handled by repeated application? no — bail
    geps: List[GEPInst] = []
    for user in alloca.users():
        if not isinstance(user, GEPInst) or user.pointer is not alloca:
            return None
        if not all(isinstance(i, ConstantInt) for i in user.indices):
            return None
        for inner in user.users():
            if isinstance(inner, LoadInst) and inner.pointer is user:
                continue
            if isinstance(inner, StoreInst) and inner.pointer is user and inner.value is not user:
                continue
            return None
        geps.append(user)
    return geps


def split_alloca(func: Function, alloca: AllocaInst) -> bool:
    geps = _splittable(alloca)
    if geps is None:
        return False
    element_ty = alloca.allocated_type.element
    count = alloca.allocated_type.count

    scalars: Dict[int, AllocaInst] = {}

    def scalar_for(offset: int) -> AllocaInst:
        existing = scalars.get(offset)
        if existing is None:
            existing = AllocaInst(element_ty, f"{alloca.name}.e{offset}")
            existing.insert_after(alloca)
            scalars[offset] = existing
        return existing

    for gep in list(geps):
        offset = 0
        for idx, stride in zip(gep.indices, gep.element_strides()):
            assert isinstance(idx, ConstantInt)
            offset += idx.value * stride
        if not (0 <= offset < count):
            return False  # out-of-bounds constant access: leave it alone
        gep.replace_all_uses_with(scalar_for(offset))
        gep.erase_from_parent()
    alloca.erase_from_parent()
    return True


class _ScalarReplBase(FunctionPass):
    size_threshold: Optional[int] = None
    promote: bool = False

    def run_on_function(self, func: Function) -> bool:
        changed = False
        for bb in func.blocks:
            for inst in list(bb.instructions):
                if not isinstance(inst, AllocaInst):
                    continue
                if (
                    self.size_threshold is not None
                    and inst.allocated_type.size_slots > self.size_threshold
                ):
                    continue
                changed |= split_alloca(func, inst)
        if self.promote and changed:
            promote_allocas(func, promotable_allocas(func))
        return changed


@register_pass
class SROA(_ScalarReplBase):
    name = "-sroa"
    size_threshold = None
    promote = True


@register_pass
class ScalarRepl(_ScalarReplBase):
    name = "-scalarrepl"
    size_threshold = 128
    promote = False


@register_pass
class ScalarReplSSA(_ScalarReplBase):
    name = "-scalarrepl-ssa"
    size_threshold = 128
    promote = True
