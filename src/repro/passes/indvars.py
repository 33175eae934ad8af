"""-indvars: induction-variable canonicalization.

Three canonicalizations, each chosen because a later pass depends on it:

* exit compares ``sle``/``sge`` against constants become the strict
  ``slt``/``sgt`` forms (what the trip-count evaluator and -loop-unroll
  pattern-match);
* ``icmp ne iv, bound`` with unit step and constant ``init < bound``
  becomes ``slt`` (same motivation, LLVM does this via SCEV);
* dead induction variables — phis whose only user is their own update —
  are deleted.
"""

from __future__ import annotations

from ..analysis.loops import Loop, LoopInfo
from ..ir import types as ty
from ..ir.instructions import BinaryOperator, BranchInst, ICmpInst, PhiNode
from ..ir.module import Function
from ..ir.values import ConstantInt
from .base import FunctionPass, register_pass

__all__ = ["IndVarSimplify"]


@register_pass
class IndVarSimplify(FunctionPass):
    name = "-indvars"

    def run_on_function(self, func: Function) -> bool:
        if not func.blocks:
            return False
        changed = False
        info = LoopInfo(func)
        for loop in info.loops:
            changed |= self._canonicalize_compares(loop)
            changed |= self._remove_dead_ivs(loop)
        return changed

    def _canonicalize_compares(self, loop: Loop) -> bool:
        changed = False
        for bb in loop.exiting_blocks():
            term = bb.terminator
            if not isinstance(term, BranchInst) or not term.is_conditional:
                continue
            cond = term.condition
            if not isinstance(cond, ICmpInst) or not isinstance(cond.rhs, ConstantInt):
                continue
            int_ty = cond.rhs.type
            assert isinstance(int_ty, ty.IntType)
            if cond.predicate == "sle" and cond.rhs.value < int_ty.max_signed:
                new = ICmpInst("slt", cond.lhs, ConstantInt(int_ty, cond.rhs.value + 1), cond.name + ".iv")
                new.insert_before(cond)
                cond.replace_all_uses_with(new)
                cond.erase_from_parent()
                changed = True
            elif cond.predicate == "sge" and cond.rhs.value > int_ty.min_signed:
                new = ICmpInst("sgt", cond.lhs, ConstantInt(int_ty, cond.rhs.value - 1), cond.name + ".iv")
                new.insert_before(cond)
                cond.replace_all_uses_with(new)
                cond.erase_from_parent()
                changed = True
            elif cond.predicate == "ne":
                changed |= self._ne_to_slt(loop, cond)
        return changed

    def _ne_to_slt(self, loop: Loop, cond: ICmpInst) -> bool:
        """``iv != bound`` → ``iv < bound`` for unit-step IVs known below bound."""
        phi = cond.lhs
        bound = cond.rhs
        if not isinstance(bound, ConstantInt):
            return False
        # Accept the phi itself or its +1 update as the compared value.
        update = None
        if isinstance(phi, BinaryOperator) and phi.opcode == "add" and isinstance(phi.rhs, ConstantInt) \
                and phi.rhs.value == 1 and isinstance(phi.lhs, PhiNode):
            update, phi = phi, phi.lhs
        if not isinstance(phi, PhiNode) or phi.parent is not loop.header:
            return False
        preheader = loop.preheader()
        latch = loop.single_latch()
        if preheader is None or latch is None:
            return False
        try:
            init = phi.incoming_value_for(preheader)
            step_val = phi.incoming_value_for(latch)
        except KeyError:
            return False
        if not isinstance(init, ConstantInt) or init.value >= bound.value:
            return False
        if not (isinstance(step_val, BinaryOperator) and step_val.opcode == "add"
                and step_val.lhs is phi and isinstance(step_val.rhs, ConstantInt)
                and step_val.rhs.value == 1):
            return False
        new = ICmpInst("slt", cond.lhs, bound, cond.name + ".iv")
        new.insert_before(cond)
        cond.replace_all_uses_with(new)
        cond.erase_from_parent()
        return True

    @staticmethod
    def _remove_dead_ivs(loop: Loop) -> bool:
        """Delete phi↔update cycles nothing else observes."""
        changed = False
        for phi in list(loop.header.phis()):
            users = phi.users()
            if len(users) != 1:
                continue
            update = users[0]
            if not isinstance(update, BinaryOperator) or update.parent is None:
                continue
            if update.parent not in loop.blocks or update.users() != [phi]:
                continue
            phi.drop_all_references()
            update.drop_all_references()
            phi.remove_from_parent()
            update.remove_from_parent()
            changed = True
        return changed
