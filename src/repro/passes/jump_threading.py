"""-jump-threading: thread control flow through blocks whose branch
outcome is known per-predecessor.

Implemented form (the highest-frequency LLVM case): a block whose branch
condition is a phi of constants — or an icmp of such a phi against a
constant — lets each predecessor contributing a constant jump directly
to the branch target that the constant selects, skipping the block's
test entirely on that path.

Threading requires the block to carry no other side effects, since the
threaded predecessor bypasses its body (values feeding only the branch
are fine — they die with the skipped test).
"""

from __future__ import annotations

from typing import Optional

from ..analysis.cfg import remove_unreachable_blocks
from ..ir import types as ty
from ..ir.folding import eval_icmp
from ..ir.instructions import BranchInst, ICmpInst, PhiNode
from ..ir.module import BasicBlock, Function
from ..ir.values import ConstantInt
from .base import FunctionPass, register_pass
from .utils import delete_dead_instructions

__all__ = ["JumpThreading"]


def _branch_outcome_for_pred(block: BasicBlock, pred: BasicBlock) -> Optional[bool]:
    """If entering ``block`` from ``pred`` decides its branch, return it."""
    term = block.terminator
    if not isinstance(term, BranchInst) or not term.is_conditional:
        return None
    cond = term.condition
    if isinstance(cond, PhiNode) and cond.parent is block:
        try:
            incoming = cond.incoming_value_for(pred)
        except KeyError:
            return None
        if isinstance(incoming, ConstantInt):
            return bool(incoming.value)
        return None
    if isinstance(cond, ICmpInst) and isinstance(cond.rhs, ConstantInt):
        phi = cond.lhs
        if isinstance(phi, PhiNode) and phi.parent is block:
            try:
                incoming = phi.incoming_value_for(pred)
            except KeyError:
                return None
            if isinstance(incoming, ConstantInt):
                lhs_ty = incoming.type
                assert isinstance(lhs_ty, ty.IntType)
                return eval_icmp(cond.predicate, lhs_ty, incoming.value, cond.rhs.value)
    return None


def _threadable(block: BasicBlock) -> bool:
    """The skipped body must be effect-free and unused elsewhere."""
    term = block.terminator
    for inst in block.instructions:
        if inst is term:
            continue
        if isinstance(inst, PhiNode):
            continue
        if inst.may_have_side_effects() or inst.may_read_memory():
            return False
    # Values defined here must not be used outside (the threaded edge
    # would bypass their computation).
    for inst in block.instructions:
        if inst is term:
            continue
        for user in inst.users():
            if user.parent is not block:
                return False
    return True


@register_pass
class JumpThreading(FunctionPass):
    name = "-jump-threading"

    def run_on_function(self, func: Function) -> bool:
        changed = False
        for _ in range(8):
            threaded = self._thread_one(func)
            if not threaded:
                break
            changed = True
        if changed:
            remove_unreachable_blocks(func)
            delete_dead_instructions(func)
        return changed

    def _thread_one(self, func: Function) -> bool:
        for block in list(func.blocks):
            if block is func.entry:
                continue
            if not _threadable(block):
                continue
            term = block.terminator
            if not isinstance(term, BranchInst) or not term.is_conditional:
                continue
            for pred in block.predecessors():
                if pred is block:
                    continue
                outcome = _branch_outcome_for_pred(block, pred)
                if outcome is None:
                    continue
                # Multi-edge (switch) predecessors complicate phi surgery.
                if pred.successors().count(block) != 1:
                    continue
                target = term.true_target if outcome else term.false_target
                if target is block:
                    continue
                # Target phis may not already have an edge from pred with a
                # conflicting value.
                if any(pred in phi.incoming_blocks for phi in target.phis()):
                    continue
                self._redirect(pred, block, target)
                return True
        return False

    @staticmethod
    def _redirect(pred: BasicBlock, block: BasicBlock, target: BasicBlock) -> None:
        """Retarget pred's edge from block to target, fixing phis."""
        # Target phis: the value they would have received "via block" is
        # block's phi's incoming for pred (when the phi is block-local) or
        # the value itself.
        for phi in target.phis():
            via = phi.incoming_value_for(block)
            if isinstance(via, PhiNode) and via.parent is block:
                via = via.incoming_value_for(pred)
            phi.add_incoming(via, pred)
        pred_term = pred.terminator
        assert pred_term is not None
        pred_term.replace_successor(block, target)
        for phi in block.phis():
            if pred in phi.incoming_blocks:
                phi.remove_incoming(pred)
