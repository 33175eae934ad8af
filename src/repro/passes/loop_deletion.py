"""-loop-deletion: delete provably dead loops.

A loop is dead when it writes nothing, calls nothing with side effects,
none of its values are used outside it, and it provably terminates (we
require a computable constant trip count — the conservative form of
LLVM's must-progress reasoning). The preheader then branches straight to
the exit and the body unreachable-cleans away.
"""

from __future__ import annotations

from ..analysis.cfg import remove_unreachable_blocks
from ..analysis.loops import Loop, LoopInfo
from ..ir.instructions import BranchInst, CallInst, InvokeInst, StoreInst
from ..ir.module import Function
from .base import FunctionPass, register_pass
from .loop_utils import ensure_simplified

__all__ = ["LoopDeletion"]


@register_pass
class LoopDeletion(FunctionPass):
    name = "-loop-deletion"

    def run_on_function(self, func: Function) -> bool:
        if not func.blocks:
            return False
        changed = False
        for _ in range(4):
            info = LoopInfo(func)
            deleted = False
            for loop in sorted(info.loops, key=lambda l: -l.depth):
                if self._delete_if_dead(func, info, loop):
                    deleted = True
                    break
            changed |= deleted
            if not deleted:
                break
        return changed

    def _delete_if_dead(self, func: Function, info: LoopInfo, loop: Loop) -> bool:
        if ensure_simplified(func, loop):
            return True
        preheader = loop.preheader()
        exits = loop.exit_blocks()
        if preheader is None or len(exits) != 1:
            return False
        exit_bb = exits[0]

        # Side-effect freedom.
        for bb in loop.blocks:
            for inst in bb.instructions:
                if isinstance(inst, StoreInst):
                    return False
                if isinstance(inst, (CallInst, InvokeInst)) and not inst.is_pure():
                    return False
                if getattr(inst, "is_volatile", False):
                    return False

        # No value computed in the loop is observed outside it. Exit-block
        # phis referencing loop-invariant values are fine (rewired below).
        for bb in loop.blocks:
            for inst in bb.instructions:
                for user in inst.users():
                    if user.parent is not None and user.parent not in loop.blocks:
                        return False

        # Termination: a computable trip count proves finiteness.
        desc = info.induction_descriptor(loop)
        if desc is None or desc.trip_count() is None:
            return False

        # Rewire: preheader jumps straight to the exit.
        ph_term = preheader.terminator
        assert isinstance(ph_term, BranchInst) and not ph_term.is_conditional
        for phi in exit_bb.phis():
            # Incoming edges from the loop collapse into one from the
            # preheader; values are invariant by the check above.
            loop_preds = [p for p in list(phi.incoming_blocks) if p in loop.blocks]
            if not loop_preds:
                continue
            value = phi.incoming_value_for(loop_preds[0])
            for p in loop_preds:
                phi.remove_incoming(p)
            phi.add_incoming(value, preheader)
        ph_term.replace_successor(loop.header, exit_bb)
        remove_unreachable_blocks(func)
        return True
