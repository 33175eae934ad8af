"""-lcssa: loop-closed SSA form.

Every value defined inside a loop and used outside it is routed through a
phi node in the loop's exit block, so later loop transforms can rewrite
the loop without chasing distant uses. Restricted to single-exit loops
(multi-exit routing would require dominance-aware phi selection; loops
from the generators and benchmarks are single-exit after -loop-simplify).
"""

from __future__ import annotations

from ..analysis.loops import Loop, LoopInfo
from ..ir.instructions import PhiNode
from ..ir.module import Function
from .base import FunctionPass, register_pass

__all__ = ["LCSSA"]


@register_pass
class LCSSA(FunctionPass):
    name = "-lcssa"

    def run_on_function(self, func: Function) -> bool:
        if not func.blocks:
            return False
        changed = False
        info = LoopInfo(func)
        for loop in info.loops:
            changed |= self._close_loop(loop)
        return changed

    def _close_loop(self, loop: Loop) -> bool:
        exits = loop.exit_blocks()
        if len(exits) != 1:
            return False
        exit_bb = exits[0]
        exit_preds = exit_bb.predecessors()
        if any(p not in loop.blocks for p in exit_preds):
            return False  # needs dedicated exits first

        changed = False
        for bb in loop.blocks:
            for inst in list(bb.instructions):
                outside_users = [
                    u for u in inst.users()
                    if u.parent is not None and u.parent not in loop.blocks
                ]
                # A phi already in the exit block *is* loop-closed form.
                outside_users = [
                    u for u in outside_users
                    if not (isinstance(u, PhiNode) and u.parent is exit_bb)
                ]
                if not outside_users:
                    continue
                lcssa_phi = PhiNode(inst.type, inst.name + ".lcssa")
                exit_bb.insert_at_front(lcssa_phi)
                for pred in exit_preds:
                    lcssa_phi.add_incoming(inst, pred)
                for user in outside_users:
                    user._replace_operand_value(inst, lcssa_phi)
                changed = True
        return changed
