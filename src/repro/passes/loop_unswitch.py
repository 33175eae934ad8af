"""-loop-unswitch: hoist loop-invariant conditionals by loop versioning.

A branch inside the loop whose condition never changes across iterations
is decided once, outside: the loop is cloned, the preheader branches on
the invariant condition to either version, and in each version the
branch condition is pinned to a constant (-simplifycfg then removes the
dead arm — the same pass synergy LLVM relies on).
"""

from __future__ import annotations

from typing import Optional

from ..analysis.loops import Loop, LoopInfo
from ..ir.cloning import clone_blocks
from ..ir.instructions import BranchInst
from ..ir.module import Function
from ..ir.values import ConstantInt
from .base import FunctionPass, register_pass
from .loop_utils import ensure_simplified, is_loop_invariant, loop_instruction_count

__all__ = ["LoopUnswitch"]

_SIZE_LIMIT = 48


@register_pass
class LoopUnswitch(FunctionPass):
    name = "-loop-unswitch"

    def run_on_function(self, func: Function) -> bool:
        if not func.blocks:
            return False
        changed = False
        for _ in range(2):  # each round may version one loop
            info = LoopInfo(func)
            switched = False
            for loop in sorted(info.loops, key=lambda l: -l.depth):
                if self._unswitch(func, loop):
                    switched = True
                    break
            changed |= switched
            if not switched:
                break
        return changed

    def _unswitch(self, func: Function, loop: Loop) -> bool:
        if ensure_simplified(func, loop):
            return True
        preheader = loop.preheader()
        if preheader is None:
            return False
        if loop_instruction_count(loop) > _SIZE_LIMIT:
            return False

        # Find an invariant conditional branch that is NOT a loop exit
        # test (exit tests on invariant conditions mean 0/∞ iterations).
        candidate: Optional[BranchInst] = None
        for bb in loop.blocks:
            term = bb.terminator
            if not isinstance(term, BranchInst) or not term.is_conditional:
                continue
            if isinstance(term.condition, ConstantInt):
                continue  # already decided; simplifycfg's job
            if not is_loop_invariant(term.condition, loop):
                continue
            if any(succ not in loop.blocks for succ in term.successors()):
                continue
            candidate = term
            break
        if candidate is None:
            return False

        # No loop-defined value may be observed outside (lcssa would lift
        # this restriction; we keep the conservative form).
        for bb in loop.blocks:
            for inst in bb.instructions:
                for user in inst.users():
                    if user.parent is not None and user.parent not in loop.blocks:
                        return False

        ordered = [bb for bb in func.blocks if bb in loop.blocks]
        new_blocks, vmap = clone_blocks(ordered, func, suffix=".us")

        # The preheader now branches on the invariant condition.
        ph_term = preheader.terminator
        assert isinstance(ph_term, BranchInst) and not ph_term.is_conditional
        header_clone = vmap[loop.header]
        new_term = BranchInst(candidate.condition, loop.header, header_clone)
        ph_term.remove_from_parent()
        ph_term.drop_all_references()
        preheader.append(new_term)

        # Exit blocks gain edges from cloned exiting blocks.
        for exit_bb in loop.exit_blocks():
            if exit_bb in vmap:
                continue
            for phi in exit_bb.phis():
                for i, pred in enumerate(list(phi.incoming_blocks)):
                    if pred in loop.blocks:
                        phi.add_incoming(
                            vmap.get(phi.operands[i], phi.operands[i]),
                            vmap[pred],  # type: ignore[arg-type]
                        )

        # Pin the condition: original loop takes the true arm, clone the false.
        candidate.set_operand(0, ConstantInt.true())
        cloned_branch = vmap[candidate]
        assert isinstance(cloned_branch, BranchInst)
        cloned_branch.set_operand(0, ConstantInt.false())
        return True
    # NOTE: header phis in both versions keep their preheader incoming
    # edge (the preheader still branches to both headers), so phi edges
    # remain consistent without extra fixup.
