"""-codegenprepare: backend-oriented IR massaging.

Two of CodeGenPrepare's classic jobs matter for an FSM/datapath backend:

* *address-mode sinking* — duplicate a GEP into each block that uses it
  through a load/store, so every block's address computation chains
  locally with the memory op instead of holding a register across
  states;
* *compare sinking* — duplicate an icmp next to the branch that consumes
  it when they live in different blocks, letting the scheduler fold the
  compare into the branch state.
"""

from __future__ import annotations

from typing import Dict, List

from ..ir.cloning import clone_instruction
from ..ir.instructions import (
    BranchInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    StoreInst,
)
from ..ir.module import BasicBlock, Function
from .base import FunctionPass, register_pass
from .utils import is_trivially_dead

__all__ = ["CodeGenPrepare"]


@register_pass
class CodeGenPrepare(FunctionPass):
    name = "-codegenprepare"

    def run_on_function(self, func: Function) -> bool:
        changed = False
        changed |= self._sink_addressing(func)
        changed |= self._sink_compares(func)
        return changed

    @staticmethod
    def _sink_addressing(func: Function) -> bool:
        changed = False
        for bb in func.blocks:
            for gep in list(bb.instructions):
                if not isinstance(gep, GEPInst):
                    continue
                mem_users = [
                    u for u in gep.users()
                    if isinstance(u, (LoadInst, StoreInst)) and u.parent is not None
                    and u.parent is not bb
                ]
                if not mem_users:
                    continue
                # One clone per remote using block, placed before the first
                # memory user there.
                by_block: Dict[BasicBlock, List[Instruction]] = {}
                for u in mem_users:
                    by_block.setdefault(u.parent, []).append(u)
                for target, users in by_block.items():
                    clone = clone_instruction(gep, {})
                    first = min(users, key=lambda u: target.instructions.index(u))
                    clone.insert_before(first)
                    for u in users:
                        u._replace_operand_value(gep, clone)
                    changed = True
                if is_trivially_dead(gep):
                    gep.erase_from_parent()
        return changed

    @staticmethod
    def _sink_compares(func: Function) -> bool:
        changed = False
        for bb in func.blocks:
            term = bb.terminator
            if not isinstance(term, BranchInst) or not term.is_conditional:
                continue
            cond = term.condition
            if not isinstance(cond, ICmpInst) or cond.parent is bb:
                continue
            if cond.num_uses != 1:
                continue  # other users would still need the original
            clone = clone_instruction(cond, {})
            clone.insert_before(term)
            term.set_operand(0, clone)
            if is_trivially_dead(cond):
                cond.erase_from_parent()
            changed = True
        return changed
