"""-sink: move computations closer to (and only onto) the paths that use them.

A pure instruction whose users all live in one other block sinks into
that block when (a) the block is dominated by the definition, (b) sinking
does not move it into a deeper loop, and (c) for loads, no store or call
can intervene (conservatively: none anywhere in the function between the
two points — we require the load's block to be store/call-free after the
load and the target to be a direct successor).

The paper's §4.1: "-sink basically moves memory instructions into
successor blocks and delays the execution of memory until needed" —
intuitively profitable when the value is only needed on one side of a
branch, which is exactly the (c)-restricted move implemented here.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.dominators import DominatorTree
from ..analysis.loops import LoopInfo
from ..ir.instructions import (
    BinaryOperator,
    CastInst,
    FCmpInst,
    FNegInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiNode,
    SelectInst,
)
from ..ir.module import BasicBlock, Function
from .base import FunctionPass, register_pass

__all__ = ["Sink"]

_SINKABLE = (BinaryOperator, ICmpInst, FCmpInst, SelectInst, CastInst, FNegInst, GEPInst)


@register_pass
class Sink(FunctionPass):
    name = "-sink"

    def run_on_function(self, func: Function) -> bool:
        if not func.blocks:
            return False
        domtree = DominatorTree(func)
        loops = LoopInfo(func, domtree)
        changed = False
        for bb in func.blocks:
            # Walk bottom-up so chains sink together in one pass.
            for inst in reversed(list(bb.instructions)):
                target = self._sink_target(inst, bb, domtree, loops)
                if target is None:
                    continue
                inst.remove_from_parent()
                first = target.first_non_phi()
                if first is None:
                    target.append(inst)
                else:
                    inst.insert_before(first)
                changed = True
        return changed

    def _sink_target(self, inst: Instruction, bb: BasicBlock,
                     domtree: DominatorTree, loops: LoopInfo) -> Optional[BasicBlock]:
        is_load = isinstance(inst, LoadInst) and not inst.is_volatile
        if not isinstance(inst, _SINKABLE) and not is_load:
            return None
        users = inst.users()
        if not users:
            return None
        user_blocks = {u.parent for u in users}
        if len(user_blocks) != 1:
            return None
        target = user_blocks.pop()
        if target is None or target is bb:
            return None
        if any(isinstance(u, PhiNode) for u in users):
            return None  # phi uses happen on edges, not inside target
        if not domtree.contains(bb) or not domtree.contains(target):
            return None
        if not domtree.dominates_block(bb, target):
            return None
        # Never sink into a deeper loop (it would execute more often).
        src_loop = loops.loop_for(bb)
        dst_loop = loops.loop_for(target)
        src_depth = src_loop.depth if src_loop else 0
        dst_depth = dst_loop.depth if dst_loop else 0
        if dst_depth > src_depth or (dst_loop is not None and dst_loop is not src_loop):
            return None
        if is_load:
            # Restrict to a direct successor reached only from here, with
            # no intervening writes in the source block after the load and
            # none in the target before the first use — anything else
            # could change the loaded value.
            if target not in bb.successors() or target.predecessors() != [bb]:
                return None
            after = bb.instructions[bb.instructions.index(inst) + 1:]
            if any(i.may_write_memory() for i in after):
                return None
            first_use = min(target.instructions.index(u) for u in users)
            if any(i.may_write_memory() for i in target.instructions[:first_use]):
                return None
        return target
