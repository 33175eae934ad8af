"""-loop-unroll: full unrolling of counted loops.

Requires the do-while (rotated) shape — the latch is the only exiting
block — and an exactly-known constant trip count. This dependence is the
ordering interaction the paper highlights in §4.2: "-loop-unroll after
-loop-rotate was much more useful compared to applying these two passes
in the opposite order". Unrolled iterations are laid out straight-line,
letting the HLS scheduler chain operations across former iteration
boundaries and deleting N-1 latch tests.

The body is replicated trip-count−1 times; every replica's latch branch
is folded to an unconditional branch (the trip count is exact), leaving
the redundant exit tests for DCE.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis.loops import Loop, LoopInfo
from ..ir.cloning import clone_blocks
from ..ir.instructions import BranchInst, PhiNode
from ..ir.module import BasicBlock, Function
from ..ir.values import Value
from .base import FunctionPass, register_pass
from .loop_utils import ensure_simplified, loop_instruction_count
from .utils import delete_dead_instructions

__all__ = ["LoopUnroll"]

_MAX_TRIP_COUNT = 32
_MAX_BODY_SIZE = 64
_MAX_TOTAL_SIZE = 640


@register_pass
class LoopUnroll(FunctionPass):
    name = "-loop-unroll"

    def __init__(self, max_trip_count: int = _MAX_TRIP_COUNT,
                 max_body_size: int = _MAX_BODY_SIZE,
                 max_total_size: int = _MAX_TOTAL_SIZE) -> None:
        self.max_trip_count = max_trip_count
        self.max_body_size = max_body_size
        self.max_total_size = max_total_size

    def run_on_function(self, func: Function) -> bool:
        if not func.blocks:
            return False
        changed = False
        for _ in range(6):  # unrolling inner loops can expose outer ones
            info = LoopInfo(func)
            unrolled = False
            for loop in sorted(info.loops, key=lambda l: -l.depth):
                if not loop.is_innermost():
                    continue
                if self._unroll(func, info, loop):
                    unrolled = True
                    break  # LoopInfo stale
            changed |= unrolled
            if not unrolled:
                break
        if changed:
            delete_dead_instructions(func)
        return changed

    def _unroll(self, func: Function, info: LoopInfo, loop: Loop) -> bool:
        if ensure_simplified(func, loop):
            return True
        header, preheader, latch = loop.header, loop.preheader(), loop.single_latch()
        if preheader is None or latch is None:
            return False
        # Rotated shape: the latch is the unique exiting block.
        if loop.exiting_blocks() != [latch]:
            return False
        exits = loop.exit_blocks()
        if len(exits) != 1:
            return False
        exit_bb = exits[0]
        latch_term = latch.terminator
        if not isinstance(latch_term, BranchInst) or not latch_term.is_conditional:
            return False
        if set(latch_term.successors()) != {header, exit_bb}:
            return False

        desc = info.induction_descriptor(loop)
        if desc is None:
            return False
        trip = desc.trip_count()
        if trip is None or trip < 1 or trip > self.max_trip_count:
            return False
        size = loop_instruction_count(loop)
        if size > self.max_body_size or size * trip > self.max_total_size:
            return False

        ordered = [bb for bb in func.blocks if bb in loop.blocks]
        header_phis = header.phis()

        # Latch values of header phis, per iteration; iteration 0 uses the
        # original instructions, iteration k the k-th clone.
        def mapped(value: Value, vmap: Optional[Dict[Value, Value]]) -> Value:
            if vmap is None:
                return value
            return vmap.get(value, value)

        prev_vmap: Optional[Dict[Value, Value]] = None
        prev_latch: BasicBlock = latch
        all_vmaps: List[Dict[Value, Value]] = []

        for k in range(1, trip):
            new_blocks, vmap = clone_blocks(ordered, func, suffix=f".it{k}")
            all_vmaps.append(vmap)
            new_header = vmap[header]
            # Dissolve the cloned header phis: their value is the previous
            # iteration's latch value.
            for phi in header_phis:
                clone_phi = vmap[phi]
                assert isinstance(clone_phi, PhiNode)
                incoming = mapped(phi.incoming_value_for(latch), prev_vmap)
                clone_phi.replace_all_uses_with(incoming)
                clone_phi.erase_from_parent()
                vmap[phi] = incoming
            # Previous latch now falls through unconditionally into this
            # iteration (the trip count is exact).
            prev_term = prev_latch.terminator
            assert isinstance(prev_term, BranchInst)
            prev_term.make_unconditional(new_header)
            prev_vmap = vmap
            prev_latch = vmap[latch]  # type: ignore[assignment]

        # Final latch: exit unconditionally.
        final_term = prev_latch.terminator
        assert isinstance(final_term, BranchInst)
        final_term.make_unconditional(exit_bb)

        # Iteration 0's header phis now only merge the preheader edge.
        for phi in header_phis:
            init = phi.incoming_value_for(preheader)
            if latch in phi.incoming_blocks:
                phi.remove_incoming(latch)
            phi.replace_all_uses_with(init)
            phi.erase_from_parent()

        last_vmap = all_vmaps[-1] if all_vmaps else None

        # Exit-block phis: their loop edge now comes from the final latch
        # clone with final-iteration values.
        for phi in exit_bb.phis():
            for i, pred in enumerate(list(phi.incoming_blocks)):
                if pred is latch and prev_latch is not latch:
                    phi.incoming_blocks[i] = prev_latch
                    phi.set_operand(i, mapped(phi.operands[i], last_vmap))

        # Outside uses of loop-defined values -> final-iteration values.
        if last_vmap is not None:
            clone_blocks_all = {b for vm in all_vmaps for v, b in vm.items() if isinstance(b, BasicBlock)}
            for bb in ordered:
                for inst in list(bb.instructions):
                    for user in list(inst.users()):
                        if user.parent is None:
                            continue
                        if user.parent in loop.blocks or user.parent in clone_blocks_all:
                            continue
                        if user.parent is exit_bb and isinstance(user, PhiNode):
                            continue  # handled above
                        replacement = mapped(inst, last_vmap)
                        if replacement is not inst:
                            user._replace_operand_value(inst, replacement)
        return True
