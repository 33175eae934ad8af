"""-loop-idiom: recognize memset/memcpy loops.

Matches the two canonical idioms in rotated single-block counted loops:

* ``for (i=a; i<b; ++i) p[i] = c;``       → ``llvm.memset(&p[a], c, n)``
* ``for (i=a; i<b; ++i) d[i] = s[i];``    → ``llvm.memcpy(&d[a], &s[a], n)``

On the HLS substrate the payoff is the burst memory engine: the loop's
per-iteration FSM states (address computation, 2-cycle write path, index
update, bottom test) collapse into a setup plus one slot per element
(see :mod:`repro.hls.delays` and the profiler's burst model).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..analysis.alias import AliasResult, alias
from ..analysis.cfg import remove_unreachable_blocks
from ..analysis.loops import Loop, LoopInfo
from ..ir import types as ty
from ..ir.instructions import (
    BinaryOperator,
    BranchInst,
    GEPInst,
    ICmpInst,
    LoadInst,
    PhiNode,
    StoreInst,
)
from ..ir.module import BasicBlock, Function
from ..ir.values import ConstantInt, Value
from .base import FunctionPass, register_pass
from .loop_utils import ensure_simplified, is_loop_invariant

__all__ = ["LoopIdiom"]


@register_pass
class LoopIdiom(FunctionPass):
    name = "-loop-idiom"

    def run_on_function(self, func: Function) -> bool:
        if not func.blocks:
            return False
        changed = False
        for _ in range(4):
            info = LoopInfo(func)
            replaced = False
            for loop in sorted(info.loops, key=lambda l: -l.depth):
                if self._try_replace(func, info, loop):
                    replaced = True
                    break
            changed |= replaced
            if not replaced:
                break
        return changed

    def _try_replace(self, func: Function, info: LoopInfo, loop: Loop) -> bool:
        # Rotated single-block counted loop only.
        if len(loop.blocks) != 1:
            return False
        block = loop.header
        if loop.single_latch() is not block:
            return False
        if ensure_simplified(func, loop):
            return True
        preheader = loop.preheader()
        exits = loop.exit_blocks()
        if preheader is None or len(exits) != 1:
            return False
        exit_bb = exits[0]

        desc = info.induction_descriptor(loop)
        if desc is None or desc.compare is None or desc.bound is None:
            return False
        if not isinstance(desc.step, ConstantInt) or desc.step.value != 1:
            return False
        if desc.compare.predicate != "slt":
            return False
        if not is_loop_invariant(desc.bound, loop) or not is_loop_invariant(desc.init, loop):
            return False

        # No loop value may be observed outside.
        for inst in block.instructions:
            for user in inst.users():
                if user.parent is not None and user.parent is not block:
                    return False

        match = self._match_body(block, desc.phi, desc.update)
        if match is None:
            return False
        kind, store, load = match

        if kind == "memset":
            if not is_loop_invariant(store.value, loop):
                return False
        else:
            assert load is not None
            src_gep = load.pointer
            dst_gep = store.pointer
            assert isinstance(src_gep, GEPInst) and isinstance(dst_gep, GEPInst)
            if alias(src_gep.pointer, dst_gep.pointer) is not AliasResult.NO_ALIAS:
                return False
            if not is_loop_invariant(src_gep.pointer, loop):
                return False
        if not is_loop_invariant(store.pointer.pointer, loop):  # type: ignore[attr-defined]
            return False

        # Build the replacement in the preheader.
        from ..ir.builder import IRBuilder

        term = preheader.terminator
        assert term is not None
        b = IRBuilder()
        staging = BasicBlock("idiom.staging")
        b.position_at_end(staging)

        # A do-while body always runs at least once, while memset/memcpy
        # with a dynamic non-positive count would write nothing — so the
        # trip count must be a *provably positive constant*.
        if not (isinstance(desc.init, ConstantInt) and isinstance(desc.bound, ConstantInt)):
            return False
        n = desc.bound.value - desc.init.value
        if not desc.compares_next:
            n += 1
        if n <= 0:
            return False
        count: Value = ConstantInt(ty.i32, n)

        def start_pointer(gep: GEPInst) -> Value:
            indices: List[Value] = []
            for idx in gep.indices:
                indices.append(desc.init if idx is desc.phi else idx)
            return b.gep(gep.pointer, indices, gep.name + ".start")

        if kind == "memset":
            dst = start_pointer(store.pointer)  # type: ignore[arg-type]
            b.call("llvm.memset", [dst, store.value, count], return_type=ty.void)
        else:
            assert load is not None
            dst = start_pointer(store.pointer)  # type: ignore[arg-type]
            src = start_pointer(load.pointer)  # type: ignore[arg-type]
            b.call("llvm.memcpy", [dst, src, count], return_type=ty.void)

        for inst in list(staging.instructions):
            inst.remove_from_parent()
            preheader.insert_before_terminator(inst)

        # Exit phis lose their loop edge (values were invariant: checked
        # above that no loop value escapes, so incoming must be invariant).
        for phi in exit_bb.phis():
            if block in phi.incoming_blocks:
                value = phi.incoming_value_for(block)
                phi.remove_incoming(block)
                phi.add_incoming(value, preheader)
        term.replace_successor(block, exit_bb)
        remove_unreachable_blocks(func)
        return True

    def _match_body(self, block: BasicBlock, iv: PhiNode, update: BinaryOperator
                    ) -> Optional[Tuple[str, StoreInst, Optional[LoadInst]]]:
        """Classify the body as memset/memcpy; returns None on any extra op."""
        store: Optional[StoreInst] = None
        load: Optional[LoadInst] = None
        geps: List[GEPInst] = []
        compare: Optional[ICmpInst] = None
        for inst in block.instructions:
            if inst is iv or inst is update:
                continue
            if isinstance(inst, PhiNode):
                return None  # a second recurrence: not a pure idiom
            if isinstance(inst, GEPInst):
                geps.append(inst)
            elif isinstance(inst, StoreInst):
                if store is not None or inst.is_volatile:
                    return None
                store = inst
            elif isinstance(inst, LoadInst):
                if load is not None or inst.is_volatile:
                    return None
                load = inst
            elif isinstance(inst, ICmpInst):
                if compare is not None:
                    return None
                compare = inst
            elif isinstance(inst, BranchInst):
                continue
            else:
                return None
        if store is None or compare is None:
            return None
        if not self._gep_is_unit_stride(store.pointer, iv, update):
            return None
        if load is None:
            return ("memset", store, None)
        if store.value is not load:
            return None
        if not self._gep_is_unit_stride(load.pointer, iv, update):
            return None
        return ("memcpy", store, load)

    @staticmethod
    def _gep_is_unit_stride(pointer: Value, iv: PhiNode, update: BinaryOperator) -> bool:
        if not isinstance(pointer, GEPInst):
            return False
        # The address must track the phi itself; indexing by the updated
        # value would shift the touched range by one.
        iv_positions = [i for i, idx in enumerate(pointer.indices) if idx is iv]
        if len(iv_positions) != 1:
            return False
        if any(idx is update for idx in pointer.indices):
            return False
        # Every other index must be a constant; the IV stride must be one slot.
        for i, idx in enumerate(pointer.indices):
            if i not in iv_positions and not isinstance(idx, ConstantInt):
                return False
        strides = pointer.element_strides()
        return strides[iv_positions[0]] == 1
