"""-loop-reduce: loop strength reduction.

Rewrites multiplications of an induction variable by a loop-invariant
constant into a second induction variable updated by addition — the
classic LSR transformation behind array-of-arrays addressing
(``a[i*N+j]``). On this substrate a 2-cycle pipelined multiply in the
loop body becomes a chained adder, typically saving a state per
iteration in the surrounding block.
"""

from __future__ import annotations

from typing import List

from ..analysis.loops import Loop, LoopInfo
from ..ir import types as ty
from ..ir.instructions import BinaryOperator, PhiNode
from ..ir.module import Function
from ..ir.values import ConstantInt, Value
from .base import FunctionPass, register_pass
from .loop_utils import ensure_simplified
from .utils import delete_dead_instructions

__all__ = ["LoopReduce"]


@register_pass
class LoopReduce(FunctionPass):
    name = "-loop-reduce"

    def run_on_function(self, func: Function) -> bool:
        if not func.blocks:
            return False
        changed = False
        for _ in range(4):
            info = LoopInfo(func)
            reduced = False
            for loop in sorted(info.loops, key=lambda l: -l.depth):
                if self._reduce_loop(func, info, loop):
                    reduced = True
                    break
            changed |= reduced
            if not reduced:
                break
        if changed:
            delete_dead_instructions(func)
        return changed

    def _reduce_loop(self, func: Function, info: LoopInfo, loop: Loop) -> bool:
        if ensure_simplified(func, loop):
            return True
        preheader = loop.preheader()
        latch = loop.single_latch()
        if preheader is None or latch is None:
            return False
        desc = info.induction_descriptor(loop)
        if desc is None or not isinstance(desc.step, ConstantInt):
            return False
        iv = desc.phi
        if not isinstance(iv.type, ty.IntType):
            return False

        # Find iv * C (C a constant) computed inside the loop.
        candidates: List[BinaryOperator] = []
        for user in iv.users():
            if (
                isinstance(user, BinaryOperator)
                and user.opcode == "mul"
                and user.parent is not None
                and user.parent in loop.blocks
                and (isinstance(user.rhs, ConstantInt) or isinstance(user.lhs, ConstantInt))
            ):
                candidates.append(user)
        if not candidates:
            return False

        changed = False
        latch_term = latch.terminator
        assert latch_term is not None
        for mul in candidates:
            factor = mul.rhs if isinstance(mul.rhs, ConstantInt) else mul.lhs
            assert isinstance(factor, ConstantInt)
            if factor.value in (0,):
                continue
            # New IV: starts at init*C, steps by step*C.
            int_ty = iv.type
            assert isinstance(int_ty, ty.IntType)
            if isinstance(desc.init, ConstantInt):
                start: Value = ConstantInt(int_ty, desc.init.value * factor.value)
            else:
                start_inst = BinaryOperator("mul", desc.init, ConstantInt(int_ty, factor.value), mul.name + ".s0")
                preheader.insert_before_terminator(start_inst)
                start = start_inst
            stride = ConstantInt(int_ty, desc.step.value * factor.value)

            new_iv = PhiNode(int_ty, mul.name + ".lsr")
            loop.header.insert_at_front(new_iv)
            bump = BinaryOperator("add", new_iv, stride, mul.name + ".bump")
            bump.insert_before(latch_term)
            new_iv.add_incoming(start, preheader)
            new_iv.add_incoming(bump, latch)

            mul.replace_all_uses_with(new_iv)
            mul.erase_from_parent()
            changed = True
        return changed
