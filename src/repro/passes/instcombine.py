"""-instcombine: worklist-driven peephole combining.

Beyond the pure identities in :func:`repro.passes.utils.simplify_instruction`
this pass performs the rewrites that *create new instructions* (so they
don't belong in the shared simplifier):

* canonicalize constants to the right of commutative ops;
* reassociate ``(x op c1) op c2 → x op (c1 op c2)`` for associative ops;
* strength-reduce multiplies/divides/remainders by powers of two into
  shifts and masks (on an FPGA this converts a 2-cycle DSP multiply or a
  16-cycle divider into free wiring — one of the clearest cycle wins);
* fold double casts and double-xor/neg patterns;
* simplify compares against constants after add/sub offsetting.

The paper's §4.1 calls out instcombine's correlation with BitCast counts
(reducing loads/stores that feed bitcasts); the same load/store-adjacent
cleanups emerge here through cast folding.
"""

from __future__ import annotations

from typing import List, Optional

from ..ir import types as ty
from ..ir.folding import eval_int_binop
from ..ir.instructions import (
    BinaryOperator,
    CastInst,
    ICmpInst,
    Instruction,
)
from ..ir.module import Function
from ..ir.values import ConstantInt, Value
from .base import FunctionPass, register_pass
from .utils import is_trivially_dead, replace_and_erase, simplify_instruction

__all__ = ["InstCombine"]


def _power_of_two_log(value: int) -> Optional[int]:
    if value > 0 and (value & (value - 1)) == 0:
        return value.bit_length() - 1
    return None


_ASSOCIATIVE = {"add", "mul", "and", "or", "xor"}


class _Combiner:
    def __init__(self, func: Function) -> None:
        self.func = func
        self.worklist: List[Instruction] = [i for bb in func.blocks for i in bb.instructions]
        self.changed = False

    def push_users(self, value: Value) -> None:
        for user in value.users():
            self.worklist.append(user)

    def run(self) -> bool:
        while self.worklist:
            inst = self.worklist.pop()
            if inst.parent is None:  # already erased
                continue
            if is_trivially_dead(inst):
                self.push_users_of_operands(inst)
                inst.erase_from_parent()
                self.changed = True
                continue
            replacement = simplify_instruction(inst)
            if replacement is not None:
                self.push_users(inst)
                replace_and_erase(inst, replacement)
                self.changed = True
                continue
            if isinstance(inst, BinaryOperator):
                if self.visit_binop(inst):
                    self.changed = True
            elif isinstance(inst, CastInst):
                if self.visit_cast(inst):
                    self.changed = True
            elif isinstance(inst, ICmpInst):
                if self.visit_icmp(inst):
                    self.changed = True
        return self.changed

    def push_users_of_operands(self, inst: Instruction) -> None:
        for op in inst.operands:
            if isinstance(op, Instruction):
                self.worklist.append(op)

    # -- rewrites ----------------------------------------------------------
    def replace_with_new(self, old: Instruction, new: Instruction) -> None:
        new.insert_before(old)
        self.push_users(old)
        replace_and_erase(old, new)
        self.worklist.append(new)

    def visit_binop(self, inst: BinaryOperator) -> bool:
        # Canonicalize: constant to the RHS of commutative ops.
        if inst.is_commutative and isinstance(inst.lhs, ConstantInt) and not isinstance(inst.rhs, ConstantInt):
            lhs, rhs = inst.lhs, inst.rhs
            inst.set_operand(0, rhs)
            inst.set_operand(1, lhs)
            self.worklist.append(inst)
            return True

        # (x op c1) op c2 -> x op (c1 op c2) for associative/commutative ops.
        if (
            inst.opcode in _ASSOCIATIVE
            and isinstance(inst.rhs, ConstantInt)
            and isinstance(inst.lhs, BinaryOperator)
            and inst.lhs.opcode == inst.opcode
            and isinstance(inst.lhs.rhs, ConstantInt)
            and isinstance(inst.type, ty.IntType)
        ):
            inner = inst.lhs
            folded = eval_int_binop(inst.opcode, inst.type, inner.rhs.value, inst.rhs.value)
            new = BinaryOperator(inst.opcode, inner.lhs, ConstantInt(inst.type, folded), inst.name + ".ra")
            self.replace_with_new(inst, new)
            return True

        # x - c  ->  x + (-c): canonical form exposes reassociation.
        if inst.opcode == "sub" and isinstance(inst.rhs, ConstantInt) and isinstance(inst.type, ty.IntType):
            new = BinaryOperator("add", inst.lhs, ConstantInt(inst.type, -inst.rhs.value), inst.name + ".na")
            self.replace_with_new(inst, new)
            return True

        # Strength reduction by powers of two.
        if isinstance(inst.rhs, ConstantInt) and isinstance(inst.type, ty.IntType):
            log = _power_of_two_log(inst.rhs.value)
            if log is not None and log > 0:
                if inst.opcode == "mul":
                    new = BinaryOperator("shl", inst.lhs, ConstantInt(inst.type, log), inst.name + ".sh")
                    self.replace_with_new(inst, new)
                    return True
                if inst.opcode == "udiv":
                    new = BinaryOperator("lshr", inst.lhs, ConstantInt(inst.type, log), inst.name + ".sh")
                    self.replace_with_new(inst, new)
                    return True
                if inst.opcode == "urem":
                    mask = (1 << log) - 1
                    new = BinaryOperator("and", inst.lhs, ConstantInt(inst.type, mask), inst.name + ".msk")
                    self.replace_with_new(inst, new)
                    return True
            if log == 0 and inst.opcode in ("mul", "udiv"):
                self.push_users(inst)
                replace_and_erase(inst, inst.lhs)
                return True

        # add x, x -> shl x, 1 (adder → wire shift).
        if inst.opcode == "add" and inst.lhs is inst.rhs and isinstance(inst.type, ty.IntType):
            new = BinaryOperator("shl", inst.lhs, ConstantInt(inst.type, 1), inst.name + ".dbl")
            self.replace_with_new(inst, new)
            return True

        # xor x, -1 twice (double bitwise-not) -> x.
        if (
            inst.opcode == "xor"
            and isinstance(inst.rhs, ConstantInt)
            and inst.rhs.value == -1
            and isinstance(inst.lhs, BinaryOperator)
            and inst.lhs.opcode == "xor"
            and isinstance(inst.lhs.rhs, ConstantInt)
            and inst.lhs.rhs.value == -1
        ):
            self.push_users(inst)
            replace_and_erase(inst, inst.lhs.lhs)
            return True
        return False

    def visit_cast(self, inst: CastInst) -> bool:
        src = inst.operand
        # (zext (zext x)) -> zext x to the final type; same for sext.
        if isinstance(src, CastInst) and src.opcode == inst.opcode and inst.opcode in ("zext", "sext"):
            new = CastInst(inst.opcode, src.operand, inst.type, inst.name + ".zz")
            self.replace_with_new(inst, new)
            return True
        # trunc(zext/sext x) where widths round-trip -> x.
        if (
            inst.opcode == "trunc"
            and isinstance(src, CastInst)
            and src.opcode in ("zext", "sext")
            and src.operand.type is inst.type
        ):
            self.push_users(inst)
            replace_and_erase(inst, src.operand)
            return True
        return False

    def visit_icmp(self, inst: ICmpInst) -> bool:
        # icmp pred (add x, c1), c2  ->  icmp pred x, (c2 - c1)
        # Valid only for eq/ne in the presence of wrapping, which is what
        # LLVM also restricts the fold to without nsw.
        if (
            inst.predicate in ("eq", "ne")
            and isinstance(inst.lhs, BinaryOperator)
            and inst.lhs.opcode == "add"
            and isinstance(inst.lhs.rhs, ConstantInt)
            and isinstance(inst.rhs, ConstantInt)
            and isinstance(inst.lhs.type, ty.IntType)
        ):
            c = eval_int_binop("sub", inst.lhs.type, inst.rhs.value, inst.lhs.rhs.value)
            new = ICmpInst(inst.predicate, inst.lhs.lhs, ConstantInt(inst.lhs.type, c), inst.name + ".off")
            self.replace_with_new(inst, new)
            return True
        # Canonicalize constant to the RHS by swapping the predicate.
        if isinstance(inst.lhs, ConstantInt) and not isinstance(inst.rhs, ConstantInt):
            new = ICmpInst(ICmpInst.SWAPPED[inst.predicate], inst.rhs, inst.lhs, inst.name + ".sw")
            self.replace_with_new(inst, new)
            return True
        return False


@register_pass
class InstCombine(FunctionPass):
    name = "-instcombine"

    def run_on_function(self, func: Function) -> bool:
        return _Combiner(func).run()
