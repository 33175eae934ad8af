"""Shared transformation utilities used across the pass suite."""

from __future__ import annotations

from typing import Optional

from ..ir import types as ty
from ..ir.folding import eval_cast, eval_fcmp, eval_float_binop, eval_icmp, eval_int_binop
from ..ir.instructions import (
    BinaryOperator,
    CallInst,
    CastInst,
    FCmpInst,
    FNegInst,
    ICmpInst,
    Instruction,
    PhiNode,
    SelectInst,
)
from ..ir.module import Function
from ..ir.values import ConstantFloat, ConstantInt, Value

__all__ = [
    "constant_fold",
    "simplify_instruction",
    "is_trivially_dead",
    "delete_dead_instructions",
    "erase_chain",
    "replace_and_erase",
]


def constant_fold(inst: Instruction) -> Optional[Value]:
    """Fold an instruction whose operands are all immediates.

    Uses :mod:`repro.ir.folding`, so results always match the interpreter.
    """
    ops = inst.operands
    if isinstance(inst, BinaryOperator):
        a, b = ops
        if isinstance(a, ConstantInt) and isinstance(b, ConstantInt):
            assert isinstance(inst.type, ty.IntType)
            return ConstantInt(inst.type, eval_int_binop(inst.opcode, inst.type, a.value, b.value))
        if isinstance(a, ConstantFloat) and isinstance(b, ConstantFloat):
            return ConstantFloat(ty.f64, eval_float_binop(inst.opcode, a.value, b.value))
        return None
    if isinstance(inst, ICmpInst):
        a, b = ops
        if isinstance(a, ConstantInt) and isinstance(b, ConstantInt):
            assert isinstance(a.type, ty.IntType)
            return ConstantInt(ty.i1, 1 if eval_icmp(inst.predicate, a.type, a.value, b.value) else 0)
        return None
    if isinstance(inst, FCmpInst):
        a, b = ops
        if isinstance(a, ConstantFloat) and isinstance(b, ConstantFloat):
            return ConstantInt(ty.i1, 1 if eval_fcmp(inst.predicate, a.value, b.value) else 0)
        return None
    if isinstance(inst, CastInst):
        (a,) = ops
        if isinstance(a, ConstantInt):
            result = eval_cast(inst.opcode, a.type, inst.type, a.value)
            if inst.type.is_float:
                return ConstantFloat(ty.f64, float(result))
            assert isinstance(inst.type, ty.IntType)
            return ConstantInt(inst.type, int(result))
        if isinstance(a, ConstantFloat):
            result = eval_cast(inst.opcode, a.type, inst.type, a.value)
            if inst.type.is_float:
                return ConstantFloat(ty.f64, float(result))
            assert isinstance(inst.type, ty.IntType)
            return ConstantInt(inst.type, int(result))
        return None
    if isinstance(inst, FNegInst):
        (a,) = ops
        if isinstance(a, ConstantFloat):
            return ConstantFloat(ty.f64, -a.value)
        return None
    if isinstance(inst, SelectInst):
        if isinstance(inst.condition, ConstantInt):
            return inst.true_value if inst.condition.value else inst.false_value
        return None
    return None


def _is_zero(v: Value) -> bool:
    return isinstance(v, ConstantInt) and v.value == 0


def _is_one(v: Value) -> bool:
    return isinstance(v, ConstantInt) and v.value == 1


def _is_all_ones(v: Value) -> bool:
    return isinstance(v, ConstantInt) and v.value == -1


def simplify_instruction(inst: Instruction) -> Optional[Value]:
    """Algebraic identities that replace an instruction by an existing value.

    Returns the replacement (never a *new* computation), or None. Folding
    of all-constant operands is handled by :func:`constant_fold` first.
    """
    folded = constant_fold(inst)
    if folded is not None:
        return folded

    if isinstance(inst, BinaryOperator):
        a, b = inst.lhs, inst.rhs
        op = inst.opcode
        if op == "add":
            if _is_zero(b):
                return a
            if _is_zero(a):
                return b
        elif op == "sub":
            if _is_zero(b):
                return a
            if a is b:
                return ConstantInt(inst.type, 0)  # type: ignore[arg-type]
        elif op == "mul":
            if _is_one(b):
                return a
            if _is_one(a):
                return b
            if _is_zero(a) or _is_zero(b):
                return ConstantInt(inst.type, 0)  # type: ignore[arg-type]
        elif op in ("sdiv", "udiv"):
            if _is_one(b):
                return a
            if _is_zero(a):
                return ConstantInt(inst.type, 0)  # type: ignore[arg-type]
        elif op in ("srem", "urem"):
            if _is_one(b):
                return ConstantInt(inst.type, 0)  # type: ignore[arg-type]
        elif op == "and":
            if a is b:
                return a
            if _is_zero(a) or _is_zero(b):
                return ConstantInt(inst.type, 0)  # type: ignore[arg-type]
            if _is_all_ones(b):
                return a
            if _is_all_ones(a):
                return b
        elif op == "or":
            if a is b:
                return a
            if _is_zero(b):
                return a
            if _is_zero(a):
                return b
            if _is_all_ones(a) or _is_all_ones(b):
                return ConstantInt(inst.type, -1)  # type: ignore[arg-type]
        elif op == "xor":
            if a is b:
                return ConstantInt(inst.type, 0)  # type: ignore[arg-type]
            if _is_zero(b):
                return a
            if _is_zero(a):
                return b
        elif op in ("shl", "lshr", "ashr"):
            if _is_zero(b):
                return a
            if _is_zero(a):
                return ConstantInt(inst.type, 0)  # type: ignore[arg-type]
        elif op in ("fadd", "fsub"):
            # fp identities are not exact for NaN/signed zero; we only use
            # x + 0.0 == x which holds for our generated value ranges, and
            # LLVM applies it under fast-math which HLS flows enable.
            if isinstance(b, ConstantFloat) and b.value == 0.0:
                return a
        elif op == "fmul":
            if isinstance(b, ConstantFloat) and b.value == 1.0:
                return a
            if isinstance(a, ConstantFloat) and a.value == 1.0:
                return b
    elif isinstance(inst, ICmpInst):
        if inst.lhs is inst.rhs:
            true_preds = ("eq", "sle", "sge", "ule", "uge")
            return ConstantInt(ty.i1, 1 if inst.predicate in true_preds else 0)
    elif isinstance(inst, SelectInst):
        if inst.true_value is inst.false_value:
            return inst.true_value
    elif isinstance(inst, PhiNode):
        distinct = {id(v) for v in inst.operands if v is not inst}
        if len(distinct) == 1:
            for v in inst.operands:
                if v is not inst:
                    return v
    elif isinstance(inst, CastInst):
        if inst.opcode == "bitcast" and inst.operand.type is inst.type:
            return inst.operand
    return None


def is_trivially_dead(inst: Instruction) -> bool:
    """Unused and side-effect free (safe to delete on the spot)."""
    if inst.is_used:
        return False
    if inst.is_terminator:
        return False
    if inst.may_have_side_effects():
        return False
    if isinstance(inst, (CallInst,)) and not inst.is_pure():
        return False
    if getattr(inst, "is_volatile", False):
        return False
    return True


def delete_dead_instructions(func: Function) -> int:
    """Iteratively delete trivially dead instructions. Returns count."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for bb in func.blocks:
            for inst in reversed(list(bb.instructions)):
                if is_trivially_dead(inst):
                    inst.erase_from_parent()
                    removed += 1
                    changed = True
    return removed


def erase_chain(inst: Instruction) -> int:
    """Erase ``inst`` and any operands made trivially dead by its removal."""
    operands = [op for op in inst.operands if isinstance(op, Instruction)]
    inst.erase_from_parent()
    removed = 1
    for op in operands:
        if is_trivially_dead(op):
            removed += erase_chain(op)
    return removed


def replace_and_erase(inst: Instruction, replacement: Value) -> None:
    """RAUW + erase, the standard simplification step."""
    inst.replace_all_uses_with(replacement)
    inst.erase_from_parent()
