"""IRBuilder: ergonomic construction of repro-IR, mirroring llvmlite/LLVM.

Every emit method appends to the current insertion block and returns the
new instruction, so program construction reads like straight-line code:

    b = IRBuilder(block)
    total = b.add(b.load(ptr), b.const(1), name="total")
    b.store(total, ptr)
    b.ret(total)
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from . import types as ty
from .instructions import (
    AllocaInst,
    BinaryOperator,
    BranchInst,
    CallInst,
    CastInst,
    FCmpInst,
    FNegInst,
    GEPInst,
    ICmpInst,
    InvokeInst,
    LoadInst,
    PhiNode,
    ReturnInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from .module import BasicBlock, Function
from .values import ConstantFloat, ConstantInt, Value

__all__ = ["IRBuilder"]


class IRBuilder:
    def __init__(self, block: Optional[BasicBlock] = None) -> None:
        self.block = block

    def position_at_end(self, block: BasicBlock) -> None:
        self.block = block

    def _insert(self, inst):
        assert self.block is not None, "builder has no insertion block"
        return self.block.append(inst)

    # -- constants -----------------------------------------------------------
    @staticmethod
    def const(value: int, type_: ty.IntType = ty.i32) -> ConstantInt:
        return ConstantInt(type_, value)

    @staticmethod
    def fconst(value: float) -> ConstantFloat:
        return ConstantFloat(ty.f64, value)

    # -- integer arithmetic ----------------------------------------------------
    def _binop(self, opcode: str, lhs: Value, rhs: Value, name: str) -> BinaryOperator:
        return self._insert(BinaryOperator(opcode, lhs, rhs, name))

    def add(self, lhs, rhs, name=""):
        return self._binop("add", lhs, rhs, name)

    def sub(self, lhs, rhs, name=""):
        return self._binop("sub", lhs, rhs, name)

    def mul(self, lhs, rhs, name=""):
        return self._binop("mul", lhs, rhs, name)

    def sdiv(self, lhs, rhs, name=""):
        return self._binop("sdiv", lhs, rhs, name)

    def udiv(self, lhs, rhs, name=""):
        return self._binop("udiv", lhs, rhs, name)

    def srem(self, lhs, rhs, name=""):
        return self._binop("srem", lhs, rhs, name)

    def urem(self, lhs, rhs, name=""):
        return self._binop("urem", lhs, rhs, name)

    def and_(self, lhs, rhs, name=""):
        return self._binop("and", lhs, rhs, name)

    def or_(self, lhs, rhs, name=""):
        return self._binop("or", lhs, rhs, name)

    def xor(self, lhs, rhs, name=""):
        return self._binop("xor", lhs, rhs, name)

    def shl(self, lhs, rhs, name=""):
        return self._binop("shl", lhs, rhs, name)

    def lshr(self, lhs, rhs, name=""):
        return self._binop("lshr", lhs, rhs, name)

    def ashr(self, lhs, rhs, name=""):
        return self._binop("ashr", lhs, rhs, name)

    # -- float arithmetic --------------------------------------------------------
    def fadd(self, lhs, rhs, name=""):
        return self._binop("fadd", lhs, rhs, name)

    def fsub(self, lhs, rhs, name=""):
        return self._binop("fsub", lhs, rhs, name)

    def fmul(self, lhs, rhs, name=""):
        return self._binop("fmul", lhs, rhs, name)

    def fdiv(self, lhs, rhs, name=""):
        return self._binop("fdiv", lhs, rhs, name)

    def fneg(self, value, name=""):
        return self._insert(FNegInst(value, name))

    # -- comparisons / select ------------------------------------------------------
    def icmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> ICmpInst:
        return self._insert(ICmpInst(predicate, lhs, rhs, name))

    def fcmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> FCmpInst:
        return self._insert(FCmpInst(predicate, lhs, rhs, name))

    def select(self, cond: Value, true_value: Value, false_value: Value, name: str = "") -> SelectInst:
        return self._insert(SelectInst(cond, true_value, false_value, name))

    # -- memory ------------------------------------------------------------------
    def alloca(self, allocated_type: ty.Type, name: str = "") -> AllocaInst:
        return self._insert(AllocaInst(allocated_type, name))

    def load(self, pointer: Value, name: str = "", volatile: bool = False) -> LoadInst:
        return self._insert(LoadInst(pointer, name, volatile))

    def store(self, value: Value, pointer: Value, volatile: bool = False) -> StoreInst:
        return self._insert(StoreInst(value, pointer, volatile))

    def gep(self, pointer: Value, indices: Sequence[Union[Value, int]], name: str = "") -> GEPInst:
        resolved = [self.const(i) if isinstance(i, int) else i for i in indices]
        return self._insert(GEPInst(pointer, resolved, name))

    # -- calls ----------------------------------------------------------------------
    def call(self, callee, args: Sequence[Value], return_type: Optional[ty.Type] = None,
             name: str = "") -> CallInst:
        if return_type is None:
            if isinstance(callee, Function):
                return_type = callee.return_type
            else:
                raise TypeError("external calls need an explicit return_type")
        return self._insert(CallInst(callee, list(args), return_type, name))

    def invoke(self, callee, args: Sequence[Value], return_type: ty.Type,
               normal_dest: BasicBlock, unwind_dest: BasicBlock, name: str = "") -> InvokeInst:
        return self._insert(InvokeInst(callee, list(args), return_type, normal_dest, unwind_dest, name))

    # -- casts ---------------------------------------------------------------------
    def trunc(self, value: Value, dest: ty.Type, name: str = "") -> CastInst:
        return self._insert(CastInst("trunc", value, dest, name))

    def zext(self, value: Value, dest: ty.Type, name: str = "") -> CastInst:
        return self._insert(CastInst("zext", value, dest, name))

    def sext(self, value: Value, dest: ty.Type, name: str = "") -> CastInst:
        return self._insert(CastInst("sext", value, dest, name))

    def bitcast(self, value: Value, dest: ty.Type, name: str = "") -> CastInst:
        return self._insert(CastInst("bitcast", value, dest, name))

    def sitofp(self, value: Value, dest: ty.Type = ty.f64, name: str = "") -> CastInst:
        return self._insert(CastInst("sitofp", value, dest, name))

    def fptosi(self, value: Value, dest: ty.Type = ty.i32, name: str = "") -> CastInst:
        return self._insert(CastInst("fptosi", value, dest, name))

    # -- control flow ------------------------------------------------------------------
    def phi(self, type_: ty.Type, name: str = "") -> PhiNode:
        node = PhiNode(type_, name)
        assert self.block is not None
        self.block.insert_at_front(node)
        return node

    def br(self, target: BasicBlock) -> BranchInst:
        return self._insert(BranchInst(target))

    def cbr(self, cond: Value, if_true: BasicBlock, if_false: BasicBlock) -> BranchInst:
        return self._insert(BranchInst(cond, if_true, if_false))

    def switch(self, value: Value, default: BasicBlock) -> SwitchInst:
        return self._insert(SwitchInst(value, default))

    def ret(self, value: Optional[Value] = None) -> ReturnInst:
        return self._insert(ReturnInst(value))

    def unreachable(self) -> UnreachableInst:
        return self._insert(UnreachableInst())
