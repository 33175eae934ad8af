"""-sccp: sparse conditional constant propagation (Wegman–Zadeck).

Runs the classic three-level lattice (⊤ unknown / constant / ⊥ overdefined)
over SSA values with CFG feasibility tracking: code guarded by branches
that can never execute contributes nothing, letting constants propagate
through diamonds that straight folding cannot see. Afterwards, constant
values are substituted and branches on known conditions are rewritten so
-simplifycfg can delete the dead arms.

``-ipsccp`` (in :mod:`repro.passes.ipsccp`) extends the same engine across
call boundaries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from ..ir import types as ty
from ..ir.folding import eval_cast, eval_fcmp, eval_float_binop, eval_icmp, eval_int_binop
from ..ir.instructions import (
    BinaryOperator,
    BranchInst,
    CastInst,
    FCmpInst,
    FNegInst,
    ICmpInst,
    Instruction,
    PhiNode,
    ReturnInst,
    SelectInst,
    SwitchInst,
)
from ..ir.module import BasicBlock, Function
from ..ir.values import Argument, ConstantFloat, ConstantInt, UndefValue, Value
from .base import FunctionPass, register_pass
from .utils import delete_dead_instructions, replace_and_erase

__all__ = ["SCCP", "SCCPSolver", "LatticeValue"]

_TOP = "top"          # unexecuted / unknown
_BOTTOM = "bottom"    # overdefined

LatticeValue = Union[str, int, float]  # _TOP, _BOTTOM, or a concrete constant


class SCCPSolver:
    """The dataflow engine, reusable by -sccp and -ipsccp.

    ``seed_args`` maps arguments to known constants (ipsccp) — unmapped
    arguments start overdefined.
    """

    def __init__(self, func: Function, seed_args: Optional[Dict[Argument, LatticeValue]] = None) -> None:
        self.func = func
        self.values: Dict[Value, LatticeValue] = {}
        self.feasible_edges: Set[Tuple[int, int]] = set()
        self.executable: Set[BasicBlock] = set()
        self.block_worklist: List[BasicBlock] = []
        self.value_worklist: List[Value] = []
        for arg in func.args:
            self.values[arg] = (seed_args or {}).get(arg, _BOTTOM)

    # -- lattice ------------------------------------------------------------
    def lattice(self, v: Value) -> LatticeValue:
        if isinstance(v, ConstantInt):
            return v.value
        if isinstance(v, ConstantFloat):
            return v.value
        if isinstance(v, UndefValue):
            return 0.0 if v.type.is_float else 0
        if isinstance(v, Instruction) or isinstance(v, Argument):
            return self.values.get(v, _TOP)
        return _BOTTOM  # globals, functions, blocks

    def _raise_to(self, v: Value, new: LatticeValue) -> None:
        old = self.values.get(v, _TOP)
        if old == new:
            return
        if old is _BOTTOM:
            return  # can't go back up
        if old is not _TOP and new is not _BOTTOM and old != new:
            new = _BOTTOM
        self.values[v] = new
        self.value_worklist.append(v)

    # -- solving -----------------------------------------------------------------
    def solve(self) -> None:
        self._mark_block(self.func.entry)
        while self.block_worklist or self.value_worklist:
            while self.block_worklist:
                bb = self.block_worklist.pop()
                for inst in bb.instructions:
                    self._visit(inst)
            while self.value_worklist:
                v = self.value_worklist.pop()
                for user in v.users():
                    if user.parent is not None and user.parent in self.executable:
                        self._visit(user)

    def _mark_block(self, bb: BasicBlock) -> None:
        if bb not in self.executable:
            self.executable.add(bb)
            self.block_worklist.append(bb)

    def _mark_edge(self, src: BasicBlock, dst: BasicBlock) -> None:
        edge = (id(src), id(dst))
        if edge in self.feasible_edges:
            return
        self.feasible_edges.add(edge)
        self._mark_block(dst)
        # New edge may change phis in dst even if dst already executable.
        for phi in dst.phis():
            self._visit(phi)

    def _visit(self, inst: Instruction) -> None:
        if isinstance(inst, PhiNode):
            merged: LatticeValue = _TOP
            for value, pred in inst.incoming:
                if (id(pred), id(inst.parent)) not in self.feasible_edges:
                    continue
                lv = self.lattice(value)
                if lv is _TOP:
                    continue
                if merged is _TOP:
                    merged = lv
                elif lv is _BOTTOM or merged != lv:
                    merged = _BOTTOM
            self._raise_to(inst, merged)
            return

        if isinstance(inst, BranchInst):
            if not inst.is_conditional:
                self._mark_edge(inst.parent, inst.true_target)
                return
            cond = self.lattice(inst.condition)
            if cond is _TOP:
                return
            if cond is _BOTTOM:
                self._mark_edge(inst.parent, inst.true_target)
                self._mark_edge(inst.parent, inst.false_target)
            else:
                self._mark_edge(inst.parent, inst.true_target if cond else inst.false_target)
            return

        if isinstance(inst, SwitchInst):
            cond = self.lattice(inst.condition)
            if cond is _TOP:
                return
            if cond is _BOTTOM:
                for succ in inst.successors():
                    self._mark_edge(inst.parent, succ)
            else:
                taken = inst.default
                for const, target in inst.cases:
                    if const.value == cond:
                        taken = target
                        break
                self._mark_edge(inst.parent, taken)
            return

        if isinstance(inst, ReturnInst) or inst.is_terminator:
            for succ in inst.successors():
                self._mark_edge(inst.parent, succ)
            return

        if inst.type.is_void:
            return

        # Ordinary value-producing instructions.
        operand_values: List[LatticeValue] = [self.lattice(op) for op in inst.operands]
        if any(v is _BOTTOM for v in operand_values):
            # Select can still be constant if the chosen arm is constant.
            if isinstance(inst, SelectInst):
                cond, tv, fv = operand_values
                if cond not in (_TOP, _BOTTOM):
                    self._raise_to(inst, tv if cond else fv)
                    return
            self._raise_to(inst, _BOTTOM)
            return
        if any(v is _TOP for v in operand_values):
            return  # not all inputs known yet

        result = self._evaluate(inst, operand_values)
        self._raise_to(inst, result)

    def _evaluate(self, inst: Instruction, ops: List[LatticeValue]) -> LatticeValue:
        try:
            if isinstance(inst, BinaryOperator):
                if inst.opcode in ("fadd", "fsub", "fmul", "fdiv"):
                    return eval_float_binop(inst.opcode, float(ops[0]), float(ops[1]))
                assert isinstance(inst.type, ty.IntType)
                return eval_int_binop(inst.opcode, inst.type, int(ops[0]), int(ops[1]))
            if isinstance(inst, ICmpInst):
                lhs_ty = inst.lhs.type
                if not isinstance(lhs_ty, ty.IntType):
                    return _BOTTOM
                return 1 if eval_icmp(inst.predicate, lhs_ty, int(ops[0]), int(ops[1])) else 0
            if isinstance(inst, FCmpInst):
                return 1 if eval_fcmp(inst.predicate, float(ops[0]), float(ops[1])) else 0
            if isinstance(inst, FNegInst):
                return -float(ops[0])
            if isinstance(inst, CastInst):
                return eval_cast(inst.opcode, inst.operand.type, inst.type, ops[0])
            if isinstance(inst, SelectInst):
                return ops[1] if ops[0] else ops[2]
        except (TypeError, ValueError, AssertionError):
            return _BOTTOM
        return _BOTTOM  # loads, calls, geps: not tracked


def apply_solution(func: Function, solver: SCCPSolver) -> bool:
    """Substitute proven constants and rewrite branches on them."""
    changed = False
    for bb in func.blocks:
        if bb not in solver.executable:
            continue
        for inst in list(bb.instructions):
            if inst.type.is_void or inst.is_terminator:
                continue
            lv = solver.values.get(inst, _TOP)
            if lv in (_TOP, _BOTTOM):
                continue
            if inst.type.is_float:
                const: Value = ConstantFloat(ty.f64, float(lv))
            elif inst.type.is_int:
                assert isinstance(inst.type, ty.IntType)
                const = ConstantInt(inst.type, int(lv))
            else:
                continue
            replace_and_erase(inst, const)
            changed = True
        term = bb.terminator
        if isinstance(term, BranchInst) and term.is_conditional:
            cond = solver.lattice(term.condition)
            if cond not in (_TOP, _BOTTOM):
                taken = term.true_target if cond else term.false_target
                skipped = term.false_target if cond else term.true_target
                if skipped is not taken:
                    for phi in skipped.phis():
                        if bb in phi.incoming_blocks:
                            phi.remove_incoming(bb)
                term.make_unconditional(taken)
                changed = True
    return changed


@register_pass
class SCCP(FunctionPass):
    name = "-sccp"

    def run_on_function(self, func: Function) -> bool:
        solver = SCCPSolver(func)
        solver.solve()
        changed = apply_solution(func, solver)
        if changed:
            delete_dead_instructions(func)
        return changed
