"""IR verifier — structural and SSA well-formedness checks.

Run after every pass in tests (and optionally inside the PassManager) to
catch transformation bugs at their source instead of as downstream
miscompiles. Mirrors the checks LLVM's ``-verify`` performs at the
granularity this IR supports.
"""

from __future__ import annotations

from typing import List, Set

from .instructions import (
    CallInst,
    Instruction,
    InvokeInst,
    PhiNode,
    ReturnInst,
)
from .module import BasicBlock, Function, Module
from .values import Argument, Constant, GlobalVariable, Value

__all__ = ["VerificationError", "verify_function", "verify_module"]


class VerificationError(Exception):
    """Raised when the IR violates a structural invariant."""


def _err(errors: List[str], message: str) -> None:
    errors.append(message)


def verify_function(func: Function, collect: bool = False) -> List[str]:
    errors: List[str] = []
    if func.is_declaration:
        return errors

    block_set: Set[BasicBlock] = set(func.blocks)
    defined: Set[Value] = set(func.args)
    for gv_owner in ([func.parent] if func.parent else []):
        defined.update(gv_owner.globals.values())
        defined.update(gv_owner.functions.values())

    # Pass 1: structure and definition collection.
    for bb in func.blocks:
        if bb.parent is not func:
            _err(errors, f"block {bb.name}: wrong parent")
        if not bb.instructions:
            _err(errors, f"block {bb.name}: empty block")
            continue
        term = bb.instructions[-1]
        if not term.is_terminator:
            _err(errors, f"block {bb.name}: missing terminator (last is {term.opcode})")
        seen_non_phi = False
        for i, inst in enumerate(bb.instructions):
            if inst.parent is not bb:
                _err(errors, f"{bb.name}:{inst.name}: wrong parent block")
            if inst.is_terminator and i != len(bb.instructions) - 1:
                _err(errors, f"block {bb.name}: terminator {inst.opcode} not at end")
            if isinstance(inst, PhiNode):
                if seen_non_phi:
                    _err(errors, f"block {bb.name}: phi {inst.name} after non-phi")
            else:
                seen_non_phi = True
            defined.add(inst)

    # Pass 2: operand sanity, CFG target sanity, phi consistency.
    for bb in func.blocks:
        preds = bb.predecessors()
        pred_set = set(preds)
        for inst in bb.instructions:
            for op in inst.operands:
                if isinstance(op, (Constant, GlobalVariable, Function, BasicBlock)):
                    continue
                if isinstance(op, Argument) and op.parent is not func:
                    _err(errors, f"{bb.name}:{inst.name}: argument {op.name} from another function")
                    continue
                if op not in defined:
                    _err(errors, f"{bb.name}:{inst.name}: operand %{op.name} not defined in function")
                if isinstance(op, Instruction) and inst not in op.users():
                    _err(errors, f"{bb.name}:{inst.name}: use of %{op.name} missing from its use list")
            for succ in inst.successors():
                if succ not in block_set:
                    _err(errors, f"{bb.name}:{inst.opcode}: successor {succ.name} not in function")
            if isinstance(inst, PhiNode):
                incoming_set = set(inst.incoming_blocks)
                if len(inst.incoming_blocks) != len(inst.operands):
                    _err(errors, f"{bb.name}:{inst.name}: phi operand/block length mismatch")
                if incoming_set != pred_set:
                    missing = ", ".join(p.name for p in pred_set - incoming_set)
                    extra = ", ".join(p.name for p in incoming_set - pred_set)
                    _err(
                        errors,
                        f"{bb.name}:{inst.name}: phi edges disagree with predecessors "
                        f"(missing: [{missing}] extra: [{extra}])",
                    )
            if isinstance(inst, ReturnInst):
                rv = inst.return_value
                if func.return_type.is_void:
                    if rv is not None:
                        _err(errors, f"{bb.name}: ret with value in void function")
                elif rv is None:
                    _err(errors, f"{bb.name}: ret void in non-void function {func.name}")

    if not errors:
        _check_dominance(func, errors)
    if not collect and errors:
        raise VerificationError(f"function @{func.name}:\n  " + "\n  ".join(errors))
    return errors


def _check_dominance(func: Function, errors: List[str]) -> None:
    """SSA's def-dominates-use rule, on a structurally clean function: a
    phi use sits at the end of its incoming block, every other use at its
    instruction. Uses in unreachable blocks are not checked."""
    from ..analysis.dominators import DominatorTree

    dom = DominatorTree(func)
    for bb in func.blocks:
        for inst in bb.instructions:
            is_phi = isinstance(inst, PhiNode)
            for i, op in enumerate(inst.operands):
                at = inst.incoming_blocks[i] if is_phi else bb
                if isinstance(op, Instruction) and dom.contains(at) \
                        and not dom.dominates(op, inst, at):
                    _err(errors, f"{bb.name}:{inst.name}: use of %{op.name} "
                                 f"is not dominated by its definition")


def verify_module(module: Module, collect: bool = False) -> List[str]:
    errors: List[str] = []
    for name, func in module.functions.items():
        if name != func.name:
            _err(errors, f"function registered under wrong name: {name} vs {func.name}")
        errors.extend(verify_function(func, collect=True))
    for inst in module.instructions():
        if isinstance(inst, (CallInst, InvokeInst)) and not isinstance(inst.callee, str):
            if inst.callee.parent is not module:
                _err(errors, f"call to function @{inst.callee_name} outside this module")
    if not collect and errors:
        raise VerificationError("module verification failed:\n  " + "\n  ".join(errors))
    return errors
