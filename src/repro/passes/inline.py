"""-inline and -partial-inliner.

The inliner works bottom-up over the call graph with an LLVM-flavoured
cost model: small callees and single-call-site callees are inlined,
``alwaysinline`` forces, ``noinline`` and recursion block.

``-partial-inliner`` handles the early-exit pattern the full inliner's
threshold rejects: a callee whose entry block only tests a condition and
returns immediately on one arm gets the *test* inlined at each call site,
with the expensive path still calling the original function.

For HLS, inlining eliminates the per-call FSM handshake state and lets
the scheduler chain the callee's operations with the caller's — the
mechanism behind the paper's Figure 1-3 inlining discussion.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.callgraph import CallGraph
from ..ir.cloning import clone_blocks
from ..ir.instructions import BranchInst, CallInst, PhiNode, ReturnInst
from ..ir.module import BasicBlock, Function, Module
from ..ir.values import ConstantInt, Value
from .base import Pass, register_pass

__all__ = ["Inliner", "PartialInliner", "inline_call_site"]

_INLINE_THRESHOLD = 70
_PARTIAL_ENTRY_LIMIT = 8


def inline_call_site(call: CallInst) -> bool:
    """Inline one direct call to a defined function. Returns success."""
    callee = call.callee
    if isinstance(callee, str) or callee.is_declaration:
        return False
    block = call.parent
    assert block is not None and block.parent is not None
    caller = block.parent

    # 1. Split the call block: everything after the call moves to `cont`.
    idx = block.instructions.index(call)
    cont = caller.add_block(block.name + ".cont", after=block)
    tail = block.instructions[idx + 1:]
    for inst in tail:
        inst.remove_from_parent()
        cont.append(inst)
    # Successor phis must now name `cont` as the predecessor.
    for succ in cont.successors():
        for phi in succ.phis():
            phi.replace_incoming_block(block, cont)

    # 2. Clone the callee body, mapping formals to actuals.
    vmap: Dict[Value, Value] = {
        formal: actual for formal, actual in zip(callee.args, call.args)
    }
    new_blocks, vmap = clone_blocks(callee.blocks, caller, vmap, suffix=f".{callee.name}")
    entry_clone = vmap[callee.entry]

    # 3. Rewire: call block branches into the inlined entry; each inlined
    #    return branches to the continuation.
    returns: List[Tuple[Optional[Value], BasicBlock]] = []
    for bb in new_blocks:
        term = bb.terminator
        if isinstance(term, ReturnInst):
            rv = term.return_value
            term.remove_from_parent()
            term.drop_all_references()
            bb.append(BranchInst(cont))
            returns.append((rv, bb))
    call.remove_from_parent()
    block.append(BranchInst(entry_clone))

    # 4. Merge return values.
    if not call.type.is_void:
        if len(returns) == 1:
            result: Value = returns[0][0]  # type: ignore[assignment]
        elif returns:
            phi = PhiNode(call.type, call.name + ".ret")
            cont.insert_at_front(phi)
            for rv, bb in returns:
                assert rv is not None
                phi.add_incoming(rv, bb)
            result = phi
        else:
            # Callee never returns; the continuation is unreachable.
            from ..ir.values import UndefValue

            result = UndefValue(call.type)
        call.replace_all_uses_with(result)
    call.drop_all_references()
    return True


def _inline_cost(func: Function) -> int:
    return sum(len(bb.instructions) for bb in func.blocks)


@register_pass
class Inliner(Pass):
    name = "-inline"

    def __init__(self, threshold: int = _INLINE_THRESHOLD) -> None:
        self.threshold = threshold

    def run(self, module: Module) -> bool:
        changed = False
        for _ in range(4):  # inlining exposes further inlining
            cg = CallGraph(module)
            round_changed = False
            for callee in cg.bottom_up_order():
                if callee.is_declaration or "noinline" in callee.attributes:
                    continue
                if cg.is_recursive(callee):
                    continue
                sites = [s for s in cg.call_sites(callee) if isinstance(s, CallInst)]
                if not sites:
                    continue
                force = "alwaysinline" in callee.attributes
                cost = _inline_cost(callee)
                if not force and cost > self.threshold and len(sites) > 1:
                    continue
                for site in sites:
                    if site.parent is None:
                        continue
                    if inline_call_site(site):
                        round_changed = True
            changed |= round_changed
            if not round_changed:
                break
        return changed


@register_pass
class PartialInliner(Pass):
    name = "-partial-inliner"

    def run(self, module: Module) -> bool:
        changed = False
        cg = CallGraph(module)
        for callee in list(module.defined_functions()):
            if cg.is_recursive(callee) or "noinline" in callee.attributes:
                continue
            shape = self._early_exit_shape(callee)
            if shape is None:
                continue
            for site in list(cg.call_sites(callee)):
                if isinstance(site, CallInst) and site.parent is not None:
                    changed |= self._outline_at(site, callee, shape)
        return changed

    @staticmethod
    def _early_exit_shape(func: Function):
        """Match: entry = [cheap test..., cbr] where one arm is `ret C`."""
        entry = func.entry
        if len(entry.instructions) > _PARTIAL_ENTRY_LIMIT:
            return None
        term = entry.terminator
        if not isinstance(term, BranchInst) or not term.is_conditional:
            return None
        for inst in entry.instructions:
            if inst.is_terminator:
                continue
            if inst.may_have_side_effects() or inst.may_read_memory():
                return None
        for arm, other in ((term.true_target, term.false_target),
                           (term.false_target, term.true_target)):
            if len(arm.instructions) == 1 and isinstance(arm.instructions[0], ReturnInst):
                ret = arm.instructions[0]
                rv = ret.return_value
                if rv is None or isinstance(rv, ConstantInt):
                    taken_on_true = arm is term.true_target
                    return (taken_on_true, rv)
        return None

    @staticmethod
    def _outline_at(call: CallInst, callee: Function, shape) -> bool:
        """Inline just the entry test; keep the call on the cold path."""
        taken_on_true, early_value = shape
        block = call.parent
        assert block is not None and block.parent is not None
        caller = block.parent

        # Split around the call.
        idx = block.instructions.index(call)
        cont = caller.add_block(block.name + ".picont", after=block)
        for inst in block.instructions[idx + 1:]:
            inst.remove_from_parent()
            cont.append(inst)
        for succ in cont.successors():
            for phi in succ.phis():
                phi.replace_incoming_block(block, cont)

        # Clone the entry test computation.
        vmap: Dict[Value, Value] = {f: a for f, a in zip(callee.args, call.args)}
        from ..ir.cloning import clone_instruction

        entry = callee.entry
        term = entry.terminator
        assert isinstance(term, BranchInst)
        for inst in entry.instructions[:-1]:
            clone = clone_instruction(inst, vmap)
            clone.move_to_end(block)
            vmap[inst] = clone

        cold = caller.add_block(block.name + ".cold", after=block)
        cond = vmap.get(term.condition, term.condition)
        call.remove_from_parent()
        if taken_on_true:
            block.append(BranchInst(cond, cont, cold))
        else:
            block.append(BranchInst(cond, cold, cont))

        new_call = CallInst(callee, list(call.args), call.type, call.name + ".cold")
        cold.append(new_call)
        cold.append(BranchInst(cont))

        if not call.type.is_void:
            phi = PhiNode(call.type, call.name + ".pi")
            cont.insert_at_front(phi)
            phi.add_incoming(early_value if early_value is not None else ConstantInt.get(0), block)
            phi.add_incoming(new_call, cold)
            call.replace_all_uses_with(phi)
        call.drop_all_references()
        return True
