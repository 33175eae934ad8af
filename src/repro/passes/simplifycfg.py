"""-simplifycfg: CFG cleanup.

Iterates to a fixed point over the standard repertoire:

* delete unreachable blocks;
* fold conditional branches with constant conditions (and conditional
  branches whose two targets coincide);
* merge a block into its unique predecessor when that predecessor has a
  single successor;
* forward "trampoline" blocks that contain only an unconditional branch;
* collapse single-incoming phis;
* fold a switch with a constant scrutinee to a direct branch.

For HLS every removed block is at least one removed FSM state on every
dynamic visit, which is why this pass is part of every good ordering.
"""

from __future__ import annotations

from ..analysis.cfg import remove_unreachable_blocks
from ..ir.instructions import BranchInst, SwitchInst
from ..ir.module import Function
from ..ir.values import ConstantInt
from .base import FunctionPass, register_pass
from .utils import delete_dead_instructions, replace_and_erase

__all__ = ["SimplifyCFG", "simplify_cfg_once"]


def _fold_constant_branches(func: Function) -> bool:
    changed = False
    for bb in list(func.blocks):
        term = bb.terminator
        if isinstance(term, BranchInst) and term.is_conditional:
            if isinstance(term.condition, ConstantInt):
                taken = term.true_target if term.condition.value else term.false_target
                not_taken = term.false_target if term.condition.value else term.true_target
                if not_taken is not taken:
                    for phi in not_taken.phis():
                        if bb in phi.incoming_blocks:
                            phi.remove_incoming(bb)
                term.make_unconditional(taken)
                changed = True
            elif term.true_target is term.false_target:
                target = term.true_target
                term.make_unconditional(target)
                changed = True
        elif isinstance(term, SwitchInst) and isinstance(term.condition, ConstantInt):
            value = term.condition.value
            taken = term.default
            for const, case_bb in term.cases:
                if const.value == value:
                    taken = case_bb
                    break
            for succ in set(term.successors()):
                if succ is not taken:
                    for phi in succ.phis():
                        if bb in phi.incoming_blocks:
                            phi.remove_incoming(bb)
            new_br = BranchInst(taken)
            term.erase_from_parent()
            bb.append(new_br)
            changed = True
    return changed


def _merge_into_predecessor(func: Function) -> bool:
    """bb has unique pred P; P's only successor is bb -> splice together."""
    changed = False
    for bb in list(func.blocks):
        if bb is func.entry:
            continue
        preds = bb.predecessors()
        if len(preds) != 1:
            continue
        pred = preds[0]
        if pred is bb or len(set(pred.successors())) != 1:
            continue
        term = pred.terminator
        if not isinstance(term, BranchInst):
            continue  # do not merge invoke edges
        # Collapse phis (single incoming) then splice instructions.
        for phi in bb.phis():
            replace_and_erase(phi, phi.incoming_value_for(pred))
        term.remove_from_parent()
        term.drop_all_references()
        for inst in list(bb.instructions):
            inst.move_to_end(pred)
        for succ in pred.successors():
            for phi in succ.phis():
                phi.replace_incoming_block(bb, pred)
        bb.remove_from_parent()
        changed = True
    return changed


def _forward_empty_blocks(func: Function) -> bool:
    """Blocks containing only ``br target`` forward their predecessors."""
    changed = False
    for bb in list(func.blocks):
        if bb is func.entry:
            continue
        if len(bb.instructions) != 1:
            continue
        term = bb.terminator
        if not isinstance(term, BranchInst) or term.is_conditional:
            continue
        target = term.true_target
        if target is bb:
            continue
        # Phis in the target must be rewritable per predecessor: if the
        # target already has an edge from a pred, retargeting would create
        # a duplicate edge with possibly conflicting phi values — skip.
        preds = bb.predecessors()
        target_phis = target.phis()
        if target_phis:
            target_pred_set = set(target.predecessors())
            if any(p in target_pred_set for p in preds):
                continue
        ok = True
        for pred in preds:
            if pred is bb:
                ok = False
                break
        if not ok or not preds:
            continue
        for pred in preds:
            pred_term = pred.terminator
            assert pred_term is not None
            pred_term.replace_successor(bb, target)
            for phi in target_phis:
                phi.add_incoming(phi.incoming_value_for(bb), pred)
        for phi in target_phis:
            phi.remove_incoming(bb)
        func.remove_block(bb)
        changed = True
    return changed


def _collapse_single_incoming_phis(func: Function) -> bool:
    changed = False
    for bb in func.blocks:
        for phi in list(bb.phis()):
            if len(phi.incoming_blocks) == 1:
                replace_and_erase(phi, phi.operands[0])
                changed = True
    return changed


def simplify_cfg_once(func: Function) -> bool:
    changed = False
    changed |= remove_unreachable_blocks(func) > 0
    changed |= _fold_constant_branches(func)
    changed |= remove_unreachable_blocks(func) > 0
    changed |= _collapse_single_incoming_phis(func)
    changed |= _forward_empty_blocks(func)
    changed |= _merge_into_predecessor(func)
    return changed


@register_pass
class SimplifyCFG(FunctionPass):
    name = "-simplifycfg"

    max_iterations = 16

    def run_on_function(self, func: Function) -> bool:
        changed = False
        for _ in range(self.max_iterations):
            if not simplify_cfg_once(func):
                break
            changed = True
        if changed:
            delete_dead_instructions(func)
        return changed
