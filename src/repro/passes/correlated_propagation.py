"""-correlated-propagation: propagate branch-implied value facts.

The implemented core is LLVM's highest-value case: after
``br (icmp eq x, C), T, F``, every use of ``x`` dominated by the
``T``-side of the edge can be replaced by ``C`` (dually for ``ne`` on the
false side). Replacing a value with a constant both enables later
constant folding and shrinks datapath muxing.

The edge's target must have the branch block as its only predecessor so
that block-dominance equals edge-dominance; -break-crit-edges creates
exactly this shape, another of the pass-ordering interactions the paper's
search exploits.
"""

from __future__ import annotations

from ..analysis.dominators import DominatorTree
from ..ir.instructions import BranchInst, ICmpInst, PhiNode
from ..ir.module import BasicBlock, Function
from ..ir.values import ConstantInt, Value
from .base import FunctionPass, register_pass

__all__ = ["CorrelatedPropagation"]


@register_pass
class CorrelatedPropagation(FunctionPass):
    name = "-correlated-propagation"

    def run_on_function(self, func: Function) -> bool:
        if not func.blocks:
            return False
        domtree = DominatorTree(func)
        changed = False
        for bb in func.blocks:
            term = bb.terminator
            if not isinstance(term, BranchInst) or not term.is_conditional:
                continue
            cond = term.condition
            if not isinstance(cond, ICmpInst):
                continue
            if cond.predicate not in ("eq", "ne"):
                continue
            if isinstance(cond.rhs, ConstantInt) and not isinstance(cond.lhs, ConstantInt):
                value, const = cond.lhs, cond.rhs
            elif isinstance(cond.lhs, ConstantInt) and not isinstance(cond.rhs, ConstantInt):
                value, const = cond.rhs, cond.lhs
            else:
                continue
            known_block = term.true_target if cond.predicate == "eq" else term.false_target
            if known_block.predecessors() != [bb]:
                continue  # edge-dominance must equal block-dominance
            if known_block is term.false_target and known_block is term.true_target:
                continue
            changed |= self._replace_dominated_uses(domtree, value, const, known_block)
        return changed

    @staticmethod
    def _replace_dominated_uses(domtree: DominatorTree, value: Value,
                                const: ConstantInt, region_root: BasicBlock) -> bool:
        changed = False
        if not domtree.contains(region_root):
            return False
        for user in list(value.users()):
            if user.parent is None or not domtree.contains(user.parent):
                continue
            if isinstance(user, PhiNode):
                # A phi use is dominated via its incoming edge.
                for i, pred in enumerate(user.incoming_blocks):
                    if user.operands[i] is value and domtree.dominates_block(region_root, pred):
                        user.set_operand(i, ConstantInt(const.type, const.value))
                        changed = True
                continue
            if domtree.dominates_block(region_root, user.parent):
                user._replace_operand_value(value, ConstantInt(const.type, const.value))
                changed = True
        return changed
