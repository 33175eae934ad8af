"""Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm.

Used by mem2reg (dominance frontiers for phi placement), GVN/early-CSE
(availability scoping), LICM (safe hoisting) and the verifier's optional
SSA-dominance check.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.instructions import Instruction, PhiNode
from ..ir.module import BasicBlock, Function
from .cfg import postorder, predecessor_map

__all__ = ["DominatorTree"]


class DominatorTree:
    """Immediate-dominator tree for the reachable part of a function."""

    def __init__(self, func: Function) -> None:
        self.func = func
        order = postorder(func)
        self._rpo: List[BasicBlock] = list(reversed(order))
        self._po_number: Dict[BasicBlock, int] = {bb: i for i, bb in enumerate(order)}
        # The CFG this tree describes, as of construction; LoopInfo reads it.
        self.preds: Dict[BasicBlock, List[BasicBlock]] = predecessor_map(func)
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self._children: Dict[BasicBlock, List[BasicBlock]] = {}
        self._compute()
        self._build_children()

    # -- construction ----------------------------------------------------------
    def _compute(self) -> None:
        if not self._rpo:
            return
        entry = self._rpo[0]
        idom: Dict[BasicBlock, Optional[BasicBlock]] = {entry: entry}
        po = self._po_number
        reachable_preds = [(bb, [p for p in self.preds[bb] if p in po])
                           for bb in self._rpo[1:]]
        changed = True
        while changed:
            changed = False
            for bb, candidates in reachable_preds:
                preds = [p for p in candidates if p in idom]
                if not preds:
                    continue
                new_idom = preds[0]
                for p in preds[1:]:
                    new_idom = self._intersect(new_idom, p, idom)
                if idom.get(bb) is not new_idom:
                    idom[bb] = new_idom
                    changed = True
        idom[entry] = None
        self.idom = idom

    def _intersect(self, a: BasicBlock, b: BasicBlock, idom) -> BasicBlock:
        po = self._po_number
        while a is not b:
            while po[a] < po[b]:
                a = idom[a]
                assert a is not None
            while po[b] < po[a]:
                b = idom[b]
                assert b is not None
        return a

    def _build_children(self) -> None:
        self._children = {bb: [] for bb in self.idom}
        for bb, parent in self.idom.items():
            if parent is not None:
                self._children[parent].append(bb)

    # -- queries ---------------------------------------------------------------
    @property
    def root(self) -> BasicBlock:
        return self._rpo[0]

    def contains(self, bb: BasicBlock) -> bool:
        return bb in self.idom

    def children(self, bb: BasicBlock) -> List[BasicBlock]:
        return self._children.get(bb, [])

    def dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        if a is b:
            return True
        node: Optional[BasicBlock] = self.idom.get(b)
        while node is not None:
            if node is a:
                return True
            node = self.idom.get(node)
        return False

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates_block(a, b)

    def dominates(self, value, user: Instruction, user_operand_block: Optional[BasicBlock] = None) -> bool:
        """Does a definition dominate a use?

        Arguments/constants/globals dominate everything. For instruction
        definitions, uses in phi nodes are checked against the incoming
        block's terminator position (the standard SSA rule).
        """
        if not isinstance(value, Instruction):
            return True
        def_bb = value.parent
        use_bb = user.parent
        assert def_bb is not None and use_bb is not None
        if isinstance(user, PhiNode) and user_operand_block is not None:
            # A phi use is "at the end" of the incoming block.
            return self.dominates_block(def_bb, user_operand_block)
        if def_bb is use_bb:
            insts = def_bb.instructions
            return insts.index(value) < insts.index(user)
        return self.strictly_dominates(def_bb, use_bb)

    def dominance_frontiers(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        """Cytron-style dominance frontiers for phi placement."""
        df: Dict[BasicBlock, Set[BasicBlock]] = {bb: set() for bb in self.idom}
        for bb in self.idom:
            preds = [p for p in self.preds[bb] if p in self.idom]
            if len(preds) < 2:
                continue
            for pred in preds:
                runner: Optional[BasicBlock] = pred
                while runner is not None and runner is not self.idom.get(bb):
                    df[runner].add(bb)
                    runner = self.idom.get(runner)
        return df

    def dfs_preorder(self) -> List[BasicBlock]:
        order: List[BasicBlock] = []
        stack = [self.root] if self._rpo else []
        while stack:
            bb = stack.pop()
            order.append(bb)
            stack.extend(reversed(self._children.get(bb, [])))
        return order
