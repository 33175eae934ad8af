"""-early-cse: dominator-scoped common-subexpression elimination.

Walks the dominator tree keeping a scoped hash table of available pure
expressions, plus an available-load table used for redundant-load
elimination and store-to-load forwarding.

Memory soundness follows LLVM's EarlyCSE design: a global, monotonically
increasing *memory generation* is bumped by every potential write during
the DFS. A recorded load/store value is only reusable when its recorded
generation still equals the current one — which conservatively invalidates
availability across writes in sibling subtrees — while the scoped tables
guarantee the reused definition dominates the use.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.dominators import DominatorTree
from ..ir.instructions import (
    BinaryOperator,
    CallInst,
    CastInst,
    FCmpInst,
    FNegInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    SelectInst,
    StoreInst,
)
from ..ir.module import BasicBlock, Function
from .base import FunctionPass, register_pass
from .utils import replace_and_erase, simplify_instruction

__all__ = ["EarlyCSE", "expression_key"]


def value_id(v) -> Tuple:
    """Identity of a value for CSE keys.

    Instructions/arguments compare by object identity, but constants are
    *not* interned in this IR — two ``ConstantInt(i32, 5)`` objects must
    key equal or constant-operand expressions would never CSE.
    """
    from ..ir.values import ConstantFloat, ConstantInt, UndefValue

    if isinstance(v, ConstantInt):
        return ("ci", v.type, v.value)
    if isinstance(v, ConstantFloat):
        return ("cf", v.value)
    if isinstance(v, UndefValue):
        return ("undef", v.type)
    return ("v", id(v))


def expression_key(inst: Instruction) -> Optional[Tuple]:
    """A hashable key identifying a pure expression's value."""
    if isinstance(inst, BinaryOperator):
        a, b = value_id(inst.lhs), value_id(inst.rhs)
        if inst.is_commutative and b < a:
            a, b = b, a
        return (inst.opcode, inst.type, a, b)
    if isinstance(inst, ICmpInst):
        return ("icmp", inst.predicate, value_id(inst.lhs), value_id(inst.rhs))
    if isinstance(inst, FCmpInst):
        return ("fcmp", inst.predicate, value_id(inst.lhs), value_id(inst.rhs))
    if isinstance(inst, CastInst):
        return (inst.opcode, inst.type, value_id(inst.operand))
    if isinstance(inst, FNegInst):
        return ("fneg", value_id(inst.operand))
    if isinstance(inst, SelectInst):
        return ("select", tuple(value_id(o) for o in inst.operands))
    if isinstance(inst, GEPInst):
        return ("gep", tuple(value_id(o) for o in inst.operands))
    if isinstance(inst, CallInst) and inst.is_readnone():
        return ("call", inst.callee_name, tuple(value_id(a) for a in inst.args))
    return None


class _ScopedTable:
    """Chained dict giving dominator-scoped lookups."""

    def __init__(self, parent: Optional["_ScopedTable"]) -> None:
        self.parent = parent
        self.entries: Dict = {}

    def lookup(self, key):
        scope: Optional[_ScopedTable] = self
        while scope is not None:
            if key in scope.entries:
                return scope.entries[key]
            scope = scope.parent
        return None

    def insert(self, key, value) -> None:
        self.entries[key] = value


@register_pass
class EarlyCSE(FunctionPass):
    name = "-early-cse"

    def run_on_function(self, func: Function) -> bool:
        if not func.blocks:
            return False
        domtree = DominatorTree(func)
        changed = False
        generation = 0

        # Iterative DFS over the dominator tree with explicit scope frames.
        root_exprs = _ScopedTable(None)
        root_loads = _ScopedTable(None)
        stack: List[Tuple[BasicBlock, _ScopedTable, _ScopedTable]] = [
            (domtree.root, root_exprs, root_loads)
        ]
        while stack:
            block, exprs, loads = stack.pop()
            # LLVM's merge rule: entering a block with multiple predecessors
            # (a join — including loop headers fed by back edges) bumps the
            # memory generation, because a not-yet-visited path may have
            # written anything. Single-pred blocks keep availability: their
            # predecessor is necessarily the dominator-tree parent.
            if len(block.predecessors()) != 1:
                generation += 1
            for inst in list(block.instructions):
                simplified = simplify_instruction(inst)
                if simplified is not None:
                    replace_and_erase(inst, simplified)
                    changed = True
                    continue

                key = expression_key(inst)
                if key is not None:
                    available = exprs.lookup(key)
                    if available is not None:
                        replace_and_erase(inst, available)
                        changed = True
                    else:
                        exprs.insert(key, inst)
                    continue

                if isinstance(inst, LoadInst) and not inst.is_volatile:
                    hit = loads.lookup(id(inst.pointer))
                    if hit is not None and hit[1] == generation and hit[0].type is inst.type:
                        replace_and_erase(inst, hit[0])
                        changed = True
                    else:
                        loads.insert(id(inst.pointer), (inst, generation))
                    continue

                if isinstance(inst, StoreInst):
                    generation += 1
                    if not inst.is_volatile:
                        # Store-to-load forwarding at the new generation.
                        loads.insert(id(inst.pointer), (inst.value, generation))
                    continue

                if inst.may_write_memory():
                    generation += 1

            for child in domtree.children(block):
                stack.append((child, _ScopedTable(exprs), _ScopedTable(loads)))
        return changed
