"""-reassociate: reassociate commutative expression trees.

Chains of one associative/commutative opcode (add, mul, and, or, xor)
are collected into leaf lists, constants are folded together, and the
expression is rebuilt as a *balanced* tree. Two payoffs on this
substrate:

* folded constants and canonically ordered leaves expose redundancies to
  GVN/CSE (the pass's classic purpose);
* a balanced tree halves the chained combinational depth of long
  reductions, which under the 5 ns clock budget can save whole FSM
  states (left-leaning chains of k adders need ⌈k·2.5ns/5ns⌉ states;
  balanced needs ⌈log2⌉ depth).
"""

from __future__ import annotations

from typing import List, Optional

from ..ir import types as ty
from ..ir.folding import eval_int_binop
from ..ir.instructions import BinaryOperator
from ..ir.module import Function
from ..ir.values import ConstantInt, Value
from .base import FunctionPass, register_pass
from .utils import delete_dead_instructions

__all__ = ["Reassociate"]

_OPS = ("add", "mul", "and", "or", "xor")
_IDENTITY = {"add": 0, "mul": 1, "and": -1, "or": 0, "xor": 0}


def _collect_leaves(root: BinaryOperator) -> Optional[List[Value]]:
    """Flatten a single-use chain of `root.opcode` into its leaves."""
    leaves: List[Value] = []
    count = 0

    def walk(v: Value, is_root: bool) -> bool:
        nonlocal count
        count += 1
        if count > 64:
            return False
        if (
            isinstance(v, BinaryOperator)
            and v.opcode == root.opcode
            and v.type is root.type
            and (is_root or v.num_uses == 1)
            and v.parent is root.parent  # keep motion block-local
        ):
            return walk(v.lhs, False) and walk(v.rhs, False)
        leaves.append(v)
        return True

    if not walk(root, True):
        return None
    return leaves


@register_pass
class Reassociate(FunctionPass):
    name = "-reassociate"

    def run_on_function(self, func: Function) -> bool:
        changed = False
        for bb in func.blocks:
            # Roots: chain heads whose users are not the same opcode chain.
            for inst in list(bb.instructions):
                if inst.parent is None or not isinstance(inst, BinaryOperator):
                    continue
                if inst.opcode not in _OPS or not isinstance(inst.type, ty.IntType):
                    continue
                users = inst.users()
                if any(
                    isinstance(u, BinaryOperator) and u.opcode == inst.opcode and inst.num_uses == 1
                    for u in users
                ):
                    continue  # interior node; handled from its root
                changed |= self._rebuild(inst)
        if changed:
            for f in [func]:
                delete_dead_instructions(f)
        return changed

    def _rebuild(self, root: BinaryOperator) -> bool:
        leaves = _collect_leaves(root)
        if leaves is None or len(leaves) < 3:
            return False

        int_ty = root.type
        assert isinstance(int_ty, ty.IntType)
        constant = _IDENTITY[root.opcode]
        values: List[Value] = []
        n_consts = 0
        for leaf in leaves:
            if isinstance(leaf, ConstantInt):
                constant = eval_int_binop(root.opcode, int_ty, constant, leaf.value)
                n_consts += 1
            else:
                values.append(leaf)

        if n_consts < 2 and len(values) < 3:
            return False  # nothing to fold, nothing to balance

        # Sort leaves for canonical form (stable by name) — identical
        # multisets of leaves now rebuild identical trees, feeding CSE.
        values.sort(key=lambda v: v.name)
        if constant != _IDENTITY[root.opcode] or not values:
            values.append(ConstantInt(int_ty, constant))

        # Balanced rebuild before the root.
        def build(lo: int, hi: int) -> Value:
            if hi - lo == 1:
                return values[lo]
            mid = (lo + hi) // 2
            lhs = build(lo, mid)
            rhs = build(mid, hi)
            node = BinaryOperator(root.opcode, lhs, rhs, root.name + ".ra")
            node.insert_before(root)
            return node

        replacement = build(0, len(values))
        if replacement is root:
            return False
        root.replace_all_uses_with(replacement)
        root.erase_from_parent()
        return True
