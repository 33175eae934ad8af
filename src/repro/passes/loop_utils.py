"""Shared loop-canonicalization machinery.

LLVM's pass manager implicitly schedules ``-loop-simplify`` before any
loop pass; we mirror that by letting each loop pass call
:func:`ensure_simplified` itself. The canonical shape is:

* a *preheader* — unique out-of-loop predecessor of the header with a
  single successor;
* a *single latch* — unique in-loop predecessor of the header;
* *dedicated exits* — every exit block has only in-loop predecessors.
"""

from __future__ import annotations

from typing import List

from ..analysis.loops import Loop
from ..ir.instructions import BranchInst, PhiNode
from ..ir.module import BasicBlock, Function
from ..ir.values import Value

__all__ = ["merge_edges_through_block", "insert_preheader", "merge_latches",
           "dedicate_exits", "ensure_simplified", "loop_instruction_count",
           "is_loop_invariant"]


def merge_edges_through_block(func: Function, target: BasicBlock,
                              preds: List[BasicBlock], name: str) -> BasicBlock:
    """Create block NB; redirect every preds→target edge through NB.

    Phi nodes in ``target`` are rewired: their per-pred incoming values
    move into a new phi in NB (or collapse to the value when unanimous).
    """
    assert preds, "need at least one predecessor to merge"
    nb = func.add_block(name)
    for phi in target.phis():
        values = [phi.incoming_value_for(p) for p in preds]
        if all(v is values[0] for v in values):
            merged: Value = values[0]
        else:
            merged_phi = PhiNode(phi.type, phi.name + ".m")
            nb.insert_at_front(merged_phi)
            for p, v in zip(preds, values):
                merged_phi.add_incoming(v, p)
            merged = merged_phi
        for p in preds:
            phi.remove_incoming(p)
        phi.add_incoming(merged, nb)
    for p in preds:
        term = p.terminator
        assert term is not None
        term.replace_successor(target, nb)
    nb.append(BranchInst(target))
    return nb


def insert_preheader(func: Function, loop: Loop) -> BasicBlock:
    existing = loop.preheader()
    if existing is not None:
        return existing
    outside = [p for p in loop.header.predecessors() if p not in loop.blocks]
    assert outside, "loop header must be reachable from outside"
    return merge_edges_through_block(func, loop.header, outside, loop.header.name + ".ph")


def merge_latches(func: Function, loop: Loop) -> BasicBlock:
    single = loop.single_latch()
    if single is not None:
        return single
    latches = loop.latches()
    nb = merge_edges_through_block(func, loop.header, latches, loop.header.name + ".latch")
    loop.blocks.add(nb)
    return nb


def dedicate_exits(func: Function, loop: Loop) -> bool:
    changed = False
    for exit_bb in loop.exit_blocks():
        outside_preds = [p for p in exit_bb.predecessors() if p not in loop.blocks]
        if not outside_preds:
            continue
        in_loop_preds = [p for p in exit_bb.predecessors() if p in loop.blocks]
        merge_edges_through_block(func, exit_bb, in_loop_preds, exit_bb.name + ".dx")
        changed = True
    return changed


def ensure_simplified(func: Function, loop: Loop) -> bool:
    """Bring one loop into simplified form. Returns True if CFG changed.

    The Loop object's block set is updated in place where the new blocks
    belong to the loop (merged latch); callers that need fresh LoopInfo
    after structural changes should recompute it.
    """
    changed = False
    if loop.preheader() is None:
        insert_preheader(func, loop)
        changed = True
    if loop.single_latch() is None:
        merge_latches(func, loop)
        changed = True
    changed |= dedicate_exits(func, loop)
    return changed


def loop_instruction_count(loop: Loop) -> int:
    return sum(len(bb.instructions) for bb in loop.blocks)


def is_loop_invariant(value: Value, loop: Loop) -> bool:
    """True when the value is defined outside the loop (or is a leaf)."""
    from ..ir.instructions import Instruction

    if isinstance(value, Instruction):
        return value.parent is None or value.parent not in loop.blocks
    return True
