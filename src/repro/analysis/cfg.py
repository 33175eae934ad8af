"""Control-flow-graph utilities over repro-IR functions.

These are the shared primitives the transform passes build on: reachability,
post-order traversals, edge classification (critical edges feed feature #17
and ``-break-crit-edges``), and the edge-splitting helper that keeps phi
nodes consistent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir.instructions import BranchInst
from ..ir.module import BasicBlock, Function

__all__ = [
    "reachable_blocks",
    "postorder",
    "reverse_postorder",
    "edges",
    "num_edges",
    "predecessor_map",
    "critical_edges",
    "split_edge",
    "remove_unreachable_blocks",
]


def reachable_blocks(func: Function) -> Set[BasicBlock]:
    """Blocks reachable from the entry block."""
    if not func.blocks:
        return set()
    seen: Set[BasicBlock] = set()
    stack = [func.entry]
    while stack:
        bb = stack.pop()
        if bb in seen:
            continue
        seen.add(bb)
        stack.extend(bb.successors())
    return seen


def postorder(func: Function) -> List[BasicBlock]:
    """DFS post-order of reachable blocks (deterministic successor order)."""
    visited: Set[BasicBlock] = set()
    order: List[BasicBlock] = []

    def visit(bb: BasicBlock) -> None:
        stack: List[Tuple[BasicBlock, int]] = [(bb, 0)]
        visited.add(bb)
        while stack:
            block, idx = stack[-1]
            succs = block.successors()
            if idx < len(succs):
                stack[-1] = (block, idx + 1)
                nxt = succs[idx]
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, 0))
            else:
                order.append(block)
                stack.pop()

    if func.blocks:
        visit(func.entry)
    return order


def reverse_postorder(func: Function) -> List[BasicBlock]:
    return list(reversed(postorder(func)))


def edges(func: Function) -> List[Tuple[BasicBlock, BasicBlock]]:
    """All CFG edges, including duplicates from multi-edge terminators."""
    result: List[Tuple[BasicBlock, BasicBlock]] = []
    for bb in func.blocks:
        for succ in bb.successors():
            result.append((bb, succ))
    return result


def num_edges(func: Function) -> int:
    return len(edges(func))


def predecessor_map(func: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    """``bb.predecessors()`` of every block, from one walk over the
    terminators: function order, each predecessor once even with parallel
    edges, unreachable blocks included.

    For *analyses* that ask about many blocks of an unchanging CFG
    (``bb.predecessors()`` scans the whole function per call). Passes that
    query predecessors while mutating keep calling ``bb.predecessors()``.
    """
    preds: Dict[BasicBlock, List[BasicBlock]] = {bb: [] for bb in func.blocks}
    for bb in func.blocks:
        for succ in bb.successors():
            incoming = preds.setdefault(succ, [])
            if not incoming or incoming[-1] is not bb:
                incoming.append(bb)
    return preds


def critical_edges(
    func: Function,
    preds: Optional[Dict[BasicBlock, List[BasicBlock]]] = None,
) -> List[Tuple[BasicBlock, BasicBlock]]:
    """Edges whose source has >1 successor and whose target has >1
    predecessor, each distinct (src, dst) pair once like LLVM's analysis;
    ``preds`` is ``predecessor_map(func)`` when the caller already has it."""
    if preds is None:
        preds = predecessor_map(func)
    result = []
    for src in func.blocks:
        succs = src.successors()
        if len(succs) < 2:
            continue
        for dst in dict.fromkeys(succs):
            if len(preds[dst]) > 1:
                result.append((src, dst))
    return result


def split_edge(src: BasicBlock, dst: BasicBlock, name_hint: str = "crit") -> BasicBlock:
    """Insert a forwarding block on the src→dst edge, updating dst's phis.

    All parallel edges from ``src`` to ``dst`` are redirected through the
    new block (matching LLVM's SplitCriticalEdge behaviour for terminators
    with duplicate targets, e.g. switches).
    """
    func = src.parent
    assert func is not None and dst.parent is func
    mid = func.add_block(f"{src.name}.{name_hint}", after=src)
    term = src.terminator
    assert term is not None
    term.replace_successor(dst, mid)
    mid.append(BranchInst(dst))
    for phi in dst.phis():
        phi.replace_incoming_block(src, mid)
    return mid


def remove_unreachable_blocks(func: Function) -> int:
    """Delete blocks not reachable from entry. Returns the removal count."""
    if not func.blocks:
        return 0
    live = reachable_blocks(func)
    dead = [bb for bb in func.blocks if bb not in live]
    if not dead:
        return 0
    dead_set = set(dead)
    # First drop phi edges coming from dead blocks into live blocks.
    for bb in live:
        for phi in bb.phis():
            for pred in list(phi.incoming_blocks):
                if pred in dead_set:
                    phi.remove_incoming(pred)
    # Dead instructions may be used by other dead instructions; drop
    # references wholesale before unlinking.
    for bb in dead:
        bb.drop_all_instructions()
    for bb in dead:
        bb.remove_from_parent()
    return len(dead)
