"""-mem2reg: promote memory to registers (SSA construction).

The classic Cytron et al. algorithm: scalar allocas whose address is only
ever loaded from / stored to are rewritten into SSA values, inserting phi
nodes at iterated dominance frontiers and renaming along the dominator
tree.

For the HLS objective this is usually the single highest-leverage pass:
every promoted load saves a 2-cycle BRAM read per execution and every
store saves a memory-port slot, which is exactly why the paper's random
forests rank it among the always-useful passes (§4.2).
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..analysis.dominators import DominatorTree
from ..ir.instructions import AllocaInst, LoadInst, PhiNode, StoreInst
from ..ir.module import BasicBlock, Function
from ..ir.values import UndefValue, Value
from .base import FunctionPass, register_pass

__all__ = ["Mem2Reg", "promotable_allocas", "promote_allocas"]


def _is_promotable(alloca: AllocaInst) -> bool:
    if not alloca.allocated_type.is_scalar:
        return False
    for user in alloca.users():
        if isinstance(user, LoadInst) and user.pointer is alloca:
            if user.is_volatile:
                return False
            continue
        if isinstance(user, StoreInst) and user.pointer is alloca and user.value is not alloca:
            if user.is_volatile:
                return False
            continue
        return False
    return True


def promotable_allocas(func: Function) -> List[AllocaInst]:
    return [
        inst
        for bb in func.blocks
        for inst in bb.instructions
        if isinstance(inst, AllocaInst) and _is_promotable(inst)
    ]


def promote_allocas(func: Function, allocas: List[AllocaInst]) -> int:
    """Promote the given allocas. Returns the number promoted."""
    if not allocas:
        return 0
    domtree = DominatorTree(func)
    frontiers = domtree.dominance_frontiers()
    alloca_set = set(allocas)

    # Phase 1: place phis at iterated dominance frontiers of store blocks.
    phi_for: Dict[PhiNode, AllocaInst] = {}
    phis_at: Dict[tuple, PhiNode] = {}
    for alloca in allocas:
        def_blocks: Set[BasicBlock] = {
            u.parent for u in alloca.users()
            if isinstance(u, StoreInst) and u.parent is not None
        }
        worklist = [bb for bb in def_blocks if domtree.contains(bb)]
        placed: Set[BasicBlock] = set()
        while worklist:
            bb = worklist.pop()
            for frontier_bb in frontiers.get(bb, ()):
                if frontier_bb in placed:
                    continue
                placed.add(frontier_bb)
                phi = PhiNode(alloca.allocated_type, f"{alloca.name}.phi")
                frontier_bb.insert_at_front(phi)
                phi_for[phi] = alloca
                phis_at[(frontier_bb, alloca)] = phi
                if frontier_bb not in def_blocks:
                    worklist.append(frontier_bb)

    # Phase 2: rename along the dominator tree.
    undef_cache: Dict[AllocaInst, UndefValue] = {}

    def current_or_undef(values: Dict[AllocaInst, Value], alloca: AllocaInst) -> Value:
        v = values.get(alloca)
        if v is None:
            v = undef_cache.setdefault(alloca, UndefValue(alloca.allocated_type))
        return v

    # Iterative DFS carrying a copy-on-write incoming map per tree node.
    stack: List[tuple] = [(domtree.root, {})]
    visited_edges: Set[tuple] = set()
    while stack:
        block, inherited = stack.pop()
        values: Dict[AllocaInst, Value] = dict(inherited)

        for inst in list(block.instructions):
            if isinstance(inst, PhiNode) and inst in phi_for:
                values[phi_for[inst]] = inst
            elif isinstance(inst, LoadInst) and inst.pointer in alloca_set:
                alloca = inst.pointer  # type: ignore[assignment]
                inst.replace_all_uses_with(current_or_undef(values, alloca))
                inst.erase_from_parent()
            elif isinstance(inst, StoreInst) and inst.pointer in alloca_set:
                values[inst.pointer] = inst.value  # type: ignore[index]
                inst.erase_from_parent()

        for succ in block.successors():
            edge = (id(block), id(succ))
            if edge in visited_edges:
                continue
            visited_edges.add(edge)
            for phi in succ.phis():
                alloca = phi_for.get(phi)
                if alloca is not None:
                    phi.add_incoming(current_or_undef(values, alloca), block)

        for child in domtree.children(block):
            stack.append((child, values))

    # Phase 3: drop the allocas themselves (now unused) and prune any
    # placed phi that ended up in an unreachable block or unused.
    for alloca in allocas:
        # Any remaining users live in unreachable blocks; detach them.
        for user in list(alloca.users()):
            if user.parent is None or not domtree.contains(user.parent):
                user.remove_from_parent()
                user.drop_all_references()
        alloca.erase_from_parent()
    return len(allocas)


@register_pass
class Mem2Reg(FunctionPass):
    name = "-mem2reg"

    def run_on_function(self, func: Function) -> bool:
        # Dominance (and therefore phi placement) is only defined over the
        # reachable CFG; prune unreachable blocks first, as LLVM does.
        from ..analysis.cfg import remove_unreachable_blocks

        changed = remove_unreachable_blocks(func) > 0
        return promote_allocas(func, promotable_allocas(func)) > 0 or changed
