"""Lowering passes: -lowerswitch, -lowerinvoke, -loweratomic,
-lower-expect, -break-crit-edges, -prune-eh.

These rewrite higher-level constructs into the simpler forms downstream
passes and the HLS backend reason about best:

* ``-lowerswitch`` — a switch becomes a chain of eq-compares and
  two-way branches (each case costs one comparator state, which is what
  the paper's feature/pass heat map links to branch counts);
* ``-lowerinvoke`` — invokes become plain calls + an unconditional
  branch to the normal destination (nothing in the substrate unwinds);
* ``-prune-eh`` — like lowerinvoke but driven by the call-graph proof
  that callees cannot unwind, and also prunes the now-unreachable
  unwind blocks;
* ``-loweratomic`` — volatile (our stand-in for atomic ordering)
  accesses become plain accesses, unblocking CSE/DSE/scheduling;
* ``-lower-expect`` — strips ``llvm.expect`` profile hints;
* ``-break-crit-edges`` — splits every critical edge (feature #17
  drops to zero afterwards).
"""

from __future__ import annotations

from ..analysis.cfg import critical_edges, remove_unreachable_blocks, split_edge
from ..ir.instructions import (
    BranchInst,
    CallInst,
    ICmpInst,
    InvokeInst,
    LoadInst,
    StoreInst,
    SwitchInst,
)
from ..ir.module import Function, Module
from ..ir.values import ConstantInt
from .base import FunctionPass, Pass, register_pass
from .utils import replace_and_erase

__all__ = ["LowerSwitch", "LowerInvoke", "LowerAtomic", "LowerExpect",
           "BreakCriticalEdges", "PruneEH"]


@register_pass
class LowerSwitch(FunctionPass):
    name = "-lowerswitch"

    def run_on_function(self, func: Function) -> bool:
        changed = False
        for bb in list(func.blocks):
            term = bb.terminator
            if not isinstance(term, SwitchInst):
                continue
            cond = term.condition
            default = term.default
            cases = list(term.cases)
            # The switch's own block keeps the first comparison.
            term.remove_from_parent()
            term.drop_all_references()

            current = bb
            for i, (const, target) in enumerate(cases):
                cmp = ICmpInst("eq", cond, ConstantInt(const.type, const.value), f"sw.{i}")
                current.append(cmp)
                if i + 1 < len(cases):
                    nxt = func.add_block(f"{bb.name}.sw{i + 1}", after=current)
                    current.append(BranchInst(cmp, target, nxt))
                    # Phis in `target` that named `bb` keep naming the block
                    # that actually branches to them now.
                    for phi in target.phis():
                        phi.replace_incoming_block(bb, current)
                    current = nxt
                else:
                    current.append(BranchInst(cmp, target, default))
                    for phi in target.phis():
                        phi.replace_incoming_block(bb, current)
                    for phi in default.phis():
                        phi.replace_incoming_block(bb, current)
            if not cases:
                current.append(BranchInst(default))
                for phi in default.phis():
                    phi.replace_incoming_block(bb, current)
            changed = True
        return changed


def _invoke_to_call(inv: InvokeInst) -> None:
    bb = inv.parent
    assert bb is not None
    call = CallInst(inv.callee, list(inv.args), inv.type, inv.name + ".lw")
    call.insert_before(inv)
    # The unwind edge disappears; drop its phi entries.
    for phi in inv.unwind_dest.phis():
        if bb in phi.incoming_blocks:
            phi.remove_incoming(bb)
    normal = inv.normal_dest
    inv.replace_all_uses_with(call)
    inv.erase_from_parent()
    bb.append(BranchInst(normal))


@register_pass
class LowerInvoke(FunctionPass):
    name = "-lowerinvoke"

    def run_on_function(self, func: Function) -> bool:
        changed = False
        for bb in list(func.blocks):
            term = bb.terminator
            if isinstance(term, InvokeInst):
                _invoke_to_call(term)
                changed = True
        return changed


@register_pass
class PruneEH(Pass):
    name = "-prune-eh"

    def run(self, module: Module) -> bool:
        # Nothing in the substrate can unwind, so every invoke's unwind
        # edge is dead — the call-graph "proof" is trivial here.
        changed = False
        for func in module.defined_functions():
            func_changed = False
            for bb in list(func.blocks):
                term = bb.terminator
                if isinstance(term, InvokeInst):
                    _invoke_to_call(term)
                    func_changed = True
            if func_changed:
                remove_unreachable_blocks(func)
                changed = True
            if "nounwind" not in func.attributes:
                func.attributes.add("nounwind")
                changed = True
        return changed


@register_pass
class LowerAtomic(FunctionPass):
    name = "-loweratomic"

    def run_on_function(self, func: Function) -> bool:
        changed = False
        for bb in func.blocks:
            for inst in bb.instructions:
                if isinstance(inst, (LoadInst, StoreInst)) and inst.is_volatile:
                    if inst._metadata and inst._metadata.get("atomic"):
                        inst.is_volatile = False
                        del inst._metadata["atomic"]
                        changed = True
        return changed


@register_pass
class LowerExpect(FunctionPass):
    name = "-lower-expect"

    def run_on_function(self, func: Function) -> bool:
        changed = False
        for bb in func.blocks:
            for inst in list(bb.instructions):
                if isinstance(inst, CallInst) and inst.callee_name.startswith("llvm.expect"):
                    replace_and_erase(inst, inst.args[0])
                    changed = True
        return changed


@register_pass
class BreakCriticalEdges(FunctionPass):
    name = "-break-crit-edges"

    def run_on_function(self, func: Function) -> bool:
        changed = False
        for src, dst in critical_edges(func):
            split_edge(src, dst)
            changed = True
        return changed
