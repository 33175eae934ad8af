"""-loop-rotate: convert while-loops into guarded do-while loops.

The paper singles this pass out: "-loop-rotate detects a loop and
transforms a while loop to a do-while loop to eliminate one branch
instruction in the loop body. Applying the pass results in better circuit
performance as it reduces the total number of FSM states in a loop"
(§4.1), and its random forests find rotation the most impactful pass
overall (§4.2, point (23,23)).

Algorithm (LLVM's RotateLoop, at this IR's scale): clone the header's
instructions into the preheader with phi inputs substituted by their
preheader values; the preheader then branches on the cloned condition
(the *guard*), the old header becomes the loop's bottom test (new latch),
and the old loop body entry becomes the new header. Values defined in the
old header get merge phis in the new header and in the exit block.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.loops import Loop, LoopInfo
from ..ir.cloning import clone_instruction
from ..ir.instructions import BranchInst, Instruction, PhiNode
from ..ir.module import BasicBlock, Function
from ..ir.values import Value
from .base import FunctionPass, register_pass
from .loop_utils import ensure_simplified

__all__ = ["LoopRotate"]

_HEADER_SIZE_LIMIT = 24  # instructions we are willing to duplicate


@register_pass
class LoopRotate(FunctionPass):
    name = "-loop-rotate"

    def run_on_function(self, func: Function) -> bool:
        if not func.blocks:
            return False
        changed = False
        for _ in range(4):
            info = LoopInfo(func)
            round_changed = False
            for loop in sorted(info.loops, key=lambda l: -l.depth):
                round_changed |= self._rotate(func, loop)
                if round_changed:
                    break  # LoopInfo is stale after a rotation
            changed |= round_changed
            if not round_changed:
                break
        return changed

    def _rotate(self, func: Function, loop: Loop) -> bool:
        if ensure_simplified(func, loop):
            return True
        header = loop.header
        preheader = loop.preheader()
        latch = loop.single_latch()
        if preheader is None or latch is None:
            return False
        term = header.terminator
        if not isinstance(term, BranchInst) or not term.is_conditional:
            return False  # header does not exit: already rotated (or odd shape)
        in_loop = [t for t in term.successors() if t in loop.blocks]
        out_loop = [t for t in term.successors() if t not in loop.blocks]
        if len(in_loop) != 1 or len(out_loop) != 1:
            return False
        body, exit_bb = in_loop[0], out_loop[0]
        if header is latch:
            return False  # single-block loop is already do-while
        if body is header or exit_bb is header:
            return False
        if len(header.instructions) > _HEADER_SIZE_LIMIT:
            return False
        # The merge-phi construction below supports exactly the canonical
        # shape: body and exit reached only from the header, single exit.
        if loop.exit_blocks() != [exit_bb]:
            return False
        if body.predecessors() != [header] or exit_bb.predecessors() != [header]:
            return False
        cond = term.condition
        if isinstance(cond, Instruction) and cond.parent in loop.blocks and cond.parent is not header:
            return False  # guard could not reference it from the preheader
        # The rotation duplicates the header; refuse if it has side effects
        # that must execute exactly once per iteration *and* observably
        # order against memory — duplication preserves counts, so only
        # volatile accesses are blocked.
        for inst in header.instructions:
            if getattr(inst, "is_volatile", False):
                return False

        header_phis = header.phis()
        # Phi-to-phi latch edges (value swap patterns) would need
        # temporaries once the header phis are dissolved — bail out.
        phi_set = set(header_phis)
        for phi in header_phis:
            if phi.incoming_value_for(latch) in phi_set:
                return False

        vmap: Dict[Value, Value] = {}
        for phi in header_phis:
            vmap[phi] = phi.incoming_value_for(preheader)

        # 1. Clone non-phi, non-terminator header instructions into the
        #    preheader (before its terminator).
        for inst in header.instructions[len(header_phis):-1]:
            clone = clone_instruction(inst, vmap)
            preheader.insert_before_terminator(clone)
            vmap[inst] = clone

        # 2. Replace the preheader's branch with the cloned guard branch.
        old_ph_term = preheader.terminator
        assert old_ph_term is not None
        guard_cond = vmap.get(term.condition, term.condition)
        new_ph_term = BranchInst(
            guard_cond,
            body if term.true_target is body else exit_bb,
            exit_bb if term.false_target is exit_bb else body,
        )
        old_ph_term.remove_from_parent()
        old_ph_term.drop_all_references()
        preheader.append(new_ph_term)

        # 3. Values defined in the header that are used elsewhere need
        #    merge phis in the new header (body) and in the exit block.
        defined = list(header_phis) + [
            i for i in header.instructions[len(header_phis):] if not i.is_terminator
        ]
        for value in defined:
            # Users outside the header; preheader clones already reference
            # the vmap'd values, so any remaining preheader users are skipped.
            outside_users = [u for u in value.users() if u.parent is not header]
            if not outside_users:
                continue
            body_phi = None
            exit_phi = None
            for user in outside_users:
                if user.parent is preheader:
                    continue  # clone already uses the mapped value
                user_in_loop = user.parent in loop.blocks
                if isinstance(user, PhiNode):
                    # Rewrite per incoming edge.
                    for i, pred in enumerate(user.incoming_blocks):
                        if user.operands[i] is not value:
                            continue
                        if pred is header:
                            continue  # edge from header keeps the raw value
                        if pred in loop.blocks:
                            body_phi = body_phi or self._make_phi(body, value, vmap, preheader, header)
                            user.set_operand(i, body_phi)
                        else:
                            exit_phi = exit_phi or self._make_phi(exit_bb, value, vmap, preheader, header)
                            user.set_operand(i, exit_phi)
                    continue
                if user_in_loop:
                    body_phi = body_phi or self._make_phi(body, value, vmap, preheader, header)
                    target_phi = body_phi
                else:
                    exit_phi = exit_phi or self._make_phi(exit_bb, value, vmap, preheader, header)
                    target_phi = exit_phi
                for i, op in enumerate(user.operands):
                    if op is value:
                        user.set_operand(i, target_phi)

        # 4. Old header phis now only merge the latch edge; replace them.
        for phi in header_phis:
            latch_value = phi.incoming_value_for(latch)
            if latch_value is phi:  # degenerate self-loop value
                phi.drop_all_references()
                phi.remove_from_parent()
                continue
            phi.replace_all_uses_with(latch_value)
            # _make_phi may have added (phi → body_phi) edges using the raw
            # phi; those were just rewritten to latch_value, which is the
            # correct "value when arriving from the header" semantics.
            phi.erase_from_parent()

        # 5. Fix exit-block phis that had an edge from the header: they
        #    gain an edge from the preheader (guard may skip the loop).
        #    _make_phi handles new phis; pre-existing ones get the mapped
        #    incoming value.
        for phi in exit_bb.phis():
            if header in phi.incoming_blocks and preheader not in phi.incoming_blocks:
                v = phi.incoming_value_for(header)
                phi.add_incoming(vmap.get(v, v), preheader)
        for phi in body.phis():
            if header in phi.incoming_blocks and preheader not in phi.incoming_blocks:
                v = phi.incoming_value_for(header)
                phi.add_incoming(vmap.get(v, v), preheader)
        return True

    @staticmethod
    def _make_phi(block: BasicBlock, value: Value, vmap: Dict[Value, Value],
                  preheader: BasicBlock, header: BasicBlock) -> PhiNode:
        """Create the merge phi for a header-defined value in ``block``
        (the new header or the exit), with edges from preheader (mapped
        clone value) and header (original value)."""
        phi = PhiNode(value.type, value.name + ".rot")
        block.insert_at_front(phi)
        phi.add_incoming(vmap.get(value, value), preheader)
        phi.add_incoming(value, header)
        return phi
