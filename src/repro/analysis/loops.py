"""Natural-loop detection and loop-shape queries.

A natural loop is identified by a back edge ``latch → header`` where the
header dominates the latch. Loops with the same header are merged, and
nesting is reconstructed from body containment — the same structure
LLVM's LoopInfo exposes, which the loop passes (-licm, -loop-rotate,
-loop-unroll, -loop-deletion, -indvars, -loop-simplify, -loop-unswitch,
-loop-idiom, -loop-reduce) consume.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir.instructions import BinaryOperator, BranchInst, ICmpInst, PhiNode
from ..ir.module import BasicBlock, Function
from ..ir.values import ConstantInt, Value
from .dominators import DominatorTree

__all__ = ["Loop", "LoopInfo", "InductionDescriptor"]


class Loop:
    """One natural loop: header, body blocks, latches, exits, sub-loops."""

    def __init__(self, header: BasicBlock, blocks: Set[BasicBlock]) -> None:
        self.header = header
        self.blocks = blocks
        self.parent: Optional["Loop"] = None
        self.subloops: List["Loop"] = []

    # -- structural queries -------------------------------------------------
    def contains(self, bb: BasicBlock) -> bool:
        return bb in self.blocks

    @property
    def depth(self) -> int:
        d, p = 1, self.parent
        while p is not None:
            d += 1
            p = p.parent
        return d

    def latches(self) -> List[BasicBlock]:
        return [p for p in self.header.predecessors() if p in self.blocks]

    def single_latch(self) -> Optional[BasicBlock]:
        latches = self.latches()
        return latches[0] if len(latches) == 1 else None

    def preheader(self) -> Optional[BasicBlock]:
        """The unique out-of-loop predecessor of the header, if it exists
        and branches only to the header (LLVM's loop-simplify shape)."""
        outside = [p for p in self.header.predecessors() if p not in self.blocks]
        if len(outside) != 1:
            return None
        cand = outside[0]
        if len(cand.successors()) != 1:
            return None
        return cand

    def exiting_blocks(self) -> List[BasicBlock]:
        result = []
        for bb in self.blocks:
            if any(succ not in self.blocks for succ in bb.successors()):
                result.append(bb)
        return result

    def exit_blocks(self) -> List[BasicBlock]:
        seen: Set[BasicBlock] = set()
        result: List[BasicBlock] = []
        for bb in self.blocks:
            for succ in bb.successors():
                if succ not in self.blocks and succ not in seen:
                    seen.add(succ)
                    result.append(succ)
        return result

    def is_innermost(self) -> bool:
        return not self.subloops

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Loop header={self.header.name} blocks={len(self.blocks)} depth={self.depth}>"


class InductionDescriptor:
    """A canonical induction variable: ``iv = phi [init, preheader], [iv+step, latch]``
    guarded by ``icmp pred(iv or iv.next, bound)``.

    ``trip_count()`` returns the exact number of *body executions* when
    init/step/bound are all constants — which is what -loop-unroll's full
    unrolling needs. The position of the exit test matters: a
    bottom-tested (rotated, latch-exiting) loop runs its body once before
    the first test, so it executes one more iteration than the number of
    passing tests.
    """

    def __init__(self, phi: PhiNode, init: Value, step: Value, update: BinaryOperator,
                 compare: Optional[ICmpInst], bound: Optional[Value], compares_next: bool,
                 bottom_tested: bool = False) -> None:
        self.phi = phi
        self.init = init
        self.step = step
        self.update = update
        self.compare = compare
        self.bound = bound
        self.compares_next = compares_next
        self.bottom_tested = bottom_tested

    def trip_count(self) -> Optional[int]:
        if self.compare is None or self.bound is None:
            return None
        if not isinstance(self.init, ConstantInt) or not isinstance(self.bound, ConstantInt):
            return None
        if not isinstance(self.step, ConstantInt) or self.step.value == 0:
            return None
        init, step, bound = self.init.value, self.step.value, self.bound.value
        pred = self.compare.predicate
        passes = 0
        value = init
        # Directly simulate up to a small bound; exact and safe for the
        # trip counts full unrolling would consider anyway.
        for _ in range(4097):
            current = value + step if self.compares_next else value
            if not _evaluate_icmp(pred, current, None, current_rhs=bound):
                return passes + 1 if self.bottom_tested else passes
            passes += 1
            value += step
        return None


def _evaluate_icmp(pred: str, lhs: int, _ty, current_rhs: int) -> bool:
    rhs = current_rhs
    if pred == "eq":
        return lhs == rhs
    if pred == "ne":
        return lhs != rhs
    if pred in ("slt", "ult"):
        return lhs < rhs
    if pred in ("sle", "ule"):
        return lhs <= rhs
    if pred in ("sgt", "ugt"):
        return lhs > rhs
    if pred in ("sge", "uge"):
        return lhs >= rhs
    raise ValueError(pred)


class LoopInfo:
    """All natural loops of a function, with nesting."""

    def __init__(self, func: Function, domtree: Optional[DominatorTree] = None) -> None:
        self.func = func
        self.domtree = domtree or DominatorTree(func)
        self.loops: List[Loop] = []
        self._loop_of: Dict[BasicBlock, Loop] = {}
        self._discover()

    def _discover(self) -> None:
        dt = self.domtree
        preds = dt.preds
        header_bodies: Dict[BasicBlock, Set[BasicBlock]] = {}
        for bb in self.func.blocks:
            if not dt.contains(bb):
                continue
            for succ in bb.successors():
                if dt.contains(succ) and dt.dominates_block(succ, bb):
                    # back edge bb -> succ
                    body = header_bodies.setdefault(succ, {succ})
                    self._collect_body(bb, body, preds)
        self.loops = [Loop(h, body) for h, body in header_bodies.items()]
        # Nesting: loop A is inside loop B if A's header is in B's body and A != B.
        self.loops.sort(key=lambda l: len(l.blocks))
        for i, inner in enumerate(self.loops):
            for outer in self.loops[i + 1:]:
                if inner.header in outer.blocks and inner is not outer:
                    inner.parent = outer
                    outer.subloops.append(inner)
                    break
        # innermost-loop map
        for loop in self.loops:
            for bb in loop.blocks:
                current = self._loop_of.get(bb)
                if current is None or len(loop.blocks) < len(current.blocks):
                    self._loop_of[bb] = loop

    @staticmethod
    def _collect_body(latch: BasicBlock, body: Set[BasicBlock],
                      preds: Dict[BasicBlock, List[BasicBlock]]) -> None:
        """Grow ``body`` (seeded with the header) backwards from ``latch``."""
        stack = [latch]
        while stack:
            bb = stack.pop()
            if bb in body:
                continue
            body.add(bb)
            stack.extend(preds[bb])

    # -- queries ------------------------------------------------------------
    def loop_for(self, bb: BasicBlock) -> Optional[Loop]:
        """The innermost loop containing ``bb``, if any."""
        return self._loop_of.get(bb)

    def in_loop(self, bb: BasicBlock) -> bool:
        return bb in self._loop_of

    # -- induction analysis ---------------------------------------------------
    def induction_descriptor(self, loop: Loop) -> Optional[InductionDescriptor]:
        """Find a canonical induction variable for a simplified loop."""
        preheader = loop.preheader()
        latch = loop.single_latch()
        if preheader is None or latch is None:
            return None
        for phi in loop.header.phis():
            try:
                init = phi.incoming_value_for(preheader)
                step_value = phi.incoming_value_for(latch)
            except KeyError:
                continue
            if not isinstance(step_value, BinaryOperator) or step_value.opcode not in ("add", "sub"):
                continue
            upd = step_value
            if upd.lhs is phi and isinstance(upd.rhs, ConstantInt):
                step = ConstantInt(upd.rhs.type, -upd.rhs.value) if upd.opcode == "sub" else upd.rhs
            elif upd.rhs is phi and isinstance(upd.lhs, ConstantInt) and upd.opcode == "add":
                step = upd.lhs
            else:
                continue
            compare, bound, compares_next, exiting = self._find_exit_compare(loop, phi, upd)
            bottom_tested = exiting is not None and exiting is loop.single_latch()
            return InductionDescriptor(phi, init, step, upd, compare, bound,
                                       compares_next, bottom_tested)
        return None

    def _find_exit_compare(self, loop: Loop, phi: PhiNode, update: BinaryOperator
                           ) -> Tuple[Optional[ICmpInst], Optional[Value], bool, Optional[BasicBlock]]:
        for exiting in loop.exiting_blocks():
            term = exiting.terminator
            if not isinstance(term, BranchInst) or not term.is_conditional:
                continue
            cond = term.condition
            if not isinstance(cond, ICmpInst):
                continue
            for tracked, compares_next in ((phi, False), (update, True)):
                if cond.lhs is tracked:
                    pred, bound = cond.predicate, cond.rhs
                elif cond.rhs is tracked:
                    pred, bound = ICmpInst.SWAPPED[cond.predicate], cond.lhs
                else:
                    continue
                # Normalize so the predicate means "the loop continues".
                stays_on_true = term.true_target in loop.blocks
                if not stays_on_true:
                    pred = ICmpInst.INVERSE[pred]
                return _make_synthetic_icmp(pred, tracked, bound), bound, compares_next, exiting
        return None, None, False, None


def _make_synthetic_icmp(pred: str, lhs: Value, rhs: Value) -> ICmpInst:
    """Build a detached icmp describing the loop-continue condition.

    The instruction never enters a block; it only carries (pred, operands)
    for trip-count evaluation, and registers no uses.
    """
    probe = ICmpInst(pred, lhs, rhs)
    probe.drop_all_references()
    # Re-attach operand references without use tracking.
    probe._operands = (lhs, rhs)  # type: ignore[attr-defined]
    return probe
