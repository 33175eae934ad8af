"""``predecessor_map`` and the analyses built on it, against naive
references kept in this file.

The references only use ``bb.predecessors()`` / ``bb.successors()`` and
set algebra, so they share no code with ``analysis/{cfg,dominators,
loops}.py``.
"""

from typing import Dict, Optional, Set

import pytest

from repro.analysis import DominatorTree, LoopInfo, critical_edges
from repro.analysis.cfg import predecessor_map, reachable_blocks
from repro.ir import ConstantInt, Function, IRBuilder, Module, clone_module
from repro.ir import types as ty
from repro.passes import PassManager
from repro.passes.registry import PASS_TABLE
from repro.programs.generator import RandomProgramGenerator

TRANSFORMS = [name for name in PASS_TABLE if name != "-terminate"]


# -- naive references -----------------------------------------------------------

def naive_dominators(func) -> Dict:
    """Reachable block -> set of its dominators (iterative set fixpoint)."""
    reach = reachable_blocks(func)
    blocks = [bb for bb in func.blocks if bb in reach]
    entry = func.entry
    dom = {bb: set(blocks) for bb in blocks}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for bb in blocks:
            if bb is entry:
                continue
            preds = [p for p in bb.predecessors() if p in reach]
            new = set.intersection(*(dom[p] for p in preds)) | {bb}
            if new != dom[bb]:
                dom[bb] = new
                changed = True
    return dom


def naive_idom(dom: Dict, entry) -> Dict:
    idom = {entry: None}
    for bb, doms in dom.items():
        if bb is not entry:
            # the strict dominator every other strict dominator dominates
            idom[bb] = max(doms - {bb}, key=lambda d: len(dom[d]))
    return idom


def naive_frontiers(func, dom: Dict) -> Dict:
    df = {bb: set() for bb in dom}
    for join in dom:
        preds = [p for p in join.predecessors() if p in dom]
        if len(preds) < 2:
            continue
        for pred in preds:
            for x in dom[pred]:
                if x is join or x not in dom[join]:
                    df[x].add(join)
    return df


def naive_loops(func, dom: Dict) -> Dict:
    """Header -> body of the natural loops (same-header loops merged)."""
    bodies: Dict = {}
    for latch in dom:
        for header in latch.successors():
            if header in dom and header in dom[latch]:
                body = bodies.setdefault(header, {header})
                stack = [latch]
                while stack:
                    bb = stack.pop()
                    if bb not in body:
                        body.add(bb)
                        stack.extend(bb.predecessors())
    return bodies


def naive_parent(header, bodies: Dict) -> Optional[object]:
    enclosing = [h for h, body in bodies.items()
                 if h is not header and header in body]
    return min(enclosing, key=lambda h: len(bodies[h])) if enclosing else None


def check_function(func) -> None:
    preds = predecessor_map(func)
    assert list(preds) == list(func.blocks)
    for bb in func.blocks:
        assert preds[bb] == bb.predecessors(), (func.name, bb.name)
    if not func.blocks:
        return
    naive_critical = []
    for src in func.blocks:
        for dst in dict.fromkeys(src.successors()):
            if len(src.successors()) > 1 and len(dst.predecessors()) > 1:
                naive_critical.append((src, dst))
    assert critical_edges(func) == naive_critical

    dom = naive_dominators(func)
    tree = DominatorTree(func)
    assert tree.idom == naive_idom(dom, func.entry)
    assert tree.dominance_frontiers() == naive_frontiers(func, dom)

    bodies = naive_loops(func, dom)
    info = LoopInfo(func)
    assert {loop.header: loop.blocks for loop in info.loops} == bodies
    for loop in info.loops:
        parent = loop.parent.header if loop.parent is not None else None
        assert parent is naive_parent(loop.header, bodies), loop.header.name
        assert all(sub.parent is loop for sub in loop.subloops)
        assert loop.latches() == [p for p in loop.header.predecessors()
                                  if p in loop.blocks]


# -- hand-built shapes ------------------------------------------------------------

def _function(*block_names):
    m = Module("t")
    f = m.add_function(Function("f", ty.function_type(ty.i32, [ty.i32])))
    return f, {name: f.add_block(name) for name in block_names}


class TestHandBuilt:
    def test_switch_with_duplicate_targets(self):
        f, bb = _function("entry", "a", "b")
        sw = IRBuilder(bb["entry"]).switch(f.args[0], bb["a"])
        sw.add_case(ConstantInt(ty.i32, 1), bb["a"])
        sw.add_case(ConstantInt(ty.i32, 2), bb["b"])
        sw.add_case(ConstantInt(ty.i32, 3), bb["a"])
        IRBuilder(bb["a"]).br(bb["b"])
        IRBuilder(bb["b"]).ret(f.args[0])
        assert predecessor_map(f) == {bb["entry"]: [], bb["a"]: [bb["entry"]],
                                      bb["b"]: [bb["entry"], bb["a"]]}
        check_function(f)

    def test_conditional_branch_with_equal_arms(self):
        f, bb = _function("entry", "next")
        b = IRBuilder(bb["entry"])
        b.cbr(b.icmp("eq", f.args[0], b.const(0)), bb["next"], bb["next"])
        IRBuilder(bb["next"]).ret(f.args[0])
        assert predecessor_map(f)[bb["next"]] == [bb["entry"]]
        assert critical_edges(f) == []  # two successors, one predecessor
        check_function(f)

    def test_unreachable_and_terminator_less_blocks(self):
        f, bb = _function("entry", "loop", "exit", "dead", "open")
        IRBuilder(bb["entry"]).br(bb["loop"])
        b = IRBuilder(bb["loop"])
        b.cbr(b.icmp("slt", f.args[0], b.const(9)), bb["loop"], bb["exit"])
        IRBuilder(bb["exit"]).ret(f.args[0])
        IRBuilder(bb["dead"]).br(bb["loop"])     # unreachable predecessor
        IRBuilder(bb["open"]).add(f.args[0], f.args[0])  # no terminator
        preds = predecessor_map(f)
        assert preds[bb["loop"]] == [bb["entry"], bb["loop"], bb["dead"]]
        assert preds[bb["dead"]] == [] and preds[bb["open"]] == []
        check_function(f)
        tree = DominatorTree(f)
        assert not tree.contains(bb["dead"]) and not tree.contains(bb["open"])
        (loop,) = LoopInfo(f, tree).loops
        assert loop.blocks == {bb["loop"]}

    def test_nested_loops_sharing_an_exit(self):
        f, bb = _function("entry", "outer", "inner", "latch", "exit")
        IRBuilder(bb["entry"]).br(bb["outer"])
        IRBuilder(bb["outer"]).br(bb["inner"])
        b = IRBuilder(bb["inner"])
        b.cbr(b.icmp("slt", f.args[0], b.const(3)), bb["inner"], bb["latch"])
        b = IRBuilder(bb["latch"])
        b.cbr(b.icmp("slt", f.args[0], b.const(5)), bb["outer"], bb["exit"])
        IRBuilder(bb["exit"]).ret(f.args[0])
        check_function(f)
        info = LoopInfo(f)
        assert info.loop_for(bb["inner"]).parent.header is bb["outer"]


# -- every registry pass on real programs --------------------------------------------

def _check_after_every_pass(base) -> None:
    for name in TRANSFORMS:
        module = clone_module(base)
        PassManager().run(module, [name])
        for func in module.functions.values():
            check_function(func)
    # and on a CFG several passes deep, where loops are rotated/unrolled
    module = clone_module(base)
    PassManager().run(module, ["-mem2reg", "-loop-simplify", "-loop-rotate",
                               "-loop-unroll", "-jump-threading",
                               "-break-crit-edges", "-lowerswitch"])
    for func in module.functions.values():
        check_function(func)


class TestAfterEveryRegistryPass:
    def test_chstone(self, benchmarks):
        for base in benchmarks.values():
            _check_after_every_pass(base)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_generated(self, seed):
        # default config: invokes, switches and expects included
        _check_after_every_pass(RandomProgramGenerator(seed).generate())
