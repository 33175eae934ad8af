"""IR lifetime: a module nobody holds is garbage.

Clones share their source's constants, and several layers memoize per
module in ``WeakKeyDictionary``s. Either can pin every module ever made
(a use list on a shared constant; a memo value that reaches back to its
key), which shows up as a heap — and a gen-2 collection — that grows with
run length. These tests hold weak references only and demand death.
"""

import gc
import random
import weakref

from repro.engine import EvaluationEngine
from repro.features.extractor import features_for
from repro.ir import BinaryOperator, ConstantInt, Module, UndefValue, clone_module
from repro.ir import types as ty
from repro.passes.registry import NUM_TRANSFORMS
from repro.toolchain import HLSToolchain


def _dead(ref) -> bool:
    gc.collect()
    return ref() is None


def _live_modules() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Module))


class TestConstantsCarryNoUses:
    def test_use_list_stays_empty(self):
        c, u = ConstantInt(ty.i32, 7), UndefValue(ty.i32)
        add = BinaryOperator("add", c, u, "a")
        add.set_operand(1, c)
        assert add.operands == (c, c)
        assert c._uses == () and u._uses == ()  # no container to fill
        assert not c.is_used and c.users() == [] and c.num_uses == 0
        add.drop_all_references()
        assert c._uses == ()

    def test_clones_leave_shared_constants_untouched(self, benchmarks):
        base = benchmarks["gsm"]
        constants = {id(op): op for inst in base.instructions()
                     for op in inst.operands if isinstance(op, ConstantInt)}
        assert constants
        clones = [clone_module(base) for _ in range(3)]
        shared = {id(op) for clone in clones for inst in clone.instructions()
                  for op in inst.operands if isinstance(op, ConstantInt)}
        assert shared == set(constants)  # the very same objects...
        assert all(c._uses == () for c in constants.values())  # ...still clean


class TestDroppedClonesDie:
    def test_bare_clone(self, benchmarks):
        refs = [weakref.ref(clone_module(benchmarks["aes"])) for _ in range(5)]
        assert all(_dead(ref) for ref in refs)

    def test_clone_of_a_clone(self, benchmarks):
        first = clone_module(benchmarks["qsort"])
        second = clone_module(first)
        ref = weakref.ref(first)
        del first
        assert _dead(ref)
        assert second.instruction_count() == benchmarks["qsort"].instruction_count()

    def test_clone_after_features_and_profile(self, benchmarks):
        # fills every module-keyed memo: structural keys, features, burst
        # slots, and (through the batched wave) execution signatures
        toolchain = HLSToolchain()
        a, b = clone_module(benchmarks["gsm"]), clone_module(benchmarks["gsm"])
        HLSToolchain.apply_passes(b, ["-mem2reg"])
        refs = [weakref.ref(a), weakref.ref(b)]
        features_for(a)
        toolchain.profile(a)
        reports = toolchain.profile_batch([a, b])
        assert not any(isinstance(r, BaseException) for r in reports)
        features_for(b)
        del a, b, reports
        assert all(_dead(ref) for ref in refs)

    def test_snapshot_evicted_from_the_lru(self, benchmarks):
        engine = EvaluationEngine(HLSToolchain(), max_trie_nodes=2,
                                  snapshot_min_visits=1)
        program = benchmarks["matmul"]
        # nine passes that each change the unoptimized program: a pass
        # that does nothing leads to no new state, hence no snapshot
        firsts = ["-globalopt", "-gvn", "-loop-rotate", "-early-cse",
                  "-instcombine", "-dse", "-licm", "-mem2reg", "-prune-eh"]
        for first in firsts[:6]:  # every evaluated leaf is its own snapshot
            engine.evaluate(program, [first])
        held = [weakref.ref(node.snapshot) for node in engine._lru._order]
        assert len(held) == 2 and engine.cache_info()["snapshot_evictions"] == 4
        for first in firsts[6:]:
            engine.evaluate(program, [first])
        assert all(_dead(ref) for ref in held)


class TestEngineRunStaysBounded:
    def test_live_modules_after_200_evaluations(self, benchmarks):
        programs = [benchmarks["matmul"], benchmarks["qsort"]]
        before = _live_modules()
        engine = EvaluationEngine(HLSToolchain(), max_trie_nodes=8)
        rng = random.Random(5)
        evaluations = 0
        while evaluations < 200:
            program = programs[evaluations % 2]
            prefix = [rng.randrange(NUM_TRANSFORMS) for _ in range(rng.randrange(4))]
            wave = [prefix + [rng.randrange(NUM_TRANSFORMS)] for _ in range(4)]
            engine.evaluate_batch(program, wave, want_features=bool(evaluations % 3))
            chain = []
            for _ in range(4):  # the RL pattern: extend by one, evaluate
                chain.append(rng.randrange(NUM_TRANSFORMS))
                try:
                    engine.evaluate(program, chain)
                except Exception:
                    pass  # a legitimately failing sequence still materialized
            engine.materialize(program, chain)  # a private copy, dropped at once
            evaluations += 8
        info = engine.cache_info()
        assert info["snapshot_evictions"] > 0  # the run did churn snapshots
        grown = _live_modules() - before
        assert grown <= info["snapshot_nodes"] + 2, (grown, info["snapshot_nodes"])
