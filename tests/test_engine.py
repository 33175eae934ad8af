"""EvaluationEngine: cache correctness (bit-identical to the uncached
path), clone aliasing, sample accounting, batch semantics, and the
profiler's incremental-scheduling / burst caches."""

import numpy as np
import pytest

from repro.engine import EvaluationEngine, canonicalize_sequence
from repro.hls.hashing import structural_key
from repro.hls.profiler import CycleProfiler, HLSCompilationError
from repro.passes import PassManager
from repro.passes.registry import NUM_TRANSFORMS, TERMINATE_INDEX, pass_index_for_name
from repro.rl.env import MultiActionEnv
from repro.search import SequenceEvaluator
from repro.toolchain import HLSToolchain, clone_module


def _random_sequences(rng, count, max_len, shared_prefix_prob=0.5):
    """Random pass sequences, half of them sharing a prefix with an
    earlier one (the access pattern the trie exists for)."""
    seqs = []
    for _ in range(count):
        length = int(rng.integers(1, max_len + 1))
        seq = list(rng.integers(0, NUM_TRANSFORMS, size=length))
        if seqs and rng.random() < shared_prefix_prob:
            donor = seqs[int(rng.integers(len(seqs)))]
            cut = int(rng.integers(0, len(donor) + 1))
            seq = list(donor[:cut]) + seq[cut:]
        seqs.append([int(a) for a in seq])
    return seqs


class TestCanonicalization:
    def test_terminate_truncates(self):
        assert canonicalize_sequence([38, TERMINATE_INDEX, 7]) == (38,)
        assert canonicalize_sequence(["-mem2reg", "-terminate", "-gvn"]) == (38,)

    def test_names_collapse_onto_indices(self):
        assert canonicalize_sequence(["-mem2reg", "-simplifycfg"]) == (38, 31)
        assert canonicalize_sequence([38, 31]) == (38, 31)

    def test_numpy_ints_normalized(self):
        assert canonicalize_sequence(np.array([38, 31], dtype=np.int64)) == (38, 31)


class TestCacheCorrectness:
    """Cached evaluation must be bit-identical to the uncached seed path."""

    def test_property_random_sequences(self, benchmarks):
        rng = np.random.default_rng(7)
        cached = HLSToolchain()
        uncached = HLSToolchain(use_engine=False)
        program = benchmarks["gsm"]
        seqs = _random_sequences(rng, count=10, max_len=6)
        # a GA-style family: several children extending one parent prefix,
        # so prefixes get revisited often enough to promote snapshots
        parent = seqs[0]
        seqs += [parent[:4] + [int(x)] for x in rng.integers(0, NUM_TRANSFORMS, size=4)]
        for seq in seqs:
            assert (cached.cycle_count_with_passes(program, seq)
                    == uncached.cycle_count_with_passes(program, seq)), seq
        # the workload must actually have exercised the caches
        info = cached.engine.cache_info()
        assert info["trie_hits"] > 0 and info["passes_saved"] > 0

    def test_property_generated_programs(self, tiny_corpus):
        rng = np.random.default_rng(11)
        cached = HLSToolchain()
        uncached = HLSToolchain(use_engine=False)
        for program in tiny_corpus[:2]:
            for seq in _random_sequences(rng, count=6, max_len=5):
                assert (cached.cycle_count_with_passes(program, seq)
                        == uncached.cycle_count_with_passes(program, seq)), seq

    def test_exact_repeat_is_memo_hit_and_sample_free(self, benchmarks):
        tc = HLSToolchain()
        first = tc.cycle_count_with_passes(benchmarks["matmul"], [38, 31])
        taken = tc.samples_taken
        again = tc.cycle_count_with_passes(benchmarks["matmul"], [38, 31])
        assert again == first
        assert tc.samples_taken == taken  # memo hit: no simulator sample
        assert tc.engine.stats.memo_hits >= 1

    def test_name_and_index_share_cache_entry(self, benchmarks):
        tc = HLSToolchain()
        tc.cycle_count_with_passes(benchmarks["gsm"], ["-mem2reg"])
        taken = tc.samples_taken
        tc.cycle_count_with_passes(benchmarks["gsm"], [pass_index_for_name("-mem2reg")])
        assert tc.samples_taken == taken

    def test_lru_eviction_keeps_results_correct(self, benchmarks):
        small = HLSToolchain(engine_config={"max_trie_nodes": 2,
                                            "snapshot_min_visits": 1})
        reference = HLSToolchain(use_engine=False)
        rng = np.random.default_rng(3)
        program = benchmarks["gsm"]
        for seq in _random_sequences(rng, count=8, max_len=5):
            assert (small.cycle_count_with_passes(program, seq)
                    == reference.cycle_count_with_passes(program, seq)), seq
        assert small.engine.cache_info()["snapshot_evictions"] > 0

    def test_node_budget_exhaustion_keeps_results_correct(self, benchmarks):
        # max_trie_nodes=1 -> 64 structure nodes engine-wide; long unique
        # sequences blow past it and must degrade to uncached-but-correct.
        tiny = HLSToolchain(engine_config={"max_trie_nodes": 1})
        reference = HLSToolchain(use_engine=False)
        rng = np.random.default_rng(9)
        program = benchmarks["gsm"]
        seqs = _random_sequences(rng, count=10, max_len=12, shared_prefix_prob=0.7)
        for seq in seqs:
            assert (tiny.cycle_count_with_passes(program, seq)
                    == reference.cycle_count_with_passes(program, seq)), seq
        info = tiny.engine.cache_info()
        assert info["trie_nodes"] <= 64  # structure growth is bounded
        # exact repeats still memo-hit even with no trie capacity left
        taken = tiny.samples_taken
        tiny.cycle_count_with_passes(program, seqs[0])
        assert tiny.samples_taken == taken

    def test_batch_matches_serial_and_handles_failures(self, benchmarks):
        program = benchmarks["gsm"]
        serial = SequenceEvaluator(program, HLSToolchain())
        batched = SequenceEvaluator(program, HLSToolchain())
        rng = np.random.default_rng(5)
        seqs = _random_sequences(rng, count=6, max_len=4)
        expected = [serial(s) for s in seqs]
        got = batched.evaluate_batch(seqs)
        assert got == expected
        assert batched.samples == serial.samples == len(seqs)
        assert batched.history == serial.history

    def test_batch_respects_call_overrides(self, benchmarks):
        # Fig 9's aggregate evaluator overrides __call__ only; batching
        # must route through the override, not around it.
        class Doubling(SequenceEvaluator):
            def __call__(self, sequence):
                return 2 * super().__call__(sequence)

        plain = SequenceEvaluator(benchmarks["gsm"], HLSToolchain())
        doubled = Doubling(benchmarks["gsm"], HLSToolchain())
        seqs = [[38], [38, 31]]
        assert doubled.evaluate_batch(seqs) == [2 * v for v in plain.evaluate_batch(seqs)]

    def test_batch_surfaces_crashes_with_offending_sequence(self, benchmarks):
        # An HLS memo failure is a legitimate None result; an unexpected
        # worker exception must surface with the candidate attached, not
        # as a bare traceback indistinguishable from any other sequence.
        from repro.engine import BatchEvaluationError, canonicalize_sequence

        tc = HLSToolchain(engine_config={"max_workers": 1})  # deterministic order
        program = benchmarks["gsm"]
        good, bogus = [38, 31], [NUM_TRANSFORMS + 1000]  # out-of-table index
        with pytest.raises(BatchEvaluationError) as excinfo:
            tc.engine.evaluate_batch(program, [good, bogus])
        assert excinfo.value.sequence == canonicalize_sequence(bogus)
        assert isinstance(excinfo.value.original, IndexError)
        assert excinfo.value.__cause__ is excinfo.value.original
        # the good candidate was still evaluated and memoized on the way
        assert tc.cycle_count_with_passes(program, good) > 0

    def test_failure_memoized_and_reraised(self, benchmarks):
        tc = HLSToolchain(max_steps=50)  # everything blows the step budget
        with pytest.raises(HLSCompilationError):
            tc.cycle_count_with_passes(benchmarks["gsm"], [38])
        taken = tc.samples_taken
        with pytest.raises(HLSCompilationError):
            tc.cycle_count_with_passes(benchmarks["gsm"], [38])
        assert tc.samples_taken == taken  # failure hit: no new sample
        # step-budget exhaustion memoizes under its own sentinel,
        # distinguishable from a genuine HLS failure
        assert tc.engine.stats.budget_failures_memoized == 1
        assert tc.engine.stats.failures_memoized == 0


class TestCloneAliasing:
    """Mutating a clone's globals/metadata must never leak into the original."""

    def test_global_initializer_not_shared(self, benchmarks):
        base = benchmarks["blowfish"]
        clone = clone_module(base)
        gv = clone.globals["bf_s0"]
        original = list(base.globals["bf_s0"].initializer)
        gv.initializer[0] = 0xDEAD
        assert base.globals["bf_s0"].initializer == original

    def test_metadata_and_attributes_not_shared(self, benchmarks):
        base = benchmarks["gsm"]
        clone = clone_module(base)
        clone.metadata["poisoned"] = True
        assert "poisoned" not in base.metadata
        func = clone.get_function("main")
        func.metadata["poisoned"] = True
        func.attributes.add("poisoned")
        assert "poisoned" not in base.get_function("main").metadata
        assert "poisoned" not in base.get_function("main").attributes

    def test_clone_of_clone_still_behaves(self, benchmarks):
        un = HLSToolchain(use_engine=False)
        base = benchmarks["matmul"]
        twice = clone_module(clone_module(base))
        assert un.cycle_count(twice) == un.cycle_count(clone_module(base))


def _vandalize(module):
    """Mutate a module the engine handed out in every way a caller may."""
    PassManager().run(module, ["-mem2reg", "-simplifycfg", "-loop-unroll",
                               "-instcombine", "-globalopt"])
    for gv in module.globals.values():
        if isinstance(gv.initializer, list):
            gv.initializer[:] = [1] * len(gv.initializer)
        else:
            gv.initializer = 1
    for func in module.defined_functions():
        func.attributes.add("vandalized")
        func.blocks[-1].drop_all_instructions()


class TestSnapshotOwnership:
    """Snapshots are read-only and may be the very module that was
    profiled; modules that leave the engine are private copies."""

    # min_visits=1 promotes every evaluated leaf at once, so the modules
    # the engine profiled are the snapshots later steps clone from
    EAGER = {"snapshot_min_visits": 1}

    @pytest.fixture(params=["engine", "service"])
    def backend(self, request, tmp_path):
        if request.param == "engine":
            return HLSToolchain(engine_config=self.EAGER)
        return HLSToolchain(backend="service",
                            service_config={"workers": 0,
                                            "store_dir": str(tmp_path),
                                            "engine_config": self.EAGER})

    @pytest.mark.parametrize("name", ["gsm", "qsort"])
    def test_returned_modules_never_alias_snapshots(self, benchmarks, backend, name):
        program = benchmarks[name]
        engine = backend.engine
        reference = HLSToolchain(use_engine=False)
        a, b, c, d, x, y = (pass_index_for_name(p) for p in (
            "-mem2reg", "-loop-rotate", "-instcombine", "-gvn",
            "-simplifycfg", "-licm"))

        def check(sequence):
            assert engine.evaluate(program, sequence) == \
                reference.cycle_count_with_passes(program, sequence)
            assert np.array_equal(engine.features_after(program, sequence),
                                  reference.features_after(program, sequence))

        # the chain pattern: every step's module becomes a snapshot as is
        engine.evaluate(program, [a])
        engine.evaluate(program, [a, b])
        assert engine.cache_info()["snapshots_zero_copy"] == 2

        _vandalize(engine.materialize(program, [a, b]))  # copy of a snapshot
        check([a, b])
        check([a, b, c])

        value, module = engine.evaluate_with_module(program, [a, b, c])  # memo hit
        assert value == reference.cycle_count_with_passes(program, [a, b, c])
        _vandalize(module)
        check([a, b, c])
        check([a, b, c, d])

        value, module = engine.evaluate_with_module(program, [a, x])  # cold
        _vandalize(module)
        check([a, x])
        check([a, x, y])

        _vandalize(engine.materialize(program, []))
        check([])
        assert clone_module(program).instruction_count() == program.instruction_count()

    def test_unrelated_sequences_are_not_admitted(self, benchmarks):
        toolchain = HLSToolchain()
        firsts = [pass_index_for_name(p) for p in (
            "-mem2reg", "-simplifycfg", "-instcombine", "-gvn", "-licm", "-sroa")]
        tail = [pass_index_for_name("-early-cse"), pass_index_for_name("-adce")]
        values = toolchain.engine.evaluate_batch(
            benchmarks["matmul"], [[first] + tail for first in firsts])
        assert all(v is not None for v in values)
        info = toolchain.cache_info()
        assert info["snapshots_zero_copy"] == 0 and info["snapshots_stored"] == 0

    def test_extend_by_one_costs_one_clone_and_one_pass(self, benchmarks, monkeypatch):
        from repro.engine import core

        clones = []
        monkeypatch.setattr(core, "clone_module",
                            lambda m: clones.append(m) or clone_module(m))
        toolchain = HLSToolchain(engine_config=self.EAGER)
        chain = []
        for step in range(6):
            chain.append(step)
            toolchain.engine.evaluate_with_features(benchmarks["sha"], chain)
        info = toolchain.cache_info()
        assert len(clones) == 6 and info["passes_applied"] == 6
        assert info["snapshots_zero_copy"] == 6

    def test_default_visit_rule_promotes_a_leaf_on_its_second_walk(self, benchmarks):
        toolchain = HLSToolchain()
        engine, program = toolchain.engine, benchmarks["sha"]
        reference = HLSToolchain(use_engine=False)
        chain = []
        for step in range(4):  # first walks: no leaf earns a snapshot
            chain.append(step)
            engine.evaluate(program, chain)
        assert engine.cache_info()["snapshots_zero_copy"] == 0
        # second walk of the same leaf (another objective misses the memo):
        # the module built for it is installed as is ...
        engine.evaluate(program, chain, objective="area")
        assert engine.cache_info()["snapshots_zero_copy"] == 1
        # ... and a third is handed that snapshot without a clone
        stored = engine.cache_info()["snapshots_stored"]
        assert engine.evaluate(program, chain, objective="cycles-area") is not None
        assert engine.cache_info()["snapshots_stored"] == stored
        _vandalize(engine.materialize(program, chain))
        extended = chain + [pass_index_for_name("-gvn")]
        assert engine.evaluate(program, extended) == \
            reference.cycle_count_with_passes(program, extended)


class TestIncrementalScheduling:
    def test_schedule_cache_hits_across_clones(self, benchmarks):
        profiler = CycleProfiler()
        program = benchmarks["matmul"]
        r1 = profiler.profile(clone_module(program))
        misses = profiler.schedule_cache_misses
        r2 = profiler.profile(clone_module(program))
        assert r2.cycles == r1.cycles
        # clones are structurally identical: zero new scheduling work
        assert profiler.schedule_cache_misses == misses
        assert profiler.schedule_cache_hits >= len(program.defined_functions())

    def test_structural_key_ignores_names(self, benchmarks):
        program = benchmarks["gsm"]
        clone = clone_module(program)
        for func in program.defined_functions():
            other = clone.get_function(func.name)
            assert structural_key(func) == structural_key(other)

    def test_cache_disabled_matches_enabled(self, benchmarks):
        with_cache = CycleProfiler()
        without = CycleProfiler(schedule_cache_size=0)
        for name in ("gsm", "matmul", "qsort"):
            module = clone_module(benchmarks[name])
            HLSToolchain.apply_passes(module, [38, 31])
            assert with_cache.profile(module).cycles == without.profile(module).cycles

    def test_burst_memo_invalidated_by_pass_runs(self, benchmarks):
        profiler = CycleProfiler()
        module = clone_module(benchmarks["aes"])
        before = profiler.profile(module).cycles
        assert profiler.profile(module).cycles == before  # memo path
        version = module.version
        HLSToolchain.apply_passes(module, [38])
        assert module.version > version  # PassManager bumped the counter
        profiler.profile(module)  # must not reuse the stale burst entry


class TestEngineBackedEnvs:
    def test_env_counts_candidate_evaluations(self, benchmarks):
        # Fig 7's samples axis: envs report one unit per reset/step score
        # request regardless of cache hits, matching the black-box rows'
        # SequenceEvaluator.samples unit (and the seed's accounting).
        from repro.rl.env import PhaseOrderEnv

        env = PhaseOrderEnv([benchmarks["gsm"]], episode_length=3, seed=1)
        env.reset(0)
        env.step(0)
        env.step(1)
        assert env.evaluations == 3
        env.reset(0)  # repeated episode: memo hits, but still candidates
        env.step(0)
        assert env.evaluations == 5
        assert env.toolchain.samples_taken < env.evaluations  # cache discount

    def test_multiaction_reset_caches_initial_cycles(self, benchmarks):
        tc = HLSToolchain()
        env = MultiActionEnv([benchmarks["gsm"]], toolchain=tc,
                             sequence_length=4, episode_length=2, seed=0)
        env.reset(0)
        first_initial = env.initial_cycles
        taken = tc.samples_taken
        env.reset(0)
        assert env.initial_cycles == first_initial
        # the repeated reset re-profiles nothing: same sequence, cached base
        assert tc.samples_taken == taken

    def test_multiaction_step_matches_uncached(self, benchmarks):
        results = []
        for use_engine in (True, False):
            tc = HLSToolchain(use_engine=use_engine)
            env = MultiActionEnv([benchmarks["gsm"]], toolchain=tc,
                                 sequence_length=4, episode_length=3, seed=0)
            env.reset(0)
            _, r1, _, info1 = env.step(np.full(4, 2))
            _, r2, _, info2 = env.step(np.full(4, 0))
            results.append((r1, info1["cycles"], r2, info2["cycles"],
                            env.initial_cycles))
        assert results[0] == results[1]
