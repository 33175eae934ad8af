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
        # An unexpected exception fails that candidate only: its row is
        # None like any failing sequence, its siblings complete, and the
        # memo names the crash and the sequence it belongs to.
        from repro.engine import EvaluationCrash, canonicalize_sequence

        tc = HLSToolchain()
        program = benchmarks["gsm"]
        good, bogus = [38, 31], [NUM_TRANSFORMS + 1000]  # out-of-table index
        rows = tc.engine.evaluate_batch(program, [good, bogus])
        assert rows == [HLSToolchain(use_engine=False).cycle_count_with_passes(
            program, good), None]
        crash = tc.engine.memoized_failure(program, bogus)
        assert isinstance(crash, EvaluationCrash)
        assert crash.sequence == canonicalize_sequence(bogus)
        assert tc.engine.cache_info()["internal_errors"] == 1
        # the good candidate was memoized on the way
        taken = tc.samples_taken
        assert tc.cycle_count_with_passes(program, good) == rows[0]
        assert tc.samples_taken == taken

    def test_crash_is_a_memoized_failure_of_that_sequence(self, benchmarks,
                                                          monkeypatch):
        from repro.engine import EvaluationCrash
        from repro.passes.base import PASS_CONSTRUCTORS, Pass

        class Crash(Pass):
            name = "-crash"

            def run(self, module):
                raise RuntimeError("pass bug")

        monkeypatch.setitem(PASS_CONSTRUCTORS, "-crash", Crash)
        toolchain = HLSToolchain()
        engine, program = toolchain.engine, benchmarks["gsm"]
        a, b = _changing(program, "-mem2reg", "-instcombine")
        bad = [a, "-crash", b]
        good = engine.evaluate(program, [a, b])
        with pytest.raises(EvaluationCrash) as excinfo:
            engine.evaluate(program, bad)
        assert excinfo.value.sequence == (a, "-crash", b)
        assert isinstance(excinfo.value.original, RuntimeError)
        assert excinfo.value.__cause__ is excinfo.value.original
        # a replay, alone or in a batch, takes no sample and runs no pass
        taken, applied = toolchain.samples_taken, engine.stats.passes_applied
        assert engine.evaluate_batch(program, [[a, b], bad]) == [good, None]
        with pytest.raises(EvaluationCrash):
            engine.evaluate(program, bad)
        assert toolchain.samples_taken == taken
        assert engine.stats.passes_applied == applied
        info = engine.cache_info()
        assert info["internal_errors"] == 1 and info["failures_memoized"] == 0

    @pytest.mark.parametrize("where", [
        "objective_values_batch", "_combine", "area_score"],
        ids=["result", "combine", "area"])
    def test_wave_lane_crash_fails_that_lane_only(self, benchmarks,
                                                  monkeypatch, where):
        # a crash anywhere in a lane — its whole result, combining visits
        # with states, or the area term — fails that lane's sequence alone
        from repro.engine import EvaluationCrash

        program = benchmarks["gsm"]
        sequences = [[7], [13], [23], [26]]
        objective = "cycles-area" if where == "area_score" else "cycles"
        reference = HLSToolchain(use_engine=False)

        def expected(seq):
            module = clone_module(program)
            reference.apply_passes(module, seq)
            return reference.objective_value(module, objective)

        values = [expected(seq) for seq in sequences]
        features = [reference.features_after(program, seq) for seq in sequences]
        toolchain = HLSToolchain()
        engine = toolchain.engine

        def second_lane_crashes(real, module_arg):
            seen = []

            def planted(*args, **kwargs):
                module = args[module_arg]
                if not any(module is m for m in seen):
                    seen.append(module)
                if len(seen) > 1 and module is seen[1]:
                    raise RuntimeError("planted crash")
                return real(*args, **kwargs)
            return planted

        if where == "objective_values_batch":
            real = toolchain.objective_values_batch

            def crash_second_lane(modules, *args, **kwargs):
                out = real(modules, *args, **kwargs)
                out[1] = ZeroDivisionError("simulator bug")
                return out

            monkeypatch.setattr(toolchain, where, crash_second_lane)
        elif where == "_combine":
            monkeypatch.setattr(CycleProfiler, where, second_lane_crashes(
                CycleProfiler._combine, 1))
        else:
            monkeypatch.setattr(toolchain, where, second_lane_crashes(
                toolchain.area_score, 0))
        rows = engine.evaluate_batch(program, sequences, objective=objective,
                                     want_features=True)
        assert toolchain.samples_taken == len(sequences)  # one lane each
        assert [row[0] for row in rows] == [values[0], None] + values[2:]
        # the module was built, so the crashed row still has features
        for row, feats in zip(rows, features):
            np.testing.assert_array_equal(row[1], feats)
        assert isinstance(engine.memoized_failure(
            program, sequences[1], objective=objective), EvaluationCrash)
        assert engine.cache_info()["internal_errors"] == 1

    def test_unbuildable_crash_row_has_no_features(self, benchmarks):
        tc = HLSToolchain()
        rows = tc.engine.evaluate_batch(
            benchmarks["gsm"], [[38], [NUM_TRANSFORMS + 1000]],
            want_features=True)
        assert rows[0][0] is not None and rows[1] == (None, None)
        assert tc.cache_info()["internal_errors"] == 1

    def test_verification_error_is_never_contained(self, benchmarks,
                                                   monkeypatch):
        # a divergence between executors is a simulator bug, never a
        # failing sequence: it escapes the batch
        from repro.interp.kernels import VerificationError

        def diverge(self, *args, **kwargs):
            raise VerificationError("planted divergence")

        monkeypatch.setattr(CycleProfiler, "profile", diverge)
        monkeypatch.setattr(CycleProfiler, "profile_batch", diverge)
        tc = HLSToolchain()
        for sequences in ([[38]], [[38], [38, 31]]):
            with pytest.raises(Exception, match="planted divergence") \
                    as excinfo:
                tc.engine.evaluate_batch(benchmarks["gsm"], sequences)
            assert not isinstance(excinfo.value, HLSCompilationError)

    @pytest.mark.parametrize("mode", ["off", "on", "verify"])
    def test_ga_search_survives_a_crashing_candidate(self, mode):
        # qsort GA seed 0 draws a candidate that crashes a pass; the
        # search completes around it
        from repro.programs.chstone import build_qsort
        from repro.search.genetic import GAConfig, genetic_search

        tc = HLSToolchain(sim_kernels=mode)
        result = genetic_search(build_qsort(),
                                GAConfig(population=20, generations=2),
                                toolchain=tc, seed=0)
        assert result.best_cycles == 1668
        assert tc.cache_info()["internal_errors"] == 1

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


def _verdicts(program, names, each_from_base):
    """What a pass manager says about each of ``names`` applied in order
    (or each on its own copy of ``program``)."""
    module = clone_module(program)
    verdicts = []
    for name in names:
        if each_from_base:
            module = clone_module(program)
        verdicts.append(PassManager().run(module, [name]))
    return verdicts


def _changing(program, *names, each_from_base=False):
    """Table indices of ``names``, checked to each change the module when
    applied in this order — steps in effective coordinates."""
    assert all(_verdicts(program, names, each_from_base)), names
    return [pass_index_for_name(name) for name in names]


def _noops(program, *names):
    """Table indices of ``names``, checked to each leave ``program`` as
    it is."""
    assert not any(_verdicts(program, names, True)), names
    return [pass_index_for_name(name) for name in names]


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
        # unrelated in *effective* coordinates: every first pass changes
        # the program, so no two walks share a state
        toolchain = HLSToolchain()
        program = benchmarks["matmul"]
        firsts = _changing(program, "-mem2reg", "-globalopt", "-instcombine",
                           "-gvn", "-licm", "-dse", each_from_base=True)
        tail = [pass_index_for_name("-early-cse"), pass_index_for_name("-adce")]
        values = toolchain.engine.evaluate_batch(
            program, [[first] + tail for first in firsts])
        assert all(v is not None for v in values)
        info = toolchain.cache_info()
        assert info["snapshots_zero_copy"] == 0 and info["snapshots_stored"] == 0

    def test_sequences_related_only_by_noops_share_their_state(self, benchmarks):
        # the converse: distinct prefixes that all did nothing lead to ONE
        # state — one node, one sample — and the first walk that has to
        # leave it again finds it shared and leaves a snapshot behind
        toolchain = HLSToolchain()
        engine, program = toolchain.engine, benchmarks["matmul"]
        mem2reg, instcombine = _changing(program, "-mem2reg", "-instcombine")
        noops = _noops(program, "-simplifycfg", "-sroa", "-adce")
        engine.evaluate_batch(program, [[noop, mem2reg] for noop in noops])
        info = engine.cache_info()
        assert toolchain.samples_taken == 1 and info["trie_nodes"] == 1
        assert info["memo_misses"] == 1 and info["effective_hits"] == 2
        assert info["passes_applied"] == 4  # three verdicts and one mem2reg
        assert info["snapshots_stored"] == 0
        engine.evaluate(program, [noops[0], mem2reg, noops[1], instcombine])
        info = engine.cache_info()
        assert info["snapshots_stored"] == 1 and info["trie_nodes"] == 2
        assert info["snapshots_zero_copy"] == 0  # a copy: the walk went on

    def test_extend_by_one_costs_one_clone_and_one_pass(self, benchmarks, monkeypatch):
        from repro.engine import core

        clones = []
        monkeypatch.setattr(core, "clone_module",
                            lambda m: clones.append(m) or clone_module(m))
        toolchain = HLSToolchain(engine_config=self.EAGER)
        program = benchmarks["sha"]
        steps = _changing(program, "-mem2reg", "-loop-rotate", "-instcombine",
                          "-gvn", "-simplifycfg", "-loop-unroll")
        chain = []
        for step in steps:  # six effective steps
            chain.append(step)
            toolchain.engine.evaluate_with_features(program, chain)
        info = toolchain.cache_info()
        assert len(clones) == 6 and info["passes_applied"] == 6
        assert info["snapshots_zero_copy"] == 6
        # a step that does nothing is found out once (one clone, one pass,
        # no sample, no new snapshot) and is free wherever it recurs
        leaf = toolchain.engine.materialize(program, chain)
        noop, = _noops(leaf, "-adce")
        seventh, = _changing(leaf, "-sccp")
        del clones[:]
        taken = toolchain.samples_taken
        toolchain.engine.evaluate_with_features(program, chain + [noop])
        toolchain.engine.evaluate_with_features(program, chain + [noop, noop])
        info = toolchain.cache_info()
        assert len(clones) == 1 and info["passes_applied"] == 7
        assert toolchain.samples_taken == taken
        assert info["snapshots_zero_copy"] == 6 and info["noop_skipped"] == 2
        toolchain.engine.evaluate_with_features(program, chain + [noop, seventh])
        info = toolchain.cache_info()
        assert len(clones) == 2 and info["passes_applied"] == 8
        assert toolchain.samples_taken == taken + 1
        assert info["snapshots_zero_copy"] == 7 and info["noop_skipped"] == 3

    def test_a_fresh_tail_is_one_clone_whatever_the_visit_rule(
            self, benchmarks, monkeypatch):
        # states a walk opens itself are no divergence frontier: a brand
        # new multi-pass sequence costs one clone (and, eagerly, its leaf)
        from repro.engine import core

        program = benchmarks["sha"]
        steps = _changing(program, "-mem2reg", "-loop-rotate", "-instcombine",
                          "-gvn", "-simplifycfg", "-loop-unroll")
        for config, stored in ((self.EAGER, 1), ({}, 0)):
            clones = []
            monkeypatch.setattr(core, "clone_module",
                                lambda m: clones.append(m) or clone_module(m))
            toolchain = HLSToolchain(engine_config=config)
            toolchain.engine.evaluate(program, steps)
            info = toolchain.cache_info()
            assert len(clones) == 1 and info["passes_applied"] == 6
            assert info["snapshots_stored"] == info["snapshots_zero_copy"] == stored

    def test_default_visit_rule_promotes_a_leaf_on_its_second_walk(self, benchmarks):
        toolchain = HLSToolchain()
        engine, program = toolchain.engine, benchmarks["sha"]
        reference = HLSToolchain(use_engine=False)
        chain = []
        for step in _changing(program, "-mem2reg", "-loop-rotate",
                              "-instcombine", "-gvn"):
            chain.append(step)  # first walks: no leaf earns a snapshot
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


def _noisy_sequences(rng, count, max_len=9, pool_size=7):
    """Sequences the no-op-aware trie exists for: drawn with replacement
    from a small pool (so passes repeat back to back and across
    sequences) in which most applications do nothing, half of them
    sharing a prefix with an earlier one."""
    pool = [int(p) for p in rng.choice(NUM_TRANSFORMS, size=pool_size,
                                       replace=False)]
    pool[0] = pass_index_for_name("-mem2reg")  # something always changes
    seqs = []
    for _ in range(count):
        seq = [pool[int(i)] for i in rng.integers(
            0, pool_size, size=int(rng.integers(1, max_len + 1)))]
        if seqs and rng.random() < 0.5:
            donor = seqs[int(rng.integers(len(seqs)))]
            cut = int(rng.integers(0, len(donor) + 1))
            seq = donor[:cut] + seq[cut:]
        seqs.append(seq)
    return seqs + [seqs[0][:1] * 3, []]


def _reference(program, seq, profile=True):
    """(cycles | None, features, exec signature) of ``seq`` on the
    uncached path: clone, one PassManager run per pass, profile."""
    from repro.features.extractor import extract_features
    from repro.interp.batch_exec import exec_signature

    module = clone_module(program)
    HLSToolchain.apply_passes(module, seq)
    cycles = None
    if profile:
        try:
            cycles = HLSToolchain(use_engine=False).cycle_count(module)
        except HLSCompilationError:
            pass
    return cycles, extract_features(module), exec_signature(module, "main")


def _trie_shape(engine, program):
    """What the trie knows, without visit counters and snapshots: per
    state (named by its effective sequence) the known edges and no-ops."""
    shape, stack = {}, [((), engine._trie_for(program).root)]
    while stack:
        path, node = stack.pop()
        shape[path] = (sorted(node.children, key=str),
                       sorted(node.noops, key=str))
        stack.extend((path + (e,), child) for e, child in node.children.items())
    return shape


class TestEffectiveSequence:
    """Results, failures and features are keyed by the sequence with the
    passes that did nothing dropped; whatever the trie skips or shares on
    that account must be invisible in every value an entry point returns."""

    @pytest.fixture(params=["engine", "service-w0", "service-w2"])
    def backend(self, request, tmp_path):
        if request.param == "engine":
            toolchain = HLSToolchain()
        else:
            toolchain = HLSToolchain(
                backend="service",
                service_config={"workers": int(request.param[-1]),
                                "store_dir": str(tmp_path)})
        yield toolchain
        toolchain.close()

    def test_every_entry_point_matches_the_uncached_path(
            self, benchmarks, tiny_corpus, backend):
        from repro.interp.batch_exec import exec_signature

        engine = backend.engine
        rng = np.random.default_rng(21)
        for program in (benchmarks["qsort"], benchmarks["gsm"], tiny_corpus[1]):
            seqs = _noisy_sequences(rng, count=8)
            expected = [_reference(program, seq) for seq in seqs]
            cycles = [e[0] for e in expected]
            half = len(seqs) // 2
            assert engine.evaluate_batch(program, seqs[:half]) == cycles[:half]
            rows = engine.evaluate_batch(program, seqs, want_features=True)
            assert [row[0] for row in rows] == cycles
            for seq, (want, feats, signature), row in zip(seqs, expected, rows):
                assert np.array_equal(row[1], feats), seq
                assert np.array_equal(engine.features_after(program, seq), feats)
                module = engine.materialize(program, seq)
                assert exec_signature(module, "main") == signature, seq
                if want is None:
                    for call in (lambda: engine.evaluate(program, seq),
                                 lambda: engine.evaluate_with_module(program, seq)):
                        with pytest.raises(HLSCompilationError):
                            call()
                    continue
                assert engine.evaluate(program, seq) == want
                value, feats_again = engine.evaluate_with_features(program, seq)
                assert value == want and np.array_equal(feats_again, feats)
                value, module = engine.evaluate_with_module(program, seq)
                assert value == want
                assert exec_signature(module, "main") == signature
                _vandalize(module)
        if backend.backend == "engine":  # the property the speed-up needs
            info = backend.cache_info()
            assert info["noop_skipped"] > 0 and info["effective_hits"] > 0

    def test_effective_sequence_reaches_the_same_module(self, benchmarks,
                                                        tiny_corpus):
        toolchain = HLSToolchain()
        engine = toolchain.engine
        rng = np.random.default_rng(33)
        shorter = 0
        for program in (benchmarks["matmul"], benchmarks["sha"], tiny_corpus[0]):
            for seq in _noisy_sequences(rng, count=10):
                engine.evaluate_batch(program, [seq])
                res = engine._trie_for(program).resolve(tuple(seq))
                assert not res.rest  # evaluated: resolves without a module
                effective = list(res.effective)
                shorter += len(effective) < len(seq)
                # equal signatures imply bit-identical executions
                raw = _reference(program, seq, profile=False)
                eff = _reference(program, effective, profile=False)
                assert raw[2] == eff[2], (seq, effective)
                assert np.array_equal(raw[1], eff[1])
                # and it is its own effective sequence: a fixed point
                again = engine._trie_for(program).resolve(tuple(effective))
                assert list(again.effective) == effective and not again.rest
        assert shorter > 10

    def test_collapse_costs_nothing(self, benchmarks, monkeypatch):
        """The verify-skill recipe: evaluate a sequence, then the same
        sequence with a pass that reported ``changed=False`` removed —
        zero clones, zero passes, zero samples."""
        from repro.engine import core

        toolchain = HLSToolchain()
        engine, program = toolchain.engine, benchmarks["matmul"]
        a, b = _changing(program, "-mem2reg", "-instcombine")
        x, = _noops(engine.materialize(program, [a]), "-mem2reg")  # == a
        first = engine.evaluate(program, [a, x, b])
        clones = []
        monkeypatch.setattr(core, "clone_module",
                            lambda m: clones.append(m) or clone_module(m))
        before = engine.cache_info()
        samples = toolchain.samples_taken
        assert engine.evaluate(program, [a, b]) == first
        assert engine.evaluate(program, [a, x, x, b, TERMINATE_INDEX, a]) == first
        after = engine.cache_info()
        assert not clones and toolchain.samples_taken == samples
        assert after["passes_applied"] == before["passes_applied"]
        assert after["memo_misses"] == before["memo_misses"]

    @pytest.mark.parametrize("max_steps, counter", [
        (50, "budget_failures_memoized"), (1_000_000, "failures_memoized")])
    def test_failure_sentinels_reach_both_keys(self, benchmarks, monkeypatch,
                                               max_steps, counter):
        toolchain = HLSToolchain(max_steps=max_steps)
        if counter == "failures_memoized":  # a genuine HLS failure
            def reject(modules, entry="main"):
                return [HLSCompilationError("rejected") for _ in modules]
            monkeypatch.setattr(toolchain.profiler, "profile_batch", reject)
        engine, program = toolchain.engine, benchmarks["gsm"]
        a, = _changing(program, "-mem2reg")
        x, = _noops(program, "-adce")
        with pytest.raises(HLSCompilationError):
            engine.evaluate(program, [x, a, a])  # mem2reg twice: once is all
        taken, applied = toolchain.samples_taken, engine.stats.passes_applied
        for seq in ([x, a, a], [a], [a, a, a]):  # raw, effective, a sibling
            with pytest.raises(HLSCompilationError) as excinfo:
                engine.evaluate(program, seq)
            assert type(excinfo.value) is type(
                engine.memoized_failure(program, [a]))
            assert engine.evaluate_batch(program, [seq, [x] + seq]) == [None] * 2
        assert toolchain.samples_taken == taken
        assert engine.stats.passes_applied == applied
        assert getattr(engine.stats, counter) == 1
        assert engine.memoized_failure(program, [x, a, a, a]) is not None
        assert engine.memoized_failure(program, [x]) is None

    def test_pass_that_raises_mid_chain_leaves_the_trie_as_it_was(
            self, benchmarks, monkeypatch):
        from repro.passes.base import PASS_CONSTRUCTORS, Pass

        class Boom(Pass):
            name = "-boom"

            def run(self, module):
                raise HLSCompilationError("boom")

        monkeypatch.setitem(PASS_CONSTRUCTORS, "-boom", Boom)
        toolchain = HLSToolchain()
        engine, program = toolchain.engine, benchmarks["gsm"]
        reference = HLSToolchain(use_engine=False)
        a, b = _changing(program, "-mem2reg", "-instcombine")
        _, c = _changing(program, "-mem2reg", "-loop-rotate")
        engine.evaluate(program, [a, a])  # mem2reg twice: the second is a no-op
        shape = _trie_shape(engine, program)
        assert shape == {(): ([a], []), (a,): ([], [a])}
        for bad in ("-boom", "-no-such-pass"):
            for _ in range(2):  # the second attempt must not be a stale hit
                with pytest.raises((HLSCompilationError, KeyError)):
                    engine.evaluate(program, [a, a, bad, b])
                assert _trie_shape(engine, program) == shape
        # the HLS failure is memoized under the raw key it was asked by,
        # nothing else; the prefix and its siblings evaluate as ever
        assert engine.memoized_failure(program, [a, a, "-boom", b]) is not None
        assert engine.memoized_failure(program, [a, "-boom", b]) is None
        assert engine.evaluate(program, [a, a, b]) == \
            reference.cycle_count_with_passes(program, [a, b])
        # what was learned before the failing pass stays learned
        with pytest.raises(HLSCompilationError):
            engine.evaluate(program, [a, c, a, "-boom"])
        assert _trie_shape(engine, program)[(a, c)] == ([], [a])

    def test_budget_and_eviction_mid_chain_stay_correct(self, benchmarks):
        reference = HLSToolchain(use_engine=False)
        program = benchmarks["qsort"]
        rng = np.random.default_rng(17)
        seqs = _noisy_sequences(rng, count=14, max_len=12)
        expected = [reference.cycle_count_with_passes(program, s) for s in seqs]
        # 64 structure nodes in all, exhausted on purpose by unique tails
        tiny = HLSToolchain(engine_config={"max_trie_nodes": 1})
        filler = _random_sequences(rng, count=8, max_len=12, shared_prefix_prob=0)
        for seq in filler:
            tiny.cycle_count_with_passes(program, seq)
        # two snapshots engine-wide, every leaf promoted: constant eviction
        churn = HLSToolchain(engine_config={"max_trie_nodes": 2,
                                            "snapshot_min_visits": 1})
        for toolchain in (tiny, churn):
            for _ in range(2):
                got = [toolchain.cycle_count_with_passes(program, s) for s in seqs]
                assert got == expected
            assert toolchain.engine.evaluate_batch(program, seqs) == expected
        assert tiny.cache_info()["trie_nodes"] <= 64
        assert churn.cache_info()["snapshot_evictions"] > 0

    def test_sequential_env_takes_the_samples_of_the_sequence_paths(
            self, benchmarks):
        """With an engine the sequential env asks for sequences: it takes
        exactly the samples serial ``evaluate`` and the grouped batch take
        for the same queries, and its reward/cycle stream is the one of
        the env without an engine, which applies passes to its own
        module."""
        from repro.rl.env import PhaseOrderEnv

        program = benchmarks["gsm"]
        rng = np.random.default_rng(4)
        episodes = [[int(p) for p in rng.integers(0, NUM_TRANSFORMS, size=5)]
                    for _ in range(6)]
        episodes += episodes[:2]
        envs = {engine: PhaseOrderEnv(
                    [program], toolchain=HLSToolchain(use_engine=engine),
                    episode_length=5, use_terminate=False, seed=0)
                for engine in (True, False)}
        serial, batched = HLSToolchain(), HLSToolchain()
        for episode in episodes:
            streams = {}
            for engine, env in envs.items():
                env.reset(0)
                streams[engine] = [
                    (reward, info["cycles"]) for _, reward, _, info in (
                        env.step(env.action_indices.index(action))
                        for action in episode)]
            assert streams[True] == streams[False]
            steps = [cycles for _, cycles in streams[True]]
            prefixes = [episode[:n] for n in range(len(episode) + 1)]
            assert [serial.engine.evaluate(program, p) for p in prefixes][1:] == steps
            assert batched.engine.evaluate_batch(program, prefixes)[1:] == steps
        with_engine = envs[True].toolchain
        assert envs[True].module is None
        assert with_engine.samples_taken == serial.samples_taken \
            == batched.samples_taken < sum(len(e) for e in episodes)
        for toolchain in (serial, batched):
            assert toolchain.cache_info()["memo_misses"] == \
                with_engine.cache_info()["memo_misses"]
