"""The 56 Table-2 features, validated on hand-crafted IR."""

import numpy as np
import pytest

from repro.features import FEATURE_NAMES, NUM_FEATURES, extract_features
from repro.ir import Function, IRBuilder, Module
from repro.ir import types as ty
from tests.conftest import build_counted_loop_module


class TestShape:
    def test_vector_shape_and_dtype(self, benchmarks):
        f = extract_features(benchmarks["aes"])
        assert f.shape == (NUM_FEATURES,)
        assert f.dtype == np.int64
        assert (f >= 0).all()

    def test_table_has_56_names(self):
        assert len(FEATURE_NAMES) == 56


class TestCountsOnLoopModule:
    @pytest.fixture()
    def feats(self):
        return extract_features(build_counted_loop_module())

    def test_block_count(self, feats):
        assert feats[50] == 4

    def test_instruction_count(self, feats):
        m = build_counted_loop_module()
        assert feats[51] == m.instruction_count()

    def test_opcode_counts(self, feats):
        assert feats[27] == 2   # allocas: s, i
        assert feats[37] == 4   # loads: iv, sv, iv2, rv
        assert feats[45] == 4   # stores: 2 init + 2 in body
        assert feats[26] == 2   # adds
        assert feats[38] == 1   # mul
        assert feats[35] == 1   # icmp
        assert feats[41] == 1   # ret
        assert feats[32] == 3   # br: entry->cond, cond cbr, body->cond

    def test_branch_classification(self, feats):
        assert feats[15] == 1   # one conditional branch
        assert feats[23] == 2   # two unconditional

    def test_edges(self, feats):
        assert feats[18] == 4

    def test_memory_instructions(self, feats):
        assert feats[52] == feats[37] + feats[45] + feats[27]

    def test_constant_occurrences(self, feats):
        # constants 0 appear in the two init stores; constant 1 in the increment
        assert feats[21] >= 2
        assert feats[22] >= 1
        assert feats[19] >= 4   # several i32 immediates

    def test_binary_ops_with_constant_operand(self, feats):
        assert feats[24] == 2   # mul iv,3 and add iv,1 (add sv,t has no const)

    def test_functions(self, feats):
        assert feats[53] == 1


class TestPhiFeatures:
    def test_phi_counts_after_mem2reg(self):
        from repro.passes import PassManager

        m = build_counted_loop_module()
        PassManager().run(m, ["-mem2reg"])
        f = extract_features(m)
        assert f[40] == 2           # phis for s and i in the loop header
        assert f[14] == 2
        assert f[54] == 4           # each phi has 2 incoming edges
        assert f[11] == 1           # one block with 1-3 phis
        assert f[13] == f[50] - 1   # all other blocks have none

    def test_cast_and_unary_features(self):
        m = Module("casts")
        fn = m.add_function(Function("main", ty.function_type(ty.i32, []), linkage="external"))
        b = IRBuilder(fn.add_block("entry"))
        v8 = b.trunc(b.const(300), ty.i8, "t")
        v32 = b.sext(v8, ty.i32, "s")
        vz = b.zext(v8, ty.i32, "z")
        b.ret(b.add(v32, vz))
        f = extract_features(m)
        assert f[47] == 1 and f[42] == 1 and f[49] == 1
        assert f[55] == 3  # three unary (cast) operations

    def test_critical_edges_feature(self):
        m = Module("crit")
        fn = m.add_function(Function("main", ty.function_type(ty.i32, [ty.i32])))
        entry, a, merge = fn.add_block("entry"), fn.add_block("a"), fn.add_block("m")
        b = IRBuilder(entry)
        b.cbr(b.icmp("eq", fn.args[0], b.const(0)), a, merge)
        IRBuilder(a).br(merge)
        IRBuilder(merge).ret(IRBuilder(merge).const(0))
        f = extract_features(m)
        assert f[17] == 1

    def test_calls_returning_int(self, benchmarks):
        f = extract_features(benchmarks["blowfish"])
        assert f[16] >= 1  # bf_f returns i32
        assert f[33] >= 1


class TestFeatureReactivity:
    """Features must move when passes change the program — the learning
    signal the paper's agent depends on."""

    def test_mem2reg_shifts_features(self):
        from repro.passes import PassManager

        m = build_counted_loop_module()
        before = extract_features(m)
        PassManager().run(m, ["-mem2reg"])
        after = extract_features(m)
        assert after[37] < before[37]  # loads gone
        assert after[45] < before[45]  # stores gone
        assert after[40] > before[40]  # phis appeared

    def test_extractor_cache_respects_version(self):
        from repro.features import FeatureExtractor
        from repro.passes import PassManager

        m = build_counted_loop_module()
        fx = FeatureExtractor()
        v0 = fx(m, version=0)
        PassManager().run(m, ["-mem2reg"])
        v0_again = fx(m, version=0)   # cached: same as before
        v1 = fx(m, version=1)         # recomputed
        assert (v0 == v0_again).all()
        assert (v0 != v1).any()

    def test_negative_version_bypasses_module_memo(self):
        """The legacy version<0 contract: always a fresh walk, never a
        stale memoized vector."""
        from repro.features import FeatureExtractor
        from repro.passes import PassManager

        m = build_counted_loop_module()
        fx = FeatureExtractor()
        before = fx(m, version=-1)
        PassManager().run(m, ["-mem2reg"])
        after = fx(m, version=-1)
        assert (after != before).any()
        assert (after == extract_features(m)).all()


class TestIncrementalExtraction:
    """Tentpole guard: composed-from-cached-functions extraction must be
    bit-identical to the reference full-module walk, for every pass in
    the registry over random generator programs (the feature analogue of
    the engine's cached-vs-uncached property)."""

    def test_every_registry_pass_preserves_composition(self):
        from repro.features import FeatureExtractor
        from repro.passes import PassManager
        from repro.passes.registry import PASS_TABLE, TERMINATE_INDEX
        from repro.programs.generator import generate_corpus

        fx = FeatureExtractor()
        for module in generate_corpus(2, seed=7):
            assert (fx(module) == extract_features(module)).all()
            for p, name in enumerate(PASS_TABLE):
                if p == TERMINATE_INDEX:
                    continue
                PassManager().run(module, [name])
                incremental = fx(module)
                reference = extract_features(module)
                assert (incremental == reference).all(), \
                    f"incremental extraction diverged after {name}"
        info = fx.cache_info()
        # unchanged functions must actually hit the per-function cache
        assert info["feature_function_hits"] > info["feature_function_misses"]

    def test_clones_share_function_cache(self):
        from repro.features import FeatureExtractor
        from repro.ir.cloning import clone_module

        m = build_counted_loop_module()
        fx = FeatureExtractor()
        fx(m)
        misses = fx.cache_info()["feature_function_misses"]
        clone = clone_module(m)
        assert (fx(clone) == extract_features(m)).all()
        assert fx.cache_info()["feature_function_misses"] == misses


class TestFrontDoor:
    """Satellite: one cached extraction entry point, keyed by
    (module identity, Module.version)."""

    def test_features_for_memoizes_per_version(self):
        from repro.features import features_for
        from repro.passes import PassManager

        m = build_counted_loop_module()
        first = features_for(m)
        assert first is features_for(m)  # same version: the same array
        assert not first.flags.writeable
        PassManager().run(m, ["-mem2reg"])  # bumps Module.version
        after = features_for(m)
        assert (after != first).any()
        assert (after == extract_features(m)).all()

    def test_env_observation_routes_through_front_door(self, benchmarks):
        from repro.features import shared_extractor
        from repro.rl.env import PhaseOrderEnv

        env = PhaseOrderEnv([benchmarks["gsm"]], observation="features",
                            episode_length=3, seed=0)
        env.reset(0)
        hits_before = shared_extractor().cache_info()["feature_module_hits"]
        env._observe()
        env._observe()
        assert shared_extractor().cache_info()["feature_module_hits"] \
            >= hits_before + 2


class TestEngineFeatureQueries:
    """Features as a first-class cached product of the evaluation stack."""

    def test_features_after_matches_fresh_materialization(self, benchmarks):
        from repro.toolchain import HLSToolchain

        tc = HLSToolchain()
        program = benchmarks["adpcm"]
        rng = np.random.default_rng(3)
        for _ in range(4):
            seq = [int(a) for a in rng.integers(0, 45, size=int(rng.integers(1, 6)))]
            feats = tc.engine.features_after(program, seq)
            fresh = extract_features(tc.engine.materialize(program, seq))
            assert feats.dtype == np.int64
            assert (feats == fresh).all()

    def test_evaluate_with_features_memoizes_both(self, benchmarks):
        from repro.toolchain import HLSToolchain

        tc = HLSToolchain()
        program = benchmarks["gsm"]
        value, feats = tc.engine.evaluate_with_features(program, [38, 31])
        samples = tc.samples_taken
        value2, feats2 = tc.engine.evaluate_with_features(program, [38, 31])
        assert value2 == value and (feats2 == feats).all()
        assert tc.samples_taken == samples  # warm: no simulator work
        assert tc.engine.cache_info()["feature_hits"] >= 1

    def test_batch_want_features_rows(self, benchmarks):
        from repro.toolchain import HLSToolchain

        tc = HLSToolchain()
        program = benchmarks["blowfish"]
        seqs = [[38], [38, 31], [38]]
        rows = tc.engine.evaluate_batch(program, seqs, want_features=True)
        plain = tc.engine.evaluate_batch(program, seqs)
        for (value, feats), expected, seq in zip(rows, plain, seqs):
            assert value == expected
            assert (feats == extract_features(
                tc.engine.materialize(program, seq))).all()

    def test_features_never_cost_samples(self, benchmarks):
        from repro.toolchain import HLSToolchain

        tc = HLSToolchain()
        program = benchmarks["qsort"]
        before = tc.samples_taken
        tc.features_after(program, [12, 3, 38])
        assert tc.samples_taken == before


class TestVectorizedFeaturePath:
    """The sequence-space feature observation: no per-lane module, same
    observations — and the same simulator samples — as the sequential
    environment, which carries an incrementally optimized module."""

    def test_lanes1_observations_match_sequential(self, benchmarks):
        from repro.rl.env import PhaseOrderEnv
        from repro.rl.vec_env import _Lane, make_vector_env
        from repro.toolchain import HLSToolchain

        assert "module" not in _Lane.__slots__  # truly module-free
        kwargs = dict(observation="both", episode_length=4,
                      normalization="instcount", seed=2)
        seq_env = PhaseOrderEnv([benchmarks["gsm"]],
                                toolchain=HLSToolchain(), **kwargs)
        vec = make_vector_env(
            PhaseOrderEnv([benchmarks["gsm"]], toolchain=HLSToolchain(),
                          **kwargs), 1)
        obs_a = seq_env.reset(0)
        obs_b = vec.reset_lane(0, 0)
        assert (obs_a == obs_b).all()
        rng = np.random.default_rng(0)
        for _ in range(3):
            action = int(rng.integers(seq_env.num_actions))
            obs_a, reward_a, done_a, info_a = seq_env.step(action)
            (obs_b, reward_b, done_b, info_b), = vec.step_lanes([0], [action])
            assert (obs_a == obs_b).all()
            assert reward_a == reward_b and done_a == done_b
            assert info_a["cycles"] == info_b["cycles"]
        assert seq_env.toolchain.samples_taken == vec.toolchain.samples_taken

    def test_multiaction_lanes1_observations_match_sequential(self, benchmarks):
        from repro.rl.env import MultiActionEnv
        from repro.rl.vec_env import make_vector_env
        from repro.toolchain import HLSToolchain

        kwargs = dict(sequence_length=6, episode_length=3,
                      observation="both", seed=5)
        seq_env = MultiActionEnv([benchmarks["gsm"]],
                                 toolchain=HLSToolchain(), **kwargs)
        vec = make_vector_env(
            MultiActionEnv([benchmarks["gsm"]], toolchain=HLSToolchain(),
                           **kwargs), 1)
        obs_a = seq_env.reset(0)
        obs_b = vec.reset_wave({0: 0})[0]
        assert (obs_a == obs_b).all()
        rng = np.random.default_rng(1)
        for _ in range(2):
            action = rng.integers(0, 3, size=6)
            obs_a, reward_a, done_a, _ = seq_env.step(action)
            (obs_b, reward_b, done_b, _), = vec.step_lanes([0], action[None, :])
            assert (obs_a == obs_b).all()
            assert reward_a == reward_b and done_a == done_b
        assert seq_env.toolchain.samples_taken == vec.toolchain.samples_taken
