"""Program sources: CWriter frontend, the random generator, the 9 kernels."""

import pytest

from repro.hls import CycleProfiler
from repro.interp import run_module
from repro.ir import Module, verify_module
from repro.ir import types as ty
from repro.programs import BENCHMARK_NAMES, CWriter, build, build_all
from repro.programs.generator import (
    GeneratorConfig,
    RandomProgramGenerator,
    generate_corpus,
    passes_hls_filter,
)


class TestCWriter:
    def test_counted_loop(self):
        m = Module("cw")
        fw = CWriter(m, "main", linkage="external")
        total = fw.local("total", init=0)
        with fw.loop("i", 0, 10) as i:
            fw.store_var(total, fw.b.add(fw.load_var(total), i))
        fw.ret(fw.load_var(total))
        verify_module(m)
        assert run_module(m).return_value == 45

    def test_nested_loops(self):
        m = Module("cw2")
        fw = CWriter(m, "main", linkage="external")
        total = fw.local("total", init=0)
        with fw.loop("i", 0, 4):
            with fw.loop("j", 0, 5):
                fw.store_var(total, fw.b.add(fw.load_var(total), fw.b.const(1)))
        fw.ret(fw.load_var(total))
        assert run_module(m).return_value == 20

    def test_if_else(self):
        m = Module("cw3")
        fw = CWriter(m, "main", ty.i32, [ty.i32], ["n"], linkage="external")
        out = fw.local("out", init=0)
        cond = fw.b.icmp("sgt", fw.args[0], fw.b.const(0))
        fw.if_(cond, lambda: fw.store_var(out, 1), lambda: fw.store_var(out, 2))
        fw.ret(fw.load_var(out))
        verify_module(m)
        assert run_module(m, args=[5]).return_value == 1
        assert run_module(m, args=[-5]).return_value == 2

    def test_switch(self):
        m = Module("cw4")
        fw = CWriter(m, "main", ty.i32, [ty.i32], ["n"], linkage="external")
        out = fw.local("out", init=0)
        fw.switch(fw.args[0],
                  [(1, lambda: fw.store_var(out, 10)),
                   (2, lambda: fw.store_var(out, 20))],
                  lambda: fw.store_var(out, -1))
        fw.ret(fw.load_var(out))
        verify_module(m)
        assert run_module(m, args=[1]).return_value == 10
        assert run_module(m, args=[2]).return_value == 20
        assert run_module(m, args=[9]).return_value == -1

    def test_while_loop(self):
        m = Module("cw5")
        fw = CWriter(m, "main", linkage="external")
        n = fw.local("n", init=100)
        steps = fw.local("steps", init=0)
        with fw.while_loop(lambda: fw.b.icmp("sgt", fw.load_var(n), fw.b.const(1))):
            fw.store_var(n, fw.b.ashr(fw.load_var(n), fw.b.const(1)))
            fw.store_var(steps, fw.b.add(fw.load_var(steps), fw.b.const(1)))
        fw.ret(fw.load_var(steps))
        assert run_module(m).return_value == 6  # log2(100) ≈ 6 halvings

    def test_local_array(self):
        m = Module("cw6")
        fw = CWriter(m, "main", linkage="external")
        arr = fw.local_array("arr", 8)
        with fw.loop("i", 0, 8) as i:
            fw.store_elem(arr, i, fw.b.mul(i, i))
        fw.ret(fw.load_elem(arr, 5))
        assert run_module(m).return_value == 25


class TestRandomGenerator:
    def test_deterministic_per_seed(self):
        """Structure and behaviour are seed-deterministic (auto-generated
        value *names* come from a global counter, so compare semantics,
        not text)."""
        import numpy as np

        from repro.features import extract_features
        from repro.hls import CycleProfiler

        m1 = RandomProgramGenerator(42).generate()
        m2 = RandomProgramGenerator(42).generate()
        assert (extract_features(m1) == extract_features(m2)).all()
        p = CycleProfiler(max_steps=800_000)
        assert p.profile(m1).cycles == p.profile(m2).cycles
        assert run_module(m1, max_steps=800_000).observable() == \
            run_module(m2, max_steps=800_000).observable()

    def test_different_seeds_differ(self):
        from repro.features import extract_features

        m1 = RandomProgramGenerator(1).generate()
        m2 = RandomProgramGenerator(2).generate()
        assert (extract_features(m1) != extract_features(m2)).any()

    def test_generated_programs_verify(self):
        for seed in range(15):
            verify_module(RandomProgramGenerator(seed).generate())

    def test_filter_accepts_majority(self):
        ok = sum(passes_hls_filter(RandomProgramGenerator(s).generate()) for s in range(20))
        assert ok >= 10

    def test_corpus_generation(self):
        corpus = generate_corpus(5, seed=3)
        assert len(corpus) == 5
        for module in corpus:
            assert passes_hls_filter(module)

    def test_feature_diversity(self):
        """Random programs must produce diverse feature vectors — that's
        their entire role as training data."""
        import numpy as np

        from repro.features import extract_features

        corpus = generate_corpus(6, seed=1)
        feats = np.stack([extract_features(m) for m in corpus])
        varying = (feats.std(axis=0) > 0).sum()
        assert varying > 20  # more than 20 of 56 features vary

    # The smoke-scale corpora the paper benches and experiment drivers
    # train and test on: benchmarks/conftest.py's corpus fixture (4, 0),
    # the fig5_fig6 / fig8 / fig9 / generalization training corpus
    # (n_train_programs=6, seed 0) and the fig9 / generalization test
    # corpus (n_test_programs=8, seed 0 + 10_000). A change to the
    # generator, its filter or the IR that moves a program shows here.
    # Digests are program_fingerprint's first 16 hex digits.
    PINNED_CORPORA = {
        (4, 0): ["7048b7ef6620444c", "3515d58adb56bfcc", "4b122fdfe051efcf",
                 "e709a3614e06332d"],
        (6, 0): ["7048b7ef6620444c", "3515d58adb56bfcc", "4b122fdfe051efcf",
                 "e709a3614e06332d", "3f6e4af5af34dfd0", "9dd3d2548c48abb5"],
        (8, 10_000): ["64f94012c02f59cb", "a2039acea369db42", "81581b03e2fc2be5",
                      "3a1edd08339c5a09", "b128689a79613c31", "78235794ba5b7236",
                      "f90033093561e869", "c259d39c0c506a4d"],
    }

    @pytest.mark.parametrize("size,seed", sorted(PINNED_CORPORA))
    def test_smoke_corpora_are_pinned(self, size, seed):
        from repro.service.fingerprint import program_fingerprint

        corpus = generate_corpus(size, seed=seed)
        assert [program_fingerprint(m)[:16] for m in corpus] == \
            self.PINNED_CORPORA[size, seed]

    def test_config_respected(self):
        cfg = GeneratorConfig(max_stmts=4, max_depth=1, n_helpers=1, n_globals=1)
        small = RandomProgramGenerator(5, cfg).generate()
        big = RandomProgramGenerator(5).generate()
        assert small.instruction_count() < big.instruction_count()


class TestCHStoneKernels:
    def test_all_nine_present(self):
        assert len(BENCHMARK_NAMES) == 9
        mods = build_all()
        assert set(mods) == set(BENCHMARK_NAMES)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_kernel_verifies_and_terminates(self, name):
        m = build(name)
        verify_module(m)
        res = run_module(m, max_steps=3_000_000)
        assert isinstance(res.return_value, int)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_kernel_profiles(self, name):
        report = CycleProfiler(max_steps=3_000_000).profile(build(name))
        assert report.cycles > 100  # nontrivial workloads

    def test_fresh_instance_per_build(self):
        a, b = build("matmul"), build("matmul")
        assert a is not b
        # mutating one must not affect the other
        from repro.passes import PassManager

        PassManager().run(a, ["-mem2reg"])
        assert b.instruction_count() != a.instruction_count()

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build("fft")

    def test_structural_diversity(self):
        """Each kernel must exercise a distinct structure (recursion in
        qsort, deep nest in matmul, calls in blowfish, ...)."""
        from repro.analysis import CallGraph, LoopInfo

        mods = build_all()
        assert CallGraph(mods["qsort"]).is_self_recursive(
            mods["qsort"].get_function("quicksort"))
        matmul_info = LoopInfo(mods["matmul"].get_function("main"))
        assert max(l.depth for l in matmul_info.loops) >= 3
        assert mods["blowfish"].get_function("bf_f") is not None
        sha_f = mods["sha"].get_function("main")
        bitops = sum(1 for i in sha_f.instructions()
                     if i.opcode in ("shl", "lshr", "or", "xor", "and"))
        assert bitops > 15  # rotate/xor-heavy round structure
