"""HLSToolchain facade: module cloning fidelity, pass application,
sample accounting."""

import pytest

from repro.interp import run_module
from repro.ir import verify_module
from repro.passes.registry import TERMINATE_INDEX, pass_index_for_name
from repro.toolchain import HLSToolchain, clone_module


class TestCloneModule:
    def test_clone_is_independent(self, benchmarks):
        base = benchmarks["aes"]
        before = base.instruction_count()
        clone = clone_module(base)
        HLSToolchain.apply_passes(clone, ["-mem2reg", "-simplifycfg"])
        assert base.instruction_count() == before
        assert clone.instruction_count() != before

    def test_clone_preserves_behaviour(self, benchmarks):
        for name, base in benchmarks.items():
            clone = clone_module(base)
            verify_module(clone)
            assert (run_module(clone, max_steps=3_000_000).observable()
                    == run_module(base, max_steps=3_000_000).observable()), name

    def test_clone_retargets_internal_calls(self, benchmarks):
        clone = clone_module(benchmarks["qsort"])
        qs = clone.get_function("quicksort")
        for inst in clone.instructions():
            callee = getattr(inst, "callee", None)
            if callee is not None and not isinstance(callee, str):
                assert callee.parent is clone

    def test_clone_preserves_attributes_and_globals(self, benchmarks):
        base = benchmarks["blowfish"]
        base.get_function("bf_f").attributes.add("readnone")
        try:
            clone = clone_module(base)
            assert "readnone" in clone.get_function("bf_f").attributes
            assert clone.globals["bf_s0"].is_constant
            assert clone.globals["bf_s0"] is not base.globals["bf_s0"]
        finally:
            base.get_function("bf_f").attributes.discard("readnone")


class TestToolchain:
    def test_cycle_count_with_passes_does_not_mutate(self, benchmarks, toolchain):
        base = benchmarks["sha"]
        before = base.instruction_count()
        toolchain.cycle_count_with_passes(base, ["-mem2reg"])
        assert base.instruction_count() == before

    def test_terminate_truncates_sequence(self, benchmarks, toolchain):
        with_term = toolchain.cycle_count_with_passes(
            benchmarks["gsm"], [pass_index_for_name("-mem2reg"), TERMINATE_INDEX,
                                pass_index_for_name("-loop-unroll")])
        without = toolchain.cycle_count_with_passes(benchmarks["gsm"], ["-mem2reg"])
        assert with_term == without

    def test_indices_and_names_equivalent(self, benchmarks, toolchain):
        by_name = toolchain.cycle_count_with_passes(benchmarks["gsm"], ["-mem2reg"])
        by_index = toolchain.cycle_count_with_passes(
            benchmarks["gsm"], [pass_index_for_name("-mem2reg")])
        assert by_name == by_index

    def test_reference_reads_sequences_as_the_engine_does(self, benchmarks):
        import numpy as np

        from repro.ir import module_to_str
        from repro.passes.registry import NUM_TRANSFORMS

        reference = HLSToolchain(use_engine=False)
        by_numpy = clone_module(benchmarks["gsm"])
        by_int = clone_module(benchmarks["gsm"])
        assert reference.apply_passes(by_numpy, [np.int64(3)]) == \
            reference.apply_passes(by_int, [3])
        assert module_to_str(by_numpy) == module_to_str(by_int)
        sequence = np.random.default_rng(7).integers(0, NUM_TRANSFORMS,
                                                     size=12)
        assert reference.cycle_count_with_passes(benchmarks["gsm"], sequence) \
            == HLSToolchain().cycle_count_with_passes(benchmarks["gsm"],
                                                      sequence)

    def test_sample_counter(self, benchmarks):
        tc = HLSToolchain()
        tc.cycle_count_with_passes(benchmarks["gsm"], [])
        tc.cycle_count_with_passes(benchmarks["gsm"], ["-mem2reg"])
        assert tc.reset_sample_counter() == 2
        assert tc.samples_taken == 0

    def test_o3_sequence_improves(self, benchmarks, toolchain):
        gains = []
        for name, module in benchmarks.items():
            o0 = toolchain.o0_cycles(module)
            o3 = toolchain.o3_cycles(module)
            gains.append((o0 - o3) / o0)
        # -O3 should deliver a solid average improvement over -O0
        assert sum(gains) / len(gains) > 0.15
