"""Compiled simulation kernels: edge-op parity with the reference
interpreter, batched-scheduler parity, verify mode, kernel-cache
lifecycle, and step-budget failures through the engine/service stack."""

import pytest

from repro.engine.memo import FAILED, FAILED_BUDGET
from repro.hls.profiler import (
    CycleProfiler,
    HLSCompilationError,
    StepBudgetError,
    sim_kernels_mode,
)
from repro.interp import (
    Interpreter,
    KernelInterpreter,
    StepBudgetExceeded,
    TrapError,
    VerificationError,
    clear_kernel_cache,
    clear_plan_cache,
    kernel_cache_info,
    run_verified,
)
from repro.ir import Function, GlobalVariable, IRBuilder, Module
from repro.ir import types as ty
from repro.toolchain import HLSToolchain, clone_module
from tests.conftest import build_counted_loop_module


def _fingerprint(res):
    return (res.observable(), res.steps,
            sorted((bb.parent.name + ":" + bb.name, c)
                   for bb, c in res.block_counts.items()),
            dict(res.call_counts), list(res.output))


def run_both(module, entry="main", max_steps=1_000_000):
    """(reference outcome, kernel outcome): a result fingerprint on
    success, ``(exception type name, message)`` on failure."""
    outcomes = []
    for cls in (Interpreter, KernelInterpreter):
        try:
            outcomes.append(_fingerprint(
                cls(module, max_steps=max_steps).run(entry)))
        except Exception as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    return outcomes


def assert_parity(module, entry="main", max_steps=1_000_000):
    ref, kern = run_both(module, entry, max_steps)
    assert ref == kern, f"kernel diverged:\nref  = {ref}\nkern = {kern}"
    return ref


def _main_module(name="m"):
    m = Module(name)
    f = m.add_function(Function("main", ty.function_type(ty.i32, []),
                                linkage="external"))
    return m, f


class TestEdgeOpParity:
    def test_switch_cases_and_default(self):
        for selector in (0, 3, 7, 99):
            m, f = _main_module()
            entry = f.add_block("entry")
            b1, b2, dflt = (f.add_block(n) for n in ("c1", "c2", "dflt"))
            b = IRBuilder(entry)
            sw = b.switch(b.const(selector), dflt)
            sw.add_case(b.const(3), b1)
            sw.add_case(b.const(7), b2)
            for blk, val in ((b1, 10), (b2, 20), (dflt, 30)):
                b.position_at_end(blk)
                b.ret(b.const(val))
            assert_parity(m)

    def test_switch_duplicate_case_first_match_wins(self):
        m, f = _main_module()
        entry = f.add_block("entry")
        first, second = f.add_block("first"), f.add_block("second")
        b = IRBuilder(entry)
        sw = b.switch(b.const(5), second)
        sw.add_case(b.const(5), first)
        sw.add_case(b.const(5), second)  # dead: linear scan stops at first
        b.position_at_end(first)
        b.ret(b.const(1))
        b.position_at_end(second)
        b.ret(b.const(2))
        ref = assert_parity(m)
        assert ref[0][0] == 1  # observable return value

    def test_invoke_lands_in_normal_dest(self):
        m, f = _main_module()
        callee = m.add_function(Function("callee",
                                         ty.function_type(ty.i32, [ty.i32])))
        cb = IRBuilder(callee.add_block("entry"))
        cb.ret(cb.add(callee.args[0], cb.const(5)))
        entry = f.add_block("entry")
        normal, unwind = f.add_block("normal"), f.add_block("unwind")
        b = IRBuilder(entry)
        r = b.invoke(callee, [b.const(37)], ty.i32, normal, unwind)
        b.position_at_end(normal)
        b.ret(r)
        b.position_at_end(unwind)
        b.ret(b.const(-1))
        ref = assert_parity(m)
        assert ref[0][0] == 42
        assert ref[3]["callee"] == 1  # defined callee counted once

    def test_externals_output_and_counts(self):
        m, f = _main_module()
        b = IRBuilder(f.add_block("entry"))
        b.call("putchar", [b.const(65)], return_type=ty.i32)
        b.call("putchar", [b.const(66)], return_type=ty.i32)
        s = b.call("sqrt", [b.fconst(9.0)], return_type=ty.f64)
        b.ret(b.fptosi(s))
        ref = assert_parity(m)
        assert ref[3]["putchar"] == 2 and ref[3]["sqrt"] == 1
        assert ref[4] == [65, 66]  # observable output stream

    def test_external_linkage_global_digested(self):
        m, f = _main_module()
        m.add_global(GlobalVariable("table", ty.array_type(ty.i32, 4),
                                    initializer=[1, 2, 3, 4],
                                    linkage="external"))
        m2 = clone_module(m)
        for mod, newval in ((m, 99), (m2, 77)):
            g = mod.globals["table"]
            fn = mod.functions["main"]
            b = IRBuilder(fn.add_block("entry"))
            p = b.gep(g, [0, 2])
            b.store(b.const(newval), p)
            b.ret(b.load(p))
        ref = assert_parity(m)
        other = assert_parity(m2)
        # the digest must see the mutation: different stores, different
        # observables under BOTH backends
        assert ref[0] != other[0]

    def test_lazy_select_skips_untaken_trapping_arm(self):
        # select must evaluate only the taken arm: the untaken one loads
        # through a freed pointer and would trap if evaluated eagerly
        m, f = _main_module()
        b = IRBuilder(f.add_block("entry"))
        good = b.alloca(ty.i32)
        b.store(b.const(11), good)
        v = b.select(b.const(1, ty.i1), b.load(good), b.load(good))
        b.ret(v)
        ref = assert_parity(m)
        assert ref[0][0] == 11

    def test_trap_parity_out_of_bounds_and_freed(self):
        # out-of-bounds offset (positive and negative) through load/store
        for offset in (4, -1):
            m, f = _main_module()
            b = IRBuilder(f.add_block("entry"))
            arr = b.alloca(ty.array_type(ty.i32, 4))
            p = b.gep(arr, [offset])
            b.ret(b.load(p))
            ref, kern = run_both(m)
            assert ref == kern
            assert ref[0] == "TrapError"

    def test_trap_parity_store_oob(self):
        m, f = _main_module()
        b = IRBuilder(f.add_block("entry"))
        arr = b.alloca(ty.array_type(ty.i32, 2))
        b.store(b.const(1), b.gep(arr, [5]))
        b.ret(b.const(0))
        ref, kern = run_both(m)
        assert ref == kern and ref[0] == "TrapError"

    def test_step_budget_exhaustion_parity(self):
        m = build_counted_loop_module(trip=1000)
        # sweep budgets across segment boundaries so both the fast
        # pre-added path and the near-budget slow path are exercised
        for budget in (1, 7, 50, 51, 52, 53, 200):
            ref, kern = run_both(m, max_steps=budget)
            assert ref == kern, f"budget {budget}: {ref} != {kern}"
            assert ref[0] == "StepBudgetExceeded"

    def test_kernel_interpreter_missing_entry(self):
        m, _f = _main_module()
        b = IRBuilder(m.functions["main"].add_block("entry"))
        b.ret(b.const(0))
        with pytest.raises(TrapError):
            KernelInterpreter(m).run("nope")


class TestPassSweepParity:
    def test_parity_after_every_registry_pass(self, benchmarks):
        from repro.passes.registry import PASS_TABLE, create_pass

        for name in ("qsort", "gsm"):
            base = benchmarks[name]
            assert_parity(base)
            for pass_name in PASS_TABLE:
                module = clone_module(base)
                try:
                    create_pass(pass_name).run(module)
                except Exception:
                    continue
                ref, kern = run_both(module)
                assert ref == kern, f"{name} after {pass_name}"


class TestVerifyMode:
    def test_mode_resolution(self, monkeypatch):
        assert sim_kernels_mode("off") == "off"
        assert sim_kernels_mode("VERIFY") == "verify"
        monkeypatch.setenv("REPRO_SIM_KERNELS", "off")
        assert sim_kernels_mode() == "off"
        monkeypatch.delenv("REPRO_SIM_KERNELS")
        assert sim_kernels_mode() == "on"
        with pytest.raises(ValueError):
            sim_kernels_mode("fast")

    def test_profiles_identical_across_modes(self, benchmarks):
        for name, module in benchmarks.items():
            reports = {mode: CycleProfiler(sim_kernels=mode).profile(module)
                       for mode in ("off", "on", "verify")}
            base = reports["off"]
            for mode in ("on", "verify"):
                r, where = reports[mode], (name, mode)
                assert r.cycles == base.cycles, where
                assert r.states_by_block == base.states_by_block, where
                assert r.visits_by_block == base.visits_by_block, where
                assert r.execution.observable() == \
                    base.execution.observable(), where

    def test_run_verified_passes_on_agreement(self, benchmarks):
        res = run_verified(benchmarks["matmul"])
        assert res.observable() == Interpreter(benchmarks["matmul"]).run().observable()

    def test_scheduler_divergence_raises_verification_error(
            self, benchmarks, monkeypatch):
        from repro.hls import profiler as profiler_mod

        monkeypatch.setattr(profiler_mod, "function_state_counts_flat",
                            lambda func, constraints=None, library=None:
                            [0] * len(func.blocks))
        profiler = CycleProfiler(sim_kernels="verify", schedule_cache_size=0)
        # a kernel bug must surface loudly, never as an HLS failure
        with pytest.raises(VerificationError):
            profiler.profile(benchmarks["matmul"])


class TestKernelCacheLifecycle:
    def test_cache_hits_across_profiler_instances(self, benchmarks):
        clear_kernel_cache()
        module = benchmarks["adpcm"]
        CycleProfiler(sim_kernels="on").profile(module)
        after_first = kernel_cache_info()
        assert after_first["kernel_misses"] > 0
        CycleProfiler(sim_kernels="on").profile(module)
        after_second = kernel_cache_info()
        assert after_second["kernel_misses"] == after_first["kernel_misses"]
        assert after_second["kernel_hits"] > after_first["kernel_hits"]

    def test_engine_cache_info_and_clear(self, benchmarks):
        tc = HLSToolchain()
        tc.engine.evaluate(benchmarks["adpcm"], [])
        info = tc.engine.cache_info()
        for key in ("kernel_entries", "kernel_hits", "kernel_misses",
                    "plan_entries"):
            assert key in info
        tc.engine.clear()
        cleared = tc.engine.cache_info()
        assert cleared["kernel_entries"] == 0
        assert cleared["plan_entries"] == 0

    def test_kernel_stats_not_summed_across_toolchains(self):
        assert "kernel_entries" in HLSToolchain._NON_ADDITIVE_KEYS
        assert "plan_entries" in HLSToolchain._NON_ADDITIVE_KEYS


class TestBudgetFailures:
    def _trap_module(self):
        m, f = _main_module("trapper")
        b = IRBuilder(f.add_block("entry"))
        arr = b.alloca(ty.array_type(ty.i32, 2))
        b.ret(b.load(b.gep(arr, [9])))
        return m

    def test_engine_memoizes_budget_separately(self, benchmarks):
        tc = HLSToolchain(max_steps=50)
        with pytest.raises(StepBudgetError):
            tc.engine.evaluate(benchmarks["qsort"], [])
        # warm: re-raised from the memo, still the budget-specific type
        with pytest.raises(StepBudgetError, match="step budget"):
            tc.engine.evaluate(benchmarks["qsort"], [])
        info = tc.engine.cache_info()
        assert info["budget_failures_memoized"] == 1
        assert info["failures_memoized"] == 0
        assert isinstance(tc.engine.memoized_failure(benchmarks["qsort"], []),
                          StepBudgetError)

    def test_engine_genuine_failure_stays_hls(self):
        tc = HLSToolchain()
        module = self._trap_module()
        with pytest.raises(HLSCompilationError) as exc_info:
            tc.engine.evaluate(module, [])
        assert not isinstance(exc_info.value, StepBudgetError)
        info = tc.engine.cache_info()
        assert info["failures_memoized"] == 1
        assert info["budget_failures_memoized"] == 0

    def test_store_records_budget_flag(self, benchmarks, tmp_path):
        tc = HLSToolchain(max_steps=50, backend="service",
                          service_config={"workers": 0,
                                          "store_dir": str(tmp_path)})
        with pytest.raises(StepBudgetError):
            tc.engine.evaluate(benchmarks["qsort"], [])
        stats = tc.engine.store.stats()
        assert stats["budget_failed_results"] == 1
        assert stats["failed_results"] == 0
        # a fresh client re-reads the shard as a budget failure
        tc2 = HLSToolchain(max_steps=50, backend="service",
                           service_config={"workers": 0,
                                           "store_dir": str(tmp_path)})
        with pytest.raises(StepBudgetError, match="memoized"):
            tc2.engine.evaluate(benchmarks["qsort"], [])
        tc.close()
        tc2.close()

    @staticmethod
    def _shard(tmp_path, **toolchain_kwargs):
        from repro.service import ResultStore, toolchain_fingerprint
        from repro.service.worker import Shard

        tc = HLSToolchain(**toolchain_kwargs)
        return Shard(tc.engine, ResultStore(str(tmp_path)),
                     toolchain_fingerprint(tc))

    def test_worker_payload_carries_budget_flag(self, benchmarks, tmp_path):
        from repro.service.fingerprint import program_fingerprint

        shard = self._shard(tmp_path, max_steps=50)
        program = benchmarks["qsort"]
        shard.register(1, program_fingerprint(program), program)
        tag, feat, is_budget = shard.evaluate_one(1, ([], "cycles", 0.05,
                                                      "main", False))
        assert tag == "failed" and is_budget is True
        # a repeat answers from the engine memo with the same shape
        tag, feat, is_budget = shard.evaluate_one(1, ([], "cycles", 0.05,
                                                      "main", False))
        assert tag == "failed" and is_budget is True
        assert shard.store.stats()["budget_failed_results"] >= 1

    def test_worker_payload_genuine_failure(self, tmp_path):
        from repro.service.fingerprint import program_fingerprint

        module = self._trap_module()
        shard = self._shard(tmp_path)
        shard.register(1, program_fingerprint(module), module)
        tag, feat, is_budget = shard.evaluate_one(1, ([], "cycles", 0.05,
                                                      "main", False))
        assert tag == "failed" and is_budget is False

    def test_batch_rows_none_but_sentinels_distinct(self, benchmarks, tmp_path):
        tc = HLSToolchain(max_steps=50, backend="service",
                          service_config={"workers": 0,
                                          "store_dir": str(tmp_path)})
        rows = tc.engine.evaluate_batch(benchmarks["qsort"], [[], [1]])
        assert rows == [None, None]
        prog = tc.engine._ensure_program(benchmarks["qsort"])
        assert all(v is FAILED_BUDGET for v in prog.persisted.values())
        assert FAILED is not FAILED_BUDGET
        tc.close()


class TestPlanAndKernelCachesCleared:
    def test_clear_functions_reset_counters(self, benchmarks):
        CycleProfiler(sim_kernels="on").profile(benchmarks["mpeg2"])
        assert kernel_cache_info()["kernel_entries"] > 0
        clear_kernel_cache()
        clear_plan_cache()
        info = kernel_cache_info()
        assert info["kernel_entries"] == 0
        assert info["kernel_hits"] == 0 and info["kernel_misses"] == 0
