"""Typed-SIMD column tier: emitter bit-identity against ir.folding,
plan compilation coverage, lock-step parity with the scalar batched
path, verify-mode teeth, guard fallbacks, and the exec_signature memo."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro.hls.hashing import structural_key
from repro.hls.profiler import CycleProfiler
from repro.interp.batch_exec import (
    BatchedKernelExecutor,
    batch_exec_info,
    clear_batch_exec_stats,
    exec_signature,
)
from repro.interp import simd
from repro.interp.kernels import (
    KernelInterpreter,
    VerificationError,
    clear_kernel_cache,
    compiled_for,
)
from repro.interp.simd import (
    ColumnPlan,
    column_binop_fn,
    column_cast_fn,
    column_icmp_fn,
    sim_simd_mode,
)
from repro.interp.state import StepBudgetExceeded
from repro.ir import Function, GlobalVariable, IRBuilder, Module
from repro.ir import types as ty
from repro.ir.folding import eval_cast, eval_icmp, eval_int_binop
from repro.service.fingerprint import toolchain_fingerprint
from repro.toolchain import HLSToolchain, clone_module

from test_batch_exec import (
    build_global_loop_module,
    report_fingerprint,
    solo_outcome,
)

INT_BINOPS = ["add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
              "and", "or", "xor", "shl", "lshr", "ashr"]
ICMP_PREDS = ["eq", "ne", "slt", "sle", "sgt", "sge",
              "ult", "ule", "ugt", "uge"]
WIDTHS = [1, 2, 7, 8, 16, 31, 32, 33, 63, 64]


def boundary_probes(bits: int):
    """The canonical forms of the width's boundary values: 0, ±1, ±2,
    ±2^(N-1), 2^(N-1)−1, 2^N−1 — every two's-complement edge."""
    t = ty.int_type(bits)
    raw = {0, 1, 2, -1, -2, 3,
           1 << (bits - 1), -(1 << (bits - 1)),
           (1 << (bits - 1)) - 1, (1 << bits) - 1}
    return sorted({t.wrap(v) for v in raw})


def build_int_kernel(seed: int, trip: int) -> Module:
    """Loads confined to the entry block; the loop body is one straight
    pure-integer segment (mul/add/ashr/xor/trunc/sext/icmp/select/sub/
    urem chain), so the typed tier vectorizes it end to end. Distinct
    seeds give distinct execution signatures under one structural key."""
    m = Module("intk")
    seed_gv = GlobalVariable("seed", ty.i64, seed)
    trip_gv = GlobalVariable("trip", ty.i64, trip)
    for gv in (seed_gv, trip_gv):
        m.add_global(gv)
    f = m.add_function(Function("main", ty.function_type(ty.i64, []),
                                linkage="external"))
    entry, header, body, exit_ = (f.add_block(n)
                                  for n in ("entry", "header", "body", "exit"))
    b = IRBuilder(entry)
    s0 = b.load(seed_gv, "s0")
    limit = b.load(trip_gv, "limit")
    b.br(header)
    bh = IRBuilder(header)
    iv = bh.phi(ty.i64, "i")
    acc = bh.phi(ty.i64, "acc")
    iv.add_incoming(b.const(0, ty.i64), entry)
    acc.add_incoming(s0, entry)
    bh.cbr(bh.icmp("slt", iv, limit, "cmp"), body, exit_)
    bb = IRBuilder(body)
    x = acc
    for k in range(4):
        x = bb.mul(x, bb.const(6364136223846793005, ty.i64), f"m{k}")
        x = bb.add(x, bb.const(1442695040888963407, ty.i64), f"a{k}")
        x = bb.xor(x, bb.ashr(x, bb.const(17, ty.i64), f"sh{k}"), f"x{k}")
        w = bb.sext(bb.trunc(x, ty.i32, f"t{k}"), ty.i64, f"w{k}")
        neg = bb.icmp("slt", w, bb.const(0, ty.i64), f"n{k}")
        x = bb.select(neg, bb.sub(x, w, f"s{k}"),
                      bb.add(x, bb.const(k + 1, ty.i64), f"p{k}"), f"sel{k}")
        x = bb.urem(x, bb.const((1 << 61) - 1, ty.i64), f"r{k}")
    iv2 = bb.add(iv, bb.const(1, ty.i64), "iv2")
    iv.add_incoming(iv2, body)
    acc.add_incoming(x, body)
    bb.br(header)
    IRBuilder(exit_).ret(acc)
    return m


def entry_compiled(module: Module):
    func = module.get_function("main")
    return compiled_for(func, structural_key(func, {}))


class TestColumnEmitters:
    """Satellite: every integer binop/icmp/cast, widths i1..i64, at the
    two's-complement boundary values — bit-identical to ir.folding."""

    @pytest.mark.parametrize("opcode", INT_BINOPS)
    def test_binop_columns_match_folding(self, opcode):
        for bits in WIDTHS:
            t = ty.int_type(bits)
            vals = boundary_probes(bits)
            pairs = list(itertools.product(vals, vals))
            a = np.array([p[0] for p in pairs], dtype=np.int64)
            b = np.array([p[1] for p in pairs], dtype=np.int64)
            fn = column_binop_fn(opcode, bits)
            got = np.asarray(fn(a, b)).tolist()
            want = [eval_int_binop(opcode, t, x, y) for x, y in pairs]
            assert got == want, f"{opcode} i{bits}"
            # const-operand forms (plans bake folded constants in)
            for c in vals[:2] + vals[-2:]:
                got_b = np.asarray(fn(a[: len(vals)], c)).tolist()
                assert got_b == [eval_int_binop(opcode, t, int(x), c)
                                 for x in a[: len(vals)]], \
                    f"{opcode} i{bits} const-rhs {c}"
                got_a = np.asarray(fn(c, b[: len(vals)])).tolist()
                assert got_a == [eval_int_binop(opcode, t, c, int(y))
                                 for y in b[: len(vals)]], \
                    f"{opcode} i{bits} const-lhs {c}"

    @pytest.mark.parametrize("pred", ICMP_PREDS)
    def test_icmp_columns_match_folding(self, pred):
        for bits in WIDTHS:
            t = ty.int_type(bits)
            vals = boundary_probes(bits)
            pairs = list(itertools.product(vals, vals))
            a = np.array([p[0] for p in pairs], dtype=np.int64)
            b = np.array([p[1] for p in pairs], dtype=np.int64)
            got = np.asarray(column_icmp_fn(pred, bits)(a, b)).tolist()
            want = [int(eval_icmp(pred, t, x, y)) for x, y in pairs]
            assert got == want, f"{pred} i{bits}"

    @pytest.mark.parametrize("opcode", ["trunc", "sext", "zext", "bitcast"])
    def test_cast_columns_match_folding(self, opcode):
        for sb, db in itertools.product(WIDTHS, WIDTHS):
            if opcode == "bitcast" and sb != db:
                continue
            st, dt = ty.int_type(sb), ty.int_type(db)
            vals = np.array(boundary_probes(sb), dtype=np.int64)
            got = np.asarray(column_cast_fn(opcode, sb, db)(vals)).tolist()
            want = [eval_cast(opcode, st, dt, int(v)) for v in vals.tolist()]
            assert got == want, f"{opcode} i{sb}->i{db}"


class TestMode:
    def test_mode_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_SIMD", raising=False)
        assert sim_simd_mode() == "on"
        monkeypatch.setenv("REPRO_SIM_SIMD", "verify")
        assert sim_simd_mode() == "verify"
        assert sim_simd_mode("off") == "off"  # explicit override beats env
        with pytest.raises(ValueError, match="REPRO_SIM_SIMD"):
            sim_simd_mode("sometimes")

    def test_simd_stays_out_of_fingerprints(self):
        fps = {toolchain_fingerprint(HLSToolchain(sim_simd=mode))
               for mode in ("off", "on", "verify")}
        assert len(fps) == 1


def build_cross_block_kernel(seed: int, trip: int) -> Module:
    """A vectorized segment (``pre``) whose def feeds another block's
    vectorized segment *directly* (dominance, no phi) — exercising the
    column-resident path: the def is stored to the int64 column file and
    the consumer plan gathers it back unguarded."""
    m = Module("xblk")
    seed_gv = GlobalVariable("seed", ty.i64, seed)
    trip_gv = GlobalVariable("trip", ty.i64, trip)
    for gv in (seed_gv, trip_gv):
        m.add_global(gv)
    f = m.add_function(Function("main", ty.function_type(ty.i64, []),
                                linkage="external"))
    entry, pre, header, body, exit_ = (
        f.add_block(n) for n in ("entry", "pre", "header", "body", "exit"))
    b = IRBuilder(entry)
    s0 = b.load(seed_gv, "s0")
    limit = b.load(trip_gv, "limit")
    b.br(pre)
    bp = IRBuilder(pre)
    x = bp.add(bp.mul(s0, bp.const(48271, ty.i64), "xm"),
               bp.const(11, ty.i64), "x")
    bp.br(header)
    bh = IRBuilder(header)
    iv = bh.phi(ty.i64, "i")
    acc = bh.phi(ty.i64, "acc")
    iv.add_incoming(bp.const(0, ty.i64), pre)
    acc.add_incoming(s0, pre)
    bh.cbr(bh.icmp("slt", iv, limit, "cmp"), body, exit_)
    bb = IRBuilder(body)
    y = bb.xor(bb.mul(acc, x, "ym"), bb.ashr(acc, bb.const(7, ty.i64), "ys"),
               "y")
    iv2 = bb.add(iv, bb.const(1, ty.i64), "iv2")
    iv.add_incoming(iv2, body)
    acc.add_incoming(y, body)
    bb.br(header)
    IRBuilder(exit_).ret(acc)
    return m


class TestPlanCompilation:
    def test_int_heavy_body_vectorizes(self):
        cf = entry_compiled(build_int_kernel(11, 5))
        assert cf.has_col_plans
        planned = [p for bp in cf.col_plans if bp for p in bp if p]
        assert planned, "pure-integer segments must compile column plans"
        # the loop body: 4 rounds x 11 column ops + the iv increment
        assert max(p.nops for p in planned) == 45

    def test_cross_block_defs_ride_the_column_file(self):
        cf = entry_compiled(build_cross_block_kernel(3, 5))
        assert cf.has_col_plans
        plans = [p for bp in cf.col_plans if bp for p in bp if p]
        # some plan stores to the column file, and some plan gathers a
        # column-resident slot back unguarded (kind 0)
        assert any(to_col for p in plans
                   for _c, _s, _slot, to_col, _r in p.stores)
        assert any(kind == 0 for p in plans for kind, _s, _li in p.loads)
        # and the data path is bit-exact end to end
        mods = [build_cross_block_kernel(s, 20) for s in (1, -5, 9, 2**61)]
        outs = BatchedKernelExecutor(sim_simd="verify").run_batch(
            [(m, None) for m in mods])
        for m, out in zip(mods, outs):
            ok, ref = solo_outcome(m)
            assert ok and out.observable() == ref.observable()
            assert out.steps == ref.steps

    def test_memory_segments_stay_scalar(self):
        # every segment of the global-loop kernel touches memory (loads,
        # gep) — the all-or-nothing rule leaves the function scalar
        cf = entry_compiled(build_global_loop_module(4))
        assert not cf.has_col_plans
        assert cf.col_plans is None


class TestLockstepParitySimd:
    def trip_population(self):
        seeds = [3, -9223372036854775807, 0, 7919, 2**62, -1, 17, 17]
        return [build_int_kernel(s, 40 + (i % 3)) for i, s in enumerate(seeds)]

    @pytest.mark.parametrize("mode", ["on", "verify"])
    def test_population_matches_solo_runs(self, mode):
        mods = self.trip_population()
        outs = BatchedKernelExecutor(sim_simd=mode).run_batch(
            [(m, None) for m in mods])
        for i, (m, out) in enumerate(zip(mods, outs)):
            ok, ref = solo_outcome(m)
            assert ok, (i, ref)
            assert out.observable() == ref.observable(), i
            assert out.steps == ref.steps, i
            assert sorted((bb.name, c) for bb, c in out.block_counts.items()) \
                == sorted((bb.name, c) for bb, c in ref.block_counts.items()), i
            assert out.call_counts == ref.call_counts, i
            assert out.output == ref.output, i

    def test_columns_actually_executed(self):
        clear_batch_exec_stats()
        mods = self.trip_population()
        BatchedKernelExecutor(sim_simd="on").run_batch(
            [(m, None) for m in mods])
        info = batch_exec_info()
        assert info["simd_segments_vectorized"] > 0
        assert info["simd_column_ops"] > 0
        assert info["simd_guard_fallbacks"] == 0
        assert 0.0 < info["simd_vectorized_ratio"] <= 1.0

    def test_step_budget_raises_at_identical_step(self):
        """max_steps sweep across the first loop iteration's boundaries:
        the typed tier must hand near-budget lanes to the reference
        per-op slow path so the raise lands on the exact step."""
        short = build_int_kernel(5, 2)
        wide = build_int_kernel(5, 60)
        ok, ref_full = solo_outcome(short)
        assert ok
        for max_steps in range(1, ref_full.steps + 2):
            executor = BatchedKernelExecutor(max_steps=max_steps,
                                             sim_simd="on")
            outcomes = executor.run_batch([(clone_module(short), None),
                                           (clone_module(wide), None)])
            ok, ref = solo_outcome(short, max_steps=max_steps)
            if ok:
                assert outcomes[0].observable() == ref.observable()
                assert outcomes[0].steps == ref.steps
            else:
                assert type(outcomes[0]) is ref[0] is StepBudgetExceeded
                assert str(outcomes[0]) == ref[1]

    def test_registry_pass_parity_on_chstone(self, benchmarks):
        """profile_batch over qsort single-pass variants: sim_simd=on is
        bit-identical to sim_simd=off, CycleReports included."""
        from repro.passes.registry import PASS_TABLE, TERMINATE_INDEX

        base = benchmarks["qsort"]
        variants = [clone_module(base)]
        for i, name in enumerate(dict.fromkeys(PASS_TABLE)):
            if PASS_TABLE.index(name) == TERMINATE_INDEX:
                continue
            candidate = clone_module(base)
            HLSToolchain.apply_passes(candidate, [name])
            variants.append(candidate)
        on = CycleProfiler(sim_batch="on", sim_simd="on").profile_batch(
            variants)
        off = CycleProfiler(sim_batch="on", sim_simd="off").profile_batch(
            [clone_module(m) for m in variants])
        for i, (a, b) in enumerate(zip(on, off)):
            assert report_fingerprint(a) == report_fingerprint(b), i


class TestVerifyMode:
    def test_verify_raises_on_column_divergence(self, monkeypatch):
        """A wrong column emitter (add off by one) must be caught by
        REPRO_SIM_SIMD=verify, not silently accepted."""
        real = column_binop_fn

        def skewed(opcode, bits):
            fn = real(opcode, bits)
            if opcode == "add" and bits == 64:
                wrong = real("add", 64)
                return lambda a, b, _f=wrong: _f(a, b) + 1
            return fn

        monkeypatch.setattr(simd, "column_binop_fn", skewed)
        clear_kernel_cache()
        try:
            mods = [build_int_kernel(s, 8) for s in (1, 2, 3, 4)]
            with pytest.raises(VerificationError, match="REPRO_SIM_SIMD"):
                BatchedKernelExecutor(sim_simd="verify").run_batch(
                    [(m, None) for m in mods])
        finally:
            clear_kernel_cache()  # drop kernels compiled with the fake

    def test_verify_passes_on_clean_run(self):
        mods = [build_int_kernel(s, 12) for s in (5, 6, 7)]
        outs = BatchedKernelExecutor(sim_simd="verify").run_batch(
            [(m, None) for m in mods])
        for m, out in zip(mods, outs):
            ok, ref = solo_outcome(m)
            assert ok and out.observable() == ref.observable()


class TestGuardFallback:
    def test_non_int_gather_bails_without_mutating(self):
        """A float in an int-expected slot: the plan refuses the wave
        before touching either register file."""
        cf = entry_compiled(build_int_kernel(9, 3))
        plans = [p for bp in cf.col_plans if bp for p in bp if p]
        plan = max(plans, key=lambda p: p.nops)
        guarded = [s for kind, s, _li in plan.loads if kind == 1]
        assert guarded, "body plan must gather phi/load slots from rows"
        nl = 3
        R = np.empty((nl, cf.nregs), dtype=object)
        R[:, :] = 1
        R[1, guarded[0]] = 3.5  # poisoned lane
        C = np.zeros((nl, cf.nregs), dtype=np.int64)
        r_before = R.copy()
        assert plan.execute(C, R, np.arange(nl)) is False
        assert not C.any()
        assert all(R[i, s] == r_before[i, s]
                   for i in range(nl) for s in range(cf.nregs))
        # huge Python ints (outside int64) must also bail, not overflow
        R2 = np.empty((nl, cf.nregs), dtype=object)
        R2[:, :] = 1
        R2[0, guarded[0]] = 1 << 70
        assert plan.execute(C, R2, np.arange(nl)) is False

    def test_guard_bailout_falls_back_scalar_with_parity(self, monkeypatch):
        """Force every plan to bail: execution must match solo runs and
        count the bailouts (plans retire for the rest of the drive, so
        exactly one bailout per cohort execution)."""
        monkeypatch.setattr(ColumnPlan, "execute",
                            lambda self, C, R, ids: False)
        clear_batch_exec_stats()
        mods = [build_int_kernel(s, 10) for s in (21, 22, 23)]
        outs = BatchedKernelExecutor(sim_simd="on").run_batch(
            [(m, None) for m in mods])
        for m, out in zip(mods, outs):
            ok, ref = solo_outcome(m)
            assert ok and out.observable() == ref.observable()
            assert out.steps == ref.steps
        info = batch_exec_info()
        assert info["simd_guard_fallbacks"] >= 1
        assert info["simd_segments_vectorized"] == 0


class TestExecSignatureMemo:
    def test_repeat_waves_hit_the_memo(self):
        clear_batch_exec_stats()
        m = build_global_loop_module(6)
        sig = exec_signature(m, "main")
        assert exec_signature(m, "main") == sig
        assert exec_signature(m, "main") == sig
        info = batch_exec_info()
        assert info["batch_sig_memo_misses"] == 1
        assert info["batch_sig_memo_hits"] == 2

    def test_version_bump_invalidates(self):
        clear_batch_exec_stats()
        m = build_global_loop_module(6)
        sig = exec_signature(m, "main")
        m.version += 1  # what PassManager does on any mutation
        assert exec_signature(m, "main") == sig  # unchanged content
        info = batch_exec_info()
        assert info["batch_sig_memo_misses"] == 2
        assert info["batch_sig_memo_hits"] == 0

    def test_memo_stays_coherent_across_passes(self):
        """After a real pass pipeline mutates the module, the memo must
        serve the *new* signature, not the stale pre-pass one."""
        m = build_global_loop_module(6)
        exec_signature(m, "main")
        version_before = m.version
        HLSToolchain.apply_passes(m, ["-mem2reg", "-instcombine"])
        assert m.version > version_before  # the invalidation contract
        after = exec_signature(m, "main")
        fresh = clone_module(m)
        assert exec_signature(fresh, "main") == after  # uncached recompute

    def test_entries_keyed_per_entry_point(self):
        clear_batch_exec_stats()
        m = build_global_loop_module(6)
        exec_signature(m, "main")
        exec_signature(m, "main")
        sig_other = exec_signature(m, "nosuch")
        assert sig_other[0] == "nosuch"
        info = batch_exec_info()
        assert info["batch_sig_memo_misses"] == 2


class TestCLI:
    def test_batch_lanes_with_serial_batch_is_an_error(self, capsys):
        from repro.cli import main

        rc = main(["profile-hotspots", "qsort", "--sim-batch", "off",
                   "--batch-lanes", "4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--batch-lanes" in err and "--sim-batch off" in err

    def test_sim_simd_flag_reaches_the_profiler(self, tmp_path, capsys):
        from repro.cli import main

        out_path = str(tmp_path / "h.json")
        assert main(["profile-hotspots", "gsm", "--phase", "profile",
                     "--sim-simd", "verify", "--batch-lanes", "2",
                     "--top", "1", "--json", out_path]) == 0
        assert "sim_simd=verify" in capsys.readouterr().out
        with open(out_path) as fh:
            assert json.load(fh)["sim_simd"] == "verify"


class TestCacheStats:
    def test_engine_cache_info_reports_typed_tier(self):
        clear_batch_exec_stats()
        mods = [build_int_kernel(s, 9) for s in (31, 32)]
        BatchedKernelExecutor(sim_simd="on").run_batch(
            [(m, None) for m in mods])
        info = HLSToolchain().engine.cache_info()
        assert info["simd_segments_vectorized"] > 0
        assert 0.0 < info["simd_vectorized_ratio"] <= 1.0
        assert "simd_column_ops" in info and "simd_guard_fallbacks" in info

    def test_cache_stats_cli_renders_typed_tier_row(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "stats", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "typed SIMD tier" in out
        assert "exec-signature memo" in out
