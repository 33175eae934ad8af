"""Batched execution = execution-signature dedup: bit-identity against
per-program runs, lane isolation, the one-knob (``sim_kernels``)
contract on waves, and the exec_signature memo."""

from __future__ import annotations

import pathlib
import re

import numpy as np
import pytest

import repro
from repro.engine import canonicalize_sequence
from repro.hls.profiler import CycleProfiler, CycleReport
from repro.interp import batch_exec
from repro.interp.batch_exec import (
    BatchedKernelExecutor,
    batch_exec_info,
    clear_batch_exec_stats,
    exec_signature,
)
from repro.interp.kernels import (
    KernelInterpreter,
    VerificationError,
    _error_category,
)
from repro.interp.state import StepBudgetExceeded
from repro.ir import Function, GlobalVariable, IRBuilder, Module
from repro.ir import types as ty
from repro.passes.registry import PASS_TABLE, TERMINATE_INDEX
from repro.service.fingerprint import toolchain_fingerprint
from repro.toolchain import HLSToolchain, clone_module


def build_global_loop_module(trip: int, name: str = "gloop",
                             oob_index: int = 0) -> Module:
    """A counted loop whose trip count (and an array index) load from
    globals — so modules with different behaviour keep ONE structural
    key (one shared kernel) but distinct execution signatures.

    ``s = 0; for (i = 0; i < @trip; i++) s += buf[@idx + i % 4]; return s``
    With ``oob_index`` pushed past the buffer, the lane traps mid-loop.
    """
    m = Module(name)
    trip_gv = GlobalVariable("trip", ty.i32, trip)
    idx_gv = GlobalVariable("idx", ty.i32, oob_index)
    buf_gv = GlobalVariable("buf", ty.array_type(ty.i32, 8),
                            [5, 7, 11, 13, 17, 19, 23, 29])
    for gv in (trip_gv, idx_gv, buf_gv):
        m.add_global(gv)
    f = m.add_function(Function("main", ty.function_type(ty.i32, []),
                                linkage="external"))
    entry, header, body, exit_ = (f.add_block(n)
                                  for n in ("entry", "header", "body", "exit"))
    b = IRBuilder(entry)
    b.br(header)
    bh = IRBuilder(header)
    iv = bh.phi(ty.i32, "i")
    acc = bh.phi(ty.i32, "acc")
    iv.add_incoming(b.const(0), entry)
    acc.add_incoming(b.const(0), entry)
    limit = bh.load(trip_gv, "limit")
    bh.cbr(bh.icmp("slt", iv, limit, "cmp"), body, exit_)
    bb = IRBuilder(body)
    base = bb.load(idx_gv, "base")
    wrapped = bb.srem(iv, bb.const(4), "wrap")
    slot = bb.add(base, wrapped, "slot")
    v = bb.load(bb.gep(buf_gv, [0, slot], "p"), "v")
    acc2 = bb.add(acc, v, "acc2")
    iv2 = bb.add(iv, bb.const(1), "iv2")
    iv.add_incoming(iv2, body)
    acc.add_incoming(acc2, body)
    bb.br(header)
    IRBuilder(exit_).ret(acc)
    return m


def report_fingerprint(report: CycleReport) -> tuple:
    return (report.cycles, sorted(report.states_by_block.items()),
            sorted(report.visits_by_block.items()),
            report.execution.observable(), report.execution.steps,
            sorted(report.execution.call_counts.items()),
            tuple(report.execution.output))


def solo_outcome(module: Module, max_steps: int = 1_000_000):
    """What a per-program KernelInterpreter run produces for a module:
    (True, ExecutionResult) or (False, (type, str(exc)))."""
    try:
        result = KernelInterpreter(clone_module(module),
                                   max_steps=max_steps).run("main")
        return (True, result)
    except Exception as exc:
        return (False, (type(exc), str(exc)))


class TestBatchParity:
    @pytest.mark.parametrize("bench", ["qsort", "gsm"])
    def test_every_registry_pass_parity(self, benchmarks, bench):
        """One profile_batch over the base program plus each single-pass
        variant is bit-identical to serial per-program profiling —
        across every pass in the Table-1 registry."""
        base = benchmarks[bench]
        passes = [p for i, p in enumerate(dict.fromkeys(PASS_TABLE))
                  if PASS_TABLE.index(p) != TERMINATE_INDEX]
        variants = [clone_module(base)]
        for name in passes:
            candidate = clone_module(base)
            HLSToolchain.apply_passes(candidate, [name])
            variants.append(candidate)

        reports = CycleProfiler(sim_kernels="on").profile_batch(variants)
        serial = CycleProfiler(sim_kernels="on")
        for name, module, report in zip(["<base>"] + passes, variants, reports):
            assert isinstance(report, CycleReport), (name, report)
            expected = serial.profile(clone_module(module))
            assert report_fingerprint(report) == report_fingerprint(expected), name

    def test_divergent_lanes_dedup_by_content_not_key(self):
        """Same structural key, different global-driven behaviour: lanes
        dedup only when their *contents* match, and each matches its
        solo run exactly."""
        trips = [3, 17, 0, 255, 17]
        modules = [build_global_loop_module(t) for t in trips]
        sigs = {exec_signature(m, "main") for m in modules}
        assert len(sigs) == len(set(trips))  # dedup by content, not key

        clear_batch_exec_stats()
        outcomes = BatchedKernelExecutor().run_batch(
            [(m, None) for m in modules])
        info = batch_exec_info()
        assert info["batch_runs"] == 1
        assert info["batch_lanes"] == 5
        assert info["batch_executed"] == 4  # the duplicate trip=17 deduped
        assert info["batch_dedup_saved"] == 1
        for module, outcome in zip(modules, outcomes):
            ok, ref = solo_outcome(module)
            assert ok, ref
            assert outcome.observable() == ref.observable()
            assert outcome.steps == ref.steps
            assert dict(outcome.call_counts) == dict(ref.call_counts)
            # block counts come back keyed by the lane's OWN blocks
            assert set(outcome.block_counts) <= set(
                module.get_function("main").blocks)


class TestLaneIsolation:
    def test_trapping_lane_detaches_without_poisoning_siblings(self):
        """One lane indexes out of bounds mid-loop; siblings stay
        bit-identical to their solo runs and the trap message matches."""
        healthy = [build_global_loop_module(t) for t in (6, 11)]
        trapping = build_global_loop_module(9, oob_index=7)  # 7+wrap > 7
        modules = [healthy[0], trapping, healthy[1]]
        outcomes = BatchedKernelExecutor().run_batch(
            [(m, None) for m in modules])

        ok, ref_trap = solo_outcome(trapping)
        assert not ok
        assert isinstance(outcomes[1], ref_trap[0])
        assert str(outcomes[1]) == ref_trap[1]
        for module, outcome in ((healthy[0], outcomes[0]),
                                (healthy[1], outcomes[2])):
            ok, ref = solo_outcome(module)
            assert ok
            assert outcome.observable() == ref.observable()
            assert outcome.steps == ref.steps

    def test_step_budget_raises_at_identical_step(self):
        """Exhaustive max_steps sweep over a short lane beside a wide
        sibling: StepBudgetExceeded raises at the exact step (identical
        message) a solo run raises at, for every boundary."""
        short = build_global_loop_module(4)
        wide = build_global_loop_module(200)
        ok, ref_full = solo_outcome(short)
        assert ok
        for max_steps in range(1, ref_full.steps + 2):
            executor = BatchedKernelExecutor(max_steps=max_steps)
            outcomes = executor.run_batch([(clone_module(short), None),
                                           (clone_module(wide), None)])
            ok, ref = solo_outcome(short, max_steps=max_steps)
            if ok:
                assert outcomes[0].observable() == ref.observable()
                assert outcomes[0].steps == ref.steps
            else:
                assert type(outcomes[0]) is ref[0] is StepBudgetExceeded
                assert str(outcomes[0]) == ref[1]

    def test_failing_representative_fans_out_to_deduped_lanes(self):
        """Execution-equivalent clones of a trapping module all fail with
        the representative's error category; the healthy lane between
        them completes."""
        trapping = build_global_loop_module(9, oob_index=7)
        healthy = build_global_loop_module(6)
        modules = [trapping, healthy, clone_module(trapping),
                   clone_module(trapping)]
        clear_batch_exec_stats()
        outcomes = BatchedKernelExecutor().run_batch(
            [(m, None) for m in modules])
        assert batch_exec_info()["batch_executed"] == 2
        ok, ref_trap = solo_outcome(trapping)
        assert not ok
        for i in (0, 2, 3):
            assert isinstance(outcomes[i], ref_trap[0])
            assert _error_category(outcomes[i]) == "trap"
            assert str(outcomes[i]) == ref_trap[1]
        ok, ref = solo_outcome(healthy)
        assert ok and outcomes[1].observable() == ref.observable()


class TestOneKnobOnWaves:
    """``sim_kernels`` governs ``profile_batch`` exactly like ``profile``."""

    @pytest.fixture()
    def no_kernels(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("sim_kernels=off must not touch kernels")

        monkeypatch.setattr(KernelInterpreter, "__init__", refuse)

    def test_off_is_honoured_on_waves(self, benchmarks, no_kernels):
        profiler = CycleProfiler(sim_kernels="off")
        wave = [clone_module(benchmarks["gsm"]),
                clone_module(benchmarks["qsort"])]
        reports = profiler.profile_batch(wave)
        serial = [profiler.profile(clone_module(m)) for m in wave]
        assert [report_fingerprint(r) for r in reports] == \
            [report_fingerprint(r) for r in serial]

    def test_off_toolchain_evaluates_batches_on_the_reference(
            self, benchmarks, no_kernels):
        toolchain = HLSToolchain(sim_kernels="off")
        rows = toolchain.engine.evaluate_batch(
            benchmarks["gsm"], [["-adce"], ["-gvn"], []])
        assert all(isinstance(v, float) for v in rows)

    def test_single_sim_knob(self, benchmarks):
        """REPRO_SIM_KERNELS is the only simulation env var left, and the
        e2e oracle's exact constructor call still builds a reference
        toolchain (the two retired keywords are accepted and ignored)."""
        src = pathlib.Path(repro.__file__).parent
        knobs = set()
        for path in src.rglob("*.py"):
            knobs.update(re.findall(r"REPRO_SIM_\w+", path.read_text()))
        assert knobs == {"REPRO_SIM_KERNELS"}

        oracle = HLSToolchain(backend="none", sim_kernels="off",
                              sim_batch="off", sim_simd="off")
        assert oracle.profiler.sim_kernels == "off"
        assert not hasattr(oracle.profiler, "sim_batch")
        plain = CycleProfiler(sim_kernels="off").profile(
            clone_module(benchmarks["gsm"]))
        assert report_fingerprint(oracle.profile(
            clone_module(benchmarks["gsm"]))) == report_fingerprint(plain)
        with pytest.raises(ValueError, match="sim_simd"):
            HLSToolchain(backend="none", sim_simd="sometimes")


class TestVerifyMode:
    """``sim_kernels="verify"`` covers waves: every lane, after the
    dedup fan-out, against a reference run of its own module."""

    @staticmethod
    def wave(benchmarks):
        return [clone_module(benchmarks["gsm"]),
                clone_module(benchmarks["qsort"]),
                clone_module(benchmarks["gsm"])]  # deduped onto lane 0

    def test_verify_matches_clean_run(self, benchmarks):
        wave = self.wave(benchmarks)
        verified = CycleProfiler(sim_kernels="verify").profile_batch(wave)
        reference = CycleProfiler(sim_kernels="off")
        for module, report in zip(wave, verified):
            assert report_fingerprint(report) == report_fingerprint(
                reference.profile(clone_module(module)))

    def test_verify_checks_the_dedup_fanout(self, benchmarks, monkeypatch):
        """verify looks at every lane *after* the remap: a fan-out that
        shifts one block count is a divergence."""
        real = batch_exec._remap_result

        def shifted(result, src, dst):
            out = real(result, src, dst)
            out.block_counts[next(iter(out.block_counts))] += 1
            return out

        monkeypatch.setattr(batch_exec, "_remap_result", shifted)
        with pytest.raises(VerificationError, match="block_counts"):
            CycleProfiler(sim_kernels="verify").profile_batch(
                self.wave(benchmarks))

    def test_verify_raises_on_batched_divergence(self, benchmarks, monkeypatch):
        modules = [clone_module(benchmarks["qsort"]) for _ in range(3)]
        real = BatchedKernelExecutor.run_batch

        def corrupting(self, items, entry="main"):
            outcomes = real(self, items, entry)
            outcomes[1].call_counts["main"] += 1  # silent corruption
            return outcomes

        monkeypatch.setattr(BatchedKernelExecutor, "run_batch", corrupting)
        profiler = CycleProfiler(sim_kernels="verify")
        with pytest.raises(VerificationError, match="sim-kernel divergence"):
            profiler.profile_batch(modules)


class TestEngineSeam:
    SEQS = [["-adce"], ["-simplifycfg"], ["-adce"], [], ["-gvn"],
            ["-instcombine"], ["-licm"], ["-mem2reg"]]

    def _batched(self, program, want_features=False):
        toolchain = HLSToolchain(sim_kernels="on")
        toolchain.engine.clear()
        rows = toolchain.engine.evaluate_batch(program, self.SEQS,
                                               want_features=want_features)
        return rows, toolchain.samples_taken

    def test_grouped_batch_matches_serial_values_and_samples(self, benchmarks):
        rows, samples = self._batched(benchmarks["qsort"])
        serial = HLSToolchain(sim_kernels="on")
        serial.engine.clear()
        assert rows == [serial.engine.evaluate(benchmarks["qsort"], seq)
                        for seq in self.SEQS]
        assert samples == serial.samples_taken

    def test_grouped_batch_with_features(self, benchmarks):
        rows, samples = self._batched(benchmarks["qsort"], want_features=True)
        serial = HLSToolchain(sim_kernels="on")
        serial.engine.clear()
        for seq, (value, feats) in zip(self.SEQS, rows):
            v_serial, f_serial = serial.engine.evaluate_with_features(
                benchmarks["qsort"], seq)
            assert value == v_serial
            assert np.array_equal(feats, f_serial)
        assert samples == serial.samples_taken

    def test_samples_count_distinct_effective_sequences(self, benchmarks):
        """Sample parity in effective coordinates: a wave profiles one
        lane per distinct *effective* sequence. ``-adce``/``-simplifycfg``
        do nothing to unoptimized qsort, so four of the eight rows are
        the base program."""
        program = benchmarks["qsort"]
        toolchain = HLSToolchain(sim_kernels="on")
        toolchain.engine.clear()
        rows = toolchain.engine.evaluate_batch(program, self.SEQS)
        trie = toolchain.engine._trie_for(program)
        effective = {tuple(trie.resolve(canonicalize_sequence(seq)).effective)
                     for seq in self.SEQS}
        assert () in effective and len(effective) < len({*map(tuple, self.SEQS)})
        assert toolchain.samples_taken == len(effective)
        assert batch_exec_info()["batch_lanes"] == len(effective)
        assert rows[0] == rows[1] == rows[2] == rows[3]

    @pytest.mark.parametrize("order", [0, 1])
    def test_in_wave_siblings_profile_once_whichever_comes_first(
            self, benchmarks, order):
        program = benchmarks["qsort"]
        noisy, plain = ["-adce", "-mem2reg", "-mem2reg"], ["-mem2reg"]
        wave = [noisy, plain, ["-simplifycfg"] + noisy][::-1 if order else 1]
        for want_features in (False, True):
            toolchain = HLSToolchain(sim_kernels="on")
            toolchain.engine.clear()
            rows = toolchain.engine.evaluate_batch(program, wave,
                                                   want_features=want_features)
            assert toolchain.samples_taken == 1
            serial = HLSToolchain(sim_kernels="on")
            for seq, row in zip(wave, rows):
                if want_features:
                    value, feats = serial.engine.evaluate_with_features(program, seq)
                    assert row[0] == value and np.array_equal(row[1], feats)
                else:
                    assert row == serial.engine.evaluate(program, seq)
            assert serial.samples_taken == 1
            for key in ("memo_hits", "memo_misses", "effective_hits"):
                assert toolchain.cache_info()[key] == serial.cache_info()[key], key
            # every sibling's raw key now answers on its own
            toolchain.engine.evaluate_batch(program, wave)
            assert toolchain.samples_taken == 1

    def test_memo_hits_skip_the_batch_executor(self, benchmarks):
        toolchain = HLSToolchain(sim_kernels="on")
        toolchain.engine.clear()
        toolchain.engine.evaluate_batch(benchmarks["gsm"], self.SEQS)
        warm_samples = toolchain.samples_taken
        clear_batch_exec_stats()
        again = toolchain.engine.evaluate_batch(benchmarks["gsm"], self.SEQS)
        assert toolchain.samples_taken == warm_samples  # all memo hits
        assert batch_exec_info()["batch_lanes"] == 0
        assert again == toolchain.engine.evaluate_batch(benchmarks["gsm"],
                                                        self.SEQS)

    def test_cache_info_exposes_batch_counters(self, benchmarks):
        toolchain = HLSToolchain(sim_kernels="on")
        toolchain.engine.clear()
        toolchain.engine.evaluate_batch(benchmarks["qsort"], self.SEQS)
        info = toolchain.engine.cache_info()
        assert info["batch_lanes"] > 0
        assert info["batch_executed"] > 0
        # the keys benchmarks/e2e/workloads.py reads by name
        for key in ("kernel_hits", "kernel_misses", "batch_lanes",
                    "batch_dedup_saved"):
            assert key in info
        assert info["batch_lanes"] == \
            info["batch_executed"] + info["batch_dedup_saved"]


class TestSatellites:
    def test_sequence_evaluator_dedupes_population(self, benchmarks):
        """score_population submits ONE deduplicated evaluate_batch per
        generation; results fan back out per candidate, accounting
        unchanged."""
        from repro.search.base import SequenceEvaluator, score_population

        calls = []

        class SpyEngine:
            def evaluate_batch(self, program, seqs, objective="cycles",
                               area_weight=0.05, entry="main",
                               want_features=False):
                calls.append([list(s) for s in seqs])
                return [1000.0 + sum(s) for s in seqs]

        evaluator = SequenceEvaluator(benchmarks["qsort"])
        evaluator.toolchain.engine = SpyEngine()
        population = [[28], [31], [28], [7], [31], [28]]
        scores = score_population(evaluator, population)
        assert len(calls) == 1
        assert calls[0] == [[28], [31], [7]]  # deduped, order-preserving
        assert scores == [1028, 1031, 1028, 1007, 1031, 1028]
        assert evaluator.samples == 6  # accounting stays per candidate

    def test_cache_stats_standalone_shows_global_cache_rows(self, tmp_path,
                                                            capsys):
        """`repro cache stats` against a bare store must render the
        process-global kernel/plan/batch rows, not an empty table."""
        from repro.cli import main

        assert main(["cache", "stats", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "kernel cache" in out
        assert "block-plan cache" in out
        assert "batch executor" in out
        assert "exec-signature memo" in out
        assert "(no cache activity" not in out

    def test_sim_knob_stays_out_of_fingerprints(self):
        fps = {toolchain_fingerprint(HLSToolchain(sim_kernels=mode))
               for mode in ("off", "on", "verify")}
        assert len(fps) == 1

    def test_worker_batches_shard_submissions(self, benchmarks, tmp_path):
        """evaluate_many (the per-shard batched path) returns exactly what
        per-item evaluate_one returns, and persists results for the next
        client over the same store."""
        from repro.service import ResultStore
        from repro.service.fingerprint import program_fingerprint
        from repro.service.worker import Shard

        program = benchmarks["qsort"]
        fp = program_fingerprint(program)
        items = [((28,), "cycles", 0.05, "main", False),
                 ((31,), "cycles", 0.05, "main", False),
                 ((28,), "cycles", 0.05, "main", False),
                 ((7,), "cycles", 0.05, "main", True),
                 ((), "cycles", 0.05, "main", False)]

        def shard(store_dir):
            tc = HLSToolchain()
            out = Shard(tc.engine, ResultStore(str(store_dir)),
                        toolchain_fingerprint(tc))
            out.register(1, fp, program)
            return out

        batched = shard(tmp_path / "a").evaluate_many(1, items)
        serial_shard = shard(tmp_path / "b")
        serial = [serial_shard.evaluate_one(1, item) for item in items]
        assert batched == serial

        # a fresh client over the same store answers every item from the
        # batch's persisted rows: zero simulator samples
        warm = HLSToolchain(backend="service", service_config={
            "workers": 0, "store_dir": str(tmp_path / "a")})
        rows = [warm.engine.evaluate_with_features(program, seq)
                if want_features else warm.engine.evaluate(program, seq)
                for seq, _, _, _, want_features in items]
        assert [row[0] if isinstance(row, tuple) else row for row in rows] \
            == [payload[1] for payload in batched]
        assert warm.samples_taken == 0
        warm.close()


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
