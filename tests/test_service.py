"""The distributed evaluation service: fingerprint stability, persistent
store round-trips, cross-process bit-identical determinism (including the
warm-start path), request coalescing, the toolchain backend toggle, and
the Unix-socket server."""

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine import EvaluationEngine, canonicalize_sequence
from repro.engine.memo import FAILED
from repro.hls.profiler import HLSCompilationError
from repro.passes.registry import NUM_TRANSFORMS
from repro.programs import chstone
from repro.search import SequenceEvaluator
from repro.service import (
    EvaluationClient,
    EvaluationServer,
    ResultStore,
    program_fingerprint,
    request,
    toolchain_fingerprint,
)
from repro.service.store import make_key
from repro.toolchain import HLSToolchain, clone_module


def _random_sequences(rng, count, max_len, shared_prefix_prob=0.5):
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


def _service_toolchain(tmp_path, workers, **toolchain_kwargs):
    return HLSToolchain(backend="service",
                        service_config={"workers": workers,
                                        "store_dir": str(tmp_path)},
                        **toolchain_kwargs)


class TestFingerprint:
    def test_stable_across_builds_and_clones(self, benchmarks):
        fp = program_fingerprint(benchmarks["gsm"])
        assert fp == program_fingerprint(chstone.build("gsm"))
        assert fp == program_fingerprint(clone_module(benchmarks["gsm"]))

    def test_distinct_programs_distinct_fingerprints(self, benchmarks):
        fps = {program_fingerprint(m) for m in benchmarks.values()}
        assert len(fps) == len(benchmarks)

    def test_optimization_changes_fingerprint(self, benchmarks):
        module = clone_module(benchmarks["matmul"])
        before = program_fingerprint(module)
        HLSToolchain.apply_passes(module, [38])
        assert program_fingerprint(module) != before

    def test_toolchain_fingerprint_tracks_semantics(self):
        from repro.hls.delays import HLSConstraints

        base = toolchain_fingerprint(HLSToolchain(use_engine=False))
        assert base == toolchain_fingerprint(HLSToolchain(use_engine=False))
        slower = HLSToolchain(constraints=HLSConstraints(clock_period_ns=10.0),
                              use_engine=False)
        assert toolchain_fingerprint(slower) != base
        tiny = HLSToolchain(max_steps=50, use_engine=False)
        assert toolchain_fingerprint(tiny) != base


class TestResultStore:
    def test_roundtrip_values_and_failures(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = make_key("cycles", 0.05, "main", (38, 31))
        fkey = make_key("cycles", 0.05, "main", (7,))
        store.append("f" * 32, "t" * 8, key, 2583.0)
        store.append("f" * 32, "t" * 8, fkey, FAILED)
        loaded = ResultStore(str(tmp_path)).load("f" * 32, "t" * 8)
        assert loaded[key] == 2583.0
        assert loaded[fkey] is FAILED

    def test_shards_are_isolated(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = make_key("cycles", 0.05, "main", (1,))
        store.append("a" * 32, "t" * 8, key, 1.0)
        store.append("b" * 32, "t" * 8, key, 2.0)
        assert store.load("a" * 32, "t" * 8)[key] == 1.0
        assert store.load("b" * 32, "t" * 8)[key] == 2.0

    def test_torn_and_foreign_lines_skipped(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = make_key("cycles", 0.05, "main", (38,))
        store.append("f" * 32, "t" * 8, key, 42.0)
        path = os.path.join(str(tmp_path), store.shard_name("f" * 32, "t" * 8))
        with open(path, "a") as fh:
            fh.write('{"v": 1, "obj": "cyc')  # torn write, no newline
        with open(path, "a") as fh:
            fh.write('\nnot json at all\n')
            fh.write(json.dumps({"v": 999, "obj": "cycles", "aw": 0.05,
                                 "entry": "main", "seq": [1], "ok": True,
                                 "val": 7.0}) + "\n")
        loaded = store.load("f" * 32, "t" * 8)
        assert loaded == {key: 42.0}

    def test_stats_clear_export(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.append("a" * 32, "t" * 8, make_key("cycles", 0.05, "main", (1,)), 1.0)
        store.append("a" * 32, "t" * 8, make_key("cycles", 0.05, "main", (2,)), FAILED)
        stats = store.stats()
        assert stats["shards"] == 1 and stats["records"] == 2
        assert stats["failed_results"] == 1 and stats["size_bytes"] > 0
        out = str(tmp_path / "export.json")
        assert store.export(out) == 2
        with open(out) as fh:
            exported = json.load(fh)
        assert sum(len(v) for v in exported["shards"].values()) == 2
        assert store.clear() == 1
        assert store.stats()["records"] == 0


class TestInProcessClient:
    """workers=0: same semantics, no subprocesses."""

    def test_matches_uncached_and_persists(self, benchmarks, tmp_path):
        rng = np.random.default_rng(21)
        seqs = _random_sequences(rng, count=8, max_len=4)
        uncached = HLSToolchain(use_engine=False)
        program = benchmarks["gsm"]
        expected = [uncached.cycle_count_with_passes(program, s) for s in seqs]

        tc = _service_toolchain(tmp_path, workers=0)
        got = [tc.cycle_count_with_passes(program, s) for s in seqs]
        assert got == expected
        cold_samples = tc.samples_taken
        assert cold_samples > 0

        # a fresh toolchain + client on the same store: all warm, no samples
        warm = _service_toolchain(tmp_path, workers=0)
        regot = [warm.cycle_count_with_passes(chstone.build("gsm"), s) for s in seqs]
        assert regot == expected
        assert warm.samples_taken == 0
        assert warm.engine.persistent_hits > 0

    def test_failure_persisted_and_reraised(self, benchmarks, tmp_path):
        tc = _service_toolchain(tmp_path, workers=0, max_steps=50)
        with pytest.raises(HLSCompilationError):
            tc.cycle_count_with_passes(benchmarks["gsm"], [38])
        warm = _service_toolchain(tmp_path, workers=0, max_steps=50)
        with pytest.raises(HLSCompilationError):
            warm.cycle_count_with_passes(chstone.build("gsm"), [38])
        assert warm.samples_taken == 0
        assert warm.engine.evaluate_batch(chstone.build("gsm"), [[38]]) == [None]


class TestCrossProcessDeterminism:
    """Satellite: the service must be bit-identical to a fresh in-process
    engine on randomized programs/sequences, including warm starts."""

    def test_property_randomized_programs_and_sequences(self, benchmarks,
                                                        tiny_corpus, tmp_path):
        rng = np.random.default_rng(13)
        programs = [benchmarks["gsm"], benchmarks["adpcm"], tiny_corpus[0]]
        workloads = [_random_sequences(rng, count=6, max_len=4)
                     for _ in programs]

        # reference: a fresh in-process engine (itself bit-identical to
        # use_engine=False, enforced by test_engine.py)
        ref_tc = HLSToolchain()
        ref_engine = EvaluationEngine(ref_tc)
        expected = [[ref_engine.evaluate(p, s) for s in seqs]
                    for p, seqs in zip(programs, workloads)]

        service_tc = _service_toolchain(tmp_path, workers=2)
        try:
            # one driver thread per program, the shape of a parallel sweep
            with ThreadPoolExecutor(max_workers=len(programs)) as pool:
                got = list(pool.map(service_tc.engine.evaluate_batch,
                                    programs, workloads))
            assert got == expected
            # sample accounting is exact across processes: same unique
            # evaluations, same count as the in-process reference
            assert service_tc.samples_taken == ref_tc.samples_taken
        finally:
            service_tc.close()

        # warm start: fresh client processes, same store — bit-identical
        # values at zero simulator cost
        warm_tc = _service_toolchain(tmp_path, workers=2)
        try:
            rebuilt = [chstone.build("gsm"), chstone.build("adpcm"),
                       clone_module(tiny_corpus[0])]
            regot = [warm_tc.engine.evaluate_batch(p, seqs)
                     for p, seqs in zip(rebuilt, workloads)]
            assert regot == expected
            assert warm_tc.samples_taken == 0
        finally:
            warm_tc.close()

    def test_programs_shard_across_workers(self, benchmarks, tmp_path):
        tc = _service_toolchain(tmp_path, workers=2)
        try:
            client = tc.engine
            shards = {client._ensure_program(m).worker_id
                      for m in benchmarks.values()}
            assert shards == {0, 1}  # nine fingerprints land on both workers
        finally:
            tc.close()


class TestAsyncAndCoalescing:
    def test_submit_future_matches_sync(self, benchmarks, tmp_path):
        tc = _service_toolchain(tmp_path, workers=1)
        try:
            program = benchmarks["matmul"]
            future = tc.engine.submit(program, [38, 31])
            value = future.result(timeout=120)
            assert value == tc.engine.evaluate(program, [38, 31])
        finally:
            tc.close()

    def test_duplicate_inflight_requests_share_a_future(self, benchmarks, tmp_path):
        tc = _service_toolchain(tmp_path, workers=1)
        try:
            program = benchmarks["matmul"]
            first = tc.engine.submit(program, [31, 38, 7])
            second = tc.engine.submit(program, [31, 38, 7])
            # either coalesced onto the identical Future, or the first
            # resolved before the second was submitted
            assert second is first or (first.done()
                                       and first.result() == second.result())
            assert first.result(timeout=120) == second.result(timeout=120)
            if second is first:
                assert tc.engine.coalesced >= 1
        finally:
            tc.close()

    def test_resolved_results_count_single_sample(self, benchmarks, tmp_path):
        tc = _service_toolchain(tmp_path, workers=1)
        try:
            program = benchmarks["matmul"]
            futures = [tc.engine.submit(program, [38, 31]) for _ in range(4)]
            values = {f.result(timeout=120) for f in futures}
            assert len(values) == 1
            assert tc.samples_taken == 1  # one dispatch, rest coalesced/warm
        finally:
            tc.close()

    def test_in_process_threads_dispatch_each_key_once(self, benchmarks,
                                                       tmp_path):
        """workers=0 evaluates on the calling thread, yet concurrent
        callers still coalesce: every distinct key is dispatched once."""
        import sys

        program = benchmarks["gsm"]
        seqs = [[38], [31, 7], [38, 31], [7], [11, 13], [13]]
        batches = [seqs[i:] + seqs[:i] for i in range(len(seqs))]
        reference = HLSToolchain().engine.evaluate_batch(
            chstone.build("gsm"), seqs)
        tc = _service_toolchain(tmp_path, workers=0)
        rows = {}

        def run(i):
            rows[i] = tc.engine.evaluate_batch(program, batches[i])

        threads = [threading.Thread(target=run, args=(i,), daemon=True)
                   for i in range(len(batches))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, batch in enumerate(batches):
            assert rows[i] == [reference[seqs.index(s)] for s in batch]
        info = tc.engine.cache_info(include_workers=False)
        assert info["dispatched_requests"] == len(seqs)
        assert info["persistent_entries"] == len(seqs)


class TestBackendToggle:
    def test_env_var_opts_in_without_code_changes(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_EVAL_BACKEND", "service")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SERVICE_WORKERS", "0")
        tc = HLSToolchain()
        assert isinstance(tc.engine, EvaluationClient)
        assert tc.engine.store.root == str(tmp_path)
        # the uncached baseline stays uncached no matter the environment
        assert HLSToolchain(use_engine=False).engine is None

    def test_sequence_evaluator_drop_in(self, benchmarks, tmp_path):
        program = benchmarks["gsm"]
        seqs = [[38, 31], [38], [38, 31], [31, 7]]
        engine_eval = SequenceEvaluator(program, HLSToolchain())
        expected = engine_eval.evaluate_batch(seqs)

        service_tc = _service_toolchain(tmp_path, workers=1)
        try:
            service_eval = SequenceEvaluator(chstone.build("gsm"), service_tc)
            assert service_eval.evaluate_batch(seqs) == expected
            assert service_eval.samples == engine_eval.samples
            assert service_eval.history == engine_eval.history
        finally:
            service_tc.close()

    def test_rl_env_drop_in(self, benchmarks, tmp_path):
        from repro.rl.env import PhaseOrderEnv

        results = []
        for tc in (HLSToolchain(), _service_toolchain(tmp_path, workers=0)):
            env = PhaseOrderEnv([benchmarks["gsm"]], toolchain=tc,
                                episode_length=3, seed=1)
            env.reset(0)
            _, r1, _, info1 = env.step(0)
            _, r2, _, info2 = env.step(1)
            results.append((r1, info1["cycles"], r2, info2["cycles"],
                            env.initial_cycles, env.evaluations))
        assert results[0] == results[1]

    def test_multiaction_env_drop_in(self, benchmarks, tmp_path):
        from repro.rl.env import MultiActionEnv

        results = []
        for tc in (HLSToolchain(), _service_toolchain(tmp_path, workers=0)):
            env = MultiActionEnv([benchmarks["gsm"]], toolchain=tc,
                                 sequence_length=4, episode_length=2, seed=0)
            env.reset(0)
            _, r1, _, info1 = env.step(np.full(4, 2))
            results.append((r1, info1["cycles"], env.initial_cycles))
        assert results[0] == results[1]


class TestWorkerErrorSurfacing:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_worker_crash_carries_offending_sequence(self, benchmarks,
                                                     tmp_path, workers):
        from repro.engine import BatchEvaluationError

        program = benchmarks["gsm"]
        tc = _service_toolchain(tmp_path, workers=workers)
        try:
            # an out-of-range pass index crashes inside the shard's
            # engine (not an HLSCompilationError memo)
            bogus = [NUM_TRANSFORMS + 1000]
            with pytest.raises(BatchEvaluationError) as excinfo:
                tc.engine.evaluate_batch(program, [[38], [31, 7], bogus])
            assert excinfo.value.sequence == canonicalize_sequence(bogus)
        finally:
            tc.close()
        # the crash does not cost its siblings: they were persisted, so a
        # fresh client over the same store answers them sample-free
        fresh = _service_toolchain(tmp_path, workers=workers)
        try:
            fresh.engine.evaluate_batch(program, [[38], [31, 7]])
            assert fresh.samples_taken == 0
        finally:
            fresh.close()

    def test_in_process_client_keeps_the_same_error_contract(self, benchmarks,
                                                             tmp_path):
        from repro.engine import BatchEvaluationError

        tc = _service_toolchain(tmp_path, workers=0)
        bogus = [NUM_TRANSFORMS + 1000]
        with pytest.raises(BatchEvaluationError) as excinfo:
            tc.engine.evaluate_batch(benchmarks["gsm"], [[38], bogus])
        assert excinfo.value.sequence == canonicalize_sequence(bogus)
        future = tc.engine.submit(benchmarks["gsm"], bogus)
        assert isinstance(future.exception(), BatchEvaluationError)

    def test_dead_worker_fails_inflight_instead_of_hanging(self, benchmarks,
                                                           tmp_path):
        tc = _service_toolchain(tmp_path, workers=1)
        try:
            client = tc.engine
            program = benchmarks["matmul"]
            # warm the pool, then kill the worker with a request in flight
            client.evaluate(program, [38])
            client._handles[0].process.terminate()
            client._handles[0].process.join(timeout=10)
            future = client.submit(program, [31, 7, 11, 13])
            with pytest.raises(RuntimeError, match="died"):
                future.result(timeout=30)
            # the reaper respawned the worker: the client still works
            assert client.evaluate(program, [38, 31]) == \
                HLSToolchain(use_engine=False).cycle_count_with_passes(
                    chstone.build("matmul"), [38, 31])
        finally:
            tc.close()


class TestAggregateCacheInfo:
    def test_survives_garbage_collection(self, benchmarks):
        import gc

        def run():  # a driver-internal toolchain becoming cyclic garbage
            tc = HLSToolchain()
            tc.cycle_count_with_passes(benchmarks["matmul"], [38, 31])

        before = HLSToolchain.aggregate_cache_info().get("memo_misses", 0)
        run()
        gc.collect()  # collects the toolchain<->engine cycle, retiring it
        after = HLSToolchain.aggregate_cache_info().get("memo_misses", 0)
        assert after >= before + 1

    def test_close_retires_once(self, benchmarks):
        tc = HLSToolchain()
        tc.cycle_count_with_passes(benchmarks["matmul"], [38])
        tc.close()
        snapshot = dict(HLSToolchain._retired_cache_totals)
        tc.close()  # idempotent: no double counting
        assert HLSToolchain._retired_cache_totals == snapshot


class TestServer:
    def test_json_protocol_end_to_end(self, tmp_path):
        socket_path = str(tmp_path / "eval.sock")
        server = EvaluationServer(socket_path, workers=1,
                                  store_dir=str(tmp_path / "store"))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            deadline = time.time() + 10
            while not os.path.exists(socket_path) and time.time() < deadline:
                time.sleep(0.05)
            assert request(socket_path, {"op": "ping"})["pong"]

            reference = HLSToolchain()
            expected = reference.cycle_count_with_passes(
                chstone.build("matmul"), [38, 31])
            reply = request(socket_path, {"op": "evaluate", "program": "matmul",
                                          "sequence": [38, 31]})
            assert reply["ok"] and reply["value"] == expected

            reply = request(socket_path, {"op": "batch", "program": "matmul",
                                          "sequences": [[38, 31], [38]]})
            assert reply["ok"] and reply["values"][0] == expected

            stats = request(socket_path, {"op": "stats"})
            assert stats["ok"] and stats["store"]["records"] >= 2

            bad = request(socket_path, {"op": "evaluate",
                                        "program": "no-such-benchmark",
                                        "sequence": []})
            assert not bad["ok"] and "no-such-benchmark" in bad["error"]
        finally:
            request(socket_path, {"op": "shutdown"})
            thread.join(timeout=10)
        assert not thread.is_alive()


class TestStoreSchemaCompatibility:
    """Satellite: v2 records with features round-trip; v1 cycle-only
    records are still served with features recomputed on demand — never
    a crash, never a silent cache clear."""

    V1_LINE = ('{"v": 1, "obj": "cycles", "aw": 0.05, "entry": "main", '
               '"seq": [38, 31], "ok": true, "val": 2583.0}\n')

    def test_v2_features_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = make_key("cycles", 0.05, "main", (38, 31))
        feat = list(range(56))
        store.append("f" * 32, "t" * 8, key, 2583.0, features=feat)
        values, features = ResultStore(str(tmp_path)).load_with_features(
            "f" * 32, "t" * 8)
        assert values[key] == 2583.0
        assert features[(38, 31)] == feat
        assert store.stats()["feature_records"] == 1

    def test_failed_records_can_carry_features(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = make_key("cycles", 0.05, "main", (7,))
        store.append("f" * 32, "t" * 8, key, FAILED, features=[1] * 56)
        values, features = store.load_with_features("f" * 32, "t" * 8)
        assert values[key] is FAILED
        assert features[(7,)] == [1] * 56

    def test_v1_records_still_served(self, tmp_path):
        store = ResultStore(str(tmp_path))
        path = os.path.join(str(tmp_path), store.shard_name("f" * 32, "t" * 8))
        with open(path, "w") as fh:
            fh.write(self.V1_LINE)
        values, features = store.load_with_features("f" * 32, "t" * 8)
        key = make_key("cycles", 0.05, "main", (38, 31))
        assert values[key] == 2583.0
        assert features == {}  # v1: no feature vectors, value intact

    def test_v1_and_v2_records_interleave(self, tmp_path):
        store = ResultStore(str(tmp_path))
        path = os.path.join(str(tmp_path), store.shard_name("f" * 32, "t" * 8))
        with open(path, "w") as fh:
            fh.write(self.V1_LINE)
        key2 = make_key("cycles", 0.05, "main", (7,))
        store.append("f" * 32, "t" * 8, key2, 99.0, features=[2] * 56)
        values, features = store.load_with_features("f" * 32, "t" * 8)
        assert len(values) == 2 and list(features) == [(7,)]

    @pytest.mark.parametrize("workers", [0, 1])
    def test_client_serves_v1_value_and_recomputes_features(self, benchmarks,
                                                            tmp_path, workers):
        """A store written before the feature schema: the value is a
        persistent hit (zero samples) and the features are recomputed on
        demand, upgrading the shard with a v2 record."""
        program = benchmarks["gsm"]
        tc = _service_toolchain(tmp_path, workers=workers)
        client = tc.engine
        fingerprint = program_fingerprint(program)
        # handcraft the v1 shard with the true cycle count
        reference = HLSToolchain().cycle_count_with_passes(
            chstone.build("gsm"), [38, 31])
        key = make_key("cycles", 0.05, "main", (38, 31))
        store = ResultStore(str(tmp_path))
        record = {"v": 1, "obj": "cycles", "aw": 0.05, "entry": "main",
                  "seq": [38, 31], "ok": True, "val": reference}
        path = os.path.join(str(tmp_path),
                            store.shard_name(fingerprint,
                                             toolchain_fingerprint(tc)))
        with open(path, "w") as fh:
            fh.write(json.dumps(record) + "\n")

        try:
            value, feats = client.evaluate_with_features(program, [38, 31])
            assert value == reference
            assert tc.samples_taken == 0  # value from the v1 record, no profile
            assert client.persistent_hits == 1
            from repro.features import extract_features

            expected = extract_features(client.materialize(program, [38, 31]))
            assert (feats == expected).all()
        finally:
            tc.close()
        # the shard now carries the upgraded v2 record for the next run
        _, features = store.load_with_features(fingerprint,
                                               toolchain_fingerprint(tc))
        assert features[(38, 31)] == [int(x) for x in expected]


class TestModeParity:
    """workers=0 and worker processes are one evaluation path: the same
    op stream gives the same rows, samples, counters and store records."""

    @staticmethod
    def _plain(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, (list, tuple)):
            return [TestModeParity._plain(v) for v in value]
        return value

    def _run(self, program, store_dir, workers, toolchain_kwargs):
        tc = _service_toolchain(store_dir, workers=workers, **toolchain_kwargs)
        client = tc.engine

        def outcome(fn, *args):
            try:
                return self._plain(fn(program, *args))
            except HLSCompilationError as exc:
                return f"{type(exc).__name__}: {exc}"

        try:
            rows = [
                outcome(lambda p, s: client.evaluate_batch(
                    p, s, want_features=True), [[38], [31, 7], [38, 31]]),
                outcome(client.evaluate_batch, [[7, 11], [38], [7, 11]]),
                outcome(client.evaluate_with_features, [11, 13]),
                outcome(client.features_after, [31, 7]),
                outcome(client.evaluate, [13]),
            ]
            info = client.cache_info(include_workers=False)
        finally:
            tc.close()
        counters = {k: info[k] for k in (
            "persistent_hits", "persistent_entries",
            "persistent_feature_entries", "dispatched_requests")}
        records = list(ResultStore(str(store_dir)).iter_records())
        return rows, tc.samples_taken, counters, records

    @pytest.mark.parametrize("max_steps", [None, 50])
    def test_in_process_and_worker_modes_agree(self, benchmarks, tmp_path,
                                               max_steps):
        kwargs = {} if max_steps is None else {"max_steps": max_steps}
        program = benchmarks["gsm"]
        local = self._run(program, tmp_path / "w0", 0, kwargs)
        workers = self._run(program, tmp_path / "w1", 1, kwargs)
        assert local == workers
        _, samples, counters, records = local
        assert samples > 0 and counters["dispatched_requests"] == 6
        # at max_steps=50 every row fails with the budget sentinel
        assert {(rec["ok"], rec.get("budget", False)) for _, rec in records} \
            == ({(True, False)} if max_steps is None else {(False, True)})


class TestServiceFeaturePath:
    """Feature vectors through the sharded worker processes and the
    persistent store: bit-identical to a fresh extraction, warm runs
    module-free at zero samples."""

    def test_cross_process_features_bit_identical(self, benchmarks, tmp_path):
        from repro.features import extract_features

        program = benchmarks["adpcm"]
        reference_tc = HLSToolchain()
        rng = np.random.default_rng(11)
        seqs = _random_sequences(rng, count=5, max_len=4)

        tc = _service_toolchain(tmp_path, workers=2)
        try:
            for seq in seqs:
                value, feats = tc.engine.evaluate_with_features(program, seq)
                expected_value = reference_tc.cycle_count_with_passes(
                    chstone.build("adpcm"), seq)
                expected_feats = extract_features(
                    reference_tc.engine.materialize(benchmarks["adpcm"], seq))
                assert value == expected_value
                assert (feats == expected_feats).all()
        finally:
            tc.close()

        # fresh process-independent warm start: features straight from
        # the store records, zero samples, zero materializations
        warm = _service_toolchain(tmp_path, workers=2)
        try:
            for seq in seqs:
                value, feats = warm.engine.evaluate_with_features(
                    chstone.build("adpcm"), seq)
                assert (feats == extract_features(
                    reference_tc.engine.materialize(benchmarks["adpcm"], seq))).all()
            assert warm.samples_taken == 0
            info = warm.engine.cache_info(include_workers=False)
            assert info["persistent_feature_entries"] >= len({tuple(s) for s in seqs})
            assert info["feature_misses"] == 0  # never composed locally
        finally:
            warm.close()

    def test_submit_want_features_coalesces(self, benchmarks, tmp_path):
        tc = _service_toolchain(tmp_path, workers=1)
        try:
            program = benchmarks["gsm"]
            futures = [tc.engine.submit(program, [38, 31], want_features=True)
                       for _ in range(4)]
            assert len({id(f) for f in futures}) == 1  # one in-flight future
            value, feats = futures[0].result()
            assert feats.shape == (56,)
            assert tc.engine.coalesced >= 3
        finally:
            tc.close()

    def test_failed_sequences_still_deliver_features(self, benchmarks, tmp_path):
        """The RL failure observation: a sequence that fails HLS
        compilation must still yield the features of its materialized
        module, warm from the store on the next run."""
        from repro.features import extract_features

        tc = _service_toolchain(tmp_path, workers=1, max_steps=50)
        try:
            program = benchmarks["gsm"]
            with pytest.raises(HLSCompilationError):
                tc.engine.evaluate_with_features(program, [38])
            feats = tc.engine.features_after(program, [38])
            expected = extract_features(tc.engine.materialize(program, [38]))
            assert (feats == expected).all()
        finally:
            tc.close()
        warm = _service_toolchain(tmp_path, workers=1, max_steps=50)
        try:
            feats = warm.engine.features_after(chstone.build("gsm"), [38])
            assert (feats == expected).all()
            assert warm.samples_taken == 0
        finally:
            warm.close()

    def test_server_features_op(self, tmp_path):
        socket_path = os.path.join(str(tmp_path), "features.sock")
        server = EvaluationServer(socket_path, workers=0,
                                  store_dir=str(tmp_path / "store"))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            deadline = time.time() + 10
            while not os.path.exists(socket_path) and time.time() < deadline:
                time.sleep(0.05)
            reply = request(socket_path, {"op": "features", "program": "gsm",
                                          "sequence": [38, 31]})
            assert reply["ok"] and len(reply["features"]) == 56
            from repro.features import extract_features

            expected = extract_features(
                server.toolchain.engine.materialize(
                    server._module("gsm"), [38, 31]))
            assert reply["features"] == [int(x) for x in expected]
        finally:
            request(socket_path, {"op": "shutdown"})
            thread.join(timeout=10)
