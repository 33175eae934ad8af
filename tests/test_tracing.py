"""Distributed request tracing and its gates: trace-context minting /
inheritance / remote attach, cross-process propagation through the
evaluation service, fork hygiene, the flight recorder, the snapshot
schema gate, Chrome trace export, the SLO checker, the benchmark trend
gate, and the ``repro trace`` / ``slo`` / ``bench-trend`` / ``stats
--watch`` CLI surfaces."""

import json
import os
import threading
import time

import pytest

from repro import telemetry as tm
from repro.telemetry import slo, trace, trend
from repro.telemetry.render import aggregate
from repro.toolchain import HLSToolchain


@pytest.fixture
def telemetry_mode():
    """Sandbox the process-global telemetry state (same contract as the
    fixture in test_telemetry.py)."""
    yield
    tm.stop_exporter(flush=False)
    tm.configure("off")


def _begins(events):
    return [e for e in events if e.get("event") == "begin"]


class TestTraceContext:
    def test_root_span_mints_trace_id(self, telemetry_mode):
        tm.configure("trace")
        with tm.span("root"):
            ctx = tm.current_trace()
            assert ctx is not None and ctx[0].startswith("T")
        begin, end = tm.trace_events()
        assert begin["trace"] == ctx[0]
        assert begin["span"] == ctx[1]
        assert end["trace"] == ctx[0] and end["seconds"] >= 0.0

    def test_nested_spans_share_the_trace(self, telemetry_mode):
        tm.configure("trace")
        with tm.span("outer"):
            with tm.span("inner"):
                pass
        outer, inner = _begins(tm.trace_events())
        assert outer["trace"] == inner["trace"]

    def test_sequential_roots_get_distinct_traces(self, telemetry_mode):
        tm.configure("trace")
        with tm.span("first"):
            pass
        with tm.span("second"):
            pass
        first, second = _begins(tm.trace_events())
        assert first["trace"] != second["trace"]

    def test_attach_adopts_remote_context(self, telemetry_mode):
        tm.configure("trace")
        with tm.attach_trace(("Tremote.9", "abcd1234.7")):
            assert tm.current_trace() == ("Tremote.9", "abcd1234.7")
            with tm.span("local"):
                pass
        # detached: the next root span mints its own trace again
        with tm.span("after"):
            pass
        local, after = _begins(tm.trace_events())
        assert local["trace"] == "Tremote.9"
        assert local["parent"] == "abcd1234.7"
        assert after["trace"] != "Tremote.9" and after["parent"] is None

    def test_attach_is_noop_when_off_or_malformed(self, telemetry_mode):
        tm.configure("off")
        noop = tm.span("anything")
        assert tm.attach_trace(("T1.1", "s.1")) is noop
        tm.configure("trace")
        assert tm.attach_trace(None) is noop
        assert tm.attach_trace(("",)) is noop
        assert tm.attach_trace(42) is noop

    def test_no_trace_context_outside_trace_mode(self, telemetry_mode):
        tm.configure("on")
        with tm.span("metrics-only"):
            assert tm.current_trace() is None

    def test_pool_threads_join_the_callers_trace(self, telemetry_mode):
        from concurrent.futures import ThreadPoolExecutor

        tm.configure("trace")
        with tm.span("driver"):
            ctx = tm.current_trace()

            def work(i):
                with tm.attach_trace(ctx), tm.span("task", i=i):
                    pass

            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(work, range(4)))
        begins = _begins(tm.trace_events())
        driver = next(e for e in begins if e["name"] == "driver")
        tasks = [e for e in begins if e["name"] == "task"]
        assert len(tasks) == 4
        assert all(e["trace"] == driver["trace"] and
                   e["parent"] == driver["span"] for e in tasks)

    def test_fork_reset_drops_inherited_trace_state(self, telemetry_mode):
        tm.configure("trace")
        span = tm.span("parent-open")
        span.__enter__()
        parent_ctx = tm.current_trace()
        assert parent_ctx is not None
        # what worker_main does first thing in the child
        tm.reset_for_child({"role": "worker"})
        assert tm.current_trace() is None  # no inherited open span
        with tm.span("child-root"):
            child_ctx = tm.current_trace()
        assert child_ctx[0] != parent_ctx[0]  # fresh trace id space
        begin = _begins(tm.drain_trace_events())[0]
        assert begin["name"] == "child-root" and begin["parent"] is None
        span.__exit__(None, None, None)  # old registry: harmless


class TestServicePropagation:
    def _serve(self, tmp_path, workers=2):
        from repro.service import EvaluationServer

        socket_path = str(tmp_path / "sock")
        server = EvaluationServer(socket_path, workers=workers,
                                  store_dir=str(tmp_path / "store"))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        deadline = time.time() + 10
        while not os.path.exists(socket_path) and time.time() < deadline:
            time.sleep(0.05)
        return server, thread, socket_path

    def test_one_request_one_trace_across_processes(self, telemetry_mode,
                                                    tmp_path, monkeypatch):
        from repro.service import request

        log = str(tmp_path / "trace.jsonl")
        monkeypatch.setenv("REPRO_TELEMETRY_TRACE_LOG", log)
        tm.configure("trace")
        server, thread, socket_path = self._serve(tmp_path, workers=2)
        try:
            reply = request(socket_path, {
                "op": "batch", "program": "matmul",
                "sequences": [[38], [38, 31]],
                "trace": ["Texternal.1", "caller00.1"]})
            assert reply["ok"]
        finally:
            request(socket_path, {"op": "shutdown"})
            thread.join(timeout=30)
        tm.export_trace_now()  # server threads share this registry
        events = tm.read_trace_log(log)
        ours = [e for e in events if e.get("trace") == "Texternal.1"
                and e.get("event") == "begin"]
        by_name = {}
        for e in ours:
            by_name.setdefault(e["name"], []).append(e)
        # one trace id covers the server op, the service client dispatch
        # and the worker-side evaluation in another process
        assert "server.op.batch" in by_name
        assert "service.evaluate_batch" in by_name
        assert "worker.evaluate" in by_name
        assert by_name["server.op.batch"][0]["parent"] == "caller00.1"
        worker_procs = {e["proc"] for e in by_name["worker.evaluate"]}
        assert all(":worker:" in proc for proc in worker_procs)
        # the worker span parents onto the client dispatch span
        dispatch_ids = {e["span"] for e in by_name["service.evaluate_batch"]}
        assert all(e["parent"] in dispatch_ids
                   for e in by_name["worker.evaluate"])

    def test_respawned_worker_logs_under_next_generation(self, telemetry_mode,
                                                         tmp_path,
                                                         monkeypatch,
                                                         benchmarks):
        log = str(tmp_path / "trace.jsonl")
        monkeypatch.setenv("REPRO_TELEMETRY_TRACE_LOG", log)
        tm.configure("trace")
        tc = HLSToolchain(backend="service",
                          service_config={"workers": 1,
                                          "store_dir": str(tmp_path / "s")})
        try:
            client = tc.engine
            program = benchmarks["matmul"]
            client.evaluate(program, [38])
            client._handles[0].process.terminate()
            client._handles[0].process.join(timeout=10)
            future = client.submit(program, [31, 7, 11, 13])
            with pytest.raises(RuntimeError, match="died"):
                future.result(timeout=30)
            assert client.evaluate(program, [38, 31]) is not None
        finally:
            tc.close()
        with open(log) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        gens = {rec["proc"].rsplit(":", 1)[-1] for rec in records
                if ":worker:" in rec.get("proc", "")}
        assert {"g0", "g1"} <= gens  # respawn got its own export identity
        # the death left a flight-recorder dump with the reason attached
        flights = [rec for rec in records if rec.get("kind") == "flight"]
        assert flights
        markers = [e for rec in flights for e in rec["events"]
                   if e.get("event") == "flight"]
        assert any("worker 0" in m.get("reason", "") for m in markers)


class TestPolicyServerPropagation:
    def test_infer_request_joins_client_trace(self, telemetry_mode, tmp_path,
                                              benchmarks):
        from repro.deploy import InferenceClient, ModelRegistry, PolicyServer
        from repro.rl.trainer import Trainer

        tm.configure("trace")
        toolchain = HLSToolchain()
        trainer = Trainer("RL-PPO2", [benchmarks["gsm"]], episodes=2,
                          episode_length=3, lanes=1, seed=0,
                          toolchain=toolchain)
        trainer.train()
        registry = ModelRegistry(str(tmp_path / "models"))
        registry.register("tiny", trainer)
        server = PolicyServer(str(tmp_path / "policy.sock"),
                              registry=registry, policies=["tiny"],
                              toolchain=toolchain)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            tm.drain_trace_events()  # isolate the requests of interest
            with InferenceClient(server.socket_path) as client:
                assert client.infer("gsm")
                assert client.policies()["loaded"] is not None
                client.shutdown_server()
        finally:
            thread.join(timeout=30)
        begins = _begins(tm.drain_trace_events())
        infer_span = next(e for e in begins if e["name"] == "client.infer")
        infer_joined = {e["name"] for e in begins
                        if e["trace"] == infer_span["trace"]
                        and e is not infer_span}
        # the batcher thread picked up the handler's context via the
        # queued item, so the coalesced forward lands in the client trace
        assert "policy.infer" in infer_joined
        control_span = next(e for e in begins
                            if e["name"] == "client.policies")
        control_joined = {e["name"] for e in begins
                          if e["trace"] == control_span["trace"]
                          and e is not control_span}
        # control ops answer on the handler thread under a joined op span
        assert "policy.op.policies" in control_joined


class TestFlightRecorder:
    def test_ring_is_bounded(self, telemetry_mode):
        tm.configure("trace")
        for i in range(tm.FLIGHT_SPANS + 40):
            with tm.span("tick", i=i):
                pass
        spans = tm.flight_spans()
        assert len(spans) == tm.FLIGHT_SPANS
        assert spans[-1]["attrs"] == {"i": tm.FLIGHT_SPANS + 39}

    def test_verification_error_dumps_recent_spans(self, telemetry_mode,
                                                   tmp_path, monkeypatch):
        from repro.ir.verifier import VerificationError

        log = str(tmp_path / "trace.jsonl")
        monkeypatch.setenv("REPRO_TELEMETRY_TRACE_LOG", log)
        tm.configure("trace")
        with tm.span("healthy-work"):
            pass
        with pytest.raises(VerificationError):
            with tm.span("outer"):
                with tm.span("doomed"):
                    raise VerificationError("ssa broke")
        with open(log) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        flights = [rec for rec in records if rec.get("kind") == "flight"]
        # one dump per exception, even though the error unwound through
        # two open spans
        assert len(flights) == 1
        events = flights[0]["events"]
        assert events[0]["event"] == "flight"
        assert "VerificationError" in events[0]["reason"]
        names = [e.get("name") for e in events[1:]]
        assert "healthy-work" in names and "doomed" in names

    def test_other_exceptions_do_not_dump(self, telemetry_mode, tmp_path,
                                          monkeypatch):
        log = str(tmp_path / "trace.jsonl")
        monkeypatch.setenv("REPRO_TELEMETRY_TRACE_LOG", log)
        tm.configure("trace")
        with pytest.raises(ValueError):
            with tm.span("plain-failure"):
                raise ValueError("not a verifier problem")
        assert not os.path.exists(log)


class TestSchemaGate:
    def test_unknown_snapshot_schema_is_skipped(self, telemetry_mode,
                                                tmp_path):
        log = tmp_path / "metrics.jsonl"
        readable = {"proc": "pid:1", "seq": 1, "ts": 1.0, "schema": 1,
                    "snapshot": {"counters": {"x": 1}}}
        future = {"proc": "pid:2", "seq": 1, "ts": 2.0, "schema": 99,
                  "snapshot": {"counters": {"x": 2}}}
        log.write_text(json.dumps(readable) + "\n" + json.dumps(future) + "\n")
        assert list(tm.read_log(str(log))) == ["pid:1"]

    def test_missing_schema_reads_as_version_one(self, telemetry_mode,
                                                 tmp_path):
        log = tmp_path / "metrics.jsonl"
        legacy = {"proc": "pid:1", "seq": 1, "ts": 1.0,
                  "snapshot": {"counters": {"x": 1}}}
        log.write_text(json.dumps(legacy) + "\n")
        assert list(tm.read_log(str(log))) == ["pid:1"]

    def test_exports_are_stamped(self, telemetry_mode, tmp_path):
        tm.configure("trace")
        with tm.span("stamped"):
            pass
        metrics = str(tmp_path / "metrics.jsonl")
        tracelog = str(tmp_path / "trace.jsonl")
        tm.export_now(metrics)
        tm.export_trace_events("pid:test", tm.drain_trace_events(),
                               path=tracelog)
        for path in (metrics, tracelog):
            with open(path) as fh:
                for line in fh:
                    assert json.loads(line)["schema"] == tm.SCHEMA_VERSION

    def test_unknown_trace_schema_is_skipped(self, telemetry_mode, tmp_path):
        log = tmp_path / "trace.jsonl"
        ok = {"proc": "pid:1", "schema": 1, "kind": "trace",
              "events": [{"event": "begin", "name": "a"}]}
        future = {"proc": "pid:2", "schema": 99, "kind": "trace",
                  "events": [{"event": "begin", "name": "b"}]}
        log.write_text(json.dumps(ok) + "\n" + json.dumps(future) + "\n")
        events = tm.read_trace_log(str(log))
        assert [e["name"] for e in events] == ["a"]


class TestChromeExport:
    def test_waterfall_and_chrome_shapes(self, telemetry_mode, tmp_path):
        tm.configure("trace")
        with tm.span("request"):
            with tm.span("stage-a"):
                pass
            with tm.span("stage-b"):
                pass
        log = str(tmp_path / "trace.jsonl")
        tm.export_trace_now(log)
        events = tm.read_trace_log(log)
        traces = trace.assemble_traces(events)
        (trace_id, spans), = traces.items()
        assert [s["name"] for s in spans] == ["request", "stage-a", "stage-b"]
        waterfall = trace.render_waterfall(trace_id, spans)
        assert "request" in waterfall and "  stage-a" in waterfall
        out = str(tmp_path / "chrome.json")
        assert trace.write_chrome_trace(out, log_path=log) == 3
        with open(out) as fh:
            payload = json.load(fh)
        xs = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert len(xs) == 3 and metas
        for e in xs:
            assert isinstance(e["ts"], (int, float)) and e["dur"] >= 0
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        parents = {e["args"]["span"]: e for e in xs}
        child = next(e for e in xs if e["name"] == "stage-a")
        assert child["args"]["parent"] in parents

    def test_trace_cli_roundtrip(self, telemetry_mode, tmp_path, capsys):
        from repro.cli import main

        tm.configure("trace")
        with tm.span("cli-request"):
            pass
        log = str(tmp_path / "trace.jsonl")
        tm.export_trace_now(log)
        assert main(["trace", "list", "--log", log]) == 0
        assert "cli-request" in capsys.readouterr().out
        assert main(["trace", "show", "--log", log]) == 0
        assert "cli-request" in capsys.readouterr().out
        out = str(tmp_path / "chrome.json")
        assert main(["trace", "export", "--log", log, "--out", out]) == 0
        capsys.readouterr()
        with open(out) as fh:
            assert json.load(fh)["traceEvents"]
        # --chrome is an alias for the export action
        assert main(["trace", "--chrome", "--log", log, "--out", out]) == 0
        capsys.readouterr()
        assert main(["trace", "show", "--log", log,
                     "--trace", "nonexistent"]) == 1
        capsys.readouterr()


class TestSLOGate:
    def _write_log(self, tmp_path):
        tm.configure("on")
        for value in (0.01, 0.02, 0.03):
            tm.observe("server.op.batch.seconds", value)
        tm.count("engine.memo_hits", 9)
        tm.count("engine.memo_misses", 1)
        log = str(tmp_path / "metrics.jsonl")
        tm.export_now(log)
        return log

    def test_quantile_ratio_and_counter_targets(self, telemetry_mode,
                                                tmp_path):
        log = self._write_log(tmp_path)
        aggregated = aggregate(
            rec["snapshot"] for rec in tm.read_log(log).values())
        results = slo.evaluate_slos(aggregated, [
            {"name": "batch-p99", "metric": "server.op.batch.seconds",
             "quantile": 0.99, "max": 1.0},
            {"name": "hit-rate", "ratio": ["engine.memo_hits",
                                           ["engine.memo_hits",
                                            "engine.memo_misses"]],
             "min": 0.5},
            {"name": "misses", "counter": "engine.memo_misses", "max": 5},
        ])
        assert all(r.ok for r in results)
        report = slo.render_slo_report(results)
        assert "3/3 SLO target(s) met" in report

    def test_missing_metric_only_fails_when_required(self, telemetry_mode,
                                                     tmp_path):
        log = self._write_log(tmp_path)
        aggregated = aggregate(
            rec["snapshot"] for rec in tm.read_log(log).values())
        lax, strict = slo.evaluate_slos(aggregated, [
            {"name": "lax", "metric": "no.such.metric", "max": 1.0},
            {"name": "strict", "metric": "no.such.metric", "max": 1.0,
             "require": True},
        ])
        assert lax.ok and not strict.ok

    def test_cli_exit_codes(self, telemetry_mode, tmp_path, capsys):
        from repro.cli import main

        log = self._write_log(tmp_path)
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"slos": [
            {"name": "p99", "metric": "server.op.batch.seconds",
             "quantile": 0.99, "max": 1.0}]}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"slos": [
            {"name": "p99", "metric": "server.op.batch.seconds",
             "quantile": 0.99, "max": 0.0001}]}))
        assert main(["slo", "check", "--config", str(good),
                     "--log", log]) == 0
        assert "1/1 SLO target(s) met" in capsys.readouterr().out
        assert main(["slo", "check", "--config", str(bad),
                     "--log", log]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert main(["slo", "check", "--config", str(bad), "--log", log,
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["ok"] is False


class TestTrendGate:
    def _write(self, tmp_path, name, runs):
        with open(tmp_path / f"BENCH_{name}.json", "w") as fh:
            json.dump(runs, fh)

    def test_regression_is_flagged(self, tmp_path):
        self._write(tmp_path, "synth", [
            [{"name": "eval_seconds", "unit": "s", "value": v}]
            for v in (1.0, 1.1, 0.9, 1.0, 2.0)])  # newest doubled
        entries = trend.check_trends(str(tmp_path))
        (entry,) = [e for e in entries if e["status"] == "regressed"]
        assert entry["metric"] == "eval_seconds"
        report = trend.render_trend_report(entries)
        assert "regressed" in report and "eval_seconds" in report

    def test_throughput_drop_is_flagged_and_noise_is_not(self, tmp_path):
        self._write(tmp_path, "throughput", [
            [{"name": "profiles_per_sec", "unit": "profiles/s", "value": v}]
            for v in (100.0, 95.0, 105.0, 40.0)])  # newest collapsed
        self._write(tmp_path, "noisy", [
            [{"name": "cold_seconds", "unit": "s", "value": v}]
            for v in (2.2, 0.47, 2.1, 0.5)])  # within the trailing band
        by_metric = {e["metric"]: e
                     for e in trend.check_trends(str(tmp_path))}
        assert by_metric["profiles_per_sec"]["status"] == "regressed"
        assert by_metric["cold_seconds"]["status"] == "ok"

    def test_committed_trajectories_pass(self):
        """The repo commits no ``BENCH_*.json`` any more (the e2e
        benchmark's history directory is to replace them): at the repo
        root the gate must say there is nothing to read and pass, not
        fail — and whatever a checkout does hold must not regress."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        entries = trend.check_trends(root)
        assert not [e for e in entries if e["status"] == "regressed"]
        assert entries or \
            "no BENCH_*.json" in trend.render_trend_report(entries)

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        self._write(tmp_path, "ok", [
            [{"name": "eval_seconds", "unit": "s", "value": v}]
            for v in (1.0, 1.05, 0.98)])
        assert main(["bench-trend", "--root", str(tmp_path)]) == 0
        capsys.readouterr()
        self._write(tmp_path, "bad", [
            [{"name": "other_seconds", "unit": "s", "value": v}]
            for v in (1.0, 1.0, 5.0)])
        assert main(["bench-trend", "--root", str(tmp_path)]) == 1
        assert "other_seconds" in capsys.readouterr().out
        assert main(["bench-trend", "--root", str(tmp_path),
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        statuses = {e["metric"]: e["status"] for e in payload}
        assert statuses["other_seconds"] == "regressed"
        assert statuses["eval_seconds"] == "ok"


class TestStatsPlaceholder:
    def test_missing_log_renders_placeholder(self, telemetry_mode, tmp_path,
                                             capsys):
        from repro.cli import main

        missing = str(tmp_path / "nope" / "metrics.jsonl")
        assert main(["stats", "--log", missing]) == 0
        out = capsys.readouterr().out
        assert "no snapshots yet" in out and missing in out
