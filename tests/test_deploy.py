"""Deployment subsystem tests: model registry round-trips, PolicyRunner
inference parity with the legacy loop, the batched inference server +
futures client, graceful shutdown, and the generalization harness."""

from __future__ import annotations

import json
import os
import signal
import threading

import numpy as np
import pytest

from repro.deploy import (
    InferenceClient,
    InferenceError,
    ModelRegistry,
    PolicyMismatchError,
    PolicyRunner,
    PolicyServer,
    PolicySpec,
    RegistryError,
    ServerClosing,
)
from repro.features.extractor import features_for
from repro.passes.registry import NUM_ACTIONS, TERMINATE_INDEX
from repro.programs import chstone
from repro.rl.agents import infer_sequence
from repro.rl.normalization import normalize_features
from repro.rl.trainer import Trainer
from repro.toolchain import HLSToolchain, clone_module

TINY = dict(episodes=2, episode_length=4, hidden=(16, 16), update_every=2)


def _tiny_trainer(name, programs, toolchain, **overrides) -> Trainer:
    kwargs = {**TINY, **overrides}
    trainer = Trainer(name, programs, toolchain=toolchain, seed=0, **kwargs)
    trainer.train()
    return trainer


def _legacy_infer(agent, module, length, observation="both",
                  feature_indices=None, action_indices=None,
                  normalization=None, toolchain=None):
    """The pre-deployment ``infer_sequence`` loop, kept verbatim as the
    anchored reference the PolicyRunner rollout must match bit-for-bit
    (the Figure 9 regression pin)."""
    toolchain = toolchain or HLSToolchain()
    action_indices = (list(action_indices) if action_indices is not None
                      else list(range(NUM_ACTIONS)))
    candidate = clone_module(module)
    histogram = np.zeros(NUM_ACTIONS, dtype=np.float64)
    applied = []
    for _ in range(length):
        parts = []
        if observation in ("features", "both"):
            feats = normalize_features(features_for(candidate), normalization)
            if feature_indices is not None:
                feats = feats[feature_indices]
            parts.append(feats)
        if observation in ("histogram", "both"):
            parts.append(histogram)
        action = agent.act_greedy(np.concatenate(parts))
        pass_index = action_indices[int(action[0])]
        if pass_index == TERMINATE_INDEX:
            break
        applied.append(pass_index)
        histogram[pass_index] += 1
        toolchain.apply_passes(candidate, [pass_index])
    return applied, candidate


@pytest.fixture(scope="module")
def trained_ppo2(benchmarks):
    """One tiny trained PPO2 ('both' observation) shared by the module."""
    toolchain = HLSToolchain()
    trainer = _tiny_trainer("RL-PPO2", [benchmarks["gsm"]], toolchain,
                            observation="both", normalization="log")
    return trainer, toolchain


class TestPolicyRunner:
    @pytest.mark.parametrize("observation,norm,feature_indices", [
        ("both", "log", None),
        ("both", "instcount", [0, 3, 7, 11, 19, 30]),
        ("features", None, None),
        ("histogram", None, None),
    ])
    def test_matches_legacy_inference_loop(self, benchmarks, observation,
                                           norm, feature_indices):
        toolchain = HLSToolchain()
        trainer = _tiny_trainer("RL-PPO2", [benchmarks["gsm"]], toolchain,
                                observation=observation, normalization=norm,
                                feature_indices=feature_indices)
        agent = trainer.agent
        for name in ("adpcm", "aes"):
            module = benchmarks[name]
            ref_seq, ref_mod = _legacy_infer(
                agent, module, 5, observation=observation,
                feature_indices=feature_indices, normalization=norm,
                toolchain=toolchain)
            new_seq, new_mod = infer_sequence(
                agent, module, length=5, observation=observation,
                feature_indices=feature_indices, normalization=norm,
                toolchain=toolchain)
            assert new_seq == ref_seq
            assert toolchain.cycle_count(new_mod) == \
                toolchain.cycle_count(ref_mod)

    def test_refuses_a_toolchain_without_an_engine(self, trained_ppo2):
        """``use_engine=False`` is the uncached reference façade, not a
        second rollout path: ``_legacy_infer`` above is the independent
        incremental-module loop the engine path is pinned against."""
        trainer, _ = trained_ppo2
        with pytest.raises(ValueError, match="uncached reference"):
            PolicyRunner(trainer.agent, PolicySpec(),
                         toolchain=HLSToolchain(use_engine=False))

    def test_infer_batch_matches_singles_at_zero_samples(self, benchmarks,
                                                         trained_ppo2):
        trainer, toolchain = trained_ppo2
        spec = PolicySpec(observation="both", episode_length=5,
                          normalization="log")
        runner = PolicyRunner(trainer.agent, spec, toolchain=toolchain)
        modules = [benchmarks[n] for n in ("gsm", "adpcm", "aes", "sha")]
        singles = [runner.infer(m)[0] for m in modules]
        before = toolchain.samples_taken
        batch = runner.infer_batch(modules)
        assert batch == singles
        # Inference is observation assembly only — zero simulator samples.
        assert toolchain.samples_taken == before

    def test_multi_action_inference(self, benchmarks):
        toolchain = HLSToolchain()
        trainer = _tiny_trainer("RL-PPO3", [benchmarks["gsm"]], toolchain,
                                episode_length=6)
        spec = PolicySpec.from_trainer(trainer)
        assert spec.multi_action and spec.sequence_length == 6
        runner = PolicyRunner(trainer.agent, spec, toolchain=toolchain)
        before = toolchain.samples_taken
        seqs = runner.infer_batch([benchmarks["adpcm"], benchmarks["aes"]])
        assert toolchain.samples_taken == before
        assert all(len(seq) == 6 for seq in seqs)
        assert seqs == runner.infer_batch([benchmarks["adpcm"],
                                           benchmarks["aes"]])

    def test_optimize_never_worse_than_o3(self, benchmarks, trained_ppo2):
        trainer, toolchain = trained_ppo2
        runner = PolicyRunner(
            trainer.agent,
            PolicySpec(observation="both", episode_length=5,
                       normalization="log"),
            toolchain=toolchain)
        for decision in runner.optimize_batch(
                [benchmarks[n] for n in ("adpcm", "mpeg2", "blowfish")],
                refine=3):
            assert decision.cycles is not None
            assert decision.cycles <= decision.o3_cycles
            assert decision.source in ("policy", "o3", "search")
            assert decision.improvement_over_o3 >= 0.0
            if decision.source == "policy":
                assert decision.sequence == decision.policy_sequence

    def test_optimize_refine_deterministic(self, benchmarks, trained_ppo2):
        trainer, toolchain = trained_ppo2
        runner = PolicyRunner(
            trainer.agent,
            PolicySpec(observation="both", episode_length=5,
                       normalization="log"),
            toolchain=toolchain)
        first = runner.optimize(benchmarks["adpcm"], refine=4, seed=3)
        second = runner.optimize(benchmarks["adpcm"], refine=4, seed=3)
        assert first.to_json() == second.to_json()


class TestRegistry:
    @pytest.mark.parametrize("name,overrides", [
        ("RL-PPO2", {"observation": "both", "normalization": "log"}),
        ("RL-A3C", {}),
        ("RL-ES", {"episode_length": 3}),
        ("RL-PPO3", {"episode_length": 6}),
    ])
    def test_round_trip_all_agent_types(self, benchmarks, tmp_path, name,
                                        overrides):
        toolchain = HLSToolchain()
        trainer = _tiny_trainer(name, [benchmarks["gsm"]], toolchain,
                                **overrides)
        registry = ModelRegistry(str(tmp_path / "models"))
        registry.register(name, trainer)
        runner = registry.load(name, toolchain=toolchain)
        obs = np.random.default_rng(7).normal(
            size=(5, trainer.vec.observation_dim))
        np.testing.assert_array_equal(trainer.agent.act_greedy_batch(obs),
                                      runner.agent.act_greedy_batch(obs))
        assert runner.spec.agent_name == name
        assert runner.spec.observation == trainer.vec.observation

    def test_pruned_space_round_trip(self, benchmarks, tmp_path):
        """Policies trained on filtered feature/action spaces (the §4
        pruning plumbing) must serve through the registry unchanged."""
        toolchain = HLSToolchain()
        feature_indices = [1, 4, 9, 16, 25, 36]
        action_indices = [0, 2, 5, 11, 17, TERMINATE_INDEX]
        trainer = _tiny_trainer("RL-PPO2", [benchmarks["gsm"]], toolchain,
                                observation="both", normalization="log",
                                feature_indices=feature_indices,
                                action_indices=action_indices)
        registry = ModelRegistry(str(tmp_path / "models"))
        registry.register("pruned", trainer)
        runner = registry.load("pruned", toolchain=toolchain)
        assert runner.spec.feature_indices == feature_indices
        assert runner.spec.action_indices == action_indices
        direct = PolicyRunner(trainer.agent, PolicySpec.from_trainer(trainer),
                              toolchain=toolchain)
        module = benchmarks["adpcm"]
        loaded_seq = runner.infer(module)[0]
        assert loaded_seq == direct.infer(module)[0]
        # Pruned actions only: everything emitted is in the kept space.
        assert all(a in action_indices for a in loaded_seq)

    def test_toolchain_mismatch_refused(self, benchmarks, tmp_path,
                                        trained_ppo2):
        trainer, toolchain = trained_ppo2
        registry = ModelRegistry(str(tmp_path / "models"))
        registry.register("prod", trainer)
        other = HLSToolchain(max_steps=123_456)   # different fingerprint
        with pytest.raises(PolicyMismatchError, match="trained against"):
            registry.load("prod", toolchain=other)
        runner = registry.load("prod", toolchain=other, allow_mismatch=True)
        assert runner.spec.agent_name == "RL-PPO2"

    def test_integrity_check(self, benchmarks, tmp_path, trained_ppo2):
        trainer, toolchain = trained_ppo2
        registry = ModelRegistry(str(tmp_path / "models"))
        entry_id = registry.register("prod", trainer)
        npz = os.path.join(registry.root, "objects", entry_id, "policy.npz")
        with np.load(npz) as data:
            arrays = {k: data[k] for k in data.files}
        key = next(k for k in arrays if k != "leaves")
        arrays[key] = np.asarray(arrays[key]) + 1.0
        with open(npz, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(RegistryError, match="integrity"):
            registry.load("prod", toolchain=toolchain)

    def test_unknown_name_and_remove(self, benchmarks, tmp_path,
                                     trained_ppo2):
        trainer, toolchain = trained_ppo2
        registry = ModelRegistry(str(tmp_path / "models"))
        with pytest.raises(RegistryError, match="no policy named"):
            registry.resolve("nope")
        registry.register("prod", trainer)
        assert registry.names() == ["prod"]
        assert registry.entries()[0]["agent"] == "RL-PPO2"
        registry.remove("prod")
        assert registry.names() == []

    def test_content_addressed_ids(self, benchmarks, tmp_path, trained_ppo2):
        """Identical policies hash to identical entry ids (the npz
        container's timestamps must not leak into the address)."""
        trainer, toolchain = trained_ppo2
        registry = ModelRegistry(str(tmp_path / "models"))
        first = registry.register("a", trainer)
        second = registry.register("b", trainer)
        assert first == second


class TestCheckpointFingerprint:
    def test_restore_rejects_different_toolchain(self, benchmarks, tmp_path):
        toolchain = HLSToolchain()
        trainer = _tiny_trainer("RL-PPO2", [benchmarks["gsm"]], toolchain,
                                observation="both")
        path = str(tmp_path / "ckpt.npz")
        trainer.save_checkpoint(path)
        same = Trainer("RL-PPO2", [benchmarks["gsm"]],
                       toolchain=HLSToolchain(), seed=0,
                       observation="both", **TINY)
        same.restore(path)          # same fingerprint: fine
        other = Trainer("RL-PPO2", [benchmarks["gsm"]],
                        toolchain=HLSToolchain(max_steps=123_456), seed=0,
                        observation="both", **TINY)
        with pytest.raises(ValueError, match="different pass table"):
            other.restore(path)


@pytest.fixture()
def policy_service(benchmarks, tmp_path, trained_ppo2):
    """A running PolicyServer + connected client over the shared policy."""
    trainer, toolchain = trained_ppo2
    registry = ModelRegistry(str(tmp_path / "models"))
    registry.register("prod", trainer)
    server = PolicyServer(str(tmp_path / "policy.sock"), registry=registry,
                          policies=["prod"], toolchain=toolchain)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = InferenceClient(server.socket_path)
    yield server, client, registry, toolchain
    client.close()
    server.initiate_shutdown()
    thread.join(timeout=10)
    server.close()


class TestPolicyServer:
    def test_end_to_end_bit_identical_zero_samples(self, policy_service):
        """The acceptance loop: registry add → serve-policy →
        InferenceClient returns, for a held-out generated program, the
        same sequence as a direct PolicyRunner — and the warm repeat
        (serve + engine verification) costs zero simulator samples."""
        server, client, registry, toolchain = policy_service
        assert client.ping()
        from repro.service.server import resolve_program_spec

        spec = "gen:4"   # a generated program that passes the HLS filter
        served = client.infer(spec)
        runner = registry.load("prod", toolchain=toolchain)
        module = resolve_program_spec(spec)
        direct, optimized = runner.infer(module)
        assert served == direct
        served_cycles = toolchain.engine.evaluate(module, served)
        assert served_cycles == toolchain.cycle_count(optimized)
        # Warm repeat: inference + engine verification, zero samples.
        before = toolchain.samples_taken
        assert client.infer(spec) == direct
        assert toolchain.engine.evaluate(module, served) == served_cycles
        assert toolchain.samples_taken == before

    def test_concurrent_requests_batch(self, policy_service):
        server, client, registry, toolchain = policy_service
        specs = ["gsm", "adpcm", "aes", "sha", "gsm", "blowfish"]
        futures = [client.submit_infer(s) for s in specs]
        results = [f.result(timeout=120) for f in futures]
        singles = [client.infer(s) for s in specs]
        assert results == singles
        # batching may never change an answer: pipelined == one at a
        # time == the in-process runner
        runner = registry.load("prod", toolchain=toolchain)
        assert results == runner.infer_batch(
            [chstone.build(s) for s in specs])
        stats = client.stats()
        assert stats["requests"] >= len(specs) * 2
        assert stats["errors"] == 0
        # requests fired before waiting share a wave over the socket too
        assert stats["max_batch"] >= 2

    def test_batching_core_one_forward_per_step(self, policy_service):
        """Deterministic coalescing check, no socket timing involved:
        a 4-request batch through the batcher core costs one policy
        forward per rollout step, not one per request."""
        from concurrent.futures import Future

        from repro.deploy.server import _Pending

        server, client, registry, toolchain = policy_service
        runner = server._runner("prod")
        batch = [_Pending("infer", "prod", spec, (), Future())
                 for spec in ("gsm", "adpcm", "aes", "sha")]
        before = runner.forwards
        server._run_batch(batch)
        sequences = [item.future.result(timeout=0) for item in batch]
        forwards = runner.forwards - before
        longest = max(len(s["sequence"]) for s in sequences)
        assert forwards <= runner.spec.episode_length
        assert forwards >= 1 and forwards <= longest + 1
        assert server.stats["max_batch"] >= 4
        assert server.stats["batched_requests"] >= 4

    def test_optimize_over_socket(self, policy_service):
        server, client, registry, toolchain = policy_service
        decision = client.optimize("adpcm", refine=2, seed=1)
        runner = registry.load("prod", toolchain=toolchain)
        direct = runner.optimize(chstone.build("adpcm"), refine=2, seed=1)
        assert decision["sequence"] == [int(a) for a in direct.sequence]
        assert decision["cycles"] == direct.cycles
        assert decision["source"] == direct.source
        assert decision["cycles"] <= decision["o3_cycles"]

    def test_errors_reach_client(self, policy_service):
        server, client, registry, toolchain = policy_service
        with pytest.raises(InferenceError, match="no policy named"):
            client.infer("gsm", policy="missing")
        with pytest.raises(InferenceError, match="unknown program spec"):
            client.infer("not-a-benchmark")
        # the connection survives failed requests
        assert client.infer("gsm") == client.infer("gsm")

    def test_shutdown_rejects_queued_cleanly(self, benchmarks, tmp_path,
                                             trained_ppo2):
        trainer, toolchain = trained_ppo2
        registry = ModelRegistry(str(tmp_path / "models2"))
        registry.register("prod", trainer)
        server = PolicyServer(str(tmp_path / "p2.sock"), registry=registry,
                              policies=["prod"], toolchain=toolchain)
        # Closing flag set: new requests fail with the clean error...
        server._closing = True
        future = server.enqueue({"op": "infer", "program": "gsm"})
        with pytest.raises(ServerClosing):
            future.result(timeout=1)
        # ...and the shutdown drain fails (never hangs) anything that
        # slipped into the queue behind the stop sentinel.
        from concurrent.futures import Future

        from repro.deploy.server import _Pending

        server.close()                      # batcher has exited
        stuck = _Pending("infer", "prod", "gsm", (), Future())
        server._queue.put(stuck)
        server._fail_queued()
        with pytest.raises(ServerClosing):
            stuck.future.result(timeout=1)

    def test_shutdown_op_stops_server(self, benchmarks, tmp_path,
                                      trained_ppo2):
        trainer, toolchain = trained_ppo2
        registry = ModelRegistry(str(tmp_path / "models3"))
        registry.register("prod", trainer)
        server = PolicyServer(str(tmp_path / "p3.sock"), registry=registry,
                              policies=["prod"], toolchain=toolchain)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        with InferenceClient(server.socket_path) as client:
            assert client.infer("gsm") is not None
            client.shutdown_server()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_signal_installer_routes_sigterm(self):
        from repro.transport import install_shutdown_signals

        fired = threading.Event()
        restore = install_shutdown_signals(fired.set)
        try:
            os.kill(os.getpid(), signal.SIGTERM)
            assert fired.wait(timeout=5)
        finally:
            restore()


class TestGeneralization:
    def test_harness_end_to_end(self, tiny_corpus, tmp_path, monkeypatch):
        from repro.experiments import get_scale, run_generalization

        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path / "results"))
        registry = ModelRegistry(str(tmp_path / "models"))
        result = run_generalization(
            scale=get_scale("smoke"), seed=0,
            registry=registry, policy_name="gen-test",
            episodes=2, search_budget=3, refine=1,
            train_programs=tiny_corpus[:2], test_programs=tiny_corpus[2:])
        assert len(result.rows) == len(tiny_corpus) - 2
        assert registry.names() == ["gen-test"]
        assert result.served_improvement >= 0.0
        for row in result.rows:
            assert row.o3_cycles > 0
            assert row.search_samples == 3
            assert row.source in ("policy", "o3", "search")
        csv_path = result.to_csv()
        assert os.path.exists(csv_path)
        rendered = result.render()
        assert "held-out" in rendered and "gen-test" in rendered


class TestCLI:
    def test_models_and_optimize(self, benchmarks, tmp_path, capsys,
                                 trained_ppo2):
        from repro.cli import main

        trainer, toolchain = trained_ppo2
        root = str(tmp_path / "models")
        ModelRegistry(root).register("prod", trainer)
        assert main(["models", "list", "--registry", root]) == 0
        out = capsys.readouterr().out
        assert "prod" in out and "RL-PPO2" in out
        assert main(["optimize", "gsm", "--policy", "prod",
                     "--registry", root, "--refine", "1"]) == 0
        out = capsys.readouterr().out
        assert "cycles vs -O3" in out
        assert main(["models", "show", "prod", "--registry", root]) == 0
        meta = json.loads(capsys.readouterr().out)
        assert meta["spec"]["agent_name"] == "RL-PPO2"

    def test_train_register_checkpoint_cli(self, tmp_path, capsys,
                                           monkeypatch):
        """CLI face of the acceptance loop: `repro train --checkpoint
        --register` leaves both a resumable checkpoint and a loadable
        registry entry behind."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_SCALE", "smoke")
        root = str(tmp_path / "models")
        ckpt = str(tmp_path / "ckpt.npz")
        assert main(["train", "--agent", "RL-PPO2", "--benchmark", "gsm",
                     "--episodes", "2", "--observation", "both",
                     "--checkpoint", ckpt,
                     "--register", "cli-prod", "--registry", root]) == 0
        assert os.path.exists(ckpt)
        runner = ModelRegistry(root).load("cli-prod")
        assert runner.spec.agent_name == "RL-PPO2"
        seq = runner.infer(chstone.build("adpcm"))[0]
        assert isinstance(seq, list)
