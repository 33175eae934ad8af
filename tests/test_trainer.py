"""The vectorized rollout layer and unified trainer: lanes=1 determinism
against the legacy sequential loops, lane-count invariance, running
normalizer statistics, checkpoint round-trips, and the all-episodes-fail
sentinel."""

from typing import List, Sequence

import numpy as np
import pytest

from repro.ir.module import Module
from repro.rl.agents import TrainResult, make_agent, train_agent
from repro.rl.es import ESAgent
from repro.rl.normalization import RunningNormalizer
from repro.rl.ppo import PPOAgent, Rollout
from repro.rl.trainer import Trainer
from repro.rl.vec_env import MultiActionVectorEnv, VectorEnv
from repro.toolchain import HLSToolchain


def _train_agent_legacy(name: str, programs: Sequence[Module], episodes: int = 20,
                        update_every: int = 2, **kwargs) -> TrainResult:
    """The pre-vectorization sequential training loops over the gym
    envs, kept verbatim (they lived in ``repro.rl.agents`` until the
    vectorized trainer became the only shipped loop) as the anchored
    reference: :class:`TestLanes1Determinism` compares :class:`Trainer`
    output against this implementation reward-for-reward."""
    env, agent = make_agent(name, programs, **kwargs)
    env.toolchain.reset_sample_counter()

    best_cycles = np.inf
    best_sequence: List[int] = []
    episode_rewards: List[float] = []

    def note_best(info) -> None:
        nonlocal best_cycles, best_sequence
        if info["best_cycles"] < best_cycles:
            best_cycles = info["best_cycles"]
            best_sequence = info["best_sequence"]

    if name == "RL-ES":
        assert isinstance(agent, ESAgent)

        def evaluate() -> float:
            obs = env.reset()
            total, done = 0.0, False
            while not done:
                action = agent.act(obs)
                obs, reward, done, info = env.step(int(action[0]))
                total += reward
            note_best(info)
            episode_rewards.append(total)
            return total

        def evaluate_population(thetas) -> List[float]:
            # The ES generation's population-scoring seam: one
            # engine-backed episode per perturbed weight vector, in
            # antithetic order. Trainer._score_population is the
            # vectorized successor (lane-parallel, StackedMLP forward);
            # this sequential scorer stays as the anchored reference.
            scores = []
            for theta in thetas:
                agent.policy.set_flat(theta)
                scores.append(evaluate())
            return scores

        generations = max(1, episodes // (2 * agent.config.population))
        for _ in range(generations):
            agent.train_step(evaluate, evaluate_batch=evaluate_population)
    elif name == "RL-PPO3":
        assert isinstance(agent, PPOAgent)
        rollout = Rollout()
        for ep in range(episodes):
            obs = env.reset()
            total, done = 0.0, False
            while not done:
                action, logp, value = agent.act(obs)
                next_obs, reward, done, info = env.step(action)
                rollout.add(obs, action, logp, reward, value, done)
                obs = next_obs
                total += reward
            note_best(info)
            episode_rewards.append(total)
            if (ep + 1) % update_every == 0 and len(rollout):
                agent.update(rollout)
                rollout = Rollout()
    else:
        rollout = Rollout()
        for ep in range(episodes):
            obs = env.reset()
            total, done = 0.0, False
            while not done:
                action, logp, value = agent.act(obs)
                next_obs, reward, done, info = env.step(int(action[0]))
                rollout.add(obs, action, logp, reward, value, done)
                obs = next_obs
                total += reward
            note_best(info)
            episode_rewards.append(total)
            if (ep + 1) % update_every == 0 and len(rollout):
                agent.update(rollout)
                rollout = Rollout()

    return TrainResult(
        agent_name=name,
        best_cycles=int(best_cycles) if np.isfinite(best_cycles) else None,
        best_sequence=best_sequence,
        # Candidate evaluations, the same unit SequenceEvaluator.samples
        # reports for the black-box rows — Figure 7 compares one axis.
        # (env.toolchain.samples_taken holds the true, cache-discounted
        # simulator-invocation count.)
        samples=int(env.evaluations),
        episode_rewards=episode_rewards,
        agent=agent,
        env=env,
    )


class TestLanes1Determinism:
    """Satellite guard: a seeded one-lane Trainer must reproduce the
    legacy sequential loop bit-for-bit, so Fig 8/9 stay anchored."""

    @pytest.mark.parametrize("name,kwargs", [
        ("RL-PPO2", dict(episodes=3, episode_length=4)),
        ("RL-ES", dict(episodes=4, episode_length=4)),
        ("RL-PPO3", dict(episodes=2, episode_length=6)),
    ])
    def test_matches_legacy_loop(self, benchmarks, name, kwargs):
        legacy = _train_agent_legacy(name, [benchmarks["gsm"]], seed=0, **kwargs)
        new = train_agent(name, [benchmarks["gsm"]], seed=0, lanes=1, **kwargs)
        assert legacy.episode_rewards == new.episode_rewards
        assert legacy.best_sequence == new.best_sequence
        assert legacy.best_cycles == new.best_cycles
        assert legacy.samples == new.samples

    def test_feature_observation_matches_legacy(self, benchmarks):
        """Feature observations now ride the module-free sequence-space
        path (engine feature memo) — still bit-identical to the legacy
        incremental-module loop."""
        kwargs = dict(episodes=2, episode_length=3, observation="both",
                      normalization="instcount", seed=3)
        legacy = _train_agent_legacy("RL-PPO2", [benchmarks["mpeg2"]], **kwargs)
        new = train_agent("RL-PPO2", [benchmarks["mpeg2"]], lanes=1, **kwargs)
        assert legacy.episode_rewards == new.episode_rewards
        assert legacy.samples == new.samples


class TestVectorizedTraining:
    def test_ppo_multi_lane_trains(self, benchmarks):
        result = train_agent("RL-PPO2", [benchmarks["mpeg2"]], episodes=6,
                             lanes=3, episode_length=4, seed=0,
                             observation="histogram")
        assert len(result.episode_rewards) == 6
        assert result.samples > 0
        assert result.best_cycles <= result.env.initial_cycles
        assert isinstance(result.env, VectorEnv)

    def test_multi_action_multi_lane_trains(self, benchmarks):
        result = train_agent("RL-PPO3", [benchmarks["mpeg2"]], episodes=4,
                             lanes=2, episode_length=6, seed=0)
        assert len(result.episode_rewards) == 4
        assert len(result.best_sequence) == 6
        assert isinstance(result.env, MultiActionVectorEnv)

    def test_greedy_es_is_lane_count_invariant(self, benchmarks):
        """Greedy population scoring draws each member's program from its
        episode-index stream and acts deterministically, so rewards, best
        sequence and simulator samples are identical at every lane width
        — including on a multi-program corpus, where per-lane draws would
        diverge."""
        corpus = [benchmarks["mpeg2"], benchmarks["gsm"]]
        runs = {}
        for lanes in (1, 3):
            tc = HLSToolchain()
            trainer = Trainer("RL-ES", corpus, episodes=16,
                              lanes=lanes, episode_length=4,
                              observation="histogram", es_greedy_eval=True,
                              toolchain=tc, seed=1)
            result = trainer.train()
            runs[lanes] = (result.episode_rewards, result.best_sequence,
                           tc.samples_taken, result.samples)
        assert runs[1] == runs[3]

    def test_episode_seeded_ppo_is_lane_count_invariant(self, benchmarks,
                                                        tmp_path):
        """Rewards, best sequence and simulator samples do not depend on
        the lane count — under histogram and feature observations, on
        the engine and through a service worker — and a second run on
        the same toolchain is answered from the memos: no samples."""
        corpus = [benchmarks["mpeg2"]] * 2

        def train(toolchain, lanes, observation):
            trainer = Trainer("RL-PPO2", corpus, episodes=8, update_every=8,
                              lanes=lanes, episode_length=4,
                              observation=observation, episode_seeding=True,
                              hidden=(16, 16), toolchain=toolchain, seed=2)
            result = trainer.train()
            return (result.episode_rewards, result.best_sequence,
                    toolchain.samples_taken)

        for backend, observation in (("engine", "histogram"),
                                     ("engine", "features"),
                                     ("service", "histogram")):
            runs = {}
            for lanes in (1, 4):
                tc = HLSToolchain(backend=backend, service_config={
                    "workers": 1, "store_dir": str(tmp_path / f"l{lanes}")}
                    if backend == "service" else None)
                try:
                    runs[lanes] = train(tc, lanes, observation)
                    assert runs[lanes][2] > 0
                    assert train(tc, lanes, observation) == \
                        runs[lanes][:2] + (0,)
                finally:
                    tc.close()
            assert runs[1] == runs[4], (backend, observation)

    def test_refuses_a_toolchain_without_an_engine(self, benchmarks):
        """``use_engine=False`` is the uncached reference façade; the
        sequential envs step it, the vectorized layers refuse it."""
        from repro.rl.env import MultiActionEnv, PhaseOrderEnv

        bare = HLSToolchain(use_engine=False)
        programs = [benchmarks["gsm"]]
        for build in (
                lambda: VectorEnv(PhaseOrderEnv(programs, toolchain=bare), 1),
                lambda: MultiActionVectorEnv(
                    MultiActionEnv(programs, toolchain=bare), 1),
                lambda: Trainer("RL-PPO2", programs, toolchain=bare)):
            with pytest.raises(ValueError, match="uncached reference"):
                build()

    def test_service_backend_matches_engine(self, benchmarks, tmp_path):
        """The vector env's submit() fan-out path (service backend) must
        stay bit-identical to the engine batch path."""
        results = {}
        for backend in ("engine", "service"):
            tc = HLSToolchain(backend=backend, service_config={
                "workers": 0, "store_dir": str(tmp_path)} if backend == "service"
                else None)
            result = train_agent("RL-PPO2", [benchmarks["mpeg2"]], episodes=4,
                                 lanes=2, episode_length=3, seed=0,
                                 observation="histogram", toolchain=tc)
            results[backend] = (result.episode_rewards, result.best_sequence)
            tc.close()
        assert results["engine"] == results["service"]

    def test_all_episodes_failing_returns_sentinel(self, benchmarks):
        """Satellite regression: when every episode fails HLS compilation
        the old loop left best_cycles = inf and raised OverflowError at
        int(np.inf); the trainer reports the sentinel instead."""
        tc = HLSToolchain(max_steps=1)  # every profile blows the budget
        result = train_agent("RL-PPO2", [benchmarks["gsm"]], episodes=2,
                             episode_length=3, seed=0, toolchain=tc,
                             observation="histogram")
        assert result.best_cycles is None
        assert result.best_sequence == []
        # dead episodes consume budget but fabricate no reward points
        assert result.episode_rewards == []

    def test_running_obs_norm_trains(self, benchmarks):
        result = train_agent("RL-PPO2", [benchmarks["mpeg2"]], episodes=4,
                             lanes=2, episode_length=3, seed=0,
                             observation="histogram",
                             normalize_observations=True)
        assert len(result.episode_rewards) == 4


class TestRunningNormalizer:
    def test_batch_update_equals_sequential(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(40, 7)) * rng.uniform(0.1, 30, size=7)
        batched = RunningNormalizer(7)
        sequential = RunningNormalizer(7)
        for start in range(0, 40, 8):
            chunk = data[start:start + 8]
            batched.update(chunk)
            for row in chunk:
                sequential.update(row)
        assert batched.count == sequential.count
        assert np.allclose(batched.mean, sequential.mean, rtol=1e-12)
        assert np.allclose(batched.var, sequential.var, rtol=1e-10)
        assert np.allclose(batched.mean, data.mean(axis=0), rtol=1e-10)
        assert np.allclose(batched.var, data.var(axis=0), rtol=1e-10)

    def test_normalize_whitens_and_clips(self):
        norm = RunningNormalizer(2, clip=3.0)
        norm.update(np.array([[0.0, 0.0], [2.0, 200.0]]))
        out = norm.normalize(np.array([1.0, 100.0]))
        assert np.allclose(out, 0.0)
        assert (norm.normalize(np.array([1e9, 1e9])) <= 3.0).all()

    def test_state_dict_round_trip(self):
        a = RunningNormalizer(3)
        a.update(np.arange(12, dtype=np.float64).reshape(4, 3))
        b = RunningNormalizer(3)
        b.load_state_dict(a.state_dict())
        probe = np.array([5.0, -2.0, 11.0])
        assert np.array_equal(a.normalize(probe), b.normalize(probe))


class TestCheckpointing:
    def _trainer(self, benchmarks, **overrides):
        kwargs = dict(episodes=4, update_every=2, lanes=2, episode_length=3,
                      observation="histogram", normalize_observations=True,
                      seed=5)
        kwargs.update(overrides)
        return Trainer("RL-PPO2", [benchmarks["mpeg2"]], **kwargs)

    def test_round_trip_identical_greedy_actions(self, benchmarks, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        trainer = self._trainer(benchmarks)
        trainer.train()
        trainer.save_checkpoint(path)

        fresh = self._trainer(benchmarks)
        probe = np.random.default_rng(0).normal(
            size=(5, trainer.vec.observation_dim))
        assert not np.array_equal(fresh.agent.policy.get_flat(),
                                  trainer.agent.policy.get_flat())
        fresh.restore(path)
        # restore actually loaded the trained weights...
        assert np.array_equal(fresh.agent.policy.get_flat(),
                              trainer.agent.policy.get_flat())
        # ...and greedy inference is bit-identical.
        assert np.array_equal(fresh.agent.act_greedy_batch(probe),
                              trainer.agent.act_greedy_batch(probe))
        assert fresh.episodes_done == trainer.episodes_done
        assert fresh.episode_rewards == trainer.episode_rewards
        assert np.array_equal(fresh.normalizer.mean, trainer.normalizer.mean)

    def test_resume_continues_identically(self, benchmarks, tmp_path):
        """Checkpoint at an update boundary, resume in a fresh trainer:
        the continued run must match an uninterrupted one
        reward-for-reward."""
        path = str(tmp_path / "ckpt.npz")
        full = self._trainer(benchmarks, episodes=6)
        full_result = full.train()

        half = self._trainer(benchmarks, episodes=4)
        half.train()
        half.save_checkpoint(path)
        resumed = self._trainer(benchmarks, episodes=6)
        resumed.restore(path)
        resumed_result = resumed.train()
        assert resumed_result.episode_rewards == full_result.episode_rewards
        assert resumed_result.best_sequence == full_result.best_sequence
        assert resumed_result.samples == full_result.samples

    def test_resume_carries_pending_rollout(self, benchmarks, tmp_path):
        """A checkpoint taken off an update boundary must carry the
        trailing partial rollout, or the resumed run diverges and those
        episodes never contribute a gradient."""
        path = str(tmp_path / "ckpt.npz")
        full = self._trainer(benchmarks, episodes=4, lanes=1)
        full_result = full.train()

        part = self._trainer(benchmarks, episodes=3, lanes=1)
        part.train()  # update at ep 2; ep 3 sits in the pending rollout
        assert len(part._rollout)
        part.save_checkpoint(path)
        resumed = self._trainer(benchmarks, episodes=4, lanes=1)
        resumed.restore(path)
        resumed_result = resumed.train()
        assert resumed_result.episode_rewards == full_result.episode_rewards
        assert resumed_result.samples == full_result.samples

    def test_es_checkpoint_round_trip(self, benchmarks, tmp_path):
        path = str(tmp_path / "es.npz")
        trainer = Trainer("RL-ES", [benchmarks["mpeg2"]], episodes=16,
                          lanes=2, episode_length=3, observation="histogram",
                          es_greedy_eval=True, seed=1)
        trainer.train()
        trainer.save_checkpoint(path)
        fresh = Trainer("RL-ES", [benchmarks["mpeg2"]], episodes=16,
                        lanes=2, episode_length=3, observation="histogram",
                        es_greedy_eval=True, seed=1)
        fresh.restore(path)
        probe = np.random.default_rng(3).normal(
            size=(4, trainer.vec.observation_dim))
        assert np.array_equal(fresh.agent.act_greedy_batch(probe),
                              trainer.agent.act_greedy_batch(probe))

    def test_wrong_agent_rejected(self, benchmarks, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        trainer = self._trainer(benchmarks)
        trainer.save_checkpoint(path)
        other = Trainer("RL-A3C", [benchmarks["mpeg2"]], episodes=2,
                        episode_length=3, seed=0)
        with pytest.raises(ValueError):
            other.restore(path)

    def test_lane_count_mismatch_rejected(self, benchmarks, tmp_path):
        """Lane RNG streams are positional — resuming at a different
        width would silently break the exact-resume contract."""
        path = str(tmp_path / "ckpt.npz")
        self._trainer(benchmarks, lanes=2).save_checkpoint(path)
        with pytest.raises(ValueError, match="lanes"):
            self._trainer(benchmarks, lanes=4).restore(path)

    def test_corpus_mismatch_rejected(self, benchmarks, tmp_path):
        """The CLI auto-resumes whenever the file exists; a checkpoint
        from a different corpus must not be silently mixed in."""
        path = str(tmp_path / "ckpt.npz")
        self._trainer(benchmarks).save_checkpoint(path)
        other = Trainer("RL-PPO2", [benchmarks["gsm"]], episodes=4,
                        update_every=2, lanes=2, episode_length=3,
                        observation="histogram", normalize_observations=True,
                        seed=5)
        with pytest.raises(ValueError, match="corpus"):
            other.restore(path)


class TestPruningStage:
    """The paper's collect → forest → prune → train loop wired into the
    Trainer (and the `repro train --prune-features/--prune-passes` CLI)."""

    def test_trainer_prunes_feature_and_action_spaces(self, benchmarks):
        from repro.features.table import NUM_FEATURES
        from repro.passes.registry import NUM_ACTIONS, TERMINATE_INDEX

        trainer = Trainer("RL-PPO1", [benchmarks["gsm"]], episodes=2,
                          lanes=2, episode_length=3, prune_features=10,
                          prune_passes=6, prune_episodes=4, seed=2)
        assert trainer.pruning is not None
        assert len(trainer.pruning.feature_indices) == 10 < NUM_FEATURES
        assert TERMINATE_INDEX in trainer.pruning.action_indices
        assert len(trainer.pruning.action_indices) <= 7 < NUM_ACTIONS
        # the pruned spaces reach the env through the existing plumbing
        assert trainer.vec.observation_dim == 10
        assert trainer.vec.num_actions == len(trainer.pruning.action_indices)
        result = trainer.train()
        assert len(result.episode_rewards) == 2

    def test_prune_conflicts_with_explicit_filters(self, benchmarks):
        with pytest.raises(ValueError, match="conflict"):
            Trainer("RL-PPO1", [benchmarks["gsm"]], episodes=1,
                    prune_features=4, feature_indices=[0, 1, 2])

    def test_prune_spaces_is_deterministic(self, benchmarks):
        from repro.rl.trainer import prune_spaces

        a = prune_spaces([benchmarks["gsm"]], top_features=8, top_passes=5,
                         episodes=4, episode_length=3, seed=3)
        b = prune_spaces([benchmarks["gsm"]], top_features=8, top_passes=5,
                         episodes=4, episode_length=3, seed=3)
        assert a.feature_indices == b.feature_indices
        assert a.action_indices == b.action_indices

    def test_prune_spaces_is_lane_count_invariant(self, benchmarks):
        """The training lane count must not change which spaces get
        pruned (collection always uses per-episode action streams)."""
        from repro.rl.trainer import prune_spaces

        a = prune_spaces([benchmarks["gsm"]], top_features=8, top_passes=5,
                         episodes=4, episode_length=3, seed=3, lanes=1)
        b = prune_spaces([benchmarks["gsm"]], top_features=8, top_passes=5,
                         episodes=4, episode_length=3, seed=3, lanes=4)
        assert a.feature_indices == b.feature_indices
        assert a.action_indices == b.action_indices

    def test_prune_rejects_nonpositive_budgets(self, benchmarks):
        from repro.rl.trainer import prune_spaces

        with pytest.raises(ValueError, match="positive"):
            prune_spaces([benchmarks["gsm"]], top_features=0, episodes=2)
        with pytest.raises(ValueError, match="positive"):
            Trainer("RL-PPO1", [benchmarks["gsm"]], episodes=1,
                    prune_passes=-1)

    def test_cli_prune_train_end_to_end_service_backend(self, tmp_path,
                                                        monkeypatch):
        """Acceptance: `repro train --prune-features K --prune-passes K`
        runs the full collect → forest → prune → train loop through the
        service backend."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_EVAL_BACKEND", "service")
        monkeypatch.setenv("REPRO_SERVICE_WORKERS", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path / "results"))
        assert main(["train", "--agent", "RL-PPO1", "--episodes", "2",
                     "--lanes", "2", "--prune-features", "8",
                     "--prune-passes", "6", "--prune-episodes", "4",
                     "--scale", "smoke", "--seed", "1"]) == 0
        # the pruning rollouts warmed the persistent store
        from repro.service.store import ResultStore

        assert ResultStore(str(tmp_path / "cache")).stats()["records"] > 0
