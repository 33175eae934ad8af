"""Phase-ordering environments: observation assembly, reward accounting,
termination, filtering, and the multi-action formulation."""

import numpy as np
import pytest

from repro.features.table import NUM_FEATURES
from repro.passes.registry import NUM_ACTIONS, TERMINATE_INDEX, pass_index_for_name
from repro.rl.env import MultiActionEnv, PhaseOrderEnv
from repro.rl.normalization import normalize_features, normalize_reward
from repro.toolchain import HLSToolchain


class TestNormalization:
    def test_log_technique(self):
        f = np.array([0, 1, 99], dtype=np.int64)
        n = normalize_features(f, "log")
        assert n[0] == 0.0
        assert n[1] == pytest.approx(np.log(2))
        assert n[2] == pytest.approx(np.log(100))

    def test_instcount_technique(self):
        f = np.zeros(NUM_FEATURES, dtype=np.int64)
        f[51] = 50
        f[26] = 10
        n = normalize_features(f, "instcount")
        assert n[26] == pytest.approx(0.2)
        assert n[51] == pytest.approx(1.0)

    def test_unknown_technique_rejected(self):
        with pytest.raises(ValueError):
            normalize_features(np.zeros(4), "bogus")

    def test_reward_modes(self):
        assert normalize_reward(100, "delta") == 100.0
        assert normalize_reward(-100, "delta") == -100.0
        assert normalize_reward(100, "log") == pytest.approx(np.log(101))
        assert normalize_reward(-100, "log") == pytest.approx(-np.log(101))
        assert normalize_reward(0, "log") == 0.0


class TestPhaseOrderEnv:
    def _env(self, benchmarks, **kw):
        return PhaseOrderEnv([benchmarks["gsm"]], episode_length=4, seed=1, **kw)

    def test_observation_dims(self, benchmarks):
        assert self._env(benchmarks, observation="features").observation_dim == NUM_FEATURES
        assert self._env(benchmarks, observation="histogram").observation_dim == NUM_ACTIONS
        assert self._env(benchmarks, observation="both").observation_dim == NUM_FEATURES + NUM_ACTIONS

    def test_reset_returns_observation(self, benchmarks):
        env = self._env(benchmarks)
        obs = env.reset()
        assert obs.shape == (env.observation_dim,)
        assert env.prev_cycles > 0

    def test_reward_is_cycle_improvement(self, benchmarks):
        env = self._env(benchmarks)
        env.reset()
        before = env.prev_cycles
        action = env.action_indices.index(pass_index_for_name("-mem2reg"))
        _, reward, _, info = env.step(action)
        assert reward == before - info["cycles"]
        assert reward > 0  # mem2reg always helps these kernels

    def test_histogram_updates(self, benchmarks):
        env = self._env(benchmarks, observation="histogram")
        env.reset()
        idx = pass_index_for_name("-simplifycfg")
        action = env.action_indices.index(idx)
        obs, _, _, _ = env.step(action)
        assert obs[idx] == 1

    def test_terminate_action_ends_episode(self, benchmarks):
        env = self._env(benchmarks)
        env.reset()
        action = env.action_indices.index(TERMINATE_INDEX)
        _, reward, done, info = env.step(action)
        assert done and reward == 0.0 and info["terminated"]

    def test_episode_length_enforced(self, benchmarks):
        env = self._env(benchmarks)
        env.reset()
        nop = env.action_indices.index(pass_index_for_name("-strip"))
        done = False
        steps = 0
        while not done:
            _, _, done, _ = env.step(nop)
            steps += 1
        assert steps == 4

    def test_zero_reward_mode(self, benchmarks):
        env = self._env(benchmarks, zero_reward=True)
        env.reset()
        action = env.action_indices.index(pass_index_for_name("-mem2reg"))
        _, reward, _, _ = env.step(action)
        assert reward == 0.0

    def test_best_sequence_tracked(self, benchmarks):
        env = self._env(benchmarks)
        env.reset()
        a1 = env.action_indices.index(pass_index_for_name("-mem2reg"))
        a2 = env.action_indices.index(pass_index_for_name("-simplifycfg"))
        env.step(a1)
        _, _, _, info = env.step(a2)
        assert info["best_cycles"] <= env.initial_cycles
        assert info["best_sequence"][0] == pass_index_for_name("-mem2reg")

    def test_feature_filtering(self, benchmarks):
        env = self._env(benchmarks, observation="features", feature_indices=[0, 50, 51])
        assert env.observation_dim == 3
        obs = env.reset()
        assert obs.shape == (3,)

    def test_action_filtering(self, benchmarks):
        allowed = [pass_index_for_name("-mem2reg"), pass_index_for_name("-simplifycfg")]
        env = PhaseOrderEnv([benchmarks["gsm"]], action_indices=allowed,
                            use_terminate=False, episode_length=3)
        assert env.num_actions == 2
        env.reset()
        env.step(0)
        assert env.applied == [pass_index_for_name("-mem2reg")]

    def test_sample_accounting(self, benchmarks):
        tc = HLSToolchain()
        env = PhaseOrderEnv([benchmarks["gsm"]], toolchain=tc, episode_length=4)
        tc.reset_sample_counter()
        env.reset()
        env.step(pass_index_for_name("-mem2reg"))
        env.step(pass_index_for_name("-instcombine"))
        # reset profiles once + each step that changed the module once
        assert tc.samples_taken == 3
        env.step(pass_index_for_name("-mem2reg"))  # nothing left to promote:
        assert tc.samples_taken == 3  # the module is the one just profiled

    def test_multi_program_sampling(self, benchmarks, tiny_corpus):
        env = PhaseOrderEnv(tiny_corpus, episode_length=2, seed=0)
        seen = set()
        for _ in range(12):
            env.reset()
            seen.add(env._program_index)
        assert len(seen) > 1


class TestMultiActionEnv:
    def test_reset_initializes_midpoint(self, benchmarks):
        env = MultiActionEnv([benchmarks["gsm"]], sequence_length=6, episode_length=2)
        env.reset()
        assert (env.indices == NUM_ACTIONS // 2).all()

    def test_step_applies_deltas(self, benchmarks):
        env = MultiActionEnv([benchmarks["gsm"]], sequence_length=6, episode_length=3)
        env.reset()
        action = np.full(6, 2)  # all +1
        env.step(action)
        assert (env.indices == NUM_ACTIONS // 2 + 1).all()

    def test_indices_clipped(self, benchmarks):
        env = MultiActionEnv([benchmarks["gsm"]], sequence_length=4, episode_length=50)
        env.reset()
        for _ in range(NUM_ACTIONS):
            env.indices = np.minimum(env.indices + 1, NUM_ACTIONS - 1)
        obs, r, done, info = env.step(np.full(4, 2))
        assert (env.indices <= NUM_ACTIONS - 1).all()

    def test_observation_includes_indices(self, benchmarks):
        env = MultiActionEnv([benchmarks["gsm"]], sequence_length=5,
                             observation="features", episode_length=2)
        assert env.observation_dim == 5 + NUM_FEATURES
        obs = env.reset()
        assert obs.shape == (env.observation_dim,)

    def test_episode_terminates(self, benchmarks):
        env = MultiActionEnv([benchmarks["gsm"]], sequence_length=4, episode_length=2)
        env.reset()
        _, _, done, _ = env.step(np.full(4, 1))
        assert not done
        _, _, done, _ = env.step(np.full(4, 1))
        assert done
