"""The five Table-3 agent configurations and their training loops.

| name     | algorithm | observation                     | action space  |
|----------|-----------|---------------------------------|---------------|
| RL-PPO1  | PPO       | program features (reward ≡ 0)   | single action |
| RL-PPO2  | PPO       | action history                  | single action |
| RL-PPO3  | PPO       | action history + features       | multi action  |
| RL-A3C   | A2C("A3C")| program features                | single action |
| RL-ES    | ES        | program features                | single action |

``train_agent`` dispatches on the configuration and returns a
:class:`TrainResult` with the best sequence found, the simulator sample
count, and the per-episode reward history (Figure 8's y-axis). It is a
thin compatibility wrapper over :class:`~repro.rl.trainer.Trainer`, the
vectorized rollout driver — ``lanes=1`` (the default) reproduces the
pre-vectorization sequential loops draw-for-draw (the loops themselves
live in ``tests/test_trainer.py``, beside the determinism tests that
compare against them), while ``lanes=N`` batches N episodes per policy
step through the engine/service stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.module import Module
from ..toolchain import HLSToolchain
from .a2c import A2CAgent, A2CConfig
from .env import MultiActionEnv, PhaseOrderEnv
from .es import ESAgent, ESConfig
from .ppo import PPOAgent, PPOConfig

__all__ = ["AGENT_NAMES", "TABLE3", "TrainResult", "make_agent", "train_agent",
           "infer_sequence"]  # Trainer/VectorEnv live in .trainer/.vec_env

AGENT_NAMES = ("RL-PPO1", "RL-PPO2", "RL-PPO3", "RL-A3C", "RL-ES")

# Table 3 rows: (algorithm, observation space, action space).
TABLE3: Dict[str, Tuple[str, str, str]] = {
    "RL-PPO1": ("PPO", "Program Features", "Single-Action"),
    "RL-PPO2": ("PPO", "Action History", "Single-Action"),
    "RL-PPO3": ("PPO", "Action History + Program Features", "Multiple-Action"),
    "RL-A3C": ("A3C", "Program Features", "Single-Action"),
    "RL-ES": ("ES", "Program Features", "Single-Action"),
}


@dataclass
class TrainResult:
    agent_name: str
    # None when every episode failed HLS compilation (no candidate was
    # ever profiled) — int(np.inf) used to raise OverflowError here.
    best_cycles: Optional[int]
    best_sequence: List[int]
    samples: int
    episode_rewards: List[float] = field(default_factory=list)
    agent: object = None
    env: object = None

    def episode_reward_mean(self, window: int = 10) -> List[float]:
        """Smoothed learning curve (Figure 8's metric)."""
        out = []
        for i in range(len(self.episode_rewards)):
            lo = max(0, i - window + 1)
            out.append(float(np.mean(self.episode_rewards[lo:i + 1])))
        return out


def make_agent(name: str, programs: Sequence[Module],
               toolchain: Optional[HLSToolchain] = None,
               episode_length: int = 12,
               feature_indices: Optional[Sequence[int]] = None,
               action_indices: Optional[Sequence[int]] = None,
               normalization: Optional[str] = None,
               reward_mode: str = "delta",
               hidden: Tuple[int, int] = (256, 256),
               observation: Optional[str] = None,
               seed: int = 0):
    """Build (env, agent) for one Table-3 configuration.

    ``observation`` overrides the Table-3 default — the §6.2
    generalization experiments train a PPO agent on the concatenation of
    features and action history ('both').
    """
    toolchain = toolchain or HLSToolchain()
    common = dict(programs=programs, toolchain=toolchain,
                  feature_indices=feature_indices,
                  normalization=normalization, reward_mode=reward_mode, seed=seed)
    if name == "RL-PPO3":
        env = MultiActionEnv(observation=observation or "both",
                             sequence_length=episode_length,
                             episode_length=max(4, episode_length // 3), **common)
        agent = PPOAgent(env.observation_dim, MultiActionEnv.SUB_ACTIONS,
                         heads=env.num_slots,
                         config=PPOConfig(hidden=hidden, seed=seed))
        return env, agent

    default_obs = {"RL-PPO1": "features", "RL-PPO2": "histogram",
                   "RL-A3C": "features", "RL-ES": "features"}[name]
    env = PhaseOrderEnv(observation=observation or default_obs, episode_length=episode_length,
                        action_indices=action_indices,
                        zero_reward=(name == "RL-PPO1"), **common)
    if name in ("RL-PPO1", "RL-PPO2"):
        agent = PPOAgent(env.observation_dim, env.num_actions,
                         config=PPOConfig(hidden=hidden, seed=seed))
    elif name == "RL-A3C":
        agent = A2CAgent(env.observation_dim, env.num_actions,
                         config=A2CConfig(hidden=hidden, seed=seed))
    elif name == "RL-ES":
        agent = ESAgent(env.observation_dim, env.num_actions,
                        config=ESConfig(hidden=hidden, seed=seed))
    else:
        raise KeyError(f"unknown agent {name!r}; choose from {AGENT_NAMES}")
    return env, agent


def train_agent(name: str, programs: Sequence[Module], episodes: int = 20,
                update_every: int = 2, lanes: int = 1, **kwargs) -> TrainResult:
    """Train one configuration; returns best-found sequence + bookkeeping.

    Compatibility wrapper over :class:`~repro.rl.trainer.Trainer`:
    ``lanes=1`` reproduces the legacy sequential loop bit-for-bit,
    ``lanes=N`` runs N episode lanes per synchronized policy step with
    all pending evaluations batched through the engine/service stack.
    """
    from .trainer import Trainer

    trainer = Trainer(name, programs, episodes=episodes,
                      update_every=update_every, lanes=lanes, **kwargs)
    return trainer.train()


def infer_sequence(agent, module: Module, length: int = 12,
                   observation: str = "both",
                   feature_indices: Optional[Sequence[int]] = None,
                   action_indices: Optional[Sequence[int]] = None,
                   normalization: Optional[str] = None,
                   toolchain: Optional[HLSToolchain] = None) -> Tuple[List[int], Module]:
    """Zero-shot inference (Figure 9): greedy policy rollout with NO
    intermediate profiling — features update as passes apply, and the
    final circuit is the single simulator sample.

    Thin wrapper over :class:`~repro.deploy.policy.PolicyRunner`, so
    figure inference and served inference share one code path (the
    deployment tests pin the sequences bit-identical to the legacy
    loop).
    """
    from ..deploy.policy import PolicyRunner, PolicySpec

    spec = PolicySpec(
        observation=observation, episode_length=length,
        feature_indices=(list(feature_indices)
                         if feature_indices is not None else None),
        action_indices=(list(action_indices)
                        if action_indices is not None else None),
        normalization=normalization)
    return PolicyRunner(agent, spec, toolchain=toolchain).infer(module)
