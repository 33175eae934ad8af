"""Evolution strategies (Salimans et al. 2017) as the policy optimizer.

The paper's RL-ES agent keeps the same 256×256 policy network as the
A3C agent but "updates the policy network using the evolution strategy
instead of backpropagation" — i.e. OpenAI-ES: antithetic Gaussian
parameter perturbations, rank-normalized fitness, and a gradient
estimate ĝ = 1/(nσ) Σ F_i ε_i applied with Adam-style steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .nn import MLP, sample_categorical

__all__ = ["ESConfig", "ESAgent"]


@dataclass
class ESConfig:
    hidden: Tuple[int, int] = (256, 256)
    sigma: float = 0.05
    lr: float = 0.02
    population: int = 8       # antithetic pairs => 2*population evaluations
    seed: int = 0


def _rank_normalize(fitness: np.ndarray) -> np.ndarray:
    ranks = np.empty_like(fitness)
    ranks[np.argsort(fitness)] = np.arange(len(fitness), dtype=np.float64)
    ranks = ranks / (len(fitness) - 1) - 0.5 if len(fitness) > 1 else np.zeros_like(fitness)
    return ranks


class ESAgent:
    """Black-box-optimizes the policy weights against episode return."""

    def __init__(self, obs_dim: int, num_actions: int, config: Optional[ESConfig] = None) -> None:
        self.config = config or ESConfig()
        cfg = self.config
        self.obs_dim = obs_dim
        self.num_actions = num_actions
        self.policy = MLP([obs_dim, *cfg.hidden, num_actions], seed=cfg.seed)
        self.rng = np.random.default_rng(cfg.seed + 3)
        self._theta = self.policy.get_flat()

    # -- acting -----------------------------------------------------------
    def act(self, obs: np.ndarray) -> np.ndarray:
        return self.act_batch(np.asarray(obs)[None, :])[0]

    def act_batch(self, obs: np.ndarray) -> np.ndarray:
        """Sample actions for a (B, obs) matrix under the *current*
        policy weights — (B, 1); a batch of one consumes the RNG exactly
        like :meth:`act`. (Population scoring, where every lane carries
        its own perturbed weights, goes through
        :class:`~repro.rl.nn.StackedMLP` in the vectorized trainer.)"""
        logits = self.policy(np.asarray(obs, dtype=np.float64))  # (B, A)
        return sample_categorical(self.rng, logits)[:, None]

    def act_greedy(self, obs: np.ndarray) -> np.ndarray:
        return self.act_greedy_batch(np.asarray(obs)[None, :])[0]

    def act_greedy_batch(self, obs: np.ndarray) -> np.ndarray:
        logits = self.policy(np.asarray(obs, dtype=np.float64))
        return np.argmax(logits, axis=-1)[:, None]

    # -- checkpointing ----------------------------------------------------
    def state_dict(self) -> dict:
        return {"theta": self._theta.copy(), "rng": self.rng.bit_generator.state}

    def load_state_dict(self, state: dict) -> None:
        self._theta = np.asarray(state["theta"], dtype=np.float64).copy()
        self.policy.set_flat(self._theta)
        self.rng.bit_generator.state = state["rng"]

    # -- evolution ------------------------------------------------------------
    def train_step(self, evaluate: Callable[[], float],
                   evaluate_batch: Optional[Callable] = None) -> Dict[str, float]:
        """One generation. ``evaluate`` runs an episode with the *current*
        policy weights and returns its total reward (fitness).

        ``evaluate_batch``, when given, scores the whole generation's
        perturbed parameter vectors in one call (it receives the list of
        flat weight vectors, in antithetic order, and returns one fitness
        per vector) — the hook population-based evaluation engines use to
        batch a generation instead of stepping it one episode at a time.
        """
        cfg = self.config
        dim = self._theta.size
        noises = [self.rng.normal(size=dim) for _ in range(cfg.population)]
        thetas = [self._theta + sign * cfg.sigma * eps
                  for eps in noises for sign in (+1.0, -1.0)]
        if evaluate_batch is not None:
            fitness = np.asarray(evaluate_batch(thetas), dtype=np.float64)
        else:
            fitness = np.zeros(2 * cfg.population)
            for i, theta in enumerate(thetas):
                self.policy.set_flat(theta)
                fitness[i] = evaluate()
        ranks = _rank_normalize(fitness)
        grad = np.zeros(dim)
        for i, eps in enumerate(noises):
            grad += (ranks[2 * i] - ranks[2 * i + 1]) * eps
        grad /= 2 * cfg.population * cfg.sigma
        self._theta = self._theta + cfg.lr * grad
        self.policy.set_flat(self._theta)
        return {"fitness_mean": float(fitness.mean()), "fitness_max": float(fitness.max())}
