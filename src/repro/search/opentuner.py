"""OpenTuner stand-in: AUC-bandit meta-technique over six sub-techniques.

OpenTuner (Ansel et al. 2014) runs "an ensemble of six algorithms, which
includes two families: particle swarm optimization and GA, each with
three different crossover settings", coordinated by an area-under-curve
credit-assignment bandit: each round the bandit picks the sub-technique
with the best recent improvement record (AUC of its payoff history) plus
an exploration bonus, lets it generate/evaluate its next candidates, and
records whether it improved the global best.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, sqrt
from typing import List, Optional

import numpy as np

from ..ir.module import Module
from ..passes.registry import NUM_TRANSFORMS
from ..toolchain import HLSToolchain
from .base import SearchResult, SequenceEvaluator, score_population
from .genetic import _crossover
from .pso import PSOConfig, _Swarm

__all__ = ["OpenTunerConfig", "opentuner_search"]


@dataclass
class OpenTunerConfig:
    rounds: int = 30
    sequence_length: int = 45
    window: int = 12          # AUC history window per technique
    exploration: float = 1.2  # UCB-style bonus


class _Technique:
    name: str

    def propose_and_evaluate(self, evaluate) -> bool:
        """Run one batch; return True if the global best improved."""
        raise NotImplementedError


class _PSOTechnique(_Technique):
    def __init__(self, crossover: str, length: int, rng: np.random.Generator) -> None:
        self.name = f"pso-{crossover}"
        cfg = PSOConfig(particles=4, crossover=crossover, sequence_length=length)
        self.swarm = _Swarm(cfg, rng)

    def propose_and_evaluate(self, evaluate) -> bool:
        before = evaluate.best_cycles
        self.swarm.step(evaluate)
        return evaluate.best_cycles < before


class _GATechnique(_Technique):
    def __init__(self, crossover: str, length: int, rng: np.random.Generator) -> None:
        self.name = f"ga-{crossover}"
        self.rng = rng
        self.length = length
        self.two_point = crossover == "two-point"
        self.uniform = crossover == "uniform"
        self.population = [rng.integers(0, NUM_TRANSFORMS, size=length) for _ in range(6)]
        self.fitness: List[float] = [np.inf] * 6

    def propose_and_evaluate(self, evaluate) -> bool:
        before = evaluate.best_cycles
        rng = self.rng
        stale = [i for i in range(len(self.population)) if self.fitness[i] == np.inf]
        if stale:
            scores = score_population(evaluate, [self.population[i] for i in stale])
            for i, cycles in zip(stale, scores):
                self.fitness[i] = cycles
        order = np.argsort(self.fitness)
        a, b = self.population[order[0]], self.population[order[1]]
        if self.uniform:
            mask = rng.random(self.length) < 0.5
            child = np.where(mask, a, b)
        else:
            child = _crossover(rng, a, b, self.two_point)
        mask = rng.random(self.length) < 0.12
        child = child.copy()
        child[mask] = rng.integers(0, NUM_TRANSFORMS, size=int(mask.sum()))
        fitness = evaluate(child)
        worst = int(order[-1])
        if fitness < self.fitness[worst]:
            self.population[worst] = child
            self.fitness[worst] = fitness
        return evaluate.best_cycles < before


def opentuner_search(program: Module, config: Optional[OpenTunerConfig] = None,
                     toolchain: Optional[HLSToolchain] = None, seed: int = 0) -> SearchResult:
    cfg = config or OpenTunerConfig()
    rng = np.random.default_rng(seed)
    evaluate = SequenceEvaluator(program, toolchain)

    techniques: List[_Technique] = [
        _PSOTechnique("blend", cfg.sequence_length, rng),
        _PSOTechnique("own-best", cfg.sequence_length, rng),
        _PSOTechnique("global-best", cfg.sequence_length, rng),
        _GATechnique("one-point", cfg.sequence_length, rng),
        _GATechnique("two-point", cfg.sequence_length, rng),
        _GATechnique("uniform", cfg.sequence_length, rng),
    ]
    histories: List[List[bool]] = [[] for _ in techniques]
    uses = [0] * len(techniques)

    def auc_score(history: List[bool]) -> float:
        """Area under the payoff curve over the window: recent successes
        weigh more (OpenTuner's AUC bandit credit assignment)."""
        window = history[-cfg.window:]
        if not window:
            return 0.0
        weights = np.arange(1, len(window) + 1, dtype=np.float64)
        return float((weights * np.asarray(window, dtype=np.float64)).sum() / weights.sum())

    for t in range(cfg.rounds):
        total_uses = sum(uses) + 1
        scores = []
        for i, tech in enumerate(techniques):
            bonus = cfg.exploration * sqrt(log(total_uses) / (uses[i] + 1))
            scores.append(auc_score(histories[i]) + bonus)
        chosen = int(np.argmax(scores))
        improved = techniques[chosen].propose_and_evaluate(evaluate)
        histories[chosen].append(improved)
        uses[chosen] += 1

    result = evaluate.result("OpenTuner")
    return result
