"""Figure 9 + §6.2: zero-shot generalization to unseen programs.

Protocol (paper §6.2):

* deep-RL: train PPO ('both' observation, log reward) on the random
  corpus with filtered features/passes under normalization technique 1
  (RL-filtered-norm1) and technique 2 (RL-filtered-norm2); at test time
  run ONE greedy policy rollout per benchmark with no intermediate
  profiling — a single simulator sample.
* black-box transfer: Genetic-DEAP / OpenTuner / Greedy first search for
  the single sequence minimizing the *aggregate* cycle count over the
  training corpus, then apply that predetermined sequence to each test
  benchmark — also one sample, but no adaptation.

Also reproduces the §6.2 text experiment: the trained
RL-filtered-norm2 policy applied to a fresh set of random programs
(the paper uses 12,874; the scale profile sets the count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..deploy.policy import PolicyRunner, PolicySpec
from ..hls.profiler import HLSCompilationError
from ..ir.module import Module
from ..passes.registry import NUM_TRANSFORMS
from ..programs import chstone
from ..programs.generator import generate_corpus
from ..rl.agents import train_agent
from ..search.base import SequenceEvaluator
from ..search.genetic import GAConfig, genetic_search
from ..toolchain import HLSToolchain
from .config import ExperimentScale, get_scale
from .fig5_fig6 import run_fig5_fig6
from .reporting import format_bar_chart, write_csv

__all__ = ["Fig9Row", "Fig9Result", "run_fig9"]


@dataclass
class Fig9Row:
    algorithm: str
    improvement_over_o3: float
    samples_per_program: float = 1.0
    per_program: Dict[str, float] = field(default_factory=dict)


@dataclass
class Fig9Result:
    rows: List[Fig9Row]
    random_program_improvement: Optional[float] = None
    n_random_test_programs: int = 0

    def row(self, algorithm: str) -> Fig9Row:
        return next(r for r in self.rows if r.algorithm == algorithm)

    def render(self) -> str:
        chart = format_bar_chart(
            [(r.algorithm, r.improvement_over_o3, int(r.samples_per_program))
             for r in self.rows])
        text = "Figure 9 — zero-shot generalization (1 sample/program)\n" + chart
        if self.random_program_improvement is not None:
            text += (f"\n§6.2: RL-filtered-norm2 on {self.n_random_test_programs} "
                     f"unseen random programs: "
                     f"{self.random_program_improvement:+.1%} vs -O3")
        return text

    def to_csv(self) -> str:
        return write_csv("fig9.csv",
                         ["algorithm", "improvement_over_o3", "samples_per_program"],
                         [[r.algorithm, r.improvement_over_o3, r.samples_per_program]
                          for r in self.rows])


class _AggregateEvaluator(SequenceEvaluator):
    """Fitness = summed cycle count over the whole training corpus."""

    def __init__(self, corpus: Sequence[Module], toolchain: HLSToolchain) -> None:
        super().__init__(corpus[0], toolchain)
        self.corpus = list(corpus)

    def __call__(self, sequence) -> int:
        seq = [int(a) % NUM_TRANSFORMS for a in sequence]
        self.samples += 1
        total = 0
        for program in self.corpus:
            try:
                total += self.toolchain.cycle_count_with_passes(program, seq)
            except HLSCompilationError:
                total += int(self.toolchain.cycle_count_with_passes(program, []) * self.penalty_factor)
        if total < self.best_cycles:
            self.best_cycles = total
            self.best_sequence = list(seq)
        self.history.append(int(self.best_cycles))
        return total


def _evaluate_sequence_on(benchmarks: Dict[str, Module], sequence: List[int],
                          o3: Dict[str, int], toolchain: HLSToolchain) -> Dict[str, float]:
    out = {}
    for name, module in benchmarks.items():
        try:
            cycles = toolchain.cycle_count_with_passes(module, sequence)
        except HLSCompilationError:
            cycles = toolchain.cycle_count_with_passes(module, [])
        out[name] = (o3[name] - cycles) / o3[name]
    return out


def run_fig9(corpus: Optional[Sequence[Module]] = None,
             benchmarks: Optional[Dict[str, Module]] = None,
             scale: Optional[ExperimentScale] = None,
             include_random_test: bool = True,
             seed: int = 0,
             toolchain: Optional[HLSToolchain] = None,
             lanes: int = 1) -> Fig9Result:
    cfg = scale or get_scale()
    toolchain = toolchain or HLSToolchain()
    corpus = list(corpus) if corpus is not None else generate_corpus(cfg.n_train_programs, seed=seed)
    benchmarks = benchmarks or chstone.build_all()

    o0 = {n: toolchain.o0_cycles(m) for n, m in benchmarks.items()}
    o3 = {n: toolchain.o3_cycles(m) for n, m in benchmarks.items()}
    rows: List[Fig9Row] = []
    rows.append(Fig9Row("-O0", float(np.mean([(o3[n] - o0[n]) / o3[n] for n in benchmarks]))))
    rows.append(Fig9Row("-O3", 0.0))

    # --- black-box transfer: search once on the aggregate corpus --------
    agg_corpus = corpus[: min(len(corpus), 8)]  # aggregate fitness is expensive
    ga_eval = _AggregateEvaluator(agg_corpus, toolchain)
    genetic_search(agg_corpus[0], GAConfig(population=cfg.ga_population,
                                           generations=max(2, cfg.ga_generations // 2),
                                           sequence_length=cfg.episode_length),
                   seed=seed, evaluator=ga_eval)
    ga_seq = ga_eval.best_sequence

    greedy_eval = _AggregateEvaluator(agg_corpus, toolchain)
    _aggregate_greedy(greedy_eval, max_length=max(2, cfg.greedy_max_length // 2))
    greedy_seq = greedy_eval.best_sequence

    ot_eval = _AggregateEvaluator(agg_corpus, toolchain)
    _aggregate_opentuner(ot_eval, rounds=max(4, cfg.opentuner_rounds // 2),
                         sequence_length=cfg.episode_length, seed=seed)
    ot_seq = ot_eval.best_sequence

    for name, seq in (("Genetic-DEAP", ga_seq), ("OpenTuner", ot_seq), ("Greedy", greedy_seq)):
        per = _evaluate_sequence_on(benchmarks, seq, o3, toolchain)
        rows.append(Fig9Row(name, float(np.mean(list(per.values()))), 1.0, per))

    # --- deep RL: train on the corpus, infer with one sample ---------------
    fig56 = run_fig5_fig6(corpus, scale=cfg, seed=seed)
    feature_indices = fig56.analysis.select_features(top_k=24)
    action_indices = fig56.analysis.select_passes(top_k=16)

    trained = {}
    for variant, norm in (("RL-filtered-norm1", "log"), ("RL-filtered-norm2", "instcount")):
        result = train_agent("RL-PPO2", corpus, episodes=cfg.fig8_episodes,
                             episode_length=cfg.episode_length, observation="both",
                             feature_indices=feature_indices,
                             action_indices=action_indices,
                             normalization=norm, reward_mode="log", seed=seed,
                             lanes=lanes)
        # Figure inference runs through the deployment subsystem's
        # PolicyRunner — the same code path `repro serve-policy` serves.
        runner = PolicyRunner(
            result.agent,
            PolicySpec(observation="both", episode_length=cfg.episode_length,
                       feature_indices=feature_indices,
                       action_indices=action_indices, normalization=norm),
            toolchain=toolchain)
        trained[variant] = runner
        per = {}
        for name, module in benchmarks.items():
            applied, optimized = runner.infer(module)
            try:
                cycles = toolchain.cycle_count(optimized)
            except HLSCompilationError:
                cycles = o3[name]
            per[name] = (o3[name] - cycles) / o3[name]
        rows.append(Fig9Row(variant, float(np.mean(list(per.values()))), 1.0, per))

    # --- §6.2: unseen random programs with RL-filtered-norm2 ---------------
    random_improvement = None
    n_test = 0
    if include_random_test:
        runner = trained["RL-filtered-norm2"]
        test_programs = generate_corpus(cfg.n_test_programs, seed=seed + 10_000)
        n_test = len(test_programs)
        improvements = []
        for module in test_programs:
            base_o3 = toolchain.o3_cycles(module)
            applied, optimized = runner.infer(module)
            try:
                cycles = toolchain.cycle_count(optimized)
            except HLSCompilationError:
                cycles = base_o3
            improvements.append((base_o3 - cycles) / base_o3 if base_o3 else 0.0)
        random_improvement = float(np.mean(improvements))

    return Fig9Result(rows=rows, random_program_improvement=random_improvement,
                      n_random_test_programs=n_test)


def _aggregate_greedy(evaluate: _AggregateEvaluator, max_length: int) -> None:
    current: List[int] = []
    current_cycles = evaluate(current)
    while len(current) < max_length:
        best_trial = None
        best_cycles = current_cycles
        for p in range(NUM_TRANSFORMS):
            for pos in range(len(current) + 1):
                trial = current[:pos] + [p] + current[pos:]
                cycles = evaluate(trial)
                if cycles < best_cycles:
                    best_cycles, best_trial = cycles, trial
        if best_trial is None:
            break
        current, current_cycles = best_trial, best_cycles


def _aggregate_opentuner(evaluate: _AggregateEvaluator, rounds: int,
                         sequence_length: int, seed: int) -> None:
    from ..search.opentuner import _GATechnique, _PSOTechnique

    rng = np.random.default_rng(seed)
    techniques = [
        _PSOTechnique("blend", sequence_length, rng),
        _PSOTechnique("own-best", sequence_length, rng),
        _PSOTechnique("global-best", sequence_length, rng),
        _GATechnique("one-point", sequence_length, rng),
        _GATechnique("two-point", sequence_length, rng),
        _GATechnique("uniform", sequence_length, rng),
    ]
    wins = [1.0] * len(techniques)
    uses = [1] * len(techniques)
    for t in range(rounds):
        scores = [wins[i] / uses[i] + np.sqrt(np.log(t + 2) / uses[i])
                  for i in range(len(techniques))]
        chosen = int(np.argmax(scores))
        improved = techniques[chosen].propose_and_evaluate(evaluate)
        uses[chosen] += 1
        wins[chosen] += 1.0 if improved else 0.0
