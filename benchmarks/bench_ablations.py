"""Ablation benches for the design choices DESIGN.md calls out:

* normalization technique (none / log / instcount) on generalization;
* RF feature/pass filtering on vs off (sample efficiency);
* observation space (features vs histogram vs both) for per-program PPO;
* reward shaping (raw delta vs log) for multi-program training;
* episode length (pass budget) vs final quality.

Each test prints its comparison rows into the bench output and asserts
only weak, budget-robust orderings.
"""

import numpy as np
import pytest

from repro.rl.agents import train_agent
from repro.toolchain import HLSToolchain

from conftest import emit


@pytest.fixture(scope="module")
def train_kwargs(scale):
    return dict(episodes=max(6, scale.rl_episodes // 2),
                episode_length=scale.episode_length, seed=0)


def _final(result, window=5):
    return float(np.mean(result.episode_rewards[-window:])) if result.episode_rewards else 0.0


def test_ablation_observation_space(benchmark, benchmarks, train_kwargs):
    module = benchmarks["gsm"]
    rows = []

    def run():
        for obs in ("features", "histogram", "both"):
            r = train_agent("RL-PPO2", [module], observation=obs, **train_kwargs)
            rows.append((obs, r.best_cycles, r.samples))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    body = "\n".join(f"{o:<12} best_cycles={c:<8} samples={s}" for o, c, s in rows)
    emit("Ablation — observation space (RL-PPO2 on gsm)", body)
    base = HLSToolchain().o0_cycles(module)
    assert all(c <= base for _, c, _ in rows)


def test_ablation_normalization(benchmark, corpus, train_kwargs):
    rows = []

    def run():
        for norm in (None, "log", "instcount"):
            r = train_agent("RL-PPO2", corpus, observation="both",
                            normalization=norm, reward_mode="log",
                            **train_kwargs)
            rows.append((str(norm), _final(r)))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Ablation — §5.3 normalization techniques (final reward mean)",
         "\n".join(f"{n:<12} {v:+.3f}" for n, v in rows))
    assert len(rows) == 3


def test_ablation_filtering(benchmark, corpus, scale, train_kwargs):
    from repro.experiments.fig5_fig6 import run_fig5_fig6

    fig56 = run_fig5_fig6(corpus, scale=scale, seed=0)
    feats = fig56.analysis.select_features(top_k=24)
    acts = fig56.analysis.select_passes(top_k=16)
    rows = []

    def run():
        for label, fi, ai in (("original", None, None), ("filtered", feats, acts)):
            r = train_agent("RL-PPO2", corpus, observation="both",
                            normalization="instcount", reward_mode="log",
                            feature_indices=fi, action_indices=ai, **train_kwargs)
            rows.append((label, _final(r)))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Ablation — RF filtering of features/passes (final reward mean)",
         "\n".join(f"{n:<12} {v:+.3f}" for n, v in rows))
    assert len(rows) == 2


def test_ablation_reward_shaping(benchmark, corpus, train_kwargs):
    rows = []

    def run():
        for mode in ("delta", "log"):
            r = train_agent("RL-PPO2", corpus, observation="both",
                            reward_mode=mode, **train_kwargs)
            rows.append((mode, r.best_cycles))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Ablation — reward shaping", "\n".join(f"{n:<8} best={c}" for n, c in rows))
    assert len(rows) == 2


def test_ablation_episode_length(benchmark, benchmarks, scale):
    module = benchmarks["matmul"]
    rows = []

    def run():
        for length in (4, 12, 24):
            r = train_agent("RL-PPO2", [module], episodes=6,
                            episode_length=length, seed=0)
            rows.append((length, r.best_cycles, r.samples))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Ablation — episode length (pass budget)",
         "\n".join(f"N={n:<4} best={c:<8} samples={s}" for n, c, s in rows))
    # longer budgets never hurt the best-found sequence
    assert rows[-1][1] <= rows[0][1] * 1.1
