"""Figure 7: circuit speedup over -O3 + samples/program, all 11 algorithms
on the nine CHStone-like benchmarks.

Shape assertions (the paper's qualitative claims, budget-independent):
  * -O0 is far below -O3;
  * per-program search (RL / black-box) beats -O3;
  * RL uses orders of magnitude fewer samples than OpenTuner/Genetic/Random.
"""

import pytest

from repro.experiments.fig7 import ALGORITHM_ORDER, run_fig7

from conftest import emit, shape


@pytest.fixture(scope="module")
def fig7(benchmarks, scale):
    return run_fig7(benchmarks=benchmarks, scale=scale, seed=0)


def test_fig7_generates(benchmark, fig7):
    benchmark.pedantic(lambda: fig7.render(), rounds=1, iterations=1)
    emit("Figure 7 — speedup over -O3 and samples/program", fig7.render())
    fig7.to_csv()
    assert [r.algorithm for r in fig7.rows] == list(ALGORITHM_ORDER)


def test_fig7_shape_o0_much_worse(benchmark, fig7):
    value = shape(benchmark, lambda: fig7.row("-O0").improvement_over_o3)
    assert value < -0.05


def test_fig7_shape_searches_beat_o3(benchmark, fig7):
    rows = shape(benchmark, lambda: {a: fig7.row(a).improvement_over_o3
                                     for a in ("Random", "Genetic-DEAP", "OpenTuner", "Greedy")})
    for algo, value in rows.items():
        assert value > 0.0, algo


def test_fig7_shape_best_rl_beats_o3(benchmark, fig7):
    best_rl = shape(benchmark, lambda: max(
        fig7.row(a).improvement_over_o3
        for a in ("RL-PPO2", "RL-PPO3", "RL-A3C", "RL-ES")))
    assert best_rl > 0.0


def test_fig7_shape_rl_sample_efficiency(benchmark, fig7):
    """RL-PPO2's budget is a small fraction of the black-box searches'."""
    rl = shape(benchmark, lambda: fig7.row("RL-PPO2").samples_per_program)
    for algo in ("Random", "Genetic-DEAP", "OpenTuner"):
        assert rl < fig7.row(algo).samples_per_program, algo


def test_fig7_shape_ppo1_control_is_weak(benchmark, fig7):
    """Zero-reward PPO1 must not beat the informed PPO2 (the paper's
    reward-signal sanity check)."""
    gap = shape(benchmark, lambda: fig7.row("RL-PPO2").improvement_over_o3
                - fig7.row("RL-PPO1").improvement_over_o3)
    assert gap >= -0.05
