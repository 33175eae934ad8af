"""Figure 9 + §6.2: zero-shot generalization. Trained policies infer with
ONE simulator sample per unseen program; black-box methods transfer their
corpus-tuned predetermined sequence."""

import pytest

from repro.experiments.fig9 import run_fig9

from conftest import emit, shape


@pytest.fixture(scope="module")
def fig9(corpus, benchmarks, scale):
    return run_fig9(corpus=corpus, benchmarks=benchmarks, scale=scale,
                    include_random_test=True, seed=0)


def test_fig9_generates(benchmark, fig9):
    benchmark.pedantic(lambda: fig9.render(), rounds=1, iterations=1)
    emit("Figure 9 — zero-shot generalization (1 sample/program)", fig9.render())
    fig9.to_csv()


def test_fig9_single_sample_inference(benchmark, fig9):
    shape(benchmark, lambda: [r.samples_per_program for r in fig9.rows])
    for row in fig9.rows:
        if row.algorithm.startswith("RL-") or row.algorithm in (
                "Genetic-DEAP", "OpenTuner", "Greedy"):
            assert row.samples_per_program == 1.0, row.algorithm


def test_fig9_shape_o0_below_o3(benchmark, fig9):
    value = shape(benchmark, lambda: fig9.row("-O0").improvement_over_o3)
    assert value < 0


def test_fig9_shape_rl_transfers_better_than_worst_blackbox(benchmark, fig9, scale):
    """The paper's claim: predetermined black-box sequences overfit the
    training corpus; the trained policy adapts per program. The strict
    ordering needs real training budget, so at smoke scale we only
    require the RL rows to exist and the protocol to hold together."""
    best_rl = shape(benchmark, lambda: max(
        fig9.row("RL-filtered-norm1").improvement_over_o3,
        fig9.row("RL-filtered-norm2").improvement_over_o3))
    worst_bb = min(fig9.row(a).improvement_over_o3
                   for a in ("Genetic-DEAP", "OpenTuner", "Greedy"))
    if scale.name != "smoke":
        assert best_rl >= worst_bb - 0.05


def test_fig9_random_program_generalization(benchmark, fig9, scale):
    """§6.2: improvement over -O3 on unseen random programs (the paper
    reports +6% over 12,874 programs). The positive sign needs real
    training budget, so the threshold is scale-aware: at smoke scale we
    only require the protocol to run and report a finite number."""
    value = shape(benchmark, lambda: fig9.random_program_improvement)
    assert fig9.n_random_test_programs > 0
    assert value is not None
    if scale.name != "smoke":
        assert value > -0.05
