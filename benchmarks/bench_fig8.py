"""Figure 8: generalization learning curves for filtered-norm1 /
original-norm2 / filtered-norm2 (episode reward mean vs episode)."""

import numpy as np
import pytest

from repro.experiments.fig8 import VARIANTS, run_fig8

from conftest import emit, shape


@pytest.fixture(scope="module")
def fig8(corpus, scale):
    return run_fig8(corpus, scale=scale, seed=0)


def test_fig8_generates(benchmark, fig8):
    benchmark.pedantic(lambda: fig8.render(), rounds=1, iterations=1)
    emit("Figure 8 — episode reward mean vs episode", fig8.render())
    fig8.to_csv()
    assert set(fig8.curves) == set(VARIANTS)


def test_fig8_curves_have_signal(benchmark, fig8):
    """Learning curves end positive: the policy finds improving passes."""
    finals = shape(benchmark, lambda: {v: fig8.final_reward(v) for v in VARIANTS})
    for variant, value in finals.items():
        assert value > 0.0, variant


def test_fig8_filtering_helps_or_ties(benchmark, fig8):
    """The paper's core Figure-8 claim: filtered variants reach at least
    the unfiltered variant's level (they converge faster/higher)."""
    best_filtered = shape(benchmark, lambda: max(
        fig8.final_reward("filtered-norm1"), fig8.final_reward("filtered-norm2")))
    assert best_filtered >= fig8.final_reward("original-norm2") - 0.15


def test_fig8_filters_reduce_spaces(benchmark, fig8):
    sizes = shape(benchmark, lambda: (len(fig8.feature_indices), len(fig8.action_indices)))
    assert sizes[0] < 56 and sizes[1] < 46
