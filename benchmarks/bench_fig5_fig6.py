"""Figures 5-6: random-forest importance heat maps from exploration data
over random programs, plus the §4.2 qualitative checks."""

import pytest

from repro.experiments.fig5_fig6 import run_fig5_fig6
from repro.passes.registry import NUM_TRANSFORMS

from conftest import emit, shape


@pytest.fixture(scope="module")
def fig56(corpus, scale):
    return run_fig5_fig6(corpus, scale=scale, seed=0)


def test_fig5_fig6_generate(benchmark, fig56):
    benchmark.pedantic(lambda: (fig56.render_fig5(), fig56.render_fig6()),
                       rounds=1, iterations=1)
    emit("Figure 5 — feature importance per pass", fig56.render_fig5())
    emit("Figure 6 — previous-pass importance per pass", fig56.render_fig6())
    fig56.to_csv()
    assert fig56.analysis.feature_importance.shape == (NUM_TRANSFORMS, 56)


def test_fig5_every_trained_row_normalized(benchmark, fig56):
    import numpy as np

    rows = shape(benchmark, lambda: fig56.analysis.feature_importance)
    for p in range(NUM_TRANSFORMS):
        total = rows[p].sum()
        assert total == pytest.approx(0.0, abs=1e-9) or total == pytest.approx(1.0, rel=1e-6)


def test_fig6_loop_rotate_ranks_high(benchmark, fig56):
    """§4.2: -loop-rotate is among the impactful passes. Judge by the
    empirical improvement rate the heat maps are trained from — the
    budget-robust form of the paper's (23,23) observation."""
    rank = shape(benchmark, lambda: fig56.improvement_rate_rank("-loop-rotate"))
    assert rank < NUM_TRANSFORMS // 2


def test_filtered_set_overlaps_papers_impactful_list(benchmark, fig56):
    """§4.2 lists 16 'more impactful' passes; our RF-derived top-16 must
    substantially overlap it."""
    overlap = shape(benchmark, lambda: fig56.overlap_with_paper_impactful(top_k=16))
    assert overlap >= 6


def test_filtered_sets_include_known_winners(benchmark, fig56):
    names = shape(benchmark, lambda: fig56.impactful_pass_names(top_k=20))
    assert "-mem2reg" in names or "-sroa" in names or "-scalarrepl-ssa" in names
