"""Figures 5 and 6: random-forest importance heat maps.

Figure 5 — importance of the 56 program features for each pass's
improve/don't-improve prediction. Figure 6 — importance of the
previously-applied-pass histogram entries for the same predictions.

The drivers also verify the qualitative §4 observations that the
reproduction is expected to reproduce: -loop-rotate's importance among
previously-applied passes (the paper's (23,23) hot spot) and the
concentration of importance mass on the known-impactful pass set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..forest.importance import (
    ImportanceAnalysis,
    analyze_importance,
    collect_exploration_data,
)
from ..ir.module import Module
from ..passes.registry import PASS_TABLE, pass_index_for_name
from ..programs.generator import generate_corpus
from .config import ExperimentScale, get_scale
from .reporting import format_heatmap, write_csv

__all__ = ["Fig56Result", "run_fig5_fig6"]


@dataclass
class Fig56Result:
    analysis: ImportanceAnalysis
    dataset_size: int

    def render_fig5(self) -> str:
        return ("Figure 5 — importance of program features (cols) per pass (rows)\n"
                + format_heatmap(self.analysis.feature_importance,
                                 "pass index", "feature index"))

    def render_fig6(self) -> str:
        return ("Figure 6 — importance of previously applied passes (cols) per pass (rows)\n"
                + format_heatmap(self.analysis.pass_importance,
                                 "next pass index", "previous pass index"))

    def to_csv(self) -> List[str]:
        paths = [
            write_csv("fig5_feature_importance.csv",
                      ["pass_index"] + [f"f{i}" for i in range(self.analysis.feature_importance.shape[1])],
                      [[p] + list(row) for p, row in enumerate(self.analysis.feature_importance)]),
            write_csv("fig6_pass_importance.csv",
                      ["pass_index"] + [f"p{i}" for i in range(self.analysis.pass_importance.shape[1])],
                      [[p] + list(row) for p, row in enumerate(self.analysis.pass_importance)]),
        ]
        return paths

    # -- the paper's qualitative checks -------------------------------------
    def improvement_rate_rank(self, pass_name: str) -> int:
        """Rank (0 = highest) of a pass by empirical improvement rate —
        the data §4.2's 'more impactful passes' list is read off from."""
        idx = pass_index_for_name(pass_name)
        order = np.argsort(-self.analysis.improvement_rates)
        return int(np.where(order == idx)[0][0])

    def impactful_pass_names(self, top_k: int = 16) -> List[str]:
        chosen = self.analysis.select_passes(top_k=top_k, include_terminate=False)
        return [PASS_TABLE[i] for i in chosen]

    # Verbatim §4.2: "passes -scalarrepl, -gvn, ... are more impactful on
    # the performance compared to the rest of the passes".
    PAPER_IMPACTFUL = (
        "-scalarrepl", "-gvn", "-scalarrepl-ssa", "-loop-reduce",
        "-loop-deletion", "-reassociate", "-loop-rotate", "-partial-inliner",
        "-early-cse", "-adce", "-instcombine", "-simplifycfg", "-dse",
        "-loop-unroll", "-mem2reg", "-sroa",
    )

    def overlap_with_paper_impactful(self, top_k: int = 16) -> int:
        names = set(self.impactful_pass_names(top_k=top_k))
        return len(names & set(self.PAPER_IMPACTFUL))


def run_fig5_fig6(programs: Optional[Sequence[Module]] = None,
                  scale: Optional[ExperimentScale] = None,
                  seed: int = 0, lanes: int = 1,
                  toolchain=None) -> Fig56Result:
    """The §4 analysis. Exploration rollouts run through the vectorized
    evaluation stack; ``lanes=1`` (default) keeps the dataset — and both
    heat maps — anchored to the seed, ``lanes>1`` trades that for
    batched collection throughput (lane-count invariant among
    themselves). ``toolchain`` lets a driver share an engine/service
    backend across experiments."""
    cfg = scale or get_scale()
    corpus = list(programs) if programs is not None else generate_corpus(
        cfg.n_train_programs, seed=seed)
    dataset = collect_exploration_data(corpus, episodes=cfg.exploration_episodes,
                                       episode_length=cfg.episode_length,
                                       seed=seed, toolchain=toolchain,
                                       lanes=lanes)
    analysis = analyze_importance(dataset, seed=seed)
    return Fig56Result(analysis=analysis, dataset_size=len(dataset))
