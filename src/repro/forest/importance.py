"""Importance analysis (paper §4, Figures 5 and 6).

Pipeline:

1. Run high-exploration rollouts over random programs (the paper uses
   "PPO with high exploration parameter"; uniform-random action choice is
   the ε→1 limit and is what we use by default, with an optional PPO
   explorer), collecting (features, action-histogram, action, reward>0)
   tuples.
2. For each pass, fit two random forests predicting whether applying it
   improves the cycle count — one from the 56 program features, one from
   the applied-pass histogram.
3. Stack per-pass MDI importances into the Figure-5 (features × passes)
   and Figure-6 (previous passes × next pass) matrices.
4. ``select_features`` / ``select_passes`` threshold aggregate importance
   to produce the filtered observation/action spaces the generalization
   experiments (Figures 8–9) use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..features.table import NUM_FEATURES
from ..ir.module import Module
from ..passes.registry import NUM_ACTIONS, NUM_TRANSFORMS, TERMINATE_INDEX
from ..rl.env import PhaseOrderEnv
from ..rl.vec_env import make_vector_env
from ..toolchain import HLSToolchain
from .random_forest import RandomForestClassifier

__all__ = ["ImportanceDataset", "collect_exploration_data", "ImportanceAnalysis",
           "analyze_importance"]


@dataclass
class ImportanceDataset:
    """Row-aligned exploration data."""

    features: np.ndarray      # (n, 56) program features before the action
    histograms: np.ndarray    # (n, NUM_ACTIONS) applied-pass histogram before
    actions: np.ndarray       # (n,) pass index applied
    improved: np.ndarray      # (n,) 1 if the pass reduced the cycle count

    def __len__(self) -> int:
        return len(self.actions)

    def for_pass(self, pass_index: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        mask = self.actions == pass_index
        return self.features[mask], self.histograms[mask], self.improved[mask]


def collect_exploration_data(programs: Sequence[Module], episodes: int = 20,
                             episode_length: int = 12, seed: int = 0,
                             toolchain: Optional[HLSToolchain] = None,
                             lanes: int = 1,
                             episode_streams: Optional[bool] = None
                             ) -> ImportanceDataset:
    """Uniform-random exploration rollouts producing the §4 training set.

    Collection runs through the vectorized rollout layer: every
    synchronized step batches all lanes' sequence evaluations through the
    engine (or, with ``HLSToolchain(backend="service")``, fans them out
    across the sharded worker processes), and the pre-step feature rows
    come from the engine's feature memo instead of a per-episode module
    walk — a warm collection never materializes a module.

    ``episode_streams`` picks the action-RNG discipline. ``False``: one
    shared stream consumed exactly like the legacy sequential loop —
    keeps Figure 5/6 outputs anchored to the seed, only valid at
    ``lanes=1``. ``True``: each episode draws from a private stream
    keyed ``[seed + 1, episode]`` and rows are ordered by ``(episode,
    step)``, making the dataset identical at *every* lane count
    (including 1) — what the Trainer's pruning stage uses so pruned
    training spaces don't depend on ``lanes``. Default ``None``: legacy
    stream at ``lanes=1``, episode streams otherwise.
    """
    if episode_streams is None:
        episode_streams = lanes > 1
    if not episode_streams and lanes > 1:
        raise ValueError("the legacy shared action stream is order-dependent "
                         "and only reproducible at lanes=1; use "
                         "episode_streams=True for multi-lane collection")
    env = PhaseOrderEnv(programs, toolchain=toolchain, observation="features",
                        episode_length=episode_length, use_terminate=False, seed=seed)
    vec = make_vector_env(env, lanes)
    rng = np.random.default_rng(seed + 1)
    # (episode, step, features, histogram, action, improved) rows
    rows: List[tuple] = []
    for wave_start in range(0, episodes, vec.num_lanes):
        width = min(vec.num_lanes, episodes - wave_start)
        obs = vec.reset_wave({i: (wave_start + i) % len(programs)
                              for i in range(width)})
        # Lanes whose base program fails HLS compilation come back
        # omitted: dead episodes, no rows (the sequential loop crashed).
        active = [i for i in range(width) if i in obs]
        episode_rngs = {
            i: (np.random.default_rng([seed + 1, wave_start + i])
                if episode_streams else rng)
            for i in active
        }
        step = 0
        while active:
            pre = {i: (vec.lane_raw_features(i),
                       vec.lanes[i].histogram.astype(np.float64),
                       vec.lanes[i].prev_cycles)
                   for i in active}
            actions = np.array([int(episode_rngs[i].integers(vec.num_actions))
                                for i in active])
            results = vec.step_lanes(active, actions)
            fresh: List[int] = []
            for i, action, (_, _, done, info) in zip(active, actions, results):
                pre_features, pre_hist, pre_cycles = pre[i]
                rows.append((wave_start + i, step, pre_features, pre_hist,
                             vec.action_indices[int(action)],
                             1 if info["cycles"] < pre_cycles else 0))
                if not done:
                    fresh.append(i)
            active = fresh
            step += 1
    rows.sort(key=lambda r: (r[0], r[1]))
    return ImportanceDataset(
        features=np.asarray([r[2] for r in rows], dtype=np.float64),
        histograms=np.asarray([r[3] for r in rows]),
        actions=np.asarray([r[4] for r in rows], dtype=np.int64),
        improved=np.asarray([r[5] for r in rows], dtype=np.int64),
    )


@dataclass
class ImportanceAnalysis:
    """The two heat-map matrices plus the derived filters."""

    feature_importance: np.ndarray   # (NUM_TRANSFORMS, 56)  — Figure 5 rows
    pass_importance: np.ndarray      # (NUM_TRANSFORMS, NUM_ACTIONS) — Figure 6
    samples_per_pass: np.ndarray
    improvement_rates: np.ndarray    # per-pass empirical P(improved | applied)

    def select_features(self, top_k: int = 24) -> List[int]:
        """Indices of the most informative program features overall."""
        totals = self.feature_importance.sum(axis=0)
        order = np.argsort(-totals)
        return sorted(int(i) for i in order[:top_k])

    def select_passes(self, top_k: int = 16, include_terminate: bool = True) -> List[int]:
        """Indices of the most impactful passes.

        §4.2's notion of impact combines what the forests say (importance
        mass attributed to a pass as a *previous* action) with the direct
        evidence of the exploration data (how often applying the pass
        improved the cycle count) — the latter keeps the filter reliable
        when the per-pass forests are data-starved.
        """
        as_prev = self.pass_importance.sum(axis=0)[:NUM_TRANSFORMS]
        total_prev = as_prev.sum()
        if total_prev > 0:
            as_prev = as_prev / total_prev
        weight = as_prev + self.improvement_rates
        order = np.argsort(-weight)
        chosen = sorted(int(i) for i in order[:top_k])
        if include_terminate and TERMINATE_INDEX not in chosen:
            chosen.append(TERMINATE_INDEX)
        return chosen


def analyze_importance(dataset: ImportanceDataset, n_trees: int = 12,
                       max_depth: int = 6, min_samples: int = 4,
                       seed: int = 0) -> ImportanceAnalysis:
    """Fit the per-pass forests and stack their importances (Figs 5–6)."""
    feature_importance = np.zeros((NUM_TRANSFORMS, NUM_FEATURES))
    pass_importance = np.zeros((NUM_TRANSFORMS, NUM_ACTIONS))
    samples = np.zeros(NUM_TRANSFORMS)
    improvement_rates = np.zeros(NUM_TRANSFORMS)

    for p in range(NUM_TRANSFORMS):
        X_f, X_h, y = dataset.for_pass(p)
        samples[p] = len(y)
        if len(y):
            improvement_rates[p] = float(y.mean())
        if len(y) < min_samples or y.min() == y.max():
            continue  # not enough signal for the forests of this pass
        forest_f = RandomForestClassifier(n_trees=n_trees, max_depth=max_depth,
                                          seed=seed * 7 + p).fit(X_f, y)
        forest_h = RandomForestClassifier(n_trees=n_trees, max_depth=max_depth,
                                          seed=seed * 13 + p).fit(X_h, y)
        feature_importance[p] = forest_f.feature_importances_
        pass_importance[p] = forest_h.feature_importances_

    return ImportanceAnalysis(feature_importance=feature_importance,
                              pass_importance=pass_importance,
                              samples_per_pass=samples,
                              improvement_rates=improvement_rates)
