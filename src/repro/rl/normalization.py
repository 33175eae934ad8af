"""Observation and reward normalization (paper §5.3).

Technique 1 — logarithm: ``sign(x) * log(1+|x|)`` per feature. The paper
notes the neural net then effectively correlates *products* of features.

Technique 2 — instruction-count: divide every feature by feature #51
(total instructions), turning counts into a distribution over instruction
kinds — the variant §6.2 finds generalizes best.

Reward shaping for generalization training uses the signed log of the
cycle improvement so long-running programs don't dominate the gradient.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["normalize_features", "normalize_reward", "NORMALIZERS",
           "RunningNormalizer"]

_TOTAL_INSTRUCTIONS_INDEX = 51


def _log_normalize(features: np.ndarray) -> np.ndarray:
    f = features.astype(np.float64)
    return np.sign(f) * np.log1p(np.abs(f))


def _instcount_normalize(features: np.ndarray) -> np.ndarray:
    f = features.astype(np.float64)
    total = f[_TOTAL_INSTRUCTIONS_INDEX] if f.shape[0] > _TOTAL_INSTRUCTIONS_INDEX else 0.0
    if total <= 0:
        total = max(1.0, float(np.abs(f).max()))
    return f / total


def _identity(features: np.ndarray) -> np.ndarray:
    return features.astype(np.float64)


NORMALIZERS = {
    None: _identity,
    "none": _identity,
    "log": _log_normalize,         # technique 1
    "instcount": _instcount_normalize,  # technique 2
}


def normalize_features(features: np.ndarray, technique: Optional[str]) -> np.ndarray:
    """Apply a §5.3 normalization technique to a raw feature vector.

    Note: technique 2 divides by the *raw* total-instruction count, so it
    must be applied before any feature filtering drops feature #51 —
    the environment guarantees that ordering.
    """
    try:
        return NORMALIZERS[technique](np.asarray(features))
    except KeyError:
        raise ValueError(f"unknown normalization technique {technique!r}") from None


class RunningNormalizer:
    """Streaming observation whitening: ``(x - mean) / sqrt(var + eps)``
    with mean/variance tracked online (Welford), updated either one
    vector or one batch at a time.

    Batched updates use Chan's parallel-merge formula, so a single
    ``update`` with N rows matches N sequential single-row updates (up to
    float round-off) — the invariant the vectorized rollout layer relies
    on: a lane batch of observations must train the same statistics the
    sequential loop would have. Clipping bounds the normalized outputs so
    one outlier feature can't blow up a policy step.
    """

    def __init__(self, dim: int, epsilon: float = 1e-8,
                 clip: Optional[float] = 10.0) -> None:
        self.dim = dim
        self.epsilon = epsilon
        self.clip = clip
        self.count = 0.0
        self.mean = np.zeros(dim, dtype=np.float64)
        self.m2 = np.zeros(dim, dtype=np.float64)  # sum of squared deviations

    def update(self, batch: np.ndarray) -> None:
        """Fold one observation (dim,) or one batch (N, dim) into the
        running statistics."""
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim == 1:
            batch = batch[None, :]
        n = batch.shape[0]
        if n == 0:
            return
        batch_mean = batch.mean(axis=0)
        batch_m2 = ((batch - batch_mean) ** 2).sum(axis=0)
        delta = batch_mean - self.mean
        total = self.count + n
        self.mean = self.mean + delta * (n / total)
        self.m2 = self.m2 + batch_m2 + delta ** 2 * (self.count * n / total)
        self.count = total

    @property
    def var(self) -> np.ndarray:
        if self.count < 2:
            return np.ones(self.dim, dtype=np.float64)
        return self.m2 / self.count

    def normalize(self, obs: np.ndarray) -> np.ndarray:
        """Whiten one observation or a batch (statistics are not updated)."""
        normed = (np.asarray(obs, dtype=np.float64) - self.mean) \
            / np.sqrt(self.var + self.epsilon)
        if self.clip is not None:
            normed = np.clip(normed, -self.clip, self.clip)
        return normed

    # -- checkpointing ------------------------------------------------------
    def state_dict(self) -> dict:
        return {"count": self.count, "mean": self.mean.copy(),
                "m2": self.m2.copy()}

    def load_state_dict(self, state: dict) -> None:
        self.count = float(state["count"])
        self.mean = np.asarray(state["mean"], dtype=np.float64).copy()
        self.m2 = np.asarray(state["m2"], dtype=np.float64).copy()


def normalize_reward(delta_cycles: float, technique: Optional[str]) -> float:
    """'delta' (raw cycle improvement) or 'log' (signed log improvement)."""
    if technique in (None, "none", "delta"):
        return float(delta_cycles)
    if technique == "log":
        return float(np.sign(delta_cycles) * np.log1p(abs(delta_cycles)))
    raise ValueError(f"unknown reward normalization {technique!r}")
