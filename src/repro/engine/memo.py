"""Result memo and cache-statistics bookkeeping for the evaluation engine."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Dict, Tuple

__all__ = ["EngineStats", "ResultMemo", "FAILED", "FAILED_BUDGET"]

# Sentinel memo value for sequences that raised HLSCompilationError —
# re-evaluating a known-broken sequence must not burn a simulator sample.
FAILED = object()

# Sentinel for sequences that merely exhausted the simulation *step
# budget* (StepBudgetError). Still a failure — re-evaluating would time
# out again — but cache stats must not conflate it with genuine HLS
# compilation failures (traps, scheduling errors).
FAILED_BUDGET = object()


@dataclass
class EngineStats:
    """Cache-hit accounting, reported alongside ``samples_taken``."""

    memo_hits: int = 0            # by raw or by effective key: no sample taken
    memo_misses: int = 0
    effective_hits: int = 0       # of memo_hits: found under the effective key
    trie_hits: int = 0            # evaluations that cloned a non-root snapshot
    passes_saved: int = 0         # effective prefix passes a snapshot replaced
    passes_applied: int = 0       # passes actually run
    noop_skipped: int = 0         # passes not run: known no-ops at their state
    snapshots_stored: int = 0
    snapshots_zero_copy: int = 0  # of those: the evaluated module itself, no clone
    failures_memoized: int = 0
    budget_failures_memoized: int = 0  # step-budget timeouts, not HLS failures
    batches: int = 0
    feature_hits: int = 0         # feature queries answered from the memo
    feature_misses: int = 0       # feature queries that composed a vector

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    @property
    def hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0


class ResultMemo:
    """LRU map from evaluation keys to objective values (or FAILED)."""

    _MISSING = object()

    def __init__(self, max_entries: int = 8192) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, Any]" = OrderedDict()

    def get(self, key: Tuple) -> Any:
        """The cached value, FAILED, or None when absent."""
        value = self._entries.get(key, self._MISSING)
        if value is self._MISSING:
            return None
        self._entries.move_to_end(key)
        return value

    def put(self, key: Tuple, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
