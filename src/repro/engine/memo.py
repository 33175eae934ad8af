"""Result memo, failure sentinels and cache statistics of the engine."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from ..hls.profiler import HLSCompilationError, StepBudgetError

__all__ = ["EngineStats", "ResultMemo", "EvaluationCrash", "FAILED",
           "FAILED_BUDGET", "CRASHED", "failure_value", "failure_for",
           "failure_row"]

# Sentinel memo value for sequences that raised HLSCompilationError —
# re-evaluating a known-broken sequence must not burn a simulator sample.
FAILED = object()

# Sentinel for sequences that merely exhausted the simulation *step
# budget* (StepBudgetError). Still a failure — re-evaluating would time
# out again — but cache stats must not conflate it with genuine HLS
# compilation failures (traps, scheduling errors).
FAILED_BUDGET = object()

# Sentinel for sequences whose evaluation crashed (EvaluationCrash);
# unlike the other two it is never written to the persistent store.
CRASHED = object()


class EvaluationCrash(HLSCompilationError):
    """An unexpected exception (a pass or simulator bug) while evaluating
    ``sequence``: a failure of that sequence alone. ``original`` is the
    exception raised, ``None`` when the crash is replayed from the memo."""

    def __init__(self, sequence: Sequence,
                 original: Optional[BaseException] = None) -> None:
        what = ("is memoized as crashing" if original is None
                else f"crashed: {original!r}")
        super().__init__(f"evaluating sequence {tuple(sequence)!r} {what}")
        self.sequence, self.original = tuple(sequence), original
        self.__cause__ = original


def failure_value(exc: Optional[BaseException]) -> object:
    """The memo value a failure is recorded as."""
    if isinstance(exc, EvaluationCrash):
        return CRASHED
    return FAILED_BUDGET if isinstance(exc, StepBudgetError) else FAILED


def failure_for(value: Any, canonical: Tuple) -> Optional[HLSCompilationError]:
    """The exception a failure memo value stands for; ``None`` for a
    result (or a missing one)."""
    if value is FAILED:
        return HLSCompilationError(
            f"sequence {canonical!r} is memoized as failing HLS compilation")
    if value is FAILED_BUDGET:
        return StepBudgetError(
            f"sequence {canonical!r} is memoized as exceeding the "
            f"simulation step budget")
    if value is CRASHED:
        return EvaluationCrash(canonical)
    return None


def failure_row(features_after, program, canonical: Tuple,
                want_features: bool):
    """The ``evaluate_batch`` row of a failing sequence: ``None``, or
    ``(None, features)`` — features ``None`` if no module could be built."""
    if not want_features:
        return None
    try:
        return (None, features_after(program, canonical))
    except HLSCompilationError:
        return (None, None)


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
    internal_errors: int = 0      # evaluations that crashed (EvaluationCrash)
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
        """The cached value, a failure sentinel, or None when absent."""
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
