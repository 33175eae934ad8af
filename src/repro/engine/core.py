"""The EvaluationEngine — the single evaluation primitive of the repro.

Wraps an :class:`~repro.toolchain.HLSToolchain` with four cache layers
(result memo, feature memo, prefix-trie snapshots, and — inside the
profiler — incremental scheduling) plus a ``concurrent.futures`` batch
API. See the package docstring for the cache-key/invalidation contract.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import telemetry as tm
from ..features.extractor import features_for
from ..hls.profiler import HLSCompilationError, StepBudgetError
from ..ir.cloning import clone_module
from ..ir.module import Module
from ..passes import PassManager
from ..passes.registry import TERMINATE_INDEX, pass_name_for_index
from .memo import FAILED, FAILED_BUDGET, EngineStats, ResultMemo
from .trie import NodeBudget, PrefixTrie, SnapshotLRU

__all__ = ["EvaluationEngine", "BatchEvaluationError", "canonicalize_sequence"]

Action = Union[int, str]
Element = Union[int, str]


class BatchEvaluationError(RuntimeError):
    """A batch worker crashed evaluating ``sequence``.

    Distinct from an :class:`HLSCompilationError` memo (a *legitimate*
    failing sequence, reported as ``None`` in batch results): this wraps
    an unexpected exception — a pass bug, a profiler crash — and carries
    the offending sequence so a failed candidate is debuggable instead of
    vanishing into a bare traceback from the pool.
    """

    def __init__(self, sequence: Sequence[Element], original: BaseException) -> None:
        super().__init__(
            f"evaluating sequence {tuple(sequence)!r} raised "
            f"{type(original).__name__}: {original}")
        self.sequence = tuple(sequence)
        self.original = original


def _cached_failure(cached, canonical) -> Optional[HLSCompilationError]:
    """The exception a failure-sentinel memo entry stands for, if any."""
    if cached is FAILED:
        return HLSCompilationError(
            f"sequence {canonical!r} is memoized as failing HLS compilation")
    if cached is FAILED_BUDGET:
        return StepBudgetError(
            f"sequence {canonical!r} is memoized as exceeding the "
            f"simulation step budget")
    return None


def canonicalize_sequence(actions: Sequence[Action]) -> Tuple[Element, ...]:
    """Terminate-truncate and index-normalize a pass sequence.

    Integer actions stay integers (``-terminate``'s index ends the
    sequence, mirroring the RL environment); Table-1 names collapse onto
    their first table index so name- and index-addressed evaluations share
    cache entries. Names outside the table are kept verbatim.
    """
    from ..passes.registry import PASS_TABLE

    out: List[Element] = []
    for action in actions:
        if isinstance(action, str):
            if action == "-terminate":
                break
            try:
                out.append(PASS_TABLE.index(action))
            except ValueError:
                out.append(action)
        else:
            index = int(action)
            if index == TERMINATE_INDEX:
                break
            out.append(index)
    return tuple(out)


class _ProgramState:
    __slots__ = ("program", "trie")

    def __init__(self, program: Module, lru: SnapshotLRU, min_visits: int,
                 budget: NodeBudget) -> None:
        self.program = program
        self.trie = PrefixTrie(program, lru, min_visits, budget)


class EvaluationEngine:
    """Memoized, prefix-sharing, batchable sequence evaluation.

    Parameters
    ----------
    toolchain:         the HLSToolchain doing the actual compile/profile
                       work (also the sample-accounting authority).
    max_trie_nodes:    engine-wide bound on cached module snapshots.
    max_memo_entries:  bound on memoized (sequence → objective) results.
    snapshot_min_visits: how often a prefix must be walked before its
                       snapshot is worth storing (1 = always: every
                       evaluated module becomes its leaf's snapshot as
                       is, which halves the clones and pass runs of an
                       extend-by-one-pass chain — RL rollouts, policy
                       inference — and fills the LRU with leaves).
    snapshot_stride:   snapshots are stored only at every ``stride``-th
                       prefix depth (plus the full-sequence node), so one
                       long materialization doesn't pay a module clone
                       per pass applied.
    max_workers:       thread-pool width for :meth:`evaluate_batch`
                       (``REPRO_ENGINE_WORKERS`` overrides; ≤1 = serial).
    """

    def __init__(self, toolchain, max_trie_nodes: int = 256,
                 max_memo_entries: int = 8192,
                 snapshot_min_visits: int = 2,
                 snapshot_stride: int = 8,
                 max_workers: Optional[int] = None) -> None:
        self.toolchain = toolchain
        if max_workers is None:
            try:
                max_workers = int(os.environ.get("REPRO_ENGINE_WORKERS", ""))
            except ValueError:
                max_workers = min(4, os.cpu_count() or 1)
        self.max_workers = max(1, max_workers)
        self.snapshot_min_visits = snapshot_min_visits
        self.snapshot_stride = max(1, snapshot_stride)
        self.stats = EngineStats()
        self._memo = ResultMemo(max_memo_entries)
        # (id(program), canonical sequence) -> read-only feature vector;
        # objective-independent, so 'cycles' and 'area' queries share it.
        self._feature_memo = ResultMemo(max_memo_entries)
        self._lru = SnapshotLRU(max_trie_nodes)
        # Structure nodes are ~two orders of magnitude lighter than module
        # snapshots; 64 nodes of bookkeeping per allowed snapshot keeps the
        # tries bounded without starving prefix tracking.
        self._node_budget = NodeBudget(max_trie_nodes * 64)
        self._programs: Dict[int, _ProgramState] = {}
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    # -- program registry ---------------------------------------------------
    def _state_for(self, program: Module) -> _ProgramState:
        with self._lock:
            state = self._programs.get(id(program))
            if state is None:
                state = _ProgramState(program, self._lru, self.snapshot_min_visits,
                                      self._node_budget)
                self._programs[id(program)] = state
            return state

    @staticmethod
    def _key(program: Module, canonical: Tuple[Element, ...], objective: str,
             area_weight: float, entry: str) -> Tuple:
        return (id(program), canonical, objective, area_weight, entry)

    # -- single evaluation --------------------------------------------------
    def evaluate(self, program: Module, actions: Sequence[Action],
                 objective: str = "cycles", area_weight: float = 0.05,
                 entry: str = "main") -> float:
        """Objective value of ``program`` after ``actions``. Memo hits do
        not touch the toolchain (no simulator sample); misses clone from
        the deepest cached prefix and pay only the suffix."""
        with tm.span("engine.evaluate"):
            value, _, _ = self._evaluate(program, actions, objective,
                                         area_weight, entry, want_module=False)
        return value

    def evaluate_with_module(self, program: Module, actions: Sequence[Action],
                             objective: str = "cycles", area_weight: float = 0.05,
                             entry: str = "main") -> Tuple[float, Module]:
        """Like :meth:`evaluate` but also materializes (and returns) the
        optimized module — callers may mutate it freely."""
        value, module, _ = self._evaluate(program, actions, objective,
                                          area_weight, entry, want_module=True)
        return value, module

    def _memoize_failure(self, key: Tuple, exc: HLSCompilationError) -> None:
        with self._lock:
            if isinstance(exc, StepBudgetError):
                self._memo.put(key, FAILED_BUDGET)
                self.stats.budget_failures_memoized += 1
            else:
                self._memo.put(key, FAILED)
                self.stats.failures_memoized += 1

    def _evaluate(self, program: Module, actions: Sequence[Action],
                  objective: str, area_weight: float, entry: str,
                  want_module: bool, want_features: bool = False
                  ) -> Tuple[float, Optional[Module], Optional[np.ndarray]]:
        canonical = canonicalize_sequence(actions)
        key = self._key(program, canonical, objective, area_weight, entry)
        feats: Optional[np.ndarray] = None
        with tm.span("engine.memo_lookup"), self._lock:
            cached = self._memo.get(key)
            if cached is not None:
                self.stats.memo_hits += 1
            if want_features and canonical:
                feats = self._feature_memo.get((id(program), canonical))
                if feats is not None:
                    self.stats.feature_hits += 1
        tm.count("engine.memo_hits" if cached is not None
                 else "engine.memo_misses")
        if want_features and not canonical:
            # Base programs handed to the engine are immutable: their
            # features come straight off the shared (module, version) memo.
            feats = features_for(program)
        failure = _cached_failure(cached, canonical)
        if failure is not None:
            raise failure
        if cached is not None and not want_module and \
                (not want_features or feats is not None):
            return cached, None, feats

        state = self._state_for(program)
        try:
            module = self._materialize(state, canonical, private=want_module)
        except HLSCompilationError as exc:
            self._memoize_failure(key, exc)
            raise
        if want_features and feats is None:
            # Memoized before the profile attempt, so even a sequence
            # that fails HLS compilation leaves its features behind for
            # a later sample-free features_after.
            feats = self._memoize_features(program, canonical, module)
        if cached is not None:
            return cached, module, feats

        with self._lock:
            self.stats.memo_misses += 1
        try:
            with tm.span("engine.profile", objective=objective):
                value = self.toolchain.objective_value(module, objective,
                                                       area_weight=area_weight,
                                                       entry=entry)
        except HLSCompilationError as exc:
            self._memoize_failure(key, exc)
            raise
        with self._lock:
            self._memo.put(key, value)
        return value, module, feats

    def evaluate_prepared(self, program: Module, actions: Sequence[Action],
                          module: Module, objective: str = "cycles",
                          area_weight: float = 0.05, entry: str = "main") -> float:
        """Evaluate a module the caller already optimized to ``actions``
        (the incremental RL-environment path: the env applies one pass per
        step to its own working module, so the engine must not re-apply the
        sequence). Memo hits skip profiling; either way the trie learns the
        prefix so black-box searches can reuse RL-explored sequences."""
        canonical = canonicalize_sequence(actions)
        key = self._key(program, canonical, objective, area_weight, entry)
        state = self._state_for(program)
        with self._lock:
            path = state.trie.walk(canonical)
            # only the *full-sequence* node may take this module as its
            # snapshot (the walk can stop short on node-budget exhaustion)
            node = path[-1] if path and len(path) == len(canonical) else None
            want_snap = node is not None and state.trie.want_snapshot(node)
            cached = self._memo.get(key)
            if cached is not None and cached is not FAILED and \
                    cached is not FAILED_BUDGET:
                self.stats.memo_hits += 1
        if want_snap:
            snapshot = clone_module(module)
            with self._lock:
                if state.trie.store_snapshot(node, snapshot):
                    self.stats.snapshots_stored += 1
        failure = _cached_failure(cached, canonical)
        if failure is not None:
            raise failure
        if cached is not None:
            return cached
        with self._lock:
            self.stats.memo_misses += 1
        try:
            with tm.span("engine.profile", objective=objective):
                value = self.toolchain.objective_value(module, objective,
                                                       area_weight=area_weight,
                                                       entry=entry)
        except HLSCompilationError as exc:
            self._memoize_failure(key, exc)
            raise
        with self._lock:
            self._memo.put(key, value)
        return value

    # -- feature queries ------------------------------------------------------
    def _memoize_features(self, program: Module, canonical: Tuple[Element, ...],
                          module: Module) -> np.ndarray:
        feats = features_for(module)
        with self._lock:
            self.stats.feature_misses += 1
            self._feature_memo.put((id(program), canonical), feats)
        return feats

    def features_after(self, program: Module,
                       actions: Sequence[Action] = ()) -> np.ndarray:
        """The 56-feature vector of ``program`` after ``actions`` —
        AutoPhase's observation function as an engine query. Memo hits
        (any sequence whose features were computed before, including by a
        failed evaluation) answer without materializing a module; misses
        clone from the deepest cached prefix, compose the vector from
        per-function cached contributions, and memoize it next to the
        cycle results. Never profiles, never costs a simulator sample.
        The returned array is read-only — copy before mutating."""
        with tm.span("engine.features_after"):
            canonical = canonicalize_sequence(actions)
            if not canonical:
                # Base programs handed to the engine are immutable, so their
                # features come straight off the shared (module, version) memo.
                return features_for(program)
            with self._lock:
                cached = self._feature_memo.get((id(program), canonical))
                if cached is not None:
                    self.stats.feature_hits += 1
            if cached is not None:
                return cached
            module = self._materialize(self._state_for(program), canonical,
                                       private=False)
            return self._memoize_features(program, canonical, module)

    def evaluate_with_features(self, program: Module, actions: Sequence[Action],
                               objective: str = "cycles",
                               area_weight: float = 0.05,
                               entry: str = "main") -> Tuple[float, np.ndarray]:
        """Objective value *and* feature vector after ``actions``, paying
        at most one materialization for both. Features are memoized
        before the profile attempt, so even a sequence that fails HLS
        compilation leaves its features behind for a sample-free
        :meth:`features_after`."""
        value, _, feats = self._evaluate(program, actions, objective,
                                         area_weight, entry,
                                         want_module=False, want_features=True)
        return value, feats

    # -- batch evaluation ---------------------------------------------------
    def evaluate_batch(
        self, program: Module, sequences: Sequence[Sequence[Action]],
        objective: str = "cycles", area_weight: float = 0.05,
        entry: str = "main", want_features: bool = False,
    ) -> Union[List[Optional[float]],
               List[Tuple[Optional[float], np.ndarray]]]:
        """Score a whole population. Returns one value per input sequence,
        ``None`` where the sequence fails HLS compilation (callers apply
        their own penalty). Duplicate sequences are evaluated once; cache
        misses run on a persistent thread pool.

        With ``want_features=True`` every row becomes a ``(value,
        features)`` pair — the vectorized feature-observation path —
        where ``features`` is always present (materialization succeeds
        even when profiling fails, so failing rows come back as
        ``(None, features)``).

        Results are identical at any worker count. Worker threads trade
        some duplicated work on *cold* shared prefixes (two concurrent
        misses may each apply a prefix the trie would let sequential
        evaluation share) for an asynchronous API; the simulator is pure
        Python, so set ``REPRO_ENGINE_WORKERS=1`` for strictly minimal
        work on a GIL-bound build."""
        self.stats.batches += 1
        tm.observe("engine.batch_size", len(sequences))
        keyed = [canonicalize_sequence(seq) for seq in sequences]
        unique: Dict[Tuple[Element, ...], Optional[float]] = {}
        for canonical in keyed:
            unique.setdefault(canonical, None)

        def run_one(canonical: Tuple[Element, ...]):
            try:
                if want_features:
                    return self.evaluate_with_features(
                        program, canonical, objective=objective,
                        area_weight=area_weight, entry=entry)
                return self.evaluate(program, canonical, objective=objective,
                                     area_weight=area_weight, entry=entry)
            except HLSCompilationError:
                if not want_features:
                    return None
                try:
                    return (None, self.features_after(program, canonical))
                except Exception as exc:
                    return BatchEvaluationError(canonical, exc)
            except Exception as exc:
                # Surface worker crashes with the offending sequence
                # attached (a bare pool traceback is indistinguishable
                # from any other candidate); raised after the scan below.
                return BatchEvaluationError(canonical, exc)

        pending = list(unique)
        with tm.span("engine.evaluate_batch", size=len(pending)):
            if len(pending) > 1 and self._use_grouped(objective):
                self._evaluate_batch_grouped(program, pending, unique,
                                             objective, area_weight, entry,
                                             want_features)
            elif self.max_workers > 1 and len(pending) > 1:
                with self._lock:
                    if self._pool is None:  # persistent: one pool per engine
                        self._pool = ThreadPoolExecutor(
                            max_workers=self.max_workers,
                            thread_name_prefix="repro-engine")
                    pool = self._pool
                # Trace context is thread-local; hand the batch span's
                # trace id to the pool threads so per-candidate spans
                # stay inside the caller's trace instead of minting one
                # trace per pool thread. ``ctx`` is None outside trace
                # mode, and attach is then a no-op.
                ctx = tm.current_trace()

                def run_traced(canonical):
                    with tm.attach_trace(ctx):
                        return run_one(canonical)

                for canonical, value in zip(pending,
                                            pool.map(run_traced, pending)):
                    unique[canonical] = value
            else:
                for canonical in pending:
                    unique[canonical] = run_one(canonical)
        for value in unique.values():
            if isinstance(value, BatchEvaluationError):
                raise value from value.original
        return [unique[canonical] for canonical in keyed]

    def _use_grouped(self, objective: str) -> bool:
        """Whether cache misses of a batch are profiled as one wave
        (the objective has a batched form; ``profile_batch`` decides how
        to run it) instead of per-sequence on the thread pool."""
        return (objective in ("cycles", "cycles-area")
                and hasattr(self.toolchain, "objective_values_batch"))

    def _evaluate_batch_grouped(
        self, program: Module, pending: List[Tuple[Element, ...]],
        unique: Dict, objective: str, area_weight: float, entry: str,
        want_features: bool,
    ) -> None:
        """The grouped miss path: memo/feature lookups and materialization
        run per sequence with semantics identical to :meth:`_evaluate`
        (same statistics, same failure memoization), then every module
        that actually needs the simulator is profiled as ONE
        ``objective_values_batch`` wave, which schedules each structural
        hash once and executes each distinct execution signature once."""
        state = self._state_for(program)
        to_profile: List[Tuple] = []  # (canonical, key, module, feats)
        for canonical in pending:
            key = self._key(program, canonical, objective, area_weight, entry)
            feats: Optional[np.ndarray] = None
            with tm.span("engine.memo_lookup"), self._lock:
                cached = self._memo.get(key)
                if cached is not None:
                    self.stats.memo_hits += 1
                if want_features and canonical:
                    feats = self._feature_memo.get((id(program), canonical))
                    if feats is not None:
                        self.stats.feature_hits += 1
            tm.count("engine.memo_hits" if cached is not None
                     else "engine.memo_misses")
            if want_features and not canonical:
                feats = features_for(program)
            failure = _cached_failure(cached, canonical)
            if failure is not None:
                if not want_features:
                    unique[canonical] = None
                    continue
                if feats is None:
                    try:
                        feats = self.features_after(program, canonical)
                    except Exception as exc:
                        unique[canonical] = BatchEvaluationError(canonical, exc)
                        continue
                unique[canonical] = (None, feats)
                continue
            if cached is not None and (not want_features or feats is not None):
                unique[canonical] = (cached, feats) if want_features else cached
                continue
            try:
                module = self._materialize(state, canonical, private=False)
            except HLSCompilationError as exc:
                self._memoize_failure(key, exc)
                if want_features:
                    unique[canonical] = BatchEvaluationError(canonical, exc)
                else:
                    unique[canonical] = None
                continue
            except Exception as exc:
                unique[canonical] = BatchEvaluationError(canonical, exc)
                continue
            if want_features and feats is None:
                feats = self._memoize_features(program, canonical, module)
            if cached is not None:
                unique[canonical] = (cached, feats) if want_features else cached
                continue
            with self._lock:
                self.stats.memo_misses += 1
            to_profile.append((canonical, key, module, feats))

        if not to_profile:
            return
        modules = [item[2] for item in to_profile]
        with tm.span("engine.profile_batch", objective=objective,
                     size=len(modules)):
            values = self.toolchain.objective_values_batch(
                modules, objective, area_weight=area_weight, entry=entry)
        for (canonical, key, module, feats), value in zip(to_profile, values):
            if isinstance(value, HLSCompilationError):
                self._memoize_failure(key, value)
                unique[canonical] = (None, feats) if want_features else None
            elif isinstance(value, BaseException):
                unique[canonical] = BatchEvaluationError(canonical, value)
            else:
                with self._lock:
                    self._memo.put(key, value)
                unique[canonical] = (value, feats) if want_features else value

    def memoized_failure(self, program: Module, actions: Sequence[Action],
                         objective: str = "cycles", area_weight: float = 0.05,
                         entry: str = "main") -> Optional[HLSCompilationError]:
        """The exception a memoized failure of this key stands for —
        :class:`StepBudgetError` for step-budget timeouts, plain
        :class:`HLSCompilationError` otherwise, ``None`` when the key is
        not memoized as failing. Lets batch callers (which receive bare
        ``None`` rows) recover which kind of failure was recorded."""
        canonical = canonicalize_sequence(actions)
        key = self._key(program, canonical, objective, area_weight, entry)
        with self._lock:
            cached = self._memo.get(key)
        return _cached_failure(cached, canonical)

    # -- materialization ----------------------------------------------------
    def materialize(self, program: Module, actions: Sequence[Action]) -> Module:
        """A fresh module equal to ``program`` with ``actions`` applied,
        built from the deepest cached prefix (no profiling, no sample).
        The caller owns it and may mutate it freely."""
        return self._materialize(self._state_for(program),
                                 canonicalize_sequence(actions), private=True)

    def _materialize(self, state: _ProgramState,
                     canonical: Tuple[Element, ...], private: bool) -> Module:
        """``private=True``: a copy the caller owns (it leaves the
        engine). ``private=False``: a module for the engine's own
        read-only use (profiling, feature extraction) — it may *be* a
        trie snapshot, or become one, and must never be mutated."""
        with tm.span("engine.materialize", depth=len(canonical)):
            return self._materialize_inner(state, canonical, private)

    def _materialize_inner(self, state: _ProgramState,
                           canonical: Tuple[Element, ...],
                           private: bool) -> Module:
        trie = state.trie
        last = len(canonical)
        with self._lock:
            depth, source = trie.deepest_snapshot(canonical)
            path = trie.walk(canonical)
            if depth > 0:
                self.stats.trie_hits += 1
                self.stats.passes_saved += depth
            # The deepest prefix other evaluations have walked too is the
            # divergence frontier — for population-based searches it is
            # exactly the shared parent prefix, so that is where a
            # snapshot earns its clone. Below it, stride points bound the
            # reapply distance; beyond it the path is (so far) private.
            shared_depth = 0
            for i, node in enumerate(path):
                if node.visits >= self.snapshot_min_visits:
                    shared_depth = i + 1
        if depth == last and not private:
            return source  # profiling and extraction only read it
        module = clone_module(source)
        pm = PassManager()
        for i in range(depth, last):
            element = canonical[i]
            name = pass_name_for_index(element) if isinstance(element, int) else element
            with tm.span("engine.pass_apply"):
                pm.run(module, [name])
            d = i + 1
            on_grid = d == shared_depth or (d < shared_depth and d % self.snapshot_stride == 0)
            # The finished module of a read-only materialization is its
            # own leaf snapshot: when the visit rule promotes the leaf
            # (``snapshot_min_visits=1`` promotes it at once — the RL /
            # inference chain then costs one clone and one pass a step)
            # the very object is installed, not a copy of it.
            own_leaf = d == last and not private
            with self._lock:
                self.stats.passes_applied += 1
                node = path[i] if i < len(path) else None  # budget-truncated walk
                want_snap = node is not None and on_grid and trie.want_snapshot(node)
            if want_snap:
                snapshot = module if own_leaf else clone_module(module)
                with self._lock:
                    if trie.store_snapshot(node, snapshot):
                        self.stats.snapshots_stored += 1
                        self.stats.snapshots_zero_copy += own_leaf
        return module

    # -- introspection ------------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        from ..interp.batch_exec import batch_exec_info
        from ..interp.interpreter import plan_cache_info
        from ..interp.kernels import kernel_cache_info

        info = self.stats.as_dict()
        info["memo_entries"] = len(self._memo)
        info["feature_memo_entries"] = len(self._feature_memo)
        info["snapshot_nodes"] = len(self._lru)
        info["snapshot_evictions"] = self._lru.evictions
        info["trie_nodes"] = self._node_budget.used
        info["programs"] = len(self._programs)
        # process-wide compiled-simulation caches (shared across engines,
        # keyed by the same structural hash as the schedule cache)
        info.update(kernel_cache_info())
        info.update(plan_cache_info())
        info.update(batch_exec_info())
        return info

    def clear(self) -> None:
        """Drop every cached result, snapshot and trie (keeps statistics).
        Also drops the process-wide compiled-kernel and block-plan caches
        (and the batch-executor dedup counters) so a cleared engine
        re-measures a genuinely cold path."""
        from ..interp.batch_exec import clear_batch_exec_stats
        from ..interp.interpreter import clear_plan_cache
        from ..interp.kernels import clear_kernel_cache

        with self._lock:
            self._memo.clear()
            self._feature_memo.clear()
            self._programs.clear()
            self._lru = SnapshotLRU(self._lru.max_nodes)
            self._node_budget = NodeBudget(self._node_budget.max_nodes)
        clear_kernel_cache()
        clear_plan_cache()
        clear_batch_exec_stats()
