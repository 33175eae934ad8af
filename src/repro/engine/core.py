"""The EvaluationEngine — the single evaluation primitive of the repro.

Wraps an :class:`~repro.toolchain.HLSToolchain` with four cache layers
(result memo, feature memo, no-op-aware prefix-trie snapshots, and —
inside the profiler — incremental scheduling). Every cache miss is
profiled as a wave: a population's misses form one, a single
evaluation is a wave of one. See the package docstring for the
cache-key/invalidation contract.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import telemetry as tm
from ..features.extractor import features_for
from ..hls.profiler import HLSCompilationError
from ..interp.kernels import VerificationError
from ..ir.cloning import clone_module
from ..ir.module import Module
from ..passes import PassManager
from ..passes.registry import PASS_TABLE, TERMINATE_INDEX, pass_name_for_index
from .memo import (
    CRASHED,
    FAILED_BUDGET,
    EngineStats,
    EvaluationCrash,
    ResultMemo,
    failure_for,
    failure_row,
    failure_value,
)
from .trie import NodeBudget, PrefixTrie, Resolution, SnapshotLRU

__all__ = ["EvaluationEngine", "canonicalize_sequence"]

Action = Union[int, str]
Element = Union[int, str]


def canonicalize_sequence(actions: Sequence[Action]) -> Tuple[Element, ...]:
    """Terminate-truncate and index-normalize a pass sequence.

    Integer actions stay integers (``-terminate``'s index ends the
    sequence, mirroring the RL environment); Table-1 names collapse onto
    their first table index so name- and index-addressed evaluations share
    cache entries. Names outside the table are kept verbatim.
    """
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


class _PendingProfile:
    """One lane of a wave: the module to profile, every memo key its
    value answers and the batch rows waiting for it."""

    __slots__ = ("module", "keys", "rows")

    def __init__(self, module: Module, keys: Sequence[Tuple] = ()) -> None:
        self.module = module
        self.keys: List[Tuple] = list(keys)
        self.rows: List[Tuple] = []


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
    """

    def __init__(self, toolchain, max_trie_nodes: int = 256,
                 max_memo_entries: int = 8192,
                 snapshot_min_visits: int = 2,
                 snapshot_stride: int = 8) -> None:
        self.toolchain = toolchain
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
        # id(program) -> its trie (which keeps the program, and so the
        # id, alive)
        self._programs: Dict[int, PrefixTrie] = {}
        self._lock = threading.Lock()

    # -- program registry ---------------------------------------------------
    def _trie_for(self, program: Module) -> PrefixTrie:
        with self._lock:
            trie = self._programs.get(id(program))
            if trie is None:
                trie = self._programs[id(program)] = PrefixTrie(
                    program, self._lru, self.snapshot_min_visits,
                    self._node_budget)
            return trie

    # -- the one lookup path ------------------------------------------------
    def _count_lookup(self, hit: bool, effective: bool = False) -> None:
        """The one place a result-memo hit or miss is counted — after
        resolution, so ``cache_info()`` and telemetry agree on what an
        effective-sequence hit is. Call with the lock held."""
        if hit:
            self.stats.memo_hits += 1
            tm.count("engine.memo_hits")
            if effective:
                self.stats.effective_hits += 1
                tm.count("engine.effective_hits")
        else:
            self.stats.memo_misses += 1
            tm.count("engine.memo_misses")

    def _memoize_failure(self, keys: Sequence[Tuple], exc: Exception,
                         canonical: Tuple) -> HLSCompilationError:
        """Memoize a failure under ``keys``; return it typed. A non-HLS
        exception is an :class:`EvaluationCrash` of ``canonical`` alone,
        but a kernel :class:`VerificationError` is re-raised."""
        if isinstance(exc, VerificationError):
            raise exc
        if not isinstance(exc, HLSCompilationError):
            exc = EvaluationCrash(canonical, exc)
        if not keys:  # a feature query: no value to memoize or count
            return exc
        value = failure_value(exc)
        with self._lock:
            for key in keys:
                self._memo.put(key, value)
            if value is CRASHED:
                self.stats.internal_errors += 1
                tm.count("engine.internal_error")
            elif value is FAILED_BUDGET:
                self.stats.budget_failures_memoized += 1
            else:
                self.stats.failures_memoized += 1
        return exc

    def _prepare(self, program: Module, canonical: Tuple[Element, ...],
                 tail: Optional[Tuple], want_features: bool = False,
                 want_module: bool = False, wave: Optional[Dict] = None
                 ) -> Tuple[Optional[float], Optional[np.ndarray],
                            Optional[Module], List[Tuple]]:
        """Answer one query as far as the caches go; every entry point is
        a thin wrapper around this.

        ``tail`` is ``(objective, area_weight, entry)``, or ``None`` when
        no value is asked for. Lookups go raw canonical key first (a warm
        query stops there), then — once the sequence is resolved through
        the trie — the key of its effective sequence. A module is built
        only for what is still missing after both: a value to profile,
        features to extract, or the caller's private copy.

        Returns ``(value, feats, module, keys)``. ``value is None`` means
        the caller must profile ``module`` and memoize under every key in
        ``keys``; with ``wave`` (the batch path: effective key →
        pending profile) it may be a sibling's pending profile instead.
        Raises the :class:`HLSCompilationError` a memoized failure stands
        for, or the :class:`EvaluationCrash` a crashing pass became."""
        pid = id(program)
        keys = [(pid, canonical) + tail] if tail else []
        feats: Optional[np.ndarray] = None
        module: Optional[Module] = None
        if want_features and not canonical:
            # Base programs handed to the engine are immutable: their
            # features come straight off the shared (module, version) memo.
            feats = features_for(program)
            want_features = False
        with tm.span("engine.memo_lookup"), self._lock:
            value = self._memo.get(keys[0]) if tail else None
            if want_features:
                feats = self._feature_memo.get((pid, canonical))
                self.stats.feature_hits += feats is not None
            failure = failure_for(value, canonical)
            cold = failure is None and (
                want_module or (tail is not None and value is None)
                or (want_features and feats is None))
            if tail and not cold:
                self._count_lookup(True)
        if cold:
            value, feats, module = self._prepare_cold(
                program, canonical, tail, keys, value, feats, want_features,
                want_module, wave)
            failure = failure_for(value, canonical)
        if failure is not None:
            raise failure
        return value, feats, module, keys

    def _prepare_cold(self, program: Module, canonical: Tuple[Element, ...],
                      tail: Optional[Tuple], keys: List[Tuple], value,
                      feats: Optional[np.ndarray], want_features: bool,
                      want_module: bool, wave: Optional[Dict]):
        """:meth:`_prepare` past the raw keys: resolve the sequence, look
        again under its effective sequence (appending that key to
        ``keys``), build a module only if something is still unmet."""
        pid = id(program)
        module: Optional[Module] = None
        effective_hit = False
        trie = self._trie_for(program)
        with self._lock:
            res = trie.resolve(canonical)
        try:
            self._finish(trie, res)  # runs only what the trie cannot answer
            effective = tuple(res.effective)
            if tail and effective != canonical:
                keys.append((pid, effective) + tail)
            with self._lock:
                if tail and value is None:
                    value = self._memo.get(keys[-1])
                    if value is None and wave is not None:
                        value = wave.get(keys[-1])
                    elif value is not None and len(keys) > 1:
                        self._memo.put(keys[0], value)
                    effective_hit = value is not None and len(keys) > 1
                if want_features and feats is None:
                    feats = self._feature_memo.get((pid, effective))
                    if feats is not None:
                        self.stats.feature_hits += 1
                        self._feature_memo.put((pid, canonical), feats)
            if failure_for(value, canonical) is None and (
                    want_module or (tail is not None and value is None)
                    or (want_features and feats is None)):
                module = self._materialize(trie, res, want_module)
            else:  # whatever _finish left in hand, the leaf may keep
                self._admit_leaf(trie, res)
        except Exception as exc:
            raise self._memoize_failure(keys, exc, canonical)
        finally:
            if res.skipped:
                with self._lock:
                    self.stats.noop_skipped += res.skipped
                tm.count("engine.noop_skipped", res.skipped)
        if want_features and feats is None and module is not None:
            # Memoized before the profile attempt, so even a sequence
            # that fails HLS compilation leaves its features behind
            # for a later sample-free features_after.
            feats = features_for(module)
            with self._lock:
                self.stats.feature_misses += 1
                self._feature_memo.put((pid, canonical), feats)
                self._feature_memo.put((pid, effective), feats)
        if tail:
            with self._lock:
                self._count_lookup(value is not None, effective_hit)
        return value, feats, module

    def _profile_wave(self, lanes: List[_PendingProfile], objective: str,
                      area_weight: float, entry: str) -> List[object]:
        """Profile ``lanes`` as ONE ``objective_values_batch`` wave — a
        single evaluation is a wave of one — and memoize each lane's
        value, or its typed failure, under every key the lane answers.
        Returns that value or failure per lane; only a kernel
        :class:`VerificationError` escapes."""
        with tm.span("engine.profile_batch", objective=objective,
                     size=len(lanes)):
            values = self.toolchain.objective_values_batch(
                [lane.module for lane in lanes], objective,
                area_weight=area_weight, entry=entry)
        out: List[object] = []
        for lane, value in zip(lanes, values):
            if isinstance(value, BaseException):
                value = self._memoize_failure(lane.keys, value, lane.keys[0][1])
            else:
                with self._lock:
                    for key in lane.keys:
                        self._memo.put(key, value)
            out.append(value)
        return out

    # -- single evaluation --------------------------------------------------
    def evaluate(self, program: Module, actions: Sequence[Action],
                 objective: str = "cycles", area_weight: float = 0.05,
                 entry: str = "main") -> float:
        """Objective value of ``program`` after ``actions``. Memo hits —
        by the sequence as given or by its effective sequence — do not
        touch the toolchain (no simulator sample); misses clone from the
        deepest cached state and run only what the trie cannot answer."""
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

    def _evaluate(self, program: Module, actions: Sequence[Action],
                  objective: str, area_weight: float, entry: str,
                  want_module: bool, want_features: bool = False
                  ) -> Tuple[float, Optional[Module], Optional[np.ndarray]]:
        value, feats, module, keys = self._prepare(
            program, canonicalize_sequence(actions),
            (objective, area_weight, entry), want_features, want_module)
        if value is None:
            value, = self._profile_wave([_PendingProfile(module, keys)],
                                        objective, area_weight, entry)
            if isinstance(value, BaseException):
                raise value
        return value, module, feats

    def evaluate_prepared(self, program: Module, actions: Sequence[Action],
                          module: Optional[Module] = None,
                          objective: str = "cycles", area_weight: float = 0.05,
                          entry: str = "main",
                          changed: Optional[bool] = None) -> float:
        # only for benchmarks/e2e/tracing.py's name list; module/changed unused
        return self.evaluate(program, actions, objective, area_weight, entry)

    # -- feature queries ------------------------------------------------------
    def features_after(self, program: Module,
                       actions: Sequence[Action] = ()) -> np.ndarray:
        """The 56-feature vector of ``program`` after ``actions`` —
        AutoPhase's observation function as an engine query. Memo hits
        (any sequence whose features, or whose effective sequence's
        features, were computed before, including by a failed evaluation)
        answer without materializing a module; misses clone from the
        deepest cached state, compose the vector from per-function cached
        contributions, and memoize it next to the cycle results. Never
        profiles, never costs a simulator sample.
        The returned array is read-only — copy before mutating."""
        with tm.span("engine.features_after"):
            return self._prepare(program, canonicalize_sequence(actions),
                                 None, want_features=True)[1]

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
        ``None`` where the sequence fails, crashes included (callers apply
        their own penalty). Duplicate sequences are evaluated once, and
        so are sequences that differ only in passes that did nothing.

        With ``want_features=True`` every row becomes a ``(value,
        features)`` pair — the vectorized feature-observation path.
        Failing rows come back as ``(None, features)``, or ``(None,
        None)`` when the module itself could not be built.

        Lookups and materialization run per sequence, in order, exactly
        as :meth:`evaluate` would (same statistics, same failure
        memoization); every module that still needs the simulator is then
        profiled in ONE wave (:meth:`_profile_wave`) — same values, same
        samples as a loop of :meth:`evaluate` calls. Siblings that resolve
        to one effective sequence share one lane: whichever comes first
        carries the module, the rest wait for its value, as they would
        have hit its memo entry in a loop."""
        self.stats.batches += 1
        tm.observe("engine.batch_size", len(sequences))
        keyed = [canonicalize_sequence(seq) for seq in sequences]
        rows: Dict[Tuple[Element, ...], object] = dict.fromkeys(keyed)
        tail = (objective, area_weight, entry)
        wave: Dict[Tuple, _PendingProfile] = {}  # effective key -> lane
        with tm.span("engine.evaluate_batch", size=len(rows)):
            for canonical in rows:
                try:
                    value, feats, module, keys = self._prepare(
                        program, canonical, tail, want_features, wave=wave)
                except HLSCompilationError:
                    rows[canonical] = failure_row(
                        self.features_after, program, canonical, want_features)
                    continue
                if value is None:
                    value = wave[keys[-1]] = _PendingProfile(module)
                if isinstance(value, _PendingProfile):
                    value.keys.extend(k for k in keys if k not in value.keys)
                    value.rows.append((canonical, feats))
                else:
                    rows[canonical] = (value, feats) if want_features else value
            lanes = list(wave.values())
            values = self._profile_wave(lanes, *tail) if lanes else []
            for lane, value in zip(lanes, values):
                if isinstance(value, BaseException):
                    value = None
                for canonical, feats in lane.rows:
                    rows[canonical] = (value, feats) if want_features else value
        return [rows[canonical] for canonical in keyed]

    def memoized_failure(self, program: Module, actions: Sequence[Action],
                         objective: str = "cycles", area_weight: float = 0.05,
                         entry: str = "main") -> Optional[HLSCompilationError]:
        """The exception a memoized failure of this key stands for —
        :class:`StepBudgetError` for step-budget timeouts,
        :class:`EvaluationCrash` for crashes, plain
        :class:`HLSCompilationError` otherwise, ``None`` when the key is
        not memoized as failing. Lets batch callers (which receive bare
        ``None`` rows) recover which kind of failure was recorded."""
        canonical = canonicalize_sequence(actions)
        with self._lock:
            cached = self._memo.get((id(program), canonical, objective,
                                     area_weight, entry))
        return failure_for(cached, canonical)

    # -- materialization ----------------------------------------------------
    def materialize(self, program: Module, actions: Sequence[Action]) -> Module:
        """A fresh module equal to ``program`` with ``actions`` applied,
        built from the deepest cached state (no profiling, no sample).
        The caller owns it and may mutate it freely."""
        return self._prepare(program, canonicalize_sequence(actions), None,
                             want_module=True)[2]

    def _materialize(self, trie: PrefixTrie, res: Resolution,
                     private: bool) -> Module:
        """The module ``res``'s sequence leads to. ``private=True``: a
        copy the caller owns (it leaves the engine). ``private=False``:
        a module for the engine's own read-only use (profiling, feature
        extraction) — it may *be* a trie snapshot, or become one, and
        must never be mutated."""
        with tm.span("engine.materialize", depth=len(res.effective)):
            self._finish(trie, res)
            return self._realize(trie, res, leaf=True, private=private)

    def _finish(self, trie: PrefixTrie, res: Resolution) -> None:
        """Resolve what the trie could not answer: while an unknown
        ``(node, pass)`` pair is left, build the module at that node, run
        the one pass, record its verdict and walk on. A pass that did
        nothing hands the walk back to the trie — whatever follows may be
        known again, and then costs nothing; a pass that changed the
        module opened a state nothing is known below, so the module stays
        in hand from pass to pass. Afterwards ``res.effective`` is final."""
        if not res.rest:
            return
        with tm.span("engine.materialize", depth=len(res.rest)):
            while res.rest:
                module = self._realize(trie, res)
                element, rest = res.rest[0], res.rest[1:]
                changed = self._apply(module, element)
                with self._lock:
                    trie.advance(res, element, changed)
                    res.hold(module)
                    trie.resolve(rest, res=res)

    def _apply(self, module: Module, element: Element) -> bool:
        name = pass_name_for_index(element) if isinstance(element, int) else element
        with tm.span("engine.pass_apply"):
            changed = PassManager().run(module, [name])
        with self._lock:
            self.stats.passes_applied += 1
        return changed

    def _realize(self, trie: PrefixTrie, res: Resolution, leaf: bool = False,
                 private: bool = False) -> Module:
        """A module in the state ``res``'s known path ends in: the one in
        hand, or a copy of the deepest snapshot, with the known edges
        below it re-applied (each came from a real run of its pass, and
        is trusted to change the module again). ``leaf``: that state is
        the sequence's last, so unless ``private`` the module is only
        going to be read — a snapshot may be returned as it is, and a
        module built here may become one."""
        effective = res.effective
        if not res.owned:
            if res.depth > 0:
                with self._lock:
                    self.stats.trie_hits += 1
                    self.stats.passes_saved += res.depth
            if leaf and not private and res.depth == len(effective):
                return res.source  # profiling and extraction only read it
            res.source, res.owned = clone_module(res.source), True
        module = res.source
        while res.depth < len(effective):
            self._snapshot_on_grid(trie, res, module)
            self._apply(module, effective[res.depth])
            res.depth += 1
        if leaf:
            self._admit_leaf(trie, res, copy=private)
        else:
            self._snapshot_on_grid(trie, res, module)
        return module

    def _snapshot_on_grid(self, trie: PrefixTrie, res: Resolution,
                          module: Module) -> None:
        """``module`` is about to leave the state at ``res.depth``: keep
        a copy there if the state has earned one. The deepest state other
        evaluations have walked too is the divergence frontier — for
        population-based searches it is exactly the shared parent — so
        that is where a snapshot earns its clone; above it, stride points
        bound the reapply distance; beyond it the path is (so far)
        private."""
        d = res.depth
        if 0 < d <= len(res.nodes) \
                and (d == res.shared or d % self.snapshot_stride == 0):
            self._store_snapshot(trie, res.nodes[d - 1], module, copy=True)

    def _admit_leaf(self, trie: PrefixTrie, res: Resolution,
                    copy: bool = False) -> None:
        """The module in hand is in the sequence's last state: when the
        visit rule promotes that state (``snapshot_min_visits=1`` promotes
        every leaf at once — an RL / inference chain then costs one clone
        and one pass a step) the very object is installed, not a copy of
        it, unless the caller is about to own it."""
        if res.owned and res.tracked and 0 < res.depth == len(res.nodes):
            self._store_snapshot(trie, res.nodes[-1], res.source, copy)

    def _store_snapshot(self, trie: PrefixTrie, node, module: Module,
                        copy: bool) -> None:
        with self._lock:
            if not trie.want_snapshot(node):
                return
        snapshot = clone_module(module) if copy else module
        with self._lock:
            if trie.store_snapshot(node, snapshot):
                self.stats.snapshots_stored += 1
                self.stats.snapshots_zero_copy += not copy

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
