"""Worker-process side of the evaluation service.

Each worker is a separate OS process owning a full, private evaluation
stack — :class:`~repro.toolchain.HLSToolchain` plus its
:class:`~repro.engine.EvaluationEngine` — so worker processes never
share mutable compiler state and the GIL stops being the scaling wall.
Programs arrive once, pickled, over the request queue ("register");
evaluation requests then reference them by a client-chosen program id
and carry whole per-worker batches of canonical sequences.

Determinism and accounting contract: the worker evaluates through the
same engine the in-process path uses, so values are bit-identical to a
local :class:`EvaluationEngine` (and therefore to
``HLSToolchain(use_engine=False)``). Every response carries the number
of true simulator invocations it consumed so the client can keep the
owning toolchain's ``samples_taken`` exact across process boundaries;
persistent-store hits consume (and report) zero.

The worker both *reads* the persistent store (warm start at program
registration) and *writes* it (one append per fresh result), so results
computed anywhere become visible to every later run.
"""

from __future__ import annotations

import pickle
import sys
import time
import traceback
from typing import Any, Dict, Optional, Tuple

from .. import telemetry as tm
from ..engine.memo import FAILED, FAILED_BUDGET
from ..hls.profiler import HLSCompilationError, StepBudgetError
from .fingerprint import toolchain_fingerprint
from .store import ResultStore, make_key

__all__ = ["worker_main", "dumps_module", "loads_module",
           "MSG_REGISTER", "MSG_EVALUATE", "MSG_STATS", "MSG_SHUTDOWN"]

# Request message tags (first tuple element on the request queue).
MSG_REGISTER = "register"    # (tag, program_id, program_fp, module_bytes)
MSG_EVALUATE = "evaluate"    # (tag, request_id, program_id,
#                               [(seq, obj, aw, entry, want_features), ...]
#                               [, client_monotonic_enqueue_ts
#                                [, (trace_id, parent_span_id)]])
# The optional trailing elements are the client's ``time.monotonic()``
# at enqueue time (CLOCK_MONOTONIC is machine-wide on Linux, so the
# worker subtracts it from its own clock to measure queue wait) and,
# under REPRO_TELEMETRY=trace, the dispatching span's trace context so
# worker spans join the request's distributed trace. Old clients that
# omit either still work (read tolerantly), and old workers ignore
# unknown trailing elements.
MSG_STATS = "stats"          # (tag, request_id)
MSG_SHUTDOWN = "shutdown"    # (tag,)

# Per-item response payloads inside a ("result", request_id, items, samples)
# message: ("ok", value, feat|None) | ("failed", feat|None, budget) |
# ("error", repr, traceback) — ``feat`` is the post-sequence Table-2
# feature vector as a plain int list (present whenever the item asked
# for features; computing it never costs a simulator sample), and
# ``budget`` is True when the failure was a simulation step-budget
# timeout rather than a genuine HLS failure.
_PICKLE_RECURSION_LIMIT = 100_000


def dumps_module(module) -> bytes:
    """Pickle an IR module. Deep expression trees (generator output) can
    exceed the default interpreter recursion limit mid-pickle, so raise
    it for the duration."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, _PICKLE_RECURSION_LIMIT))
    try:
        return pickle.dumps(module, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        sys.setrecursionlimit(limit)


def loads_module(data: bytes):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, _PICKLE_RECURSION_LIMIT))
    try:
        return pickle.loads(data)
    finally:
        sys.setrecursionlimit(limit)


class _WorkerState:
    """Everything one worker process owns."""

    def __init__(self, worker_id: int, store_dir: Optional[str],
                 toolchain_config: Dict[str, Any]) -> None:
        # Workers always run the plain engine backend: a worker that
        # honoured REPRO_EVAL_BACKEND=service would recurse into spawning
        # its own workers.
        from ..toolchain import HLSToolchain

        self.worker_id = worker_id
        self.toolchain = HLSToolchain(backend="engine", **toolchain_config)
        self.store = ResultStore(store_dir)
        self.toolchain_fp = toolchain_fingerprint(self.toolchain)
        self.programs: Dict[int, Any] = {}
        self.fingerprints: Dict[int, str] = {}
        # (program_id, StoreKey) → value/FAILED, warm-started from disk.
        self.persisted: Dict[Tuple[int, Tuple], Any] = {}
        # (program_id, canonical sequence) → feature vector (int list),
        # warm-started from v2 records of the same shards.
        self.features: Dict[Tuple[int, Tuple], Any] = {}
        # program_id → traceback of a failed registration, reported with
        # every subsequent evaluation of that program
        self.register_errors: Dict[int, str] = {}
        self.persistent_hits = 0

    def register(self, program_id: int, program_fp: str, module_bytes: bytes) -> None:
        if program_id in self.programs:
            return
        self.programs[program_id] = loads_module(module_bytes)
        self.fingerprints[program_id] = program_fp
        values, features = self.store.load_with_features(program_fp,
                                                         self.toolchain_fp)
        for key, value in values.items():
            self.persisted[(program_id, key)] = value
        for canonical, feat in features.items():
            self.features[(program_id, canonical)] = feat

    def evaluate_one(self, program_id: int, item: Tuple) -> Tuple:
        sequence, objective, area_weight, entry, want_features = item
        canonical = tuple(sequence)
        key = make_key(objective, area_weight, entry, canonical)
        cached = self.persisted.get((program_id, key))
        feat = self.features.get((program_id, canonical)) if want_features else None
        program = self.programs[program_id]
        engine = self.toolchain.engine
        if cached is not None:
            self.persistent_hits += 1
            if want_features and feat is None:
                # A v1 (cycle-only) record: recompute features on demand —
                # sample-free materialization — and append the upgraded
                # v2 record beside the old one (duplicates are harmless).
                feat = [int(x) for x in engine.features_after(program, canonical)]
                self.features[(program_id, canonical)] = feat
                self.store.append(self.fingerprints[program_id],
                                  self.toolchain_fp, key, cached, feat)
            if cached is FAILED or cached is FAILED_BUDGET:
                return ("failed", feat, cached is FAILED_BUDGET)
            return ("ok", cached, feat)
        try:
            if want_features:
                value, feats = engine.evaluate_with_features(
                    program, canonical, objective=objective,
                    area_weight=area_weight, entry=entry)
                feat = [int(x) for x in feats]
            else:
                value = engine.evaluate(program, canonical, objective=objective,
                                        area_weight=area_weight, entry=entry)
        except HLSCompilationError as exc:
            sentinel = FAILED_BUDGET if isinstance(exc, StepBudgetError) else FAILED
            if want_features:
                feat = [int(x) for x in engine.features_after(program, canonical)]
                self.features[(program_id, canonical)] = feat
            self.persisted[(program_id, key)] = sentinel
            self.store.append(self.fingerprints[program_id], self.toolchain_fp,
                              key, sentinel, feat)
            return ("failed", feat, sentinel is FAILED_BUDGET)
        self.persisted[(program_id, key)] = value
        if feat is not None:
            self.features[(program_id, canonical)] = feat
        self.store.append(self.fingerprints[program_id], self.toolchain_fp,
                          key, value, feat)
        return ("ok", value, feat)

    def _safe_one(self, program_id: int, item: Tuple) -> Tuple:
        try:
            return self.evaluate_one(program_id, item)
        except Exception as exc:  # engine/toolchain crash, not HLS
            return ("error", repr(exc), traceback.format_exc())

    def evaluate_many(self, program_id: int, items) -> list:
        """Evaluate a whole per-shard submission, batching engine-bound
        items of a shared evaluation context through one
        ``engine.evaluate_batch`` call so the batch executor's dedup
        sees the worker's full wave. Persistent-store hits stay
        per-item (no simulator cost to batch); a crashing candidate
        falls the whole group back to per-item evaluation, which reports
        ``("error", ...)`` only for the offender."""
        results: list = [None] * len(items)
        groups: Dict[Tuple, list] = {}
        for idx, item in enumerate(items):
            sequence, objective, area_weight, entry, want_features = item
            key = make_key(objective, area_weight, entry, tuple(sequence))
            if (program_id, key) in self.persisted:
                results[idx] = self._safe_one(program_id, item)
                continue
            groups.setdefault((objective, area_weight, entry, want_features),
                              []).append(idx)
        program = self.programs[program_id]
        engine = self.toolchain.engine
        for (objective, area_weight, entry, want_features), idxs in groups.items():
            if len(idxs) < 2:
                for idx in idxs:
                    results[idx] = self._safe_one(program_id, items[idx])
                continue
            seqs = [tuple(items[idx][0]) for idx in idxs]
            try:
                rows = engine.evaluate_batch(
                    program, seqs, objective=objective,
                    area_weight=area_weight, entry=entry,
                    want_features=want_features)
            except Exception:
                for idx in idxs:
                    results[idx] = self._safe_one(program_id, items[idx])
                continue
            for idx, row in zip(idxs, rows):
                results[idx] = self._finish_batched(program_id, items[idx], row)
        return results

    def _finish_batched(self, program_id: int, item: Tuple, row) -> Tuple:
        """Record one ``evaluate_batch`` row exactly as
        :meth:`evaluate_one` would have: persist the value (or failure
        sentinel) once, keep the feature map warm, ship the same
        response tuple."""
        sequence, objective, area_weight, entry, want_features = item
        canonical = tuple(sequence)
        key = make_key(objective, area_weight, entry, canonical)
        value, feat = (row if want_features else (row, None))
        if feat is not None:
            feat = [int(x) for x in feat]
            self.features[(program_id, canonical)] = feat
        if value is None:
            failure = self.toolchain.engine.memoized_failure(
                self.programs[program_id], canonical, objective=objective,
                area_weight=area_weight, entry=entry)
            budget = isinstance(failure, StepBudgetError)
            sentinel = FAILED_BUDGET if budget else FAILED
            if (program_id, key) not in self.persisted:  # dedup duplicates
                self.persisted[(program_id, key)] = sentinel
                self.store.append(self.fingerprints[program_id],
                                  self.toolchain_fp, key, sentinel, feat)
            return ("failed", feat, budget)
        if (program_id, key) not in self.persisted:
            self.persisted[(program_id, key)] = value
            self.store.append(self.fingerprints[program_id],
                              self.toolchain_fp, key, value, feat)
        return ("ok", value, feat)

    def cache_info(self) -> Dict[str, int]:
        info = self.toolchain.engine.cache_info()
        info["persistent_hits"] = self.persistent_hits
        info["samples_taken"] = self.toolchain.samples_taken
        return info


def worker_main(worker_id: int, request_queue, response_queue,
                store_dir: Optional[str],
                toolchain_config: Optional[Dict[str, Any]] = None) -> None:
    """Process entry point: serve requests until MSG_SHUTDOWN (or EOF)."""
    # A forked worker inherits the parent's counters; start from zero so
    # the snapshot this worker ships back never double-counts the parent.
    tm.reset_for_child({"role": "worker", "worker": worker_id})
    state = _WorkerState(worker_id, store_dir, toolchain_config or {})
    while True:
        try:
            message = request_queue.get()
        except (EOFError, OSError):  # parent died; queues torn down
            return
        tag = message[0]
        if tag == MSG_SHUTDOWN:
            return
        if tag == MSG_REGISTER:
            _, program_id, program_fp, module_bytes = message
            try:
                state.register(program_id, program_fp, module_bytes)
            except Exception:  # surfaced on the first evaluate instead
                state.programs.pop(program_id, None)
                state.register_errors[program_id] = traceback.format_exc()
            continue
        if tag == MSG_STATS:
            _, request_id = message
            response_queue.put(("stats", request_id, state.cache_info(),
                                worker_id))
            continue
        if tag == MSG_EVALUATE:
            request_id, program_id, items = message[1], message[2], message[3]
            enqueue_ts = message[4] if len(message) > 4 else None
            trace_ctx = message[5] if len(message) > 5 else None
            if enqueue_ts is not None:
                tm.observe("worker.queue_wait.seconds",
                           max(0.0, time.monotonic() - enqueue_ts))
            tm.count("worker.items", len(items))
            before = state.toolchain.samples_taken
            # Under trace mode the dispatching client ships its span's
            # (trace_id, span_id); attaching it parents this worker's
            # spans into the request's distributed trace. No-op
            # otherwise.
            with tm.attach_trace(trace_ctx), \
                    tm.span("worker.evaluate", items=len(items)):
                if program_id not in state.programs:
                    detail = state.register_errors.get(program_id, "")
                    why = ("registration failed" if detail
                           else "never registered")
                    results = [("error", f"program {program_id} {why} "
                                f"with worker {worker_id}", detail)
                               for _ in items]
                else:
                    results = state.evaluate_many(program_id, items)
            samples = state.toolchain.samples_taken - before
            tm.count("worker.samples", samples)
            # Cumulative telemetry snapshot rides every reply so the
            # client always has the latest per-worker view (merged at
            # read time, never accumulated — see client._worker_snapshots).
            # Trace events ride the same way (drained, so never
            # re-shipped): the client writes them to the trace log under
            # this worker's generation-tagged proc name, keeping file
            # access out of worker processes.
            response_queue.put(("result", request_id, results, samples,
                                tm.snapshot(),
                                tm.drain_trace_events() or None))
