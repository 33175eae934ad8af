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
engine memo hits consume (and report) zero.

Evaluation itself is :class:`Shard`, which only *writes* the store:
the client reads it and never sends a known result. ``workers=0`` runs
the same class in-process, so both modes share one path to the store.
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

__all__ = ["Shard", "worker_main", "dumps_module", "loads_module",
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


class Shard:
    """Evaluate what is sent on one engine, append each fresh result to
    the persistent store, and reply with the payload tuples above.

    Whether a result is already known is the client's decision, so a
    shard keeps no result map and reads nothing from the store. A
    worker process runs one on its private engine, an in-process client
    (``workers=0``) one on its local engine.
    """

    def __init__(self, engine, store: ResultStore, toolchain_fp: str) -> None:
        self.engine = engine
        self.store = store
        self.toolchain_fp = toolchain_fp
        # program_id → (module, program fingerprint)
        self.programs: Dict[int, Tuple[Any, str]] = {}

    def register(self, program_id: int, program_fp: str, module) -> None:
        self.programs.setdefault(program_id, (module, program_fp))

    def _reply(self, program_id: int, item: Tuple, value, feat,
               failure: Optional[BaseException] = None) -> Tuple:
        """Append one result (``value`` None: a failure, budget kind
        told by ``failure``) and shape its payload."""
        sequence, objective, area_weight, entry, _ = item
        if feat is not None:
            feat = [int(x) for x in feat]
        if value is None:
            value = (FAILED_BUDGET if isinstance(failure, StepBudgetError)
                     else FAILED)
        self.store.append(self.programs[program_id][1], self.toolchain_fp,
                          make_key(objective, area_weight, entry,
                                   tuple(sequence)), value, feat)
        if value is FAILED or value is FAILED_BUDGET:
            return ("failed", feat, value is FAILED_BUDGET)
        return ("ok", value, feat)

    def evaluate_one(self, program_id: int, item: Tuple) -> Tuple:
        sequence, objective, area_weight, entry, want_features = item
        canonical = tuple(sequence)
        program = self.programs[program_id][0]
        context = dict(objective=objective, area_weight=area_weight,
                       entry=entry)
        feat = None
        try:
            if want_features:
                value, feat = self.engine.evaluate_with_features(
                    program, canonical, **context)
            else:
                value = self.engine.evaluate(program, canonical, **context)
        except HLSCompilationError as exc:
            if want_features:
                feat = self.engine.features_after(program, canonical)
            return self._reply(program_id, item, None, feat, exc)
        return self._reply(program_id, item, value, feat)

    def _safe_one(self, program_id: int, item: Tuple) -> Tuple:
        try:
            return self.evaluate_one(program_id, item)
        except Exception as exc:  # engine/toolchain crash, not HLS
            return ("error", repr(exc), traceback.format_exc())

    def evaluate_many(self, program_id: int, items) -> list:
        """Evaluate a whole per-shard submission, batching items of a
        shared evaluation context through one ``engine.evaluate_batch``
        call so the batch executor's dedup sees the full wave. A
        crashing candidate falls its group back to per-item evaluation,
        which reports ``("error", ...)`` only for the offender and still
        persists its siblings."""
        results: list = [None] * len(items)
        groups: Dict[Tuple, list] = {}
        for idx, item in enumerate(items):
            groups.setdefault(tuple(item[1:]), []).append(idx)
        program = self.programs[program_id][0]
        for (objective, area_weight, entry, want_features), idxs in groups.items():
            context = dict(objective=objective, area_weight=area_weight,
                           entry=entry)
            rows = None
            if len(idxs) > 1:
                try:
                    rows = self.engine.evaluate_batch(
                        program, [tuple(items[idx][0]) for idx in idxs],
                        want_features=want_features, **context)
                except Exception:
                    pass
            if rows is None:
                for idx in idxs:
                    results[idx] = self._safe_one(program_id, items[idx])
                continue
            for idx, row in zip(idxs, rows):
                value, feat = row if want_features else (row, None)
                # the engine collapses a failing row to a bare None; its
                # memo still knows which kind of failure it was
                failure = None if value is not None else \
                    self.engine.memoized_failure(program, items[idx][0],
                                                 **context)
                results[idx] = self._reply(program_id, items[idx], value,
                                           feat, failure)
        return results


def worker_main(worker_id: int, request_queue, response_queue,
                store_dir: Optional[str],
                toolchain_config: Optional[Dict[str, Any]] = None) -> None:
    """Process entry point: serve requests until MSG_SHUTDOWN (or EOF)."""
    # A forked worker inherits the parent's counters; start from zero so
    # the snapshot this worker ships back never double-counts the parent.
    tm.reset_for_child({"role": "worker", "worker": worker_id})
    # Workers always run the plain engine backend: a worker that
    # honoured REPRO_EVAL_BACKEND=service would recurse into spawning
    # its own workers.
    from ..toolchain import HLSToolchain

    toolchain = HLSToolchain(backend="engine", **(toolchain_config or {}))
    shard = Shard(toolchain.engine, ResultStore(store_dir),
                  toolchain_fingerprint(toolchain))
    # program_id → traceback of a failed registration, reported with
    # every subsequent evaluation of that program
    register_errors: Dict[int, str] = {}
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
                shard.register(program_id, program_fp,
                               loads_module(module_bytes))
            except Exception:  # surfaced on the first evaluate instead
                register_errors[program_id] = traceback.format_exc()
            continue
        if tag == MSG_STATS:
            _, request_id = message
            info = toolchain.engine.cache_info()
            info["samples_taken"] = toolchain.samples_taken
            response_queue.put(("stats", request_id, info, worker_id))
            continue
        if tag == MSG_EVALUATE:
            request_id, program_id, items = message[1], message[2], message[3]
            enqueue_ts = message[4] if len(message) > 4 else None
            trace_ctx = message[5] if len(message) > 5 else None
            if enqueue_ts is not None:
                tm.observe("worker.queue_wait.seconds",
                           max(0.0, time.monotonic() - enqueue_ts))
            tm.count("worker.items", len(items))
            before = toolchain.samples_taken
            # Under trace mode the dispatching client ships its span's
            # (trace_id, span_id); attaching it parents this worker's
            # spans into the request's distributed trace. No-op
            # otherwise.
            with tm.attach_trace(trace_ctx), \
                    tm.span("worker.evaluate", items=len(items)):
                if program_id not in shard.programs:
                    detail = register_errors.get(program_id, "")
                    why = ("registration failed" if detail
                           else "never registered")
                    results = [("error", f"program {program_id} {why} "
                                f"with worker {worker_id}", detail)
                               for _ in items]
                else:
                    results = shard.evaluate_many(program_id, items)
            samples = toolchain.samples_taken - before
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
