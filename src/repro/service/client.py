"""EvaluationClient — the programmatic face of the evaluation service.

Duck-types the :class:`~repro.engine.EvaluationEngine` surface
(``evaluate`` / ``evaluate_batch`` / ``evaluate_with_features`` /
``features_after`` / ``evaluate_with_module`` / ``materialize`` /
``cache_info`` / ``clear``),
so ``HLSToolchain(backend="service")`` can install it as
``toolchain.engine`` and every existing caller — the search baselines'
``SequenceEvaluator``, both RL environments, the experiment drivers —
opts in without code changes.

Layering, outermost first — every value query (``submit``,
``evaluate``, ``evaluate_with_features``, ``evaluate_batch``) takes one
path through the first three:

1. **Persistent map** — per registered program, the on-disk store shard
   loaded at registration plus everything resolved since: objective
   values *and* post-sequence feature vectors (schema-v2 records). Hits
   answer instantly, cost zero simulator samples, and survive across
   runs and between concurrent processes sharing one store root. A v1
   (cycle-only) record is a hit too; its features come from
   :meth:`EvaluationClient.features_after`, which appends the upgraded
   v2 record.
2. **In-flight coalescing** — duplicate concurrent requests for one
   ``(program, sequence, objective)`` share a single
   :class:`~concurrent.futures.Future`; only the first dispatches.
3. **One shard per program** — everything else travels as one message
   to the program's :class:`~repro.service.worker.Shard`, which
   evaluates and appends to the store. Programs map to worker processes
   by program fingerprint (``int(fp, 16) % workers``), so one program's
   prefix-trie locality stays within one worker's private engine.
   ``workers=0`` calls an in-process shard on the local engine instead
   of a queue; the reply takes the same road back.
4. **Local engine** — only modules come from an in-process engine:
   ``materialize`` builds one there, because shipping modules across
   processes would cost more than rebuilding them, and
   ``evaluate_with_module`` is ``evaluate`` (the three layers above)
   plus that ``materialize``. Feature misses (``features_after``) are
   extracted there too. No module is ever handed *to* the client.

Sample accounting stays exact across processes: every worker response
reports the simulator invocations it actually consumed and the client
credits them to the owning toolchain under its lock, so
``toolchain.samples_taken`` equals what a single-process run of the same
misses would have counted.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import telemetry as tm
from ..engine.core import EvaluationEngine, canonicalize_sequence
from ..engine.memo import (
    FAILED,
    FAILED_BUDGET,
    EvaluationCrash,
    failure_for,
    failure_row,
)
from ..hls.profiler import HLSCompilationError
from ..ir.module import Module
from .fingerprint import program_fingerprint, toolchain_fingerprint
from .store import ResultStore, StoreKey, make_key
from .worker import (
    MSG_EVALUATE,
    MSG_REGISTER,
    MSG_SHUTDOWN,
    MSG_STATS,
    Shard,
    dumps_module,
    worker_main,
)

__all__ = ["EvaluationClient"]

Action = Union[int, str]


def _feature_array(feat) -> np.ndarray:
    """An int-list feature payload (store record / worker response) as a
    read-only int64 vector — the shape every feature consumer expects."""
    arr = np.asarray(feat, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def _settle(future: Future, canonical: Tuple, value: Any,
            feats: Optional[np.ndarray], want_features: bool) -> Future:
    """Resolve ``future`` with a known value or failure sentinel."""
    failure = failure_for(value, canonical)
    if failure is not None:
        future.set_exception(failure)
    else:
        future.set_result((value, feats) if want_features else value)
    return future


def _default_workers() -> int:
    try:
        return max(0, int(os.environ.get("REPRO_SERVICE_WORKERS", "")))
    except ValueError:
        return max(1, min(4, os.cpu_count() or 1))


class _Program:
    __slots__ = ("program", "fingerprint", "worker_id", "persisted",
                 "features", "key_by_seq", "registered_workers")

    def __init__(self, program: Module, fingerprint: str, worker_id: int) -> None:
        self.program = program
        self.fingerprint = fingerprint
        self.worker_id = worker_id
        self.persisted: Dict[StoreKey, Any] = {}
        # canonical sequence -> read-only feature vector (objective-free
        # key: features depend on the pass sequence only)
        self.features: Dict[Tuple, np.ndarray] = {}
        # canonical sequence -> one persisted StoreKey carrying it, so
        # feature upgrades find a value record without scanning the map
        self.key_by_seq: Dict[Tuple, StoreKey] = {}
        self.registered_workers: set = set()

    def remember(self, key: StoreKey) -> None:
        self.key_by_seq.setdefault(key[3], key)


class _WorkerHandle:
    """One worker process plus its private channels.

    Each worker writes responses to its **own** queue, read by its own
    parent-side reader thread. A shared response queue would serialize
    writers on one cross-process write-lock — and a worker killed while
    holding it (SIGTERM lands between its last pipe write and the lock
    release; near-certain on a single-CPU host) would deadlock every
    other worker forever. Private queues confine that damage to the dead
    worker's channel, which the reaper simply abandons on respawn.
    """

    __slots__ = ("process", "queue", "response_queue", "reader")

    def __init__(self, process, queue, response_queue, reader) -> None:
        self.process = process
        self.queue = queue                  # requests (parent → worker)
        self.response_queue = response_queue  # responses (worker → parent)
        self.reader = reader


class EvaluationClient:
    """Sharded, persistent, coalescing evaluation service client.

    Parameters
    ----------
    toolchain:      the owning :class:`~repro.toolchain.HLSToolchain`
                    (sample-accounting authority; its constraints and
                    step budget are replicated into every worker).
    workers:        worker-process count (``REPRO_SERVICE_WORKERS``
                    overrides; 0 = in-process mode, no subprocesses).
    store_dir:      persistent store root (``REPRO_CACHE_DIR`` /
                    ``.repro-cache`` by default).
    engine_config:  forwarded to the local and worker engines.
    """

    def __init__(self, toolchain, workers: Optional[int] = None,
                 store_dir: Optional[str] = None,
                 engine_config: Optional[dict] = None) -> None:
        self.toolchain = toolchain
        self.workers = _default_workers() if workers is None else max(0, workers)
        self.engine_config = dict(engine_config or {})
        self.store = ResultStore(store_dir)
        self.local = EvaluationEngine(toolchain, **self.engine_config)
        self.toolchain_fp = toolchain_fingerprint(toolchain)
        # the shard of workers=0: the local engine already counts its
        # samples on the owning toolchain
        self._shard = Shard(self.local, self.store, self.toolchain_fp)

        self._lock = threading.RLock()
        self._programs: Dict[int, _Program] = {}
        # in-flight dedup key: (program fingerprint, store key,
        # want_features) — feature appetite partitions coalescing, so a
        # value-only waiter never receives a (value, features) pair
        self._inflight: Dict[Tuple[str, StoreKey, bool], Future] = {}
        # request id → (worker id, None for the in-process shard,
        # [(fullkey, future), ...], send ts) so a dead worker's in-flight
        # requests can be failed rather than hang, and replies can report
        # the round-trip latency
        self._pending: Dict[int, Tuple[Optional[int], List[Tuple[Tuple[str, StoreKey, bool], Future]], float]] = {}
        self._stats_pending: Dict[int, Future] = {}
        self._request_ids = itertools.count()
        self._handles: List[_WorkerHandle] = []
        self._mp_context = None
        self._reaper: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._closed = False

        # client-level counters, reported through cache_info()
        self.persistent_hits = 0
        self.coalesced = 0
        self.dispatched = 0
        self.batches = 0

        # Per-worker-*slot* accounting keyed by worker id, kept client
        # side so the history of a respawned worker never disappears:
        # cumulative requests/samples, respawn counts, the latest
        # telemetry snapshot riding each reply, and snapshots retired
        # when the reaper replaced the process that produced them.
        self.worker_respawns: Dict[int, int] = {}
        self._worker_requests: Dict[int, int] = {}
        self._worker_samples: Dict[int, int] = {}
        self._worker_snapshots: Dict[int, Dict[str, Any]] = {}
        self._retired_snapshots: List[Dict[str, Any]] = []

    # -- engine duck-typing: stats attribute --------------------------------
    @property
    def stats(self):
        return self.local.stats

    # -- program registry ----------------------------------------------------
    def _ensure_program(self, program: Module) -> _Program:
        with self._lock:
            prog = self._programs.get(id(program))
            if prog is None:
                fingerprint = program_fingerprint(program)
                worker_id = int(fingerprint, 16) % self.workers if self.workers else 0
                prog = _Program(program, fingerprint, worker_id)
                self._shard.register(id(program), fingerprint, program)
                values, features = self.store.load_with_features(
                    fingerprint, self.toolchain_fp)
                prog.persisted.update(values)
                for loaded_key in values:
                    prog.remember(loaded_key)
                for canonical, feat in features.items():
                    prog.features[canonical] = _feature_array(feat)
                self._programs[id(program)] = prog
            return prog

    def _check_open(self) -> None:
        """Reject new work after close(): a resurrected pool would have
        no live reaper, so a later worker death could hang its callers."""
        if self._closed:
            raise RuntimeError("EvaluationClient is closed")

    # -- worker pool ---------------------------------------------------------
    def _start_pool(self) -> None:
        """Fork the worker processes (lazily, on first dispatch)."""
        import multiprocessing as mp

        if self._handles:
            return
        self._mp_context = mp.get_context()
        for worker_id in range(self.workers):
            self._handles.append(self._spawn_worker(worker_id))
        self._reaper = threading.Thread(target=self._reap_loop,
                                        name="repro-eval-reaper", daemon=True)
        self._reaper.start()
        # Export worker registries on the workers' behalf: snapshots ride
        # the reply tuples, the client's exporter writes them to the log.
        tm.add_snapshot_provider(self._telemetry_records)

    def _spawn_worker(self, worker_id: int) -> _WorkerHandle:
        toolchain_config = {
            "constraints": self.toolchain.profiler.constraints,
            "max_steps": self.toolchain.profiler.max_steps,
            "engine_config": self.engine_config,
        }
        queue = self._mp_context.Queue()
        response_queue = self._mp_context.Queue()
        # Never let interpreter exit block joining these queues' feeder
        # threads: a dead worker can leave its channels unserviceable.
        queue.cancel_join_thread()
        response_queue.cancel_join_thread()
        process = self._mp_context.Process(
            target=worker_main,
            args=(worker_id, queue, response_queue,
                  self.store.root, toolchain_config),
            name=f"repro-eval-worker-{worker_id}", daemon=True)
        process.start()
        reader = threading.Thread(target=self._reader_loop,
                                  args=(response_queue,),
                                  name=f"repro-eval-reader-{worker_id}",
                                  daemon=True)
        reader.start()
        return _WorkerHandle(process, queue, response_queue, reader)

    def _reap_loop(self) -> None:
        while not self._stop.wait(1.0):
            self._reap_dead_workers()

    def _reap_dead_workers(self) -> None:
        """Fail (never hang) requests routed to a worker that died, and
        respawn it with fresh channels; its programs re-register lazily.
        The dead worker's queues and reader thread are abandoned — they
        may hold torn messages or an orphaned write-lock."""
        doomed: List[Tuple[Tuple[str, StoreKey], Future, str]] = []
        deaths: List[str] = []
        with self._lock:
            if self._closed:
                return
            for worker_id, handle in enumerate(self._handles):
                if handle.process.is_alive():
                    continue
                reason = (f"evaluation worker {worker_id} died "
                          f"(exitcode {handle.process.exitcode}) "
                          f"with requests in flight")
                deaths.append(reason)
                for request_id in [rid for rid, (wid, _, _) in self._pending.items()
                                   if wid == worker_id]:
                    _, waiters, _ = self._pending.pop(request_id)
                    doomed.extend((fullkey, future, reason)
                                  for fullkey, future in waiters)
                # Retire the dead process's accounting before the slot is
                # reused: its last snapshot stays exported under its old
                # generation tag, and the respawn itself is counted.
                snap = self._worker_snapshots.pop(worker_id, None)
                if snap is not None:
                    self._retired_snapshots.append(
                        {"proc": self._worker_proc(worker_id),
                         "snapshot": snap})
                self.worker_respawns[worker_id] = (
                    self.worker_respawns.get(worker_id, 0) + 1)
                tm.count("service.worker_respawns")
                self._handles[worker_id] = self._spawn_worker(worker_id)
                for prog in self._programs.values():
                    prog.registered_workers.discard(worker_id)
            for fullkey, _, _ in doomed:
                self._inflight.pop(fullkey, None)
        if deaths and tm.trace_enabled():
            # Flight-recorder dump (trace mode only): the dead worker's
            # own ring buffer died with it, so record the client-side
            # last-N spans with the death reason — enough to place the
            # failing wave in the trace timeline post-mortem.
            tm.flight_record("; ".join(deaths))
        for fullkey, future, reason in doomed:
            if not future.done():
                future.set_exception(RuntimeError(reason))

    def _reader_loop(self, response_queue) -> None:
        """Drain one worker's private response queue for its lifetime."""
        while True:
            try:
                message = response_queue.get()
            except (EOFError, OSError):
                return
            if message is None:
                return
            self._handle_message(message)

    def _handle_message(self, message) -> None:
        tag = message[0]
        if tag == "stats":
            _, request_id, info, _worker_id = message
            with self._lock:
                future = self._stats_pending.pop(request_id, None)
            if future is not None:
                future.set_result(info)
            return
        request_id, results, samples = message[1], message[2], message[3]
        worker_snapshot = message[4] if len(message) > 4 else None
        worker_events = message[5] if len(message) > 5 else None
        if samples:
            self.toolchain._count_samples(samples)
        worker_proc = None
        with self._lock:
            worker_id, waiters, send_ts = self._pending.pop(
                request_id, (None, (), None))
            if worker_id is not None:
                self._worker_requests[worker_id] = (
                    self._worker_requests.get(worker_id, 0) + 1)
                self._worker_samples[worker_id] = (
                    self._worker_samples.get(worker_id, 0) + samples)
                if worker_snapshot is not None:
                    # latest-wins: snapshots are cumulative per worker
                    # process, so only the newest one may be exported
                    self._worker_snapshots[worker_id] = worker_snapshot
                if worker_events:
                    worker_proc = self._worker_proc(worker_id)
        if worker_events and worker_proc is not None:
            # Worker span events reach the trace log under the worker's
            # generation-tagged identity; workers never open files.
            try:
                tm.export_trace_events(worker_proc, worker_events)
            except Exception:
                pass  # tracing must never fail a result delivery
        if send_ts is not None:
            tm.observe("service.roundtrip.seconds",
                       max(0.0, time.monotonic() - send_ts))
        for (tag, first, second), (fullkey, future) in zip(results, waiters):
            fingerprint, key, want_features = fullkey
            if tag in ("crash", "error"):  # neither is persisted
                with self._lock:
                    self._inflight.pop(fullkey, None)
                future.set_exception(
                    EvaluationCrash(key[3]) if tag == "crash"
                    else RuntimeError(f"{first}\n{second}"))
                continue
            # ("ok", value, feat) | ("failed", feat, budget)
            value, feat = (first, second) if tag == "ok" else (
                FAILED_BUDGET if second else FAILED, first)
            feats = None if feat is None else _feature_array(feat)
            with self._lock:
                self._inflight.pop(fullkey, None)
                prog = next((p for p in self._programs.values()
                             if p.fingerprint == fingerprint), None)
                if prog is not None:
                    prog.persisted[key] = value
                    prog.remember(key)
                    if feats is not None:
                        prog.features[key[3]] = feats
            _settle(future, key[3], value, feats, want_features)

    # -- the one evaluation path -------------------------------------------
    def _resolve(self, program: Module, canonicals: Sequence[Tuple],
                 objective: str, area_weight: float, entry: str,
                 want_features: bool, batch: bool) -> Dict[Tuple, Future]:
        """One Future per distinct canonical sequence. A persistent hit
        is resolved at once, a duplicate of an in-flight request shares
        its Future, and everything else travels as one message to the
        program's shard."""
        prog = self._ensure_program(program)
        futures: Dict[Tuple, Future] = {}
        upgrades: List[Tuple[Tuple, Any]] = []
        sent: List[Tuple[Tuple[str, StoreKey, bool], Future]] = []
        items: List[Tuple] = []
        with self._lock:
            for canonical in canonicals:
                if canonical in futures:
                    continue
                key = make_key(objective, area_weight, entry, canonical)
                cached = prog.persisted.get(key)
                if cached is not None:
                    self.persistent_hits += 1
                    feats = prog.features.get(canonical) if want_features else None
                    if feats is None and want_features and \
                            failure_for(cached, canonical) is None:
                        # a v1 record: value known, features recomputed
                        # below, outside the lock
                        upgrades.append((canonical, cached))
                        futures[canonical] = Future()
                    else:
                        futures[canonical] = _settle(
                            Future(), canonical, cached, feats, want_features)
                    continue
                fullkey = (prog.fingerprint, key, want_features)
                existing = self._inflight.get(fullkey)
                if existing is not None:
                    self.coalesced += 1
                    futures[canonical] = existing
                    continue
                self._check_open()
                future = futures[canonical] = self._inflight[fullkey] = Future()
                sent.append((fullkey, future))
                items.append((list(canonical), objective, area_weight, entry,
                              want_features))
            if sent and self.workers:
                # under the lock, so a respawn cannot come between the
                # registration and the message
                self._dispatch(prog, sent, items, batch)
        if sent and not self.workers:
            # outside the lock: the in-process shard evaluates on this thread
            self._dispatch(prog, sent, items, batch)
        for canonical, cached in upgrades:
            futures[canonical].set_result(
                (cached, self.features_after(program, canonical)))
        return futures

    def _dispatch(self, prog: _Program,
                  sent: List[Tuple[Tuple[str, StoreKey, bool], Future]],
                  items: List[Tuple], batch: bool) -> None:
        """Send one message of fresh requests to the program's shard: a
        worker's queue, or the in-process shard when ``workers=0``,
        whose reply takes the same road as a worker's. Entry-point span:
        under trace mode it mints (or joins) the request's trace, and
        its context rides the message so worker spans parent into it."""
        local = not self.workers
        if not local:
            self._start_pool()
            if prog.worker_id not in prog.registered_workers:
                self._handles[prog.worker_id].queue.put(
                    (MSG_REGISTER, id(prog.program), prog.fingerprint,
                     dumps_module(prog.program)))
                prog.registered_workers.add(prog.worker_id)
        if batch:
            tm.observe("service.batch_size", len(items))
            span = tm.span("service.evaluate_batch", worker=prog.worker_id,
                           size=len(items))
        else:
            span = tm.span("service.submit", worker=prog.worker_id)
        with span:
            send_ts = time.monotonic()
            with self._lock:
                request_id = next(self._request_ids)
                self._pending[request_id] = (None if local else prog.worker_id,
                                             sent, send_ts)
                self.dispatched += len(sent)
                if not local:
                    self._handles[prog.worker_id].queue.put(
                        (MSG_EVALUATE, request_id, id(prog.program), items,
                         send_ts, tm.current_trace()))
            tm.count("service.dispatched", len(sent))
            if local:
                results = self._shard.evaluate_many(id(prog.program), items)
        if local:
            # the shared toolchain has already counted these samples
            self._handle_message(("result", request_id, results, 0))

    # -- public API: async --------------------------------------------------
    def submit(self, program: Module, actions: Sequence[Action],
               objective: str = "cycles", area_weight: float = 0.05,
               entry: str = "main", want_features: bool = False) -> Future:
        """Asynchronously evaluate one sequence; returns a Future whose
        result is the objective value (HLSCompilationError for sequences
        that fail HLS compilation), or a ``(value, features)`` pair with
        ``want_features=True`` — the feature vector rides the same shard
        round-trip and the same persistent record, so warm
        feature-observation queries never materialize a module anywhere.
        Duplicate in-flight requests (same key, same feature appetite)
        share one Future."""
        canonical = canonicalize_sequence(actions)
        return self._resolve(program, [canonical], objective, area_weight,
                             entry, want_features, batch=False)[canonical]

    # -- public API: sync (engine-compatible) -------------------------------
    def evaluate(self, program: Module, actions: Sequence[Action],
                 objective: str = "cycles", area_weight: float = 0.05,
                 entry: str = "main") -> float:
        return self.submit(program, actions, objective=objective,
                           area_weight=area_weight, entry=entry).result()

    def evaluate_batch(
        self, program: Module, sequences: Sequence[Sequence[Action]],
        objective: str = "cycles", area_weight: float = 0.05,
        entry: str = "main", want_features: bool = False,
    ) -> Union[List[Optional[float]],
               List[Tuple[Optional[float], np.ndarray]]]:
        """Engine-compatible population scoring: one value per input
        sequence, ``None`` where the sequence fails. Duplicates are
        resolved once; all misses for a program travel to its shard as a
        single batched message. ``want_features=True`` matches the
        engine's contract (:func:`~repro.engine.memo.failure_row` shapes
        failing rows), riding the same batched message (per-item feature
        flags) and persistent records."""
        self.batches += 1
        keyed = [canonicalize_sequence(seq) for seq in sequences]
        futures = self._resolve(program, keyed, objective, area_weight,
                                entry, want_features, batch=True)
        out: List[Optional[float]] = []
        for canonical in keyed:
            try:
                out.append(futures[canonical].result())
            except HLSCompilationError:
                out.append(failure_row(self.features_after, program,
                                       canonical, want_features))
        return out

    # -- module-returning paths (local engine) --------------------------------
    def evaluate_with_module(self, program: Module, actions: Sequence[Action],
                             objective: str = "cycles", area_weight: float = 0.05,
                             entry: str = "main") -> Tuple[float, Module]:
        return (self.evaluate(program, actions, objective, area_weight, entry),
                self.materialize(program, actions))

    def evaluate_prepared(self, program: Module, actions: Sequence[Action],
                          module: Optional[Module] = None,
                          objective: str = "cycles", area_weight: float = 0.05,
                          entry: str = "main",
                          changed: Optional[bool] = None) -> float:
        # only for benchmarks/e2e/tracing.py's name list; module/changed unused
        return self.evaluate(program, actions, objective, area_weight, entry)

    def materialize(self, program: Module, actions: Sequence[Action]) -> Module:
        return self.local.materialize(program, actions)

    # -- feature queries (engine-compatible) ---------------------------------
    def features_after(self, program: Module,
                       actions: Sequence[Action] = ()) -> np.ndarray:
        """Feature vector of ``program`` after ``actions``. Resolution
        order: the persistent feature map (v2 store records / earlier
        worker responses — no module anywhere), then the local engine's
        feature memo, then a sample-free local materialization. Never
        profiles, never counts a simulator sample."""
        canonical = canonicalize_sequence(actions)
        if not canonical:
            return self.local.features_after(program, ())
        prog = self._ensure_program(program)
        with self._lock:
            feats = prog.features.get(canonical)
        if feats is not None:
            return feats
        feats = self.local.features_after(prog.program, canonical)
        with self._lock:
            prog.features.setdefault(canonical, feats)
            # If some objective already persisted a (cycle-only) result
            # for this sequence, append the upgraded v2 record so the
            # recomputation isn't repeated by the next run.
            key = prog.key_by_seq.get(canonical)
            cached = prog.persisted.get(key) if key is not None else None
        if key is not None and cached is not None:
            self.store.append(prog.fingerprint, self.toolchain_fp, key,
                              cached, features=feats)
        return feats

    def evaluate_with_features(self, program: Module, actions: Sequence[Action],
                               objective: str = "cycles",
                               area_weight: float = 0.05,
                               entry: str = "main") -> Tuple[float, np.ndarray]:
        """Engine-compatible ``(value, features)`` in one query — the
        synchronous face of ``submit(..., want_features=True)``."""
        return self.submit(program, actions, objective=objective,
                           area_weight=area_weight, entry=entry,
                           want_features=True).result()

    # -- introspection / lifecycle ------------------------------------------
    def _worker_proc(self, worker_id: int) -> str:
        """Stable export identity for one worker *process*: the slot id
        plus its respawn generation, so a respawned slot's records never
        clobber (or merge into) its predecessor's in the JSONL log."""
        gen = self.worker_respawns.get(worker_id, 0)
        return f"pid:{os.getpid()}:worker:{worker_id}:g{gen}"

    def _telemetry_records(self) -> List[Dict[str, Any]]:
        """Snapshot-provider hook (see :mod:`repro.telemetry.export`):
        the latest snapshot of every live worker plus those retired at
        respawn — worker metrics reach the log without workers ever
        opening files."""
        with self._lock:
            records = [{"proc": self._worker_proc(wid), "snapshot": snap}
                       for wid, snap in self._worker_snapshots.items()]
            records.extend(dict(rec) for rec in self._retired_snapshots)
        return records

    def worker_info(self) -> List[Dict[str, Any]]:
        """Per-worker-slot utilization that survives respawns: cumulative
        reply/sample counts plus how often the reaper replaced the slot's
        process. (Worker *engine* counters reset with the process —
        they're a different process's memo — but these client-side tallies
        keep the full history.)"""
        with self._lock:
            slots = max(len(self._handles), self.workers)
            out = []
            for wid in range(slots):
                handle = self._handles[wid] if wid < len(self._handles) else None
                out.append({
                    "worker": wid,
                    "alive": bool(handle is not None
                                  and handle.process.is_alive()),
                    "requests": self._worker_requests.get(wid, 0),
                    "samples": self._worker_samples.get(wid, 0),
                    "respawns": self.worker_respawns.get(wid, 0),
                })
        return out

    def worker_cache_info(self, timeout: float = 5.0) -> List[Dict[str, int]]:
        """Engine cache statistics from every live worker process."""
        infos: List[Dict[str, int]] = []
        with self._lock:
            handles = [h for h in self._handles if h.process.is_alive()]
            futures = []
            for handle in handles:
                request_id = next(self._request_ids)
                future: Future = Future()
                self._stats_pending[request_id] = future
                try:
                    handle.queue.put((MSG_STATS, request_id))
                except (OSError, ValueError):  # torn down mid-shutdown
                    self._stats_pending.pop(request_id, None)
                    continue
                futures.append(future)
        for future in futures:
            try:
                infos.append(future.result(timeout=timeout))
            except Exception:
                infos.append({})
        return infos

    def cache_info(self, include_workers: bool = True) -> Dict[str, int]:
        """Local-engine statistics plus client/service-level counters,
        with worker-engine counters folded in. ``include_workers=False``
        skips the worker round-trip (a busy worker answers stats only
        between batches, so the fold can wait out the timeout) — used by
        the toolchain's retire-on-collection path."""
        info = self.local.cache_info()
        with self._lock:
            info["persistent_entries"] = sum(
                len(p.persisted) for p in self._programs.values())
            info["persistent_feature_entries"] = sum(
                len(p.features) for p in self._programs.values())
        info["persistent_hits"] = self.persistent_hits
        info["coalesced_requests"] = self.coalesced
        info["dispatched_requests"] = self.dispatched
        info["service_batches"] = self.batches
        info["workers"] = len(self._handles) if self._handles else self.workers
        info["worker_respawns"] = sum(self.worker_respawns.values())
        if include_workers:
            for worker_info in self.worker_cache_info():
                for key, value in worker_info.items():
                    if key == "samples_taken":
                        continue
                    info[key] = info.get(key, 0) + value
        return info

    def clear(self) -> None:
        """Drop in-memory caches (the persistent store on disk is kept;
        use ``ResultStore.clear`` / ``repro cache clear`` for that)."""
        with self._lock:
            self.local.clear()
            self._programs.clear()
            self._shard.programs.clear()

    def close(self, timeout: float = 5.0) -> None:
        """Shut the worker pool down. Idempotent; safe to skip (workers,
        readers and the reaper are daemons and die with the parent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles, self._handles = self._handles, []
        tm.remove_snapshot_provider(self._telemetry_records)
        self._stop.set()
        if self._reaper is not None:
            self._reaper.join(timeout=timeout)
        for handle in handles:
            try:
                handle.queue.put((MSG_SHUTDOWN,))
            except (OSError, ValueError):
                pass
        for handle in handles:
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():
                handle.process.terminate()
            try:  # stop the reader; a wedged one is abandoned (daemon)
                handle.response_queue.put(None)
            except (OSError, ValueError):
                pass

    def __enter__(self) -> "EvaluationClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
