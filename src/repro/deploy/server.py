"""``repro serve-policy`` — batched policy inference on a Unix socket.

One process owns the loaded policies and the evaluation toolchain; any
number of concurrent clients ask it for pass orderings over the
JSON-lines protocol of :mod:`repro.transport` (pipelined, ``id`` echoed)::

    {"op": "infer", "policy": "prod", "program": "gsm", "id": 1}
                                 → {"ok": true, "sequence": [...], "id": 1}
    {"op": "optimize", "policy": "prod", "program": "gen:7", "refine": 8}
                                 → {"ok": true, "sequence": [...], "cycles": ...,
                                    "o3_cycles": ..., "source": "policy", ...}
    {"op": "policies"} / {"op": "stats"} / {"op": "ping"} / {"op": "metrics"}
    {"op": "shutdown"}

**Cross-request batching.** ``infer`` and ``optimize`` enqueue the
request with a Future and the reply is written when it resolves. One
batcher thread drains the queue, groups requests by (policy, op) and
serves each group as one
:meth:`~repro.deploy.policy.PolicyRunner.infer_batch` rollout — N
concurrent clients cost one policy forward per rollout step, not N.

**Graceful shutdown.** SIGTERM (or a ``shutdown`` op) stops accepting
connections, lets the wave in flight finish and reply, fails every
queued-but-unstarted request with :class:`ServerClosing`, and only then
closes the toolchain.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import telemetry as tm
from ..service.server import ProgramCache
from ..toolchain import HLSToolchain
from ..transport import JsonLinesServer
from .policy import PolicyRunner
from .registry import ModelRegistry

__all__ = ["PolicyServer", "ServerClosing"]


class ServerClosing(RuntimeError):
    """Raised into Futures whose request was queued when shutdown began."""


@dataclass
class _Pending:
    op: str
    policy: str
    program: str
    opts: Tuple
    future: Future
    # Trace context captured on the handler thread; the batcher thread
    # re-attaches it — thread-locals don't cross the queue.
    trace: Optional[Tuple] = None
    enqueued: float = field(default_factory=time.monotonic)


_STOP = object()   # batcher sentinel: fail everything still queued, exit
_CLOSING = "policy server is shutting down; request was not processed"


class PolicyServer(JsonLinesServer):
    """Serve registry policies with cross-request batched inference."""

    def __init__(self, socket_path: str,
                 registry: Optional[ModelRegistry] = None,
                 registry_root: Optional[str] = None,
                 policies: Optional[List[str]] = None,
                 default_policy: Optional[str] = None,
                 toolchain: Optional[HLSToolchain] = None,
                 allow_mismatch: bool = False) -> None:
        self.registry = registry or ModelRegistry(registry_root)
        self.toolchain = toolchain or HLSToolchain()
        self.allow_mismatch = allow_mismatch
        self._runners: Dict[str, PolicyRunner] = {}
        self._module = ProgramCache()
        self._lock = threading.Lock()
        if policies:
            for name in policies:
                self._runner(name)      # fail fast on unknown/mismatched
        self.default_policy = default_policy or (policies[0] if policies
                                                 else None)
        self.stats = {"requests": 0, "waves": 0, "forwards": 0,
                      "batched_requests": 0, "max_batch": 0, "errors": 0}
        self._queue: "queue.Queue" = queue.Queue()
        self._closing = False
        self._batcher = threading.Thread(target=self._batch_loop,
                                         name="repro-policy-batcher",
                                         daemon=True)
        self._batcher.start()
        super().__init__(socket_path, {
            "policies": self._policies, "stats": self._stats,
            "infer": self.enqueue, "optimize": self.enqueue,
        }, span_prefix="policy.op", queued=("infer", "optimize"))

    # -- policy resolution ---------------------------------------------------
    def _runner(self, name: Optional[str]) -> PolicyRunner:
        if name is None:
            raise ValueError("no policy named in the request and the server "
                             "has no default policy")
        with self._lock:
            runner = self._runners.get(name)
        if runner is None:
            runner = self.registry.load(name, toolchain=self.toolchain,
                                        allow_mismatch=self.allow_mismatch)
            with self._lock:
                runner = self._runners.setdefault(name, runner)
        return runner

    # -- ops -----------------------------------------------------------------
    def enqueue(self, req: Dict) -> Future:
        future: Future = Future()
        if "program" not in req:
            future.set_exception(KeyError("request is missing 'program'"))
            return future
        opts = ((int(req.get("refine", 0)), int(req.get("seed", 0)))
                if req["op"] == "optimize" else ())
        # The closing check and the put share the lock close() takes to
        # enqueue _STOP: a request is either ahead of the sentinel
        # (served or failed by the batcher) or rejected here.
        with self._lock:
            if self._closing:
                future.set_exception(ServerClosing(_CLOSING))
                return future
            self.stats["requests"] += 1
            # the request-borne trace context the transport attached, or
            # the caller's open span; the batcher re-attaches it
            self._queue.put(_Pending(req["op"],
                                     req.get("policy") or self.default_policy,
                                     str(req["program"]), opts, future,
                                     trace=tm.current_trace()))
        return future

    def _policies(self, req: Dict) -> Dict:
        with self._lock:   # the batcher lazy-loads runners concurrently
            loaded = sorted(self._runners)
        return {"ok": True, "default": self.default_policy,
                "loaded": loaded, "registry": self.registry.entries()}

    def _stats(self, req: Dict) -> Dict:
        with self._lock:
            stats = dict(self.stats)
        stats["samples_taken"] = self.toolchain.samples_taken
        return {"ok": True, "stats": stats}

    # -- the batching core ----------------------------------------------------
    def _batch_loop(self) -> None:
        while True:
            batch = [self._queue.get()]
            with contextlib.suppress(queue.Empty):
                while batch[-1] is not _STOP:
                    batch.append(self._queue.get_nowait())
            # Shutdown behind a burst: the burst is in flight, everything
            # after the sentinel fails.
            stop = batch[-1] is _STOP
            if stop:
                batch.pop()
            if batch:
                self._run_batch(batch)
            if stop:
                self._fail_queued()
                return

    def _fail_queued(self) -> None:
        with contextlib.suppress(queue.Empty):
            while True:
                item = self._queue.get_nowait()
                if item is not _STOP:
                    item.future.set_exception(ServerClosing(_CLOSING))

    def _run_batch(self, batch: List[_Pending]) -> None:
        tm.observe("policy.batch_size", len(batch))
        now = time.monotonic()
        groups: Dict[Tuple, List[_Pending]] = {}
        for item in batch:
            tm.observe("policy.queue_wait.seconds",
                       max(0.0, now - item.enqueued))
            groups.setdefault((item.policy, item.op, item.opts),
                              []).append(item)
        for (policy, op, opts), items in groups.items():
            try:
                runner = self._runner(policy)
            except Exception as exc:
                self._fail_items(items, exc)
                continue
            ready, modules = [], []
            for item in items:
                try:
                    modules.append(self._module(item.program))
                    ready.append(item)
                except Exception as exc:
                    self._fail_items([item], exc)
            if not ready:
                continue
            before = runner.forwards
            # One wave can coalesce requests from several traces: the
            # wave span joins the first and counts them all.
            traces = [item.trace for item in ready if item.trace]
            try:
                with tm.attach_trace(traces[0] if traces else None), tm.span(
                        f"policy.{op}", batch=len(modules), traces=len(traces)):
                    if op == "infer":
                        results = [{"sequence": [int(a) for a in seq]}
                                   for seq in runner.infer_batch(modules)]
                    else:
                        results = [d.to_json() for d in runner.optimize_batch(
                            modules, refine=opts[0], seed=opts[1])]
            except Exception as exc:
                self._fail_items(ready, exc)
                continue
            with self._lock:
                self.stats["waves"] += 1
                self.stats["forwards"] += runner.forwards - before
                self.stats["max_batch"] = max(self.stats["max_batch"],
                                              len(ready))
                if len(ready) > 1:
                    self.stats["batched_requests"] += len(ready)
            for item, result in zip(ready, results):
                item.future.set_result(result)

    def _fail_items(self, items: List[_Pending], exc: Exception) -> None:
        with self._lock:
            self.stats["errors"] += len(items)
        for item in items:
            if not item.future.done():
                item.future.set_exception(exc)

    # -- lifecycle -----------------------------------------------------------
    def initiate_shutdown(self) -> None:
        """Graceful stop from any thread or a signal handler: new
        requests are rejected and the accept loop stops."""
        self._closing = True
        super().initiate_shutdown()

    def close(self, timeout: float = 30.0) -> None:
        """Finish the wave in flight, fail queued requests, then drain
        replies and release the socket + toolchain. Idempotent."""
        with self._lock:    # pairs with enqueue(): nothing lands after _STOP
            if not self._closed:
                self._closing = True
                self._queue.put(_STOP)
        self._batcher.join(timeout=timeout)
        super().close(drain_timeout=timeout)
