"""Futures-based client for the batched policy-inference server.

One persistent Unix-socket connection, many in-flight requests: every
submission carries a monotonically increasing ``id``, a reader thread
matches (possibly out-of-order) replies back to their Futures, and
synchronous helpers are thin ``.result()`` wrappers. Firing N
``submit_infer`` calls before waiting is what lets the server coalesce
them into one batched policy forward per rollout step, where N
sequential :meth:`infer` calls pay N round trips and N single-row
forwards.

    with InferenceClient("/tmp/repro-policy.sock") as client:
        futures = [client.submit_infer(f"gen:{seed}") for seed in seeds]
        sequences = [f.result() for f in futures]
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional

from .. import telemetry as tm

__all__ = ["InferenceClient", "InferenceError"]


class InferenceError(RuntimeError):
    """The server replied ``ok: false`` for this request."""


class InferenceClient:
    """JSON-lines client with pipelined request/reply matching."""

    def __init__(self, socket_path: str, timeout: float = 120.0) -> None:
        self.socket_path = socket_path
        self.timeout = timeout
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.connect(socket_path)
        self._rfile = self._sock.makefile("rb")
        self._write_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: Dict[int, Future] = {}
        self._ids = itertools.count(1)
        self._closed = False
        self._reader = threading.Thread(target=self._read_loop,
                                        name="repro-inference-reader",
                                        daemon=True)
        self._reader.start()

    # -- plumbing ------------------------------------------------------------
    def _read_loop(self) -> None:
        try:
            for line in self._rfile:
                line = line.strip()
                if not line:
                    continue
                try:
                    reply = json.loads(line.decode("utf-8"))
                except ValueError:
                    continue
                with self._pending_lock:
                    future = self._pending.pop(reply.get("id"), None)
                if future is None:
                    continue
                if reply.get("ok"):
                    future.set_result(reply)
                else:
                    future.set_exception(InferenceError(
                        reply.get("error", "inference request failed")))
        except (OSError, ValueError):
            pass
        # EOF / socket torn down: nothing else will resolve these.
        with self._pending_lock:
            pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(ConnectionError(
                    "inference server closed the connection before replying"))

    def _submit(self, payload: Dict,
                transform: Optional[Callable[[Dict], object]] = None) -> Future:
        if self._closed:
            raise ConnectionError("client is closed")
        request_id = next(self._ids)
        inner: Future = Future()
        with self._pending_lock:
            self._pending[request_id] = inner
        # Client-side trace entry point: the dispatch span mints (or
        # joins) a trace id and ships its context in the request, so the
        # server's op span — and everything below it, down to evaluation
        # workers — lands in the same distributed trace. The field is
        # absent outside trace mode; old servers ignore it.
        with tm.span(f"client.{payload.get('op', 'request')}"):
            ctx = tm.current_trace()
            if ctx is not None:
                payload = {**payload, "trace": list(ctx)}
            data = (json.dumps({**payload, "id": request_id}) + "\n").encode()
            try:
                with self._write_lock:
                    self._sock.sendall(data)
            except OSError as exc:
                with self._pending_lock:
                    self._pending.pop(request_id, None)
                raise ConnectionError(
                    f"could not reach inference server: {exc}") from exc
        if transform is None:
            return inner
        outer: Future = Future()

        def _chain(fut: Future) -> None:
            try:
                outer.set_result(transform(fut.result()))
            except Exception as exc:
                outer.set_exception(exc)

        inner.add_done_callback(_chain)
        return outer

    def _call(self, payload: Dict) -> Dict:
        return self._submit(payload).result(timeout=self.timeout)

    # -- async API -----------------------------------------------------------
    def submit_infer(self, program: str,
                     policy: Optional[str] = None) -> Future:
        """Future resolving to the inferred pass sequence (list of
        action indices) for the program spec (CHStone name or
        ``gen:<seed>``)."""
        payload = {"op": "infer", "program": program}
        if policy is not None:
            payload["policy"] = policy
        return self._submit(payload, lambda reply: reply["sequence"])

    def submit_optimize(self, program: str, policy: Optional[str] = None,
                        refine: int = 0, seed: int = 0) -> Future:
        """Future resolving to the verified decision dict (sequence,
        cycles, o3_cycles, source, ...)."""
        payload = {"op": "optimize", "program": program,
                   "refine": refine, "seed": seed}
        if policy is not None:
            payload["policy"] = policy
        return self._submit(
            payload, lambda reply: {k: v for k, v in reply.items()
                                    if k not in ("ok", "id")})

    # -- sync API ------------------------------------------------------------
    def infer(self, program: str, policy: Optional[str] = None) -> List[int]:
        return self.submit_infer(program, policy).result(timeout=self.timeout)

    def optimize(self, program: str, policy: Optional[str] = None,
                 refine: int = 0, seed: int = 0) -> Dict:
        return self.submit_optimize(program, policy, refine=refine,
                                    seed=seed).result(timeout=self.timeout)

    def ping(self) -> bool:
        return bool(self._call({"op": "ping"}).get("pong"))

    def policies(self) -> Dict:
        return self._call({"op": "policies"})

    def stats(self) -> Dict:
        return self._call({"op": "stats"})["stats"]

    def shutdown_server(self) -> None:
        """Ask the server to shut down gracefully (drain + exit)."""
        try:
            self._call({"op": "shutdown"})
        except (ConnectionError, OSError):
            pass

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(timeout=5.0)

    def __enter__(self) -> "InferenceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
