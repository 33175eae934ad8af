"""The Unix-socket JSON-lines protocol both socket servers and their
clients speak.

One JSON object per line each way, any number of requests per
connection. A reply echoes its request's ``id``, so clients may pipeline
and match replies that arrive out of order. A line that is not a JSON
object, or names an unknown op, gets ``{"ok": false, "error": ...}`` and
the connection stays usable. :class:`JsonLinesServer` answers from an op
table (``ping``, ``shutdown`` and ``metrics`` built in) and drains
in-flight requests on close; :class:`Connection` is the pipelined client
(one socket, one reader thread, id-matched Futures) and :func:`request`
the one-shot helper on top of it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import signal
import socket
import socketserver
import threading
from concurrent.futures import Future
from typing import Callable, Collection, Dict, List, Tuple

from . import telemetry as tm

__all__ = ["Connection", "JsonLinesServer", "install_shutdown_signals",
           "request"]


def install_shutdown_signals(initiate: Callable[[], None]) -> Callable[[], None]:
    """Route SIGTERM/SIGINT to a graceful server stop.

    ``initiate`` must be safe to call from a signal handler (set a flag,
    kick a thread — never block). Returns a restore callable that puts
    the previous handlers back; a no-op outside the main thread, where
    the ``signal`` module refuses to install handlers."""
    if threading.current_thread() is not threading.main_thread():
        return lambda: None
    previous = {sig: signal.signal(sig, lambda signum, frame: initiate())
                for sig in (signal.SIGTERM, signal.SIGINT)}

    def restore() -> None:
        for sig, handler in previous.items():
            signal.signal(sig, handler)

    return restore


def _future_payload(future: Future) -> Dict:
    try:
        return {"ok": True, **future.result()}
    except Exception as exc:
        return {"ok": False, "error": str(exc) or repr(exc)}


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: JsonLinesServer = self.server.owner
        write_lock = threading.Lock()
        pending: List[Future] = []

        def reply(payload: Dict, request_id) -> None:
            if request_id is not None:
                payload = {**payload, "id": request_id}
            try:
                with write_lock:
                    self.wfile.write((json.dumps(payload) + "\n").encode())
                    self.wfile.flush()
            except (OSError, ValueError):   # client went away mid-reply
                pass
            finally:
                server._track(-1)

        try:
            for line in self.rfile:
                if not line.strip():
                    continue
                server._track(+1)
                request_id = op = None
                try:
                    req = json.loads(line)
                    if not isinstance(req, dict):
                        raise ValueError("a request must be a JSON object")
                    request_id, op = req.get("id"), req.get("op")
                    out = server._dispatch(op, req)
                except Exception as exc:    # malformed JSON, unknown spec, ...
                    out = {"ok": False, "error": repr(exc)}
                if isinstance(out, Future):
                    pending.append(out)
                    out.add_done_callback(lambda fut, rid=request_id: reply(
                        _future_payload(fut), rid))
                    continue
                reply(out, request_id)
                if op == "shutdown" and out.get("ok"):
                    server.initiate_shutdown()
                    break
        except (OSError, ValueError):       # connection reset under the read
            pass
        # EOF with replies still in flight: give their callbacks a moment
        # to write before the connection objects are torn down.
        for future in pending:
            with contextlib.suppress(Exception):
                future.exception(timeout=60.0)


class _SocketServer(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True


class JsonLinesServer:
    """A threaded Unix-socket server that answers from an op table.

    ``ops`` maps op names to ``handler(request) -> dict | Future`` (a
    Future of the reply's fields, written when it resolves). Ops run in
    a ``<span_prefix>.<op>`` span unless ``queued`` (timed where they
    run). A request is in flight (gauge ``server.inflight``) until its
    reply is written. ``self.toolchain``'s engine closes last."""

    toolchain = None

    def __init__(self, socket_path: str, ops: Dict[str, Callable],
                 span_prefix: str, queued: Collection[str] = ()) -> None:
        self.socket_path = socket_path
        self._ops = {"ping": lambda req: {"ok": True, "pong": True},
                     "shutdown": lambda req: {"ok": True, "shutdown": True},
                     "metrics": lambda req: {
                         "ok": True, "telemetry": tm.mode(),
                         "snapshots": tm.collect_snapshots()},
                     **ops}
        self._span_prefix = span_prefix
        self._queued = frozenset(queued)
        self._inflight = 0
        self._drained = threading.Condition()
        self._closed = False
        if os.path.exists(socket_path):
            os.remove(socket_path)
        self._server = _SocketServer(socket_path, _Handler)
        self._server.owner = self
        tm.init_process()   # periodic metrics trail (no-op when off)

    def _track(self, delta: int) -> None:
        with self._drained:
            self._inflight += delta
            tm.gauge_set("server.inflight", self._inflight)
            if not self._inflight:
                self._drained.notify_all()

    def _dispatch(self, op, req: Dict):
        handler = self._ops.get(op) if isinstance(op, str) else None
        name = op if handler is not None else "unknown"
        # The op span joins a request-borne ``"trace": [trace_id,
        # span_id]`` (malformed ones are ignored) or mints a trace; unknown
        # ops share one span name, so metric names stay bounded.
        with tm.attach_trace(req.get("trace")):
            if name in self._queued:
                return handler(req)
            with tm.span(f"{self._span_prefix}.{name}"):
                if handler is None:
                    return {"ok": False, "error": f"unknown op {op!r}"}
                return handler(req)

    def serve_forever(self) -> None:
        """Serve until SIGTERM, a shutdown op or KeyboardInterrupt,
        then close()."""
        restore = install_shutdown_signals(self.initiate_shutdown)
        try:
            with contextlib.suppress(KeyboardInterrupt):
                self._server.serve_forever()
        finally:
            restore()
            self.close()

    def initiate_shutdown(self) -> None:
        """Stop accepting connections, from any thread or a signal
        handler; serve_forever() then closes. shutdown() waits for the
        accept loop, so it runs on a helper thread."""
        threading.Thread(target=self._server.shutdown, daemon=True).start()

    def close(self, drain_timeout: float = 30.0) -> None:
        """Release the socket, give in-flight requests their replies,
        then close the engine. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._server.server_close()
        with self._drained:
            self._drained.wait_for(lambda: self._inflight == 0,
                                   timeout=drain_timeout)
        with contextlib.suppress(OSError):
            os.remove(self.socket_path)
        getattr(getattr(self.toolchain, "engine", None), "close",
                lambda: None)()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Connection:
    """One socket, one reader thread, replies matched to Futures by id:
    :meth:`submit` returns a Future of ``decode(reply)`` (default: the
    raw reply, ``ok`` or not); an exception ``decode`` raises fails it."""

    def __init__(self, socket_path: str) -> None:
        self.socket_path = socket_path
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.connect(socket_path)
        self._rfile = self._sock.makefile("rb")
        self._write_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: Dict[int, Tuple[Future, Callable]] = {}
        self._ids = itertools.count(1)
        self._closed = False
        self._reader = threading.Thread(target=self._read_loop,
                                        name="repro-transport-reader",
                                        daemon=True)
        self._reader.start()

    def _read_loop(self) -> None:
        try:
            for line in self._rfile:
                try:
                    reply = json.loads(line)
                    with self._pending_lock:
                        future, decode = self._pending.pop(reply.get("id"))
                except (ValueError, AttributeError, TypeError, KeyError):
                    continue
                try:
                    future.set_result(decode(reply))
                except Exception as exc:
                    future.set_exception(exc)
        except (OSError, ValueError):
            pass
        # EOF / socket torn down: nothing else will resolve these.
        with self._pending_lock:
            pending, self._pending = self._pending, {}
        for future, _ in pending.values():
            future.set_exception(ConnectionError(
                "server closed the connection before replying"))

    def submit(self, payload: Dict,
               decode: Callable[[Dict], object] = lambda reply: reply
               ) -> Future:
        if self._closed:
            raise ConnectionError("connection is closed")
        request_id = next(self._ids)
        future: Future = Future()
        with self._pending_lock:
            self._pending[request_id] = (future, decode)
        # Client-side trace entry point: unless the payload carries its
        # own context, ship the dispatch span's, so the server's op span
        # and everything below it land in the caller's trace.
        with tm.span(f"client.{payload.get('op', 'request')}"):
            ctx = tm.current_trace()
            if ctx is not None and "trace" not in payload:
                payload = {**payload, "trace": list(ctx)}
            try:
                with self._write_lock:
                    self._sock.sendall((json.dumps(
                        {**payload, "id": request_id}) + "\n").encode())
            except OSError as exc:
                with self._pending_lock:
                    self._pending.pop(request_id, None)
                raise ConnectionError(
                    f"could not reach {self.socket_path}: {exc}") from exc
        return future

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()
        self._reader.join(timeout=5.0)
        self._rfile.close()     # the socket's fd closes with its last file

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def request(socket_path: str, payload: Dict, timeout: float = 60.0) -> Dict:
    """One-shot client helper: send one request, return its reply."""
    with Connection(socket_path) as conn:
        reply = conn.submit(payload).result(timeout=timeout)
    reply.pop("id", None)
    return reply
