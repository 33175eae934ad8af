"""The JSON-lines transport contract both socket servers share: framing
and error replies, ``id`` echo, out-of-order replies on one pipelined
connection, a client that vanishes before its replies, the shutdown
drain, and the spec → module cache that builds each program once."""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.deploy import (InferenceClient, InferenceError, ModelRegistry,
                          PolicyServer)
from repro.programs import chstone
from repro.rl.trainer import Trainer
from repro.service import EvaluationServer, request as send
from repro.service import server as service_server
from repro.toolchain import HLSToolchain
from repro.transport import Connection


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    """A registry holding one tiny trained policy, shared by the module."""
    toolchain = HLSToolchain()
    trainer = Trainer("RL-PPO2", [chstone.build("gsm")], episodes=2,
                      episode_length=3, lanes=1, seed=0, toolchain=toolchain)
    trainer.train()
    registry = ModelRegistry(str(tmp_path_factory.mktemp("models")))
    registry.register("prod", trainer)
    return registry


def _gated(real, entered: threading.Event, release: threading.Event):
    def wrapper(*args, **kwargs):
        entered.set()
        assert release.wait(timeout=60)
        return real(*args, **kwargs)
    return wrapper


@pytest.fixture(params=["evaluation", "policy"])
def served(request, tmp_path, monkeypatch):
    """A running server of either kind. ``slow`` is a request whose work
    blocks while ``release`` is clear (it is set to begin with) and sets
    ``entered`` when it starts; ``flood`` is a request worth pipelining."""
    entered, release = threading.Event(), threading.Event()
    release.set()
    if request.param == "evaluation":
        server = EvaluationServer(str(tmp_path / "eval.sock"), workers=0,
                                  store_dir=str(tmp_path / "store"))
        engine = server.toolchain.engine
        monkeypatch.setattr(engine, "evaluate",
                            _gated(engine.evaluate, entered, release))
        slow = {"op": "evaluate", "program": "matmul", "sequence": [38]}
        flood = {"op": "batch", "program": "matmul",
                 "sequences": [[38], [31], [38, 31]]}
    else:
        server = PolicyServer(str(tmp_path / "policy.sock"),
                              registry=request.getfixturevalue("registry"),
                              policies=["prod"], toolchain=HLSToolchain())
        runner = server._runner("prod")
        monkeypatch.setattr(runner, "infer_batch",
                            _gated(runner.infer_batch, entered, release))
        slow = flood = {"op": "infer", "program": "gsm"}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield SimpleNamespace(server=server, thread=thread,
                          path=server.socket_path, slow=slow, flood=flood,
                          entered=entered, release=release)
    release.set()
    if thread.is_alive():
        _shutdown(server.socket_path)
    thread.join(timeout=30)


def _shutdown(path: str) -> None:
    try:
        send(path, {"op": "shutdown"})
    except OSError:
        pass


def _raw(path: str, data: bytes, replies: int):
    """Write raw bytes on one connection and read ``replies`` lines."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(60)
        sock.connect(path)
        sock.sendall(data)
        with sock.makefile("rb") as rfile:
            return [json.loads(rfile.readline()) for _ in range(replies)]


class TestFraming:
    def test_bad_lines_get_errors_and_the_connection_survives(self, served):
        bad_json, not_object, pong = _raw(
            served.path, b'{not json\n[1]\n{"op": "ping", "id": 7}\n', 3)
        assert bad_json["ok"] is False and bad_json["error"]
        assert not_object["ok"] is False and "object" in not_object["error"]
        assert pong == {"ok": True, "pong": True, "id": 7}

    def test_unknown_op_is_an_error_reply(self, served):
        (reply,) = _raw(served.path, b'{"op": "no-such-op", "id": 3}\n', 1)
        assert reply["ok"] is False and "no-such-op" in reply["error"]
        assert reply["id"] == 3

    def test_id_is_echoed(self, served):
        replies = _raw(served.path,
                       b'{"op": "stats", "id": "a"}\n{"op": "ping", "id": 2}\n'
                       b'{"op": "ping"}\n', 3)
        assert [r.get("id") for r in replies] == ["a", 2, None]
        assert all(r["ok"] for r in replies)


class TestPipelining:
    def test_pipelined_requests_resolve_their_own_futures(self, served):
        with Connection(served.path) as conn:
            futures = [conn.submit(payload) for payload in (
                served.flood, {"op": "ping"}, {"op": "no-such-op"},
                served.flood)]
            flood, pong, unknown, again = [f.result(timeout=60)
                                           for f in futures]
        assert flood["ok"] and again == {**flood, "id": again["id"]}
        assert pong["pong"] and not unknown["ok"]

    @pytest.mark.parametrize("served", ["policy"], indirect=True)
    def test_out_of_order_infer_replies(self, served, registry):
        served.release.clear()
        with InferenceClient(served.path) as client:
            first = client.submit_infer("gsm")
            assert served.entered.wait(timeout=60)
            missing = client.submit_infer("gsm", policy="missing")
            second = client.submit_infer("adpcm")
            # answered on the handler thread while the wave is blocked
            assert client.ping()
            assert not first.done()
            served.release.set()
            runner = registry.load("prod", toolchain=HLSToolchain())
            expected = runner.infer_batch([chstone.build("gsm"),
                                           chstone.build("adpcm")])
            assert first.result(timeout=60) == expected[0]
            assert second.result(timeout=60) == expected[1]
            with pytest.raises(InferenceError, match="no policy named"):
                missing.result(timeout=60)

    def test_vanished_client_is_not_a_server_error(self, served,
                                                   monkeypatch):
        srv = served.server._server
        errors, finished = [], threading.Event()
        monkeypatch.setattr(srv, "handle_error",
                            lambda req, addr: errors.append(addr))
        real_shutdown_request = srv.shutdown_request

        def shutdown_request(req):
            real_shutdown_request(req)
            finished.set()

        monkeypatch.setattr(srv, "shutdown_request", shutdown_request)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(served.path)
            sock.sendall((json.dumps(served.flood) + "\n").encode() * 3)
        # the handler read all three, failed to write, and finished
        assert finished.wait(timeout=60)
        assert errors == []
        assert send(served.path, {"op": "ping"})["pong"]


class TestShutdown:
    def test_shutdown_drains_the_request_in_flight(self, served):
        served.release.clear()
        with Connection(served.path) as conn:
            slow = conn.submit(served.slow)
            assert served.entered.wait(timeout=60)
            assert send(served.path, {"op": "shutdown"})["shutdown"]
            time.sleep(0.2)
            assert not slow.done() and served.thread.is_alive()
            served.release.set()
            reply = slow.result(timeout=60)
        assert reply["ok"]
        served.thread.join(timeout=60)
        assert not served.thread.is_alive()
        assert not os.path.exists(served.path)


def test_concurrent_first_requests_build_the_program_once(tmp_path,
                                                          monkeypatch):
    calls = []
    real_resolve = service_server.resolve_program_spec

    def slow_resolve(spec):
        calls.append(spec)
        time.sleep(0.2)
        return real_resolve(spec)

    monkeypatch.setattr(service_server, "resolve_program_spec", slow_resolve)
    path = str(tmp_path / "eval.sock")
    server = EvaluationServer(path, workers=0,
                              store_dir=str(tmp_path / "store"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        barrier = threading.Barrier(4)
        replies = [None] * 4

        def ask(i):
            barrier.wait()
            replies[i] = send(path, {"op": "evaluate", "program": "matmul",
                                     "sequence": [38]})

        askers = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
        for asker in askers:
            asker.start()
        for asker in askers:
            asker.join(timeout=60)
        assert not any(asker.is_alive() for asker in askers)
        assert all(r["ok"] for r in replies)
        assert len({r["value"] for r in replies}) == 1
        assert calls == ["matmul"]
        assert len(server.toolchain.engine._programs) == 1
    finally:
        _shutdown(path)
        thread.join(timeout=30)
