"""Futures-based client for the batched policy-inference server: the
ops of ``repro serve-policy`` on one pipelined
:class:`repro.transport.Connection`. Firing N ``submit_infer`` calls
before waiting lets the server coalesce them into one batched policy
forward per rollout step; N sequential :meth:`infer` calls pay N round
trips and N single-row forwards.

    with InferenceClient("/tmp/repro-policy.sock") as client:
        futures = [client.submit_infer(f"gen:{seed}") for seed in seeds]
        sequences = [f.result() for f in futures]
"""

from __future__ import annotations

import contextlib
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional

from ..transport import Connection

__all__ = ["InferenceClient", "InferenceError"]


class InferenceError(RuntimeError):
    """The server replied ``ok: false`` for this request."""


class InferenceClient(Connection):
    """The policy server's ops over one pipelined connection."""

    def __init__(self, socket_path: str, timeout: float = 120.0) -> None:
        super().__init__(socket_path)
        self.timeout = timeout

    def _submit(self, payload: Dict,
                transform: Callable[[Dict], object] = lambda reply: reply
                ) -> Future:
        def decode(reply: Dict):
            if not reply.get("ok"):
                raise InferenceError(
                    reply.get("error", "inference request failed"))
            return transform(reply)

        return self.submit(payload, decode)

    def _call(self, payload: Dict) -> Dict:
        return self._submit(payload).result(timeout=self.timeout)

    # -- async API -----------------------------------------------------------
    def submit_infer(self, program: str,
                     policy: Optional[str] = None) -> Future:
        """Future of the inferred pass sequence (action indices) for a
        program spec (CHStone name or ``gen:<seed>``)."""
        return self._submit({"op": "infer", "program": program,
                             "policy": policy}, lambda reply: reply["sequence"])

    def submit_optimize(self, program: str, policy: Optional[str] = None,
                        refine: int = 0, seed: int = 0) -> Future:
        """Future resolving to the verified decision dict (sequence,
        cycles, o3_cycles, source, ...)."""
        return self._submit(
            {"op": "optimize", "program": program, "policy": policy,
             "refine": refine, "seed": seed},
            lambda reply: {k: v for k, v in reply.items()
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
        with contextlib.suppress(ConnectionError, OSError):
            self._call({"op": "shutdown"})
