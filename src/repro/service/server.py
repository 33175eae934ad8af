"""``repro serve`` — a standing evaluation service on a Unix socket.

One process owns the worker pool and the persistent store; short-lived
clients (training drivers, sweep scripts, shells) query it over the
JSON-lines protocol of :mod:`repro.transport` (pipelined, ``id``
echoed) without paying warm-up per run. Programs are addressed by
*spec*: a CHStone name (``gsm``) or ``gen:<seed>``, each built once per
server however many requests race for it.

    {"op": "evaluate", "program": "gsm", "sequence": [38, 31],
     "objective": "cycles", "id": 1}       → {"ok": true, "value": ..., "id": 1}
    {"op": "batch", "program": "gen:7", "sequences": [[38], [38, 31]]}
                                           → {"ok": true, "values": [...]}
    {"op": "features", "program": "gsm", "sequence": [38, 31]}
                                           → {"ok": true, "features": [...]}
    {"op": "stats"}                        → cache_info + store stats
                                             + per-worker utilization
    {"op": "ping"} / {"op": "metrics"} / {"op": "shutdown"}

Failing sequences evaluate to ``value: null`` (the batch-penalty
convention), never an error reply.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from .. import telemetry as tm
from ..hls.profiler import HLSCompilationError
from ..ir.module import Module
from ..transport import JsonLinesServer, request

__all__ = ["EvaluationServer", "ProgramCache", "request",
           "resolve_program_spec"]


def resolve_program_spec(spec: str) -> Module:
    """Build the module a program spec names (fresh instance)."""
    from ..programs import chstone
    from ..programs.generator import RandomProgramGenerator

    if spec.startswith("gen:"):
        seed = int(spec[len("gen:"):])
        return RandomProgramGenerator(seed).generate(name=f"gen{seed}")
    if spec in chstone.BENCHMARK_NAMES:
        return chstone.build(spec)
    raise KeyError(f"unknown program spec {spec!r}; use a CHStone name "
                   f"{chstone.BENCHMARK_NAMES} or 'gen:<seed>'")


class ProgramCache:
    """Spec → module, built once: concurrent first requests wait for one
    build instead of each registering its own program with the engine."""

    def __init__(self) -> None:
        self._modules: Dict[str, Module] = {}
        self._lock = threading.Lock()

    def __call__(self, spec: str) -> Module:
        with self._lock:
            module = self._modules.get(spec)
            if module is None:
                module = self._modules[spec] = resolve_program_spec(spec)
            return module


class EvaluationServer(JsonLinesServer):
    """Owns a service-backed toolchain and serves spec-addressed queries."""

    def __init__(self, socket_path: str, workers: Optional[int] = None,
                 store_dir: Optional[str] = None,
                 toolchain=None) -> None:
        from ..toolchain import HLSToolchain

        self.toolchain = toolchain or HLSToolchain(
            backend="service",
            service_config={"workers": workers, "store_dir": store_dir})
        self._module = ProgramCache()
        super().__init__(socket_path, {
            "stats": self._stats, "evaluate": self._evaluate,
            "batch": self._batch, "features": self._features,
        }, span_prefix="server.op")

    def _options(self, req: Dict) -> Dict:
        return dict(objective=req.get("objective", "cycles"),
                    area_weight=req.get("area_weight", 0.05),
                    entry=req.get("entry", "main"))

    def _stats(self, req: Dict) -> Dict:
        engine = self.toolchain.engine
        info = dict(self.toolchain.cache_info(),
                    samples_taken=self.toolchain.samples_taken)
        store = getattr(engine, "store", None)
        reply = {"ok": True, "cache": info,
                 "store": store.stats() if store is not None else {}}
        # Per-worker utilization incl. respawn history (service backend
        # only; the plain engine has no workers to report).
        if hasattr(engine, "worker_info"):
            reply["workers"] = engine.worker_info()
        return reply

    def _evaluate(self, req: Dict) -> Dict:
        module = self._module(req["program"])
        try:
            value = self.toolchain.engine.evaluate(
                module, req["sequence"], **self._options(req))
        except HLSCompilationError:
            value = None
        return {"ok": True, "value": value}

    def _batch(self, req: Dict) -> Dict:
        module = self._module(req["program"])
        tm.observe("server.batch_size", len(req["sequences"]))
        values = self.toolchain.engine.evaluate_batch(
            module, req["sequences"], **self._options(req))
        return {"ok": True, "values": values}

    def _features(self, req: Dict) -> Dict:
        # Table-2 features after a pass sequence, answered from the
        # feature memo / persistent records when warm; never a sample.
        module = self._module(req["program"])
        feats = self.toolchain.engine.features_after(
            module, req.get("sequence", []))
        return {"ok": True, "features": [int(x) for x in feats]}
