"""Span recording from the benchmark's own files.

Thin wrappers are installed around each layer's public entry points for
the traced pass only; untraced passes run the product untouched. A span
has a name, a layer, start, end, the span that caused it and the op it
belongs to. Spans stay in memory and are written out when the pass ends.

Two span families end up in one table:

* **bench spans** — recorded here, in the pass process. A span opened on
  a helper thread with nothing open above it (the policy server's
  batcher) is adopted by the driver thread's innermost open span: the
  load is closed-loop, so whatever the driver is waiting in is what
  caused it.
* **relayed spans** — work inside forked service workers. The wrappers
  are inherited across ``fork``; there they emit through the product's
  public ``repro.telemetry.span`` so that the product's *existing* relay
  (events ride reply tuples, the client appends them to the trace log)
  carries them home next to the product's own ``worker.*``/``engine.*``/
  ``profile.*``/``kernel.*``/``store.*`` spans.

A layer's time is its spans' *self* time: duration minus the part of
that interval child spans cover. Worker self times are carved out of the
service client's waiting time, so the layer column still sums to the
wall.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro import telemetry as tm
from repro.telemetry.trace import assemble_traces

# Relayed product span name prefix -> layer (bench.<layer>.<name> spans
# carry their layer in the name).
_RELAY_LAYERS = (("worker.", "service"), ("store.", "service"),
                 ("engine.", "engine"), ("profile.", "hls"),
                 ("kernel.", "interp"), ("interp.", "interp"),
                 ("batch_exec.", "interp"))


class _Span:
    __slots__ = ("tracer", "layer", "name", "attrs", "id", "parent", "t0",
                 "stack")

    def __init__(self, tracer: "Tracer", layer: str, name: str,
                 attrs: Dict) -> None:
        self.tracer = tracer
        self.layer = layer
        self.name = name
        self.attrs = attrs

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        stack = getattr(tracer.local, "stack", None)
        if stack is None:
            own = threading.get_ident() == tracer.driver_tid
            stack = tracer.local.stack = tracer.driver_stack if own else []
        if stack:
            self.parent = stack[-1]
        elif stack is not tracer.driver_stack and tracer.driver_stack:
            self.parent = tracer.driver_stack[-1]     # adoption, see module doc
        else:
            self.parent = None
        self.id = next(tracer.ids)
        self.stack = stack
        stack.append(self.id)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t1 = time.perf_counter()
        self.stack.pop()
        self.tracer.records.append({
            "id": self.id, "parent": self.parent, "layer": self.layer,
            "name": self.name, "t0": self.t0, "t1": t1, "proc": "pass",
            "op": self.tracer.op, "attrs": self.attrs,
            "error": exc_type.__name__ if exc_type else None})


class Tracer:
    """In-memory span recorder for one pass process."""

    def __init__(self) -> None:
        self.records: List[Dict] = []
        self.local = threading.local()
        self.ids = itertools.count(1)
        self.driver_tid = threading.get_ident()
        self.driver_stack: List[int] = []
        self.op = ""
        self.forked = False
        # perf_counter -> wall clock, to place relayed (wall-clock) spans
        self.epoch = time.time() - time.perf_counter()
        os.register_at_fork(after_in_child=self._in_child)

    def _in_child(self) -> None:
        self.forked = True

    def span(self, layer: str, name: str, **attrs):
        if self.forked:
            return tm.span(f"bench.{layer}.{name}", **attrs)
        return _Span(self, layer, name, attrs)


class _NullSpan:
    def set_attr(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


class NullTracer:
    """Untraced passes: the workloads' own span sites cost one call."""

    op = ""
    _span = _NullSpan()

    def span(self, layer: str, name: str, **attrs) -> _NullSpan:
        return self._span


# -- wrapper installation -----------------------------------------------------

def _wrapped(tracer: Tracer, func: Callable, layer: str, name: str,
             pre: Optional[Callable] = None,
             post: Optional[Callable] = None) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with tracer.span(layer, name,
                         **(pre(*args, **kwargs) if pre else {})) as sp:
            out = func(*args, **kwargs)
            if post is not None:
                post(sp, out, *args, **kwargs)
            return out
    return wrapper


def _patch_method(tracer: Tracer, cls, attr: str, layer: str, name: str,
                  pre=None, post=None) -> None:
    setattr(cls, attr, _wrapped(tracer, getattr(cls, attr), layer, name,
                                pre, post))


def _patch_function(tracer: Tracer, module, attr: str, layer: str, name: str,
                    pre=None, post=None) -> None:
    """Rebind a module-level function everywhere it was imported by name
    (``from ..ir.cloning import clone_module`` copies the binding)."""
    original = getattr(module, attr)
    wrapper = _wrapped(tracer, original, layer, name, pre, post)
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points. Call after the workload
    imported what it uses: by-name imports are rebound where they live."""
    from repro.deploy.client import InferenceClient
    from repro.deploy.policy import PolicyRunner
    from repro.engine.core import EvaluationEngine
    from repro.features import extractor
    from repro.hls.profiler import CycleProfiler, HLSCompilationError
    from repro.interp.batch_exec import BatchedKernelExecutor
    from repro.interp.interpreter import Interpreter
    from repro.interp.kernels import KernelInterpreter
    from repro.ir import cloning
    from repro.passes.base import PassManager
    from repro.programs import chstone, generator
    from repro.rl.ppo import PPOAgent
    from repro.rl.vec_env import VectorEnv
    from repro.search.base import SequenceEvaluator
    from repro.service.client import EvaluationClient
    from repro.service.store import ResultStore

    _patch_function(tracer, chstone, "build", "programs", "build")
    _patch_function(tracer, generator, "generate_corpus", "programs", "build")
    _patch_function(tracer, cloning, "clone_module", "ir", "clone")
    _patch_function(tracer, extractor, "features_for", "features", "extract")

    def pass_name(self, module, passes):
        return {"pass": str(passes[0]) if len(passes) == 1 else "pipeline"}

    def insts_after(sp, out, self, module, passes):
        sp.set_attr("insts", module.instruction_count())

    _patch_method(tracer, PassManager, "run", "passes", "run",
                  pass_name, insts_after)

    def one_run(sp, out, *args, **kwargs):
        sp.set_attr("steps", out.steps)

    def batch_run(sp, out, *args, **kwargs):
        # a failed lane is its exception, which carries no step count
        sp.set_attr("steps", sum(getattr(o, "steps", 0) for o in out))

    _patch_method(tracer, KernelInterpreter, "run", "interp", "run",
                  post=one_run)
    _patch_method(tracer, Interpreter, "run", "interp", "run", post=one_run)
    _patch_method(tracer, BatchedKernelExecutor, "run_batch", "interp",
                  "run_batch", post=batch_run)

    def lanes(sp, out, self, modules, *args, **kwargs):
        sp.set_attr("lanes", len(modules))
        sp.set_attr("rejected", sum(isinstance(o, HLSCompilationError)
                                    for o in out))

    _patch_method(tracer, CycleProfiler, "profile", "hls", "profile")
    _patch_method(tracer, CycleProfiler, "profile_batch", "hls",
                  "profile_batch", post=lanes)

    for attr in ("evaluate", "evaluate_batch", "evaluate_with_features",
                 "evaluate_with_module", "evaluate_prepared",
                 "features_after", "materialize"):
        _patch_method(tracer, EvaluationEngine, attr, "engine", attr)
        _patch_method(tracer, EvaluationClient, attr, "service", attr)
    _patch_method(tracer, EvaluationClient, "submit", "service", "submit")
    # the only non-public name wrapped: worker start is lazy, and nothing
    # public brackets it
    _patch_method(tracer, EvaluationClient, "_start_pool", "service", "spawn")
    _patch_method(tracer, ResultStore, "load_with_features", "service",
                  "store_load")
    _patch_method(tracer, ResultStore, "append", "service", "store_append")

    def population(sp, out, self, sequences):
        sp.set_attr("candidates", len(sequences))
        sp.set_attr("unique", len({tuple(int(a) for a in s)
                                   for s in sequences}))

    _patch_method(tracer, SequenceEvaluator, "evaluate_batch", "search",
                  "evaluate_batch", post=population)
    _patch_method(tracer, SequenceEvaluator, "__call__", "search", "evaluate")

    _patch_method(tracer, PPOAgent, "act_batch", "rl", "act_batch")
    _patch_method(tracer, PPOAgent, "act_greedy_batch", "rl", "act_greedy")
    _patch_method(tracer, PPOAgent, "update", "rl", "update")
    _patch_method(tracer, VectorEnv, "reset_wave", "rl", "reset_wave")
    _patch_method(tracer, VectorEnv, "step_lanes", "rl", "step_lanes")

    _patch_method(tracer, PolicyRunner, "infer_batch", "deploy", "infer")
    _patch_method(tracer, PolicyRunner, "optimize_batch", "deploy", "decide")
    _patch_method(tracer, InferenceClient, "optimize", "deploy", "request")


# -- folding ------------------------------------------------------------------

def relayed_spans(log_path: str, epoch: float) -> List[Dict]:
    """Worker-side spans from the product's trace log, in the pass
    process's perf_counter timeline and the bench span schema."""
    if not os.path.exists(log_path):
        return []
    out: List[Dict] = []
    for records in assemble_traces(tm.read_trace_log(log_path)).values():
        for rec in records:
            proc = str(rec.get("proc", ""))
            if ":worker:" not in proc or not rec.get("complete"):
                continue
            name = str(rec.get("name", "?"))
            if name.startswith("bench."):
                _, layer, name = name.split(".", 2)
            else:
                layer = next((lay for prefix, lay in _RELAY_LAYERS
                              if name.startswith(prefix)), "service")
            t0 = float(rec["start"]) - epoch
            out.append({"id": rec["span"], "parent": rec.get("parent"),
                        "layer": layer, "name": name, "t0": t0,
                        "t1": t0 + float(rec.get("seconds") or 0.0),
                        "proc": proc.split(":", 2)[2], "op": rec.get("trace"),
                        "attrs": rec.get("attrs") or {},
                        "error": rec.get("error")})
    return out


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def fold(spans: List[Dict], phases: Dict[str, Tuple[float, float]]) -> None:
    """Give every span its self time, its phase (by start time) and a
    ``top`` flag (no parent span in the same layer). In place.

    A worker's root span is first adopted by the innermost service-client
    span of the pass process that was open when it started: that span is
    where the caller sat waiting for it, so the worker's time is carved
    out of the client's self time and what is left there is transport —
    queues, pickling and waiting."""
    by_id = {s["id"]: s for s in spans}
    clients = [s for s in spans
               if s["proc"] == "pass" and s["layer"] == "service"]
    for s in spans:
        if s["proc"] == "pass" or s["parent"] in by_id:
            continue
        holders = [c for c in clients if c["t0"] <= s["t0"] <= c["t1"]]
        s["parent"] = max(holders, key=lambda c: c["t0"])["id"] \
            if holders else None
    children: Dict = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["t0"], s["t1"]))
    for s in spans:
        s["self"] = max(0.0, (s["t1"] - s["t0"])
                        - _covered(children.get(s["id"], []), s["t0"], s["t1"]))
        s["phase"] = next((name for name, (lo, hi) in phases.items()
                           if lo <= s["t0"] <= hi), None)
        parent = by_id.get(s["parent"])
        s["top"] = parent is None or parent["layer"] != s["layer"]


_HLS_REJECTIONS = ("HLSCompilationError", "StepBudgetError")


def layer_metrics(spans: List[Dict]) -> Dict[str, float]:
    """The span-sourced per-layer metrics over the cold + warm phases.
    Calls are counted on bench spans only (their names carry no dot;
    relayed product spans keep their dotted product names), so the two
    families never count one call twice; self time sums over both."""
    timed = [s for s in spans if s["phase"] in ("cold", "warm")]

    def pick(layer: str, *names: str) -> List[Dict]:
        return [s for s in timed if s["layer"] == layer
                and (not names or s["name"] in names)]

    def self_s(layer: str, *names: str) -> float:
        return sum(s["self"] for s in pick(layer, *names))

    def attr(rows: List[Dict], key: str) -> float:
        return sum(s["attrs"].get(key) or 0 for s in rows)

    passes = pick("passes", "run")
    by_pass: Dict[str, float] = defaultdict(float)
    for s in passes:
        by_pass[str(s["attrs"].get("pass"))] += s["self"]
    interp_top = [s for s in pick("interp", "run", "run_batch") if s["top"]]
    batches = pick("hls", "profile_batch")
    single = [s for s in pick("hls", "profile") if s["top"]]
    populations = pick("search", "evaluate_batch")
    roots = pick("bench", "cold", "warm")
    wall = sum(s["t1"] - s["t0"] for s in roots)
    unattributed = sum(s["self"] for s in roots)
    m = {
        "ir.clone_s": self_s("ir"),
        "ir.clone_calls": len(pick("ir", "clone")),
        "passes.run_s": self_s("passes"),
        "passes.run_calls": len(passes),
        "passes.failed": sum(s["error"] is not None for s in passes),
        "passes.slowest_share": (max(by_pass.values()) / sum(by_pass.values())
                                 if passes and sum(by_pass.values()) else 0.0),
        "passes.ir_insts_after": (attr(passes, "insts") / len(passes)
                                  if passes else 0.0),
        "interp.run_s": self_s("interp"),
        "interp.run_calls": len(interp_top),
        "interp.steps": attr(interp_top, "steps"),
        "hls.profile_s": self_s("hls"),
        "hls.profile_calls": len(single),
        "hls.profile_batch_calls": len(batches),
        "hls.profile_batch_lanes": attr(batches, "lanes"),
        "hls.rejected": attr(batches, "rejected") + sum(
            s["error"] in _HLS_REJECTIONS for s in single),
        "features.extract_s": self_s("features"),
        "features.extract_calls": len(pick("features", "extract")),
        "engine.self_s": self_s("engine"),
        "service.spawn_s": self_s("service", "spawn"),
        "service.store_load_s": self_s("service", "store_load", "store.load"),
        "service.store_append_s": self_s("service", "store_append",
                                         "store.append"),
        "service.transport_self_s": sum(
            s["self"] for s in pick("service") if s["proc"] == "pass"
            and s["name"] not in ("spawn", "store_load", "store_append")),
        "search.driver_self_s": self_s("search"),
        "search.duplicate_share": (
            1.0 - attr(populations, "unique") / attr(populations, "candidates")
            if populations else 0.0),
        "rl.act_batch_s": self_s("rl", "act_batch"),
        "rl.act_batch_calls": len(pick("rl", "act_batch")),
        "deploy.infer_s": self_s("deploy", "infer") + self_s("rl", "act_greedy"),
        "deploy.decide_s": self_s("deploy", "decide"),
        "telemetry.spans": len(spans),
        "bench.unattributed_s": unattributed,
        "bench.span_coverage": 1.0 - unattributed / wall if wall else 0.0,
    }
    m["passes.us_per_call"] = (1e6 * m["passes.run_s"] / len(passes)
                               if passes else 0.0)
    m["interp.steps_per_s"] = (m["interp.steps"] / m["interp.run_s"]
                               if m["interp.run_s"] else 0.0)
    return m


def layer_table(spans: List[Dict]) -> Dict[str, Dict[str, float]]:
    """Self seconds per layer and phase — the budget that sums to the wall."""
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s["phase"] is not None:
            table[s["layer"]][s["phase"]] += s["self"]
    return {layer: dict(row) for layer, row in table.items()}


def write_spans(path: str, spans: List[Dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s, default=repr, sort_keys=True) + "\n")
