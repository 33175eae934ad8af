"""HLSToolchain — the façade tying compiler, HLS backend and profiler
together; the "simulator" the RL environment and all search baselines
call into.

A toolchain owns the pass registry, a profiler configuration, a sample
counter (the paper's key efficiency metric is *samples per program* =
number of simulator invocations), and an :class:`~repro.engine.EvaluationEngine`
that memoizes sequence evaluations behind it. Modules mutate in place when
passes run, so the toolchain also provides deep-copy snapshots via the
serializer-free :func:`clone_module` (re-exported from
:mod:`repro.ir.cloning`).

Sample accounting: ``samples_taken`` counts true simulator invocations
(:meth:`profile` / area scoring). Engine cache hits answer without
touching the simulator and therefore do not count — cache statistics are
reported separately through ``toolchain.engine.cache_info()``.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Dict, List, Optional, Sequence, Union

from .engine.core import EvaluationEngine, canonicalize_sequence
from .hls.delays import HLSConstraints
from .hls.profiler import CycleProfiler, CycleReport, lane_outcome
from .ir.cloning import clone_module
from .ir.module import Module
from .passes import PassManager, pass_name_for_index
from .passes.pipelines import O3_PIPELINE

__all__ = ["clone_module", "HLSToolchain"]


class HLSToolchain:
    """Compile-and-profile service with sample accounting.

    ``backend`` selects the evaluation layer behind
    :meth:`cycle_count_with_passes` and ``toolchain.engine``:

    - ``"engine"`` (default): the in-process :class:`EvaluationEngine`.
    - ``"service"``: a sharded multi-process
      :class:`~repro.service.client.EvaluationClient` with a persistent
      cross-run result store — same duck-typed surface, so every
      engine-aware caller opts in without code changes. Knobs ride in
      ``service_config`` (``workers``, ``store_dir``, ``engine_config``).
    - ``"none"``: no caching layer at all.

    ``REPRO_EVAL_BACKEND`` supplies the default, so whole experiment
    drivers switch backends from the environment. ``use_engine=False``
    always forces ``"none"`` and restores the seed behaviour — one full
    clone + pass application + profile per evaluation. That façade
    (:meth:`cycle_count_with_passes`, :meth:`features_after`,
    :meth:`apply_passes` + :meth:`profile`) is the uncached reference
    every cache-soundness test compares against; the layers above it
    (vectorized envs, trainer, policy runner) require an engine.
    """

    # Live toolchains, so CLI drivers can aggregate cache statistics over
    # every instance an experiment created internally. Instances retire
    # their counters into _retired_cache_totals when closed or collected
    # (the toolchain↔engine reference cycle makes driver-internal
    # toolchains cyclic garbage, so liveness alone is gc-timing-dependent).
    _instances: "weakref.WeakSet[HLSToolchain]" = weakref.WeakSet()
    _retired_cache_totals: Dict[str, int] = {}
    # gauges (point-in-time sizes, not counters): summing them across
    # toolchains would report e.g. phantom worker processes
    # (kernel/plan cache stats are process-wide singletons reported by
    # every engine's cache_info; summing across toolchains would
    # multiply-count them)
    _NON_ADDITIVE_KEYS = frozenset({
        "workers",
        "kernel_entries", "kernel_hits", "kernel_misses",
        "plan_entries", "plan_hits", "plan_misses",
        "batch_runs", "batch_lanes", "batch_executed", "batch_dedup_saved",
        "batch_sig_memo_hits", "batch_sig_memo_misses",
    })

    def __init__(self, constraints: Optional[HLSConstraints] = None,
                 max_steps: int = 1_000_000, use_engine: bool = True,
                 engine_config: Optional[dict] = None,
                 backend: Optional[str] = None,
                 service_config: Optional[dict] = None,
                 sim_kernels: Optional[str] = None,
                 sim_batch: Optional[str] = None,
                 sim_simd: Optional[str] = None) -> None:
        if backend is None:
            backend = os.environ.get("REPRO_EVAL_BACKEND") or "engine"
        if not use_engine:
            backend = "none"
        if backend not in ("engine", "service", "none"):
            raise ValueError(f"unknown backend {backend!r}; "
                             "choose 'engine', 'service' or 'none'")
        self.backend = backend
        # sim_kernels: off | on | verify (None -> REPRO_SIM_KERNELS, default
        # "on") — the one simulation knob. Deliberately NOT part of the
        # toolchain fingerprint or any cache key — backends are
        # bit-identical by contract.
        # sim_batch / sim_simd are retired: the knobs they set no longer
        # exist. They are still accepted (and validated) because
        # benchmarks/e2e/oracle.py passes them, then ignored.
        for name, value in (("sim_batch", sim_batch), ("sim_simd", sim_simd)):
            if value not in ("off", "on", "verify", None):
                raise ValueError(f"{name} must be off|on|verify, got {value!r}")
        self.profiler = CycleProfiler(
            constraints, max_steps=max_steps,
            schedule_cache_size=0 if backend == "none" else 512,
            sim_kernels=sim_kernels)
        self.samples_taken = 0
        # The engine's batch API profiles from worker threads; a bare
        # ``+= 1`` would drop increments under that interleaving.
        self._sample_lock = threading.Lock()
        if backend == "service":
            from .service.client import EvaluationClient

            self.engine = EvaluationClient(self, **(service_config or {}))
        elif backend == "engine":
            self.engine = EvaluationEngine(self, **(engine_config or {}))
        else:
            self.engine = None
        self._retired = False
        HLSToolchain._instances.add(self)

    def _count_sample(self) -> None:
        self._count_samples(1)

    def _count_samples(self, n: int) -> None:
        """Credit ``n`` true simulator invocations (service workers report
        theirs back so cross-process accounting stays exact)."""
        with self._sample_lock:
            self.samples_taken += n

    # -- pass application ---------------------------------------------------
    @staticmethod
    def apply_passes(module: Module, actions: Sequence[Union[int, str]]) -> None:
        """Apply a pass sequence in place (indices or Table-1 names) — the
        uncached reference's half of an evaluation.

        Read as the engine reads it (``canonicalize_sequence``): a
        ``-terminate`` action ends the sequence early, mirroring the RL
        environment's semantics.
        """
        PassManager().run(module, [
            pass_name_for_index(element) if isinstance(element, int)
            else element for element in canonicalize_sequence(actions)])

    def o3_sequence(self) -> List[str]:
        return list(O3_PIPELINE)

    # -- profiling -----------------------------------------------------------
    def profile(self, module: Module, entry: str = "main") -> CycleReport:
        self._count_sample()
        return self.profiler.profile(module, entry)

    def cycle_count(self, module: Module, entry: str = "main") -> int:
        return self.profile(module, entry).cycles

    def profile_batch(self, modules: Sequence[Module],
                      entry: str = "main") -> List[object]:
        """Profile a wave of modules (execution-equivalent lanes run
        once). Each entry is a :class:`CycleReport` or the exception
        that lane failed with; every lane costs exactly one simulator
        sample, same as a :meth:`profile` loop."""
        self._count_samples(len(modules))
        return self.profiler.profile_batch(list(modules), entry)

    def objective_values_batch(self, modules: Sequence[Module],
                               objective: str = "cycles",
                               area_weight: float = 0.05,
                               entry: str = "main") -> List[object]:
        """:meth:`objective_value` over a wave: one float, or the
        exception that lane failed with, per module; every lane costs one
        sample. The cycle objectives profile the wave once and add the
        area term inside each lane's envelope, so a crash there fails
        that lane alone; ``area`` profiles nothing."""
        if objective not in ("cycles", "area", "cycles-area"):
            raise ValueError(f"unknown objective {objective!r}")
        if objective == "area":
            self._count_samples(len(modules))
            return [lane_outcome(self.area_score, module) for module in modules]

        def value(module: Module, report: CycleReport) -> float:
            if objective == "cycles":
                return float(report.cycles)
            return float(report.cycles) + area_weight * self.area_score(module)

        return [report if isinstance(report, BaseException)
                else lane_outcome(value, module, report)
                for module, report in zip(modules,
                                          self.profile_batch(modules, entry))]

    def cycle_count_with_passes(self, module: Module,
                                actions: Sequence[Union[int, str]],
                                entry: str = "main") -> int:
        """Clone, optimize, profile — the one-shot evaluation primitive
        used by every black-box search baseline. Engine-backed: repeated
        and prefix-sharing sequences hit the memo/trie instead of paying
        a full simulator round trip."""
        if self.engine is not None:
            return int(self.engine.evaluate(module, actions, objective="cycles",
                                            entry=entry))
        candidate = clone_module(module)
        self.apply_passes(candidate, actions)
        return self.cycle_count(candidate, entry)

    def features_after(self, module: Module,
                       actions: Sequence[Union[int, str]] = ()) -> "np.ndarray":
        """Table-2 feature vector of ``module`` after ``actions`` — the
        observation-function primitive, engine-backed like
        :meth:`cycle_count_with_passes`: warm sequences answer from the
        feature memo (or the service's persistent records) without
        materializing a module, and nothing here ever costs a simulator
        sample."""
        if self.engine is not None:
            return self.engine.features_after(module, actions)
        from .features.extractor import features_for

        candidate = clone_module(module)
        self.apply_passes(candidate, actions)
        return features_for(candidate)

    def o0_cycles(self, module: Module) -> int:
        return self.cycle_count_with_passes(module, [])

    def o3_cycles(self, module: Module) -> int:
        return self.cycle_count_with_passes(module, self.o3_sequence())

    # -- alternative objectives (§5.1: "the reward could be defined as the
    # negative of the area ... possible to co-optimize multiple objectives")
    def area_score(self, module: Module) -> float:
        from .hls.area import AreaEstimator

        estimator = AreaEstimator(self.profiler.scheduler.constraints)
        return estimator.estimate(module).score

    def objective_value(self, module: Module, objective: str = "cycles",
                        area_weight: float = 0.05, entry: str = "main") -> float:
        """Scalar minimized by the agent: 'cycles', 'area', or 'cycles-area'
        (a weighted co-optimization of both) — a wave of one."""
        value, = self.objective_values_batch([module], objective,
                                             area_weight, entry)
        if isinstance(value, BaseException):
            raise value
        return value

    def reset_sample_counter(self) -> int:
        taken, self.samples_taken = self.samples_taken, 0
        return taken

    # -- cache introspection / lifecycle -------------------------------------
    def cache_info(self) -> Dict[str, int]:
        """The backing engine/service cache statistics (hits, misses, trie
        size, evictions, ...); empty when caching is disabled."""
        return self.engine.cache_info() if self.engine is not None else {}

    @classmethod
    def aggregate_cache_info(cls) -> Dict[str, int]:
        """Summed :meth:`cache_info` over every toolchain this process
        created — the experiment drivers construct toolchains internally
        (one per RL agent, one per driver), so per-run reporting
        aggregates here. Covers both live instances and ones already
        retired (closed or garbage-collected)."""
        total: Dict[str, int] = dict(cls._retired_cache_totals)
        for toolchain in list(cls._instances):
            if toolchain._retired:
                continue
            cls._fold(total, toolchain.cache_info())
        return total

    @classmethod
    def _fold(cls, total: Dict[str, int], info: Dict) -> None:
        for key, value in info.items():
            if key in cls._NON_ADDITIVE_KEYS or not isinstance(value, (int, float)):
                continue
            total[key] = total.get(key, 0) + value

    def _retire(self) -> None:
        """Fold this instance's counters into the class-level totals
        (idempotent), so aggregation survives garbage collection."""
        if self._retired:
            return
        self._retired = True
        try:
            try:
                # service backend: skip the worker stats round-trip — this
                # runs from __del__/gc, where stalling on a busy worker's
                # request queue is unacceptable
                info = self.engine.cache_info(include_workers=False)
            except TypeError:  # plain engine: no such knob
                info = self.cache_info()
        except Exception:  # torn-down service backend mid-interpreter-exit
            return
        HLSToolchain._fold(HLSToolchain._retired_cache_totals, info)

    def __del__(self) -> None:
        try:
            self._retire()
        except Exception:
            pass

    def close(self) -> None:
        """Retire cache statistics and release backend resources
        (service worker processes); safe to call more than once."""
        self._retire()
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()
