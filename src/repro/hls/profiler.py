"""Clock-cycle profiler — the fast LegUp-style cycle estimate.

Huang et al. 2013 observed that under a fixed frequency constraint the
cycle count of the synthesized circuit equals the sum over basic blocks of
(software-trace visit count × scheduled FSM states), because each block's
schedule is static. This module reproduces exactly that computation:

    cycles = Σ_bb  visits(bb) × states(bb)   (+ dynamic burst costs)

The interpreter supplies the visit counts; the scheduler supplies the
states. ``llvm.memset``/``llvm.memcpy`` transfer a dynamic number of
elements, so their per-element burst cost is added from the trace.

Two memoization layers make repeated profiling cheap:

* **Incremental scheduling** — per-function FSM state counts are cached
  under a structural hash of the function body (:mod:`.hashing`), so a
  pass that mutates one function only forces that function to be
  rescheduled; everything else (and every clone of it) hits the cache.
* **Burst-slot memo** — the static mean burst length of
  ``llvm.memset``/``llvm.memcpy`` call sites is cached per
  ``(module, Module.version)``, so back-to-back profiles of an
  unmutated module stop rescanning every instruction.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import telemetry as tm
from ..interp.batch_exec import BatchedKernelExecutor
from ..interp.interpreter import ExecutionResult, Interpreter
from ..interp.kernels import (
    KernelInterpreter,
    VerificationError,
    check_outcomes,
    run_outcome,
    run_verified,
)
from ..interp.state import InterpreterLimitExceeded, StepBudgetExceeded, TrapError
from ..ir.instructions import CallInst
from ..ir.module import BasicBlock, Module
from .delays import HLSConstraints, TimingLibrary
from .hashing import module_structural_keys
from .sched_vec import function_state_counts_flat
from .scheduler import Scheduler

__all__ = ["CycleReport", "HLSCompilationError", "StepBudgetError",
           "CycleProfiler", "sim_kernels_mode"]

# Burst engines move one slot per cycle after setup (see delays.py).
_DYNAMIC_BURST = ("llvm.memset", "llvm.memcpy")


class HLSCompilationError(Exception):
    """The program cannot be synthesized/profiled (the paper's HLS filter)."""


class StepBudgetError(HLSCompilationError):
    """The simulation *step budget* ran out — the program may well be
    synthesizable; it merely exceeded the CPU-time filter. Cache layers
    record this separately from genuine HLS failures."""


def sim_kernels_mode(override: Optional[str] = None) -> str:
    """Resolve the one simulation knob: ``off`` (reference interpreter +
    scheduler), ``on`` (compiled kernels + batched scheduler, waves
    deduplicated by execution signature; the default), or ``verify``
    (``on``, with every result — serial or batched — cross-checked
    against the reference; hard-fail on any divergence)."""
    mode = override if override is not None else os.environ.get("REPRO_SIM_KERNELS", "on")
    mode = mode.strip().lower()
    if mode not in ("off", "on", "verify"):
        raise ValueError(f"REPRO_SIM_KERNELS must be off|on|verify, got {mode!r}")
    return mode


@dataclass
class CycleReport:
    """The profiler's verdict for one program execution."""

    cycles: int
    states_by_block: Dict[str, int]
    visits_by_block: Dict[str, int]
    execution: ExecutionResult
    frequency_mhz: float

    @property
    def wall_time_us(self) -> float:
        return self.cycles / self.frequency_mhz


class CycleProfiler:
    """Schedule a module, execute it, and combine both into a cycle count."""

    def __init__(self, constraints: Optional[HLSConstraints] = None,
                 library: Optional[TimingLibrary] = None,
                 max_steps: int = 1_000_000,
                 schedule_cache_size: int = 512,
                 sim_kernels: Optional[str] = None) -> None:
        self.scheduler = Scheduler(constraints, library)
        self.constraints = self.scheduler.constraints
        self.max_steps = max_steps
        # off | on | verify; results are bit-identical by contract, so the
        # mode is NOT part of any cache key or toolchain fingerprint.
        self.sim_kernels = sim_kernels_mode(sim_kernels)
        # structural key -> per-block state counts (block order positional)
        self._schedule_cache: "OrderedDict[Tuple, List[int]]" = OrderedDict()
        self._schedule_cache_size = schedule_cache_size
        self.schedule_cache_hits = 0
        self.schedule_cache_misses = 0
        # module -> (Module.version, {intrinsic: mean burst slots})
        self._burst_cache: "weakref.WeakKeyDictionary[Module, Tuple[int, Dict[str, int]]]" = (
            weakref.WeakKeyDictionary())
        self._lock = threading.Lock()

    def profile(self, module: Module, entry: str = "main") -> CycleReport:
        tm.count("profile.runs")
        # One structural-hash pass feeds every key-addressed cache on the
        # cold path: FSM schedules, compiled kernels, and block plans.
        keys = self._structural_keys(module)
        try:
            with tm.span("profile.schedule"):
                block_states = self._module_block_states(module, keys)
        except VerificationError:
            raise  # a kernel bug, not an HLS failure — fail loudly
        except Exception as exc:  # scheduling failure = HLS failure
            raise HLSCompilationError(f"scheduling failed: {exc}") from exc
        try:
            with tm.span("profile.execute", backend=self.sim_kernels):
                execution = self._execute(module, entry, keys)
        except (StepBudgetExceeded, TrapError, InterpreterLimitExceeded) as exc:
            raise self._map_exec_error(exc)
        return self._combine(module, block_states, execution)

    def profile_batch(self, modules: List[Module],
                      entry: str = "main") -> List[object]:
        """Profile a wave of modules. Returns one entry per module: a
        :class:`CycleReport`, or the exception that lane failed with
        (:class:`StepBudgetError` / :class:`HLSCompilationError` for
        legitimate failures, the raw exception for crashes) — a failing
        lane never poisons siblings.

        Follows ``sim_kernels`` like :meth:`profile`: ``off`` (or a
        single-module wave) is serial :meth:`profile` calls; ``on``
        schedules each structural hash once and executes each distinct
        execution signature once; ``verify`` does the same, then checks
        every lane — deduplicated ones included — against a reference
        run of its own module, raising :class:`VerificationError` on
        divergence and anchoring results to the reference."""
        mode = self.sim_kernels
        if mode == "off" or len(modules) <= 1:
            return [self._profile_lane(module, entry) for module in modules]
        tm.count("profile.runs", len(modules))
        keyed = [self._structural_keys(module) for module in modules]
        self._schedule_prepass(keyed)
        results: List[object] = [None] * len(modules)
        block_states: List[Optional[Dict]] = [None] * len(modules)
        exec_lanes: List[int] = []
        for i, (module, keys) in enumerate(zip(modules, keyed)):
            try:
                with tm.span("profile.schedule"):
                    block_states[i] = self._module_block_states(module, keys)
                exec_lanes.append(i)
            except VerificationError:
                raise
            except Exception as exc:
                err = HLSCompilationError(f"scheduling failed: {exc}")
                err.__cause__ = exc
                results[i] = err
        if exec_lanes:
            executor = BatchedKernelExecutor(max_steps=self.max_steps)
            with tm.span("profile.execute_batch", backend=mode,
                         lanes=len(exec_lanes)):
                outcomes = executor.run_batch(
                    [(modules[i], keyed[i]) for i in exec_lanes], entry)
            for i, outcome in zip(exec_lanes, outcomes):
                if mode == "verify":
                    outcome = self._verified_lane(
                        modules[i], keyed[i], block_states[i], outcome, entry)
                if isinstance(outcome, ExecutionResult):
                    results[i] = self._combine(modules[i], block_states[i],
                                               outcome)
                else:
                    results[i] = self._map_exec_error(outcome)
        return results

    def _profile_lane(self, module: Module, entry: str) -> object:
        """Serial lane: same per-lane error envelope as the batched
        path (verification bugs still propagate loudly)."""
        try:
            return self.profile(module, entry)
        except VerificationError:
            raise
        except Exception as exc:
            return exc

    @staticmethod
    def _map_exec_error(exc: BaseException) -> BaseException:
        """The HLS-failure envelope of an execution error, shared by
        :meth:`profile` (which raises it) and :meth:`profile_batch`
        (which returns it per lane); crashes and verification failures
        pass through unchanged."""
        if isinstance(exc, StepBudgetExceeded):
            err: HLSCompilationError = StepBudgetError(f"execution failed: {exc}")
        elif isinstance(exc, (TrapError, InterpreterLimitExceeded)):
            err = HLSCompilationError(f"execution failed: {exc}")
        else:
            return exc
        err.__cause__ = exc
        return err

    def _verified_lane(self, module: Module, keys: Dict,
                       block_states: Dict[BasicBlock, int], outcome: object,
                       entry: str) -> object:
        """Check one batched lane's outcome against a reference run of
        its own module — after the dedup fan-out, so a wrong remap is a
        divergence too — and return the reference outcome (the anchor)."""
        what = f"sim-kernel divergence on batched @{entry} of {module.name}"
        reference = run_outcome(Interpreter, module, entry,
                                max_steps=self.max_steps, plan_keys=keys)
        check_outcomes(what, outcome, reference)
        if isinstance(reference, ExecutionResult):
            fast = self._combine(module, block_states, outcome)
            anchor = self._combine(module, block_states, reference)
            if fast.cycles != anchor.cycles:
                raise VerificationError(
                    f"{what}: cycles {fast.cycles} != {anchor.cycles}")
            if fast.visits_by_block != anchor.visits_by_block:
                raise VerificationError(f"{what}: visits_by_block")
        return reference

    def _execute(self, module: Module, entry: str, keys: Dict) -> ExecutionResult:
        mode = self.sim_kernels
        if mode == "on":
            return KernelInterpreter(module, max_steps=self.max_steps,
                                     keys=keys).run(entry)
        if mode == "verify":
            return run_verified(module, entry, max_steps=self.max_steps,
                                keys=keys, plan_keys=keys)
        return Interpreter(module, max_steps=self.max_steps,
                           plan_keys=keys).run(entry)

    # -- incremental scheduling ---------------------------------------------
    def _structural_keys(self, module: Module) -> Dict:
        if self._schedule_cache_size <= 0 and self.sim_kernels == "off":
            return {}
        return module_structural_keys(module)

    def _schedule_function(self, func) -> List[int]:
        mode = self.sim_kernels
        if mode == "on":
            return function_state_counts_flat(
                func, self.scheduler.constraints, self.scheduler.library)
        counts = self.scheduler.function_state_counts(func)
        if mode == "verify":
            flat = function_state_counts_flat(
                func, self.scheduler.constraints, self.scheduler.library)
            if flat != counts:
                raise VerificationError(
                    f"batched-scheduler divergence on @{func.name}: "
                    f"{flat} != {counts}")
        return counts

    def _schedule_prepass(self, keyed: List[Dict]) -> None:
        """Schedule each structural hash appearing in a batch wave exactly
        once (hls/sched_vec groups same-hash work): N lanes sharing a
        function body cost one reschedule before the per-lane pass runs,
        so the wave never reschedules a hash twice."""
        if self._schedule_cache_size <= 0:
            return
        unique: "OrderedDict[Tuple, object]" = OrderedDict()
        for keys in keyed:
            for func, key in keys.items():
                unique.setdefault(key, func)
        with self._lock:
            missing = [(key, func) for key, func in unique.items()
                       if key not in self._schedule_cache]
        if not missing:
            return
        with tm.span("profile.schedule_batch", functions=len(missing)):
            for key, func in missing:
                try:
                    with tm.span("profile.reschedule"):
                        counts = self._schedule_function(func)
                except VerificationError:
                    raise
                except Exception:
                    # Leave the hash uncached; the owning lane's serial
                    # scheduling pass re-raises and fails only that lane.
                    continue
                with self._lock:
                    self.schedule_cache_misses += 1
                    self._schedule_cache[key] = counts
                    while len(self._schedule_cache) > self._schedule_cache_size:
                        self._schedule_cache.popitem(last=False)

    def _module_block_states(self, module: Module, keys: Dict) -> Dict[BasicBlock, int]:
        """FSM state count per block, rescheduling only functions whose
        structural hash is not already cached."""
        states: Dict[BasicBlock, int] = {}
        for func in module.defined_functions():
            if self._schedule_cache_size <= 0:
                with tm.span("profile.reschedule"):
                    counts = self._schedule_function(func)
            else:
                key = keys[func]
                with self._lock:
                    counts = self._schedule_cache.get(key)
                    if counts is not None:
                        self._schedule_cache.move_to_end(key)
                        self.schedule_cache_hits += 1
                        tm.count("profile.schedule_hits")
                if counts is None:
                    with tm.span("profile.reschedule"):
                        counts = self._schedule_function(func)
                    with self._lock:
                        self.schedule_cache_misses += 1
                        self._schedule_cache[key] = counts
                        while len(self._schedule_cache) > self._schedule_cache_size:
                            self._schedule_cache.popitem(last=False)
            for bb, n in zip(func.blocks, counts):
                states[bb] = n
        return states

    def _combine(self, module: Module, block_states: Dict[BasicBlock, int],
                 execution: ExecutionResult) -> CycleReport:
        cycles = 0
        states_by_block: Dict[str, int] = {}
        visits_by_block: Dict[str, int] = {}
        for bb, num_states in block_states.items():
            visits = execution.block_counts.get(bb, 0)
            label = f"{bb.parent.name}:{bb.name}" if bb.parent is not None else bb.name
            states_by_block[label] = num_states
            visits_by_block[label] = visits
            cycles += visits * num_states

        # Dynamic burst costs: one extra cycle per transferred slot beyond
        # the scheduled setup latency, recovered from the dynamic trace.
        for name in _DYNAMIC_BURST:
            count = execution.call_counts.get(name, 0)
            if count:
                cycles += count * self._burst_slots(module, name)

        return CycleReport(
            cycles=cycles,
            states_by_block=states_by_block,
            visits_by_block=visits_by_block,
            execution=execution,
            frequency_mhz=self.constraints.frequency_mhz,
        )

    # -- burst-slot memo ----------------------------------------------------
    def _burst_slots(self, module: Module, intrinsic: str) -> int:
        version = module.version
        with self._lock:
            entry = self._burst_cache.get(module)
            if entry is None or entry[0] != version:
                entry = (version, {})
                self._burst_cache[module] = entry
            cached = entry[1].get(intrinsic)
        if cached is None:
            cached = _estimate_burst_slots(module, intrinsic)
            with self._lock:
                entry[1][intrinsic] = cached
        return cached


def _estimate_burst_slots(module: Module, intrinsic: str) -> int:
    """Static mean of constant burst lengths at call sites of ``intrinsic``."""
    from ..ir.values import ConstantInt

    lengths: List[int] = []
    for inst in module.instructions():
        if isinstance(inst, CallInst) and inst.callee_name == intrinsic:
            count_arg = inst.args[-1]
            if isinstance(count_arg, ConstantInt):
                lengths.append(max(0, count_arg.value))
            else:
                lengths.append(16)  # unknown dynamic length: assume a line
    if not lengths:
        return 0
    return int(round(sum(lengths) / len(lengths)))
