"""Clock-cycle profiler — the fast LegUp-style cycle estimate.

Huang et al. 2013 observed that under a fixed frequency constraint the
cycle count of the synthesized circuit equals the sum over basic blocks of
(software-trace visit count × scheduled FSM states), because each block's
schedule is static. This module reproduces exactly that computation:

    cycles = Σ_bb  visits(bb) × states(bb)   (+ dynamic burst costs)

The interpreter supplies the visit counts; the scheduler supplies the
states. ``llvm.memset``/``llvm.memcpy`` transfer a dynamic number of
elements, so their per-element burst cost is added from the trace.

There is one profile path: :meth:`CycleProfiler.profile_batch` schedules,
executes and combines a wave of modules, each lane inside its own error
envelope (:func:`lane_outcome`); :meth:`CycleProfiler.profile` is a wave
of one. ``sim_kernels`` picks the executor for the whole wave.

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
from ..interp.kernels import VerificationError, check_outcomes, run_outcome
from ..interp.state import InterpreterLimitExceeded, StepBudgetExceeded, TrapError
from ..ir.instructions import CallInst
from ..ir.module import BasicBlock, Module
from .delays import HLSConstraints, TimingLibrary
from .hashing import module_structural_keys
from .sched_vec import function_state_counts_flat
from .scheduler import Scheduler

__all__ = ["CycleReport", "HLSCompilationError", "StepBudgetError",
           "CycleProfiler", "lane_outcome", "sim_kernels_mode"]

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
    (``on``, with every lane of every wave cross-checked against the
    reference; hard-fail on any divergence)."""
    mode = override if override is not None else os.environ.get("REPRO_SIM_KERNELS", "on")
    mode = mode.strip().lower()
    if mode not in ("off", "on", "verify"):
        raise ValueError(f"REPRO_SIM_KERNELS must be off|on|verify, got {mode!r}")
    return mode


def lane_outcome(fn, *args) -> object:
    """``fn(*args)``, or the exception it raised, returned — the per-lane
    envelope of a wave, so one failing lane never poisons its siblings.
    Only a :class:`VerificationError` (a simulator bug, not a failing
    program) gets out."""
    try:
        return fn(*args)
    except VerificationError:
        raise
    except Exception as exc:
        return exc


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
        """Profile one module — a wave of one; raises the lane's failure."""
        report, = self.profile_batch([module], entry)
        if isinstance(report, BaseException):
            raise report
        return report

    def profile_batch(self, modules: List[Module],
                      entry: str = "main") -> List[object]:
        """Profile a wave of modules — the one profile path. Returns one
        entry per module: a :class:`CycleReport`, or the exception that
        lane failed with (:class:`StepBudgetError` /
        :class:`HLSCompilationError` for legitimate failures, the raw
        exception for a crash anywhere from scheduling to combining) — a
        failing lane never poisons siblings.

        Every lane is scheduled first (one schedule-cache lookup per
        defined function, so a wave reschedules a structural hash at most
        once); the lanes that scheduled then execute by ``sim_kernels``:
        ``off`` runs the reference interpreter lane by lane; ``on`` runs
        one :meth:`BatchedKernelExecutor.run_batch`, executing each
        distinct execution signature once; ``verify`` does the same, then
        checks every lane — deduplicated ones included — against a
        reference run of its own module, raising
        :class:`VerificationError` on divergence and anchoring results to
        the reference."""
        tm.count("profile.runs", len(modules))
        scheduled = [lane_outcome(self._schedule_lane, module)
                     for module in modules]
        results = list(scheduled)  # a lane that failed scheduling keeps its error
        lanes = [i for i, lane in enumerate(scheduled)
                 if not isinstance(lane, BaseException)]
        if lanes:
            with tm.span("profile.execute", backend=self.sim_kernels,
                         lanes=len(lanes)):
                outcomes = self._run_lanes(
                    [(modules[i], scheduled[i][0]) for i in lanes], entry)
            for i, outcome in zip(lanes, outcomes):
                results[i] = lane_outcome(self._finish_lane, modules[i],
                                          *scheduled[i], outcome, entry)
        return results

    def _schedule_lane(self, module: Module
                       ) -> Tuple[Dict, Dict[BasicBlock, int]]:
        """``(structural keys, FSM states per block)`` of one lane."""
        # One structural-hash pass feeds every key-addressed cache on the
        # cold path: FSM schedules, compiled kernels, and block plans.
        keys = self._structural_keys(module)
        try:
            with tm.span("profile.schedule"):
                return keys, self._module_block_states(module, keys)
        except VerificationError:
            raise  # a kernel bug, not an HLS failure — fail loudly
        except Exception as exc:  # scheduling failure = HLS failure
            raise HLSCompilationError(f"scheduling failed: {exc}") from exc

    def _run_lanes(self, items: List[Tuple[Module, Dict]],
                   entry: str) -> List[object]:
        """One execution outcome per ``(module, keys)`` lane: a result or
        the exception the run raised."""
        if self.sim_kernels == "off":
            return [run_outcome(Interpreter, module, entry,
                                max_steps=self.max_steps, plan_keys=keys)
                    for module, keys in items]
        return BatchedKernelExecutor(max_steps=self.max_steps).run_batch(
            items, entry)

    def _finish_lane(self, module: Module, keys: Dict,
                     block_states: Dict[BasicBlock, int], outcome: object,
                     entry: str) -> object:
        if self.sim_kernels == "verify":
            outcome = self._verified_lane(module, keys, block_states,
                                          outcome, entry)
        if isinstance(outcome, BaseException):
            return self._map_exec_error(outcome)
        return self._combine(module, block_states, outcome)

    @staticmethod
    def _map_exec_error(exc: BaseException) -> BaseException:
        """The HLS-failure envelope of an execution error; crashes pass
        through unchanged."""
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
        """Check one lane's outcome against a reference run of its own
        module — after the dedup fan-out, so a wrong remap is a divergence
        too — and return the reference outcome (the anchor)."""
        what = f"sim-kernel divergence on @{entry} of {module.name}"
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
