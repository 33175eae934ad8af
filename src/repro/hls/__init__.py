"""repro.hls — the LegUp-style high-level-synthesis backend.

Scheduling (FSM states per basic block under a frequency constraint),
the fast clock-cycle profiler AutoPhase uses as its reward signal, an
area model for the alternative objective, a Verilog-flavoured RTL
emitter, and the slow schedule-replay verifier.
"""

from .delays import DEFAULT_LIBRARY, HLSConstraints, OpTiming, TimingLibrary
from .scheduler import BlockSchedule, FunctionSchedule, ModuleSchedule, ScheduledOp, Scheduler
from .sched_vec import function_state_counts_flat
from .profiler import (
    CycleProfiler,
    CycleReport,
    HLSCompilationError,
    StepBudgetError,
    sim_kernels_mode,
)
from .area import AreaEstimator, AreaReport
from .rtl import RTLEmitter
from .verify import TraceRecorder, replay_cycles, verify_profile

__all__ = [
    "DEFAULT_LIBRARY", "HLSConstraints", "OpTiming", "TimingLibrary",
    "BlockSchedule", "FunctionSchedule", "ModuleSchedule", "ScheduledOp", "Scheduler",
    "function_state_counts_flat",
    "CycleProfiler", "CycleReport", "HLSCompilationError", "StepBudgetError",
    "sim_kernels_mode",
    "AreaEstimator", "AreaReport",
    "RTLEmitter",
    "TraceRecorder", "replay_cycles", "verify_profile",
]
