"""repro.interp — the IR interpreter and its runtime state.

Provides the *software traces* LegUp-style cycle profiling multiplies
against per-block FSM state counts, and the observable-behaviour tuples
differential pass testing compares.
"""

from .state import (
    InterpreterLimitExceeded,
    Memory,
    MemPointer,
    StepBudgetExceeded,
    TrapError,
)
from .externals import EXTERNAL_ATTRIBUTES, call_external, is_known_external
from .interpreter import (
    ExecutionResult,
    Interpreter,
    clear_plan_cache,
    plan_cache_info,
    run_module,
)
from .kernels import (
    KernelInterpreter,
    VerificationError,
    clear_kernel_cache,
    kernel_cache_info,
)
from .batch_exec import (
    BatchedKernelExecutor,
    batch_exec_info,
    clear_batch_exec_stats,
)

__all__ = [
    "InterpreterLimitExceeded", "Memory", "MemPointer", "StepBudgetExceeded",
    "TrapError",
    "EXTERNAL_ATTRIBUTES", "call_external", "is_known_external",
    "ExecutionResult", "Interpreter", "run_module",
    "plan_cache_info", "clear_plan_cache",
    "KernelInterpreter", "VerificationError",
    "kernel_cache_info", "clear_kernel_cache",
    "BatchedKernelExecutor", "batch_exec_info", "clear_batch_exec_stats",
]
