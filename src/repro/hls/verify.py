"""Schedule replay — the slow, independent check of the fast profiler.

The paper validates the clock-cycle profiler against full logic
simulation. Our stand-in replays the FSM explicitly: walk the dynamic
block trace in execution order, step the per-block state machine one
state at a time, and count cycles individually. The profiler's closed
form (Σ visits × states) must agree exactly; tests assert this on every
program.

A genuinely distinct code path matters here: the replay consumes the
*ordered* trace while the profiler consumes aggregate counts, so a bug in
either aggregation shows up as a mismatch.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..interp.interpreter import Interpreter
from ..ir.module import BasicBlock, Module
from .delays import HLSConstraints
from .scheduler import Scheduler

__all__ = ["TraceRecorder", "replay_cycles", "verify_profile"]


class TraceRecorder(Interpreter):
    """Interpreter subclass that additionally records the ordered block trace."""

    def __init__(self, module: Module, max_steps: int = 1_000_000) -> None:
        super().__init__(module, max_steps=max_steps)
        self.trace: List[BasicBlock] = []

    def _run_block(self, func, frame, block, prev_block, depth):  # type: ignore[override]
        self.trace.append(block)
        return super()._run_block(func, frame, block, prev_block, depth)


def replay_cycles(module: Module, entry: str = "main",
                  constraints: Optional[HLSConstraints] = None,
                  max_steps: int = 1_000_000) -> Tuple[int, List[BasicBlock]]:
    """Count cycles by stepping the FSM through the ordered dynamic trace."""
    schedule = Scheduler(constraints).schedule_module(module)
    recorder = TraceRecorder(module, max_steps=max_steps)
    recorder.run(entry)

    cycles = 0
    for block in recorder.trace:
        assert block.parent is not None
        bsched = schedule.functions[block.parent].blocks[block]
        # Step state-by-state — deliberately not multiplication.
        state = 0
        while state < bsched.num_states:
            cycles += 1
            state += 1
    return cycles, recorder.trace


def verify_profile(module: Module, entry: str = "main",
                   constraints: Optional[HLSConstraints] = None,
                   max_steps: int = 1_000_000) -> bool:
    """True when profiler and replay agree (ignoring dynamic burst costs,
    which only the profiler models — compare on burst-free programs)."""
    from .profiler import CycleProfiler

    profiler = CycleProfiler(constraints, max_steps=max_steps)
    report = profiler.profile(module, entry)
    replayed, _ = replay_cycles(module, entry, constraints, max_steps)
    burst_calls = sum(
        report.execution.call_counts.get(n, 0) for n in ("llvm.memset", "llvm.memcpy")
    )
    if burst_calls:
        return report.cycles >= replayed
    return report.cycles == replayed
