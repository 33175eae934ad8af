"""Per-basic-block list scheduler with operation chaining.

Implements the scheduling model LegUp's cycle estimate is built on
(Canis et al. 2013; Huang et al. 2013):

* each basic block becomes a run of FSM *states*;
* combinational operations chain within a state while the accumulated
  combinational delay fits the clock period;
* sequential operations (multiplies, divides, memory, FP, calls) start at
  a state boundary and finish ``latency`` states later;
* per-state resource limits (memory ports, divider, multipliers, FPU)
  defer operations that over-subscribe a unit;
* data dependences *within* the block are honoured exactly; values
  produced in other blocks are available when the state machine enters
  the block (they live in registers).

Memory ordering: two accesses that may alias must not be scheduled such
that a later write overtakes an earlier access. Program order is enforced
between may-aliasing pairs using :mod:`repro.analysis.alias`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.alias import AliasResult, alias
from ..ir.instructions import (
    CallInst,
    Instruction,
    InvokeInst,
    LoadInst,
    StoreInst,
)
from ..ir.module import BasicBlock, Function, Module
from .delays import DEFAULT_LIBRARY, HLSConstraints, OpTiming, TimingLibrary

__all__ = ["ScheduledOp", "BlockSchedule", "FunctionSchedule", "ModuleSchedule", "Scheduler"]


@dataclass
class ScheduledOp:
    """Placement of one instruction in its block's FSM."""

    inst: Instruction
    start_state: int
    end_state: int          # state in which the result becomes available
    start_time_ns: float    # chaining position within the start state
    end_time_ns: float

    @property
    def is_multicycle(self) -> bool:
        return self.end_state > self.start_state


@dataclass
class BlockSchedule:
    block: BasicBlock
    ops: Dict[Instruction, ScheduledOp]
    num_states: int

    def ops_in_state(self, state: int) -> List[ScheduledOp]:
        return [op for op in self.ops.values() if op.start_state == state]


@dataclass
class FunctionSchedule:
    function: Function
    blocks: Dict[BasicBlock, BlockSchedule]

    def num_states(self, bb: BasicBlock) -> int:
        return self.blocks[bb].num_states

    def total_states(self) -> int:
        return sum(bs.num_states for bs in self.blocks.values())


@dataclass
class ModuleSchedule:
    module: Module
    functions: Dict[Function, FunctionSchedule]


class Scheduler:
    """Schedules every defined function of a module."""

    def __init__(self, constraints: Optional[HLSConstraints] = None,
                 library: Optional[TimingLibrary] = None) -> None:
        self.constraints = constraints or HLSConstraints()
        self.library = library or DEFAULT_LIBRARY

    # -- public API ---------------------------------------------------------
    def schedule_module(self, module: Module) -> ModuleSchedule:
        return ModuleSchedule(
            module,
            {f: self.schedule_function(f) for f in module.defined_functions()},
        )

    def schedule_function(self, func: Function) -> FunctionSchedule:
        return FunctionSchedule(func, {bb: self.schedule_block(bb) for bb in func.blocks})

    def function_state_counts(self, func: Function) -> List[int]:
        """Per-block FSM state counts in block order — the only piece of a
        schedule the cycle profiler consumes, and the unit the profiler's
        structural-hash cache stores (block identity is positional, so the
        counts transfer across clones of the same function)."""
        fsched = self.schedule_function(func)
        return [fsched.blocks[bb].num_states for bb in func.blocks]

    # -- core algorithm --------------------------------------------------------
    def schedule_block(self, block: BasicBlock) -> BlockSchedule:
        period = self.constraints.clock_period_ns
        limits = {
            "mem": self.constraints.memory_ports,
            "div": self.constraints.dividers,
            "mul": self.constraints.multipliers,
            "fpu": self.constraints.fpu_units,
            "call": 1,
        }
        # usage[(state, resource)] -> count of issue slots taken
        usage: Dict[Tuple[int, str], int] = {}
        # busy[(state, resource)] -> non-pipelined unit held this state
        busy: Dict[Tuple[int, str], int] = {}
        ops: Dict[Instruction, ScheduledOp] = {}
        # Memory-order chain: last scheduled access per alias class.
        mem_accesses: List[Tuple[Instruction, ScheduledOp]] = []

        def timing_for(inst: Instruction) -> OpTiming:
            if isinstance(inst, (CallInst, InvokeInst)):
                if isinstance(inst, CallInst) and (inst.is_external or inst.callee.is_declaration):
                    return self.library.for_external(inst.callee_name)
                return self.library.for_opcode("call")
            return self.library.for_opcode(inst.opcode)

        def operand_ready(inst: Instruction) -> Tuple[int, float]:
            # Only same-block defs constrain placement; everything else is
            # already in a register when the FSM enters the block.
            state, time = 0, 0.0
            for op in inst.operands:
                placed = ops.get(op)
                if placed is None:
                    continue
                if placed.end_state > state:
                    state, time = placed.end_state, placed.end_time_ns
                elif placed.end_state == state:
                    time = max(time, placed.end_time_ns)
            return state, time

        def memory_order_floor(inst: Instruction) -> int:
            """Earliest state allowed by memory-dependence edges."""
            floor = 0
            if not (isinstance(inst, (LoadInst, StoreInst)) or
                    (isinstance(inst, (CallInst, InvokeInst)) and
                     (inst.may_read_memory() or inst.may_write_memory()))):
                return floor
            for prev, placed in mem_accesses:
                if not _memory_conflict(prev, inst):
                    continue
                # A conflicting later access may start once the earlier one
                # has committed (its end state).
                floor = max(floor, placed.end_state)
            return floor

        def find_issue_state(earliest: int, timing: OpTiming) -> int:
            state = earliest
            if timing.resource is None:
                return state
            limit = limits.get(timing.resource, 1)
            for _ in range(100_000):
                ok = usage.get((state, timing.resource), 0) < limit and busy.get((state, timing.resource), 0) < limit
                if ok and not timing.pipelined:
                    span = range(state, state + max(1, timing.latency_cycles))
                    ok = all(
                        usage.get((s, timing.resource), 0) < limit and busy.get((s, timing.resource), 0) < limit
                        for s in span
                    )
                if ok:
                    return state
                state += 1
            raise RuntimeError("scheduler failed to find an issue slot")

        last_state = 0
        for inst in block.instructions:
            timing = timing_for(inst)
            ready_state, ready_time = operand_ready(inst)
            ready_state = max(ready_state, memory_order_floor(inst))

            if timing.is_sequential:
                # Sequential units register their inputs: start at the
                # operand-ready state (inputs arrive by the state boundary
                # if they were produced combinationally earlier in it).
                start = find_issue_state(ready_state if ready_time == 0.0 else ready_state + 1, timing)
                end = start + timing.latency_cycles
                placed = ScheduledOp(inst, start, end, 0.0, 0.0)
                usage[(start, timing.resource)] = usage.get((start, timing.resource), 0) + 1
                if not timing.pipelined and timing.resource is not None:
                    for s in range(start, end):
                        busy[(s, timing.resource)] = busy.get((s, timing.resource), 0) + 1
            else:
                # Combinational: chain if the delay still fits this state.
                start, t0 = ready_state, ready_time
                if t0 + timing.delay_ns > period and t0 > 0.0:
                    start, t0 = start + 1, 0.0
                placed = ScheduledOp(inst, start, start, t0, t0 + timing.delay_ns)

            ops[inst] = placed
            if isinstance(inst, (LoadInst, StoreInst)) or (
                isinstance(inst, (CallInst, InvokeInst)) and (inst.may_read_memory() or inst.may_write_memory())
            ):
                mem_accesses.append((inst, placed))
            last_state = max(last_state, placed.end_state if timing.is_sequential else placed.start_state)

        # The block occupies states 0..last_state; control transfers at the
        # end of the final state, so the cycle cost is last_state + 1.
        num_states = last_state + 1 if block.instructions else 1
        return BlockSchedule(block, ops, num_states)


def _memory_conflict(a: Instruction, b: Instruction) -> bool:
    """Must program order between two memory operations be preserved?"""
    a_writes = a.may_write_memory()
    b_writes = b.may_write_memory()
    if not a_writes and not b_writes:
        return False  # two reads commute
    # Calls conflict with everything that touches memory.
    if isinstance(a, (CallInst, InvokeInst)) or isinstance(b, (CallInst, InvokeInst)):
        return True
    pa = a.pointer if isinstance(a, (LoadInst, StoreInst)) else None
    pb = b.pointer if isinstance(b, (LoadInst, StoreInst)) else None
    if pa is None or pb is None:
        return True
    if getattr(a, "is_volatile", False) or getattr(b, "is_volatile", False):
        return True
    return alias(pa, pb) is not AliasResult.NO_ALIAS
