"""FPGA area model — LUT/FF/DSP/BRAM estimates for a scheduled module.

The paper notes the reward can be redefined "as the negative of the area
and thus the RL agent will optimize for the area". This model supplies
that alternative objective (used by the area-objective example and the
multi-objective ablation bench).

Cost model, per functional unit actually instantiated:

* each opcode class has a LUT/FF/DSP unit cost;
* units are shared across states, so the count of a unit class is the
  *maximum per-state concurrency* the schedule exhibits, not the static
  instruction count — mirroring LegUp's binding stage;
* every value live across a state boundary costs FFs (a register);
* memories: every alloca/global costs BRAM bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..ir.instructions import AllocaInst
from ..ir.module import Module
from .delays import HLSConstraints, TimingLibrary
from .scheduler import ModuleSchedule, Scheduler

__all__ = ["AreaReport", "AreaEstimator", "UNIT_COSTS"]


@dataclass(frozen=True)
class UnitCost:
    luts: int
    ffs: int
    dsps: int = 0


# Cyclone-class per-unit costs (32-bit datapath).
UNIT_COSTS: Dict[str, UnitCost] = {
    "add": UnitCost(32, 0), "sub": UnitCost(32, 0),
    "mul": UnitCost(0, 64, dsps=3), "sdiv": UnitCost(1100, 96), "udiv": UnitCost(1050, 96),
    "srem": UnitCost(1100, 96), "urem": UnitCost(1050, 96),
    "and": UnitCost(32, 0), "or": UnitCost(32, 0), "xor": UnitCost(32, 0),
    "shl": UnitCost(96, 0), "lshr": UnitCost(96, 0), "ashr": UnitCost(96, 0),
    "icmp": UnitCost(32, 0), "fcmp": UnitCost(80, 32),
    "select": UnitCost(32, 0),
    "fadd": UnitCost(850, 400), "fsub": UnitCost(850, 400),
    "fmul": UnitCost(250, 220, dsps=7), "fdiv": UnitCost(3200, 1400),
    "fneg": UnitCost(1, 0),
    "gep": UnitCost(40, 0),
    "load": UnitCost(16, 32), "store": UnitCost(16, 0),
    "trunc": UnitCost(0, 0), "zext": UnitCost(0, 0), "sext": UnitCost(0, 0),
    "bitcast": UnitCost(0, 0), "sitofp": UnitCost(600, 300), "fptosi": UnitCost(600, 300),
    "phi": UnitCost(16, 0), "br": UnitCost(0, 0), "switch": UnitCost(48, 0),
    "ret": UnitCost(0, 0), "call": UnitCost(64, 32), "invoke": UnitCost(64, 32),
    "alloca": UnitCost(0, 0), "unreachable": UnitCost(0, 0),
}

_FF_PER_LIVE_VALUE = 32          # one 32-bit register per cross-state value
_LUT_PER_FSM_STATE = 4           # next-state logic
_BRAM_BITS_PER_SLOT = 32


@dataclass
class AreaReport:
    luts: int
    ffs: int
    dsps: int
    bram_bits: int

    @property
    def score(self) -> float:
        """Scalar area figure used as an RL objective (weighted sum)."""
        return self.luts + 0.5 * self.ffs + 100.0 * self.dsps + self.bram_bits / 64.0


class AreaEstimator:
    def __init__(self, constraints: Optional[HLSConstraints] = None,
                 library: Optional[TimingLibrary] = None) -> None:
        self.scheduler = Scheduler(constraints, library)

    def estimate(self, module: Module, schedule: Optional[ModuleSchedule] = None) -> AreaReport:
        if schedule is None:
            schedule = self.scheduler.schedule_module(module)
        luts = ffs = dsps = 0
        bram_bits = sum(gv.value_type.size_slots * _BRAM_BITS_PER_SLOT
                        for gv in module.globals.values())

        for func, fsched in schedule.functions.items():
            for bb, bsched in fsched.blocks.items():
                luts += bsched.num_states * _LUT_PER_FSM_STATE
                # Unit binding: concurrency per opcode class per state.
                concurrency: Dict[tuple, int] = {}
                for op in bsched.ops.values():
                    inst = op.inst
                    if isinstance(inst, AllocaInst):
                        bram_bits += inst.allocated_type.size_slots * _BRAM_BITS_PER_SLOT
                        continue
                    key = (inst.opcode, op.start_state)
                    concurrency[key] = concurrency.get(key, 0) + 1
                peak: Dict[str, int] = {}
                for (opcode, _state), count in concurrency.items():
                    peak[opcode] = max(peak.get(opcode, 0), count)
                for opcode, units in peak.items():
                    cost = UNIT_COSTS.get(opcode, UnitCost(16, 16))
                    luts += cost.luts * units
                    ffs += cost.ffs * units
                    dsps += cost.dsps * units
                # Registers for values that cross state boundaries.
                for op in bsched.ops.values():
                    if op.inst.type.is_void:
                        continue
                    crosses = any(
                        user.parent is not bb or
                        bsched.ops.get(user, op).start_state > op.end_state
                        for user in op.inst.users()
                    )
                    if crosses or op.is_multicycle:
                        ffs += _FF_PER_LIVE_VALUE
        return AreaReport(luts=luts, ffs=ffs, dsps=dsps, bram_bits=bram_bits)
