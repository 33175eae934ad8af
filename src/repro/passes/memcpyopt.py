"""-memcpyopt: memory-transfer optimization.

Two rewrites with direct cycle-count consequences on the burst-engine
model:

* *store merging*: a run of ≥4 stores of one constant value to
  consecutive constant offsets of the same object becomes one
  ``llvm.memset`` (table/array initialization after full unrolling);
* *memset forwarding*: a load at a constant offset covered by a
  preceding ``llvm.memset`` in the same block (with no intervening
  writes) folds to the set constant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.alias import constant_offset
from ..ir import types as ty
from ..ir.builder import IRBuilder
from ..ir.instructions import CallInst, LoadInst, StoreInst
from ..ir.module import BasicBlock, Function
from ..ir.values import ConstantInt, Value
from .base import FunctionPass, register_pass
from .utils import erase_chain, replace_and_erase

__all__ = ["MemCpyOpt"]

_MIN_RUN = 4


@register_pass
class MemCpyOpt(FunctionPass):
    name = "-memcpyopt"

    def run_on_function(self, func: Function) -> bool:
        changed = False
        for bb in func.blocks:
            changed |= self._merge_stores(bb)
            changed |= self._forward_memset(bb)
        return changed

    def _merge_stores(self, bb: BasicBlock) -> bool:
        """Collect maximal runs of same-constant stores to one object."""
        changed = False
        run: List[Tuple[StoreInst, Value, int]] = []  # (store, base, offset)
        run_value: Optional[int] = None

        def flush() -> bool:
            nonlocal run, run_value
            ok = False
            if len(run) >= _MIN_RUN:
                offsets = sorted(off for _, _, off in run)
                if offsets == list(range(offsets[0], offsets[0] + len(offsets))):
                    ok = self._emit_memset(bb, run, offsets[0], len(offsets), run_value)
            run, run_value = [], None
            return ok

        for inst in list(bb.instructions):
            if isinstance(inst, StoreInst) and not inst.is_volatile and \
                    isinstance(inst.value, ConstantInt):
                resolved = constant_offset(inst.pointer)
                if resolved is not None:
                    base, off = resolved
                    if run and (base is not run[0][1] or inst.value.value != run_value):
                        changed |= flush()
                    run.append((inst, base, off))
                    run_value = inst.value.value
                    continue
            if inst.may_read_memory() or inst.may_write_memory():
                changed |= flush()
        changed |= flush()
        return changed

    @staticmethod
    def _emit_memset(bb: BasicBlock, run, start_offset: int, count: int, value) -> bool:
        first_store = run[0][0]
        base = run[0][1]
        b = IRBuilder()
        staging = BasicBlock("mco.staging")
        b.position_at_end(staging)
        if base.type.pointee.is_array:
            ptr = b.gep(base, [0, start_offset], "mco.dst")
        else:
            ptr = b.gep(base, [start_offset], "mco.dst")
        b.call("llvm.memset", [ptr, b.const(int(value)), b.const(count)], return_type=ty.void)
        for inst in list(staging.instructions):
            inst.remove_from_parent()
            inst.insert_before(first_store)
        for store, _, _ in run:
            erase_chain(store)
        return True

    @staticmethod
    def _forward_memset(bb: BasicBlock) -> bool:
        changed = False
        # active: base id -> (base, start, count, value)
        active: Dict[int, Tuple[Value, int, int, int]] = {}
        for inst in list(bb.instructions):
            if isinstance(inst, CallInst) and inst.callee_name == "llvm.memset":
                dst, val, cnt = inst.args
                resolved = constant_offset(dst)
                if resolved is not None and isinstance(val, ConstantInt) and isinstance(cnt, ConstantInt):
                    base, off = resolved
                    active[id(base)] = (base, off, cnt.value, val.value)
                else:
                    active.clear()
                continue
            if isinstance(inst, LoadInst) and not inst.is_volatile and inst.type.is_int:
                resolved = constant_offset(inst.pointer)
                if resolved is not None:
                    base, off = resolved
                    entry = active.get(id(base))
                    if entry is not None and entry[1] <= off < entry[1] + entry[2]:
                        assert isinstance(inst.type, ty.IntType)
                        replace_and_erase(inst, ConstantInt(inst.type, entry[3]))
                        changed = True
                continue
            if inst.may_write_memory():
                active.clear()
        return changed
