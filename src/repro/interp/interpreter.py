"""The repro-IR interpreter.

Runs a module's entry function and records the *software trace* LegUp's
clock-cycle profiler consumes: how many times each basic block executed
and how many times each function was called. Also returns the pieces
differential testing compares — return value, observable output, and a
digest of global memory.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .. import telemetry as tm
from ..ir.folding import eval_cast, eval_fcmp, eval_float_binop, eval_icmp, eval_int_binop
from ..ir.instructions import (
    AllocaInst,
    BinaryOperator,
    BranchInst,
    CallInst,
    CastInst,
    FCmpInst,
    FNegInst,
    GEPInst,
    ICmpInst,
    Instruction,
    InvokeInst,
    LoadInst,
    PhiNode,
    ReturnInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from ..ir.module import BasicBlock, Function, Module
from ..ir.values import (
    ConstantFloat,
    ConstantInt,
    GlobalVariable,
    UndefValue,
    Value,
)
from .externals import call_external
from .state import InterpreterLimitExceeded, Memory, MemPointer, StepBudgetExceeded, TrapError

__all__ = ["ExecutionResult", "Interpreter", "run_module",
           "plan_cache_info", "clear_plan_cache"]

Scalar = Union[int, float, MemPointer, None]

# -- cross-instance block-plan cache ------------------------------------------
# A block plan's handler bindings depend only on the instruction-class
# sequence, which the structural digest pins positionally — so plans
# built for one Interpreter transfer to any later instance executing a
# structurally identical function (clones, pass-untouched functions). The
# cache stores the module-independent skeleton (phi count + handler tuple
# per block); each Interpreter zips it with its own instruction objects.
_PLAN_CACHE_SIZE = 1024
_plan_cache: "OrderedDict[bytes, List[Tuple[int, Tuple]]]" = OrderedDict()
_plan_lock = threading.Lock()
_plan_hits = 0
_plan_misses = 0


def plan_cache_info() -> Dict[str, int]:
    with _plan_lock:
        return {"plan_entries": len(_plan_cache), "plan_hits": _plan_hits,
                "plan_misses": _plan_misses}


def clear_plan_cache() -> None:
    global _plan_hits, _plan_misses
    with _plan_lock:
        _plan_cache.clear()
        _plan_hits = _plan_misses = 0


@dataclass
class ExecutionResult:
    """Everything observable about one program execution."""

    return_value: Scalar
    steps: int
    block_counts: Dict[BasicBlock, int]
    call_counts: Dict[str, int]
    output: List[int]
    memory_digest: int

    def observable(self) -> Tuple:
        """The tuple that must be invariant under optimization passes."""
        rv = self.return_value
        if isinstance(rv, float):
            if math.isnan(rv):
                rv = "nan"
            else:
                rv = round(rv, 9)
        if isinstance(rv, MemPointer):
            rv = ("ptr", rv.offset)  # segment ids are not stable across runs
        return (rv, tuple(self.output), self.memory_digest)


class _Frame:
    __slots__ = ("values", "allocas")

    def __init__(self) -> None:
        self.values: Dict[Value, Scalar] = {}
        self.allocas: List[MemPointer] = []


class Interpreter:
    """Executes one module. Construct fresh per execution."""

    def __init__(self, module: Module, max_steps: int = 1_000_000, max_call_depth: int = 64,
                 plan_keys: Optional[Dict[Function, bytes]] = None) -> None:
        self.module = module
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
        # structural digest per function (when the caller — typically the
        # profiler — already computed them); unlocks the cross-instance
        # block-plan cache. Without keys, plans are built lazily as before.
        self._plan_keys = plan_keys or {}
        self.memory = Memory()
        self.steps = 0
        self.block_counts: Dict[BasicBlock, int] = {}
        self.call_counts: Dict[str, int] = {}
        self.output: List[int] = []
        # Per-block execution plans: (phis, [(handler, inst), ...]). The
        # module is static for the lifetime of one interpreter, so handler
        # bindings are computed once per block instead of running an
        # isinstance chain per executed instruction.
        self._block_plans: Dict[BasicBlock, Tuple[List[PhiNode], List[Tuple]]] = {}
        self._globals: Dict[GlobalVariable, MemPointer] = {}
        # Only externally visible globals are *observable* memory: internal
        # globals are like locals (LLVM may delete or fold them), so the
        # differential-testing digest must not depend on their presence.
        self._observable_segments: List[Tuple[str, int]] = []
        for gv in module.globals.values():
            ptr = self.memory.allocate_init(gv.flat_initializer())
            self._globals[gv] = ptr
            if gv.linkage != "internal":
                self._observable_segments.append((gv.name, ptr.segment))

    # -- entry point -------------------------------------------------------
    def run(self, entry: str = "main", args: Optional[List[Scalar]] = None) -> ExecutionResult:
        func = self.module.get_function(entry)
        if func is None or func.is_declaration:
            raise TrapError(f"no defined entry function @{entry}")
        with tm.span("interp.execute", entry=entry):
            rv = self._call_function(func, list(args or []), depth=0)
        tm.count("interp.steps", self.steps)
        return ExecutionResult(
            return_value=rv,
            steps=self.steps,
            block_counts=dict(self.block_counts),
            call_counts=dict(self.call_counts),
            output=list(self.output),
            memory_digest=self._digest_globals(),
        )

    def _digest_globals(self) -> int:
        items = []
        for name, seg in sorted(self._observable_segments):
            values = self.memory.segment_values(seg)
            items.append((name, hash(tuple(round(v, 9) if isinstance(v, float) else v
                                           for v in values))))
        return hash(tuple(items))

    # -- evaluation --------------------------------------------------------------
    def _value(self, frame: _Frame, v: Value) -> Scalar:
        if isinstance(v, ConstantInt):
            return v.value
        if isinstance(v, ConstantFloat):
            return v.value
        if isinstance(v, UndefValue):
            return 0.0 if v.type.is_float else 0
        if isinstance(v, GlobalVariable):
            return self._globals[v]
        if isinstance(v, Function):
            raise TrapError("function pointers are not executable values")
        if v in frame.values:
            return frame.values[v]
        raise TrapError(f"use of undefined value %{v.name}")

    def _call_function(self, func: Function, args: List[Scalar], depth: int) -> Scalar:
        if depth > self.max_call_depth:
            raise InterpreterLimitExceeded(f"call depth exceeded in @{func.name}")
        self.call_counts[func.name] = self.call_counts.get(func.name, 0) + 1
        frame = _Frame()
        for formal, actual in zip(func.args, args):
            frame.values[formal] = actual

        block = func.entry
        prev_block: Optional[BasicBlock] = None
        try:
            while True:
                self.block_counts[block] = self.block_counts.get(block, 0) + 1
                transfer = self._run_block(func, frame, block, prev_block, depth)
                if transfer[0] == "ret":
                    return transfer[1]
                prev_block, block = block, transfer[1]
        finally:
            for ptr in frame.allocas:
                self.memory.free(ptr)

    def _run_block(self, func: Function, frame: _Frame, block: BasicBlock,
                   prev_block: Optional[BasicBlock], depth: int):
        plan = self._block_plans.get(block)
        if plan is None:
            key = self._plan_keys.get(func)
            if key is not None:
                self._bind_function_plans(func, key)
                plan = self._block_plans.get(block)
            if plan is None:
                phis = block.phis()
                plan = (phis, [(self._handler_for(inst.__class__), inst)
                               for inst in block.instructions[len(phis):]])
                self._block_plans[block] = plan
        phis, body = plan

        # Phis first, evaluated simultaneously from the predecessor edge.
        if phis:
            assert prev_block is not None, "phi in entry block"
            staged = [(phi, self._value(frame, phi.incoming_value_for(prev_block))) for phi in phis]
            for phi, value in staged:
                frame.values[phi] = value

        for handler, inst in body:
            self.steps += 1
            if self.steps > self.max_steps:
                raise StepBudgetExceeded(f"step budget exhausted in @{func.name}")
            result = handler(self, frame, inst, depth)
            if result is not None:
                return result
        raise TrapError(f"block {block.name} fell through without terminator")

    def _bind_function_plans(self, func: Function, key: Tuple) -> None:
        """Populate every block plan of ``func`` from the cross-instance
        skeleton cache (building and caching the skeleton on a miss)."""
        global _plan_hits, _plan_misses
        with _plan_lock:
            skeleton = _plan_cache.get(key)
            if skeleton is not None:
                _plan_cache.move_to_end(key)
                _plan_hits += 1
        if skeleton is None:
            skeleton = []
            for bb in func.blocks:
                n_phis = len(bb.phis())
                skeleton.append((n_phis, tuple(self._handler_for(inst.__class__)
                                               for inst in bb.instructions[n_phis:])))
            with _plan_lock:
                _plan_misses += 1
                _plan_cache[key] = skeleton
                while len(_plan_cache) > _PLAN_CACHE_SIZE:
                    _plan_cache.popitem(last=False)
        for bb, (n_phis, handlers) in zip(func.blocks, skeleton):
            self._block_plans[bb] = (list(bb.instructions[:n_phis]),
                                     list(zip(handlers, bb.instructions[n_phis:])))

    # -- instruction handlers (opcode-indexed dispatch) --------------------
    # Handlers share the _execute contract: mutate the frame and return
    # None, or return a ("ret", value) / ("br", block) control transfer.
    def _exec_binary(self, frame: _Frame, inst: Instruction, depth: int):
        a = self._value(frame, inst.lhs)
        b = self._value(frame, inst.rhs)
        if inst.opcode in ("fadd", "fsub", "fmul", "fdiv"):
            frame.values[inst] = eval_float_binop(inst.opcode, float(a), float(b))
        else:
            frame.values[inst] = eval_int_binop(inst.opcode, inst.type, int(a), int(b))
        return None

    def _exec_fneg(self, frame: _Frame, inst: Instruction, depth: int):
        frame.values[inst] = -float(self._value(frame, inst.operand))
        return None

    def _exec_icmp(self, frame: _Frame, inst: Instruction, depth: int):
        a = self._value(frame, inst.lhs)
        b = self._value(frame, inst.rhs)
        if isinstance(a, MemPointer) or isinstance(b, MemPointer):
            res = self._pointer_compare(inst.predicate, a, b)
        else:
            res = eval_icmp(inst.predicate, inst.lhs.type, int(a), int(b))  # type: ignore[arg-type]
        frame.values[inst] = 1 if res else 0
        return None

    def _exec_fcmp(self, frame: _Frame, inst: Instruction, depth: int):
        a = float(self._value(frame, inst.lhs))
        b = float(self._value(frame, inst.rhs))
        frame.values[inst] = 1 if eval_fcmp(inst.predicate, a, b) else 0
        return None

    def _exec_select(self, frame: _Frame, inst: Instruction, depth: int):
        cond = self._value(frame, inst.condition)
        frame.values[inst] = self._value(frame, inst.true_value if cond else inst.false_value)
        return None

    def _exec_alloca(self, frame: _Frame, inst: Instruction, depth: int):
        ptr = self.memory.allocate(inst.allocated_type.size_slots)
        frame.allocas.append(ptr)
        frame.values[inst] = ptr
        return None

    def _exec_load(self, frame: _Frame, inst: Instruction, depth: int):
        ptr = self._value(frame, inst.pointer)
        if not isinstance(ptr, MemPointer):
            raise TrapError("load through non-pointer")
        frame.values[inst] = self.memory.load(ptr)
        return None

    def _exec_store(self, frame: _Frame, inst: Instruction, depth: int):
        ptr = self._value(frame, inst.pointer)
        if not isinstance(ptr, MemPointer):
            raise TrapError("store through non-pointer")
        self.memory.store(ptr, self._value(frame, inst.value))
        return None

    def _exec_gep(self, frame: _Frame, inst: Instruction, depth: int):
        base = self._value(frame, inst.pointer)
        if not isinstance(base, MemPointer):
            raise TrapError("gep on non-pointer")
        offset = 0
        for idx, stride in zip(inst.indices, inst.element_strides()):
            offset += int(self._value(frame, idx)) * stride
        frame.values[inst] = base.advanced(offset)
        return None

    def _exec_call(self, frame: _Frame, inst: Instruction, depth: int):
        frame.values[inst] = self._do_call(frame, inst.callee, inst.args, depth)
        return None

    def _exec_invoke(self, frame: _Frame, inst: Instruction, depth: int):
        # The substrate has no unwinding sources; invoke always takes
        # the normal edge (matching -prune-eh's model).
        frame.values[inst] = self._do_call(frame, inst.callee, inst.args, depth)
        return ("br", inst.normal_dest)

    def _exec_cast(self, frame: _Frame, inst: Instruction, depth: int):
        src = self._value(frame, inst.operand)
        if isinstance(src, MemPointer):
            if inst.opcode == "bitcast":
                frame.values[inst] = src
                return None
            raise TrapError(f"{inst.opcode} of pointer value")
        frame.values[inst] = eval_cast(inst.opcode, inst.operand.type, inst.type, src)
        return None

    def _exec_return(self, frame: _Frame, inst: Instruction, depth: int):
        rv = inst.return_value
        return ("ret", self._value(frame, rv) if rv is not None else None)

    def _exec_branch(self, frame: _Frame, inst: Instruction, depth: int):
        if inst.is_conditional:
            cond = self._value(frame, inst.condition)
            return ("br", inst.true_target if cond else inst.false_target)
        return ("br", inst.true_target)

    def _exec_switch(self, frame: _Frame, inst: Instruction, depth: int):
        value = int(self._value(frame, inst.condition))
        for const, target in inst.cases:
            if const.value == value:
                return ("br", target)
        return ("br", inst.default)

    def _exec_unreachable(self, frame: _Frame, inst: Instruction, depth: int):
        raise TrapError("executed unreachable")

    def _exec_phi(self, frame: _Frame, inst: Instruction, depth: int):  # pragma: no cover
        raise TrapError("phi executed out of order")

    def _exec_unknown(self, frame: _Frame, inst: Instruction, depth: int):
        raise TrapError(f"cannot execute opcode {inst.opcode}")

    # Exact-class handler table, resolved through the subclass-aware cache
    # below so instruction subclasses inherit their base handler.
    _HANDLER_BASES = None  # populated lazily after class body (needs methods)
    _DISPATCH: Dict[type, object] = {}

    @classmethod
    def _handler_for(cls, klass: type):
        handler = Interpreter._DISPATCH.get(klass)
        if handler is None:
            for base, fn in Interpreter._HANDLER_BASES:
                if issubclass(klass, base):
                    handler = fn
                    break
            else:
                handler = Interpreter._exec_unknown
            Interpreter._DISPATCH[klass] = handler
        return handler

    def _execute(self, frame: _Frame, inst: Instruction, depth: int):
        """Single-instruction dispatch (kept for direct callers; the hot
        loop binds handlers per block in :meth:`_run_block`)."""
        return self._handler_for(inst.__class__)(self, frame, inst, depth)

    def _do_call(self, frame: _Frame, callee, arg_values, depth: int) -> Scalar:
        args = [self._value(frame, a) for a in arg_values]
        if isinstance(callee, str):
            self.call_counts[callee] = self.call_counts.get(callee, 0) + 1
            return call_external(callee, args, self.memory, self.output)
        if callee.is_declaration:
            return call_external(callee.name, args, self.memory, self.output)
        return self._call_function(callee, args, depth + 1)

    @staticmethod
    def _pointer_compare(pred: str, a: Scalar, b: Scalar) -> bool:
        def key(x):
            if isinstance(x, MemPointer):
                return (x.segment, x.offset)
            return (-(2 ** 60), int(x))  # null/int compares below any pointer

        ka, kb = key(a), key(b)
        if pred == "eq":
            return ka == kb
        if pred == "ne":
            return ka != kb
        if pred in ("ult", "slt"):
            return ka < kb
        if pred in ("ule", "sle"):
            return ka <= kb
        if pred in ("ugt", "sgt"):
            return ka > kb
        if pred in ("uge", "sge"):
            return ka >= kb
        raise TrapError(f"unsupported pointer comparison {pred}")


# The isinstance-ordered handler table (mirrors the former _execute chain);
# defined after the class body so the method objects exist.
Interpreter._HANDLER_BASES = (
    (BinaryOperator, Interpreter._exec_binary),
    (FNegInst, Interpreter._exec_fneg),
    (ICmpInst, Interpreter._exec_icmp),
    (FCmpInst, Interpreter._exec_fcmp),
    (SelectInst, Interpreter._exec_select),
    (AllocaInst, Interpreter._exec_alloca),
    (LoadInst, Interpreter._exec_load),
    (StoreInst, Interpreter._exec_store),
    (GEPInst, Interpreter._exec_gep),
    (CallInst, Interpreter._exec_call),
    (InvokeInst, Interpreter._exec_invoke),
    (CastInst, Interpreter._exec_cast),
    (ReturnInst, Interpreter._exec_return),
    (BranchInst, Interpreter._exec_branch),
    (SwitchInst, Interpreter._exec_switch),
    (UnreachableInst, Interpreter._exec_unreachable),
    (PhiNode, Interpreter._exec_phi),
)


def run_module(module: Module, entry: str = "main", args: Optional[List[Scalar]] = None,
               max_steps: int = 1_000_000) -> ExecutionResult:
    """Convenience wrapper: build an interpreter, run, return the result."""
    return Interpreter(module, max_steps=max_steps).run(entry, args)
