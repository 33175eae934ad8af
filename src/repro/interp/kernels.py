"""Flat compiled simulation kernels — the interpreter's fast path.

The reference :class:`~repro.interp.interpreter.Interpreter` resolves
every executed instruction through per-step machinery: a frame dict
lookup per operand, an opcode-path re-selection inside each ``_exec_*``
handler, and a tuple allocation per control decision. On the cold
evaluation path (engine/trie/store miss) that per-step cost *is* the
simulator cost — profiling shows 93–95 % of a cold ``profile()`` is
interpretation.

This module compiles each function's CFG once into a flat form:

* **register-slot allocation** — arguments and value-producing
  instructions get dense list slots; a frame is ``[None] * nregs``
  instead of a dict keyed by Value objects;
* **block traces** — each basic block is lowered to a tuple of
  pre-bound step closures (operand slots, folded constants, resolved
  global/callee indices and per-opcode scalar closures from
  :mod:`repro.ir.folding` are all baked in at compile time) executed by
  a tight dispatch loop;
* **segmented step accounting** — straight-line runs pre-add their step
  count in one operation; traces are split at call boundaries so the
  running counter agrees exactly with the reference at every callee
  entry, and a near-budget slow path reproduces the reference's exact
  raise point.

Compiled kernels are **module-independent**: globals and callees are
referenced by index into per-execution binding tables resolved by name,
so one kernel serves every clone and every structurally identical
function. The cache is keyed by the same structural body hash
(:func:`repro.hls.hashing.structural_key`) the schedule and feature
caches use.

Bit-identity contract: for any module, :class:`KernelInterpreter` and
the reference interpreter produce equal ``ExecutionResult.observable()``,
``steps``, ``block_counts`` and ``call_counts`` — or raise the same
category of error (:class:`StepBudgetExceeded` /
:class:`InterpreterLimitExceeded` / :class:`TrapError`). Under
``REPRO_SIM_KERNELS=verify`` the profiler runs every lane of every wave
on both (:func:`run_outcome`) and hard-fails on any divergence
(:func:`check_outcomes`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .. import telemetry as tm
from ..ir.folding import cast_fn, fcmp_fn, float_binop_fn, icmp_fn, int_binop_fn
from ..ir.instructions import (
    FLOAT_BINOPS,
    AllocaInst,
    BinaryOperator,
    BranchInst,
    CallInst,
    CastInst,
    FCmpInst,
    FNegInst,
    GEPInst,
    ICmpInst,
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
from ..ir.values import ConstantFloat, ConstantInt, GlobalVariable, UndefValue
from .externals import call_external
from .interpreter import ExecutionResult, Interpreter
from .state import (
    InterpreterLimitExceeded,
    Memory,
    MemPointer,
    StepBudgetExceeded,
    TrapError,
)

__all__ = ["KernelInterpreter", "VerificationError",
           "run_outcome", "check_outcomes",
           "kernel_cache_info", "clear_kernel_cache", "compiled_for"]

_pointer_compare = Interpreter._pointer_compare

# Operand descriptor kinds (compile-time classification of a Value).
_K_REG = 0     # val = register slot index
_K_CONST = 1   # val = folded Python constant
_K_GLOBAL = 2  # val = index into the per-execution global-pointer table
_K_TRAP = 3    # val = TrapError message (use of the value traps)

_RET_NONE = ("ret", None)


class VerificationError(Exception):
    """verify mode found a kernel/reference divergence — a kernel bug."""


# -- compiled representation --------------------------------------------------

class CompiledFunction:
    """The module-independent compiled form of one function body."""

    __slots__ = ("nregs", "nargs", "alloca_slot", "nblocks",
                 "blocks", "gnames", "callee_specs")

    def __init__(self, nregs: int, nargs: int, alloca_slot: int,
                 blocks: List[Tuple], gnames: List[str],
                 callee_specs: List[Tuple[str, str]]) -> None:
        self.nregs = nregs
        self.nargs = nargs
        self.alloca_slot = alloca_slot  # -1 when the function has no allocas
        self.nblocks = len(blocks)
        # per block: (phi_edges, segments, term, term_counts_step)
        self.blocks = blocks
        self.gnames = gnames
        self.callee_specs = callee_specs


class _ExecState:
    """Mutable execution-wide counters shared by every bound function."""

    __slots__ = ("steps", "max_steps", "depth", "max_depth")

    def __init__(self, max_steps: int, max_depth: int) -> None:
        self.steps = 0
        self.max_steps = max_steps
        self.depth = -1  # entry call lands at depth 0, like the reference
        self.max_depth = max_depth


class _BoundFunction:
    """One compiled function bound to a concrete module + execution.

    Step closures receive ``(bf, regs)``; the bound function carries the
    resolved global pointers, callee targets and shared runtime tables
    they index into.
    """

    __slots__ = ("cf", "name", "st", "gv", "callees", "counts", "mem",
                 "segs", "output", "call_counts", "src_blocks")

    def call(self, args: List) -> object:
        st = self.st
        depth = st.depth + 1
        if depth > st.max_depth:
            raise InterpreterLimitExceeded(f"call depth exceeded in @{self.name}")
        st.depth = depth
        cc = self.call_counts
        cc[self.name] = cc.get(self.name, 0) + 1
        cf = self.cf
        regs: List = [None] * cf.nregs
        n = len(args)
        if n:
            if n > cf.nargs:
                n = cf.nargs
            regs[:n] = args[:n]
        aslot = cf.alloca_slot
        allocas: Optional[List[MemPointer]] = None
        if aslot >= 0:
            allocas = regs[aslot] = []
        blocks = cf.blocks
        counts = self.counts
        limit = st.max_steps
        bidx = 0
        prev = -1
        try:
            while True:
                counts[bidx] += 1
                phi_edges, segments, term, term_counts = blocks[bidx]
                if phi_edges is not None:
                    moves = phi_edges[prev]
                    if type(moves) is str:
                        raise KeyError(moves)
                    if len(moves) == 1:
                        d, kind, val = moves[0]
                        if kind == 0:
                            regs[d] = regs[val]
                        elif kind == 1:
                            regs[d] = val
                        elif kind == 2:
                            regs[d] = self.gv[val]
                        else:
                            raise TrapError(val)
                    else:
                        # simultaneous assignment: read all edges, then write
                        vals = []
                        for mv in moves:
                            kind = mv[1]
                            if kind == 0:
                                vals.append(regs[mv[2]])
                            elif kind == 1:
                                vals.append(mv[2])
                            elif kind == 2:
                                vals.append(self.gv[mv[2]])
                            else:
                                raise TrapError(mv[2])
                        i = 0
                        for mv in moves:
                            regs[mv[0]] = vals[i]
                            i += 1
                for nsteps, seg in segments:
                    ns = st.steps + nsteps
                    if ns <= limit:
                        st.steps = ns
                        for f in seg:
                            f(self, regs)
                    else:
                        # near-budget slow path: reference increment order
                        for f in seg:
                            s = st.steps + 1
                            if s > limit:
                                raise StepBudgetExceeded(
                                    f"step budget exhausted in @{self.name}")
                            st.steps = s
                            f(self, regs)
                if term_counts:
                    s = st.steps + 1
                    if s > limit:
                        raise StepBudgetExceeded(
                            f"step budget exhausted in @{self.name}")
                    st.steps = s
                transfer = term(self, regs)
                if type(transfer) is int:
                    prev = bidx
                    bidx = transfer
                else:
                    return transfer[1]
        except TypeError:  # the reference traps on an undefined value
            name = self._undefined_operand(bidx, regs)
            if name is None:
                raise
            raise TrapError(f"use of undefined value %{name}") from None
        finally:
            st.depth = depth - 1
            if allocas:
                free = self.mem.free
                for ptr in allocas:
                    free(ptr)

    def _undefined_operand(self, bidx: int, regs: List) -> Optional[str]:
        """A value block ``bidx`` read from an unwritten (``None``) register;
        phi incomings and values the block defines itself do not count."""
        compiler = _FunctionCompiler(self.src_blocks[bidx].parent)
        compiler._allocate_slots()
        slots, defined = compiler.slots, set()
        for inst in self.src_blocks[bidx].instructions:
            if not isinstance(inst, PhiNode):
                for value in inst.operands:
                    slot = slots.get(value)
                    if slot is not None and slot not in defined \
                            and regs[slot] is None:
                        return value.name
                defined.add(slots.get(inst))
        return None


# -- compile-time helpers -----------------------------------------------------

def _getter(desc):
    """Generic operand fetch closure (used off the specialized fast paths)."""
    kind, val = desc
    if kind == _K_REG:
        def get(bf, regs, _s=val):
            return regs[_s]
    elif kind == _K_CONST:
        def get(bf, regs, _v=val):
            return _v
    elif kind == _K_GLOBAL:
        def get(bf, regs, _g=val):
            return bf.gv[_g]
    else:
        def get(bf, regs, _m=val):
            raise TrapError(_m)
    return get


def _binary_step(desc_a, desc_b, combine, dest):
    """``regs[dest] = combine(a, b)`` with reg/const operand fetches inlined."""
    ka, va = desc_a
    kb, vb = desc_b
    if ka == _K_REG and kb == _K_REG:
        def step(bf, regs, _a=va, _b=vb, _c=combine, _d=dest):
            regs[_d] = _c(regs[_a], regs[_b])
    elif ka == _K_REG and kb == _K_CONST:
        def step(bf, regs, _a=va, _b=vb, _c=combine, _d=dest):
            regs[_d] = _c(regs[_a], _b)
    elif ka == _K_CONST and kb == _K_REG:
        def step(bf, regs, _a=va, _b=vb, _c=combine, _d=dest):
            regs[_d] = _c(_a, regs[_b])
    elif ka == _K_CONST and kb == _K_CONST:
        def step(bf, regs, _a=va, _b=vb, _c=combine, _d=dest):
            regs[_d] = _c(_a, _b)
    else:
        ga, gb = _getter(desc_a), _getter(desc_b)
        def step(bf, regs, _ga=ga, _gb=gb, _c=combine, _d=dest):
            regs[_d] = _c(_ga(bf, regs), _gb(bf, regs))
    return step


def _unary_step(desc, combine, dest):
    kind, val = desc
    if kind == _K_REG:
        def step(bf, regs, _a=val, _c=combine, _d=dest):
            regs[_d] = _c(regs[_a])
    elif kind == _K_CONST:
        def step(bf, regs, _a=val, _c=combine, _d=dest):
            regs[_d] = _c(_a)
    else:
        g = _getter(desc)
        def step(bf, regs, _g=g, _c=combine, _d=dest):
            regs[_d] = _c(_g(bf, regs))
    return step


class _FunctionCompiler:
    """Lowers one function to a :class:`CompiledFunction`."""

    def __init__(self, func: Function) -> None:
        self.func = func
        self.slots: Dict = {}
        self.gidx: Dict = {}
        self.gnames: List[str] = []
        self.cidx: Dict = {}
        self.callee_specs: List[Tuple[str, str]] = []
        self.block_index: Dict[BasicBlock, int] = {
            bb: i for i, bb in enumerate(func.blocks)}
        self.alloca_slot = -1

    # -- slot / table allocation -------------------------------------------
    def _allocate_slots(self) -> int:
        n = 0
        for arg in self.func.args:
            self.slots[arg] = n
            n += 1
        has_alloca = False
        for bb in self.func.blocks:
            for inst in bb.instructions:
                if isinstance(inst, (StoreInst, BranchInst, SwitchInst,
                                     ReturnInst, UnreachableInst)):
                    continue
                if isinstance(inst, AllocaInst):
                    has_alloca = True
                self.slots[inst] = n
                n += 1
        if has_alloca:
            self.alloca_slot = n
            n += 1
        return n

    def _global_index(self, gv: GlobalVariable) -> int:
        idx = self.gidx.get(gv)
        if idx is None:
            idx = self.gidx[gv] = len(self.gnames)
            self.gnames.append(gv.name)
        return idx

    def _callee_index(self, callee) -> int:
        idx = self.cidx.get(callee if isinstance(callee, str) else id(callee))
        if idx is not None:
            return idx
        if isinstance(callee, str):
            spec = ("x", callee)          # external: counted call_external
            key = callee
        elif callee.is_declaration:
            spec = ("e", callee.name)     # declaration: uncounted external
            key = id(callee)
        else:
            spec = ("d", callee.name)     # defined: recurse into a kernel
            key = id(callee)
        idx = self.cidx[key] = len(self.callee_specs)
        self.callee_specs.append(spec)
        return idx

    def _operand(self, v) -> Tuple[int, object]:
        slot = self.slots.get(v)
        if slot is not None:
            return (_K_REG, slot)
        if isinstance(v, ConstantInt):
            return (_K_CONST, v.value)
        if isinstance(v, ConstantFloat):
            return (_K_CONST, v.value)
        if isinstance(v, UndefValue):
            return (_K_CONST, 0.0 if v.type.is_float else 0)
        if isinstance(v, GlobalVariable):
            return (_K_GLOBAL, self._global_index(v))
        if isinstance(v, Function):
            return (_K_TRAP, "function pointers are not executable values")
        return (_K_TRAP, f"use of undefined value %{v.name}")

    # -- whole-function lowering -------------------------------------------
    def compile(self) -> CompiledFunction:
        nregs = self._allocate_slots()
        blocks = [self._compile_block(bb) for bb in self.func.blocks]
        return CompiledFunction(nregs, len(self.func.args), self.alloca_slot,
                                blocks, self.gnames, self.callee_specs)

    def _compile_block(self, bb: BasicBlock) -> Tuple:
        phis = bb.phis()
        phi_edges = self._compile_phis(phis) if phis else None

        body = bb.instructions[len(phis):]
        # The reference stops at the first control transfer, so anything
        # after a terminator is dead; truncate to keep step counts exact.
        term_at = None
        for i, inst in enumerate(body):
            if inst.is_terminator:
                term_at = i
                break
        if term_at is None:
            straight = body
            term = self._trap_step(
                f"block {bb.name} fell through without terminator")
            term_counts = False
        else:
            straight = body[:term_at]
            term = self._compile_inst(body[term_at])
            term_counts = True

        # Segment the straight-line trace at call boundaries so the step
        # counter is exact whenever control enters a callee.
        segments: List[Tuple[int, Tuple]] = []
        run: List = []
        for inst in straight:
            run.append(self._compile_inst(inst))
            if isinstance(inst, (CallInst, InvokeInst)):
                segments.append((len(run), tuple(run)))
                run = []
        if run:
            segments.append((len(run), tuple(run)))
        return (phi_edges, tuple(segments), term, term_counts)

    def _compile_phis(self, phis: List[PhiNode]) -> Dict[int, object]:
        edges: Dict[int, object] = {}
        preds = []
        for phi in phis:
            for pred in phi.incoming_blocks:
                if pred not in preds:
                    preds.append(pred)
        for pred in preds:
            pidx = self.block_index.get(pred, -2)  # dangling pred: never taken
            moves = []
            broken = None
            for phi in phis:
                value = None
                for v, blk in zip(phi.operands, phi.incoming_blocks):
                    if blk is pred:
                        value = v
                        break
                if value is None:
                    # reference: incoming_value_for raises KeyError mid-stage
                    broken = f"phi {phi.name} has no incoming edge from {pred.name}"
                    break
                kind, val = self._operand(value)
                moves.append((self.slots[phi], kind, val))
            edges[pidx] = broken if broken is not None else tuple(moves)
        return edges

    @staticmethod
    def _trap_step(message: str):
        def step(bf, regs, _m=message):
            raise TrapError(_m)
        return step

    # -- per-instruction lowering ------------------------------------------
    def _compile_inst(self, inst):
        if isinstance(inst, BinaryOperator):
            opcode = inst.opcode
            if opcode in FLOAT_BINOPS:
                fn = float_binop_fn(opcode)
            else:
                fn = int_binop_fn(opcode, inst.type)
            return _binary_step(self._operand(inst.lhs), self._operand(inst.rhs),
                                fn, self.slots[inst])
        if isinstance(inst, FNegInst):
            return _unary_step(self._operand(inst.operand),
                               lambda v: -float(v), self.slots[inst])
        if isinstance(inst, ICmpInst):
            fn = icmp_fn(inst.predicate, inst.lhs.type)
            pred = inst.predicate

            def icmp(a, b, _f=fn, _p=pred):
                if a.__class__ is MemPointer or b.__class__ is MemPointer:
                    return 1 if _pointer_compare(_p, a, b) else 0
                return 1 if _f(a, b) else 0
            return _binary_step(self._operand(inst.lhs), self._operand(inst.rhs),
                                icmp, self.slots[inst])
        if isinstance(inst, FCmpInst):
            fn = fcmp_fn(inst.predicate)

            def fcmp(a, b, _f=fn):
                return 1 if _f(a, b) else 0
            return _binary_step(self._operand(inst.lhs), self._operand(inst.rhs),
                                fcmp, self.slots[inst])
        if isinstance(inst, SelectInst):
            gc = _getter(self._operand(inst.condition))
            gt = _getter(self._operand(inst.true_value))
            gf = _getter(self._operand(inst.false_value))
            d = self.slots[inst]

            def select(bf, regs, _gc=gc, _gt=gt, _gf=gf, _d=d):
                regs[_d] = _gt(bf, regs) if _gc(bf, regs) else _gf(bf, regs)
            return select
        if isinstance(inst, AllocaInst):
            size = inst.allocated_type.size_slots
            d = self.slots[inst]
            aslot = self.alloca_slot

            def alloca(bf, regs, _n=size, _d=d, _a=aslot):
                ptr = bf.mem.allocate(_n)
                regs[_a].append(ptr)
                regs[_d] = ptr
            return alloca
        if isinstance(inst, LoadInst):
            return self._compile_load(inst)
        if isinstance(inst, StoreInst):
            return self._compile_store(inst)
        if isinstance(inst, GEPInst):
            return self._compile_gep(inst)
        if isinstance(inst, InvokeInst):
            # no unwinding sources: a call plus a jump to the normal edge
            call = self._compile_call_like(inst, self.slots[inst])
            target = self.block_index[inst.normal_dest]

            def invoke(bf, regs, _call=call, _t=target):
                _call(bf, regs)
                return _t
            return invoke
        if isinstance(inst, CallInst):
            return self._compile_call_like(inst, self.slots[inst])
        if isinstance(inst, CastInst):
            return self._compile_cast(inst)
        if isinstance(inst, ReturnInst):
            rv = inst.return_value
            if rv is None:
                def ret_void(bf, regs):
                    return _RET_NONE
                return ret_void
            kind, val = self._operand(rv)
            if kind == _K_REG:
                def ret_reg(bf, regs, _s=val):
                    return ("ret", regs[_s])
                return ret_reg
            if kind == _K_CONST:
                packed = ("ret", val)

                def ret_const(bf, regs, _r=packed):
                    return _r
                return ret_const
            g = _getter((kind, val))

            def ret_gen(bf, regs, _g=g):
                return ("ret", _g(bf, regs))
            return ret_gen
        if isinstance(inst, BranchInst):
            if not inst.is_conditional:
                target = self.block_index[inst.true_target]

                def br(bf, regs, _t=target):
                    return _t
                return br
            t = self.block_index[inst.true_target]
            f = self.block_index[inst.false_target]
            kind, val = self._operand(inst.condition)
            if kind == _K_REG:
                def cbr(bf, regs, _c=val, _t=t, _f=f):
                    return _t if regs[_c] else _f
                return cbr
            if kind == _K_CONST:
                fixed = t if val else f

                def cbr_const(bf, regs, _t=fixed):
                    return _t
                return cbr_const
            g = _getter((kind, val))

            def cbr_gen(bf, regs, _g=g, _t=t, _f=f):
                return _t if _g(bf, regs) else _f
            return cbr_gen
        if isinstance(inst, SwitchInst):
            # dict built first-match-wins, like the reference's linear scan
            table: Dict[int, int] = {}
            for const, target in inst.cases:
                table.setdefault(const.value, self.block_index[target])
            default = self.block_index[inst.default]
            kind, val = self._operand(inst.condition)
            if kind == _K_REG:
                def switch(bf, regs, _c=val, _tab=table, _dflt=default):
                    return _tab.get(int(regs[_c]), _dflt)
                return switch
            g = _getter((kind, val))

            def switch_gen(bf, regs, _g=g, _tab=table, _dflt=default):
                return _tab.get(int(_g(bf, regs)), _dflt)
            return switch_gen
        if isinstance(inst, UnreachableInst):
            return self._trap_step("executed unreachable")
        if isinstance(inst, PhiNode):
            return self._trap_step("phi executed out of order")
        return self._trap_step(f"cannot execute opcode {inst.opcode}")

    def _compile_load(self, inst: LoadInst):
        d = self.slots[inst]
        kind, val = self._operand(inst.pointer)
        if kind == _K_REG:
            def load(bf, regs, _p=val, _d=d):
                p = regs[_p]
                if p.__class__ is not MemPointer:
                    raise TrapError("load through non-pointer")
                o = p.offset
                if o >= 0:
                    try:
                        regs[_d] = bf.segs[p.segment][o]
                        return
                    except KeyError:
                        raise TrapError(f"access to freed/invalid segment "
                                        f"{p.segment}") from None
                    except IndexError:
                        pass
                seg = bf.segs.get(p.segment)
                if seg is None:
                    raise TrapError(f"access to freed/invalid segment {p.segment}")
                raise TrapError(f"out-of-bounds access: offset {o} "
                                f"in segment of {len(seg)} slots")
            return load
        if kind == _K_GLOBAL:
            # global pointers are always valid MemPointers and their
            # segments are never freed during an execution
            def load_global(bf, regs, _g=val, _d=d):
                p = bf.gv[_g]
                seg = bf.segs[p.segment]
                o = p.offset
                if o >= 0:
                    try:
                        regs[_d] = seg[o]
                        return
                    except IndexError:
                        pass
                raise TrapError(f"out-of-bounds access: offset {o} "
                                f"in segment of {len(seg)} slots")
            return load_global
        g = _getter((kind, val))

        def load_gen(bf, regs, _g=g, _d=d):
            p = _g(bf, regs)
            if p.__class__ is not MemPointer:
                raise TrapError("load through non-pointer")
            seg = bf.segs.get(p.segment)
            if seg is None:
                raise TrapError(f"access to freed/invalid segment {p.segment}")
            o = p.offset
            if 0 <= o < len(seg):
                regs[_d] = seg[o]
            else:
                raise TrapError(f"out-of-bounds access: offset {o} "
                                f"in segment of {len(seg)} slots")
        return load_gen

    def _compile_store(self, inst: StoreInst):
        gp = _getter(self._operand(inst.pointer))
        kind, val = self._operand(inst.value)
        pkind, pval = self._operand(inst.pointer)
        if pkind == _K_REG and kind == _K_REG:
            def store(bf, regs, _p=pval, _v=val):
                p = regs[_p]
                if p.__class__ is not MemPointer:
                    raise TrapError("store through non-pointer")
                o = p.offset
                if o >= 0:
                    try:
                        bf.segs[p.segment][o] = regs[_v]
                        return
                    except KeyError:
                        raise TrapError(f"access to freed/invalid segment "
                                        f"{p.segment}") from None
                    except IndexError:
                        pass
                seg = bf.segs.get(p.segment)
                if seg is None:
                    raise TrapError(f"access to freed/invalid segment {p.segment}")
                raise TrapError(f"out-of-bounds access: offset {o} "
                                f"in segment of {len(seg)} slots")
            return store
        if pkind == _K_GLOBAL and kind == _K_REG:
            def store_global(bf, regs, _p=pval, _v=val):
                p = bf.gv[_p]
                seg = bf.segs[p.segment]
                o = p.offset
                if o >= 0:
                    try:
                        seg[o] = regs[_v]
                        return
                    except IndexError:
                        pass
                raise TrapError(f"out-of-bounds access: offset {o} "
                                f"in segment of {len(seg)} slots")
            return store_global
        gv = _getter((kind, val))

        def store_gen(bf, regs, _gp=gp, _gv=gv):
            p = _gp(bf, regs)
            if p.__class__ is not MemPointer:
                raise TrapError("store through non-pointer")
            # reference order: the stored value resolves before the
            # segment/bounds checks run inside Memory.store
            v = _gv(bf, regs)
            seg = bf.segs.get(p.segment)
            if seg is None:
                raise TrapError(f"access to freed/invalid segment {p.segment}")
            o = p.offset
            if 0 <= o < len(seg):
                seg[o] = v
            else:
                raise TrapError(f"out-of-bounds access: offset {o} "
                                f"in segment of {len(seg)} slots")
        return store_gen

    # MemPointer is a frozen, unslotted dataclass: its __init__ funnels
    # every field through object.__setattr__. GEPs mint pointers in the
    # hottest loops, so the closures below build them via __new__ plus
    # direct __dict__ stores — equivalent values (same type, eq, hash),
    # roughly half the construction cost.
    def _compile_gep(self, inst: GEPInst):
        d = self.slots[inst]
        base_desc = self._operand(inst.pointer)
        const_off = 0
        dyn: List[Tuple] = []  # (kind, val, stride) for non-constant indices
        for idx, stride in zip(inst.indices, inst.element_strides()):
            kind, val = self._operand(idx)
            if kind == _K_CONST:
                const_off += int(val) * stride
            else:
                dyn.append((kind, val, stride))
        bkind, bval = base_desc
        one_reg = len(dyn) == 1 and dyn[0][0] == _K_REG
        if bkind == _K_REG and not dyn:
            def gep_const(bf, regs, _b=bval, _d=d, _k=const_off,
                          _new=object.__new__):
                base = regs[_b]
                if base.__class__ is not MemPointer:
                    raise TrapError("gep on non-pointer")
                p = _new(MemPointer)
                pd = p.__dict__
                pd["segment"] = base.segment
                pd["offset"] = base.offset + _k
                regs[_d] = p
            return gep_const
        if bkind == _K_REG and one_reg:
            def gep_reg1(bf, regs, _b=bval, _d=d, _k=const_off,
                         _i=dyn[0][1], _s=dyn[0][2], _new=object.__new__):
                base = regs[_b]
                if base.__class__ is not MemPointer:
                    raise TrapError("gep on non-pointer")
                p = _new(MemPointer)
                pd = p.__dict__
                pd["segment"] = base.segment
                pd["offset"] = base.offset + _k + int(regs[_i]) * _s
                regs[_d] = p
            return gep_reg1
        if bkind == _K_GLOBAL and not dyn:
            # global pointers are always valid MemPointers
            def gep_global_const(bf, regs, _g=bval, _d=d, _k=const_off,
                                 _new=object.__new__):
                base = bf.gv[_g]
                p = _new(MemPointer)
                pd = p.__dict__
                pd["segment"] = base.segment
                pd["offset"] = base.offset + _k
                regs[_d] = p
            return gep_global_const
        if bkind == _K_GLOBAL and one_reg:
            def gep_global1(bf, regs, _g=bval, _d=d, _k=const_off,
                            _i=dyn[0][1], _s=dyn[0][2], _new=object.__new__):
                base = bf.gv[_g]
                p = _new(MemPointer)
                pd = p.__dict__
                pd["segment"] = base.segment
                pd["offset"] = base.offset + _k + int(regs[_i]) * _s
                regs[_d] = p
            return gep_global1
        getters = tuple((_getter((kind, val)), stride)
                        for kind, val, stride in dyn)
        if bkind == _K_REG:
            def gep_dyn(bf, regs, _b=bval, _d=d, _k=const_off, _dyn=getters):
                base = regs[_b]
                if base.__class__ is not MemPointer:
                    raise TrapError("gep on non-pointer")
                off = _k
                for g, stride in _dyn:
                    off += int(g(bf, regs)) * stride
                regs[_d] = MemPointer(base.segment, base.offset + off)
            return gep_dyn
        if bkind == _K_GLOBAL:
            def gep_global_dyn(bf, regs, _b=bval, _d=d, _k=const_off,
                               _dyn=getters):
                base = bf.gv[_b]
                off = _k
                for g, stride in _dyn:
                    off += int(g(bf, regs)) * stride
                regs[_d] = MemPointer(base.segment, base.offset + off)
            return gep_global_dyn
        gb = _getter(base_desc)
        dyn = getters

        def gep_gen(bf, regs, _gb=gb, _d=d, _k=const_off, _dyn=tuple(dyn)):
            base = _gb(bf, regs)
            if base.__class__ is not MemPointer:
                raise TrapError("gep on non-pointer")
            off = _k
            for g, stride in _dyn:
                off += int(g(bf, regs)) * stride
            regs[_d] = MemPointer(base.segment, base.offset + off)
        return gep_gen

    def _compile_call_like(self, inst, dest: int):
        getters = tuple(_getter(self._operand(a)) for a in inst.args)
        ci = self._callee_index(inst.callee)
        tag, name = self.callee_specs[ci]
        if tag == "d":
            def call_defined(bf, regs, _g=getters, _ci=ci, _d=dest):
                regs[_d] = bf.callees[_ci].call([g(bf, regs) for g in _g])
            return call_defined
        if tag == "x":
            def call_external_counted(bf, regs, _g=getters, _n=name, _d=dest):
                args = [g(bf, regs) for g in _g]
                cc = bf.call_counts
                cc[_n] = cc.get(_n, 0) + 1
                regs[_d] = call_external(_n, args, bf.mem, bf.output)
            return call_external_counted

        def call_declared(bf, regs, _g=getters, _n=name, _d=dest):
            regs[_d] = call_external(_n, [g(bf, regs) for g in _g],
                                     bf.mem, bf.output)
        return call_declared

    def _compile_cast(self, inst: CastInst):
        opcode = inst.opcode
        fn = cast_fn(opcode, inst.operand.type, inst.type)
        if opcode == "bitcast":
            def bitcast(v):
                return v  # pointers pass through, scalars are unchanged
            return _unary_step(self._operand(inst.operand), bitcast,
                               self.slots[inst])

        def cast(v, _f=fn, _op=opcode):
            if v.__class__ is MemPointer:
                raise TrapError(f"{_op} of pointer value")
            return _f(v)
        return _unary_step(self._operand(inst.operand), cast, self.slots[inst])


# -- kernel cache -------------------------------------------------------------

_KERNEL_CACHE_SIZE = 1024
_kernel_cache: "OrderedDict[Tuple, CompiledFunction]" = OrderedDict()
_kernel_lock = threading.Lock()
_kernel_hits = 0
_kernel_misses = 0


def compiled_for(func: Function, key: Tuple) -> CompiledFunction:
    """The compiled kernel for ``func``, cached under its structural key."""
    global _kernel_hits, _kernel_misses
    with _kernel_lock:
        cf = _kernel_cache.get(key)
        if cf is not None:
            _kernel_cache.move_to_end(key)
            _kernel_hits += 1
            return cf
    with tm.span("kernel.compile", func=func.name):
        cf = _FunctionCompiler(func).compile()
    with _kernel_lock:
        _kernel_misses += 1
        _kernel_cache[key] = cf
        while len(_kernel_cache) > _KERNEL_CACHE_SIZE:
            _kernel_cache.popitem(last=False)
    return cf


def kernel_cache_info() -> Dict[str, int]:
    with _kernel_lock:
        return {"kernel_entries": len(_kernel_cache),
                "kernel_hits": _kernel_hits,
                "kernel_misses": _kernel_misses}


def clear_kernel_cache() -> None:
    global _kernel_hits, _kernel_misses
    with _kernel_lock:
        _kernel_cache.clear()
        _kernel_hits = _kernel_misses = 0


# -- execution ----------------------------------------------------------------

class KernelInterpreter:
    """Executes one module through compiled kernels. Fresh per execution.

    ``keys`` maps defined functions to their structural body hash; the
    caller (the profiler) usually computed them already for the schedule
    cache; without them they come off the same per-module-version memo
    (:func:`repro.hls.hashing.module_structural_keys`), so kernels,
    schedules and block plans share one key pass either way.
    """

    def __init__(self, module: Module, max_steps: int = 1_000_000,
                 max_call_depth: int = 64,
                 keys: Optional[Dict[Function, Tuple]] = None) -> None:
        from ..hls.hashing import module_structural_keys

        self.module = module
        self.memory = Memory()
        self.output: List[int] = []
        self.call_counts: Dict[str, int] = {}
        self._state = _ExecState(max_steps, max_call_depth)
        self._globals_by_name: Dict[str, MemPointer] = {}
        self._observable_segments: List[Tuple[str, int]] = []
        # identical allocation order to the reference interpreter: globals
        # first, in module order (pointer comparisons observe segment ids)
        for gv in module.globals.values():
            ptr = self.memory.allocate_init(gv.flat_initializer())
            self._globals_by_name[gv.name] = ptr
            if gv.linkage != "internal":
                self._observable_segments.append((gv.name, ptr.segment))

        if not keys:
            keys = module_structural_keys(module)
        self._bound: Dict[str, _BoundFunction] = {}
        segs = self.memory._segments  # shared alias for the load/store closures
        for func in module.defined_functions():
            cf = compiled_for(func, keys[func])
            bf = _BoundFunction()
            bf.cf = cf
            bf.name = func.name
            bf.st = self._state
            bf.mem = self.memory
            bf.segs = segs
            bf.output = self.output
            bf.call_counts = self.call_counts
            bf.counts = [0] * cf.nblocks
            bf.src_blocks = func.blocks
            self._bound[func.name] = bf
        # second pass: resolve globals and callees now every name is bound
        for bf in self._bound.values():
            bf.gv = [self._globals_by_name[name] for name in bf.cf.gnames]
            callees: List = []
            for tag, name in bf.cf.callee_specs:
                callees.append(self._bound[name] if tag == "d" else name)
            bf.callees = callees

    def run(self, entry: str = "main", args: Optional[List] = None) -> ExecutionResult:
        func = self.module.get_function(entry)
        if func is None or func.is_declaration:
            raise TrapError(f"no defined entry function @{entry}")
        with tm.span("kernel.execute", entry=entry):
            rv = self._bound[entry].call(list(args or []))
        tm.count("kernel.steps", self._state.steps)
        block_counts: Dict[BasicBlock, int] = {}
        for bf in self._bound.values():
            for bb, count in zip(bf.src_blocks, bf.counts):
                if count:
                    block_counts[bb] = count
        return ExecutionResult(
            return_value=rv,
            steps=self._state.steps,
            block_counts=block_counts,
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


# -- verify mode --------------------------------------------------------------

def run_outcome(interp_cls, module: Module, entry: str, **config) -> object:
    """``interp_cls(module, **config).run(entry)`` — or the exception it
    raised, returned instead, so a wave can carry failures per lane and
    verify mode can compare them."""
    try:
        return interp_cls(module, **config).run(entry)
    except Exception as exc:
        return exc


def _error_category(exc: BaseException) -> str:
    if isinstance(exc, StepBudgetExceeded):
        return "budget"
    if isinstance(exc, InterpreterLimitExceeded):
        return "limit"
    if isinstance(exc, TrapError):
        return "trap"
    return type(exc).__name__


def check_outcomes(what: str, fast: object, reference: object) -> None:
    """The one compare harness behind ``verify``: ``fast`` and
    ``reference`` are :func:`run_outcome` values for the same module.
    Raises :class:`VerificationError` unless both failed with the same
    error category, or both succeeded with equal ``observable()``,
    ``steps``, ``block_counts``, ``call_counts`` and ``output``."""
    def describe(outcome: object) -> str:
        return (f"raised {outcome!r}" if isinstance(outcome, BaseException)
                else "succeeded")

    fast_failed = isinstance(fast, BaseException)
    if fast_failed != isinstance(reference, BaseException):
        raise VerificationError(f"{what}: kernels {describe(fast)}, "
                                f"reference {describe(reference)}")
    if fast_failed:
        fcat, rcat = _error_category(fast), _error_category(reference)
        if fcat != rcat:
            raise VerificationError(
                f"{what}: kernel error category {fcat} ({fast!r}) != "
                f"reference {rcat} ({reference!r})")
        return
    mismatches = []
    if fast.observable() != reference.observable():
        mismatches.append("observable()")
    if fast.steps != reference.steps:
        mismatches.append(f"steps {fast.steps} != {reference.steps}")
    if fast.block_counts != reference.block_counts:
        mismatches.append("block_counts")
    if fast.call_counts != reference.call_counts:
        mismatches.append("call_counts")
    if fast.output != reference.output:
        mismatches.append("output")
    if mismatches:
        raise VerificationError(f"{what}: {', '.join(mismatches)}")
