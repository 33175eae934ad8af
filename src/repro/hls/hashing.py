"""Structural hashing of function bodies for incremental scheduling.

The scheduler's output for a function depends only on (a) the function's
instruction stream — opcodes, result/operand types, predicates,
volatility, GEP index structure — (b) the *intra-function* def-use
topology (which operands are same-block defs and in what order, which
drives chaining and resource contention), (c) memory provenance (alias
queries walk GEP chains back to allocas/globals/arguments and, for
globals, whether their address escapes anywhere in the module), and
(d) callee facts (external callee names select timing-library entries;
callee ``readonly``/``readnone`` attributes gate memory-dependence
edges).

:func:`structural_key` encodes exactly that closure into a hashable
tuple, deliberately ignoring value *names* so that clones of the same
function (``clone_module`` renames every instruction) and structurally
identical functions across pass applications produce the same key. Two
functions with equal keys have isomorphic bodies under the encoding and
therefore identical block schedules, which is what makes the profiler's
per-function schedule cache sound.

:func:`module_structural_keys` is the one front door for "the keys of
every defined function of this module": memoized per ``(module,
Module.version)``, so the feature extractor, the profiler's schedule
cache, the kernel/plan caches and the batch executor's execution
signature share a single hash walk per module version — whichever runs
first pays, the others hit. ``PassManager`` bumps ``Module.version``
after every pass, which is the whole invalidation contract.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Optional, Tuple

from ..analysis.alias import _escapes
from ..ir.instructions import (
    AllocaInst,
    BranchInst,
    CallInst,
    FCmpInst,
    ICmpInst,
    InvokeInst,
    LoadInst,
    PhiNode,
    StoreInst,
    SwitchInst,
)
from ..ir.module import Function, Module
from ..ir.values import (
    Argument,
    ConstantFloat,
    ConstantInt,
    GlobalVariable,
    UndefValue,
    Value,
)

__all__ = ["structural_key", "module_structural_keys"]

# module -> (Module.version, {function name: key}). Values are keyed by
# *name*, never by Function: a function references its module, and a weak
# memo whose value reaches back to its key never lets the entry die.
_keys_lock = threading.Lock()
_keys_memo: "weakref.WeakKeyDictionary[Module, Tuple[int, Dict[str, Tuple]]]" = (
    weakref.WeakKeyDictionary())


def module_structural_keys(module: Module) -> Dict[Function, Tuple]:
    """``{function: structural_key(function)}`` for every defined
    function of ``module``, hashed at most once per ``Module.version``."""
    version = module.version
    functions = module.defined_functions()
    with _keys_lock:
        entry = _keys_memo.get(module)
    if entry is None or entry[0] != version:
        escapes_memo: Dict[Value, bool] = {}
        entry = (version, {func.name: structural_key(func, escapes_memo)
                           for func in functions})
        with _keys_lock:
            _keys_memo[module] = entry
    by_name = entry[1]
    return {func: by_name[func.name] for func in functions}


def _encode_callee(callee, escapes_memo: Dict) -> Tuple:
    if isinstance(callee, str):
        return ("x", callee)
    # Callee attributes decide may_read/may_write for the memory-ordering
    # edges; declarations are timed by name through the external library.
    return ("f", callee.name, callee.is_declaration,
            tuple(sorted(callee.attributes)))


# Types are interned, so their spelling is memoized per object.
_TYPE_NAMES: Dict[object, str] = {}


def _type_name(type_) -> str:
    name = _TYPE_NAMES.get(type_)
    if name is None:
        name = _TYPE_NAMES[type_] = str(type_)
    return name


def structural_key(func: Function,
                   escapes_memo: Optional[Dict[Value, bool]] = None) -> Tuple:
    """A hashable, name-independent key capturing the schedule inputs.

    ``escapes_memo`` memoizes the module-wide "does this global's address
    escape" query across the functions of one module traversal.
    """
    if escapes_memo is None:
        escapes_memo = {}
    tname = _type_name
    # block / instruction -> its position-only encoding
    local: Dict[Value, Tuple] = {}
    for i, bb in enumerate(func.blocks):
        local[bb] = ("b", i)
    n = 0
    for bb in func.blocks:
        for inst in bb.instructions:
            local[inst] = ("i", n)
            n += 1

    def enc(v: Value) -> Tuple:
        code = local.get(v)
        if code is not None:
            return code
        if isinstance(v, ConstantInt):
            return ("ci", v.value, tname(v.type))
        if isinstance(v, ConstantFloat):
            return ("cf", repr(v.value))
        if isinstance(v, UndefValue):
            return ("u", tname(v.type))
        if isinstance(v, GlobalVariable):
            escapes = escapes_memo.get(v)
            if escapes is None:
                escapes = escapes_memo.setdefault(v, _escapes(v))
            return ("g", v.name, v.is_constant, tname(v.value_type), escapes)
        if isinstance(v, Argument):
            return ("a", v.index)
        if isinstance(v, Function):
            return _encode_callee(v, escapes_memo)
        return ("?", tname(v.type))  # conservative: distinct per stringification

    blocks = []
    for bb in func.blocks:
        insts = []
        for inst in bb.instructions:
            extra: Tuple = ()
            if isinstance(inst, (ICmpInst, FCmpInst)):
                extra = (inst.predicate,)
            elif isinstance(inst, (LoadInst, StoreInst)):
                extra = (inst.is_volatile,)
            elif isinstance(inst, AllocaInst):
                extra = (tname(inst.allocated_type), inst.allocated_type.size_slots)
            elif isinstance(inst, InvokeInst):
                extra = (_encode_callee(inst.callee, escapes_memo),
                         enc(inst.normal_dest), enc(inst.unwind_dest))
            elif isinstance(inst, CallInst):
                extra = (_encode_callee(inst.callee, escapes_memo),)
            elif isinstance(inst, PhiNode):
                extra = tuple([enc(b) for b in inst.incoming_blocks])
            elif isinstance(inst, SwitchInst):
                extra = tuple([(c.value, enc(b)) for c, b in inst.cases]) + (enc(inst.default),)
            elif isinstance(inst, BranchInst):
                extra = tuple([enc(t) for t in inst.successors()])
            insts.append((inst.opcode, tname(inst.type), extra,
                          tuple([enc(op) for op in inst._operands])))
        blocks.append(tuple(insts))
    return (tname(func.ftype), tuple([tname(a.type) for a in func.args]), tuple(blocks))
