"""Cloning. Regions — the shared machinery behind inlining, loop
unrolling, loop rotation, loop unswitching, partial inlining, and jump
threading — and whole modules, the first step of every cold evaluation.

``clone_blocks`` duplicates a set of blocks, remapping operands through a
value map. References to values *outside* the cloned region (and to blocks
outside it) are left pointing at the originals, which is exactly the
behaviour region-duplication passes need. ``clone_module`` copies
everything, so it skips the constructors and their validation: shells
first, then one fill of operands and references (see its docstring).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .instructions import (
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
from .module import BasicBlock, Function, Module
from .values import Constant, GlobalVariable, Value

__all__ = ["clone_instruction", "clone_blocks", "clone_module"]


def _mapped(value: Value, vmap: Dict[Value, Value]) -> Value:
    return vmap.get(value, value)


def clone_instruction(inst: Instruction, vmap: Dict[Value, Value]) -> Instruction:
    """Clone one instruction, remapping operands through ``vmap``.

    Successor blocks and phi incoming blocks are remapped through ``vmap``
    as well (BasicBlock is a Value). Phi *incoming values* are copied as-is
    here and fixed up by :func:`clone_blocks` once all clones exist.
    """
    m = lambda v: _mapped(v, vmap)
    if isinstance(inst, BinaryOperator):
        new: Instruction = BinaryOperator(inst.opcode, m(inst.lhs), m(inst.rhs), inst.name + ".c")
    elif isinstance(inst, FNegInst):
        new = FNegInst(m(inst.operand), inst.name + ".c")
    elif isinstance(inst, ICmpInst):
        new = ICmpInst(inst.predicate, m(inst.lhs), m(inst.rhs), inst.name + ".c")
    elif isinstance(inst, FCmpInst):
        new = FCmpInst(inst.predicate, m(inst.lhs), m(inst.rhs), inst.name + ".c")
    elif isinstance(inst, SelectInst):
        new = SelectInst(m(inst.condition), m(inst.true_value), m(inst.false_value), inst.name + ".c")
    elif isinstance(inst, AllocaInst):
        new = AllocaInst(inst.allocated_type, inst.name + ".c")
    elif isinstance(inst, LoadInst):
        new = LoadInst(m(inst.pointer), inst.name + ".c", inst.is_volatile)
    elif isinstance(inst, StoreInst):
        new = StoreInst(m(inst.value), m(inst.pointer), inst.is_volatile)
    elif isinstance(inst, GEPInst):
        new = GEPInst(m(inst.pointer), [m(i) for i in inst.indices], inst.name + ".c")
    elif isinstance(inst, CallInst):
        new = CallInst(inst.callee, [m(a) for a in inst.args], inst.type, inst.name + ".c")
        new.tail = inst.tail
    elif isinstance(inst, InvokeInst):
        new = InvokeInst(
            inst.callee,
            [m(a) for a in inst.args],
            inst.type,
            _mapped(inst.normal_dest, vmap),  # type: ignore[arg-type]
            _mapped(inst.unwind_dest, vmap),  # type: ignore[arg-type]
            inst.name + ".c",
        )
    elif isinstance(inst, CastInst):
        new = CastInst(inst.opcode, m(inst.operand), inst.type, inst.name + ".c")
    elif isinstance(inst, PhiNode):
        phi = PhiNode(inst.type, inst.name + ".c")
        for value, block in inst.incoming:
            phi.add_incoming(m(value), _mapped(block, vmap))  # type: ignore[arg-type]
        new = phi
    elif isinstance(inst, ReturnInst):
        rv = inst.return_value
        new = ReturnInst(m(rv) if rv is not None else None)
    elif isinstance(inst, BranchInst):
        if inst.is_conditional:
            new = BranchInst(
                m(inst.condition),
                _mapped(inst.true_target, vmap),
                _mapped(inst.false_target, vmap),
            )
        else:
            new = BranchInst(_mapped(inst.true_target, vmap))
    elif isinstance(inst, SwitchInst):
        sw = SwitchInst(m(inst.condition), _mapped(inst.default, vmap))  # type: ignore[arg-type]
        for const, block in inst.cases:
            sw.add_case(const, _mapped(block, vmap))  # type: ignore[arg-type]
        new = sw
    elif isinstance(inst, UnreachableInst):
        new = UnreachableInst()
    else:  # pragma: no cover - exhaustive over the instruction set
        raise TypeError(f"cannot clone instruction of type {type(inst).__name__}")
    if inst._metadata:
        new._metadata = dict(inst._metadata)
    return new


def clone_blocks(
    blocks: Sequence[BasicBlock],
    func: Function,
    vmap: Optional[Dict[Value, Value]] = None,
    suffix: str = ".clone",
) -> Tuple[List[BasicBlock], Dict[Value, Value]]:
    """Clone ``blocks`` into ``func`` (appended at the end, in order).

    Returns the new blocks and the final value map (old → new for every
    cloned block and instruction; any caller-seeded entries preserved).
    Operand references to values defined outside the region fall through
    the map unchanged.
    """
    vmap = dict(vmap or {})
    block_set = set(blocks)

    new_blocks: List[BasicBlock] = []
    for bb in blocks:
        nb = BasicBlock(bb.name + suffix, func)
        func.blocks.append(nb)
        vmap[bb] = nb
        new_blocks.append(nb)

    # Two phases: first clone non-phi operand references can forward-refer
    # to instructions later in the region, so clone in program order and
    # patch remaining intra-region references afterwards.
    cloned: List[Tuple[Instruction, Instruction]] = []
    for bb, nb in zip(blocks, new_blocks):
        for inst in bb.instructions:
            ci = clone_instruction(inst, vmap)
            nb.append(ci)
            vmap[inst] = ci
            cloned.append((inst, ci))

    # Fix forward references: operands that pointed at original in-region
    # instructions cloned *after* the user.
    for original, clone in cloned:
        for i, op in enumerate(clone.operands):
            if op in vmap and vmap[op] is not op:
                clone.set_operand(i, vmap[op])
        if isinstance(clone, PhiNode):
            clone.incoming_blocks = [
                vmap.get(b, b) for b in clone.incoming_blocks  # type: ignore[misc]
            ]
        if isinstance(clone, BranchInst):
            for t in clone.successors():
                if t in vmap and vmap[t] is not t:
                    clone.replace_successor(t, vmap[t])  # type: ignore[arg-type]
        if isinstance(clone, SwitchInst) or isinstance(clone, InvokeInst):
            for t in list(clone.successors()):
                if t in vmap and vmap[t] is not t:
                    clone.replace_successor(t, vmap[t])  # type: ignore[arg-type]

    return new_blocks, vmap


# -- per-class slot plans for clone_module -------------------------------------

def _copy_ref(target, vmap: Dict):
    return vmap.get(target, target)  # external callees are plain strings


def _copy_ref_list(targets, vmap: Dict) -> List:
    return [vmap.get(t, t) for t in targets]


def _copy_cases(cases, vmap: Dict) -> List:
    return [(const, vmap.get(bb, bb)) for const, bb in cases]


_BASE_SLOTS = frozenset(Value.__slots__ + Instruction.__slots__)
# Every subclass slot is either plain data (copied in the first walk) or
# a block/function reference retargeted through the value map (second
# walk). A new instruction slot must be entered here; clone_module
# refuses a class with a slot it does not know.
_PLAIN_SLOTS = frozenset({"predicate", "allocated_type", "is_volatile", "tail"})
_REFERENCE_SLOTS = {
    "callee": _copy_ref, "default": _copy_ref,
    "normal_dest": _copy_ref, "unwind_dest": _copy_ref,
    "incoming_blocks": _copy_ref_list, "_targets": _copy_ref_list,
    "cases": _copy_cases,
}
# Classes whose constructor takes no name keep theirs; every other clone
# is renamed ``<name>.c``.
_UNNAMED = frozenset({StoreInst, ReturnInst, BranchInst, SwitchInst, UnreachableInst})
_CLONE_PLANS: Dict[type, Tuple[bool, Tuple[str, ...], Tuple]] = {}


def _clone_plan(cls: type) -> Tuple[bool, Tuple[str, ...], Tuple]:
    """``(renamed, plain slots, ((reference slot, retarget), ...))``."""
    plain: List[str] = []
    references: List[Tuple] = []
    for klass in cls.__mro__:
        for slot in vars(klass).get("__slots__", ()):
            if slot in _PLAIN_SLOTS:
                plain.append(slot)
            elif slot in _REFERENCE_SLOTS:
                references.append((slot, _REFERENCE_SLOTS[slot]))
            elif slot not in _BASE_SLOTS:
                raise TypeError(f"clone_module does not know how to copy "
                                f"{cls.__name__}.{slot}")
    plan = _CLONE_PLANS[cls] = (cls not in _UNNAMED, tuple(plain), tuple(references))
    return plan


def clone_module(module: Module) -> Module:
    """Deep-copy a module (globals, functions, bodies).

    The clone shares no mutable state with the original: globals get fresh
    initializer lists, functions fresh attribute sets and metadata dicts,
    instructions a fresh metadata dict when the source has a non-empty one
    (``None`` otherwise), and direct calls are retargeted to the cloned
    functions. Only the immutable leaves — constants and types — are
    shared.

    Two walks per function and no constructor: the first allocates every
    block and instruction shell (so forward references resolve), the
    second fills operands, use lists and block/function references
    through the value map.
    """
    new = Module(module.source_name)
    new.metadata = dict(module.metadata)
    vmap: Dict = {}
    for gv in module.globals.values():
        init = gv.initializer
        if isinstance(init, list):
            init = list(init)
        g2 = GlobalVariable(gv.name, gv.value_type, init, gv.is_constant, gv.linkage)
        new.add_global(g2)
        vmap[gv] = g2
    # Create empty function shells first so calls can be remapped.
    for func in module.functions.values():
        f2 = Function(func.name, func.ftype, [a.name for a in func.args], func.linkage)
        f2.attributes = set(func.attributes)
        f2.metadata = dict(func.metadata)
        new.add_function(f2)
        vmap[func] = f2
        for a_old, a_new in zip(func.args, f2.args):
            vmap[a_old] = a_new
    allocate = object.__new__
    for func in module.functions.values():
        f2 = vmap[func]
        for bb in func.blocks:
            nb = BasicBlock(bb.name, f2)  # block names feed CycleReport labels
            f2.blocks.append(nb)
            vmap[bb] = nb
            shells = nb.instructions
            for inst in bb.instructions:
                cls = inst.__class__
                named, copied, _ = _CLONE_PLANS.get(cls) or _clone_plan(cls)
                ci = allocate(cls)
                ci.type = inst.type
                ci.name = inst.name + ".c" if named else inst.name
                ci._uses = []
                ci.opcode = inst.opcode
                ci.parent = nb
                md = inst._metadata
                ci._metadata = dict(md) if md else None
                for slot in copied:
                    setattr(ci, slot, getattr(inst, slot))
                shells.append(ci)
                vmap[inst] = ci
        for bb in func.blocks:
            for inst, ci in zip(bb.instructions, vmap[bb].instructions):
                operands = ci._operands = tuple([vmap.get(op, op) for op in inst._operands])
                for op in operands:
                    if not isinstance(op, Constant):  # constants keep no use list
                        op._uses.append(ci)
                for slot, retarget in _CLONE_PLANS[inst.__class__][2]:
                    setattr(ci, slot, retarget(getattr(inst, slot), vmap))
    return new
