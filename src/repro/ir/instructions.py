"""Instruction set of the repro IR.

The opcode vocabulary is the subset of LLVM that the AutoPhase feature
table (Table 2) and pass list (Table 1) are defined over: integer/float
arithmetic, comparisons, select, stack allocation, loads/stores, GEP
address arithmetic, calls/invokes, casts, phis, and the usual block
terminators.

Design notes
------------
* Operand def-use chains are maintained eagerly: constructing an
  instruction registers uses, ``erase_from_parent`` deregisters them, and
  ``Value.replace_all_uses_with`` rewrites them in place.
* Successor blocks (branch/switch/invoke targets, phi incoming blocks) are
  *not* operands — they are tracked through a parallel block-reference API
  (:meth:`Instruction.successors`, :meth:`Instruction.replace_successor`)
  the CFG utilities build on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from . import types as ty
from .values import ConstantFloat, ConstantInt, Value

if TYPE_CHECKING:  # pragma: no cover
    from .module import BasicBlock, Function

__all__ = [
    "Instruction",
    "BinaryOperator",
    "FNegInst",
    "ICmpInst",
    "FCmpInst",
    "SelectInst",
    "AllocaInst",
    "LoadInst",
    "StoreInst",
    "GEPInst",
    "CallBase",
    "CallInst",
    "CastInst",
    "PhiNode",
    "ReturnInst",
    "BranchInst",
    "SwitchInst",
    "InvokeInst",
    "UnreachableInst",
    "INT_BINOPS",
    "FLOAT_BINOPS",
    "ICMP_PREDICATES",
    "CAST_OPS",
    "COMMUTATIVE_OPS",
]

INT_BINOPS = (
    "add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
    "and", "or", "xor", "shl", "lshr", "ashr",
)
FLOAT_BINOPS = ("fadd", "fsub", "fmul", "fdiv")
COMMUTATIVE_OPS = frozenset({"add", "mul", "and", "or", "xor", "fadd", "fmul"})
ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")
FCMP_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge")
CAST_OPS = ("trunc", "zext", "sext", "bitcast", "sitofp", "fptosi")


class Instruction(Value):
    """Base class: a typed value produced by an operation inside a block."""

    __slots__ = ("opcode", "_operands", "parent", "_metadata")

    def __init__(self, opcode: str, type_: ty.Type, operands: Sequence[Value], name: str = "") -> None:
        super().__init__(type_, name)
        self.opcode = opcode
        self.parent: Optional["BasicBlock"] = None
        self._metadata: Optional[Dict[str, object]] = None
        self._operands: Tuple[Value, ...] = tuple(operands)
        for op in self._operands:
            if not isinstance(op, Value):
                raise TypeError(f"operand must be a Value, got {op!r}")
            op._add_use(self)

    # -- metadata --------------------------------------------------------------
    @property
    def metadata(self) -> Dict[str, object]:
        """Named annotations (``dbg``, ``atomic``, ...), created on first
        access. Nearly every instruction has none, so ``_metadata`` stays
        ``None`` until then; code that only reads tests ``_metadata``."""
        md = self._metadata
        if md is None:
            md = self._metadata = {}
        return md

    # -- operand management ------------------------------------------------
    def _append_operand(self, value: Value) -> None:
        if not isinstance(value, Value):
            raise TypeError(f"operand must be a Value, got {value!r}")
        self._operands += (value,)
        value._add_use(self)

    @property
    def operands(self) -> Tuple[Value, ...]:
        return self._operands

    def set_operand(self, index: int, value: Value) -> None:
        operands = self._operands
        old = operands[index]
        if old is value:
            return
        old._remove_use(self)
        rebuilt = list(operands)  # also right for a negative index
        rebuilt[index] = value
        self._operands = tuple(rebuilt)
        value._add_use(self)

    def _replace_operand_value(self, old: Value, new: Value) -> None:
        """Called by ``Value.replace_all_uses_with``."""
        for i, op in enumerate(self._operands):
            if op is old:
                self.set_operand(i, new)

    def drop_all_references(self) -> None:
        """Release all operand uses (used when deleting whole regions)."""
        for op in self._operands:
            op._remove_use(self)
        self._operands = ()

    # -- block placement -----------------------------------------------------
    def erase_from_parent(self) -> None:
        """Unlink from the parent block and release operand uses.

        The value must be unused; replace uses first (RAUW) or this raises,
        which catches pass bugs early.
        """
        if self.is_used:
            users = ", ".join(u.opcode for u in self.users())
            raise RuntimeError(f"erasing {self.name} ({self.opcode}) which is still used by: {users}")
        self.remove_from_parent()
        self.drop_all_references()

    def remove_from_parent(self) -> None:
        if self.parent is not None:
            self.parent.instructions.remove(self)
            self.parent = None

    def insert_before(self, other: "Instruction") -> None:
        block = other.parent
        assert block is not None
        self.remove_from_parent()
        block.instructions.insert(block.instructions.index(other), self)
        self.parent = block

    def insert_after(self, other: "Instruction") -> None:
        block = other.parent
        assert block is not None
        self.remove_from_parent()
        block.instructions.insert(block.instructions.index(other) + 1, self)
        self.parent = block

    def move_to_end(self, block: "BasicBlock") -> None:
        self.remove_from_parent()
        block.instructions.append(self)
        self.parent = block

    # -- classification -----------------------------------------------------
    # Overridden to True by the five terminator classes; a plain class
    # attribute because every CFG query (``bb.terminator``) reads it.
    is_terminator = False

    @property
    def is_memory_op(self) -> bool:
        return isinstance(self, (LoadInst, StoreInst, AllocaInst))

    @property
    def is_unary_op(self) -> bool:
        return isinstance(self, (CastInst, FNegInst))

    def may_have_side_effects(self) -> bool:
        """Conservative: may write memory, transfer control, or trap."""
        if isinstance(self, (StoreInst, ReturnInst, BranchInst, SwitchInst, UnreachableInst, InvokeInst)):
            return True
        if isinstance(self, CallInst):
            return not self.is_pure()
        return False

    def may_read_memory(self) -> bool:
        if isinstance(self, LoadInst):
            return True
        if isinstance(self, CallBase):
            return not self.is_readnone()
        return False

    def may_write_memory(self) -> bool:
        if isinstance(self, StoreInst):
            return True
        if isinstance(self, CallBase):
            return not self.is_readonly()
        return False

    # -- CFG edges ------------------------------------------------------------
    def successors(self) -> List["BasicBlock"]:
        return []

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        raise TypeError(f"{self.opcode} has no successors")

    def __str__(self) -> str:
        from .printer import instruction_to_str

        return instruction_to_str(self)


class BinaryOperator(Instruction):
    """Integer or floating binary arithmetic/logic (LLVM ``BinaryOperator``)."""

    __slots__ = ()

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if opcode not in INT_BINOPS and opcode not in FLOAT_BINOPS:
            raise ValueError(f"unknown binary opcode: {opcode}")
        super().__init__(opcode, lhs.type, (lhs, rhs), name)

    @property
    def lhs(self) -> Value:
        return self._operands[0]

    @property
    def rhs(self) -> Value:
        return self._operands[1]

    @property
    def is_commutative(self) -> bool:
        return self.opcode in COMMUTATIVE_OPS

    def has_constant_operand(self) -> bool:
        return isinstance(self.lhs, (ConstantInt, ConstantFloat)) or isinstance(
            self.rhs, (ConstantInt, ConstantFloat)
        )


class FNegInst(Instruction):
    """Floating-point negation — the IR's only true unary arithmetic op."""

    __slots__ = ()

    def __init__(self, operand: Value, name: str = "") -> None:
        super().__init__("fneg", operand.type, (operand,), name)

    @property
    def operand(self) -> Value:
        return self._operands[0]


class ICmpInst(Instruction):
    __slots__ = ("predicate",)

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate: {predicate}")
        super().__init__("icmp", ty.i1, (lhs, rhs), name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self._operands[0]

    @property
    def rhs(self) -> Value:
        return self._operands[1]

    SWAPPED = {
        "eq": "eq", "ne": "ne",
        "slt": "sgt", "sgt": "slt", "sle": "sge", "sge": "sle",
        "ult": "ugt", "ugt": "ult", "ule": "uge", "uge": "ule",
    }
    INVERSE = {
        "eq": "ne", "ne": "eq",
        "slt": "sge", "sge": "slt", "sle": "sgt", "sgt": "sle",
        "ult": "uge", "uge": "ult", "ule": "ugt", "ugt": "ule",
    }


class FCmpInst(Instruction):
    __slots__ = ("predicate",)

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if predicate not in FCMP_PREDICATES:
            raise ValueError(f"unknown fcmp predicate: {predicate}")
        super().__init__("fcmp", ty.i1, (lhs, rhs), name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self._operands[0]

    @property
    def rhs(self) -> Value:
        return self._operands[1]


class SelectInst(Instruction):
    __slots__ = ()

    def __init__(self, cond: Value, true_value: Value, false_value: Value, name: str = "") -> None:
        super().__init__("select", true_value.type, (cond, true_value, false_value), name)

    @property
    def condition(self) -> Value:
        return self._operands[0]

    @property
    def true_value(self) -> Value:
        return self._operands[1]

    @property
    def false_value(self) -> Value:
        return self._operands[2]


class AllocaInst(Instruction):
    """Stack allocation; produces a pointer to ``allocated_type``."""

    __slots__ = ("allocated_type",)

    def __init__(self, allocated_type: ty.Type, name: str = "") -> None:
        super().__init__("alloca", ty.pointer_type(allocated_type), (), name)
        self.allocated_type = allocated_type


class LoadInst(Instruction):
    __slots__ = ("is_volatile",)

    def __init__(self, pointer: Value, name: str = "", volatile: bool = False) -> None:
        ptr_ty = pointer.type
        if not ptr_ty.is_pointer:
            raise TypeError(f"load requires a pointer operand, got {ptr_ty}")
        super().__init__("load", ptr_ty.pointee, (pointer,), name)
        self.is_volatile = volatile

    @property
    def pointer(self) -> Value:
        return self._operands[0]


class StoreInst(Instruction):
    __slots__ = ("is_volatile",)

    def __init__(self, value: Value, pointer: Value, volatile: bool = False) -> None:
        if not pointer.type.is_pointer:
            raise TypeError(f"store requires a pointer operand, got {pointer.type}")
        super().__init__("store", ty.void, (value, pointer))
        self.is_volatile = volatile

    @property
    def value(self) -> Value:
        return self._operands[0]

    @property
    def pointer(self) -> Value:
        return self._operands[1]


class GEPInst(Instruction):
    """``getelementptr`` — pointer arithmetic over array types.

    Follows LLVM semantics: the first index steps over whole pointee-sized
    objects; each further index descends into an array dimension. All sizes
    are in abstract slots (see :mod:`repro.ir.types`).
    """

    __slots__ = ()

    def __init__(self, pointer: Value, indices: Sequence[Value], name: str = "") -> None:
        if not pointer.type.is_pointer:
            raise TypeError(f"gep requires a pointer operand, got {pointer.type}")
        result = pointer.type.pointee
        for idx in list(indices)[1:]:
            if not result.is_array:
                raise TypeError(f"gep index descends into non-array type {result}")
            result = result.element
        super().__init__("gep", ty.pointer_type(result), (pointer,) + tuple(indices), name)

    @property
    def pointer(self) -> Value:
        return self._operands[0]

    @property
    def indices(self) -> Tuple[Value, ...]:
        return self._operands[1:]

    def element_strides(self) -> List[int]:
        """Slot stride contributed by each index (parallel to ``indices``)."""
        strides: List[int] = []
        current = self.pointer.type.pointee
        strides.append(current.size_slots)
        for _ in self.indices[1:]:
            assert current.is_array
            current = current.element
            strides.append(current.size_slots)
        return strides


class CallBase(Instruction):
    """What a direct call and an invoke share: the callee, its arguments
    and the memory-effect queries CSE/GVN/LICM and the scheduler ask of
    either. ``callee`` is a Function or an external symbol name.

    External callees (``str``) model intrinsics and libm routines; their
    behaviour lives in :mod:`repro.interp.externals` and their timing in
    :mod:`repro.hls.delays`.
    """

    __slots__ = ("callee",)

    @property
    def args(self) -> Tuple[Value, ...]:
        return self.operands

    @property
    def callee_name(self) -> str:
        return self.callee if isinstance(self.callee, str) else self.callee.name

    @property
    def is_external(self) -> bool:
        return isinstance(self.callee, str)

    def callee_attributes(self) -> frozenset:
        from .module import Function

        if isinstance(self.callee, Function):
            return frozenset(self.callee.attributes)
        from ..interp.externals import EXTERNAL_ATTRIBUTES

        return EXTERNAL_ATTRIBUTES.get(self.callee, frozenset())

    def is_readnone(self) -> bool:
        return "readnone" in self.callee_attributes()

    def is_readonly(self) -> bool:
        attrs = self.callee_attributes()
        return "readonly" in attrs or "readnone" in attrs

    def is_pure(self) -> bool:
        """No memory writes and no observable side effects."""
        return self.is_readonly()


class CallInst(CallBase):
    """A direct call."""

    __slots__ = ("tail",)

    def __init__(self, callee, args: Sequence[Value], return_type: ty.Type, name: str = "") -> None:
        super().__init__("call", return_type, tuple(args), name)
        self.callee = callee
        self.tail = False


class CastInst(Instruction):
    __slots__ = ()

    def __init__(self, opcode: str, operand: Value, dest_type: ty.Type, name: str = "") -> None:
        if opcode not in CAST_OPS:
            raise ValueError(f"unknown cast opcode: {opcode}")
        super().__init__(opcode, dest_type, (operand,), name)

    @property
    def operand(self) -> Value:
        return self._operands[0]


class PhiNode(Instruction):
    """SSA phi. Incoming blocks are kept in a list parallel to operands."""

    __slots__ = ("incoming_blocks",)

    def __init__(self, type_: ty.Type, name: str = "") -> None:
        super().__init__("phi", type_, (), name)
        self.incoming_blocks: List["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        self._append_operand(value)
        self.incoming_blocks.append(block)

    @property
    def incoming(self) -> List[Tuple[Value, "BasicBlock"]]:
        return list(zip(self._operands, self.incoming_blocks))

    def incoming_value_for(self, block: "BasicBlock") -> Value:
        for value, pred in self.incoming:
            if pred is block:
                return value
        raise KeyError(f"phi {self.name} has no incoming edge from {block.name}")

    def set_incoming_value_for(self, block: "BasicBlock", value: Value) -> None:
        for i, pred in enumerate(self.incoming_blocks):
            if pred is block:
                self.set_operand(i, value)
                return
        raise KeyError(f"phi {self.name} has no incoming edge from {block.name}")

    def remove_incoming(self, block: "BasicBlock") -> None:
        for i, pred in enumerate(self.incoming_blocks):
            if pred is block:
                operands = self._operands
                operands[i]._remove_use(self)
                self._operands = operands[:i] + operands[i + 1:]
                del self.incoming_blocks[i]
                return
        raise KeyError(f"phi {self.name} has no incoming edge from {block.name}")

    def replace_incoming_block(self, old: "BasicBlock", new: "BasicBlock") -> None:
        for i, pred in enumerate(self.incoming_blocks):
            if pred is old:
                self.incoming_blocks[i] = new


class ReturnInst(Instruction):
    __slots__ = ()
    is_terminator = True

    def __init__(self, value: Optional[Value] = None) -> None:
        ops = (value,) if value is not None else ()
        super().__init__("ret", ty.void, ops)

    @property
    def return_value(self) -> Optional[Value]:
        return self._operands[0] if self._operands else None


class BranchInst(Instruction):
    """Conditional or unconditional branch."""

    __slots__ = ("_targets",)
    is_terminator = True

    def __init__(self, *args) -> None:
        if len(args) == 1:
            (target,) = args
            super().__init__("br", ty.void, ())
            self._targets: List["BasicBlock"] = [target]
        elif len(args) == 3:
            cond, if_true, if_false = args
            super().__init__("br", ty.void, (cond,))
            self._targets = [if_true, if_false]
        else:
            raise TypeError("BranchInst takes (target) or (cond, if_true, if_false)")

    @property
    def is_conditional(self) -> bool:
        return bool(self._operands)

    @property
    def condition(self) -> Value:
        assert self.is_conditional
        return self._operands[0]

    @property
    def true_target(self) -> "BasicBlock":
        return self._targets[0]

    @property
    def false_target(self) -> "BasicBlock":
        assert self.is_conditional
        return self._targets[1]

    def successors(self) -> List["BasicBlock"]:
        return list(self._targets)

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        self._targets = [new if t is old else t for t in self._targets]

    def make_unconditional(self, target: "BasicBlock") -> None:
        """Collapse to ``br target`` (used when the condition is constant)."""
        if self._operands:
            self._operands[0]._remove_use(self)
            self._operands = ()
        self._targets = [target]


class SwitchInst(Instruction):
    __slots__ = ("default", "cases")
    is_terminator = True

    def __init__(self, value: Value, default: "BasicBlock", cases: Optional[List[Tuple[ConstantInt, "BasicBlock"]]] = None) -> None:
        super().__init__("switch", ty.void, (value,))
        self.default = default
        self.cases: List[Tuple[ConstantInt, "BasicBlock"]] = list(cases or [])

    @property
    def condition(self) -> Value:
        return self._operands[0]

    def add_case(self, value: ConstantInt, block: "BasicBlock") -> None:
        self.cases.append((value, block))

    def successors(self) -> List["BasicBlock"]:
        return [self.default] + [bb for _, bb in self.cases]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.default is old:
            self.default = new
        self.cases = [(c, new if bb is old else bb) for c, bb in self.cases]


class InvokeInst(CallBase):
    """A call that may unwind: terminator with normal and unwind targets.

    The random generator emits these rarely; ``-lowerinvoke`` rewrites them
    into plain calls + branches, exactly as LLVM's lowering does.
    """

    __slots__ = ("normal_dest", "unwind_dest")
    is_terminator = True

    def __init__(self, callee, args: Sequence[Value], return_type: ty.Type,
                 normal_dest: "BasicBlock", unwind_dest: "BasicBlock", name: str = "") -> None:
        super().__init__("invoke", return_type, tuple(args), name)
        self.callee = callee
        self.normal_dest = normal_dest
        self.unwind_dest = unwind_dest

    def successors(self) -> List["BasicBlock"]:
        return [self.normal_dest, self.unwind_dest]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.normal_dest is old:
            self.normal_dest = new
        if self.unwind_dest is old:
            self.unwind_dest = new


class UnreachableInst(Instruction):
    __slots__ = ()
    is_terminator = True

    def __init__(self) -> None:
        super().__init__("unreachable", ty.void, ())
