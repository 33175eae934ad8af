"""Containers: basic blocks, functions, and modules."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set

from . import types as ty
from .instructions import Instruction, PhiNode
from .values import Argument, GlobalVariable, Value, fresh_name

__all__ = ["BasicBlock", "Function", "Module"]


class BasicBlock(Value):
    """A straight-line sequence of instructions ending in one terminator."""

    __slots__ = ("parent", "instructions")

    def __init__(self, name: str = "", parent: Optional["Function"] = None) -> None:
        super().__init__(ty.label, name or fresh_name("bb"))
        self.parent = parent
        self.instructions: List[Instruction] = []

    # -- structure ----------------------------------------------------------
    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def append(self, inst: Instruction) -> Instruction:
        inst.move_to_end(self)
        return inst

    def insert_at_front(self, inst: Instruction) -> Instruction:
        inst.remove_from_parent()
        self.instructions.insert(0, inst)
        inst.parent = self
        return inst

    def insert_before_terminator(self, inst: Instruction) -> Instruction:
        term = self.terminator
        if term is None:
            return self.append(inst)
        inst.insert_before(term)
        return inst

    def phis(self) -> List[PhiNode]:
        result = []
        for inst in self.instructions:
            if isinstance(inst, PhiNode):
                result.append(inst)
            else:
                break
        return result

    def first_non_phi(self) -> Optional[Instruction]:
        for inst in self.instructions:
            if not isinstance(inst, PhiNode):
                return inst
        return None

    # -- CFG ------------------------------------------------------------------
    def successors(self) -> List["BasicBlock"]:
        # only terminators have successors, so the last instruction answers
        return self.instructions[-1].successors() if self.instructions else []

    def predecessors(self) -> List["BasicBlock"]:
        """Predecessors in function order (computed fresh; blocks mutate)."""
        assert self.parent is not None, "detached block has no predecessors"
        return [bb for bb in self.parent.blocks if self in bb.successors()]

    def remove_from_parent(self) -> None:
        if self.parent is not None:
            self.parent.blocks.remove(self)
            self.parent = None

    def drop_all_instructions(self) -> None:
        """Delete every instruction, releasing their operand uses."""
        for inst in self.instructions:
            inst.drop_all_references()
            inst.parent = None
        self.instructions = []

    def __iter__(self) -> Iterator[Instruction]:
        return iter(list(self.instructions))

    def __len__(self) -> int:
        return len(self.instructions)

    def __str__(self) -> str:
        return self.name


class Function(Value):
    """A function: ordered blocks, arguments, and LLVM-style attributes.

    ``attributes`` is a mutable set of strings; the ones with semantic
    meaning to the toolchain are ``readonly``/``readnone`` (used by CSE,
    LICM and the scheduler), ``noinline``/``alwaysinline`` (inliner), and
    ``norecurse`` (tail-call elimination). ``metadata`` carries debug-info
    style annotations that ``-strip`` and ``-strip-nondebug`` remove.
    """

    __slots__ = ("ftype", "args", "blocks", "attributes", "linkage", "parent", "metadata")

    def __init__(self, name: str, ftype: ty.FunctionType, arg_names: Optional[Sequence[str]] = None,
                 linkage: str = "internal") -> None:
        super().__init__(ftype, name)
        self.ftype = ftype
        names = list(arg_names or [])
        while len(names) < len(ftype.param_types):
            names.append(f"arg{len(names)}")
        self.args: List[Argument] = [
            Argument(pt, names[i], self, i) for i, pt in enumerate(ftype.param_types)
        ]
        self.blocks: List[BasicBlock] = []
        self.attributes: Set[str] = set()
        self.linkage = linkage
        self.parent: Optional["Module"] = None
        self.metadata: Dict[str, object] = {}

    @property
    def return_type(self) -> ty.Type:
        return self.ftype.return_type

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def entry(self) -> BasicBlock:
        assert self.blocks, f"function {self.name} has no body"
        return self.blocks[0]

    def add_block(self, name: str = "", after: Optional[BasicBlock] = None) -> BasicBlock:
        bb = BasicBlock(name, self)
        if after is None:
            self.blocks.append(bb)
        else:
            self.blocks.insert(self.blocks.index(after) + 1, bb)
        return bb

    def instructions(self) -> Iterator[Instruction]:
        for bb in self.blocks:
            yield from list(bb.instructions)

    def remove_block(self, bb: BasicBlock) -> None:
        """Delete ``bb`` entirely: detach phi edges in successors, drop body."""
        for succ in bb.successors():
            for phi in succ.phis():
                if bb in phi.incoming_blocks:
                    phi.remove_incoming(bb)
        bb.drop_all_instructions()
        bb.remove_from_parent()

    def __str__(self) -> str:
        return f"@{self.name}"

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(list(self.blocks))


class Module(Value):
    """A translation unit: functions + global variables + module metadata.

    ``version`` is a monotonically increasing mutation counter bumped by
    the PassManager after every pass run; module-keyed memos (e.g. the
    profiler's burst-slot cache) use ``(module, version)`` as their key so
    they invalidate automatically when a transform touches the module.
    """

    __slots__ = ("functions", "globals", "metadata", "source_name", "version",
                 "__weakref__")

    def __init__(self, name: str = "module") -> None:
        super().__init__(ty.void, name)
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        self.metadata: Dict[str, object] = {}
        self.source_name = name
        self.version = 0

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise KeyError(f"duplicate function name: {func.name}")
        self.functions[func.name] = func
        func.parent = self
        return func

    def remove_function(self, func: Function) -> None:
        del self.functions[func.name]
        func.parent = None

    def get_function(self, name: str) -> Optional[Function]:
        return self.functions.get(name)

    def add_global(self, gv: GlobalVariable) -> GlobalVariable:
        if gv.name in self.globals:
            raise KeyError(f"duplicate global name: {gv.name}")
        self.globals[gv.name] = gv
        return gv

    def remove_global(self, gv: GlobalVariable) -> None:
        del self.globals[gv.name]

    def defined_functions(self) -> List[Function]:
        return [f for f in self.functions.values() if not f.is_declaration]

    def instructions(self) -> Iterator[Instruction]:
        for func in list(self.functions.values()):
            yield from func.instructions()

    def instruction_count(self) -> int:
        return sum(1 for _ in self.instructions())

    def __str__(self) -> str:
        from .printer import module_to_str

        return module_to_str(self)
