"""Pass framework: Pass, FunctionPass, PassManager, and the registry.

Mirrors LLVM's legacy pass-manager surface at the granularity AutoPhase
drives it: passes are named (Table 1 spellings, with the leading dash),
indexed (the RL action space is the Table 1 index), and applied in
arbitrary user-chosen sequences.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Type, Union

from ..ir.module import Function, Module
from ..ir.verifier import verify_module

__all__ = ["Pass", "FunctionPass", "PassManager", "register_pass", "create_pass",
           "pass_names", "PASS_CONSTRUCTORS"]


class Pass:
    """A module transformation. Subclasses set ``name`` (Table 1 spelling)."""

    name: str = "<abstract>"

    def run(self, module: Module) -> bool:
        """Apply to ``module`` in place; return True if anything changed.

        The return value is a contract, not a hint: ``False`` promises
        the module is *exactly* as it was — instructions, operands and
        their order, blocks, function attributes and linkage, globals
        and their initializers, and module/function/instruction
        ``metadata`` (which the printer does not show). The evaluation
        engine keys results and features by the sequence with such
        passes dropped (``engine/trie.py``), so a pass that mutates and
        still says ``False`` becomes a stale cache hit. When unsure,
        return ``True``: that only costs a cache miss.
        ``tests/test_pass_changed_contract.py`` pins this for every
        registry pass."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Pass {self.name}>"


class FunctionPass(Pass):
    """A pass that works one function at a time."""

    def run(self, module: Module) -> bool:
        changed = False
        for func in module.defined_functions():
            changed |= self.run_on_function(func)
        return changed

    def run_on_function(self, func: Function) -> bool:
        raise NotImplementedError


PASS_CONSTRUCTORS: Dict[str, Callable[[], Pass]] = {}


def register_pass(cls: Type[Pass]) -> Type[Pass]:
    """Class decorator: make the pass constructible by name."""
    if cls.name in PASS_CONSTRUCTORS:
        raise ValueError(f"duplicate pass name {cls.name}")
    PASS_CONSTRUCTORS[cls.name] = cls
    return cls


def create_pass(name: str) -> Pass:
    ctor = PASS_CONSTRUCTORS.get(name)
    if ctor is None:
        raise KeyError(f"unknown pass {name!r}; known: {sorted(PASS_CONSTRUCTORS)}")
    return ctor()


def pass_names() -> List[str]:
    return sorted(PASS_CONSTRUCTORS)


class PassManager:
    """Runs sequences of passes, optionally verifying after each one."""

    def __init__(self, verify_each: bool = False) -> None:
        self.verify_each = verify_each
        self.applied: List[str] = []

    def run(self, module: Module, passes: Sequence[Union[str, Pass]]) -> bool:
        """Run ``passes`` in order; True if any of them changed ``module``
        (``False`` carries :meth:`Pass.run`'s promise for all of them)."""
        changed = False
        for item in passes:
            p = create_pass(item) if isinstance(item, str) else item
            changed |= bool(p.run(module))
            # Conservatively bump the mutation counter even for no-op runs:
            # module-keyed memos must never survive an untracked mutation.
            # This stays unconditional although the engine now trusts
            # ``changed`` (see Pass.run): the two fail in opposite
            # directions — a needless bump re-derives a memo, a wrongly
            # trusted ``False`` serves a stale result — and the version
            # guards in-place mutation by any caller, the trie only its own.
            module.version += 1
            self.applied.append(p.name)
            if self.verify_each:
                verify_module(module)
        return changed
