"""-functionattrs: infer readnone/readonly/norecurse attributes.

Processes strongly connected components of the call graph bottom-up so
mutual recursion converges. The inferred attributes feed the rest of the
toolchain: readnone calls become CSE-able/hoistable expressions and the
HLS scheduler stops serializing them against memory traffic — which is
how this pass changes cycle counts despite transforming no code itself.

Accesses to function-local, non-escaping allocas do not count as memory
effects (they are invisible to callers), matching LLVM's reasoning.

Table 1 lists -functionattrs twice (indices 19 and 40); both registry
slots construct this pass.
"""

from __future__ import annotations

from ..analysis.alias import underlying_object, _escapes
from ..analysis.callgraph import CallGraph
from ..ir.instructions import AllocaInst, CallInst, InvokeInst, LoadInst, StoreInst
from ..ir.module import Module
from .base import Pass, register_pass

__all__ = ["FunctionAttrs"]


def _local_access(pointer) -> bool:
    base = underlying_object(pointer)
    return isinstance(base, AllocaInst) and not _escapes(base)


@register_pass
class FunctionAttrs(Pass):
    name = "-functionattrs"

    def run(self, module: Module) -> bool:
        cg = CallGraph(module)
        changed = False
        # Bottom-up: condensation topological order reversed.
        for members in reversed(cg.topological_sccs()):
            defined = [f for f in members if not f.is_declaration]
            if not defined:
                continue
            reads = False
            writes = False
            for func in defined:
                for inst in func.instructions():
                    if isinstance(inst, LoadInst):
                        if inst.is_volatile or not _local_access(inst.pointer):
                            reads = True
                    elif isinstance(inst, StoreInst):
                        if inst.is_volatile or not _local_access(inst.pointer):
                            writes = True
                    elif isinstance(inst, (CallInst, InvokeInst)):
                        callee = inst.callee
                        if not isinstance(callee, str) and callee in members:
                            continue  # intra-SCC effects counted directly
                        attrs = inst.callee_attributes()
                        if "readnone" in attrs:
                            continue
                        if "readonly" in attrs:
                            reads = True
                        else:
                            reads = writes = True
            for func in defined:
                before = set(func.attributes)
                func.attributes.discard("readnone")
                func.attributes.discard("readonly")
                if not reads and not writes:
                    func.attributes.add("readnone")
                elif not writes:
                    func.attributes.add("readonly")
                if len(members) == 1 and not cg.is_self_recursive(func):
                    func.attributes.add("norecurse")
                changed |= func.attributes != before
        return changed
