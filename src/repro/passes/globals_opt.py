"""Global-variable passes: -globaldce, -globalopt, -constmerge.

* ``-globaldce`` removes internal functions and globals unreachable from
  the externally visible roots (``main`` and anything non-internal).
* ``-globalopt`` folds loads of never-written scalar globals to their
  initializers and marks never-written aggregate globals ``constant``
  (the HLS backend then maps them to ROMs).
* ``-constmerge`` unifies identical constant globals, shrinking BRAM.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ..analysis.callgraph import CallGraph
from ..ir import types as ty
from ..ir.instructions import CallInst, GEPInst, InvokeInst, LoadInst, StoreInst
from ..ir.module import Module
from ..ir.values import ConstantFloat, ConstantInt, GlobalVariable, Value
from .base import Pass, register_pass
from .utils import replace_and_erase

__all__ = ["GlobalDCE", "GlobalOpt", "ConstMerge"]


@register_pass
class GlobalDCE(Pass):
    name = "-globaldce"

    def run(self, module: Module) -> bool:
        roots = [
            f for f in module.functions.values()
            if f.linkage != "internal" or f.name == "main"
        ]
        cg = CallGraph(module)
        live_functions = cg.reachable_from(roots)

        live_globals: Set[GlobalVariable] = set()
        for func in live_functions:
            for inst in func.instructions():
                for op in inst.operands:
                    if isinstance(op, GlobalVariable):
                        live_globals.add(op)
        for gv in module.globals.values():
            if gv.linkage != "internal":
                live_globals.add(gv)

        changed = False
        for func in list(module.functions.values()):
            if func not in live_functions:
                for bb in list(func.blocks):
                    bb.drop_all_instructions()
                func.blocks = []
                module.remove_function(func)
                changed = True
        for gv in list(module.globals.values()):
            if gv not in live_globals:
                module.remove_global(gv)
                changed = True
        return changed


def _global_is_written(module: Module, gv: GlobalVariable) -> bool:
    for user in gv.users():
        if isinstance(user, StoreInst) and user.pointer is gv:
            return True
        if isinstance(user, StoreInst) and user.value is gv:
            return True  # address escapes into memory
        if isinstance(user, GEPInst):
            # Conservative: any use of the derived pointer other than a
            # plain load (stores, nested GEPs, calls) counts as a write.
            if any(not isinstance(inner, LoadInst) for inner in user.users()):
                return True
        elif isinstance(user, (CallInst, InvokeInst)):
            return True  # address passed to a callee
        elif not isinstance(user, LoadInst):
            return True
    return False


@register_pass
class GlobalOpt(Pass):
    name = "-globalopt"

    def run(self, module: Module) -> bool:
        changed = False
        for gv in list(module.globals.values()):
            if gv.linkage != "internal":
                continue
            if _global_is_written(module, gv):
                continue
            if gv.value_type.is_scalar:
                init = gv.flat_initializer()[0]
                const: Value
                if gv.value_type.is_float:
                    const = ConstantFloat(ty.f64, float(init))
                elif isinstance(gv.value_type, ty.IntType):
                    const = ConstantInt(gv.value_type, int(init))
                else:
                    continue
                for user in list(gv.users()):
                    if isinstance(user, LoadInst) and user.pointer is gv:
                        replace_and_erase(user, const)
                        changed = True
            elif not gv.is_constant:
                gv.is_constant = True  # ROM inference
                changed = True
        return changed


@register_pass
class ConstMerge(Pass):
    name = "-constmerge"

    def run(self, module: Module) -> bool:
        by_content: Dict[Tuple, GlobalVariable] = {}
        changed = False
        for gv in list(module.globals.values()):
            if not gv.is_constant or gv.linkage != "internal":
                continue
            key = (gv.value_type, tuple(gv.flat_initializer()))
            leader = by_content.get(key)
            if leader is None:
                by_content[key] = gv
                continue
            gv.replace_all_uses_with(leader)
            module.remove_global(gv)
            changed = True
        return changed
