"""-deadargelim: remove dead arguments (and ignored return values) of
internal functions.

Signature changes rebuild the Function object (types are interned and
immutable), splice the old body across, and rewrite every call site.
The paper's §4.1 notes this pass's correlation with occurrences of
constant zero — dead constant-zero arguments being a common CSmith
artifact; the same shows up with our random generator.
"""

from __future__ import annotations

from typing import List

from ..analysis.callgraph import CallGraph
from ..ir import types as ty
from ..ir.instructions import CallInst, ReturnInst
from ..ir.module import Function, Module
from .base import Pass, register_pass

__all__ = ["DeadArgElim"]


@register_pass
class DeadArgElim(Pass):
    name = "-deadargelim"

    def run(self, module: Module) -> bool:
        changed = False
        cg = CallGraph(module)
        for func in list(module.defined_functions()):
            if func.linkage != "internal" or func.name == "main":
                continue
            sites = [s for s in cg.call_sites(func) if isinstance(s, CallInst)]
            # All call sites must be plain calls we can rewrite.
            if len(sites) != len(cg.call_sites(func)):
                continue
            dead = [i for i, arg in enumerate(func.args) if not arg.is_used]
            drop_return = (
                not func.return_type.is_void
                and sites != []
                and all(not s.is_used for s in sites)
            )
            if not dead and not drop_return:
                continue
            self._rewrite(module, func, sites, dead, drop_return)
            changed = True
        return changed

    @staticmethod
    def _rewrite(module: Module, func: Function, sites: List[CallInst],
                 dead: List[int], drop_return: bool) -> None:
        keep = [i for i in range(len(func.args)) if i not in dead]
        new_ret = ty.void if drop_return else func.return_type
        new_ftype = ty.function_type(new_ret, [func.ftype.param_types[i] for i in keep])

        module.remove_function(func)
        new_func = Function(func.name, new_ftype,
                            [func.args[i].name for i in keep], func.linkage)
        new_func.attributes = set(func.attributes)
        new_func.metadata = dict(func.metadata)
        module.add_function(new_func)

        # Move the body across and remap arguments.
        new_func.blocks = func.blocks
        for bb in new_func.blocks:
            bb.parent = new_func
        for new_arg, old_index in zip(new_func.args, keep):
            func.args[old_index].replace_all_uses_with(new_arg)
        for i in dead:
            # Dead: no uses by definition; nothing to remap.
            assert not func.args[i].is_used

        if drop_return:
            for bb in new_func.blocks:
                term = bb.terminator
                if isinstance(term, ReturnInst) and term.return_value is not None:
                    bb.instructions.remove(term)
                    term.parent = None
                    term.drop_all_references()
                    bb.append(ReturnInst(None))

        # Rewrite call sites.
        for site in sites:
            if site.parent is None:
                continue
            new_call = CallInst(new_func, [site.args[i] for i in keep], new_ret, site.name + ".dae")
            new_call.insert_before(site)
            if not site.type.is_void:
                if site.is_used:
                    assert not drop_return
                    site.replace_all_uses_with(new_call)
            site.erase_from_parent()

        # Recursive self-calls inside the moved body still referencing the
        # old Function object: retarget them.
        for inst in new_func.instructions():
            if isinstance(inst, CallInst) and inst.callee is func:
                inst.callee = new_func
