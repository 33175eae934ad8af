"""-ipsccp: interprocedural sparse conditional constant propagation.

Extends the :class:`repro.passes.sccp.SCCPSolver` across call edges:

* an internal function whose every call site passes the same constant
  for an argument is solved with that argument seeded constant;
* a function proven to always return one constant has its call results
  replaced by it.

Iterated to a (small) fixed point so constants discovered in callers
flow onward into callees and back.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis.callgraph import CallGraph
from ..ir import types as ty
from ..ir.instructions import CallInst, ReturnInst
from ..ir.module import Function, Module
from ..ir.values import Argument, ConstantFloat, ConstantInt, Value
from .base import Pass, register_pass
from .sccp import SCCPSolver, apply_solution, LatticeValue
from .utils import delete_dead_instructions

__all__ = ["IPSCCP"]


def _call_site_constants(cg: CallGraph, func: Function) -> Optional[Dict[Argument, LatticeValue]]:
    sites = [s for s in cg.call_sites(func) if isinstance(s, CallInst) and s.parent is not None]
    if not sites:
        return None
    seeds: Dict[Argument, LatticeValue] = {}
    for i, arg in enumerate(func.args):
        values = set()
        for site in sites:
            if i >= len(site.args):
                return None
            actual = site.args[i]
            if isinstance(actual, ConstantInt):
                values.add(("i", actual.value))
            elif isinstance(actual, ConstantFloat):
                values.add(("f", actual.value))
            else:
                values.add(("x", id(actual)))
        if len(values) == 1:
            kind, v = next(iter(values))
            if kind in ("i", "f"):
                seeds[arg] = v
    return seeds or None


def _constant_return(func: Function) -> Optional[Value]:
    result = None
    for bb in func.blocks:
        term = bb.terminator
        if isinstance(term, ReturnInst):
            rv = term.return_value
            if not isinstance(rv, (ConstantInt, ConstantFloat)):
                return None
            key = (type(rv), rv.value)
            if result is None:
                result = (key, rv)
            elif result[0] != key:
                return None
    return result[1] if result else None


@register_pass
class IPSCCP(Pass):
    name = "-ipsccp"

    def run(self, module: Module) -> bool:
        changed = False
        for _ in range(3):
            round_changed = False
            cg = CallGraph(module)
            for func in module.defined_functions():
                seeds = None
                if func.linkage == "internal" and func.name != "main":
                    seeds = _call_site_constants(cg, func)
                solver = SCCPSolver(func, seed_args=seeds)
                solver.solve()
                if apply_solution(func, solver):
                    delete_dead_instructions(func)
                    round_changed = True
            # Constant returns propagate to callers.
            for func in module.defined_functions():
                if func.name == "main":
                    continue
                const = _constant_return(func)
                if const is None:
                    continue
                for site in cg.call_sites(func):
                    if isinstance(site, CallInst) and site.parent is not None and site.is_used:
                        fresh = (
                            ConstantInt(const.type, const.value)  # type: ignore[arg-type]
                            if isinstance(const, ConstantInt)
                            else ConstantFloat(ty.f64, const.value)  # type: ignore[union-attr]
                        )
                        site.replace_all_uses_with(fresh)
                        round_changed = True
            changed |= round_changed
            if not round_changed:
                break
        return changed
