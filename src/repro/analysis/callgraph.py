"""Call graph construction — drives the inliner, -partial-inliner,
-globaldce, -deadargelim, -ipsccp and -functionattrs.

Plain adjacency dicts: a node per function (every function of
``module.functions`` in order, then callees the module does not declare,
in first-call order), an edge per call site. The programs have a handful
of functions, so a stdlib Tarjan walk answers the SCC queries (mutual
recursion for the inliners, the bottom-up fixpoint of -functionattrs).

Every order is part of the contract, because the inliner's bottom-up
order decides the IR it produces: successors and predecessors come in
first-call order, :meth:`CallGraph.sccs` enumerates components in the
order of a non-recursive Tarjan/Nuutila walk over the nodes, and the
condensation is sorted topologically by Kahn generations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.instructions import CallInst, InvokeInst
from ..ir.module import Function, Module

__all__ = ["CallGraph"]


class CallGraph:
    def __init__(self, module: Module) -> None:
        self.module = module
        # caller -> callee -> its call sites in program order. Callers are
        # walked one at a time, so the callers of a function come in
        # first-call order when read in this dict's order.
        self._succ: Dict[Function, Dict[Function, List[CallInst]]] = {
            func: {} for func in module.functions.values()}
        self._sccs: Optional[List[Set[Function]]] = None
        for func in module.defined_functions():
            for inst in func.instructions():
                if isinstance(inst, (CallInst, InvokeInst)) and not isinstance(inst.callee, str):
                    self._succ.setdefault(inst.callee, {})
                    self._succ[func].setdefault(inst.callee, []).append(inst)

    def callees(self, func: Function) -> List[Function]:
        return list(self._succ[func])

    def callers(self, func: Function) -> List[Function]:
        return [caller for caller, callees in self._succ.items() if func in callees]

    def call_sites(self, func: Function) -> List[CallInst]:
        """All call/invoke instructions in the module targeting ``func``."""
        return [site for callees in self._succ.values() for site in callees.get(func, ())]

    def is_recursive(self, func: Function) -> bool:
        """Directly or mutually recursive?"""
        if self.is_self_recursive(func):
            return True
        return any(func in scc and len(scc) > 1 for scc in self.sccs())

    def is_self_recursive(self, func: Function) -> bool:
        return func in self._succ.get(func, ())

    def sccs(self) -> List[Set[Function]]:
        """Strongly connected components, in the order Tarjan's walk
        (Nuutila's non-recursive form) completes them: callees before
        their callers."""
        if self._sccs is None:
            self._sccs = self._tarjan()
        return self._sccs

    def _tarjan(self) -> List[Set[Function]]:
        succ = self._succ
        preorder: Dict[Function, int] = {}
        lowlink: Dict[Function, int] = {}
        found: Set[Function] = set()
        pending: List[Function] = []
        components: List[Set[Function]] = []
        neighbors = {v: iter(succ[v]) for v in succ}
        for source in succ:
            if source in found:
                continue
            stack = [source]
            while stack:
                v = stack[-1]
                if v not in preorder:
                    preorder[v] = len(preorder) + 1
                descended = False
                for w in neighbors[v]:
                    if w not in preorder:
                        stack.append(w)
                        descended = True
                        break
                if descended:
                    continue
                low = preorder[v]
                for w in succ[v]:
                    if w not in found:
                        low = min(low, lowlink[w] if preorder[w] > preorder[v] else preorder[w])
                lowlink[v] = low
                stack.pop()
                if low == preorder[v]:
                    scc = {v}
                    while pending and preorder[pending[-1]] > preorder[v]:
                        scc.add(pending.pop())
                    found.update(scc)
                    components.append(scc)
                else:
                    pending.append(v)
        return components

    def topological_sccs(self) -> List[Set[Function]]:
        """The SCCs in topological order of the condensation, callers
        first: Kahn's generations over SCC indices, each generation's
        children in first-call order."""
        sccs = self.sccs()
        index = {func: i for i, scc in enumerate(sccs) for func in scc}
        children: List[Dict[int, None]] = [{} for _ in sccs]
        for caller, callees in self._succ.items():
            for callee in callees:
                if index[caller] != index[callee]:
                    children[index[caller]][index[callee]] = None
        indegree = [0] * len(sccs)
        for edges in children:
            for child in edges:
                indegree[child] += 1
        generation = [i for i, degree in enumerate(indegree) if degree == 0]
        order: List[int] = []
        while generation:
            order.extend(generation)
            following = []
            for i in generation:
                for child in children[i]:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        following.append(child)
            generation = following
        return [sccs[i] for i in order]

    def bottom_up_order(self) -> List[Function]:
        """Callees before callers (SCC condensation topological order)."""
        order: List[Function] = []
        for scc in self.topological_sccs():
            order.extend(sorted(scc, key=lambda f: f.name))
        order.reverse()
        return order

    def reachable_from(self, roots: List[Function]) -> Set[Function]:
        seen: Set[Function] = set()
        stack = list(roots)
        while stack:
            f = stack.pop()
            if f in seen:
                continue
            seen.add(f)
            stack.extend(self._succ[f])
        return seen
