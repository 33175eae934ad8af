"""The call graph's order contract.

The inliner visits callees in ``CallGraph.bottom_up_order()`` and
-functionattrs walks ``topological_sccs()`` backwards, so every order a
query returns decides the IR a pass sequence produces. Two checks hold
it: golden pins of the orders on the nine CHStone programs and both
smoke corpora (they need nothing but the repo), and a differential test
against networkx's algorithms, whose orders the graph reproduces
(skipped where networkx is not installed).
"""

import random

import pytest

from repro.analysis import CallGraph
from repro.ir import Function, IRBuilder, Module
from repro.ir import types as ty
from repro.ir.instructions import CallInst, InvokeInst
from repro.passes import PASS_TABLE, PassManager
from repro.programs.chstone import BENCHMARK_NAMES, build, build_all
from repro.programs.generator import generate_corpus
from repro.toolchain import clone_module

# name -> (bottom_up_order() names, sccs() as sorted member names)
_H = [["helper0"], ["helper1"], ["helper2"], ["main"]]
_SINGLE = (["main"], [["main"]])
_PINS = {
    "adpcm": _SINGLE, "aes": _SINGLE, "gsm": _SINGLE, "matmul": _SINGLE,
    "mpeg2": _SINGLE, "sha": _SINGLE,
    "blowfish": (["bf_f", "main"], [["bf_f"], ["main"]]),
    "dhrystone": (["proc7", "func1", "main"], [["proc7"], ["func1"], ["main"]]),
    "qsort": (["quicksort", "main"], [["quicksort"], ["main"]]),
    # the train corpus of the smoke scale: generate_corpus(6, seed=0)
    "train[0]": (["helper2", "helper0", "helper1", "main"], _H),
    "train[1]": (["helper1", "helper2", "main", "helper0"], _H),
    "train[2]": (["helper0", "helper1", "helper2", "main"], _H),
    "train[3]": (["helper1", "helper2", "helper0", "main"], _H),
    "train[4]": (["helper0", "helper1", "helper2", "main"], _H),
    "train[5]": (["helper2", "helper0", "helper1", "main"], _H),
    # its test corpus: generate_corpus(8, seed=10_000)
    "test[0]": (["helper0", "helper1", "main", "helper2"], _H),
    "test[1]": (["helper2", "helper0", "helper1", "main"], _H),
    "test[2]": (["helper2", "helper0", "helper1", "main"], _H),
    "test[3]": (["helper0", "helper1", "main", "helper2"], _H),
    "test[4]": (["helper2", "helper0", "helper1", "main"], _H),
    "test[5]": (["helper1", "helper0", "helper2", "main"], _H),
    "test[6]": (["helper1", "helper0", "main", "helper2"], _H),
    "test[7]": (["helper0", "helper2", "helper1", "main"], _H),
}


def _pinned_modules():
    modules = dict(build_all())
    for label, size, seed in (("train", 6, 0), ("test", 8, 10_000)):
        for i, module in enumerate(generate_corpus(size, seed=seed)):
            modules[f"{label}[{i}]"] = module
    return modules


def test_orders_are_pinned():
    modules = _pinned_modules()
    assert sorted(modules) == sorted(_PINS)
    for name, module in modules.items():
        cg = CallGraph(module)
        got = ([f.name for f in cg.bottom_up_order()],
               [sorted(f.name for f in scc) for scc in cg.sccs()])
        assert got == _PINS[name], name


def _synthetic(rng, n):
    """``n`` functions calling each other at random — self calls,
    repeated calls, cycles — plus a declaration, a callee the module
    does not declare, an external call and an invoke."""
    module = Module("cg")
    i32 = ty.function_type(ty.i32, [])
    funcs = [module.add_function(Function(f"f{i}", i32)) for i in range(n)]
    declared = module.add_function(Function("decl", i32))
    stranger = Function("stranger", i32)
    targets = funcs + [declared, stranger]
    for func in rng.sample(funcs, n):
        entry = func.add_block("entry")
        b = IRBuilder(entry)
        for callee in rng.choices(targets, k=rng.randint(0, 4)):
            b.call(callee, [])
        if rng.random() < 0.2:
            b.call("ext", [], return_type=ty.i32)
        if rng.random() < 0.2:
            normal, unwind = func.add_block("normal"), func.add_block("unwind")
            b.invoke(rng.choice(targets), [], ty.i32, normal, unwind)
            IRBuilder(unwind).ret(b.const(1))
            b = IRBuilder(normal)
        b.ret(b.const(0))
    return module


def _states():
    """Module states for the differential test: random call graphs, and
    CHStone and generated programs behind random pass prefixes (every
    intermediate state). Fixed seeds."""
    rng = random.Random(37)
    for _ in range(150):
        yield _synthetic(rng, rng.randint(1, 7))
    transforms = [n for n in dict.fromkeys(PASS_TABLE) if n != "-terminate"]
    bases = [build(name) for name in BENCHMARK_NAMES] + generate_corpus(6, seed=3)
    for base in bases:
        for _ in range(6):
            module = clone_module(base)
            yield module
            for name in rng.choices(transforms, k=rng.randint(1, 20)):
                if PassManager().run(module, [name]):
                    yield module


def test_orders_match_networkx():
    nx = pytest.importorskip("networkx")
    for module in _states():
        graph = nx.MultiDiGraph()
        graph.add_nodes_from(module.functions.values())
        for func in module.defined_functions():
            for inst in func.instructions():
                if isinstance(inst, (CallInst, InvokeInst)) and not isinstance(inst.callee, str):
                    graph.add_edge(func, inst.callee, site=inst)
        cg = CallGraph(module)

        sccs = list(nx.strongly_connected_components(graph))
        assert cg.sccs() == sccs
        condensation = nx.condensation(graph, scc=sccs)
        topo = [condensation.nodes[i]["members"] for i in nx.topological_sort(condensation)]
        assert cg.topological_sccs() == topo
        bottom_up = [f for scc in topo for f in sorted(scc, key=lambda f: f.name)][::-1]
        assert [id(f) for f in cg.bottom_up_order()] == [id(f) for f in bottom_up]
        for func in graph:
            assert cg.callees(func) == list(graph.successors(func))
            assert cg.callers(func) == list(graph.predecessors(func))
            sites = [data["site"] for _, _, data in graph.in_edges(func, data=True)]
            assert [id(s) for s in cg.call_sites(func)] == [id(s) for s in sites]
            assert cg.is_self_recursive(func) == graph.has_edge(func, func)
            recursive = graph.has_edge(func, func) or any(
                func in scc and len(scc) > 1 for scc in sccs)
            assert cg.is_recursive(func) == recursive
            assert cg.reachable_from([func]) == {func} | nx.descendants(graph, func)
