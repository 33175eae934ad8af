"""Shared fixtures: cached benchmark modules, a small random corpus, and
IR-construction helpers used across the suite."""

from __future__ import annotations

import pytest

from repro.ir import Function, IRBuilder, Module
from repro.ir import types as ty
from repro.programs import chstone
from repro.programs.generator import RandomProgramGenerator, passes_hls_filter
from repro.toolchain import HLSToolchain, clone_module


@pytest.fixture(scope="session")
def benchmarks():
    """All nine CHStone-like modules (session-cached; clone before mutating)."""
    return chstone.build_all()


@pytest.fixture(scope="session")
def tiny_corpus():
    """A handful of filtered random programs for generalization tests."""
    corpus = []
    seed = 0
    while len(corpus) < 4 and seed < 60:
        module = RandomProgramGenerator(seed).generate(name=f"fixture{seed}")
        if passes_hls_filter(module):
            corpus.append(module)
        seed += 1
    assert len(corpus) == 4
    return corpus


@pytest.fixture()
def toolchain():
    return HLSToolchain()


def build_counted_loop_module(trip: int = 10, body_mul: int = 3) -> Module:
    """int main() { s=0; for(i=0;i<trip;i++) s += i*body_mul; return s; }

    Built in Clang -O0 style (allocas + loads/stores), the canonical
    fixture for mem2reg/loop-pass tests.
    """
    m = Module("loop_fixture")
    f = m.add_function(Function("main", ty.function_type(ty.i32, []), linkage="external"))
    entry = f.add_block("entry")
    cond = f.add_block("cond")
    body = f.add_block("body")
    exit_ = f.add_block("exit")
    b = IRBuilder(entry)
    s_ptr = b.alloca(ty.i32, "s")
    i_ptr = b.alloca(ty.i32, "i")
    b.store(b.const(0), s_ptr)
    b.store(b.const(0), i_ptr)
    b.br(cond)
    b.position_at_end(cond)
    iv = b.load(i_ptr, "iv")
    c = b.icmp("slt", iv, b.const(trip), "cmp")
    b.cbr(c, body, exit_)
    b.position_at_end(body)
    sv = b.load(s_ptr, "sv")
    iv2 = b.load(i_ptr, "iv2")
    t = b.mul(iv2, b.const(body_mul), "t")
    b.store(b.add(sv, t, "s2"), s_ptr)
    b.store(b.add(iv2, b.const(1), "inext"), i_ptr)
    b.br(cond)
    b.position_at_end(exit_)
    b.ret(b.load(s_ptr, "rv"))
    return m


@pytest.fixture()
def loop_module():
    return build_counted_loop_module()


def module_state(module: Module) -> str:
    """Everything a pass may mutate and a later pass may observe, as
    text: the printed IR (which shows function attributes and global
    linkage) plus what the printer leaves out — global constness and
    initializers, function linkage, module/function/instruction metadata
    (``-strip`` and ``-strip-nondebug`` touch nothing else), and the
    order of every use list (passes iterate over users)."""
    from repro.ir.printer import module_to_str

    lines = [module_to_str(module), f"!module {sorted(module.metadata.items())!r}"]
    where = {}  # instruction -> position, to name users by

    def users(value):
        return [where.get(user) for user in value.users()]

    for func in module.functions.values():
        for b, bb in enumerate(func.blocks):
            for i, inst in enumerate(bb.instructions):
                where[inst] = (func.name, b, i)
    for gv in module.globals.values():
        lines.append(f"!global {gv.name} {gv.linkage} {gv.is_constant} "
                     f"{gv.initializer!r} {users(gv)}")
    for func in module.functions.values():
        lines.append(f"!function {func.name} {func.linkage} "
                     f"{sorted(func.attributes)} "
                     f"{sorted(func.metadata.items())!r} {users(func)} "
                     f"{[users(arg) for arg in func.args]}")
        for bb in func.blocks:
            lines.append(f"!block {bb.name} {users(bb)}")
            for inst in bb.instructions:
                if inst.metadata or inst.is_used:
                    lines.append(f"!inst {where[inst]} "
                                 f"{sorted(inst.metadata.items())!r} {users(inst)}")
    return "\n".join(lines)


def run_passes_checked(module: Module, passes) -> bool:
    """``PassManager().run(module, passes)``, one pass at a time, holding
    every one of them to the contract the engine's trie rests on: a pass
    that returns ``False`` left the module exactly as it found it."""
    from repro.passes import PassManager

    pm = PassManager()
    changed = False
    before = module_state(module)
    for name in passes:
        if pm.run(module, [name]):
            changed = True
            before = module_state(module)
        else:
            assert module_state(module) == before, \
                f"{name} returned False but changed the module"
    return changed
