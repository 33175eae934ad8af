"""Region cloning — the machinery under inlining/unrolling/unswitching —
and whole-module cloning, the first step of every cold evaluation."""

import random
from collections import Counter, defaultdict

import numpy as np
import pytest

from repro.features.extractor import extract_features
from repro.hls.hashing import structural_key
from repro.hls.profiler import CycleProfiler, HLSCompilationError
from repro.interp.batch_exec import exec_signature
from repro.ir import (Constant, Function, Instruction, IRBuilder, Module,
                      clone_blocks, clone_instruction, clone_module,
                      cloning, instructions, verify_module)
from repro.ir import types as ty
from repro.ir.values import Value
from repro.passes import PassManager
from repro.passes.registry import NUM_TRANSFORMS, pass_name_for_index
from repro.programs.generator import RandomProgramGenerator


def _diamond_func():
    m = Module("c")
    f = m.add_function(Function("f", ty.function_type(ty.i32, [ty.i32])))
    entry, t, e, merge = (f.add_block(n) for n in ("entry", "t", "e", "merge"))
    b = IRBuilder(entry)
    x = b.add(f.args[0], b.const(1), "x")
    b.cbr(b.icmp("sgt", x, b.const(0), "c"), t, e)
    bt = IRBuilder(t)
    vt = bt.mul(x, bt.const(2), "vt")
    bt.br(merge)
    be = IRBuilder(e)
    ve = be.mul(x, be.const(3), "ve")
    be.br(merge)
    bm = IRBuilder(merge)
    phi = bm.phi(ty.i32, "p")
    phi.add_incoming(vt, t)
    phi.add_incoming(ve, e)
    bm.ret(phi)
    return m, f, (entry, t, e, merge)


class TestCloneInstruction:
    def test_operands_remapped_through_vmap(self):
        m, f, (entry, *_ ) = _diamond_func()
        x = entry.instructions[0]
        new_arg = f.args[0]
        clone = clone_instruction(x, {x.lhs: new_arg})
        assert clone.lhs is new_arg
        assert clone.opcode == "add"
        clone.drop_all_references()

    def test_unmapped_operands_point_to_originals(self):
        m, f, (entry, *_ ) = _diamond_func()
        x = entry.instructions[0]
        clone = clone_instruction(x, {})
        assert clone.lhs is x.lhs
        clone.drop_all_references()

    def test_metadata_copied(self):
        m, f, (entry, *_ ) = _diamond_func()
        x = entry.instructions[0]
        x.metadata["dbg"] = "line9"
        clone = clone_instruction(x, {})
        assert clone.metadata == {"dbg": "line9"}
        clone.drop_all_references()


class TestCloneBlocks:
    def test_full_region_clone_is_consistent(self):
        m, f, blocks = _diamond_func()
        entry, t, e, merge = blocks
        new_blocks, vmap = clone_blocks([t, e, merge], f, suffix=".dup")
        assert len(new_blocks) == 3
        # intra-region references remapped
        merge_clone = vmap[merge]
        phi_clone = merge_clone.phis()[0]
        assert set(phi_clone.incoming_blocks) == {vmap[t], vmap[e]}
        # references to values outside the region stay put (x in entry)
        t_clone = vmap[t]
        mul_clone = t_clone.instructions[0]
        assert mul_clone.lhs is entry.instructions[0]

    def test_clone_branch_targets_inside_region_remapped(self):
        m, f, blocks = _diamond_func()
        entry, t, e, merge = blocks
        new_blocks, vmap = clone_blocks([t, merge], f)
        t_clone = vmap[t]
        assert t_clone.terminator.successors() == [vmap[merge]]

    def test_caller_seeded_vmap_respected(self):
        m, f, blocks = _diamond_func()
        entry, t, e, merge = blocks
        x = entry.instructions[0]
        replacement = f.args[0]
        new_blocks, vmap = clone_blocks([t], f, vmap={x: replacement})
        mul_clone = vmap[t].instructions[0]
        assert mul_clone.lhs is replacement


# -- clone_module fidelity --------------------------------------------------------


def _slots(cls):
    return [slot for klass in cls.__mro__
            for slot in vars(klass).get("__slots__", ()) if slot != "__weakref__"]


def _reachable_values(root):
    """Every non-constant Value reachable from ``root`` through any slot."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, Value) and not isinstance(obj, Constant) \
                and id(obj) not in seen:
            seen[id(obj)] = obj
            stack.extend(getattr(obj, slot) for slot in _slots(type(obj))
                         if hasattr(obj, slot))
    return seen


def _reference_report(module):
    profiler = CycleProfiler(sim_kernels="off", schedule_cache_size=0)
    try:
        report = profiler.profile(module)
    except HLSCompilationError as exc:
        return type(exc).__name__, str(exc)
    return (report.cycles, report.states_by_block, report.visits_by_block,
            report.execution.steps, report.execution.observable())


def _check_clone(source):
    clone = clone_module(source)
    verify_module(clone)
    assert clone.version == 0 and clone.metadata == source.metadata
    assert list(clone.functions) == list(source.functions)
    assert list(clone.globals) == list(source.globals)

    # same structure, position by position, and every slot filled in
    for sf, cf in zip(source.functions.values(), clone.functions.values()):
        assert (cf.attributes, cf.metadata, cf.linkage) == \
            (sf.attributes, sf.metadata, sf.linkage)
        assert cf.attributes is not sf.attributes and cf.metadata is not sf.metadata
        assert [bb.name for bb in cf.blocks] == [bb.name for bb in sf.blocks]
        if not sf.is_declaration:
            assert structural_key(cf) == structural_key(sf)
        for sb, cb in zip(sf.blocks, cf.blocks):
            assert len(cb.instructions) == len(sb.instructions)
            for si, ci in zip(sb.instructions, cb.instructions):
                assert type(ci) is type(si) and ci.parent is cb
                assert all(hasattr(ci, slot) for slot in _slots(type(si)))
                assert (ci.type, ci.opcode) == (si.type, si.opcode)
                # metadata only when present, and never the source's dict
                assert ci._metadata == (si._metadata or None)
                assert ci._metadata is None or ci._metadata is not si._metadata
                assert ci.name in (si.name, si.name + ".c")
    assert exec_signature(clone, "main") == exec_signature(source, "main")
    assert np.array_equal(extract_features(clone), extract_features(source))
    assert _reference_report(clone) == _reference_report(source)

    # use lists are exactly what the operand slots say, users in the
    # order they first appear in the clone
    expected = defaultdict(Counter)
    for inst in clone.instructions():
        for op in inst._operands:
            if not isinstance(op, Constant):
                expected[id(op)][inst] += 1
    mine = _reachable_values(clone)
    for value in mine.values():
        slots = expected.get(id(value), Counter())
        assert Counter(value._uses) == slots, value
        assert value.users() == list(slots), value
        assert value.num_uses == sum(slots.values()), value

    # nothing of the source is reachable from the clone (constants and
    # types are the shared immutable leaves)
    assert not set(mine) & set(_reachable_values(source))


class TestCloneModule:
    def test_every_instruction_slot_is_planned(self):
        known = cloning._BASE_SLOTS | cloning._PLAIN_SLOTS | set(cloning._REFERENCE_SLOTS)
        pending, classes = [Instruction], []
        while pending:
            cls = pending.pop()
            if cls.__module__ == instructions.__name__:
                classes.append(cls)
            pending.extend(cls.__subclasses__())
        assert len(classes) >= 18
        for cls in classes:
            renamed, plain, references = cloning._clone_plan(cls)
            planned = set(plain) | {slot for slot, _ in references}
            assert planned == set(_slots(cls)) - cloning._BASE_SLOTS, cls
            assert set(_slots(cls)) <= known, cls

    def test_unknown_slot_is_refused(self):
        class Rogue(Instruction):
            __slots__ = ("payload",)

        with pytest.raises(TypeError, match="Rogue.payload"):
            cloning._clone_plan(Rogue)

    def test_names_follow_the_constructor_rule(self, benchmarks):
        source = benchmarks["gsm"]
        clone = clone_module(source)
        for si, ci in zip(source.instructions(), clone.instructions()):
            unnamed = type(si) in cloning._UNNAMED
            assert ci.name == (si.name if unnamed else si.name + ".c")
        assert {type(i) for i in source.instructions()} & cloning._UNNAMED

    def test_dangling_operand_stays_on_the_original(self):
        m, f, (entry, *_) = _diamond_func()
        x = entry.instructions[0]
        ghost = clone_instruction(x, {})  # never placed in a block
        x.set_operand(1, ghost)
        twin = clone_module(m).functions["f"].blocks[0].instructions[0]
        assert twin.rhs is ghost
        assert Counter(ghost._uses) == Counter({x: 1, twin: 1})
        assert ghost.users() == [x, twin]

    @pytest.mark.parametrize("name", ["adpcm", "aes", "blowfish", "dhrystone",
                                      "gsm", "matmul", "mpeg2", "qsort", "sha"])
    def test_chstone_after_random_prefixes(self, benchmarks, name):
        rng = random.Random(name)
        _check_clone(benchmarks[name])
        for length in (2, 5):
            module = clone_module(benchmarks[name])
            PassManager().run(module, [pass_name_for_index(rng.randrange(NUM_TRANSFORMS))
                                       for _ in range(length)])
            _check_clone(module)

    @pytest.mark.parametrize("seed", [0, 1, 4, 9])
    def test_generated_after_random_prefixes(self, seed):
        # default generator config: invokes, switches, volatile accesses
        rng = random.Random(seed)
        module = RandomProgramGenerator(seed).generate()
        _check_clone(module)
        PassManager().run(module, [pass_name_for_index(rng.randrange(NUM_TRANSFORMS))
                                   for _ in range(4)])
        _check_clone(module)
