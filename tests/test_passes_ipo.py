"""Interprocedural passes: inline, partial-inline, tailcallelim,
functionattrs, globaldce/globalopt/constmerge, ipsccp, deadargelim,
prune-eh."""

import pytest

from repro.analysis import CallGraph, LoopInfo
from repro.interp import run_module
from repro.ir import Function, GlobalVariable, IRBuilder, Module, verify_module
from repro.ir import types as ty
from repro.passes import PassManager, create_pass
from repro.toolchain import clone_module


def _caller_callee(callee_size=3, callers=1):
    m = Module("ipo")
    callee = m.add_function(Function("callee", ty.function_type(ty.i32, [ty.i32])))
    b = IRBuilder(callee.add_block("entry"))
    v = callee.args[0]
    for i in range(callee_size):
        v = b.add(v, b.const(i + 1))
    b.ret(v)
    main = m.add_function(Function("main", ty.function_type(ty.i32, []), linkage="external"))
    mb = IRBuilder(main.add_block("entry"))
    total = mb.const(0)
    for i in range(callers):
        total = mb.add(total, mb.call(callee, [mb.const(i * 10)]))
    mb.ret(total)
    return m, callee, main


class TestInliner:
    def test_small_callee_inlined(self):
        m, callee, main = _caller_callee()
        before = run_module(m).return_value
        create_pass("-inline").run(m)
        verify_module(m)
        assert not any(i.opcode == "call" for i in main.instructions())
        assert run_module(m).return_value == before

    def test_multiple_call_sites(self):
        m, callee, main = _caller_callee(callers=3)
        before = run_module(m).return_value
        create_pass("-inline").run(m)
        verify_module(m)
        assert not any(i.opcode == "call" for i in main.instructions())
        assert run_module(m).return_value == before

    def test_noinline_respected(self):
        m, callee, main = _caller_callee()
        callee.attributes.add("noinline")
        create_pass("-inline").run(m)
        assert any(i.opcode == "call" for i in main.instructions())

    def test_recursive_callee_not_inlined(self, benchmarks):
        m = clone_module(benchmarks["qsort"])
        before = run_module(m, max_steps=3_000_000).observable()
        create_pass("-inline").run(m)
        verify_module(m)
        assert m.get_function("quicksort") is not None
        assert run_module(m, max_steps=3_000_000).observable() == before

    def test_large_multi_site_callee_kept(self):
        m, callee, main = _caller_callee(callee_size=100, callers=2)
        create_pass("-inline").run(m)
        assert any(i.opcode == "call" for i in main.instructions())

    def test_single_site_large_callee_inlined(self):
        m, callee, main = _caller_callee(callee_size=100, callers=1)
        before = run_module(m).return_value
        create_pass("-inline").run(m)
        assert not any(i.opcode == "call" for i in main.instructions())
        assert run_module(m).return_value == before

    def test_inline_eliminates_call_state_cycles(self, toolchain):
        # -simplifycfg merges the inliner's split blocks; only then does
        # the handshake-state saving become visible (LLVM-style synergy).
        m, callee, main = _caller_callee(callee_size=6, callers=2)
        base = toolchain.cycle_count_with_passes(m, ["-simplifycfg"])
        inlined = toolchain.cycle_count_with_passes(m, ["-inline", "-simplifycfg"])
        assert inlined < base


class TestPartialInliner:
    def test_early_exit_test_outlined(self):
        m = Module("pi")
        callee = m.add_function(Function("maybe", ty.function_type(ty.i32, [ty.i32])))
        b = IRBuilder(callee.add_block("entry"))
        early, work = callee.add_block("early"), callee.add_block("work")
        b.cbr(b.icmp("sle", callee.args[0], b.const(0)), early, work)
        IRBuilder(early).ret(IRBuilder(early).const(0))
        bw = IRBuilder(work)
        v = callee.args[0]
        for i in range(6):
            v = bw.mul(v, bw.const(3))
            v = bw.and_(v, bw.const(0xFFFF))
        bw.ret(v)
        main = m.add_function(Function("main", ty.function_type(ty.i32, []), linkage="external"))
        mb = IRBuilder(main.add_block("entry"))
        r1 = mb.call(callee, [mb.const(-5)])  # takes the early path
        r2 = mb.call(callee, [mb.const(5)])
        mb.ret(mb.add(r1, r2))
        before = run_module(m).return_value
        changed = create_pass("-partial-inliner").run(m)
        verify_module(m)
        assert changed
        assert run_module(m).return_value == before
        # the early test is now inlined at the call sites
        mains_cmps = [i for i in main.instructions() if i.opcode == "icmp"]
        assert len(mains_cmps) >= 2


class TestTailCallElim:
    def _sum_recursive(self):
        m = Module("tce")
        f = m.add_function(Function("sum", ty.function_type(ty.i32, [ty.i32, ty.i32])))
        b = IRBuilder(f.add_block("entry"))
        base_bb, rec_bb = f.add_block("base"), f.add_block("rec")
        b.cbr(b.icmp("sle", f.args[0], b.const(0)), base_bb, rec_bb)
        IRBuilder(base_bb).ret(f.args[1])
        br = IRBuilder(rec_bb)
        r = br.call(f, [br.sub(f.args[0], br.const(1)), br.add(f.args[1], f.args[0])])
        br.ret(r)
        main = m.add_function(Function("main", ty.function_type(ty.i32, []), linkage="external"))
        mb = IRBuilder(main.add_block("entry"))
        mb.ret(mb.call(f, [mb.const(10), mb.const(0)]))
        return m, f

    def test_self_recursion_becomes_loop(self):
        m, f = self._sum_recursive()
        before = run_module(m).return_value
        assert before == 55
        changed = create_pass("-tailcallelim").run(m)
        verify_module(m)
        assert changed
        assert not any(i.opcode == "call" for i in f.instructions())
        assert LoopInfo(f).loops != []
        assert run_module(m).return_value == 55

    def test_deep_recursion_possible_after_tce(self):
        """TCE converts stack depth into iteration count."""
        m, f = self._sum_recursive()
        main = m.get_function("main")
        call = next(i for i in main.instructions() if i.opcode == "call")
        from repro.ir import ConstantInt

        call.set_operand(0, ConstantInt(ty.i32, 500))  # beyond depth limit
        from repro.interp import InterpreterLimitExceeded

        with pytest.raises(InterpreterLimitExceeded):
            run_module(m)
        create_pass("-tailcallelim").run(m)
        assert run_module(m).return_value == 500 * 501 // 2

    def test_non_tail_recursion_untouched(self):
        # return n + f(n-1): the add happens after the call -> not a tail call
        m = Module("ntc")
        f = m.add_function(Function("tri", ty.function_type(ty.i32, [ty.i32])))
        b = IRBuilder(f.add_block("entry"))
        base_bb, rec_bb = f.add_block("base"), f.add_block("rec")
        b.cbr(b.icmp("sle", f.args[0], b.const(0)), base_bb, rec_bb)
        IRBuilder(base_bb).ret(IRBuilder(base_bb).const(0))
        br = IRBuilder(rec_bb)
        r = br.call(f, [br.sub(f.args[0], br.const(1))])
        br.ret(br.add(r, f.args[0]))
        main = m.add_function(Function("main", ty.function_type(ty.i32, []), linkage="external"))
        mb = IRBuilder(main.add_block("entry"))
        mb.ret(mb.call(f, [mb.const(5)]))
        assert not create_pass("-tailcallelim").run(m)


class TestFunctionAttrs:
    def test_pure_function_marked_readnone(self, benchmarks):
        m = clone_module(benchmarks["blowfish"])
        create_pass("-functionattrs").run(m)
        # bf_f only reads constant globals -> readonly (reads memory)
        assert "readonly" in m.get_function("bf_f").attributes

    def test_arithmetic_only_function_readnone(self):
        m, callee, main = _caller_callee()
        create_pass("-functionattrs").run(m)
        assert "readnone" in callee.attributes
        assert "norecurse" in callee.attributes

    def test_writer_not_readonly(self):
        m = Module("w")
        gv = GlobalVariable("g", ty.i32, 0, linkage="external")
        m.add_global(gv)
        f = m.add_function(Function("writer", ty.function_type(ty.void, [])))
        b = IRBuilder(f.add_block("entry"))
        b.store(b.const(1), gv)
        b.ret()
        main = m.add_function(Function("main", ty.function_type(ty.i32, []), linkage="external"))
        mb = IRBuilder(main.add_block("entry"))
        mb.call(f, [])
        mb.ret(mb.const(0))
        create_pass("-functionattrs").run(m)
        attrs = f.attributes
        assert "readnone" not in attrs and "readonly" not in attrs

    def test_local_alloca_traffic_still_readnone(self):
        m = Module("la")
        f = m.add_function(Function("scratch", ty.function_type(ty.i32, [ty.i32])))
        b = IRBuilder(f.add_block("entry"))
        p = b.alloca(ty.i32)
        b.store(f.args[0], p)
        b.ret(b.load(p))
        main = m.add_function(Function("main", ty.function_type(ty.i32, []), linkage="external"))
        mb = IRBuilder(main.add_block("entry"))
        mb.ret(mb.call(f, [mb.const(3)]))
        create_pass("-functionattrs").run(m)
        assert "readnone" in f.attributes

    def test_enables_call_cse(self):
        """The pass's cycle effect: after attrs, duplicate calls CSE."""
        m, callee, main = _caller_callee()
        mb = IRBuilder(main.entry)
        # rebuild main with two identical calls
        main.blocks[0].drop_all_instructions()
        b = IRBuilder(main.entry)
        c1 = b.call(callee, [b.const(5)])
        c2 = b.call(callee, [b.const(5)])
        b.ret(b.add(c1, c2))
        PassManager().run(m, ["-early-cse"])
        assert sum(1 for i in main.instructions() if i.opcode == "call") == 2
        PassManager().run(m, ["-functionattrs", "-early-cse"])
        assert sum(1 for i in main.instructions() if i.opcode == "call") == 1


class TestGlobalPasses:
    def test_globaldce_removes_dead_function_and_global(self):
        m, callee, main = _caller_callee()
        dead_f = m.add_function(Function("dead", ty.function_type(ty.void, [])))
        IRBuilder(dead_f.add_block("entry")).ret()
        m.add_global(GlobalVariable("dead_g", ty.i32, 1))
        create_pass("-globaldce").run(m)
        assert m.get_function("dead") is None
        assert "dead_g" not in m.globals
        assert m.get_function("callee") is not None  # still called

    def test_globalopt_folds_constant_scalar_loads(self):
        m = Module("go")
        gv = GlobalVariable("answer", ty.i32, 42)
        m.add_global(gv)
        main = m.add_function(Function("main", ty.function_type(ty.i32, []), linkage="external"))
        b = IRBuilder(main.add_block("entry"))
        b.ret(b.load(gv))
        create_pass("-globalopt").run(m)
        assert not any(i.opcode == "load" for i in main.instructions())
        assert run_module(m).return_value == 42

    def test_globalopt_marks_readonly_arrays_constant(self):
        m = Module("go2")
        gv = GlobalVariable("tab", ty.array_type(ty.i32, 4), [1, 2, 3, 4])
        m.add_global(gv)
        main = m.add_function(Function("main", ty.function_type(ty.i32, []), linkage="external"))
        b = IRBuilder(main.add_block("entry"))
        b.ret(b.load(b.gep(gv, [0, 2])))
        assert not gv.is_constant
        create_pass("-globalopt").run(m)
        assert gv.is_constant

    def test_constmerge_dedupes(self):
        m = Module("cm")
        g1 = GlobalVariable("t1", ty.array_type(ty.i32, 2), [1, 2], is_constant=True)
        g2 = GlobalVariable("t2", ty.array_type(ty.i32, 2), [1, 2], is_constant=True)
        m.add_global(g1)
        m.add_global(g2)
        main = m.add_function(Function("main", ty.function_type(ty.i32, []), linkage="external"))
        b = IRBuilder(main.add_block("entry"))
        v1 = b.load(b.gep(g1, [0, 0]))
        v2 = b.load(b.gep(g2, [0, 1]))
        b.ret(b.add(v1, v2))
        before = run_module(m).return_value
        create_pass("-constmerge").run(m)
        assert len(m.globals) == 1
        assert run_module(m).return_value == before == 3


class TestIPSCCP:
    def test_constant_argument_propagates(self):
        m = Module("ip")
        f = m.add_function(Function("scaled", ty.function_type(ty.i32, [ty.i32])))
        b = IRBuilder(f.add_block("entry"))
        b.ret(b.mul(f.args[0], b.const(3)))
        main = m.add_function(Function("main", ty.function_type(ty.i32, []), linkage="external"))
        mb = IRBuilder(main.add_block("entry"))
        r1 = mb.call(f, [mb.const(7)])
        r2 = mb.call(f, [mb.const(7)])  # same constant everywhere
        mb.ret(mb.add(r1, r2))
        create_pass("-ipsccp").run(m)
        verify_module(m)
        # f's body collapsed to ret 21; the constant return propagated.
        from repro.ir import ConstantInt

        rv = main.entry.terminator.return_value
        assert run_module(m).return_value == 42

    def test_divergent_arguments_not_seeded(self):
        m = Module("ip2")
        f = m.add_function(Function("scaled", ty.function_type(ty.i32, [ty.i32])))
        b = IRBuilder(f.add_block("entry"))
        b.ret(b.mul(f.args[0], b.const(3)))
        main = m.add_function(Function("main", ty.function_type(ty.i32, []), linkage="external"))
        mb = IRBuilder(main.add_block("entry"))
        r1 = mb.call(f, [mb.const(7)])
        r2 = mb.call(f, [mb.const(8)])
        mb.ret(mb.add(r1, r2))
        create_pass("-ipsccp").run(m)
        assert run_module(m).return_value == 45
        assert any(i.opcode == "mul" for i in f.instructions())


class TestDeadArgElim:
    def test_unused_argument_removed(self):
        m = Module("dae")
        f = m.add_function(Function("use_one", ty.function_type(ty.i32, [ty.i32, ty.i32]),
                                    ["used", "unused"]))
        b = IRBuilder(f.add_block("entry"))
        b.ret(b.add(f.args[0], b.const(1)))
        main = m.add_function(Function("main", ty.function_type(ty.i32, []), linkage="external"))
        mb = IRBuilder(main.add_block("entry"))
        mb.ret(mb.call(f, [mb.const(4), mb.const(99)]))
        before = run_module(m).return_value
        create_pass("-deadargelim").run(m)
        verify_module(m)
        new_f = m.get_function("use_one")
        assert len(new_f.args) == 1
        assert run_module(m).return_value == before == 5

    def test_ignored_return_dropped(self):
        m = Module("dae2")
        gv = GlobalVariable("out", ty.i32, 0, linkage="external")
        m.add_global(gv)
        f = m.add_function(Function("produce", ty.function_type(ty.i32, [])))
        b = IRBuilder(f.add_block("entry"))
        b.store(b.const(5), gv)
        b.ret(b.const(9))
        main = m.add_function(Function("main", ty.function_type(ty.i32, []), linkage="external"))
        mb = IRBuilder(main.add_block("entry"))
        mb.call(f, [])  # result ignored
        mb.ret(mb.load(gv))
        before = run_module(m).observable()
        create_pass("-deadargelim").run(m)
        verify_module(m)
        assert m.get_function("produce").return_type.is_void
        assert run_module(m).observable() == before


class TestPruneEHAndInvoke:
    def _with_invoke(self):
        m = Module("inv")
        callee = m.add_function(Function("callee", ty.function_type(ty.i32, [ty.i32])))
        cb = IRBuilder(callee.add_block("entry"))
        cb.ret(cb.add(callee.args[0], cb.const(1)))
        main = m.add_function(Function("main", ty.function_type(ty.i32, []), linkage="external"))
        entry, ok, uw = main.add_block("entry"), main.add_block("ok"), main.add_block("uw")
        b = IRBuilder(entry)
        inv = b.invoke(callee, [b.const(4)], ty.i32, ok, uw)
        IRBuilder(uw).unreachable()
        bo = IRBuilder(ok)
        bo.ret(inv)
        return m, main

    def test_lowerinvoke_converts_to_call(self):
        m, main = self._with_invoke()
        before = run_module(m).return_value
        create_pass("-lowerinvoke").run(m)
        verify_module(m)
        ops = [i.opcode for i in main.instructions()]
        assert "invoke" not in ops and "call" in ops
        assert run_module(m).return_value == before == 5

    def test_prune_eh_also_cleans_unwind_blocks(self):
        m, main = self._with_invoke()
        create_pass("-prune-eh").run(m)
        verify_module(m)
        assert not any(bb.name == "uw" for bb in main.blocks)
        assert "nounwind" in main.attributes
        assert run_module(m).return_value == 5

    @pytest.mark.parametrize("name", ["-early-cse", "-gvn", "-licm", "-dse",
                                      "-sink", "-memcpyopt"])
    def test_memory_passes_accept_an_invoke(self, name):
        # regression: the memory-effect queries (is_readonly & co.) lived on
        # CallInst only, so any pass asking them of an invoke crashed
        m, main = self._with_invoke()
        inv = main.blocks[0].terminator
        assert inv.may_read_memory() and inv.may_write_memory()
        m.get_function("callee").attributes.add("readnone")
        assert inv.is_pure() and not inv.may_read_memory()
        assert inv.may_have_side_effects()  # still a terminator
        create_pass(name).run(m)
        verify_module(m)
        assert run_module(m).return_value == 5

    def test_o3_on_an_invoke_bearing_generated_program(self):
        from repro.ir import InvokeInst
        from repro.service.server import resolve_program_spec
        from repro.toolchain import HLSToolchain

        program = resolve_program_spec("gen:0")
        assert any(isinstance(i, InvokeInst) for i in program.instructions())
        toolchain = HLSToolchain()
        assert 0 < toolchain.o3_cycles(program) <= toolchain.o0_cycles(program)
