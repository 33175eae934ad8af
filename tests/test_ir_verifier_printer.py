"""Verifier catches malformed IR; printer round-trips structure as text."""

import pytest

from repro.ir import (
    BranchInst,
    Function,
    IRBuilder,
    Module,
    VerificationError,
    function_to_str,
    module_to_str,
    verify_function,
    verify_module,
)
from repro.ir import types as ty


def _simple():
    m = Module("t")
    f = m.add_function(Function("f", ty.function_type(ty.i32, [ty.i32])))
    bb = f.add_block("entry")
    b = IRBuilder(bb)
    b.ret(b.add(f.args[0], b.const(1), "x"))
    return m, f, bb


class TestVerifier:
    def test_clean_function_passes(self):
        m, f, bb = _simple()
        assert verify_function(f) == []

    def test_missing_terminator(self):
        m = Module("t")
        f = m.add_function(Function("f", ty.function_type(ty.void, [])))
        bb = f.add_block("entry")
        IRBuilder(bb).alloca(ty.i32)
        with pytest.raises(VerificationError, match="terminator"):
            verify_function(f)

    def test_ret_type_mismatch(self):
        m = Module("t")
        f = m.add_function(Function("f", ty.function_type(ty.i32, [])))
        IRBuilder(f.add_block("entry")).ret()  # ret void in i32 function
        with pytest.raises(VerificationError, match="ret void"):
            verify_function(f)

    def test_phi_edge_mismatch(self):
        m = Module("t")
        f = m.add_function(Function("f", ty.function_type(ty.i32, [])))
        a = f.add_block("a")
        other = f.add_block("other")
        merge = f.add_block("m")
        ba = IRBuilder(a)
        ba.br(merge)
        IRBuilder(other).ret(ba.const(0))
        bm = IRBuilder(merge)
        phi = bm.phi(ty.i32)
        phi.add_incoming(bm.const(1), other)  # `other` is not a predecessor
        bm.ret(phi)
        with pytest.raises(VerificationError, match="phi"):
            verify_function(f)

    def test_foreign_successor_rejected(self):
        m = Module("t")
        f = m.add_function(Function("f", ty.function_type(ty.void, [])))
        g = m.add_function(Function("g", ty.function_type(ty.void, [])))
        gbb = g.add_block("gbb")
        IRBuilder(gbb).ret()
        fbb = f.add_block("entry")
        fbb.append(BranchInst(gbb))
        with pytest.raises(VerificationError, match="successor"):
            verify_function(f)

    def test_module_verification_covers_all_functions(self):
        m, f, bb = _simple()
        assert verify_module(m) == []

    def _diamond(self, use_in_merge: bool):
        """entry branches to ``left`` (defines %x) and ``right``; both
        join in ``merge``, which reads %x through a phi or directly."""
        m = Module("t")
        f = m.add_function(Function("f", ty.function_type(ty.i32, [ty.i32])))
        entry, left, right, merge = (f.add_block(n) for n in
                                     ("entry", "left", "right", "merge"))
        b = IRBuilder(entry)
        b.cbr(b.icmp("slt", f.args[0], b.const(0)), left, right)
        b.position_at_end(left)
        x = b.add(f.args[0], b.const(1), "x")
        b.br(merge)
        b.position_at_end(right)
        b.br(merge)
        b.position_at_end(merge)
        if use_in_merge:
            b.ret(b.add(x, b.const(2), "y"))
        else:
            phi = b.phi(ty.i32, "p")
            phi.add_incoming(x, left)
            phi.add_incoming(b.const(0), right)
            b.ret(phi)
        return f

    def test_use_must_be_dominated_by_its_definition(self):
        assert verify_function(self._diamond(use_in_merge=False)) == []
        with pytest.raises(VerificationError, match="not dominated"):
            verify_function(self._diamond(use_in_merge=True))

    def test_use_before_definition_in_one_block(self):
        m, f, bb = _simple()
        x = bb.instructions[0]
        IRBuilder(bb).add(x, IRBuilder.const(1), "early").insert_before(x)
        assert verify_function(f, collect=True) == [
            "entry:early: use of %x is not dominated by its definition"]

    def test_pass_bug_breaking_dominance_is_reported(self):
        """A pass sequence that leaves a self-referencing ``%cs.next`` in
        qsort's loop body after the phi that fed it is gone: structurally
        clean, so only the dominance check sees it."""
        from repro.programs import chstone
        from repro.toolchain import HLSToolchain

        m = chstone.build("qsort")
        HLSToolchain.apply_passes(m, [9, 11, 23, 11, 36, 8, 9, 38, 42, 31,
                                      13, 23])
        errors = verify_module(m, collect=True)
        assert errors and all("is not dominated" in e for e in errors)
        assert sum("use of %cs.next " in e for e in errors) == 3


class TestPrinter:
    def test_function_rendering(self):
        m, f, bb = _simple()
        text = function_to_str(f)
        assert "define i32 @f(i32 %arg0)" in text
        assert "%x = add i32 %arg0, 1" in text
        assert "ret i32 %x" in text

    def test_module_rendering_includes_globals(self):
        from repro.ir import GlobalVariable

        m, f, bb = _simple()
        m.add_global(GlobalVariable("lut", ty.array_type(ty.i32, 4), [1, 2, 3, 4],
                                    is_constant=True))
        text = module_to_str(m)
        assert "@lut = internal constant [4 x i32]" in text

    def test_printer_handles_all_benchmark_instructions(self, benchmarks):
        for module in benchmarks.values():
            text = module_to_str(module)
            assert "define" in text and "ret" in text
