"""Value hierarchy: use lists, RAUW, constants, globals."""

import pytest

from repro.ir import (
    BinaryOperator,
    ConstantFloat,
    ConstantInt,
    Function,
    GlobalVariable,
    IRBuilder,
    Module,
    UndefValue,
)
from repro.ir import types as ty


def _block():
    m = Module("t")
    f = m.add_function(Function("f", ty.function_type(ty.i32, [ty.i32, ty.i32])))
    return f, f.add_block("entry")


class TestUseTracking:
    def test_operands_register_uses(self):
        f, bb = _block()
        b = IRBuilder(bb)
        a0, a1 = f.args
        add = b.add(a0, a1)
        assert add in a0.users()
        assert add in a1.users()
        assert a0.num_uses == 1

    def test_multiplicity(self):
        f, bb = _block()
        b = IRBuilder(bb)
        a0 = f.args[0]
        add = b.add(a0, a0)
        assert a0.num_uses == 2
        assert a0.users() == [add]

    def test_set_operand_updates_uses(self):
        f, bb = _block()
        b = IRBuilder(bb)
        a0, a1 = f.args
        add = b.add(a0, a0)
        add.set_operand(1, a1)
        assert a0.num_uses == 1
        assert a1.num_uses == 1

    def test_rauw(self):
        f, bb = _block()
        b = IRBuilder(bb)
        a0, a1 = f.args
        x = b.add(a0, b.const(1), "x")
        y = b.mul(x, x, "y")
        x.replace_all_uses_with(a1)
        assert y.lhs is a1 and y.rhs is a1
        assert not x.is_used
        assert a1.num_uses == 2

    def test_erase_refuses_used_value(self):
        f, bb = _block()
        b = IRBuilder(bb)
        x = b.add(f.args[0], b.const(1), "x")
        b.mul(x, x, "y")
        with pytest.raises(RuntimeError):
            x.erase_from_parent()

    def test_erase_releases_operand_uses(self):
        f, bb = _block()
        b = IRBuilder(bb)
        a0 = f.args[0]
        x = b.add(a0, b.const(1), "x")
        x.erase_from_parent()
        assert a0.num_uses == 0
        assert x not in bb.instructions

    def test_users_keep_first_use_order(self):
        # x's second slot is recorded after y's: dropping one of x's slots
        # must not move x behind y, and x leaves only with its last slot
        f, bb = _block()
        b = IRBuilder(bb)
        a0, a1 = f.args
        x = b.add(a0, a1, "x")
        y = b.mul(a0, a1, "y")
        x.set_operand(1, a0)
        assert a0.users() == [x, y] and a0.num_uses == 3
        x.set_operand(0, a1)
        assert a0.users() == [x, y] and a0.num_uses == 2
        x.set_operand(1, a1)
        assert a0.users() == [y] and a0.num_uses == 1
        x.set_operand(1, a0)
        assert a0.users() == [y, x]


class TestConstants:
    def test_int_constants_wrap(self):
        c = ConstantInt(ty.i8, 300)
        assert c.value == 44

    def test_true_false(self):
        assert ConstantInt.true().value in (1, -1)
        assert ConstantInt.false().value == 0

    def test_undef_renders(self):
        u = UndefValue(ty.i32)
        assert str(u) == "undef"

    def test_float_constant(self):
        c = ConstantFloat.get(2.5)
        assert c.value == 2.5 and c.type is ty.f64


class TestGlobals:
    def test_flat_initializer_pads(self):
        gv = GlobalVariable("g", ty.array_type(ty.i32, 4), [1, 2])
        assert gv.flat_initializer() == [1, 2, 0, 0]

    def test_flat_initializer_truncates(self):
        gv = GlobalVariable("g", ty.array_type(ty.i32, 2), [1, 2, 3])
        assert gv.flat_initializer() == [1, 2]

    def test_scalar_initializer(self):
        gv = GlobalVariable("g", ty.i32, 7)
        assert gv.flat_initializer() == [7]

    def test_type_is_pointer_to_value_type(self):
        gv = GlobalVariable("g", ty.i32, 0)
        assert gv.type.is_pointer and gv.type.pointee is ty.i32

    def test_default_zero_fill(self):
        gv = GlobalVariable("g", ty.array_type(ty.i32, 3))
        assert gv.flat_initializer() == [0, 0, 0]
