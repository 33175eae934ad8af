"""Use lists against a reference model.

Every pass reads def-use chains through ``users()``, ``num_uses`` and
``is_used``; the order of ``users()`` decides the order in which passes
visit and rewrite. The model below is the plain ``{user: count}``
multiset (a dict, so users keep the order in which they started using a
value), driven through the operand-slot semantics of each IR operation.
Random operation sequences run on real IR and on the model side by side,
and the two must agree after every step.
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import (BinaryOperator, Constant, ConstantInt, Function,
                      GlobalVariable, LoadInst, Module, PhiNode, clone_module)
from repro.ir import types as ty


class _Model:
    """Operand slots per instruction and ``{user: count}`` per value."""

    def __init__(self) -> None:
        self.operands = {}
        self.uses = defaultdict(dict)

    def _add(self, value, user) -> None:
        if not isinstance(value, Constant):
            counts = self.uses[value]
            counts[user] = counts.get(user, 0) + 1

    def _remove(self, value, user) -> None:
        if not isinstance(value, Constant):
            counts = self.uses[value]
            if counts[user] == 1:
                del counts[user]
            else:
                counts[user] -= 1

    def construct(self, inst, operands) -> None:
        self.operands[inst] = list(operands)
        for op in operands:
            self._add(op, inst)

    def set_operand(self, inst, index, value) -> None:
        old = self.operands[inst][index]
        if old is not value:
            self._remove(old, inst)
            self.operands[inst][index] = value
            self._add(value, inst)

    def rauw(self, old, new) -> None:
        if new is not old:
            for user in list(self.uses[old]):
                for index, op in enumerate(self.operands[user]):
                    if op is old:
                        self.set_operand(user, index, new)

    def erase(self, inst) -> None:
        for op in self.operands.pop(inst):
            self._remove(op, inst)

    def add_incoming(self, phi, value) -> None:
        self.operands[phi].append(value)
        self._add(value, phi)

    def remove_incoming(self, phi, index) -> None:
        self._remove(self.operands[phi].pop(index), phi)


class _Program:
    """One function under test: its values, blocks and the model."""

    def __init__(self, module: Module, model: _Model) -> None:
        self.module = module
        self.func = module.functions["f"]
        self.entry, self.merge, *self.preds = self.func.blocks
        self.model = model

    @classmethod
    def fresh(cls) -> "_Program":
        m = Module("uses")
        m.add_global(GlobalVariable("g", ty.i32, 3))
        f = m.add_function(Function("f", ty.function_type(ty.i32, [ty.i32, ty.i32])))
        for name in ("entry", "merge", "p0", "p1"):
            f.add_block(name)
        return cls(m, _Model())

    def values(self):
        """Every non-constant value an operand may name."""
        return (list(self.func.args) + list(self.module.globals.values())
                + [inst for bb in self.func.blocks for inst in bb.instructions])

    def instructions(self):
        return [inst for bb in self.func.blocks for inst in bb.instructions]

    def clone(self) -> "_Program":
        """``clone_module``; the model maps the clone position by position
        and registers uses in program order, as a fresh build would."""
        copy = clone_module(self.module)
        twin = _Program(copy, _Model())
        mapping = dict(zip(self.values(), twin.values()))
        for inst, ci in zip(self.instructions(), twin.instructions()):
            twin.model.construct(ci, [mapping.get(op, op)
                                      for op in self.model.operands[inst]])
        return twin

    def check(self) -> None:
        for inst in self.instructions():
            assert list(inst.operands) == self.model.operands[inst]
        for value in self.values():
            counts = self.model.uses.get(value, {})
            assert value.users() == list(counts), value
            assert value.num_uses == sum(counts.values()), value
            assert value.is_used == bool(counts), value


_ZERO = ConstantInt(ty.i32, 0)

# weighted toward the operations that move single slots
_OPS = ("construct", "construct", "load", "set_operand", "set_operand",
        "set_operand", "rauw", "erase", "phi", "add_incoming", "add_incoming",
        "remove_incoming", "remove_incoming", "clone")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_use_lists_agree_with_the_multiset_model(data):
    program = _Program.fresh()
    programs = [program]
    # a small operand pool, so that values gather several users and users
    # several slots of one value, interleaved
    operand = lambda: data.draw(st.sampled_from(
        program.values()[:2] + program.instructions()[-2:] + [_ZERO]))
    for _ in range(data.draw(st.integers(1, 60))):
        op = data.draw(st.sampled_from(_OPS))
        insts = program.instructions()
        phis = [i for i in insts if isinstance(i, PhiNode)]
        model = program.model
        if op == "construct":
            lhs, rhs = operand(), operand()
            inst = BinaryOperator("add", lhs, rhs, "x")
            program.entry.append(inst)
            model.construct(inst, [lhs, rhs])
        elif op == "load":
            pointer = program.module.globals["g"]
            inst = LoadInst(pointer, "l")
            program.entry.append(inst)
            model.construct(inst, [pointer])
        elif op == "set_operand" and insts:
            inst = data.draw(st.sampled_from(insts))
            if inst.operands:
                index = data.draw(st.integers(0, len(inst.operands) - 1))
                value = operand()
                inst.set_operand(index, value)
                model.set_operand(inst, index, value)
        elif op == "rauw":
            old = data.draw(st.sampled_from(program.values()))
            new = operand()
            old.replace_all_uses_with(new)
            model.rauw(old, new)
        elif op == "erase":
            unused = [i for i in insts if not model.uses.get(i)]
            if unused:
                inst = data.draw(st.sampled_from(unused))
                inst.erase_from_parent()
                model.erase(inst)
        elif op == "phi":
            phi = PhiNode(ty.i32, "p")
            program.merge.append(phi)
            model.construct(phi, [])
        elif op == "add_incoming" and phis:
            phi = data.draw(st.sampled_from(phis))
            value = operand()  # repeats: same value and/or block twice
            phi.add_incoming(value, data.draw(st.sampled_from(program.preds)))
            model.add_incoming(phi, value)
        elif op == "remove_incoming" and phis:
            phi = data.draw(st.sampled_from(phis))
            if phi.incoming_blocks:
                block = data.draw(st.sampled_from(phi.incoming_blocks))
                index = phi.incoming_blocks.index(block)
                phi.remove_incoming(block)
                model.remove_incoming(phi, index)
        elif op == "clone":
            program = program.clone()
            programs.append(program)
        for each in programs:  # a clone never touches its source
            each.check()
    assert _ZERO.users() == [] and _ZERO.num_uses == 0 and not _ZERO.is_used
