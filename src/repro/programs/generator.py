"""Random HLS program generator — the CSmith stand-in.

Generates seeded, always-terminating, trap-free programs in Clang -O0
style (locals as allocas, loads/stores everywhere), with the constructs
that make the 45-pass action space meaningful: nested counted loops,
if/else diamonds, switches, global lookup tables, helper calls (some
tail-recursive, some with early-exit shapes), invokes, volatile
accesses, llvm.expect hints, and metadata for the strip passes.

Like the paper's flow (§3.4), :func:`passes_hls_filter` discards programs
that run too long or fail HLS compilation; :func:`generate_corpus`
applies it, so "100 random programs" always means 100 usable ones.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from ..hls.profiler import CycleProfiler, HLSCompilationError
from ..ir import types as ty
from ..ir.module import Function, Module
from ..ir.values import GlobalVariable, Value
from .cbuilder import CWriter

__all__ = ["GeneratorConfig", "RandomProgramGenerator", "passes_hls_filter", "generate_corpus"]

_BIN_OPS = ("add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr", "sdiv", "srem")
_CMP_PREDS = ("eq", "ne", "slt", "sle", "sgt", "sge")


class GeneratorConfig:
    """Tunable knobs; defaults produce ~60-300 instruction programs."""

    def __init__(self, max_stmts: int = 18, max_depth: int = 3, max_loop_trip: int = 12,
                 n_helpers: int = 3, n_globals: int = 3, p_volatile: float = 0.03,
                 p_invoke: float = 0.06, p_expect: float = 0.05) -> None:
        self.max_stmts = max_stmts
        self.max_depth = max_depth
        self.max_loop_trip = max_loop_trip
        self.n_helpers = n_helpers
        self.n_globals = n_globals
        self.p_volatile = p_volatile
        self.p_invoke = p_invoke
        self.p_expect = p_expect


class RandomProgramGenerator:
    def __init__(self, seed: int, config: Optional[GeneratorConfig] = None) -> None:
        self.rng = random.Random(seed)
        self.seed = seed
        self.config = config or GeneratorConfig()

    # -- public API -----------------------------------------------------------
    def generate(self, name: Optional[str] = None) -> Module:
        module = Module(name or f"rand{self.seed}")
        module.metadata["ident"] = "repro random program generator"
        module.metadata["dbg.file"] = f"{module.source_name}.c"
        self._make_globals(module)
        helpers = [self._make_helper(module, i) for i in range(self.config.n_helpers)]
        self._make_main(module, helpers)
        return module

    # -- globals ----------------------------------------------------------------
    def _make_globals(self, module: Module) -> None:
        rng = self.rng
        for i in range(self.config.n_globals):
            size = rng.choice((4, 8, 16, 32))
            values = [rng.randrange(-100, 100) for _ in range(size)]
            constant = rng.random() < 0.4
            # Writable data arrays are externally observable (a real
            # program would print them); constant tables stay internal so
            # -globalopt / -constmerge / -globaldce have something to do.
            gv = GlobalVariable(f"g{i}", ty.array_type(ty.i32, size), values,
                                is_constant=constant,
                                linkage="internal" if constant else "external")
            module.add_global(gv)
        module.add_global(GlobalVariable("gs", ty.i32, rng.randrange(1, 50), linkage="external"))

    # -- helper functions ----------------------------------------------------------
    def _make_helper(self, module: Module, index: int) -> Function:
        rng = self.rng
        kind = rng.choice(("pure", "early_exit", "tail_recursive", "array_walker"))
        name = f"helper{index}"
        if kind == "tail_recursive":
            return self._make_tail_recursive(module, name)
        if kind == "early_exit":
            return self._make_early_exit(module, name)
        if kind == "array_walker":
            return self._make_array_walker(module, name)
        return self._make_pure(module, name)

    def _make_pure(self, module: Module, name: str) -> Function:
        rng = self.rng
        fw = CWriter(module, name, ty.i32, [ty.i32, ty.i32], ["a", "b"])
        acc = fw.local("acc", init=0)
        a, b = fw.args
        x = fw.b
        v = a
        for _ in range(rng.randrange(2, 6)):
            op = rng.choice(("add", "sub", "mul", "xor", "and", "or"))
            operand = b if rng.random() < 0.5 else x.const(rng.randrange(1, 17))
            v = getattr(x, op if op not in ("and", "or") else op + "_")(v, operand)
        fw.store_var(acc, v)
        fw.ret(fw.load_var(acc))
        fw.func.metadata["dbg"] = name
        return fw.func

    def _make_early_exit(self, module: Module, name: str) -> Function:
        rng = self.rng
        fw = CWriter(module, name, ty.i32, [ty.i32], ["n"])
        (n,) = fw.args
        x = fw.b
        threshold = rng.randrange(0, 8)
        cond = x.icmp("sle", n, x.const(threshold), "early")
        early_bb = fw.func.add_block("early")
        work_bb = fw.func.add_block("work")
        x.cbr(cond, early_bb, work_bb)
        x.position_at_end(early_bb)
        x.ret(x.const(rng.randrange(-5, 5)))
        x.position_at_end(work_bb)
        fw.b.position_at_end(work_bb)
        acc = fw.local("acc", init=1)
        with fw.loop("i", 0, rng.randrange(3, self.config.max_loop_trip)) as i:
            t = x.mul(fw.load_var(acc), x.add(i, x.const(1)))
            fw.store_var(acc, x.and_(t, x.const(0xFFFF)))
        fw.ret(fw.load_var(acc))
        return fw.func

    def _make_tail_recursive(self, module: Module, name: str) -> Function:
        rng = self.rng
        fw = CWriter(module, name, ty.i32, [ty.i32, ty.i32], ["n", "acc"])
        n, acc = fw.args
        x = fw.b
        done = x.icmp("sle", n, x.const(0), "done")
        base_bb = fw.func.add_block("base")
        rec_bb = fw.func.add_block("rec")
        x.cbr(done, base_bb, rec_bb)
        x.position_at_end(base_bb)
        x.ret(acc)
        x.position_at_end(rec_bb)
        k = rng.randrange(1, 7)
        new_acc = x.add(acc, x.mul(n, x.const(k)))
        new_n = x.sub(n, x.const(1))
        result = x.call(fw.func, [new_n, new_acc], name="rec")
        x.ret(result)
        return fw.func

    def _make_array_walker(self, module: Module, name: str) -> Function:
        rng = self.rng
        fw = CWriter(module, name, ty.i32, [ty.i32], ["salt"])
        (salt,) = fw.args
        x = fw.b
        gv = module.globals[f"g{rng.randrange(self.config.n_globals)}"]
        size = gv.value_type.count  # type: ignore[attr-defined]
        acc = fw.local("acc", init=0)
        with fw.loop("i", 0, size) as i:
            elem = fw.load_elem(gv, i)
            mixed = x.xor(elem, salt)
            fw.store_var(acc, x.add(fw.load_var(acc), mixed))
        fw.ret(fw.load_var(acc))
        return fw.func

    # -- main -------------------------------------------------------------------------
    def _make_main(self, module: Module, helpers: List[Function]) -> None:
        rng = self.rng
        fw = CWriter(module, "main", ty.i32, [], [], linkage="external")
        self._fw = fw
        self._helpers = helpers
        self._scalars: List[Value] = []
        self._arrays: List[Value] = list(module.globals.values())
        self._arrays = [g for g in module.globals.values() if g.value_type.is_array]

        for i in range(rng.randrange(2, 5)):
            self._scalars.append(fw.local(f"v{i}", init=rng.randrange(-20, 20)))
        if rng.random() < 0.6:
            arr = fw.local_array("buf", rng.choice((4, 8, 16)))
            self._arrays.append(arr)
            with fw.loop("init", 0, arr.allocated_type.count) as i:
                fw.store_elem(arr, i, rng.randrange(0, 64))

        self._gen_statements(rng.randrange(self.config.max_stmts // 2, self.config.max_stmts + 1),
                             depth=0)

        # Checksum: mix all scalars into the return value.
        x = fw.b
        total: Value = x.const(0)
        for ptr in self._scalars:
            total = x.add(total, fw.load_var(ptr))
        total = x.and_(total, x.const(0x7FFFFFF))
        fw.ret(total)

    # -- statements -----------------------------------------------------------------
    def _gen_statements(self, count: int, depth: int) -> None:
        for _ in range(count):
            self._gen_statement(depth)

    def _gen_statement(self, depth: int) -> None:
        rng = self.rng
        choices: List[Callable[[int], None]] = [self._stmt_assign, self._stmt_assign,
                                                self._stmt_array_write, self._stmt_call]
        if depth < self.config.max_depth:
            choices += [self._stmt_if, self._stmt_loop, self._stmt_loop]
            if rng.random() < 0.25:
                choices.append(self._stmt_switch)
        rng.choice(choices)(depth)

    def _rand_value(self, depth: int = 0) -> Value:
        """A random i32 expression over locals, array reads and constants."""
        rng = self.rng
        fw = self._fw
        x = fw.b
        roll = rng.random()
        if roll < 0.3 or depth > 2:
            if rng.random() < 0.5 and self._scalars:
                return fw.load_var(rng.choice(self._scalars))
            return x.const(rng.choice((0, 1, 2, 3, 5, 8, 16, rng.randrange(-99, 100))))
        if roll < 0.45 and self._arrays:
            arr = rng.choice(self._arrays)
            size = self._array_size(arr)
            idx_val = self._rand_value(depth + 1)
            idx = x.urem(idx_val, x.const(size), "idx")
            volatile = rng.random() < self.config.p_volatile
            load = x.load(fw.index(arr, idx), "elem", volatile=volatile)
            if volatile:
                load.metadata["atomic"] = True
            return load
        op = rng.choice(_BIN_OPS)
        lhs = self._rand_value(depth + 1)
        rhs = self._rand_value(depth + 1)
        if op in ("shl", "lshr", "ashr"):
            rhs = x.and_(rhs, x.const(7), "shamt")
        method = {"and": "and_", "or": "or_"}.get(op, op)
        result = getattr(x, method)(lhs, rhs)
        if rng.random() < 0.1:
            result.metadata["dbg"] = f"line{rng.randrange(1, 400)}"
        return result

    def _rand_cond(self) -> Value:
        x = self._fw.b
        cond = x.icmp(self.rng.choice(_CMP_PREDS), self._rand_value(), self._rand_value(), "c")
        if self.rng.random() < self.config.p_expect:
            cond = x.call("llvm.expect.i1", [cond, x.const(1, ty.i1)],
                          return_type=ty.i1, name="exp")
        return cond

    @staticmethod
    def _array_size(arr: Value) -> int:
        pointee = arr.type.pointee  # type: ignore[union-attr]
        return pointee.count

    def _stmt_assign(self, depth: int) -> None:
        if not self._scalars:
            return
        self._fw.store_var(self.rng.choice(self._scalars), self._rand_value())

    def _stmt_array_write(self, depth: int) -> None:
        rng = self.rng
        fw = self._fw
        x = fw.b
        writable = [a for a in self._arrays
                    if not (isinstance(a, GlobalVariable) and a.is_constant)]
        if not writable:
            return
        arr = rng.choice(writable)
        idx = x.urem(self._rand_value(), x.const(self._array_size(arr)), "wi")
        x.store(self._rand_value(), fw.index(arr, idx))

    def _stmt_call(self, depth: int) -> None:
        rng = self.rng
        fw = self._fw
        x = fw.b
        helper = rng.choice(self._helpers)
        n_params = len(helper.args)
        if helper.name.startswith("helper") and "acc" in [a.name for a in helper.args]:
            args = [x.const(rng.randrange(0, 12)), x.const(0)]  # bounded recursion depth
        else:
            args = [self._rand_value() for _ in range(n_params)]
        if rng.random() < self.config.p_invoke:
            normal = fw._new_block("inv.ok")
            unwind = fw._new_block("inv.uw")
            result = x.invoke(helper, args[:n_params], ty.i32, normal, unwind)
            x.position_at_end(unwind)
            x.unreachable()
            x.position_at_end(normal)
        else:
            result = x.call(helper, args[:n_params])
        if self._scalars:
            target = rng.choice(self._scalars)
            fw.store_var(target, x.add(fw.load_var(target), result))

    def _stmt_if(self, depth: int) -> None:
        rng = self.rng
        has_else = rng.random() < 0.5
        n_then = rng.randrange(1, 4)
        n_else = rng.randrange(1, 3)
        self._fw.if_(
            self._rand_cond(),
            lambda: self._gen_statements(n_then, depth + 1),
            (lambda: self._gen_statements(n_else, depth + 1)) if has_else else None,
        )

    def _stmt_loop(self, depth: int) -> None:
        rng = self.rng
        fw = self._fw
        trip = rng.randrange(2, self.config.max_loop_trip + 1)
        n_body = rng.randrange(1, 4)
        with fw.loop(f"l{depth}_{rng.randrange(1000)}", 0, trip) as iv:
            if self._scalars and rng.random() < 0.7:
                target = rng.choice(self._scalars)
                fw.store_var(target, fw.b.add(fw.load_var(target), iv))
            self._gen_statements(n_body, depth + 1)

    def _stmt_switch(self, depth: int) -> None:
        rng = self.rng
        fw = self._fw
        x = fw.b
        scrutinee = x.urem(self._rand_value(), x.const(8), "sw")
        n_cases = rng.randrange(2, 5)
        picks = rng.sample(range(8), n_cases)
        cases = [(c, (lambda: self._stmt_assign(depth + 1))) for c in picks]
        fw.switch(scrutinee, cases, lambda: self._stmt_assign(depth + 1))


def passes_hls_filter(module: Module, max_steps: int = 400_000) -> bool:
    """The paper's filter: drop programs that trap, loop too long, or fail HLS."""
    try:
        CycleProfiler(max_steps=max_steps).profile(module)
        return True
    except HLSCompilationError:
        return False


def generate_corpus(n: int, seed: int = 0, config: Optional[GeneratorConfig] = None,
                    max_steps: int = 400_000) -> List[Module]:
    """Generate ``n`` filtered random programs (deterministic in ``seed``)."""
    corpus: List[Module] = []
    attempt = 0
    while len(corpus) < n and attempt < 50 * max(n, 1):
        module = RandomProgramGenerator(seed * 1_000_003 + attempt, config).generate(
            name=f"rand_{seed}_{attempt}")
        attempt += 1
        if passes_hls_filter(module, max_steps=max_steps):
            corpus.append(module)
    if len(corpus) < n:
        raise RuntimeError(f"generator produced only {len(corpus)}/{n} viable programs")
    return corpus
