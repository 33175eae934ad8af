"""Bytes per IR instruction.

Every cold evaluation clones a module, the engine keeps clones as
prefix-trie snapshots, and the service pickles whole programs to its
workers, so the size of one instruction sets each process's memory
ceiling. A cloned instruction is its object, its name, one operand tuple,
one use list and one entry in the use list of each non-constant operand:
no per-user dict, no empty metadata dict, no use container on a constant.
On CPython 3.11 that is ~322 B per instruction over this corpus; the
dict-based layout it replaced took ~536 B.

What the process-global caches keep of a body is bounded too: a cache
key is a 16-byte structural digest, not a nested tuple with one entry
per instruction, and the compiled kernels share one scalar closure per
(opcode, types) instead of one per instruction.
"""

import gc
import random
import tracemalloc

from repro.features import shared_extractor
from repro.interp.interpreter import clear_plan_cache
from repro.interp.kernels import clear_kernel_cache
from repro.ir import clone_module
from repro.ir import types as ty
from repro.ir.folding import cast_fn, fcmp_fn, float_binop_fn, icmp_fn, int_binop_fn
from repro.passes import PASS_TABLE
from repro.programs.chstone import BENCHMARK_NAMES
from repro.programs.generator import generate_corpus
from repro.toolchain import HLSToolchain

BYTES_PER_INSTRUCTION = 360
# Bytes still held, after a search, whose allocation frame is in the key
# or closure code: 9 KiB with digests and shared closures, 1.5 MiB with
# tuple keys and a closure per instruction.
RETAINED_KEY_AND_CLOSURE_BYTES = 64 * 1024


def test_clone_module_bytes_per_instruction(benchmarks):
    sources = list(benchmarks.values()) + generate_corpus(8, 0)
    instructions = sum(m.instruction_count() for m in sources)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        clones = [clone_module(m) for m in sources]
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(c.instruction_count() for c in clones) == instructions
    per_instruction = allocated / instructions
    assert per_instruction <= BYTES_PER_INSTRUCTION, per_instruction


def test_caches_retain_digests_and_shared_closures(benchmarks):
    """9 programs x 8 random 12-pass sequences through one toolchain."""
    clear_kernel_cache()
    clear_plan_cache()
    shared_extractor().clear()
    rng = random.Random(38)
    transforms = [n for n in dict.fromkeys(PASS_TABLE) if n != "-terminate"]
    gc.collect()
    tracemalloc.start()
    try:
        toolchain = HLSToolchain()
        for name in BENCHMARK_NAMES:
            for _ in range(8):
                toolchain.cycle_count_with_passes(benchmarks[name],
                                                  rng.choices(transforms, k=12))
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces([
            tracemalloc.Filter(True, "*/hls/hashing.py"),
            tracemalloc.Filter(True, "*/ir/folding.py")])
    finally:
        tracemalloc.stop()
    assert toolchain.samples_taken > 0
    retained = sum(stat.size for stat in snapshot.statistics("filename"))
    assert retained <= RETAINED_KEY_AND_CLOSURE_BYTES, retained


def test_scalar_closures_are_shared():
    assert int_binop_fn("add", ty.i32) is int_binop_fn("add", ty.i32)
    assert float_binop_fn("fmul") is float_binop_fn("fmul")
    assert icmp_fn("slt", ty.i32) is icmp_fn("slt", ty.i32)
    assert fcmp_fn("olt") is fcmp_fn("olt")
    assert cast_fn("sext", ty.i8, ty.i32) is cast_fn("sext", ty.i8, ty.i32)
    assert int_binop_fn("add", ty.i32) is not int_binop_fn("add", ty.i64)
