"""Bytes per IR instruction.

Every cold evaluation clones a module, the engine keeps clones as
prefix-trie snapshots, and the service pickles whole programs to its
workers, so the size of one instruction sets each process's memory
ceiling. A cloned instruction is its object, its name, one operand tuple,
one use list and one entry in the use list of each non-constant operand:
no per-user dict, no empty metadata dict, no use container on a constant.
On CPython 3.11 that is ~322 B per instruction over this corpus; the
dict-based layout it replaced took ~536 B.
"""

import gc
import tracemalloc

from repro.ir import clone_module
from repro.programs.generator import generate_corpus

BYTES_PER_INSTRUCTION = 360


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
