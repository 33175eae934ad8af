"""External (library/intrinsic) functions known to the toolchain.

These model the libm/libc surface CHStone-style HLS kernels touch, plus
the LLVM intrinsics some passes introduce (``memset``/``memcpy`` from
-loop-idiom and -memcpyopt, ``llvm.expect`` from profile annotations that
``-lower-expect`` strips).

Each entry carries:
* an evaluation function over runtime scalars (used by the interpreter),
* attribute flags (``readnone``/``readonly``) consumed by CSE/LICM/DSE
  and the scheduler,
* a latency entry lives separately in :mod:`repro.hls.delays`.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet

from .state import Memory, MemPointer, TrapError

__all__ = ["EXTERNAL_ATTRIBUTES", "call_external", "is_known_external"]

# Attribute sets: readnone = no memory access at all; readonly = reads only.
EXTERNAL_ATTRIBUTES: Dict[str, FrozenSet[str]] = {
    "sqrt": frozenset({"readnone"}),
    "fabs": frozenset({"readnone"}),
    "sin": frozenset({"readnone"}),
    "cos": frozenset({"readnone"}),
    "exp": frozenset({"readnone"}),
    "log": frozenset({"readnone"}),
    "abs": frozenset({"readnone"}),
    "min": frozenset({"readnone"}),
    "max": frozenset({"readnone"}),
    "llvm.expect.i32": frozenset({"readnone"}),
    "llvm.expect.i1": frozenset({"readnone"}),
    "llvm.memset": frozenset(),
    "llvm.memcpy": frozenset(),
    "putchar": frozenset(),  # writes the output stream
}


def is_known_external(name: str) -> bool:
    return name in EXTERNAL_ATTRIBUTES


def call_external(name: str, args, memory: Memory, output: list) -> object:
    """Evaluate an external call. ``output`` collects observable writes."""
    if name == "sqrt":
        x = float(args[0])
        return math.sqrt(x) if x >= 0 else math.nan
    if name == "fabs":
        return abs(float(args[0]))
    if name == "sin":
        return math.sin(float(args[0]))
    if name == "cos":
        return math.cos(float(args[0]))
    if name == "exp":
        x = float(args[0])
        return math.exp(x) if x < 700 else math.inf
    if name == "log":
        x = float(args[0])
        if x > 0:
            return math.log(x)
        return -math.inf if x == 0 else math.nan
    if name == "abs":
        return abs(int(args[0]))
    if name == "min":
        return min(int(args[0]), int(args[1]))
    if name == "max":
        return max(int(args[0]), int(args[1]))
    if name in ("llvm.expect.i32", "llvm.expect.i1"):
        return args[0]  # value passthrough; the hint is metadata-only
    if name == "llvm.memset":
        dst, value, count = args
        if not isinstance(dst, MemPointer):
            raise TrapError("memset destination is not a pointer")
        memory.fill(dst, int(value), int(count))
        return None
    if name == "llvm.memcpy":
        dst, src, count = args
        if not isinstance(dst, MemPointer) or not isinstance(src, MemPointer):
            raise TrapError("memcpy operand is not a pointer")
        memory.copy(dst, src, int(count))
        return None
    if name == "putchar":
        output.append(int(args[0]) & 0xFF)
        return int(args[0])
    raise TrapError(f"call to unknown external function @{name}")
