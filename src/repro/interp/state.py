"""Runtime state for the IR interpreter: memory segments and pointers.

Memory is segmented: every alloca execution and every global variable gets
its own segment of scalar slots. A runtime pointer is (segment, offset).
Out-of-range accesses raise :class:`TrapError` — the generator's filter
discards programs that trap, mirroring the paper's "fails HLS compilation"
filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Union

__all__ = ["MemPointer", "Memory", "TrapError", "InterpreterLimitExceeded",
           "StepBudgetExceeded"]

Scalar = Union[int, float]


class TrapError(Exception):
    """Undefined behaviour the substrate refuses to paper over."""


class InterpreterLimitExceeded(Exception):
    """The step/recursion budget ran out (the '5 minutes on CPU' filter)."""


class StepBudgetExceeded(InterpreterLimitExceeded):
    """Specifically the *step* budget (not recursion depth) ran out.

    Distinguished so cache layers can record "this sequence merely timed
    out of its simulation budget" separately from genuine HLS failures
    (traps, scheduling errors); existing handlers that catch
    :class:`InterpreterLimitExceeded` keep working unchanged."""


@dataclass(frozen=True)
class MemPointer:
    """A runtime pointer value: segment id + slot offset."""

    segment: int
    offset: int

    def advanced(self, delta: int) -> "MemPointer":
        return MemPointer(self.segment, self.offset + delta)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ptr({self.segment}:{self.offset})"


NULL = MemPointer(-1, 0)


class Memory:
    """Segmented scalar memory with bounds checking."""

    def __init__(self) -> None:
        self._segments: Dict[int, List[Scalar]] = {}
        self._next_id = 0

    def allocate(self, size: int, fill: Scalar = 0) -> MemPointer:
        seg = self._next_id
        self._next_id += 1
        self._segments[seg] = [fill] * size
        return MemPointer(seg, 0)

    def allocate_init(self, values: List[Scalar]) -> MemPointer:
        seg = self._next_id
        self._next_id += 1
        self._segments[seg] = list(values)
        return MemPointer(seg, 0)

    def free(self, ptr: MemPointer) -> None:
        self._segments.pop(ptr.segment, None)

    def _slot(self, ptr: MemPointer) -> List[Scalar]:
        seg = self._segments.get(ptr.segment)
        if seg is None:
            raise TrapError(f"access to freed/invalid segment {ptr.segment}")
        if not (0 <= ptr.offset < len(seg)):
            raise TrapError(f"out-of-bounds access: offset {ptr.offset} in segment of {len(seg)} slots")
        return seg

    def load(self, ptr: MemPointer) -> Scalar:
        return self._slot(ptr)[ptr.offset]

    def store(self, ptr: MemPointer, value: Scalar) -> None:
        self._slot(ptr)[ptr.offset] = value

    def segment_values(self, segment: int) -> List[Scalar]:
        return list(self._segments[segment])

    def copy(self, dst: MemPointer, src: MemPointer, count: int) -> None:
        src_seg = self._segments.get(src.segment)
        dst_seg = self._segments.get(dst.segment)
        if src_seg is None or dst_seg is None:
            raise TrapError("memcpy with invalid segment")
        if src.offset + count > len(src_seg) or dst.offset + count > len(dst_seg):
            raise TrapError("memcpy out of bounds")
        data = src_seg[src.offset: src.offset + count]
        dst_seg[dst.offset: dst.offset + count] = data

    def fill(self, dst: MemPointer, value: Scalar, count: int) -> None:
        seg = self._segments.get(dst.segment)
        if seg is None:
            raise TrapError("memset with invalid segment")
        if dst.offset + count > len(seg):
            raise TrapError("memset out of bounds")
        seg[dst.offset: dst.offset + count] = [value] * count

    def digest(self) -> int:
        """Order-independent-ish content hash of all live segments.

        Used by differential tests to compare final memory states. Segment
        ids are allocation-order dependent, so we hash contents only per
        segment in sorted-id order; passes must not change allocation
        order observable through globals (globals are created first and
        deterministically).
        """
        items = []
        for seg_id in sorted(self._segments):
            values = self._segments[seg_id]
            items.append(hash(tuple(round(v, 9) if isinstance(v, float) else v for v in values)))
        return hash(tuple(items))
