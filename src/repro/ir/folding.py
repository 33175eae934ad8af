"""Single source of truth for scalar operation semantics.

Both the IR interpreter and every constant-folding pass (instcombine,
SCCP, GVN, ...) evaluate operations through these functions, so a folded
constant can never disagree with what execution would have produced —
the property the differential-testing harness relies on.

Deliberate total-function choices (documented for reviewers):

* ``sdiv``/``udiv``/``srem``/``urem`` by zero evaluate to 0 instead of
  trapping. The random program generator cannot always prove divisors
  non-zero, and a total semantics keeps every generated program a valid
  HLS input (hardware dividers return *something*; we pick 0
  deterministically).
* Shift amounts are taken modulo the bit width (as hardware shifters do)
  instead of producing poison.
* Signed division truncates toward zero (C semantics), not Python floor.
"""

from __future__ import annotations

import functools
import math
from typing import Union

from . import types as ty

__all__ = ["eval_int_binop", "eval_float_binop", "eval_icmp", "eval_fcmp", "eval_cast",
           "int_binop_fn", "float_binop_fn", "icmp_fn", "fcmp_fn", "cast_fn"]

Number = Union[int, float]


def _to_unsigned(value: int, bits: int) -> int:
    return value & ((1 << bits) - 1)


def eval_int_binop(opcode: str, type_: ty.IntType, a: int, b: int) -> int:
    bits = type_.bits
    if opcode == "add":
        r = a + b
    elif opcode == "sub":
        r = a - b
    elif opcode == "mul":
        r = a * b
    elif opcode == "sdiv":
        if b == 0:
            r = 0
        else:
            q = abs(a) // abs(b)
            r = -q if (a < 0) != (b < 0) else q
    elif opcode == "udiv":
        ua, ub = _to_unsigned(a, bits), _to_unsigned(b, bits)
        r = 0 if ub == 0 else ua // ub
    elif opcode == "srem":
        if b == 0:
            r = 0
        else:
            q = abs(a) // abs(b)
            q = -q if (a < 0) != (b < 0) else q
            r = a - b * q
    elif opcode == "urem":
        ua, ub = _to_unsigned(a, bits), _to_unsigned(b, bits)
        r = 0 if ub == 0 else ua % ub
    elif opcode == "and":
        r = _to_unsigned(a, bits) & _to_unsigned(b, bits)
    elif opcode == "or":
        r = _to_unsigned(a, bits) | _to_unsigned(b, bits)
    elif opcode == "xor":
        r = _to_unsigned(a, bits) ^ _to_unsigned(b, bits)
    elif opcode == "shl":
        r = _to_unsigned(a, bits) << (_to_unsigned(b, bits) % bits)
    elif opcode == "lshr":
        r = _to_unsigned(a, bits) >> (_to_unsigned(b, bits) % bits)
    elif opcode == "ashr":
        r = a >> (_to_unsigned(b, bits) % bits)
    else:
        raise ValueError(f"unknown integer binop: {opcode}")
    return type_.wrap(r)


def eval_float_binop(opcode: str, a: float, b: float) -> float:
    if opcode == "fadd":
        return a + b
    if opcode == "fsub":
        return a - b
    if opcode == "fmul":
        return a * b
    if opcode == "fdiv":
        if b == 0.0:
            # IEEE semantics: inf/nan; keep them (floats never feed
            # branches in generated programs without an fcmp first).
            return math.inf if a > 0 else (-math.inf if a < 0 else math.nan)
        return a / b
    raise ValueError(f"unknown float binop: {opcode}")


def eval_icmp(pred: str, type_: ty.IntType, a: int, b: int) -> bool:
    bits = type_.bits
    if pred == "eq":
        return a == b
    if pred == "ne":
        return a != b
    if pred == "slt":
        return a < b
    if pred == "sle":
        return a <= b
    if pred == "sgt":
        return a > b
    if pred == "sge":
        return a >= b
    ua, ub = _to_unsigned(a, bits), _to_unsigned(b, bits)
    if pred == "ult":
        return ua < ub
    if pred == "ule":
        return ua <= ub
    if pred == "ugt":
        return ua > ub
    if pred == "uge":
        return ua >= ub
    raise ValueError(f"unknown icmp predicate: {pred}")


def eval_fcmp(pred: str, a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return False  # all our predicates are "ordered"
    if pred == "oeq":
        return a == b
    if pred == "one":
        return a != b
    if pred == "olt":
        return a < b
    if pred == "ole":
        return a <= b
    if pred == "ogt":
        return a > b
    if pred == "oge":
        return a >= b
    raise ValueError(f"unknown fcmp predicate: {pred}")


def eval_cast(opcode: str, src_type: ty.Type, dest_type: ty.Type, value: Number) -> Number:
    if opcode == "trunc":
        assert isinstance(dest_type, ty.IntType)
        return dest_type.wrap(int(value))
    if opcode == "zext":
        assert isinstance(src_type, ty.IntType) and isinstance(dest_type, ty.IntType)
        return dest_type.wrap(_to_unsigned(int(value), src_type.bits))
    if opcode == "sext":
        assert isinstance(dest_type, ty.IntType)
        return dest_type.wrap(int(value))
    if opcode == "bitcast":
        return value
    if opcode == "sitofp":
        return float(int(value))
    if opcode == "fptosi":
        assert isinstance(dest_type, ty.IntType)
        if math.isnan(value) or math.isinf(value):
            return 0
        return dest_type.wrap(int(value))
    raise ValueError(f"unknown cast opcode: {opcode}")


# -- specialized closures -----------------------------------------------------
# The compiled-kernel interpreter (repro.interp.kernels) dispatches through
# pre-bound per-instruction closures instead of re-selecting the opcode path
# on every executed step. These factories are the closure-producing view of
# the eval_* functions above and MUST agree with them bit for bit (the
# parity property is pinned by tests/test_kernels.py); the scalar coercions
# (`int()`/`float()`) that the reference interpreter applies at its call
# sites are folded into the closures so callers can pass raw runtime values.
# A closure depends only on the factory's arguments (an opcode or predicate
# and interned types), so each factory is memoized: every compiled kernel
# shares one closure per (opcode, types) instead of holding its own.

@functools.cache
def int_binop_fn(opcode: str, type_: ty.IntType):
    """A closure ``f(a, b)`` equal to ``eval_int_binop(opcode, type_, int(a), int(b))``.

    The two's-complement wrap (``IntType.wrap``) is inlined into each
    closure — ``v &= mask; v -= size if the sign bit is set`` — so the hot
    path performs no attribute lookups or extra calls. ``half`` is 0 for
    1-bit types, where wrap degenerates to ``v & 1``."""
    bits = type_.bits
    mask = (1 << bits) - 1
    half = (1 << (bits - 1)) if bits > 1 else 0
    size = 1 << bits
    if opcode == "add":
        return lambda a, b: (v - size if (v := (int(a) + int(b)) & mask) & half else v)
    if opcode == "sub":
        return lambda a, b: (v - size if (v := (int(a) - int(b)) & mask) & half else v)
    if opcode == "mul":
        return lambda a, b: (v - size if (v := (int(a) * int(b)) & mask) & half else v)
    if opcode == "sdiv":
        def sdiv(a, b):
            a, b = int(a), int(b)
            if b == 0:
                return 0
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            q &= mask
            return q - size if q & half else q
        return sdiv
    if opcode == "udiv":
        def udiv(a, b):
            ub = int(b) & mask
            if ub == 0:
                return 0
            v = (int(a) & mask) // ub
            return v - size if v & half else v
        return udiv
    if opcode == "srem":
        def srem(a, b):
            a, b = int(a), int(b)
            if b == 0:
                return 0
            q = abs(a) // abs(b)
            q = -q if (a < 0) != (b < 0) else q
            v = (a - b * q) & mask
            return v - size if v & half else v
        return srem
    if opcode == "urem":
        def urem(a, b):
            ub = int(b) & mask
            if ub == 0:
                return 0
            v = (int(a) & mask) % ub
            return v - size if v & half else v
        return urem
    if opcode == "and":
        return lambda a, b: (v - size if (v := int(a) & int(b) & mask) & half else v)
    if opcode == "or":
        return lambda a, b: (v - size if (v := (int(a) | int(b)) & mask) & half else v)
    if opcode == "xor":
        return lambda a, b: (v - size if (v := (int(a) ^ int(b)) & mask) & half else v)
    if opcode == "shl":
        return lambda a, b: (v - size
                             if (v := ((int(a) & mask) << ((int(b) & mask) % bits)) & mask) & half
                             else v)
    if opcode == "lshr":
        return lambda a, b: (v - size
                             if (v := (int(a) & mask) >> ((int(b) & mask) % bits)) & half
                             else v)
    if opcode == "ashr":
        return lambda a, b: (v - size
                             if (v := (int(a) >> ((int(b) & mask) % bits)) & mask) & half
                             else v)
    raise ValueError(f"unknown integer binop: {opcode}")


@functools.cache
def float_binop_fn(opcode: str):
    """A closure ``f(a, b)`` equal to ``eval_float_binop(opcode, float(a), float(b))``."""
    if opcode == "fadd":
        return lambda a, b: float(a) + float(b)
    if opcode == "fsub":
        return lambda a, b: float(a) - float(b)
    if opcode == "fmul":
        return lambda a, b: float(a) * float(b)
    if opcode == "fdiv":
        def fdiv(a, b):
            a, b = float(a), float(b)
            if b == 0.0:
                return math.inf if a > 0 else (-math.inf if a < 0 else math.nan)
            return a / b
        return fdiv
    raise ValueError(f"unknown float binop: {opcode}")


@functools.cache
def icmp_fn(pred: str, type_: ty.IntType):
    """A closure ``f(a, b)`` equal to ``eval_icmp(pred, type_, int(a), int(b))``."""
    mask = (1 << type_.bits) - 1
    if pred == "eq":
        return lambda a, b: int(a) == int(b)
    if pred == "ne":
        return lambda a, b: int(a) != int(b)
    if pred == "slt":
        return lambda a, b: int(a) < int(b)
    if pred == "sle":
        return lambda a, b: int(a) <= int(b)
    if pred == "sgt":
        return lambda a, b: int(a) > int(b)
    if pred == "sge":
        return lambda a, b: int(a) >= int(b)
    if pred == "ult":
        return lambda a, b: (int(a) & mask) < (int(b) & mask)
    if pred == "ule":
        return lambda a, b: (int(a) & mask) <= (int(b) & mask)
    if pred == "ugt":
        return lambda a, b: (int(a) & mask) > (int(b) & mask)
    if pred == "uge":
        return lambda a, b: (int(a) & mask) >= (int(b) & mask)
    raise ValueError(f"unknown icmp predicate: {pred}")


@functools.cache
def fcmp_fn(pred: str):
    """A closure ``f(a, b)`` equal to ``eval_fcmp(pred, float(a), float(b))``."""
    if pred not in ("oeq", "one", "olt", "ole", "ogt", "oge"):
        raise ValueError(f"unknown fcmp predicate: {pred}")
    return lambda a, b, _p=pred: eval_fcmp(_p, float(a), float(b))


@functools.cache
def cast_fn(opcode: str, src_type: ty.Type, dest_type: ty.Type):
    """A closure ``f(v)`` equal to ``eval_cast(opcode, src_type, dest_type, v)``
    for non-pointer runtime values (the pointer cases stay with the caller)."""
    if opcode == "bitcast":
        return lambda v: v
    if opcode == "sitofp":
        return lambda v: float(int(v))
    bits = dest_type.bits
    mask = (1 << bits) - 1
    half = (1 << (bits - 1)) if bits > 1 else 0
    size = 1 << bits
    if opcode == "trunc" or opcode == "sext":
        return lambda v: (w - size if (w := int(v) & mask) & half else w)
    if opcode == "zext":
        src_mask = (1 << src_type.bits) - 1
        return lambda v: (w - size if (w := int(v) & src_mask & mask) & half else w)
    if opcode == "fptosi":
        def fptosi(v):
            if math.isnan(v) or math.isinf(v):
                return 0
            w = int(v) & mask
            return w - size if w & half else w
        return fptosi
    raise ValueError(f"unknown cast opcode: {opcode}")
