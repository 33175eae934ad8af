"""Content-addressed identities for programs and toolchain configs.

The persistent result store outlives any single process, so cached
values cannot be keyed by ``id(program)`` the way the in-memory engine
memo is. Instead every program gets a *fingerprint*: a digest over the
name-independent structural keys of its functions
(:func:`repro.hls.hashing.structural_key` tuples, the definition of body
equality behind every in-process cache key) plus its global-variable
contents. It hashes the tuples themselves, not the in-process 16-byte
digests, so the cache-key encoding never moves a store shard. Two
modules with equal fingerprints schedule and simulate identically, so
their cycle counts are interchangeable across processes and across runs
— and any structural change (a different benchmark build, an edited
generator) lands in a fresh cache namespace instead of serving stale
values.

The *toolchain* fingerprint captures everything else a cycle count
depends on: the pass table (index → pass meaning), the HLS constraints,
and the interpreter step budget (which decides what counts as an HLS
compilation failure). Store shards are named by both digests, so runs
with different clock targets or pass registries never share entries.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from typing import Tuple

from ..hls.hashing import structural_key
from ..ir.module import Module

__all__ = ["program_fingerprint", "toolchain_fingerprint"]

# Bump when the fingerprint encoding itself changes (old shards become
# unreachable rather than wrong).
_FINGERPRINT_VERSION = 1

# module -> (Module.version, fingerprint): every new client registers its
# programs again (a re-run over the store is a new client), and each
# registration would otherwise re-walk every function body.
_memo_lock = threading.Lock()
_memo: "weakref.WeakKeyDictionary[Module, Tuple[int, str]]" = weakref.WeakKeyDictionary()


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def program_fingerprint(module: Module) -> str:
    """Stable hex digest of a module's schedule-relevant structure.

    Name-independent for *local* values (clones fingerprint identically)
    but sensitive to function/global names, types, initializers and every
    instruction — anything the simulator or scheduler can observe.
    Memoized per ``(module, Module.version)``.
    """
    version = module.version
    with _memo_lock:
        entry = _memo.get(module)
    if entry is not None and entry[0] == version:
        return entry[1]
    escapes_memo: dict = {}
    globals_part = tuple(
        (gv.name, str(gv.value_type), gv.is_constant, gv.linkage,
         tuple(gv.initializer) if isinstance(gv.initializer, list) else gv.initializer)
        for gv in sorted(module.globals.values(), key=lambda g: g.name))
    funcs_part = []
    for func in sorted(module.functions.values(), key=lambda f: f.name):
        if func.is_declaration:
            funcs_part.append(("decl", func.name, str(func.ftype),
                               tuple(sorted(func.attributes))))
        else:
            funcs_part.append(("def", func.name,
                               structural_key(func, escapes_memo)))
    fingerprint = _digest(repr((_FINGERPRINT_VERSION, globals_part, tuple(funcs_part))))
    with _memo_lock:
        _memo[module] = (version, fingerprint)
    return fingerprint


def toolchain_fingerprint(toolchain) -> str:
    """Digest of the evaluation semantics a toolchain implements."""
    from ..passes.registry import PASS_TABLE

    profiler = toolchain.profiler
    return _digest(repr((_FINGERPRINT_VERSION, tuple(PASS_TABLE),
                         profiler.constraints, profiler.max_steps)))
