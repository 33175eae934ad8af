"""Content-addressed identities for programs and toolchain configs.

The persistent result store outlives any single process, so cached
values cannot be keyed by ``id(program)`` the way the in-memory engine
memo is. Instead every program gets a *fingerprint*: a digest over the
name-independent structural keys of its functions (the same encoding the
profiler's incremental-scheduling cache trusts) plus its global-variable
contents. Two modules with equal fingerprints schedule and simulate
identically, so their cycle counts are interchangeable across processes
and across runs — and any structural change (a different benchmark
build, an edited generator) lands in a fresh cache namespace instead of
serving stale values.

The *toolchain* fingerprint captures everything else a cycle count
depends on: the pass table (index → pass meaning), the HLS constraints,
and the interpreter step budget (which decides what counts as an HLS
compilation failure). Store shards are named by both digests, so runs
with different clock targets or pass registries never share entries.
"""

from __future__ import annotations

import hashlib

from ..hls.hashing import module_structural_keys
from ..ir.module import Module

__all__ = ["program_fingerprint", "toolchain_fingerprint"]

# Bump when the fingerprint encoding itself changes (old shards become
# unreachable rather than wrong).
_FINGERPRINT_VERSION = 1


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def program_fingerprint(module: Module) -> str:
    """Stable hex digest of a module's schedule-relevant structure.

    Name-independent for *local* values (clones fingerprint identically)
    but sensitive to function/global names, types, initializers and every
    instruction — anything the simulator or scheduler can observe.
    """
    keys = module_structural_keys(module)
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
            funcs_part.append(("def", func.name, keys[func]))
    return _digest(repr((_FINGERPRINT_VERSION, globals_part, tuple(funcs_part))))


def toolchain_fingerprint(toolchain) -> str:
    """Digest of the evaluation semantics a toolchain implements."""
    from ..passes.registry import PASS_TABLE

    profiler = toolchain.profiler
    return _digest(repr((_FINGERPRINT_VERSION, tuple(PASS_TABLE),
                         profiler.constraints, profiler.max_steps)))
