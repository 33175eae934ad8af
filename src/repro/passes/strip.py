"""-strip and -strip-nondebug: metadata removal.

The generators attach LLVM-style metadata to instructions, functions and
the module: debug locations (``dbg``), profiling hints (``prof``), TBAA
tags and source annotations. ``-strip`` removes everything including
debug info; ``-strip-nondebug`` removes everything *except* debug info.
Neither changes execution or cycles — their role in the action space is
exactly what it is in the paper: actions the agent must learn are
(mostly) neutral.
"""

from __future__ import annotations

from ..ir.module import Module
from .base import Pass, register_pass

__all__ = ["Strip", "StripNonDebug"]

_DEBUG_KEYS = ("dbg", "dbg.file", "dbg.line")


@register_pass
class Strip(Pass):
    name = "-strip"

    def run(self, module: Module) -> bool:
        changed = False
        if module.metadata:
            module.metadata.clear()
            changed = True
        for func in module.defined_functions():
            if func.metadata:
                func.metadata.clear()
                changed = True
            for inst in func.instructions():
                if inst._metadata:
                    inst._metadata = None
                    changed = True
        return changed


@register_pass
class StripNonDebug(Pass):
    name = "-strip-nondebug"

    def run(self, module: Module) -> bool:
        changed = False

        def filter_md(md: dict) -> bool:
            doomed = [k for k in md if k not in _DEBUG_KEYS]
            for k in doomed:
                del md[k]
            return bool(doomed)

        changed |= filter_md(module.metadata)
        for func in module.defined_functions():
            changed |= filter_md(func.metadata)
            for inst in func.instructions():
                if inst._metadata:
                    changed |= filter_md(inst._metadata)
        return changed
