"""The IR feature extractor — AutoPhase's observation function.

Produces the 56-element integer feature vector of Table 2.
Interpretation choices for ambiguous names (aligned with the released
AutoPhase LLVM pass):

* #15 "branches" counts *conditional* control transfers (conditional
  ``br`` plus ``switch``); #23 counts unconditional ``br``; #32 counts
  all ``br`` instructions.
* #19/#20 count operand *occurrences* of integer immediates by width;
  #21/#22 count occurrences of the values 0 and 1 at any width.
* #52 "memory instructions" = load + store + alloca.
* #55 "unary operations" = casts + fneg.

Every feature is a per-function quantity (there are no global-variable
features in Table 2), so the module vector **composes**: it is the sum
of the per-function vectors over ``module.defined_functions()``. That
composition rule is what makes extraction incremental —
:class:`FeatureExtractor` caches per-function vectors under the same
structural body hash the profiler's incremental scheduler uses
(:func:`repro.hls.hashing.module_structural_keys`, the one hash walk per
module version the profiler shares), so a pass application only
re-extracts the functions it actually changed, and clones of a function
(which rename every value) hit the cache of their original.

:func:`extract_features` stays the uncached reference walk; the cached
front door is :func:`features_for` (equivalently the shared
:class:`FeatureExtractor`), memoized per ``(module, Module.version)`` on
top of the function cache so back-to-back observations of an unmutated
module cost a dictionary lookup.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from ..analysis.cfg import critical_edges, predecessor_map
from ..hls.hashing import module_structural_keys
from ..ir.instructions import (
    BinaryOperator,
    BranchInst,
    CallInst,
    InvokeInst,
    SwitchInst,
)
from ..ir.module import Function, Module
from ..ir.values import ConstantFloat, ConstantInt
from .table import NUM_FEATURES

__all__ = ["extract_features", "function_features", "features_for",
           "FeatureExtractor", "shared_extractor"]

_OPCODE_FEATURES: Dict[str, int] = {
    "ashr": 25, "add": 26, "alloca": 27, "and": 28, "bitcast": 31,
    "br": 32, "call": 33, "gep": 34, "icmp": 35, "lshr": 36, "load": 37,
    "mul": 38, "or": 39, "phi": 40, "ret": 41, "sext": 42, "select": 43,
    "shl": 44, "store": 45, "sub": 46, "trunc": 47, "xor": 48, "zext": 49,
}


def function_features(func: Function) -> np.ndarray:
    """The 56-feature contribution of one defined function.

    The module vector is exactly ``sum(function_features(f) for f in
    module.defined_functions())`` — the composition rule the incremental
    extractor relies on.
    """
    f = np.zeros(NUM_FEATURES, dtype=np.int64)
    f[53] += 1  # non-external functions
    pred_map = predecessor_map(func)
    f[17] += len(critical_edges(func, pred_map))

    for bb in func.blocks:
        f[50] += 1
        preds = len(pred_map[bb])
        succs = len(bb.successors())
        f[18] += succs  # CFG edges, parallel ones included
        phis = bb.phis()
        phi_args = sum(len(p.incoming_blocks) for p in phis)

        if phi_args > 5:
            f[0] += 1
        elif phi_args >= 1:
            f[1] += 1
        if preds == 1:
            f[2] += 1
            if succs == 1:
                f[3] += 1
            if succs == 2:
                f[4] += 1
        if succs == 1:
            f[5] += 1
        if preds == 2:
            f[6] += 1
            if succs == 1:
                f[7] += 1
            if succs == 2:
                f[8] += 1
        if succs == 2:
            f[9] += 1
        if preds > 2:
            f[10] += 1
        n_phis = len(phis)
        if 0 < n_phis <= 3:
            f[11] += 1
        elif n_phis > 3:
            f[12] += 1
        else:
            f[13] += 1
        f[14] += n_phis
        f[54] += phi_args

        n_insts = len(bb.instructions)
        if 15 <= n_insts <= 500:
            f[29] += 1
        elif n_insts < 15:
            f[30] += 1

        for inst in bb.instructions:
            f[51] += 1
            idx = _OPCODE_FEATURES.get(inst.opcode)
            if idx is not None:
                f[idx] += 1
            if inst.opcode in ("load", "store", "alloca"):
                f[52] += 1
            if inst.is_unary_op:
                f[55] += 1

            if isinstance(inst, BranchInst):
                if inst.is_conditional:
                    f[15] += 1
                else:
                    f[23] += 1
            elif isinstance(inst, SwitchInst):
                f[15] += 1

            if isinstance(inst, (CallInst, InvokeInst)) and inst.type.is_int:
                f[16] += 1

            if isinstance(inst, BinaryOperator) and inst.has_constant_operand():
                f[24] += 1

            for op in inst.operands:
                if isinstance(op, ConstantInt):
                    if op.type.bits == 32:
                        f[19] += 1
                    elif op.type.bits == 64:
                        f[20] += 1
                    if op.value == 0:
                        f[21] += 1
                    elif op.value == 1:
                        f[22] += 1
                elif isinstance(op, ConstantFloat):
                    if op.value == 0.0:
                        f[21] += 1
                    elif op.value == 1.0:
                        f[22] += 1
    return f


def extract_features(module: Module) -> np.ndarray:
    """Return the 56-feature vector (dtype int64) for ``module``.

    This is the *uncached reference walk* — every function is extracted
    fresh. Hot paths (the RL observation function, the engine's feature
    queries) go through :func:`features_for` instead, which composes the
    same vector from cached per-function contributions.
    """
    f = np.zeros(NUM_FEATURES, dtype=np.int64)
    for func in module.defined_functions():
        f += function_features(func)
    return f


class FeatureExtractor:
    """Incremental, cached feature extraction — the one front door.

    Two cache layers, invalidated purely by content-addressing (no
    explicit invalidation hooks anywhere):

    * **function cache** — ``structural_key(func)`` → per-function
      vector, LRU-bounded, shared across modules and clones. A pass
      application only pays the walk for functions whose body hash
      changed; everything else (including every clone, which renames all
      values but preserves structure) is a lookup.
    * **module memo** — weakly keyed by the module object, holding the
      composed vector for the module's current ``Module.version`` (the
      PassManager bumps it per transform). Repeated observations of an
      unmutated module skip even the key computation.

    Returned vectors are marked read-only; callers that mutate must copy
    (the normalization layer copies by construction).
    """

    def __init__(self, max_functions: int = 8192) -> None:
        self._max_functions = max_functions
        self._functions: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
        # module -> (version, composed vector); entries die with the module
        self._modules: "weakref.WeakKeyDictionary[Module, Tuple[int, np.ndarray]]" = (
            weakref.WeakKeyDictionary())
        self._lock = threading.Lock()
        self.module_hits = 0
        self.module_misses = 0
        self.function_hits = 0
        self.function_misses = 0

    def __call__(self, module: Module, version: Optional[int] = None) -> np.ndarray:
        """Features of ``module``, cached for its current (or the given)
        ``version``. ``version`` defaults to ``module.version``; passing
        a stale version returns the memoized vector of that version if
        it is still the cached one (the legacy RL-env contract, where
        environments bumped an explicit counter per transformation), and
        a negative version keeps the legacy "bypass the module memo"
        meaning — the vector is recomposed on every call (the function
        hashes under it are still per ``Module.version``: mutate through
        a PassManager)."""
        if version is None:
            version = module.version
        elif version < 0:
            return self.extract(module)
        with self._lock:
            entry = self._modules.get(module)
            if entry is not None and entry[0] == version:
                self.module_hits += 1
                return entry[1]
            self.module_misses += 1
        vector = self.extract(module)
        vector.setflags(write=False)
        with self._lock:
            self._modules[module] = (version, vector)
        return vector

    def extract(self, module: Module) -> np.ndarray:
        """Compose the module vector from (cached) per-function vectors."""
        total = np.zeros(NUM_FEATURES, dtype=np.int64)
        for func, key in module_structural_keys(module).items():
            with self._lock:
                vector = self._functions.get(key)
                if vector is not None:
                    self._functions.move_to_end(key)
                    self.function_hits += 1
            if vector is None:
                vector = function_features(func)
                vector.setflags(write=False)
                with self._lock:
                    self.function_misses += 1
                    self._functions[key] = vector
                    while len(self._functions) > self._max_functions:
                        self._functions.popitem(last=False)
            total += vector
        return total

    # -- introspection -------------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        with self._lock:
            return {
                "feature_module_hits": self.module_hits,
                "feature_module_misses": self.module_misses,
                "feature_function_hits": self.function_hits,
                "feature_function_misses": self.function_misses,
                "feature_function_entries": len(self._functions),
            }

    def clear(self) -> None:
        with self._lock:
            self._functions.clear()
            self._modules = weakref.WeakKeyDictionary()


# The process-wide extractor every caller shares: the RL environments,
# the vectorized lanes, the evaluation engine and the service workers all
# route through this one instance, so a function body extracted anywhere
# is a cache hit everywhere (workers are separate processes and own their
# own instance of it).
_SHARED = FeatureExtractor()


def shared_extractor() -> FeatureExtractor:
    return _SHARED


def features_for(module: Module, version: Optional[int] = None) -> np.ndarray:
    """The cached front door: features of ``module`` at its current
    version through the shared extractor. The returned array is
    read-only — copy before mutating."""
    return _SHARED(module, version)
