"""Batched simulation: execution-signature dedup over a wave of modules.

Every GA/PSO generation, vec-env wave and ``evaluate_batch`` call scores
a population of candidate modules. The kernel cache already dedups their
*compilation* (one kernel per structural body hash); this module dedups
their *execution*: lanes whose modules are execution-equivalent (same
global contents in allocation order, same defined functions by name and
structural body hash) run once, and the result fans back out with
per-lane ``block_counts`` remapped onto each module's own
:class:`BasicBlock` objects. Populations are full of such lanes: any
pass that happens to be a no-op on a candidate yields a clone with a
distinct cache key but an identical execution.

Each distinct signature is one ordinary :class:`KernelInterpreter` run,
so a batch of one *is* the single-program case: same step budget, same
raise point, same error — and, with nothing to dedup against, no
signature is computed for it. A failing lane's outcome is its exception;
it never poisons siblings.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import telemetry as tm
from ..ir.module import Module
from .interpreter import ExecutionResult
from .kernels import KernelInterpreter, run_outcome

__all__ = ["BatchedKernelExecutor", "batch_exec_info",
           "clear_batch_exec_stats"]

LaneOutcome = Union[ExecutionResult, BaseException]


# -- process-wide batching statistics (reported via engine.cache_info) --------

_stats_lock = threading.Lock()
_batch_runs = 0          # run_batch invocations
_batch_lanes = 0         # lanes submitted
_batch_executed = 0      # lanes actually executed (group representatives)
_batch_dedup_saved = 0   # lanes answered by a sibling's execution


def batch_exec_info() -> Dict[str, object]:
    with _stats_lock:
        return {"batch_runs": _batch_runs,
                "batch_lanes": _batch_lanes,
                "batch_executed": _batch_executed,
                "batch_dedup_saved": _batch_dedup_saved,
                "batch_sig_memo_hits": _sig_memo_hits,
                "batch_sig_memo_misses": _sig_memo_misses}


def clear_batch_exec_stats() -> None:
    global _batch_runs, _batch_lanes, _batch_executed, _batch_dedup_saved
    global _sig_memo_hits, _sig_memo_misses
    with _stats_lock:
        _batch_runs = _batch_lanes = _batch_executed = 0
        _batch_dedup_saved = 0
    with _sig_lock:
        _sig_memo_hits = _sig_memo_misses = 0
        _sig_memo.clear()


# -- execution signatures ------------------------------------------------------

# exec_signature memo, keyed per (module, Module.version): repeated waves
# over unchanged candidates (vec-env steps re-submitting survivors, GA
# elites) skip re-flattening every global initializer. PassManager bumps
# ``Module.version`` on mutation, which is the invalidation contract.
_sig_lock = threading.Lock()
_sig_memo: "weakref.WeakKeyDictionary[Module, Tuple]" = weakref.WeakKeyDictionary()
_sig_memo_hits = 0
_sig_memo_misses = 0


def exec_signature(module: Module, entry: str,
                   keys: Optional[Dict] = None) -> Tuple:
    """Hashable identity of everything an execution can observe: globals
    in *allocation order* (segment ids are observable through pointer
    values), declarations by name, defined functions by (name,
    structural body hash), and the entry point. Equal signatures imply
    bit-identical executions. Memoized per ``(module, Module.version)``."""
    global _sig_memo_hits, _sig_memo_misses
    version = module.version
    with _sig_lock:
        memo = _sig_memo.get(module)
        if memo is not None and memo[0] == version:
            sig = memo[1].get(entry)
            if sig is not None:
                _sig_memo_hits += 1
                return sig
    sig = _compute_signature(module, entry, keys)
    with _sig_lock:
        _sig_memo_misses += 1
        memo = _sig_memo.get(module)
        if memo is not None and memo[0] == version:
            memo[1][entry] = sig
        else:
            _sig_memo[module] = (version, {entry: sig})
    return sig


def _compute_signature(module: Module, entry: str,
                       keys: Optional[Dict]) -> Tuple:
    from ..hls.hashing import module_structural_keys

    if not keys:
        keys = module_structural_keys(module)
    globals_part = tuple(
        (gv.name, gv.linkage, tuple(gv.flat_initializer()))
        for gv in module.globals.values())
    funcs_part = []
    for func in module.functions.values():
        if func.is_declaration:
            funcs_part.append((0, func.name))
        else:
            funcs_part.append((1, func.name, keys[func]))
    return (entry, globals_part, tuple(funcs_part))


def _remap_result(result: ExecutionResult, src: Module,
                  dst: Module) -> ExecutionResult:
    """A deduped lane's result, rekeyed onto its own module's blocks.

    Equal execution signatures pin every defined function to the same
    block-list shape, so blocks align positionally per function name."""
    block_counts: Dict = {}
    for func in src.defined_functions():
        dst_func = dst.get_function(func.name)
        for sbb, dbb in zip(func.blocks, dst_func.blocks):
            count = result.block_counts.get(sbb)
            if count:
                block_counts[dbb] = count
    return ExecutionResult(
        return_value=result.return_value,
        steps=result.steps,
        block_counts=block_counts,
        call_counts=dict(result.call_counts),
        output=list(result.output),
        memory_digest=result.memory_digest,
    )


# -- the executor --------------------------------------------------------------

class BatchedKernelExecutor:
    """Executes a wave of modules, one kernel run per distinct execution.

    ``run_batch`` never raises for a lane failure: each lane's outcome
    is its :class:`ExecutionResult` or the exception a solo
    :class:`KernelInterpreter` run would have raised (same category,
    same message), so one failing lane cannot poison its siblings.
    """

    def __init__(self, max_steps: int = 1_000_000,
                 max_call_depth: int = 64) -> None:
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth

    def run_batch(self, items: Sequence[Tuple[Module, Optional[Dict]]],
                  entry: str = "main") -> List[LaneOutcome]:
        """Execute every ``(module, structural_keys)`` lane; ``keys`` may
        be None (computed on demand, same as :class:`KernelInterpreter`)."""
        global _batch_runs, _batch_lanes, _batch_executed, _batch_dedup_saved

        n = len(items)
        outcomes: List[Optional[LaneOutcome]] = [None] * n
        with tm.span("batch_exec.run", lanes=n):
            # group execution-equivalent lanes; the first lane of each
            # group is its representative. A lone lane has nothing to
            # share a run with, so it skips its signature.
            groups: "Dict[Optional[Tuple], List[int]]" = {}
            for i, (module, keys) in enumerate(items):
                sig = exec_signature(module, entry, keys) if n > 1 else None
                groups.setdefault(sig, []).append(i)
            with _stats_lock:
                _batch_runs += 1
                _batch_lanes += n
                _batch_executed += len(groups)
                _batch_dedup_saved += n - len(groups)

            for lanes in groups.values():
                tm.observe("batch_exec.group_size", len(lanes))
                rep = lanes[0]
                module, keys = items[rep]
                result = outcomes[rep] = run_outcome(
                    KernelInterpreter, module, entry,
                    max_steps=self.max_steps,
                    max_call_depth=self.max_call_depth, keys=keys)
                for li in lanes[1:]:
                    if isinstance(result, ExecutionResult):
                        outcomes[li] = _remap_result(result, module,
                                                     items[li][0])
                    else:
                        # equivalent failure: same object, same category
                        outcomes[li] = result
        return outcomes  # type: ignore[return-value]
