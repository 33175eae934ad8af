"""Data-parallel simulation: lock-step batched execution of shared kernels.

Every GA/PSO generation, vec-env wave and ``evaluate_batch`` call scores
a population of candidate modules whose functions share structural
hashes — the kernel cache already dedups their *compilation*; this
module dedups and batches their *execution*:

* **Execution-signature dedup** — lanes whose modules are execution-
  equivalent (same global contents in allocation order, same defined
  functions by name and structural body hash) run once; the result fans
  back out with per-lane ``block_counts`` remapped onto each module's
  own :class:`BasicBlock` objects. Populations are full of such lanes:
  any pass that happens to be a no-op on a candidate yields a clone
  with a distinct cache key but an identical execution.
* **Lock-step SIMT execution** — distinct lanes whose *entry* functions
  share one compiled kernel execute the entry frame in lock step over a
  dense SoA register file (a 2-D ``numpy`` object array, one row per
  lane): waves group lanes by current block index, phi moves apply as
  batched column moves per predecessor edge, and a vectorized
  terminator step (:attr:`CompiledFunction` ``term_desc``) decodes once
  per wave to advance every lane's next-block index. Control flow
  diverges freely — the active mask is the wave partition itself, so
  lanes in different blocks retire independently.

Per-lane :class:`_ExecState` budgets keep :class:`StepBudgetExceeded`
raising at the identical step to a solo run (including the reference's
near-budget slow path), and a trap or HLS failure detaches its lane
without poisoning siblings.

Bit-identity contract (mirrors ``REPRO_SIM_KERNELS``): for any batch,
per-lane results equal what :class:`KernelInterpreter` produces module
by module — ``ExecutionResult.observable()``, ``steps``,
``block_counts``, ``call_counts``, ``output`` — or the lane fails with
the same error category. ``REPRO_SIM_BATCH=off|on|verify`` selects the
mode; it is deliberately NOT part of any cache key or fingerprint.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import telemetry as tm
from ..ir.module import Module
from .interpreter import ExecutionResult
from .kernels import KernelInterpreter, VerificationError, _error_category, \
    compiled_for
from .simd import sim_simd_mode
from .state import (
    InterpreterLimitExceeded,
    MemPointer,
    StepBudgetExceeded,
    TrapError,
)

__all__ = ["BatchedKernelExecutor", "sim_batch_mode", "sim_simd_mode",
           "batch_exec_info", "clear_batch_exec_stats"]

LaneOutcome = Union[ExecutionResult, BaseException]

_MISSING = object()


def sim_batch_mode(override: Optional[str] = None) -> str:
    """Resolve the batched-execution toggle: ``off`` (per-program
    kernels), ``on`` (dedup + lock-step batched execution, the default),
    or ``verify`` (run both, hard-fail on any divergence). Mirrors the
    ``REPRO_SIM_KERNELS`` contract: backends are bit-identical, so the
    mode stays out of every cache key and toolchain fingerprint."""
    mode = override if override is not None else os.environ.get("REPRO_SIM_BATCH", "on")
    mode = mode.strip().lower()
    if mode not in ("off", "on", "verify"):
        raise ValueError(f"REPRO_SIM_BATCH must be off|on|verify, got {mode!r}")
    return mode


# -- process-wide batching statistics (reported via engine.cache_info) --------

_stats_lock = threading.Lock()
_batch_runs = 0          # run_batch invocations
_batch_lanes = 0         # lanes submitted
_batch_executed = 0      # lanes actually executed (group representatives)
_batch_dedup_saved = 0   # lanes answered by a sibling's execution
_batch_fallbacks = 0     # singleton cohorts sent through the scalar kernel
# typed-SIMD tier coverage (counted per wave-segment execution, simd on)
_simd_segments_vectorized = 0  # planned segments executed as column ops
_simd_segments_scalar = 0      # segments executed through scalar closures
_simd_guard_fallbacks = 0      # planned segments bailed by a gather guard
_simd_column_ops = 0           # column ufunc dispatches issued


def batch_exec_info() -> Dict[str, object]:
    with _stats_lock:
        vec, scal = _simd_segments_vectorized, _simd_segments_scalar
        return {"batch_runs": _batch_runs,
                "batch_lanes": _batch_lanes,
                "batch_executed": _batch_executed,
                "batch_dedup_saved": _batch_dedup_saved,
                "batch_fallbacks": _batch_fallbacks,
                "simd_segments_vectorized": vec,
                "simd_segments_scalar": scal,
                "simd_guard_fallbacks": _simd_guard_fallbacks,
                "simd_column_ops": _simd_column_ops,
                "simd_vectorized_ratio":
                    round(vec / (vec + scal), 4) if vec + scal else 0.0,
                "batch_sig_memo_hits": _sig_memo_hits,
                "batch_sig_memo_misses": _sig_memo_misses}


def clear_batch_exec_stats() -> None:
    global _batch_runs, _batch_lanes, _batch_executed
    global _batch_dedup_saved, _batch_fallbacks
    global _simd_segments_vectorized, _simd_segments_scalar
    global _simd_guard_fallbacks, _simd_column_ops
    global _sig_memo_hits, _sig_memo_misses
    with _stats_lock:
        _batch_runs = _batch_lanes = _batch_executed = 0
        _batch_dedup_saved = _batch_fallbacks = 0
        _simd_segments_vectorized = _simd_segments_scalar = 0
        _simd_guard_fallbacks = _simd_column_ops = 0
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


# -- lock-step machinery -------------------------------------------------------

class _Lane:
    """One representative execution inside a lock-step cohort."""

    __slots__ = ("index", "ki", "bf", "st", "prev", "allocas", "value",
                 "error", "done")

    def __init__(self, index: int, ki: KernelInterpreter, entry: str) -> None:
        self.index = index
        self.ki = ki
        self.bf = ki._bound[entry]
        self.st = ki._state
        self.prev = -1
        self.allocas: Optional[List[MemPointer]] = None
        self.value = None
        self.error: Optional[BaseException] = None
        self.done = False


class BatchedKernelExecutor:
    """Executes a wave of modules through shared compiled kernels.

    ``run_batch`` never raises for a lane failure: each lane's outcome
    is its :class:`ExecutionResult` or the exception a solo
    :class:`KernelInterpreter` run would have raised (same category,
    same message), so one failing lane cannot poison its siblings.
    """

    def __init__(self, max_steps: int = 1_000_000,
                 max_call_depth: int = 64,
                 sim_simd: Optional[str] = None) -> None:
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
        self.sim_simd = sim_simd_mode(sim_simd)

    def run_batch(self, items: Sequence[Tuple[Module, Optional[Dict]]],
                  entry: str = "main") -> List[LaneOutcome]:
        """Execute every ``(module, structural_keys)`` lane; ``keys`` may
        be None (computed on demand, same as :class:`KernelInterpreter`)."""
        global _batch_runs, _batch_lanes, _batch_executed
        global _batch_dedup_saved, _batch_fallbacks

        n = len(items)
        outcomes: List[Optional[LaneOutcome]] = [None] * n
        with tm.span("batch_exec.run", lanes=n):
            # 1. group execution-equivalent lanes; remember each group's
            # entry-function structural key for cohort formation below
            groups: "Dict[Tuple, List[int]]" = {}
            order: List[Tuple] = []
            for i, (module, keys) in enumerate(items):
                sig = exec_signature(module, entry, keys)
                lanes = groups.get(sig)
                if lanes is None:
                    groups[sig] = [i]
                    order.append(sig)
                else:
                    lanes.append(i)
            with _stats_lock:
                _batch_runs += 1
                _batch_lanes += n
                _batch_executed += len(order)
                _batch_dedup_saved += n - len(order)
            for sig in order:
                tm.observe("batch_exec.group_size", len(groups[sig]))

            # 2. cohorts: group representatives by entry structural key —
            # lanes in one cohort share the entry kernel and run lock-step
            cohorts: "Dict[Tuple, List[int]]" = {}
            cohort_order: List[Tuple] = []
            for sig in order:
                rep = groups[sig][0]
                ekey = self._entry_key(sig, entry)
                members = cohorts.get(ekey)
                if members is None:
                    cohorts[ekey] = [rep]
                    cohort_order.append(ekey)
                else:
                    members.append(rep)

            # 3. execute representatives
            for ekey in cohort_order:
                reps = cohorts[ekey]
                if ekey is None or len(reps) == 1:
                    with _stats_lock:
                        _batch_fallbacks += len(reps)
                    tm.count("batch_exec.fallback", len(reps))
                    tm.observe("batch_exec.lanes_active", 1)
                    for rep in reps:
                        outcomes[rep] = self._run_scalar(items[rep], entry)
                else:
                    tm.observe("batch_exec.lanes_active", len(reps))
                    self._run_lockstep(reps, items, entry, outcomes)

            # 4. fan results back out to deduped lanes
            for sig in order:
                lanes = groups[sig]
                rep = lanes[0]
                result = outcomes[rep]
                for li in lanes[1:]:
                    if isinstance(result, ExecutionResult):
                        outcomes[li] = _remap_result(result, items[rep][0],
                                                     items[li][0])
                    else:
                        # equivalent failure: same object, same category
                        outcomes[li] = result
        return outcomes  # type: ignore[return-value]

    # -- helpers ------------------------------------------------------------
    @staticmethod
    def _entry_key(sig: Tuple, entry: str) -> Optional[Tuple]:
        """The entry function's structural key, or None when the entry is
        missing/declared (those lanes trap identically in _run_scalar)."""
        for part in sig[2]:
            if part[0] == 1 and part[1] == entry:
                return part[2]
        return None

    def _run_scalar(self, item: Tuple[Module, Optional[Dict]],
                    entry: str) -> LaneOutcome:
        module, keys = item
        try:
            return KernelInterpreter(
                module, max_steps=self.max_steps,
                max_call_depth=self.max_call_depth, keys=keys).run(entry)
        except Exception as exc:
            return exc

    # -- the lock-step core --------------------------------------------------
    def _run_lockstep(self, reps: List[int], items, entry: str,
                      outcomes: List[Optional[LaneOutcome]]) -> None:
        if self.sim_simd == "verify":
            # run the cohort through both tiers (independent interpreter
            # state each pass), cross-check every lane, anchor outcomes
            # to the scalar batched pass — the reference semantics
            typed: Dict[int, LaneOutcome] = {}
            scalar: Dict[int, LaneOutcome] = {}
            self._lockstep_pass(reps, items, entry, typed, True)
            self._lockstep_pass(reps, items, entry, scalar, False)
            self._verify_simd(reps, typed, scalar)
            for rep in reps:
                outcomes[rep] = scalar[rep]
            return
        sink: Dict[int, LaneOutcome] = {}
        self._lockstep_pass(reps, items, entry, sink, self.sim_simd == "on")
        for rep in reps:
            outcomes[rep] = sink[rep]

    def _lockstep_pass(self, reps: List[int], items, entry: str,
                       sink: Dict[int, LaneOutcome], use_simd: bool) -> None:
        # Per-lane setup mirrors KernelInterpreter.__init__/run exactly:
        # globals allocate in module order, every defined function binds.
        lanes: List[_Lane] = []
        for rep in reps:
            module, keys = items[rep]
            try:
                ki = KernelInterpreter(module, max_steps=self.max_steps,
                                       max_call_depth=self.max_call_depth,
                                       keys=keys)
                func = module.get_function(entry)
                if func is None or func.is_declaration:
                    raise TrapError(f"no defined entry function @{entry}")
            except Exception as exc:
                sink[rep] = exc
                continue
            lanes.append(_Lane(rep, ki, entry))
        if not lanes:
            return
        if len(lanes) == 1:
            # cohort collapsed to one live lane: the scalar kernel run it
            # would have taken anyway is the cheapest correct path
            lane = lanes[0]
            sink[lane.index] = self._run_scalar(items[lane.index], entry)
            return

        cf = lanes[0].bf.cf
        nl = len(lanes)
        # SoA register file: one dense row per lane. Rows are views, so
        # the scalar step closures write straight through to the 2-D
        # array the batched phi moves gather from.
        R = np.empty((nl, max(1, cf.nregs)), dtype=object)
        rows = [R[i] for i in range(nl)]
        # Typed tier: a dense int64 column file beside the object file.
        # Column plans gather from C unguarded for plan-defined slots, so
        # C rows parallel R rows one-to-one.
        use_cols = use_simd and cf.has_col_plans
        C = np.zeros((nl, max(1, cf.nregs)), dtype=np.int64) if use_cols \
            else None
        seg_stats = [0, 0, 0, 0] if use_simd else None

        with tm.span("batch_exec.execute", entry=entry, lanes=nl):
            self._drive(cf, lanes, R, rows, entry,
                        cf.col_plans if use_cols else None, C, seg_stats)

        if seg_stats is not None:
            self._flush_simd_stats(seg_stats)
        for lane in lanes:
            self._finish_one(lane, sink)

    @staticmethod
    def _flush_simd_stats(seg_stats: List[int]) -> None:
        global _simd_segments_vectorized, _simd_segments_scalar
        global _simd_guard_fallbacks, _simd_column_ops
        vec, scal, guards, ops = seg_stats
        with _stats_lock:
            _simd_segments_vectorized += vec
            _simd_segments_scalar += scal
            _simd_guard_fallbacks += guards
            _simd_column_ops += ops
        if vec:
            tm.count("batch_exec.simd_segments_vectorized", vec)
            tm.observe("batch_exec.simd_column_ops", ops)
        if scal:
            tm.count("batch_exec.simd_segments_scalar", scal)
        if guards:
            tm.count("batch_exec.simd_guard_fallbacks", guards)

    @staticmethod
    def _verify_simd(reps: List[int], typed: Dict[int, LaneOutcome],
                     scalar: Dict[int, LaneOutcome]) -> None:
        def fail(rep: int, what: str, a, b) -> None:
            raise VerificationError(
                f"REPRO_SIM_SIMD=verify: lane {rep} {what} diverged between "
                f"the typed tier and the scalar batched path: {a!r} != {b!r}")

        for rep in reps:
            t, s = typed[rep], scalar[rep]
            t_exc = isinstance(t, BaseException)
            s_exc = isinstance(s, BaseException)
            if t_exc != s_exc:
                fail(rep, "outcome kind", t, s)
            if t_exc:
                if _error_category(t) != _error_category(s):
                    fail(rep, "error category",
                         _error_category(t), _error_category(s))
                continue
            if t.observable() != s.observable():
                fail(rep, "observable state", t.observable(), s.observable())
            if t.steps != s.steps:
                fail(rep, "step count", t.steps, s.steps)
            if t.block_counts != s.block_counts:
                fail(rep, "block counts", t.block_counts, s.block_counts)
            if t.call_counts != s.call_counts:
                fail(rep, "call counts", t.call_counts, s.call_counts)
            if t.output != s.output:
                fail(rep, "output", t.output, s.output)

    def _finish_one(self, lane: _Lane, outcomes) -> None:
        if lane.error is not None:
            outcomes[lane.index] = lane.error
            return
        ki = lane.ki
        tm.count("kernel.steps", lane.st.steps)
        block_counts: Dict = {}
        for bf in ki._bound.values():
            for bb, count in zip(bf.src_blocks, bf.counts):
                if count:
                    block_counts[bb] = count
        outcomes[lane.index] = ExecutionResult(
            return_value=lane.value,
            steps=lane.st.steps,
            block_counts=block_counts,
            call_counts=dict(ki.call_counts),
            output=list(ki.output),
            memory_digest=ki._digest_globals(),
        )

    def _drive(self, cf, lanes: List[_Lane], R, rows, entry: str,
               col_plans: Optional[Tuple] = None, C=None,
               seg_stats: Optional[List[int]] = None) -> None:
        """The wave scheduler: one (block × batch) dispatch per wave."""
        # entry-frame prologue, identical to _BoundFunction.call
        active: List[int] = []
        for i, lane in enumerate(lanes):
            st = lane.st
            if 0 > st.max_depth:
                lane.error = InterpreterLimitExceeded(
                    f"call depth exceeded in @{lane.bf.name}")
                lane.done = True
                continue
            st.depth = 0
            cc = lane.bf.call_counts
            cc[lane.bf.name] = cc.get(lane.bf.name, 0) + 1
            if cf.alloca_slot >= 0:
                lane.allocas = []
                rows[i][cf.alloca_slot] = lane.allocas
            active.append(i)

        blocks = cf.blocks
        pending: Dict[int, List[int]] = {0: active} if active else {}

        def retire(i: int, value) -> None:
            lane = lanes[i]
            lane.value = value
            lane.done = True
            self._epilogue(lane)

        def detach(i: int, exc: BaseException) -> None:
            lane = lanes[i]
            lane.error = exc
            lane.done = True
            tm.count("batch_exec.detached")
            self._epilogue(lane)

        while pending:
            # widest wave first (ties: lowest block index) — any order is
            # correct, lanes share no mutable state
            bidx = min(pending, key=lambda b: (-len(pending[b]), b))
            wave = pending.pop(bidx)
            phi_edges, segments, term, term_counts, term_desc = blocks[bidx]
            for i in wave:
                lanes[i].bf.counts[bidx] += 1

            # -- batched phi moves, one column transfer per predecessor edge
            if phi_edges is not None:
                by_prev: Dict[int, List[int]] = {}
                for i in wave:
                    by_prev.setdefault(lanes[i].prev, []).append(i)
                for prev, ids in by_prev.items():
                    moves = phi_edges.get(prev, _MISSING)
                    if moves is _MISSING:
                        for i in ids:
                            detach(i, KeyError(prev))
                        continue
                    if type(moves) is str:
                        for i in ids:
                            detach(i, KeyError(moves))
                        continue
                    # simultaneous assignment: gather every column, then
                    # write — same read-then-write order as the scalar path
                    cols = []
                    trap_msg = None
                    for d, kind, val in moves:
                        if kind == 0:
                            cols.append((d, R[ids, val]))
                        elif kind == 1:
                            cols.append((d, val))
                        elif kind == 2:
                            cols.append((d, [lanes[i].bf.gv[val] for i in ids]))
                        else:
                            trap_msg = val
                            break
                    if trap_msg is not None:
                        for i in ids:
                            detach(i, TrapError(trap_msg))
                        continue
                    for d, vals in cols:
                        R[ids, d] = vals
                wave = [i for i in wave if not lanes[i].done]

            # -- straight-line segments: column plans over the active
            # lanes where the typed tier compiled one, op-major scalar
            # closures everywhere else
            block_plans = col_plans[bidx] if col_plans is not None else None
            for si, (nsteps, seg) in enumerate(segments):
                if not wave:
                    break
                # budget partition: lanes far from the budget pre-add the
                # whole segment; near-budget lanes take the reference's
                # per-op slow path so the raise lands on the exact step
                ctx = []
                for i in wave:
                    st = lanes[i].st
                    ns = st.steps + nsteps
                    if ns <= st.max_steps:
                        st.steps = ns
                        ctx.append((lanes[i].bf, rows[i], i))
                    else:
                        self._near_budget(lanes[i], rows[i], seg, detach, i)
                if ctx:
                    vectorized = False
                    plan = block_plans[si] if block_plans is not None else None
                    if plan is not None:
                        ids = np.fromiter((t[2] for t in ctx), dtype=np.intp,
                                          count=len(ctx))
                        if plan.execute(C, R, ids):
                            vectorized = True
                            seg_stats[0] += 1
                            seg_stats[3] += plan.nops
                        else:
                            # a gather guard saw a non-int value: run the
                            # segment through the scalar closures (exact
                            # reference semantics) and retire the plans
                            # for the rest of this drive — C would go
                            # stale, while R stays authoritative for
                            # every cross-segment operand
                            seg_stats[1] += 1
                            seg_stats[2] += 1
                            col_plans = None
                            block_plans = None
                    elif seg_stats is not None:
                        seg_stats[1] += 1
                    if not vectorized:
                        for f in seg:
                            died = False
                            for t in ctx:
                                try:
                                    f(t[0], t[1])
                                except Exception as exc:
                                    detach(t[2], exc)
                                    died = True
                            if died:
                                ctx = [t for t in ctx if not lanes[t[2]].done]
                                if not ctx:
                                    break
                wave = [i for i in wave if not lanes[i].done]

            if not wave:
                continue

            # -- terminator: one step of budget, then one decode per wave
            if term_counts:
                survivors = []
                for i in wave:
                    st = lanes[i].st
                    s = st.steps + 1
                    if s > st.max_steps:
                        detach(i, StepBudgetExceeded(
                            f"step budget exhausted in @{lanes[i].bf.name}"))
                    else:
                        st.steps = s
                        survivors.append(i)
                wave = survivors

            def advance(i: int, nxt: int) -> None:
                lanes[i].prev = bidx
                bucket = pending.get(nxt)
                if bucket is None:
                    pending[nxt] = [i]
                else:
                    bucket.append(i)

            if term_desc is None:
                # invoke / trapping or generic terminators: scalar closure
                for i in wave:
                    try:
                        transfer = term(lanes[i].bf, rows[i])
                    except Exception as exc:
                        detach(i, exc)
                        continue
                    if type(transfer) is int:
                        advance(i, transfer)
                    else:
                        retire(i, transfer[1])
                continue
            op = term_desc[0]
            if op == "br":
                nxt = term_desc[1]
                for i in wave:
                    advance(i, nxt)
            elif op == "cbr":
                _, slot, t, f = term_desc
                for i in wave:
                    advance(i, t if rows[i][slot] else f)
            elif op == "switch":
                _, slot, table, default = term_desc
                for i in wave:
                    try:
                        nxt = table.get(int(rows[i][slot]), default)
                    except Exception as exc:
                        detach(i, exc)
                        continue
                    advance(i, nxt)
            elif op == "ret_reg":
                slot = term_desc[1]
                for i in wave:
                    retire(i, rows[i][slot])
            else:  # ret_const
                value = term_desc[1]
                for i in wave:
                    retire(i, value)

    @staticmethod
    def _near_budget(lane: _Lane, row, seg, detach, i: int) -> None:
        """Reference increment order for a lane within one segment of its
        step budget: count-check-execute per op, raising on the exact
        step the solo run would."""
        st = lane.st
        bf = lane.bf
        try:
            for f in seg:
                s = st.steps + 1
                if s > st.max_steps:
                    raise StepBudgetExceeded(
                        f"step budget exhausted in @{bf.name}")
                st.steps = s
                f(bf, row)
        except Exception as exc:
            detach(i, exc)

    @staticmethod
    def _epilogue(lane: _Lane) -> None:
        """Entry-frame unwind, identical to _BoundFunction.call's finally:
        restore depth, free this frame's allocas (lane memory only — a
        detaching lane never touches its siblings)."""
        lane.st.depth = -1
        if lane.allocas:
            free = lane.bf.mem.free
            for ptr in lane.allocas:
                free(ptr)
