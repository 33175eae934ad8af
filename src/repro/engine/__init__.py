"""repro.engine — the memoized, prefix-sharing evaluation engine.

Every consumer of "cycles after this pass sequence" — the
:class:`~repro.toolchain.HLSToolchain` façade, the search baselines'
:class:`~repro.search.base.SequenceEvaluator`, and both RL environments —
funnels through one :class:`EvaluationEngine`, which layers three caches
over the compile-and-profile pipeline plus a ``concurrent.futures``
batch API for scoring whole populations.

Cache-key / invalidation contract
=================================

**Result memo.** Key: ``(id(base program), canonical sequence, objective,
area_weight, entry)``, where the canonical sequence is terminate-truncated
(everything at and after ``-terminate`` is dropped) with Table-1 pass
names normalized to their table index — so ``["-mem2reg"]``, ``[38]`` and
``[38, 45, 7]`` all share one entry. Values are objective scalars;
sequences that raise :class:`~repro.hls.profiler.HLSCompilationError` are
memoized under a failure sentinel and re-raise on hit. LRU-bounded by
entry count. A memo hit never touches the toolchain, so it does **not**
increment ``HLSToolchain.samples_taken`` — the paper's samples-per-program
metric counts true simulator invocations only.

**Prefix trie.** Per program, keyed by canonical-sequence prefixes; nodes
promoted to module snapshots after ``snapshot_min_visits`` walks, bounded
engine-wide by snapshot-node count (LRU eviction drops the snapshot, keeps
the node). Snapshots are immutable: the engine clones *from* them and
never applies passes *to* them, so there is nothing to invalidate — but
this relies on callers treating the **base program as immutable** too.
Mutate clones (``repro.ir.clone_module``), never the module you hand to
the engine. Ownership: a snapshot may be the very module an evaluation
profiled (profiling and feature extraction only read), installed as its
leaf without a clone whenever the visit-count rule promotes the leaf
(``snapshot_min_visits=1`` promotes every evaluated leaf at once: one
clone and one pass per step of an RL / inference chain). Modules that
*leave* the engine (``materialize``, ``evaluate_with_module``) are
private copies the caller may mutate freely.

**Feature memo.** Key: ``(id(base program), canonical sequence)`` —
objective-independent, since the Table-2 feature vector depends only on
the optimized module. ``features_after`` / ``evaluate_with_features``
answer hits without materializing anything; misses clone from the
deepest trie snapshot and *compose* the vector from per-function
contributions cached in the process-wide
:func:`repro.features.shared_extractor` (same structural body hash as
the profiler's schedule cache, so only functions a pass actually changed
get re-walked). Feature queries never profile and never count toward
``samples_taken``.

**Profiler caches** (inside :class:`~repro.hls.profiler.CycleProfiler`):
per-function FSM state counts are keyed by a *structural hash* of the
function body (content-addressed — no invalidation needed); the hashes
of a module (:func:`repro.hls.hashing.module_structural_keys`, shared
with the feature extractor and the kernel caches) and its burst-slot
means are keyed by ``(module, Module.version)``. ``Module.version`` is
bumped by the PassManager after every pass, so in-place mutation must go
through a PassManager (as ``HLSToolchain.apply_passes`` does) for the
version key to stay honest.

Engine cache-hit statistics live in ``engine.stats`` /
``engine.cache_info()`` and are reported alongside ``samples_taken``.
"""

from .core import BatchEvaluationError, EvaluationEngine, canonicalize_sequence
from .memo import EngineStats, ResultMemo
from .trie import PrefixTrie, SnapshotLRU

__all__ = ["EvaluationEngine", "BatchEvaluationError", "canonicalize_sequence",
           "EngineStats", "ResultMemo", "PrefixTrie", "SnapshotLRU"]
