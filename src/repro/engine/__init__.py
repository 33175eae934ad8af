"""repro.engine — the memoized, prefix-sharing evaluation engine.

Every consumer of "cycles after this pass sequence" — the
:class:`~repro.toolchain.HLSToolchain` façade, the search baselines'
:class:`~repro.search.base.SequenceEvaluator`, and both RL environments —
funnels through one :class:`EvaluationEngine`, which layers three caches
over the compile-and-profile pipeline plus a batch API that profiles a
whole population's misses as one wave.

Cache-key / invalidation contract
=================================

**Effective sequence.** A pass manager reports, for every pass it runs,
whether the pass changed the module; ``False`` is a promise that the
module is exactly as it was (``Pass.run``'s docstring states the
contract, ``tests/test_pass_changed_contract.py`` pins it for every
registry pass). The *effective sequence* of a canonical sequence is that
sequence with every pass dropped that did nothing at the state it met —
``[a, x, b]`` becomes ``[a, b]`` whenever ``x`` did nothing after ``a``.
Applied to the base program both yield the same module, byte for byte,
so everything that depends only on the module — objective values,
failure sentinels, feature vectors, snapshots — may be shared between
them. That is the whole soundness argument; on a cold GA search about
three pass applications in four are such no-ops.

**Result memo.** First-level key: ``(id(base program), canonical sequence,
objective, area_weight, entry)``, where the canonical sequence is
terminate-truncated (everything at and after ``-terminate`` is dropped)
with Table-1 pass names normalized to their table index — so
``["-mem2reg"]``, ``[38]`` and ``[38, 45, 7]`` all share one entry. A warm
query stops there. On a miss the sequence is resolved through the trie
and looked up again under the same key built from its effective sequence
(itself a canonical sequence, so the two levels share one table and an
effective hit leaves an alias behind under the raw key). Values are
objective scalars or failure sentinels (:mod:`repro.engine.memo` maps
exceptions to sentinels and back), memoized at both levels and re-raised
on hit. Any non-HLS exception of a pass, a profile or a wave lane is an
:class:`EvaluationCrash` of that sequence alone, counted as
``internal_errors`` and never persisted; only a kernel
``VerificationError`` escapes. LRU-bounded by entry count.
**What counts as a sample:** only a profile. A memo hit at either level
never touches the toolchain, so it does **not** increment
``HLSToolchain.samples_taken`` — the paper's samples-per-program metric
counts true simulator invocations only, and a candidate that differs
from an evaluated one only in passes that did nothing is not a new
sample. ``memo_hits`` counts hits at both levels (``effective_hits``:
those found at the second), ``memo_misses`` the profiles; both are
counted once, after resolution, in ``cache_info()`` and telemetry alike.

**Prefix trie.** Per program; a node is a module *state*, its path from
the root the state's effective sequence. A pass that reported
``changed=False`` at a state is a self-loop there, not an edge.
``resolve`` walks a canonical sequence through known edges and known
no-ops without touching a module; a sequence that resolves entirely is
answered — if its effective key is memoized — with zero clones, zero
passes, zero profiles. Only an unknown ``(state, pass)`` pair costs a
clone of the deepest snapshot on the walk and a run of that one pass,
whose verdict the trie keeps; if the pass did nothing the walk goes on
without a module again. Nodes are promoted to module snapshots after
``snapshot_min_visits`` walks (at the divergence frontier and at stride
points, in effective coordinates), bounded engine-wide by snapshot-node
count (LRU eviction drops the snapshot, keeps the node). Snapshots are
immutable: the engine clones *from* them and never applies passes *to*
them, so there is nothing to invalidate — but this relies on callers
treating the **base program as immutable** too. Mutate clones
(``repro.ir.clone_module``), never the module you hand to the engine.
Ownership: a snapshot may be the very module an evaluation profiled
(profiling and feature extraction only read), installed as its leaf
without a clone whenever the visit-count rule promotes the leaf
(``snapshot_min_visits=1`` promotes every evaluated leaf at once: one
clone and one pass per step of an RL / inference chain). Modules that
*leave* the engine (``materialize``, ``evaluate_with_module``) are
private copies the caller may mutate freely. No module ever *enters*:
every caller — search, the vectorized and the sequential RL
environments, the policy runner — asks for a pass sequence, so every
edge and no-op the trie records is the verdict of a pass the engine ran
itself.

**Feature memo.** Key: ``(id(base program), canonical sequence)``, then
``(id(base program), effective sequence)`` — objective-independent,
since the Table-2 feature vector depends only on the optimized module.
``features_after`` / ``evaluate_with_features`` answer hits at either
level without materializing anything; misses clone from the deepest
trie snapshot and *compose* the vector from per-function
contributions cached in the process-wide
:func:`repro.features.shared_extractor` (same structural digest as
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

from .core import EvaluationEngine, canonicalize_sequence
from .memo import EngineStats, EvaluationCrash, ResultMemo
from .trie import PrefixTrie, SnapshotLRU

__all__ = ["EvaluationEngine", "EvaluationCrash", "canonicalize_sequence",
           "EngineStats", "ResultMemo", "PrefixTrie", "SnapshotLRU"]
