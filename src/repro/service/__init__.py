"""repro.service — the distributed evaluation service.

Scales the :class:`~repro.engine.EvaluationEngine` beyond one process
and one run. Three layers, all behind the same engine interface:

* **Sharded workers** (:mod:`.worker`, :mod:`.client`): programs are
  sharded across a pool of worker processes by program fingerprint;
  each worker owns a private ``HLSToolchain`` + ``EvaluationEngine``,
  so prefix-trie locality stays per-program per-worker and the GIL
  stops bounding batch throughput. Duplicate in-flight requests are
  coalesced onto one Future; per-worker submissions are batched into
  single messages.
* **Persistent store** (:mod:`.store`, :mod:`.fingerprint`): every
  result is appended to an on-disk JSONL shard keyed by
  ``(program fingerprint, toolchain fingerprint)`` and sequence —
  cycle counts survive across runs and are shared between RL training,
  the black-box baselines and the experiment drivers, including
  concurrent runs (append-only, torn-line-tolerant).
* **Standing service** (:mod:`.server`): ``repro serve`` exposes the
  whole stack on a Unix socket with a JSON-lines protocol, so many
  short-lived processes can share one warm pool and store.

Invariants inherited from the engine layer: results are bit-identical
to ``HLSToolchain(use_engine=False)``, cache hits (in-memory *or*
persistent) never count toward ``samples_taken``, and worker responses
report their true simulator invocations so cross-process sample
accounting stays exact.

Opt in without code changes via ``HLSToolchain(backend="service")`` or
``REPRO_EVAL_BACKEND=service``; programmatic use goes through
:class:`~repro.service.client.EvaluationClient`.
"""

from .client import EvaluationClient
from .fingerprint import program_fingerprint, toolchain_fingerprint
from .server import EvaluationServer, request, resolve_program_spec
from .store import ResultStore, default_store_dir

__all__ = ["EvaluationClient", "EvaluationServer", "ResultStore",
           "default_store_dir", "program_fingerprint",
           "toolchain_fingerprint", "request", "resolve_program_spec"]
