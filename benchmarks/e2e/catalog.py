"""The benchmark's fixed points: workloads, frozen sizes, metric dictionary.

Everything a result must agree on to be comparable with another lives
here, and ``BENCHMARK.json`` at the repository root is rendered from it
(``run.py --write-spec``; the smoke test fails when the two drift).
Stdlib only — ``run.py`` imports this before it knows whether the
product is even present.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

RUN_SECONDS = 26
MIN_PASSES = 3

# name -> why (one line each; rendered into BENCHMARK.json verbatim)
WORKLOADS: Dict[str, str] = {
    "search_engine": (
        "GA search on the nine CHStone programs, in-process engine: divergent "
        "candidates, long pass suffixes, so passes does most of the cold work "
        "and service/deploy/rl none"),
    "search_service": (
        "the identical searches through the 2-worker service and its JSONL "
        "store: same engine behind fork, queues and pickling; cold writes the "
        "store, warm is a new client reading it"),
    "train_ppo": (
        "PPO on seeded random programs: each step extends a prefix by one pass "
        "and profiles, so simulator and IR cloning dominate cold, policy "
        "updates dominate warm; bypasses service/deploy"),
    "serve_optimize": (
        "optimize requests to a policy server over a 2-worker service: cold "
        "requests pay refine searches, warm requests only transport and policy "
        "forwards, so deploy does the warm work and the simulator none"),
}

# Frozen sizes. Two results are comparable only if these, the seed and the
# REPRO_* knobs are equal. Sized so that one pass (set-up + cold + warm +
# oracle) takes 5-7 s on the 2-core box and a run fits >= 3 passes in
# RUN_SECONDS plus one pass: the driver's budget is ~37 s per run.
# README, "sizes", says why each differs from the issue's first proposal.
_SEARCH = dict(programs=9, population=12, generations=4, sequence_length=12)
SIZES: Dict[str, Dict] = {
    "search_engine": dict(_SEARCH, warm_replays=24),
    "search_service": dict(_SEARCH, workers=2, warm_replays=8),
    "train_ppo": dict(corpus=6, corpus_target_insts=170,
                      episodes=48, episode_length=8, lanes=4, update_every=4,
                      hidden=[64, 64], warm_trainers=12),
    "serve_optimize": dict(programs=9, gen_specs=2, gen_draws=32,
                           gen_target_insts=220, train_episodes=6,
                           episode_length=12, hidden=[64, 64], workers=2,
                           refine=8, warm_rounds=60, burst_factor=3,
                           pings=200),
}
_SMOKE_SEARCH = dict(programs=2, population=6, generations=1,
                     sequence_length=12)
SMOKE_SIZES: Dict[str, Dict] = {
    "search_engine": dict(_SMOKE_SEARCH, warm_replays=3),
    "search_service": dict(_SMOKE_SEARCH, workers=2, warm_replays=2),
    "train_ppo": dict(corpus=2, corpus_target_insts=170,
                      episodes=4, episode_length=6, lanes=2, update_every=2,
                      hidden=[32, 32], warm_trainers=2),
    "serve_optimize": dict(programs=2, gen_specs=1, gen_draws=8,
                           gen_target_insts=220, train_episodes=2,
                           episode_length=6, hidden=[32, 32], workers=2,
                           refine=2, warm_rounds=3, burst_factor=2, pings=20),
}

# The generator settings behind train_ppo's corpus: CHStone-sized modules,
# no InvokeInst (README, first findings), and a simulation short enough
# that one profile costs what a CHStone one does. (serve_optimize's gen:<k>
# specs are built by the server with its defaults and filtered by size.)
GENERATOR = dict(p_invoke=0.0, max_stmts=8, max_depth=2, n_helpers=2,
                 n_globals=2, max_loop_trip=8)
GENERATOR_MAX_STEPS = 20_000
CORPUS_DRAWS = 24      # modules generated per seed; the corpus is picked from these
# Seeds of the algorithms under test that --seed does NOT vary: the cost of
# one RL trajectory is heavy-tailed (README, "what the seed varies").
TRAINER_SEED = 0
REQUEST_SEED = 0

# Environment knobs that change what the product executes; stamped into
# every result and compared before any ratio is printed.
KNOBS = ("REPRO_SIM_KERNELS", "REPRO_SIM_BATCH", "REPRO_SIM_SIMD",
         "REPRO_EVAL_BACKEND", "REPRO_TELEMETRY")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str          # "higher" | "lower"
    bound: float = 0.0   # end-to-end only: tolerated worsening, share of median
    exact: bool = False  # repeats bit for bit at a fixed seed
    source: str = ""     # where the number comes from (README dictionary)


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25, False,
           "driver: child spawn to first op issuable, median over passes"),
    Metric("cold_ops_per_s", "ops/s", "higher", 0.25, False,
           "successful cold ops / sum over units of the fastest pass's time"),
    Metric("warm_ops_per_s", "ops/s", "higher", 0.25, False,
           "successful warm ops / sum over units of the fastest replay's time"),
    Metric("cold_samples_per_op", "count", "lower", 0.1, True,
           "toolchain.samples_taken after the cold phase / cold ops"),
    Metric("qor_geomean_vs_o3", "ratio", "higher", 0.25, True,
           "geomean over programs of oracle -O3 cycles / returned cycles"),
    Metric("peak_rss_mb", "MB", "lower", 0.15, False,
           "getrusage max RSS of the pass child and its reaped children, "
           "median over passes"),
]


def _m(name: str, unit: str, better: str, source: str,
       exact: bool = False) -> Metric:
    return Metric(name, unit, better, 0.0, exact, source)


_C = "public counter"      # cache_info / samples_taken / stats, any pass
_S = "bench span"          # traced pass, self time or span count
_W = "phase wall"          # untraced passes, fastest
PER_LAYER: List[Metric] = [
    _m("programs.build_s", "s", "lower", "perf_counter around build/generate"),
    _m("programs.ir_insts", "count", "lower", "Module.instruction_count()", True),
    _m("ir.clone_s", "s", "lower", _S),
    _m("ir.clone_calls", "count", "lower", _S, True),
    _m("passes.run_s", "s", "lower", _S),
    _m("passes.run_calls", "count", "lower", _S, True),
    _m("passes.us_per_call", "us", "lower", _S),
    _m("passes.failed", "count", "lower", _S, True),
    _m("passes.slowest_share", "ratio", "lower", _S),
    _m("passes.ir_insts_after", "count", "lower", _S, True),
    _m("interp.run_s", "s", "lower", _S),
    _m("interp.run_calls", "count", "lower", _S, True),
    _m("interp.steps", "count", "lower", _S, True),
    _m("interp.steps_per_s", "1/s", "higher", _S),
    _m("interp.kernel_hits", "count", "higher", _C, True),
    _m("interp.kernel_misses", "count", "lower", _C, True),
    _m("interp.batch_lanes", "count", "lower", _C, True),
    _m("interp.batch_dedup_saved", "count", "higher", _C, True),
    _m("interp.simd_vectorized_ratio", "ratio", "higher", _C, True),
    _m("interp.simd_guard_fallbacks", "count", "lower", _C, True),
    _m("hls.profile_s", "s", "lower", _S),
    _m("hls.profile_calls", "count", "lower", _S, True),
    _m("hls.profile_batch_calls", "count", "lower", _S, True),
    _m("hls.profile_batch_lanes", "count", "lower", _S, True),
    _m("hls.schedule_cache_hit_ratio", "ratio", "higher",
       "profiler counters; relayed profile.* telemetry for workers", True),
    _m("hls.rejected", "count", "lower", _S, True),
    _m("features.extract_s", "s", "lower", _S),
    _m("features.extract_calls", "count", "lower", _S, True),
    _m("engine.self_s", "s", "lower", _S),
    _m("engine.memo_hits", "count", "higher", _C, True),
    _m("engine.memo_misses", "count", "lower", _C, True),
    _m("engine.trie_hits", "count", "higher", _C, True),
    _m("engine.snapshot_evictions", "count", "lower", _C, True),
    _m("engine.useful_ratio", "ratio", "higher", _C, True),
    _m("engine.warm_lookup_us", "us", "lower", _W),
    _m("engine.warm_samples", "count", "lower", _C, True),
    _m("service.spawn_s", "s", "lower", _S),
    _m("service.transport_self_s", "s", "lower", _S),
    _m("service.dispatched", "count", "lower", _C, True),
    _m("service.batches", "count", "lower", _C, True),
    _m("service.coalesced", "count", "higher", _C, True),
    _m("service.persistent_hits", "count", "higher", _C, True),
    _m("service.store_load_s", "s", "lower", _S),
    _m("service.store_append_s", "s", "lower", _S),
    _m("service.store_bytes", "count", "lower", "size of the store files", True),
    _m("service.worker_respawns", "count", "lower", _C, True),
    _m("service.worker_samples_max_share", "ratio", "lower", _C, True),
    _m("search.driver_self_s", "s", "lower", _S),
    _m("search.candidates", "count", "lower", _C, True),
    _m("search.duplicate_share", "ratio", "lower", _S, True),
    _m("rl.rollout_s", "s", "lower", "Trainer.seconds, cold"),
    _m("rl.update_s", "s", "lower", "Trainer.seconds, cold"),
    _m("rl.act_batch_s", "s", "lower", _S),
    _m("rl.act_batch_calls", "count", "lower", _S, True),
    _m("rl.evaluations", "count", "lower", _C, True),
    _m("rl.warm_rollout_s", "s", "lower", "Trainer.seconds, fastest warm trainer"),
    _m("rl.warm_update_s", "s", "lower", "Trainer.seconds, fastest warm trainer"),
    _m("rl.greedy_qor_vs_o3", "ratio", "higher",
       "geomean of -O3 cycles / the trained policy's own greedy cycles", True),
    _m("deploy.server_start_s", "s", "lower", "perf_counter in set-up"),
    _m("deploy.transport_us", "us", "lower", "ping round-trip p50"),
    _m("deploy.infer_s", "s", "lower", _S),
    _m("deploy.decide_s", "s", "lower", _S),
    _m("deploy.forwards_per_req", "count", "lower", "server stats", True),
    _m("deploy.waves", "count", "lower", "server stats", True),
    _m("deploy.max_batch", "count", "higher", "server stats"),
    _m("deploy.cold_p50_ms", "ms", "lower", "per-request latency, cold"),
    _m("deploy.cold_max_ms", "ms", "lower", "per-request latency, cold"),
    _m("deploy.unseen_cold_ms", "ms", "lower",
       "median cold latency of the gen:<k> requests (outside cold_ops_per_s)"),
    _m("deploy.warm_p50_ms", "ms", "lower", "per-request latency, warm"),
    _m("deploy.warm_p99_ms", "ms", "lower", "per-request latency, warm"),
    _m("deploy.burst_ops_per_s", "ops/s", "higher", "pipelined burst wall"),
    _m("deploy.burst_samples", "count", "lower", _C),
    _m("deploy.burst_solo_mismatch", "count", "lower", "burst vs cold decision"),
    _m("telemetry.trace_overhead_ratio", "ratio", "lower",
       "traced cold wall / fastest untraced cold wall"),
    _m("telemetry.spans", "count", "lower", _S),
    _m("bench.span_coverage", "ratio", "higher", _S),
    _m("bench.unattributed_s", "s", "lower", _S),
    _m("bench.cold_spread", "ratio", "lower", "IQR / median of pass cold walls"),
    _m("bench.warm_spread", "ratio", "lower", "IQR / median of pass warm walls"),
    _m("bench.cpu_s", "s", "lower", "getrusage self + children, per pass"),
    _m("bench.passes", "count", "higher", "untraced passes measured"),
    _m("bench.failed_share", "ratio", "lower", "failed ops / attempted ops", True),
]


def benchmark_spec() -> Dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
