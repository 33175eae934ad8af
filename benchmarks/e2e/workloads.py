"""The four workloads, each driven through the public user-level API.

A workload is set-up -> cold phase (empty caches, empty store, freshly
spawned workers/server) -> warm phase (the identical op stream replayed
against the filled caches) -> counters -> teardown -> untimed oracle.
Work is fixed by ``catalog.SIZES``; ``--seed`` only generates inputs.

Every phase is a set of *units* (one program's search, one training
run, one request round). A unit's time is recorded per repetition; the
driver later takes each unit's fastest repetition across passes, so a
neighbour's burst has to hit the same unit in every pass to show.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

from repro import telemetry as tm
from repro.deploy import InferenceClient, ModelRegistry, PolicyServer
from repro.deploy.policy import PolicyRunner, PolicySpec
from repro.hls.profiler import HLSCompilationError
from repro.ir.instructions import InvokeInst
from repro.programs import chstone, generator
from repro.rl.trainer import Trainer
from repro.search.base import SequenceEvaluator
from repro.search.genetic import GAConfig, genetic_search
from repro.service.server import resolve_program_spec
from repro.toolchain import HLSToolchain

import catalog
import oracle

GA_SEED_POOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "ga_seeds.json")


class Phase:
    def __init__(self, name: str) -> None:
        self.name = name
        self.units: Dict[str, List[float]] = defaultdict(list)
        self.unit_ops: Dict[str, int] = {}   # successful ops per repetition
        self.attempted = 0
        self.ok = 0
        self.samples = 0
        self.t0 = self.t1 = 0.0

    def to_json(self) -> Dict:
        return {"units": dict(self.units), "unit_ops": self.unit_ops,
                "attempted": self.attempted, "ok": self.ok,
                "samples": self.samples, "wall_s": self.t1 - self.t0}


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True,
                                     default=repr).encode()).hexdigest()


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def tail_percentile(values: List[float]) -> float:
    """The highest percentile with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 50.0):
        if len(values) * (100.0 - q) / 100.0 >= 10:
            return percentile(values, q)
    return max(values) if values else 0.0


class Workload:
    """Phase bookkeeping, the outcome ledger and the shared counters."""

    def __init__(self, name: str, seed: int, sizes: Dict, workdir: str,
                 tracer) -> None:
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.tracer = tracer
        self.phases: Dict[str, Phase] = {}
        self.failures: List[Dict] = []
        self.counters: Dict[str, float] = {}
        self.invariants: Dict[str, bool] = {}
        self.extra: Dict = {}

    @contextmanager
    def phase(self, name: str):
        phase = self.phases[name] = Phase(name)
        self.tracer.op = name
        phase.t0 = time.perf_counter()
        try:
            # the phase's root span: its self time is what no layer claims
            with self.tracer.span("bench", name):
                yield phase
        finally:
            phase.t1 = time.perf_counter()

    def fail(self, phase: str, program: str, request, exc: BaseException,
             outcome: str = "crashed") -> None:
        self.failures.append({
            "outcome": outcome, "phase": phase, "program": program,
            "request": request, "exception": type(exc).__name__,
            "message": str(exc)[:2000]})

    def engine_counters(self, toolchain: HLSToolchain, ops: int) -> None:
        """Cold-phase cache counters of ``toolchain`` (worker engines
        folded in by ``cache_info`` on the service backend)."""
        info = toolchain.cache_info()
        c = self.counters
        for key in ("memo_hits", "memo_misses", "trie_hits",
                    "snapshot_evictions"):
            c[f"engine.{key}"] = info.get(key, 0)
        for key in ("kernel_hits", "kernel_misses", "batch_lanes",
                    "batch_dedup_saved", "simd_guard_fallbacks"):
            c[f"interp.{key}"] = info.get(key, 0)
        vec = info.get("simd_segments_vectorized", 0)
        scal = info.get("simd_segments_scalar", 0)
        c["interp.simd_vectorized_ratio"] = vec / (vec + scal) if vec + scal else 0.0
        samples = toolchain.samples_taken
        c["engine.useful_ratio"] = 1.0 - samples / ops if ops else 0.0
        hits = toolchain.profiler.schedule_cache_hits
        misses = toolchain.profiler.schedule_cache_misses
        if tm.trace_enabled():
            # relay pass: the workers' profilers have no public counter,
            # but their telemetry registries ride the reply tuples
            for record in tm.collect_snapshots():
                snap = record["snapshot"]
                if record["proc"] != f"pid:{os.getpid()}":
                    hits += snap["counters"].get("profile.schedule_hits", 0)
                    misses += snap["histograms"].get(
                        "profile.reschedule.seconds", {}).get("count", 0)
        c["hls.schedule_hits"], c["hls.schedule_misses"] = hits, misses
        if toolchain.backend == "service":
            c["service.dispatched"] = info.get("dispatched_requests", 0)
            c["service.batches"] = info.get("service_batches", 0)
            c["service.coalesced"] = info.get("coalesced_requests", 0)
            c["service.persistent_hits"] = info.get("persistent_hits", 0)
            c["service.worker_respawns"] = info.get("worker_respawns", 0)
            per_worker = [w["samples"] for w in toolchain.engine.worker_info()]
            c["service.worker_samples_max_share"] = (
                max(per_worker) / sum(per_worker) if sum(per_worker) else 0.0)
            root = toolchain.engine.store.root
            c["service.store_bytes"] = sum(
                os.path.getsize(os.path.join(root, f))
                for f in (os.listdir(root) if os.path.isdir(root) else ()))

    # -- the protocol a pass runs ---------------------------------------------
    def setup(self) -> None: ...
    def cold(self) -> None: ...
    def warm(self) -> None: ...
    def burst(self) -> None: ...
    def teardown(self) -> None: ...
    def oracle_rows(self) -> List[Dict]: ...
    def result_digest(self) -> str: ...


# ---------------------------------------------------------------------------
# search_engine / search_service
# ---------------------------------------------------------------------------

class Search(Workload):
    backend = "engine"

    def setup(self) -> None:
        s = self.sizes
        self.names = list(chstone.BENCHMARK_NAMES[:s["programs"]])
        # The seed picks each program's GA seed from a pool vetted at the
        # defining commit: ~1 random GA seed in 20 runs into a product
        # crash that kills the whole search (README, first findings).
        with open(GA_SEED_POOL, encoding="utf-8") as fh:
            pool = json.load(fh)["seeds"]
        rng = np.random.default_rng([self.seed, 0])
        self.ga_seeds = {n: pool[n][int(rng.integers(len(pool[n])))]
                         for n in self.names}
        t = time.perf_counter()
        self.modules = {n: chstone.build(n) for n in self.names}
        self.counters["programs.build_s"] = time.perf_counter() - t
        self.counters["programs.ir_insts"] = sum(
            m.instruction_count() for m in self.modules.values())
        self.config = GAConfig(population=s["population"],
                               generations=s["generations"],
                               sequence_length=s["sequence_length"])
        self.budget = s["population"] * (s["generations"] + 1)
        self.toolchain = self.make_toolchain()

    def make_toolchain(self) -> HLSToolchain:
        if self.backend == "engine":
            return HLSToolchain(backend="engine")
        return HLSToolchain(backend="service", service_config=dict(
            workers=self.sizes["workers"],
            store_dir=os.path.join(self.workdir, "store")))

    def searches(self, phase: Phase, toolchain: HLSToolchain) -> Dict:
        """One GA search per program; a search that raises fails every
        op of its budget it had not yet completed."""
        found: Dict[str, Optional[Dict]] = {}
        for name in self.names:
            if phase.name == "warm" and self.found[name] is None:
                # a search that crashed cold crashes again, and a crash is
                # not memoized: its budget fails, nothing is replayed
                found[name] = None
                phase.attempted += self.budget
                continue
            module = self.modules[name]
            # ours, so the ops a crashed search did finish stay countable
            evaluator = SequenceEvaluator(module, toolchain)
            self.tracer.op = f"{phase.name}/{name}"
            t = time.perf_counter()
            try:
                with self.tracer.span("search", "genetic_search"):
                    result = genetic_search(module, self.config, toolchain,
                                            seed=self.ga_seeds[name],
                                            evaluator=evaluator)
                found[name] = {"cycles": result.best_cycles,
                               "sequence": result.best_sequence,
                               "history": result.history}
            except Exception as exc:
                found[name] = None
                self.fail(phase.name, name,
                          {"ga_seed": self.ga_seeds[name],
                           "sequence": getattr(exc, "sequence", None)}, exc)
            phase.units[name].append(time.perf_counter() - t)
            phase.unit_ops[name] = evaluator.samples
            phase.attempted += self.budget
            phase.ok += evaluator.samples
        return found

    def cold(self) -> None:
        with self.phase("cold") as phase:
            self.found = self.searches(phase, self.toolchain)
        phase.samples = self.toolchain.samples_taken
        self.counters["search.candidates"] = phase.ok
        self.engine_counters(self.toolchain, phase.ok)

    def warm(self) -> None:
        # Same toolchain AND the same Module objects: the in-process
        # engine keys programs by object, a rebuilt module is a cold miss.
        before = self.toolchain.samples_taken
        same = True
        with self.phase("warm") as phase:
            for _ in range(self.sizes["warm_replays"]):
                same &= self.searches(phase, self.toolchain) == self.found
        phase.samples = self.toolchain.samples_taken - before
        self.invariants["warm_equals_cold"] = same

    def teardown(self) -> None:
        self.toolchain.close()

    def oracle_rows(self) -> List[Dict]:
        return [{"program": name, "module": self.modules[name],
                 "sequence": hit["sequence"], "cycles": hit["cycles"]}
                for name, hit in self.found.items() if hit is not None]

    def result_digest(self) -> str:
        return digest(self.found)


class SearchService(Search):
    backend = "service"

    def warm(self) -> None:
        # Cross-run persistence: every replay is a NEW toolchain/client
        # over the store the cold phase filled, as a user's re-run is.
        self.toolchain.close()
        same = True
        with self.phase("warm") as phase:
            for _ in range(self.sizes["warm_replays"]):
                toolchain = self.make_toolchain()
                try:
                    same &= self.searches(phase, toolchain) == self.found
                    phase.samples += toolchain.samples_taken
                finally:
                    toolchain.close()
        self.invariants["warm_equals_cold"] = same


# ---------------------------------------------------------------------------
# train_ppo
# ---------------------------------------------------------------------------

class TrainPPO(Workload):
    def setup(self) -> None:
        s = self.sizes
        t = time.perf_counter()
        # The seed draws the training programs: of the modules generated
        # from it, the ``corpus`` closest to the target size — per-op cost
        # follows IR size, and the size of a random draw spans 4x.
        drawn = generator.generate_corpus(
            catalog.CORPUS_DRAWS, self.seed,
            config=generator.GeneratorConfig(**catalog.GENERATOR),
            max_steps=catalog.GENERATOR_MAX_STEPS)
        self.corpus = sorted(
            drawn, key=lambda m: abs(m.instruction_count()
                                     - s["corpus_target_insts"])
        )[:s["corpus"]]
        self.counters["programs.build_s"] = time.perf_counter() - t
        self.counters["programs.ir_insts"] = sum(
            m.instruction_count() for m in self.corpus)
        self.toolchain = HLSToolchain(backend="engine")
        self.nominal_ops = s["episodes"] * (s["episode_length"] + 1)

    def train(self, phase: Phase) -> Optional[Dict]:
        s = self.sizes
        # The cold run is one 2-3 s call; its public events stream (one
        # record per rollout wave and policy update, each with its own
        # wall-clock) splits it into units small enough that some pass
        # finds each of them undisturbed.
        events = (os.path.join(self.workdir, "events.jsonl")
                  if phase.name == "cold" else None)
        t = time.perf_counter()
        trainer = None
        try:
            with self.tracer.span("rl", "train"):
                trainer = self.last = Trainer(
                    "RL-PPO2", self.corpus, episodes=s["episodes"],
                    episode_length=s["episode_length"], lanes=s["lanes"],
                    update_every=s["update_every"], observation="both",
                    normalization="log", hidden=tuple(s["hidden"]),
                    episode_seeding=True, seed=catalog.TRAINER_SEED,
                    toolchain=self.toolchain, events_path=events)
                result = trainer.train()
            summary = {"cycles": result.best_cycles,
                       "sequence": result.best_sequence,
                       "rewards": result.episode_rewards,
                       "evaluations": result.samples}
            phase.attempted += result.samples
        except Exception as exc:
            # the run's remaining budgeted ops fail with it
            summary = None
            phase.attempted += self.nominal_ops
            self.fail(phase.name, "corpus",
                      {"corpus_seed": self.seed,
                       "sequence": getattr(exc, "sequence", None)}, exc)
        done = trainer.vec.evaluations if trainer is not None else 0
        rest = time.perf_counter() - t
        if events is not None and os.path.exists(events):
            with open(events, encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh]
            for kind in ("wave", "update"):
                timed = [r[f"{kind}_seconds"] for r in records
                         if r["event"] == kind]
                for i, seconds in enumerate(timed):
                    phase.units[f"{kind}{i}"].append(seconds)
                    phase.unit_ops[f"{kind}{i}"] = 0
                    rest -= seconds
        # what the events do not cover (construction, bookkeeping), or the
        # whole run when there are none; the run's ops are booked here
        phase.units["train"].append(rest)
        phase.unit_ops["train"] = done
        phase.ok += min(done, self.nominal_ops) if summary is None else done
        return summary

    def cold(self) -> None:
        with self.phase("cold") as phase:
            self.summary = self.train(phase)
        # train() zeroes the sample counter when it starts
        phase.samples = self.toolchain.samples_taken
        self.trained = self.last
        self.counters["rl.evaluations"] = self.trained.vec.evaluations
        self.counters["rl.rollout_s"] = self.trained.seconds["rollout"]
        self.counters["rl.update_s"] = self.trained.seconds["update"]
        self.engine_counters(self.toolchain, phase.ok)

    def warm(self) -> None:
        same = True
        seconds = []
        with self.phase("warm") as phase:
            for _ in range(self.sizes["warm_trainers"]):
                if self.summary is None:    # crashed cold: would crash again
                    phase.attempted += self.nominal_ops
                    continue
                same &= self.train(phase) == self.summary
                phase.samples += self.toolchain.samples_taken
                seconds.append(dict(self.last.seconds))
        self.invariants["warm_equals_cold"] = same
        if seconds:
            fastest = min(seconds, key=lambda s: s["total"])
            self.counters["rl.warm_rollout_s"] = fastest["rollout"]
            self.counters["rl.warm_update_s"] = fastest["update"]
        # What the run produced: the trained policy's greedy sequence per
        # corpus program, product-scored here, oracle-scored later.
        runner = PolicyRunner(self.trained.agent,
                              PolicySpec.from_trainer(self.trained),
                              toolchain=self.toolchain)
        self.greedy = []
        for module, sequence in zip(self.corpus,
                                    runner.infer_batch(self.corpus)):
            try:
                cycles = self.toolchain.cycle_count_with_passes(module, sequence)
            except HLSCompilationError:
                cycles = None
            # scored as `repro optimize` would serve it: the policy's
            # sequence or -O3, whichever wins (raw ratio kept per row)
            self.greedy.append({"program": module.name, "module": module,
                                "sequence": sequence, "cycles": cycles,
                                "fallback_o3": True})

    def teardown(self) -> None:
        self.toolchain.close()

    def oracle_rows(self) -> List[Dict]:
        return self.greedy

    def result_digest(self) -> str:
        return digest([self.summary, [(g["sequence"], g["cycles"])
                                      for g in self.greedy]])


# ---------------------------------------------------------------------------
# serve_optimize
# ---------------------------------------------------------------------------

class ServeOptimize(Workload):
    def setup(self) -> None:
        s = self.sizes
        rng = np.random.default_rng([self.seed, 0])
        t = time.perf_counter()
        self.specs = list(chstone.BENCHMARK_NAMES[:s["programs"]])
        self.modules = {spec: chstone.build(spec) for spec in self.specs}
        # Unseen programs drawn from the seed: of ``gen_draws`` generator
        # seeds, the ones whose module is closest to the target size. Two
        # properties of the input are selected on, both observable before
        # any request is sent (README, first findings): an InvokeInst
        # makes -O3 itself crash, and size sets a request's cost.
        drawn = {}
        for k in rng.integers(100_000, size=s["gen_draws"]):
            module = resolve_program_spec(f"gen:{int(k)}")
            if not any(isinstance(i, InvokeInst)
                       for i in module.instructions()):
                drawn[f"gen:{int(k)}"] = module
        for spec in sorted(drawn, key=lambda spec: abs(
                drawn[spec].instruction_count() - s["gen_target_insts"])
                )[:s["gen_specs"]]:
            self.specs.append(spec)
            self.modules[spec] = drawn[spec]
        self.unseen = set(drawn)
        self.counters["programs.build_s"] = time.perf_counter() - t
        self.counters["programs.ir_insts"] = sum(
            m.instruction_count() for m in self.modules.values())

        self.train_toolchain = HLSToolchain(backend="engine")
        trainer = Trainer("RL-PPO2", [chstone.build("gsm")],
                          episodes=s["train_episodes"],
                          episode_length=s["episode_length"],
                          observation="both", normalization="log",
                          hidden=tuple(s["hidden"]),
                          toolchain=self.train_toolchain,
                          seed=catalog.TRAINER_SEED)
        trainer.train()
        registry = ModelRegistry(os.path.join(self.workdir, "models"))
        registry.register("bench", trainer)

        t = time.perf_counter()
        self.toolchain = HLSToolchain(backend="service", service_config=dict(
            workers=s["workers"],
            store_dir=os.path.join(self.workdir, "store")))
        self.server = PolicyServer(os.path.join(self.workdir, "policy.sock"),
                                   registry=registry, policies=["bench"],
                                   toolchain=self.toolchain)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        self.client = InferenceClient(self.server.socket_path, timeout=60.0)
        self.client.ping()
        self.counters["deploy.server_start_s"] = time.perf_counter() - t
        self.latencies: Dict[str, List[float]] = {"cold": [], "warm": []}

    def request(self, phase: Phase, spec: str) -> Optional[Dict]:
        self.tracer.op = f"{phase.name}/{spec}"
        request = {"program": spec, "refine": self.sizes["refine"],
                   "seed": catalog.REQUEST_SEED}
        phase.attempted += 1
        if phase.name == "warm" and self.decisions[spec] is None:
            return None     # failed cold: not replayed, fails again
        t = time.perf_counter()
        try:
            decision = self.client.optimize(spec, refine=request["refine"],
                                            seed=request["seed"])
        except Exception as exc:
            outcome = "timeout" if isinstance(exc, TimeoutError) else "crashed"
            self.fail(phase.name, spec, request, exc, outcome)
            return None
        self.latencies[phase.name].append(1e3 * (time.perf_counter() - t))
        phase.ok += 1
        return decision

    def cold(self) -> None:
        before = self.client.stats()
        unseen_ms: List[float] = []
        with self.phase("cold") as phase:
            self.decisions = {}
            for spec in self.specs:
                t = time.perf_counter()
                self.decisions[spec] = self.request(phase, spec)
                seconds = time.perf_counter() - t
                if spec in self.unseen:
                    # answered, oracle-checked and reported, but outside
                    # the rate: at equal IR size one such request costs
                    # 0.15-1.03 s, so the rate would be a function of the seed
                    unseen_ms.append(1e3 * seconds)
                else:
                    phase.units[spec].append(seconds)
                    phase.unit_ops[spec] = int(self.decisions[spec] is not None)
        self.counters["deploy.unseen_cold_ms"] = percentile(unseen_ms, 50)
        phase.samples = self.toolchain.samples_taken
        after = self.client.stats()
        served = max(1, after["requests"] - before["requests"])
        self.counters["deploy.forwards_per_req"] = (
            (after["forwards"] - before["forwards"]) / served)
        self.counters["deploy.waves"] = after["waves"] - before["waves"]
        # a request is several candidate evaluations: the policy's
        # sequence, -O3 and the refine budget
        self.engine_counters(self.toolchain, sum(
            d["evaluations"] for d in self.decisions.values() if d is not None))

    def warm(self) -> None:
        before = self.toolchain.samples_taken
        same = True
        with self.phase("warm") as phase:
            for _ in range(self.sizes["warm_rounds"]):
                t = time.perf_counter()
                answers = {spec: self.request(phase, spec)
                           for spec in self.specs}
                phase.units["round"].append(time.perf_counter() - t)
                same &= answers == self.decisions
            phase.unit_ops["round"] = sum(d is not None
                                          for d in self.decisions.values())
        phase.samples = self.toolchain.samples_taken - before
        self.invariants["warm_equals_cold"] = same
        pings = []
        for _ in range(self.sizes["pings"]):
            t = time.perf_counter()
            self.client.ping()
            pings.append(1e6 * (time.perf_counter() - t))
        self.counters["deploy.transport_us"] = percentile(pings, 50)
        lat = self.latencies
        self.counters["deploy.cold_p50_ms"] = percentile(lat["cold"], 50)
        self.counters["deploy.cold_max_ms"] = max(lat["cold"], default=0.0)
        self.counters["deploy.warm_p50_ms"] = percentile(lat["warm"], 50)
        self.counters["deploy.warm_p99_ms"] = tail_percentile(lat["warm"])
        self.counters["deploy.max_batch"] = self.client.stats()["max_batch"]
        self.extra["latency_samples"] = {k: len(v) for k, v in lat.items()}

    def burst(self) -> None:
        """N pipelined calls: every request submitted before any result
        is read. Per-layer only — which requests share a wave depends on
        thread timing, and refine candidates are seeded by position in
        the wave, so the work done here does not repeat run to run."""
        s = self.sizes
        specs = self.specs * s["burst_factor"]
        before = self.toolchain.samples_taken
        mismatch = answered = 0
        with self.phase("burst") as phase:
            with self.tracer.span("deploy", "burst"):
                futures = [self.client.submit_optimize(
                    spec, refine=s["refine"], seed=catalog.REQUEST_SEED)
                    for spec in specs]
                phase.attempted = len(futures)
                for spec, future in zip(specs, futures):
                    try:
                        decision = future.result(timeout=120.0)
                    except Exception as exc:
                        self.fail("burst", spec, {"program": spec}, exc)
                        continue
                    answered += 1
                    mismatch += decision != self.decisions[spec]
        phase.ok = answered
        phase.samples = self.toolchain.samples_taken - before
        wall = phase.t1 - phase.t0
        self.counters["deploy.burst_ops_per_s"] = answered / wall
        self.counters["deploy.burst_samples"] = phase.samples
        self.counters["deploy.burst_solo_mismatch"] = mismatch
        self.counters["deploy.max_batch"] = self.client.stats()["max_batch"]

    def teardown(self) -> None:
        self.client.close()
        self.server.initiate_shutdown()
        self.thread.join(timeout=10.0)
        self.server.close()
        self.toolchain.close()
        self.train_toolchain.close()

    def oracle_rows(self) -> List[Dict]:
        return [{"program": spec, "module": self.modules[spec],
                 "sequence": d["sequence"], "cycles": d["cycles"],
                 "o3_cycles": d["o3_cycles"], "bounded_by_o3": True}
                for spec, d in self.decisions.items() if d is not None]

    def result_digest(self) -> str:
        return digest(self.decisions)


WORKLOADS = {"search_engine": Search, "search_service": SearchService,
             "train_ppo": TrainPPO, "serve_optimize": ServeOptimize}


def verify(workload: Workload) -> Dict:
    """Run the oracle over what the pass returned; disagreements join
    the outcome ledger as ``wrong``."""
    verdict = oracle.verify(workload.oracle_rows())
    for item in verdict["wrong"]:
        workload.failures.append({
            "outcome": "wrong", "phase": "oracle",
            "program": item["program"],
            "request": {"sequence": item["sequence"]},
            "exception": "OracleMismatch", "message": item["message"]})
    return verdict


def vet_ga_seeds(per_program: int) -> Dict:
    """Rebuild the GA seed pool: for every CHStone program the first
    ``per_program`` seeds of a fixed stream whose search, at the frozen
    sizes, completes. Needed again when the sizes or the passes change."""
    sizes = catalog.SIZES["search_engine"]
    config = GAConfig(population=sizes["population"],
                      generations=sizes["generations"],
                      sequence_length=sizes["sequence_length"])
    stream = np.random.default_rng(20200302)    # MLSys 2020
    seeds: Dict[str, List[int]] = {}
    rejected: Dict[str, List[int]] = {}
    for name in chstone.BENCHMARK_NAMES:
        seeds[name], rejected[name] = [], []
        while len(seeds[name]) < per_program:
            candidate = int(stream.integers(2 ** 31))
            toolchain = HLSToolchain(backend="engine")
            try:
                genetic_search(chstone.build(name), config, toolchain,
                               seed=candidate)
                seeds[name].append(candidate)
            except Exception:
                rejected[name].append(candidate)
            finally:
                toolchain.close()
    return {"sizes": {k: sizes[k] for k in ("population", "generations",
                                            "sequence_length")},
            "seeds": seeds, "rejected": rejected}


if __name__ == "__main__":
    import sys
    with open(GA_SEED_POOL, "w", encoding="utf-8") as fh:
        json.dump(vet_ga_seeds(int(sys.argv[1])), fh, indent=1)
        fh.write("\n")
