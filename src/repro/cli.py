"""Command-line interface: regenerate any paper artifact from a shell.

    python -m repro tables
    python -m repro fig5 [--scale smoke|default|full] [--lanes N] [--cache-stats]
    python -m repro fig7 [--scale ...] [--algorithms -O3,Random,...]
    python -m repro fig8 [--lanes N]
    python -m repro fig9 [--lanes N]
    python -m repro train [--agent RL-PPO2] [--lanes N] [--checkpoint PATH]
                          [--prune-features K] [--prune-passes K]
                          [--register NAME] [--registry DIR]
    python -m repro compile <benchmark> [--passes "-mem2reg -loop-rotate ..."]
    python -m repro serve --socket /tmp/repro.sock [--workers 4]
    python -m repro serve-policy --socket /tmp/repro-policy.sock
                          [--policy NAME ...] [--registry DIR]
    python -m repro optimize <benchmark|gen:N> --policy NAME [--refine K]
                          [--registry DIR | --socket PATH]
    python -m repro generalize [--scale ...] [--policy NAME] [--refine K]
    python -m repro models list|show|rm [NAME] [--registry DIR]
    python -m repro profile-hotspots <benchmark> [--passes "..."]
                          [--phase materialize|profile|all]
                          [--sim-kernels off|on|verify]
                          [--top N] [--sort KEY] [--json PATH]
    python -m repro cache stats|clear|export [--store DIR]
    python -m repro stats [--json] [--watch N] [--log PATH] [--socket PATH]
    python -m repro trace [list|show|export] [--trace ID] [--chrome]
                          [--out PATH] [--log PATH]
    python -m repro slo check --config PATH [--log PATH | --socket PATH]
    python -m repro bench-trend [--root DIR] [--window N] [--tolerance F]

All figure commands print the rendered artifact and write CSVs under
``results/`` (override with ``REPRO_RESULTS``). ``--cache-stats`` prints
the engine/service cache counters aggregated over every toolchain the
run created. ``serve`` exposes the sharded, persistently cached
evaluation service on a Unix socket; the ``cache`` subcommands manage
its on-disk result store. ``train`` drives one Table-3 agent through
the vectorized trainer — ``--lanes N`` batches N episodes per policy
step, ``--checkpoint`` saves (and, when the file exists, resumes)
policy weights + normalizer + RNG state, and
``--prune-features K`` / ``--prune-passes K`` run the paper's §4
pipeline first: collect exploration rollouts through the evaluation
stack, fit the per-pass random forests, and train the agent on the
pruned observation/action spaces.

``stats`` renders the telemetry spine's cross-process dashboard (set
``REPRO_TELEMETRY=on`` on the instrumented runs; they leave JSONL
snapshots under ``.repro-telemetry/``, or answer the ``metrics`` op
live over ``--socket``). ``trace`` reads the span log written under
``REPRO_TELEMETRY=trace`` — per-trace waterfalls across client, server
and worker processes, plus Chrome trace-event export for Perfetto.
``slo check`` evaluates a declarative target config (p99 span latency,
error rate, cache hit-rate) against the same telemetry and exits
non-zero on violation; ``bench-trend`` gates the committed
``BENCH_*.json`` trajectories against their trailing window.

The deployment commands close the train → serve loop: ``train
--register NAME`` stores the trained policy in the content-addressed
model registry, ``serve-policy`` exposes registered policies with
cross-request batched inference on a Unix socket, ``optimize`` asks a
policy (local registry load, or ``--socket`` for a running server) for
a verified pass ordering on one program, ``generalize`` runs the
train-on-generated / serve-on-held-out harness, and ``models`` manages
the registry.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .experiments import (
    get_scale,
    render_table1,
    render_table2,
    render_table3,
    run_fig5_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
)
from .programs import chstone
from .toolchain import HLSToolchain

__all__ = ["main"]


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", choices=["smoke", "default", "full"], default=None,
                        help="experiment budget profile (default: $REPRO_SCALE or 'default')")


def _add_cache_stats(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-stats", action="store_true",
                        help="print aggregated engine/service cache statistics "
                             "after the run")


def _print_cache_stats() -> None:
    from .interp.batch_exec import batch_exec_info
    from .interp.interpreter import plan_cache_info
    from .interp.kernels import kernel_cache_info
    from .telemetry.render import render_cache_table

    info = HLSToolchain.aggregate_cache_info()
    print("\ncache statistics (aggregated over run toolchains):")
    if not info:
        print("  (no cache-backed toolchains)")
        return
    for key in sorted(info):
        print(f"  {key:<24} {info[key]}")
    # Hit-rate view over the whole hierarchy: the aggregate deliberately
    # excludes the process-wide kernel/plan caches as non-additive, so
    # fold them back in here for the rendered table.
    merged = dict(info)
    merged.update(kernel_cache_info())
    merged.update(plan_cache_info())
    merged.update(batch_exec_info())
    print()
    print(render_cache_table(merged))


def _cmd_serve(args) -> int:
    from .service.server import EvaluationServer

    server = EvaluationServer(args.socket, workers=args.workers,
                              store_dir=args.store)
    client = server.toolchain.engine
    print(f"evaluation service on {args.socket} "
          f"(workers={client.workers}, store={client.store.root})")
    print("ops: ping / evaluate / batch / stats / shutdown "
          "(JSON lines; see repro.service.server)")
    server.serve_forever()
    return 0


def _cmd_train(args) -> int:
    import os

    from .programs.generator import generate_corpus
    from .rl.trainer import Trainer

    scale = get_scale(args.scale)
    if args.benchmark:
        programs = [chstone.build(args.benchmark)]
        source = f"benchmark {args.benchmark!r}"
    else:
        programs = generate_corpus(scale.n_train_programs, seed=args.seed)
        source = f"{len(programs)} random programs"
    episodes = args.episodes if args.episodes is not None else scale.fig8_episodes
    prune_episodes = (args.prune_episodes if args.prune_episodes is not None
                      else scale.exploration_episodes)
    if args.prune_features is not None or args.prune_passes is not None:
        print(f"pruning stage: {prune_episodes} "
              f"exploration episodes -> random forests -> "
              f"top {args.prune_features if args.prune_features is not None else 'all'} features / "
              f"top {args.prune_passes if args.prune_passes is not None else 'all'} passes")
    trainer = Trainer(
        args.agent, programs, episodes=episodes, lanes=args.lanes,
        episode_length=scale.episode_length,
        observation=args.observation,
        normalization=None if args.normalization == "none" else args.normalization,
        reward_mode="log",
        normalize_observations=args.obs_norm, seed=args.seed,
        prune_features=args.prune_features, prune_passes=args.prune_passes,
        prune_episodes=prune_episodes, events_path=args.events)
    if trainer.pruning is not None:
        pruned = trainer.pruning
        feats = (f"{len(pruned.feature_indices)} features"
                 if pruned.feature_indices is not None else "all features")
        acts = (f"{len(pruned.action_indices)} actions"
                if pruned.action_indices is not None else "all actions")
        print(f"pruned spaces: {feats}, {acts} "
              f"(from {pruned.dataset_size} exploration samples)")
    if args.checkpoint and os.path.exists(args.checkpoint):
        trainer.restore(args.checkpoint)
        print(f"resumed from {args.checkpoint} "
              f"({trainer.episodes_done}/{episodes} episodes done)")
    print(f"training {args.agent} on {source}: {episodes} episodes, "
          f"{args.lanes} lane(s)")
    result = trainer.train()
    if args.checkpoint:
        trainer.save_checkpoint(args.checkpoint)
        print(f"checkpoint saved to {args.checkpoint}")
    if args.register:
        from .deploy.registry import ModelRegistry

        registry = ModelRegistry(args.registry)
        entry_id = registry.register(args.register, trainer)
        print(f"policy registered as {args.register!r} "
              f"({entry_id}) in {registry.root}")
    curve = result.episode_reward_mean()
    best = result.best_cycles if result.best_cycles is not None else "n/a"
    print(f"episodes {len(result.episode_rewards)}  "
          f"best_cycles {best}  candidate evaluations {result.samples}  "
          f"simulator samples {trainer.vec.toolchain.samples_taken}")
    if curve:
        print(f"episode-reward-mean: first {curve[0]:+.3f}  last {curve[-1]:+.3f}")
    print(f"wall-clock {trainer.seconds['total']:.2f}s "
          f"(rollout {trainer.seconds['rollout']:.2f}s, "
          f"update {trainer.seconds['update']:.2f}s)")
    if args.cache_stats:
        _print_cache_stats()
    return 0


def _cmd_serve_policy(args) -> int:
    from .deploy.server import PolicyServer

    server = PolicyServer(args.socket, registry_root=args.registry,
                          policies=args.policy or None,
                          allow_mismatch=args.allow_mismatch)
    names = ", ".join(sorted(server._runners)) or "(lazy-loaded on request)"
    print(f"policy inference service on {args.socket} "
          f"(registry={server.registry.root}, policies: {names})")
    print("ops: ping / infer / optimize / policies / stats / shutdown "
          "(JSON lines; see repro.deploy.server)")
    server.serve_forever()
    return 0


def _cmd_optimize(args) -> int:
    from .passes.registry import pass_name_for_index
    from .service.server import resolve_program_spec

    if args.socket:
        from .deploy.client import InferenceClient

        with InferenceClient(args.socket) as client:
            decision = client.optimize(args.program, policy=args.policy,
                                       refine=args.refine, seed=args.seed)
    else:
        from .deploy.registry import ModelRegistry

        registry = ModelRegistry(args.registry)
        runner = registry.load(args.policy, toolchain=HLSToolchain(),
                               allow_mismatch=args.allow_mismatch)
        module = resolve_program_spec(args.program)
        decision = runner.optimize(module, refine=args.refine,
                                   seed=args.seed).to_json()
    names = " ".join(a if isinstance(a, str) else pass_name_for_index(a)
                     for a in decision["sequence"])
    print(f"{args.program}: {decision['cycles']} cycles vs "
          f"-O3 {decision['o3_cycles']} "
          f"({decision['improvement_over_o3']:+.1%}), "
          f"source: {decision['source']}, "
          f"{decision['evaluations']} candidate evaluation(s)")
    if decision["source"] != "policy" and decision["policy_cycles"] is not None:
        print(f"  policy alone: {decision['policy_cycles']} cycles")
    print(f"  sequence: {names or '(empty — -O0)'}")
    return 0


def _cmd_generalize(args) -> int:
    from .deploy.registry import ModelRegistry
    from .experiments import run_generalization

    result = run_generalization(
        scale=get_scale(args.scale), seed=args.seed, lanes=args.lanes,
        registry=ModelRegistry(args.registry), policy_name=args.policy,
        episodes=args.episodes, search_budget=args.search_budget,
        refine=args.refine)
    print(result.render())
    result.to_csv()
    print(f"\npolicy registered as {result.policy_name!r} "
          f"({result.entry_id}); training took {result.train_seconds:.1f}s")
    if args.cache_stats:
        _print_cache_stats()
    return 0


def _cmd_models(args) -> int:
    from .deploy.registry import ModelRegistry

    registry = ModelRegistry(args.registry)
    if args.action == "list":
        entries = registry.entries()
        if not entries:
            print(f"(no policies registered under {registry.root})")
            return 0
        print(f"{'name':<24} {'id':<18} {'agent':<10} {'obs':<10} "
              f"{'episodes':>8}  toolchain")
        for e in entries:
            print(f"{e['name']:<24} {e['id']:<18} {str(e['agent']):<10} "
                  f"{str(e['observation']):<10} {str(e['episodes']):>8}  "
                  f"{e['toolchain']}")
    elif args.action == "show":
        import json as _json

        if not args.name:
            print("models show needs a policy NAME", file=sys.stderr)
            return 2
        print(_json.dumps(registry.meta(args.name), indent=2, sort_keys=True))
    elif args.action == "rm":
        if not args.name:
            print("models rm needs a policy NAME", file=sys.stderr)
            return 2
        entry_id = registry.remove(args.name)
        print(f"removed {args.name!r} (object {entry_id} kept on disk)")
    return 0


def _cmd_profile_hotspots(args) -> int:
    import cProfile
    import json
    import pstats

    from .toolchain import clone_module

    module = chstone.build(args.benchmark)
    seq = args.passes.split() if args.passes else HLSToolchain().o3_sequence()
    # One *cold* evaluation: a fresh toolchain (empty memo, trie and
    # schedule cache) — the path a first-time sequence pays.
    toolchain = HLSToolchain(sim_kernels=args.sim_kernels)
    profiler = toolchain.profiler
    run = cProfile.Profile()
    cycles = None
    if args.phase == "profile":
        candidate = clone_module(module)
        HLSToolchain.apply_passes(candidate, seq)
        run.enable()
        report = profiler.profile(candidate)
        run.disable()
        cycles = report.cycles
    else:
        # the process-wide kernel/plan caches too, or an in-process caller
        # that evaluated before would profile a warm simulator
        toolchain.engine.clear()
        run.enable()
        if args.phase == "materialize":
            toolchain.engine.materialize(module, seq)  # clone + passes only
        else:
            cycles = int(toolchain.engine.evaluate(module, seq))
        run.disable()
    # what the engine did with the sequence: passes it ran, known no-ops
    # it skipped, memo hits by effective key
    info = toolchain.cache_info() if args.phase != "profile" else {}
    engine_counts = {key: info[key] for key in
                     ("passes_applied", "noop_skipped", "effective_hits")
                     if key in info}
    print(f"{args.benchmark}: {'no' if cycles is None else cycles} cycles "
          f"after {len(seq)} passes (phase={args.phase}, "
          f"sim_kernels={profiler.sim_kernels}"
          + "".join(f", {key}={value}" for key, value in engine_counts.items())
          + ")")
    stats = pstats.Stats(run, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.json:
        sort_field = {"cumulative": "cumtime", "tottime": "tottime",
                      "ncalls": "ncalls"}[args.sort]
        rows = []
        for (filename, lineno, funcname), \
                (primitive, ncalls, tottime, cumtime, _callers) in \
                stats.stats.items():
            rows.append({"file": filename, "line": lineno,
                         "function": funcname, "ncalls": ncalls,
                         "primitive_calls": primitive,
                         "tottime": round(tottime, 6),
                         "cumtime": round(cumtime, 6)})
        rows.sort(key=lambda r: r[sort_field], reverse=True)
        payload = {"benchmark": args.benchmark, "cycles": cycles,
                   "phase": args.phase,
                   "passes": len(seq), "sim_kernels": profiler.sim_kernels,
                   "sort": args.sort, "hotspots": rows[:args.top],
                   **engine_counts}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {min(len(rows), args.top)} hotspot row(s) to {args.json}")
    return 0


def _cmd_stats(args) -> int:
    import json
    import os
    import time

    from . import telemetry
    from .telemetry.render import aggregate, render_dashboard, summarize

    def collect():
        if args.socket:
            # Live registries from a running server (evaluation or
            # policy — both answer the metrics op).
            from .service.server import request

            reply = request(args.socket, {"op": "metrics"})
            if not reply.get("ok"):
                raise RuntimeError(f"metrics op failed: "
                                   f"{reply.get('error', reply)}")
            records = reply.get("snapshots") or []
        else:
            records = list(telemetry.read_log(args.log).values())
        return aggregate(rec["snapshot"] for rec in records
                         if rec.get("snapshot"))

    def show() -> None:
        aggregated = collect()
        if args.json:
            print(json.dumps(summarize(aggregated), indent=2, sort_keys=True))
        else:
            source = (f"socket {args.socket}" if args.socket
                      else args.log or os.environ.get("REPRO_TELEMETRY_LOG")
                      or telemetry.DEFAULT_LOG_PATH)
            if not aggregated.get("processes"):
                print(f"(no snapshots yet — source: {source}; run an "
                      f"instrumented command with REPRO_TELEMETRY=on)")
                return
            print(render_dashboard(aggregated))
            print(f"\nsource: {source}")

    if args.watch:
        try:
            while True:
                print("\x1b[2J\x1b[H", end="")  # clear screen, home cursor
                try:
                    show()
                except (OSError, RuntimeError) as exc:
                    # Watching a server that has not started (or a log
                    # that does not exist yet) should keep polling, not
                    # die on the first refresh.
                    print(f"(no snapshots yet: {exc})")
                time.sleep(args.watch)
        except KeyboardInterrupt:
            pass
        return 0
    show()
    return 0


def _cmd_trace(args) -> int:
    import json
    import os

    from .telemetry import read_trace_log, trace
    from .telemetry.export import DEFAULT_TRACE_LOG_PATH

    log = args.log or os.environ.get("REPRO_TELEMETRY_TRACE_LOG") \
        or DEFAULT_TRACE_LOG_PATH
    if args.action == "export":
        out = args.out or "repro-trace.json"
        count = trace.write_chrome_trace(out, log_path=log,
                                         trace_id=args.trace)
        print(f"wrote {count} span event(s) to {out} "
              f"(chrome://tracing / Perfetto format)")
        return 0
    events = read_trace_log(log)
    traces = trace.assemble_traces(events)
    if args.action == "show":
        trace_id = args.trace
        if trace_id is None:
            # Default to the newest trace — the one just produced.
            real = {k: v for k, v in traces.items() if k != "-"}
            if not real:
                print(f"(no traces recorded yet — source: {log}; run with "
                      f"REPRO_TELEMETRY=trace)")
                return 0
            trace_id = max(real, key=lambda k: max(
                s.get("start") or 0.0 for s in real[k]))
        spans = traces.get(trace_id)
        if not spans:
            print(f"unknown trace id {trace_id!r} in {log}")
            return 1
        if args.json:
            print(json.dumps(spans, indent=2, sort_keys=True))
        else:
            print(trace.render_waterfall(trace_id, spans))
        return 0
    # list (default)
    if not traces:
        print(f"(no traces recorded yet — source: {log}; run with "
              f"REPRO_TELEMETRY=trace)")
        return 0
    print(trace.render_trace_list(traces))
    print(f"\nsource: {log}")
    return 0


def _cmd_slo(args) -> int:
    import json

    from . import telemetry
    from .telemetry import slo
    from .telemetry.render import aggregate

    targets = slo.load_config(args.config)
    if args.socket:
        from .service.server import request

        reply = request(args.socket, {"op": "metrics"})
        if not reply.get("ok"):
            print(f"metrics op failed: {reply.get('error', reply)}",
                  file=sys.stderr)
            return 2
        records = reply.get("snapshots") or []
    else:
        records = list(telemetry.read_log(args.log).values())
    aggregated = aggregate(rec["snapshot"] for rec in records
                           if rec.get("snapshot"))
    results = slo.evaluate_slos(aggregated, targets)
    if args.json:
        print(json.dumps([r.to_json() for r in results],
                         indent=2, sort_keys=True))
    else:
        print(slo.render_slo_report(results))
    return 0 if all(r.ok for r in results) else 1


def _cmd_bench_trend(args) -> int:
    import json

    from .telemetry import trend

    window = trend.DEFAULT_WINDOW if args.window is None else args.window
    tolerance = (trend.DEFAULT_TOLERANCE if args.tolerance is None
                 else args.tolerance)
    entries = trend.check_trends(args.root, window=window,
                                 tolerance=tolerance)
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True))
    else:
        print(trend.render_trend_report(entries, verbose=args.verbose))
    return 1 if any(e["status"] == "regressed" for e in entries) else 0


def _cmd_cache(args) -> int:
    from .service.store import ResultStore

    store = ResultStore(args.store)
    if args.action == "stats":
        for key, value in store.stats().items():
            print(f"{key:<18} {value}")
        from .interp.batch_exec import batch_exec_info
        from .interp.interpreter import plan_cache_info
        from .interp.kernels import kernel_cache_info
        from .telemetry.render import render_cache_table

        info = HLSToolchain.aggregate_cache_info()
        info.update(kernel_cache_info())
        info.update(plan_cache_info())
        info.update(batch_exec_info())
        print("\nin-process cache hierarchy:")
        print(render_cache_table(info))
    elif args.action == "clear":
        print(f"removed {store.clear()} shard(s) from {store.root}")
    elif args.action == "export":
        count = store.export(args.out)
        print(f"exported {count} record(s) to {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables 1-3")
    for fig in ("fig5", "fig7", "fig8", "fig9"):
        p = sub.add_parser(fig, help=f"regenerate {fig}")
        _add_scale(p)
        _add_cache_stats(p)
        if fig == "fig7":
            p.add_argument("--algorithms", default=None,
                           help="comma-separated subset of the Figure 7 algorithms")
        if fig == "fig5":
            p.add_argument("--lanes", type=int, default=1,
                           help="vectorized exploration lanes for the forest "
                                "dataset (1 = seed-anchored sequential stream)")
        if fig in ("fig8", "fig9"):
            p.add_argument("--lanes", type=int, default=1,
                           help="vectorized rollout lanes for the RL training "
                                "(1 = bit-anchored sequential loop)")

    pt = sub.add_parser("train", help="train one Table-3 agent (vectorized)")
    from .rl.agents import AGENT_NAMES as _AGENTS

    pt.add_argument("--agent", choices=list(_AGENTS), default="RL-PPO2")
    pt.add_argument("--episodes", type=int, default=None,
                    help="episode budget (default: the scale profile's fig8 budget)")
    pt.add_argument("--lanes", type=int, default=1,
                    help="parallel episode lanes (batched policy + evaluation)")
    pt.add_argument("--checkpoint", default=None,
                    help="checkpoint file: resumed from when it exists, "
                         "saved to after training")
    pt.add_argument("--benchmark", choices=list(chstone.BENCHMARK_NAMES),
                    default=None,
                    help="train on one CHStone-like benchmark instead of the "
                         "random corpus")
    pt.add_argument("--observation", choices=["features", "histogram", "both"],
                    default=None,
                    help="override the agent's Table-3 observation space "
                         "(default: the agent's own; 'both' is the Fig 8 "
                         "generalization setup)")
    pt.add_argument("--normalization", choices=["none", "log", "instcount"],
                    default="none",
                    help="feature normalization (§5.3): default 'none' is the "
                         "Table-3 setup; 'instcount' is the Fig 8 "
                         "generalization choice")
    pt.add_argument("--obs-norm", action="store_true",
                    help="whiten observations with a running normalizer")
    pt.add_argument("--prune-features", type=int, default=None, metavar="K",
                    help="§4 pruning: collect exploration data, fit the "
                         "random forests, train on the top-K program features")
    pt.add_argument("--prune-passes", type=int, default=None, metavar="K",
                    help="§4 pruning: restrict the action space to the top-K "
                         "passes the forests find impactful (+ -terminate)")
    pt.add_argument("--prune-episodes", type=int, default=None,
                    help="exploration budget of the pruning stage "
                         "(default: the scale profile's exploration episodes)")
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--events", default=None, metavar="PATH",
                    help="append per-wave / per-update training events as "
                         "JSONL to PATH (also: $REPRO_TRAIN_EVENTS)")
    pt.add_argument("--register", default=None, metavar="NAME",
                    help="store the trained policy in the model registry "
                         "under NAME (ready for `repro serve-policy`)")
    pt.add_argument("--registry", default=None,
                    help="model registry root (default: $REPRO_MODEL_DIR "
                         "or .repro-models)")
    _add_scale(pt)
    _add_cache_stats(pt)

    pc = sub.add_parser("compile", help="compile one benchmark with a pass sequence")
    pc.add_argument("benchmark", choices=list(chstone.BENCHMARK_NAMES))
    pc.add_argument("--passes", default="",
                    help="space-separated Table-1 pass names (default: -O3 pipeline)")
    _add_cache_stats(pc)

    ps = sub.add_parser("serve", help="run the evaluation service on a Unix socket")
    ps.add_argument("--socket", default="/tmp/repro-eval.sock",
                    help="Unix socket path (default: /tmp/repro-eval.sock)")
    ps.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: $REPRO_SERVICE_WORKERS or cpu-based)")
    ps.add_argument("--store", default=None,
                    help="persistent store root (default: $REPRO_CACHE_DIR or .repro-cache)")

    pp = sub.add_parser("serve-policy",
                        help="serve registered policies with cross-request "
                             "batched inference")
    pp.add_argument("--socket", default="/tmp/repro-policy.sock",
                    help="Unix socket path (default: /tmp/repro-policy.sock)")
    pp.add_argument("--policy", action="append", default=None, metavar="NAME",
                    help="registry policy to preload (repeatable; first is "
                         "the default; omit to lazy-load on request)")
    pp.add_argument("--registry", default=None,
                    help="model registry root (default: $REPRO_MODEL_DIR "
                         "or .repro-models)")
    pp.add_argument("--allow-mismatch", action="store_true",
                    help="serve policies whose toolchain fingerprint does "
                         "not match (danger: actions may be remapped)")

    po = sub.add_parser("optimize",
                        help="ask a trained policy for a verified pass "
                             "ordering on one program")
    po.add_argument("program",
                    help="CHStone benchmark name or 'gen:<seed>' for a "
                         "random program")
    po.add_argument("--policy", required=True,
                    help="registered policy name (or entry id)")
    po.add_argument("--registry", default=None,
                    help="model registry root (default: $REPRO_MODEL_DIR "
                         "or .repro-models)")
    po.add_argument("--socket", default=None,
                    help="query a running `repro serve-policy` server "
                         "instead of loading the policy locally")
    po.add_argument("--refine", type=int, default=0, metavar="K",
                    help="search-refinement budget when the policy "
                         "underperforms -O3 (default 0: plain fallback)")
    po.add_argument("--allow-mismatch", action="store_true",
                    help="load despite a toolchain fingerprint mismatch")
    po.add_argument("--seed", type=int, default=0)

    pg = sub.add_parser("generalize",
                        help="train-on-generated / serve-on-held-out "
                             "generalization harness")
    pg.add_argument("--policy", default="generalization-ppo2",
                    help="registry name for the trained policy")
    pg.add_argument("--registry", default=None,
                    help="model registry root (default: $REPRO_MODEL_DIR "
                         "or .repro-models)")
    pg.add_argument("--episodes", type=int, default=None,
                    help="training episode budget (default: the scale "
                         "profile's fig8 budget)")
    pg.add_argument("--search-budget", type=int, default=None,
                    help="random-search samples per held-out program "
                         "(default: 2x episode length)")
    pg.add_argument("--refine", type=int, default=0, metavar="K",
                    help="per-program refinement budget for the served "
                         "decision")
    pg.add_argument("--lanes", type=int, default=1)
    pg.add_argument("--seed", type=int, default=0)
    _add_scale(pg)
    _add_cache_stats(pg)

    pm = sub.add_parser("models", help="manage the policy model registry")
    pm.add_argument("action", choices=["list", "show", "rm"])
    pm.add_argument("name", nargs="?", default=None,
                    help="policy name (show/rm)")
    pm.add_argument("--registry", default=None,
                    help="model registry root (default: $REPRO_MODEL_DIR "
                         "or .repro-models)")

    ph = sub.add_parser("profile-hotspots",
                        help="cProfile one cold evaluation of a benchmark "
                             "(where does the time of a cache miss go?)")
    ph.add_argument("benchmark", choices=list(chstone.BENCHMARK_NAMES))
    ph.add_argument("--passes", default="",
                    help="space-separated Table-1 pass names of the "
                         "evaluated sequence (default: -O3 pipeline)")
    ph.add_argument("--phase", choices=["materialize", "profile", "all"],
                    default="all",
                    help="what runs under cProfile: 'all' (default) one "
                         "engine.evaluate of the sequence on a cleared "
                         "engine — clone, passes, hashing, scheduling, "
                         "simulation; 'materialize' only clone + passes; "
                         "'profile' only the cold profile call on the "
                         "already optimized module")
    ph.add_argument("--sim-kernels", choices=["off", "on", "verify"],
                    default=None,
                    help="simulation backend under the profile "
                         "(default: $REPRO_SIM_KERNELS or 'on')")
    ph.add_argument("--top", type=int, default=25,
                    help="number of stat rows to print (default 25)")
    ph.add_argument("--sort", choices=["cumulative", "tottime", "ncalls"],
                    default="cumulative",
                    help="pstats sort order (default cumulative)")
    ph.add_argument("--json", default=None, metavar="PATH",
                    help="additionally write the hotspot rows as JSON to PATH "
                         "(machine-readable: file/line/function/ncalls/"
                         "tottime/cumtime)")

    pst = sub.add_parser("stats",
                         help="render the telemetry dashboard (latency "
                              "histograms with p50/p90/p99, counters, gauges) "
                              "merged across processes")
    pst.add_argument("--json", action="store_true",
                     help="print the aggregated summary as JSON instead of "
                          "the dashboard")
    pst.add_argument("--watch", type=float, default=None, metavar="N",
                     help="refresh every N seconds until interrupted")
    pst.add_argument("--log", default=None,
                     help="telemetry JSONL log to read (default: "
                          "$REPRO_TELEMETRY_LOG or .repro-telemetry/"
                          "metrics.jsonl)")
    pst.add_argument("--socket", default=None,
                     help="query a running repro server's `metrics` op "
                          "instead of reading the log")

    ptr = sub.add_parser("trace",
                         help="inspect distributed request traces recorded "
                              "under REPRO_TELEMETRY=trace")
    ptr.add_argument("action", nargs="?", default="list",
                     choices=["list", "show", "export"],
                     help="list traces, show one waterfall, or export "
                          "Chrome trace-event JSON (default: list)")
    ptr.add_argument("--trace", default=None, metavar="ID",
                     help="trace id to show/export (show defaults to the "
                          "newest trace; export defaults to all)")
    ptr.add_argument("--log", default=None,
                     help="trace JSONL log to read (default: "
                          "$REPRO_TELEMETRY_TRACE_LOG or .repro-telemetry/"
                          "trace.jsonl)")
    ptr.add_argument("--chrome", action="store_true",
                     help="alias for the 'export' action")
    ptr.add_argument("--out", default=None,
                     help="chrome trace output path (default "
                          "repro-trace.json)")
    ptr.add_argument("--json", action="store_true",
                     help="print span records as JSON instead of the "
                          "waterfall (show)")

    psl = sub.add_parser("slo",
                         help="evaluate declarative latency/error/hit-rate "
                              "targets against recorded telemetry")
    psl.add_argument("action", choices=["check"])
    psl.add_argument("--config", required=True,
                     help="JSON SLO config ({\"slos\": [...]})")
    psl.add_argument("--log", default=None,
                     help="telemetry JSONL log to read (default: "
                          "$REPRO_TELEMETRY_LOG or .repro-telemetry/"
                          "metrics.jsonl)")
    psl.add_argument("--socket", default=None,
                     help="query a running server's `metrics` op instead "
                          "of reading the log")
    psl.add_argument("--json", action="store_true",
                     help="print per-target results as JSON")

    pbt = sub.add_parser("bench-trend",
                         help="gate benchmark trajectories: flag metrics "
                              "whose newest point regressed beyond tolerance "
                              "vs the trailing window")
    pbt.add_argument("--root", default=".",
                     help="directory holding BENCH_*.json (default: .)")
    pbt.add_argument("--window", type=int, default=None,
                     help="trailing points to compare against (default 5)")
    pbt.add_argument("--tolerance", type=float, default=None,
                     help="allowed fractional slack beyond the window's "
                          "worst point (default 0.25)")
    pbt.add_argument("--json", action="store_true",
                     help="print per-metric entries as JSON")
    pbt.add_argument("--verbose", action="store_true",
                     help="show every metric, not just regressions")

    pk = sub.add_parser("cache", help="manage the persistent result store")
    pk.add_argument("action", choices=["stats", "clear", "export"])
    pk.add_argument("--store", default=None,
                    help="store root (default: $REPRO_CACHE_DIR or .repro-cache)")
    pk.add_argument("--out", default="repro-cache-export.json",
                    help="export destination (cache export)")

    args = parser.parse_args(argv)

    # Start the JSONL snapshot exporter when REPRO_TELEMETRY is on, so
    # every instrumented command leaves a metrics trail for `repro stats`.
    from . import telemetry
    telemetry.init_process()

    if args.command == "stats":
        return _cmd_stats(args)

    if args.command == "trace":
        if args.chrome:
            args.action = "export"
        return _cmd_trace(args)

    if args.command == "slo":
        return _cmd_slo(args)

    if args.command == "bench-trend":
        return _cmd_bench_trend(args)

    if args.command == "tables":
        print(render_table1())
        print()
        print(render_table2())
        print()
        print(render_table3())
        return 0

    if args.command == "serve":
        return _cmd_serve(args)

    if args.command == "serve-policy":
        return _cmd_serve_policy(args)

    if args.command == "optimize":
        return _cmd_optimize(args)

    if args.command == "generalize":
        return _cmd_generalize(args)

    if args.command == "models":
        return _cmd_models(args)

    if args.command == "cache":
        return _cmd_cache(args)

    if args.command == "profile-hotspots":
        return _cmd_profile_hotspots(args)

    if args.command == "train":
        return _cmd_train(args)

    if args.command == "compile":
        tc = HLSToolchain()
        module = chstone.build(args.benchmark)
        o0 = tc.o0_cycles(module)
        seq = args.passes.split() if args.passes else tc.o3_sequence()
        cycles = tc.cycle_count_with_passes(module, seq)
        print(f"{args.benchmark}: -O0 {o0} cycles -> {cycles} cycles "
              f"({(o0 - cycles) / o0:+.1%}) with {len(seq)} passes")
        if args.cache_stats:
            _print_cache_stats()
        return 0

    scale = get_scale(args.scale)
    if args.command == "fig5":
        result = run_fig5_fig6(scale=scale, lanes=args.lanes)
        print(result.render_fig5())
        print()
        print(result.render_fig6())
        result.to_csv()
    elif args.command == "fig7":
        algorithms = args.algorithms.split(",") if args.algorithms else None
        result = run_fig7(scale=scale, algorithms=algorithms)
        print(result.render())
        result.to_csv()
    elif args.command == "fig8":
        result = run_fig8(scale=scale, lanes=args.lanes)
        print(result.render())
        result.to_csv()
    elif args.command == "fig9":
        result = run_fig9(scale=scale, lanes=args.lanes)
        print(result.render())
        result.to_csv()
    if args.cache_stats:
        _print_cache_stats()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
