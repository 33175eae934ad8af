"""End-to-end benchmark driver: four user-visible workloads, per-layer budgets.

    python3 benchmarks/e2e/run.py --workload NAME|all [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--repeat N]

One process drives; every *pass* of a workload runs in a fresh child
interpreter (``pass_child.py``), one at a time. Work per pass is fixed
(``catalog.SIZES``); ``--seconds`` only decides how many passes fit.
End-to-end metrics are measured with tracing off (``--trace 0``); with
``--trace 1`` a traced pass of the same work supplies the per-layer
numbers; without ``--trace`` both are produced. The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Exit code: 0 when the passes ran and the invariants held (product
failures are counted, not fatal); non-zero on a harness error or a
broken invariant (warm phase took samples, warm != cold, passes
disagree).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import catalog  # noqa: E402

PASS_TIMEOUT_S = 150.0
E2E = {m.name: m for m in catalog.END_TO_END}
LAYER = {m.name: m for m in catalog.PER_LAYER}


# -- provenance ---------------------------------------------------------------

def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(workload: str, seed: int, sizes: Dict, passes: int) -> Dict:
    """What produced a result: two results compare only if ``sizes``,
    ``seed`` and ``knobs`` are equal."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    status = _git("status", "--porcelain")
    return {
        "workload": workload, "seed": seed, "sizes": sizes, "passes": passes,
        "commit": _git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy_version, "platform": platform.platform(),
        "load": "closed loop: 1 load-generating thread, 1 client connection, "
                "workers=2",
        "knobs": {k: os.environ.get(k) for k in catalog.KNOBS},
    }


def comparable(a: Dict, b: Dict) -> Optional[str]:
    """None when two stamps may be compared, else the reason they may not."""
    for key in ("workload", "sizes", "seed", "knobs"):
        if a.get(key) != b.get(key):
            return f"not comparable: {key} differs ({a.get(key)} vs {b.get(key)})"
    return None


# -- passes -------------------------------------------------------------------

def run_pass(workload: str, seed: int, sizes: Dict, index: int, traced: bool,
             burst: bool) -> Dict:
    """One pass in a fresh interpreter. Raises RuntimeError on a harness
    error (child crashed, timed out or wrote nothing)."""
    tag = f"{workload}-{seed}-{os.getpid()}-{index}"
    tmp = os.path.join(RESULTS, "tmp")
    os.makedirs(tmp, exist_ok=True)
    spec_path = os.path.join(tmp, f"{tag}.spec.json")
    out_path = os.path.join(tmp, f"{tag}.pass.json")
    relay = "workers" in sizes and traced
    spec = {
        "root": ROOT, "workload": workload, "seed": seed, "sizes": sizes,
        "traced": traced, "burst": burst, "out": out_path,
        # relative to ROOT (the child's cwd): AF_UNIX paths are capped at
        # 108 bytes and a checkout may live anywhere
        "workdir": os.path.relpath(os.path.join(tmp, tag), ROOT),
        "spans_out": os.path.join(RESULTS, f"spans-{workload}-{seed}.jsonl"),
        "relay_log": (os.path.join(tmp, f"{tag}.relay.jsonl")
                      if relay else None),
        "spawned": time.time(),
    }
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "pass_child.py"), spec_path],
        cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # the pass's workers share its session: nothing may outlive it
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        child.wait()
    try:
        if code is None:
            raise RuntimeError(f"pass {index} of {workload} timed out after "
                               f"{PASS_TIMEOUT_S:.0f}s")
        if code != 0 or not os.path.exists(out_path):
            raise RuntimeError(f"pass {index} of {workload} failed in the "
                               f"harness (exit code {code})")
        with open(out_path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        for path in (spec_path, out_path, spec["relay_log"]):
            if path and os.path.exists(path):
                os.remove(path)


# -- aggregation --------------------------------------------------------------

def spread(values: List[float]) -> float:
    """IQR as a share of the median (0 with fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def summary(values: List[float]) -> Dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "min": min(values), "q1": q[0], "median": q[1],
            "q3": q[2], "max": max(values)}


def fastest_rate(passes: List[Dict], phase: str) -> Dict:
    """ops/s of a phase from each unit's fastest repetition over all
    passes. Interference on a shared 2-core VM is one-sided and lasts
    seconds; a unit's floor repeats within ~1 % where the median of whole
    passes moves 25 % (README, "why the fastest repetition")."""
    times: Dict[str, List[float]] = defaultdict(list)
    ops: Dict[str, int] = {}
    for p in passes:
        for unit, reps in p["phases"][phase]["units"].items():
            times[unit].extend(reps)
            ops[unit] = p["phases"][phase]["unit_ops"][unit]
    seconds = sum(min(reps) for reps in times.values())
    return {"ops_per_s": sum(ops.values()) / seconds if seconds else 0.0,
            "units": {unit: summary(reps) for unit, reps in times.items()}}


def best(metric: catalog.Metric, values: List[float]) -> float:
    if metric.exact:
        return values[0]
    return max(values) if metric.better == "higher" else min(values)


def exact_metrics(one_pass: Dict) -> Dict[str, float]:
    """The end-to-end metrics that must repeat bit for bit at a fixed seed."""
    cold = one_pass["phases"]["cold"]
    return {"cold_samples_per_op": cold["samples"] / max(1, cold["ok"]),
            "qor_geomean_vs_o3": one_pass["qor"]}


def aggregate(workload: str, untraced: List[Dict], traced: Optional[Dict]) -> Dict:
    first = untraced[0]
    cold = fastest_rate(untraced, "cold")
    warm = fastest_rate(untraced, "warm")
    e2e = {
        "setup_s": statistics.median(p["setup_s"] for p in untraced),
        "cold_ops_per_s": cold["ops_per_s"],
        "warm_ops_per_s": warm["ops_per_s"],
        **exact_metrics(first),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }
    everything = untraced + ([traced] if traced else [])
    attempted = sum(ph["attempted"] for p in everything
                    for ph in p["phases"].values())
    failed = sum(ph["attempted"] - ph["ok"] for p in everything
                 for ph in p["phases"].values())
    failed += sum(p["oracle"]["wrong"] for p in everything)
    broken = []
    for i, p in enumerate(everything):
        if p["digest"] != first["digest"]:
            broken.append(f"pass {i} returned different results than pass 0")
        if not p["invariants"].get("warm_equals_cold", False):
            broken.append(f"pass {i}: warm results differ from cold")
        if p["phases"]["warm"]["samples"] != 0:
            broken.append(f"pass {i}: warm phase took "
                          f"{p['phases']['warm']['samples']} simulator samples")
        if p["oracle"]["checked"] == 0:
            broken.append(f"pass {i}: the oracle checked nothing")
        for name, mine in exact_metrics(p).items():
            if mine != e2e[name]:
                broken.append(f"pass {i}: {name} = {mine!r}, pass 0 had "
                              f"{e2e[name]!r} (must repeat exactly)")

    layer: Dict[str, float] = {}
    findings: List[str] = []
    if traced is not None:
        walls = {ph: [p["phases"][ph]["wall_s"] for p in untraced]
                 for ph in ("cold", "warm")}
        derived = {
            "engine.warm_lookup_us": (1e6 / warm["ops_per_s"]
                                      if warm["ops_per_s"] else 0.0),
            "engine.warm_samples": first["phases"]["warm"]["samples"],
            "telemetry.trace_overhead_ratio": (
                traced["phases"]["cold"]["wall_s"] / min(walls["cold"])),
            "bench.cold_spread": spread(walls["cold"]),
            "bench.warm_spread": spread(walls["warm"]),
            "bench.cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "bench.passes": len(untraced),
            "bench.failed_share": failed / attempted if attempted else 0.0,
        }
        if workload == "train_ppo":
            derived["rl.greedy_qor_vs_o3"] = first["raw_qor"]
        hits = traced["counters"].get("hls.schedule_hits", 0.0)
        misses = traced["counters"].get("hls.schedule_misses", 0.0)
        derived["hls.schedule_cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        for name, metric in LAYER.items():
            seen = [p["counters"][name] for p in untraced
                    if name in p["counters"]]
            if name in traced["trace"]:
                layer[name] = traced["trace"][name]
            elif name in derived:
                layer[name] = derived[name]
            elif seen:
                layer[name] = best(metric, seen)
            else:
                layer[name] = 0.0    # the workload bypasses this layer
        if layer["bench.span_coverage"] < 0.95:
            findings.append(
                f"bench.span_coverage {layer['bench.span_coverage']:.3f} < "
                f"0.95: {layer['bench.unattributed_s']:.3f} s of the traced "
                f"wall is in no layer's span")
    return {"end_to_end": e2e, "per_layer": layer, "attempted": attempted,
            "failed": failed, "broken": broken, "findings": findings,
            "correct": not broken and not any(p["oracle"]["wrong"]
                                              for p in everything),
            "units": {"cold": cold["units"], "warm": warm["units"]},
            "layers": traced["layers"] if traced else None,
            "digest": first["digest"],
            "traced_wall_s": (sum(traced["phases"][ph]["wall_s"]
                                  for ph in ("cold", "warm"))
                              if traced else None)}


# -- one workload ---------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: Optional[int],
                 smoke: bool) -> Dict:
    sizes = (catalog.SMOKE_SIZES if smoke else catalog.SIZES)[name]
    want_traced = trace != 0
    floor = 1 if smoke else (2 if trace == 1 else catalog.MIN_PASSES)
    started = time.monotonic()
    untraced: List[Dict] = []
    last = 0.0
    while True:
        elapsed = time.monotonic() - started
        # a traced pass (and the burst) still has to fit after these
        reserve = 2.5 * last if trace == 1 else last
        if len(untraced) >= floor and (smoke or elapsed + reserve > seconds):
            break
        t = time.monotonic()
        untraced.append(run_pass(name, seed, sizes, len(untraced), False,
                                 burst=want_traced and len(untraced) == floor - 1))
        last = time.monotonic() - t
    traced = (run_pass(name, seed, sizes, len(untraced), True, burst=False)
              if want_traced else None)
    result = aggregate(name, untraced, traced)
    result["stamp"] = stamp(name, seed, sizes, len(untraced))
    result["wall_s"] = time.monotonic() - started
    result["qor_rows"] = untraced[0]["oracle"]["rows"]
    result["pass_clocks"] = [p["clock"] for p in untraced]
    result["failures"] = [f for p in untraced + ([traced] if traced else [])
                          for f in p["failures"]]

    os.makedirs(RESULTS, exist_ok=True)
    suffix = {0: "", 1: "-trace", None: "-full"}[trace]
    with open(os.path.join(RESULTS, f"{name}-seed{seed}{suffix}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    with open(os.path.join(RESULTS, f"failures-{name}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result["failures"], fh, indent=1)
    return result


def final_metrics(result: Dict, trace: Optional[int]) -> Dict:
    out = {}
    if trace != 1:
        out.update({n: {"value": v, "unit": E2E[n].unit}
                    for n, v in result["end_to_end"].items()})
    if trace != 0:
        out.update({n: {"value": v, "unit": LAYER[n].unit}
                    for n, v in result["per_layer"].items()})
    return out


def report(name: str, result: Dict, trace: Optional[int]) -> None:
    s = result["stamp"]
    print(f"== {name}  seed={s['seed']}  passes={s['passes']}  "
          f"commit={s['commit'][:12]}{'+dirty' if s['dirty'] else ''}  "
          f"nproc={s['nproc']}  wall={result['wall_s']:.1f}s")
    for metric, payload in final_metrics(result, trace).items():
        print(f"  {metric:<36} {payload['value']:>16.6g} {payload['unit']}")
    if trace != 0 and result["layers"]:
        print("  layer budget, self seconds (cold / warm):")
        for layer, row in sorted(result["layers"].items()):
            print(f"    {layer:<10} {row.get('cold', 0.0):9.3f} "
                  f"{row.get('warm', 0.0):9.3f}")
    for row in result["qor_rows"]:
        print(f"  qor {row['program']:<14} cycles={row['cycles']} "
              f"o3={row['o3_cycles']} vs_o3={row['vs_o3']:.4f}")
    print(f"  ops attempted={result['attempted']} failed={result['failed']} "
          f"oracle={'ok' if result['correct'] else 'DISAGREES or invariant broken'}")
    for failure in result["failures"][:5]:
        print(f"  FAILURE {failure['outcome']} {failure['phase']} "
              f"{failure['program']}: {failure['exception']}: "
              f"{failure['message'][:120]}")
    for line in result["findings"]:
        print(f"  FINDING {line}")
    for line in result["broken"]:
        print(f"  BROKEN INVARIANT {line}")


# -- repeatability --------------------------------------------------------------

def compare(a: Dict, b: Dict) -> bool:
    """Print both values of every end-to-end metric, their ratio and a
    verdict against the metric's bound; False when any is out of bound."""
    why = comparable(a["stamp"], b["stamp"])
    if why:
        print(f"  {why}")
        return False
    ok = True
    for name, metric in E2E.items():
        x, y = a["end_to_end"][name], b["end_to_end"][name]
        if metric.exact:
            verdict = "PASS" if x == y else "DIFFERS (must repeat exactly)"
        else:
            worse = (x - y) / x if metric.better == "higher" else (y - x) / x
            verdict = "PASS" if abs(worse) <= metric.bound else "UNRESOLVED"
        ok &= verdict == "PASS"
        print(f"  {name:<22} {x:>14.6g} {y:>14.6g}  ratio {y / x:7.4f}  "
              f"bound {metric.bound:4.2f}  {verdict}")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*catalog.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only; 1: per-layer; "
                             "omitted: both")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one pass (tier-1 smoke test)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the set N times and compare run 1 with "
                             "the others against the bounds")
    parser.add_argument("--compare", nargs=2, metavar="RESULT",
                        help="compare two result files and exit")
    parser.add_argument("--write-spec", action="store_true",
                        help="render BENCHMARK.json from the catalog and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(catalog.benchmark_spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.compare:
        loaded = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                loaded.append(json.load(fh))
        return 0 if compare(*loaded) else 1
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no product to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2

    names = list(catalog.WORKLOADS) if args.workload == "all" else [args.workload]
    runs: List[Dict[str, Dict]] = []
    status = 0
    for _ in range(args.repeat):
        runs.append({})
        for name in names:
            try:
                result = run_workload(name, args.seed, args.seconds,
                                      args.trace, args.smoke)
            except RuntimeError as exc:
                print(f"HARNESS ERROR {exc}", file=sys.stderr)
                return 3
            runs[-1][name] = result
            report(name, result, args.trace)
            if result["broken"]:
                status = 4
        found = {runs[-1][n]["digest"] for n in names if n.startswith("search_")}
        if len(found) > 1:
            print("BROKEN INVARIANT search_service returned different results "
                  "than search_engine at the same seed")
            status = 4
    for later in runs[1:]:
        for name in names:
            print(f"== repeatability {name}")
            if not compare(runs[0][name], later[name]):
                status = status or 5
    if status == 0 or status == 5:
        for name in names:
            result = runs[-1][name]
            print(json.dumps({"correct": result["correct"],
                              "attempted": result["attempted"],
                              "failed": result["failed"],
                              "metrics": final_metrics(result, args.trace)}))
    return status


if __name__ == "__main__":
    sys.exit(main())
