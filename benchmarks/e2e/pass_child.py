"""One pass of one workload in a fresh interpreter.

The kernel/plan/batch caches are process-wide, so a "cold" pass in a
reused process is not cold; a fresh child also gives a clean max-RSS.
The driver (``run.py``) starts this with a JSON spec file and reads the
result file it names. Exit code 0 means the pass ran — product failures
are data in the result; anything else is a harness error.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(spec["root"], "src"), here]
    relay_log = spec.get("relay_log")
    if relay_log:
        # worker spans come home through the product's own relay; keep
        # its periodic metrics exporter out of the working directory
        os.environ["REPRO_TELEMETRY_TRACE_LOG"] = relay_log
        os.environ["REPRO_TELEMETRY_LOG"] = ""

    import tracing
    import workloads
    from repro import telemetry as tm

    traced = spec["traced"]
    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    if traced:
        tracing.install(tracer)
        if relay_log:
            tm.configure("trace")

    os.makedirs(spec["workdir"], exist_ok=True)
    workload = workloads.WORKLOADS[spec["workload"]](
        spec["workload"], spec["seed"], spec["sizes"], spec["workdir"], tracer)
    clock = {"start": time.time()}
    try:
        workload.setup()
        ready = clock["ready"] = time.time()
        workload.cold()
        workload.warm()
        clock["measured"] = time.time()
        if spec["burst"]:
            workload.burst()
        workload.teardown()
        clock["closed"] = time.time()
        verdict = workloads.verify(workload)
        clock["verified"] = time.time()
    finally:
        shutil.rmtree(spec["workdir"], ignore_errors=True)

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "workload": spec["workload"], "seed": spec["seed"], "traced": traced,
        "setup_s": ready - spec["spawned"],
        "phases": {name: phase.to_json()
                   for name, phase in workload.phases.items()},
        "counters": workload.counters,
        "invariants": workload.invariants,
        "failures": workload.failures,
        "digest": workload.result_digest(),
        "oracle": {"rows": verdict["rows"], "checked": len(verdict["rows"]),
                   "wrong": len(verdict["wrong"])},
        "qor": verdict["qor"],
        "raw_qor": verdict["raw_qor"],
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
        "cpu_s": (own.ru_utime + own.ru_stime
                  + kids.ru_utime + kids.ru_stime),
        "extra": workload.extra,
        # where the pass's own wall went (diagnostic; seconds since spawn)
        "clock": {k: v - spec["spawned"] for k, v in clock.items()},
    }
    if traced:
        spans = list(tracer.records)
        if relay_log:
            spans += tracing.relayed_spans(relay_log, tracer.epoch)
        windows = {name: (phase.t0, phase.t1)
                   for name, phase in workload.phases.items()}
        tracing.fold(spans, windows)
        tracing.write_spans(spec["spans_out"], spans)
        result["trace"] = tracing.layer_metrics(spans)
        result["layers"] = tracing.layer_table(spans)
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
