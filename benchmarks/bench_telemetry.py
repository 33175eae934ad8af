"""Telemetry overhead gate: the instrumented evaluation stack with
``REPRO_TELEMETRY=on`` must stay within ``MAX_OVERHEAD`` of the same
workload with telemetry off, and produce bit-identical evaluation
values — observability must never cost correctness, and near-zero cost
when measuring. ``REPRO_TELEMETRY=trace`` rides along informationally
(span events and trace ids are real allocations, so it reports its
overhead but only bit-identity is enforced).

The workload is a fresh-toolchain sweep over every CHStone program
(three pass sequences each): engine memo misses, pass pipelines, cycle
profiles and kernel execution — every instrumented layer on the hot
path. Toolchains are rebuilt per pass so both modes repeatedly pay the
span-wrapped cold engine paths rather than a memoized lookup loop.

An assertion, not a recorder: a run writes no tracked file (timings go
to the terminal and ``results/artifacts.txt``; the performance record is
``benchmarks/e2e/``).

Run via pytest (``pytest benchmarks/bench_telemetry.py``) or standalone
(``python benchmarks/bench_telemetry.py``).
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro import telemetry as tm
from repro.toolchain import HLSToolchain

MAX_OVERHEAD = 1.05     # telemetry-on wall-clock ≤ 5% over telemetry-off

# Interleaved best-of-N: per round one pass per mode back to back, each
# mode keeps its minimum, so CPU-frequency regime shifts on shared
# runners hit both modes alike — a slowdown in a minimum is real, never
# interference.
ITERATIONS = 12
SEQUENCES = [[38, 31], [38, 31, 7], [31, 7, 11]]


def _time_suite(programs: Dict[str, object],
                values: Dict[str, List]) -> float:
    """One sweep: fresh toolchain, evaluate_batch on every program."""
    toolchain = HLSToolchain()
    t0 = time.perf_counter()
    for name, module in programs.items():
        values[name] = toolchain.engine.evaluate_batch(module, SEQUENCES)
    return time.perf_counter() - t0


def run_bench(programs: Dict[str, object]) -> Dict:
    previous_mode = tm.mode()
    off_values: Dict[str, List] = {}
    on_values: Dict[str, List] = {}
    trace_values: Dict[str, List] = {}
    off_best = on_best = trace_best = float("inf")
    try:
        for _ in range(ITERATIONS):
            tm.configure("off")
            off_best = min(off_best, _time_suite(programs, off_values))
            tm.configure("on")
            on_best = min(on_best, _time_suite(programs, on_values))
            # Trace mode rides along informationally (not gated): span
            # events and trace ids are real allocations, so its overhead
            # is reported but only bit-identity is enforced. Drain the
            # event buffer each round so the measurement never times
            # list growth from previous rounds.
            tm.configure("trace")
            trace_best = min(trace_best, _time_suite(programs, trace_values))
            tm.drain_trace_events()
    finally:
        tm.stop_exporter(flush=False)
        tm.configure(previous_mode)
    for mode_name, values in (("on", on_values), ("trace", trace_values)):
        diverged = [n for n in programs if off_values[n] != values[n]]
        assert not diverged, (f"telemetry-{mode_name} evaluations diverged "
                              f"from telemetry-off on {diverged}")
    return {
        "programs": len(programs),
        "evaluations_per_pass": len(programs) * len(SEQUENCES),
        "off_seconds": off_best,
        "on_seconds": on_best,
        "trace_seconds": trace_best,
        "overhead": on_best / off_best,
        "trace_overhead": trace_best / off_best,
    }


def _render(result: Dict) -> str:
    lines = [
        f"workload: {result['evaluations_per_pass']} evaluations/pass "
        f"({result['programs']} CHStone programs x {len(SEQUENCES)} "
        f"sequences), {ITERATIONS} interleaved rounds per mode",
        f"telemetry off: {result['off_seconds'] * 1e3:.1f}ms/pass",
        f"telemetry on : {result['on_seconds'] * 1e3:.1f}ms/pass",
        f"trace mode   : {result['trace_seconds'] * 1e3:.1f}ms/pass "
        f"({result['trace_overhead']:.4f}x, informational)",
        f"overhead     : {result['overhead']:.4f}x "
        f"(ceiling {MAX_OVERHEAD}x), values bit-identical in all modes",
    ]
    return "\n".join(lines)


def test_telemetry_overhead(benchmarks):
    from conftest import emit  # benchmarks/ is sys.path-prepended by pytest

    result = run_bench(benchmarks)
    emit("BENCH telemetry — instrumentation overhead on the hot path",
         _render(result))
    assert result["overhead"] <= MAX_OVERHEAD, _render(result)


if __name__ == "__main__":
    from repro.programs import chstone

    result = run_bench(chstone.build_all())
    print(_render(result))
    if result["overhead"] > MAX_OVERHEAD:
        raise SystemExit(f"telemetry overhead {result['overhead']:.4f}x "
                         f"exceeds the {MAX_OVERHEAD}x ceiling")
