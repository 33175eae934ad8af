"""Independent oracle: every returned sequence re-evaluated on the
reference interpreter and reference scheduler.

The toolchain under test answers through compiled kernels, the batch
executor, the SIMD tier, the memo/trie/store caches and (for two
workloads) worker processes. None of that is used here: the reference
toolchain has no caching layer and runs ``sim_kernels/batch/simd=off``.
A result is right when the reference reproduces the claimed cycle count
and the optimized module's ``ExecutionResult.observable()`` equals the
unoptimized module's.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.hls.profiler import HLSCompilationError
from repro.toolchain import HLSToolchain, clone_module


def reference_toolchain() -> HLSToolchain:
    return HLSToolchain(backend="none", sim_kernels="off", sim_batch="off",
                        sim_simd="off")


def _profile(ref: HLSToolchain, module, sequence):
    candidate = clone_module(module)
    ref.apply_passes(candidate, sequence)
    return ref.profile(candidate)


def verify(rows: List[Dict]) -> Dict:
    """Check ``rows`` — each ``{program, module, sequence, cycles}`` plus
    optionally a claimed ``o3_cycles``, ``bounded_by_o3`` (the product
    promised never to be worse than ``-O3``) and ``fallback_o3`` (score
    the row as ``-O3`` when that wins) — and score them against the
    oracle's own ``-O3`` row.

    ``cycles`` is what the product claimed; ``None`` claims the sequence
    fails HLS compilation, and such a row is scored at ``-O0``.
    Returns ``{rows, wrong, qor}``; ``wrong`` lists every disagreement
    with a replayable (program, sequence) and the reason.
    """
    ref = reference_toolchain()
    out_rows: List[Dict] = []
    wrong: List[Dict] = []
    for row in rows:
        module, sequence = row["module"], list(row["sequence"])
        base = ref.profile(clone_module(module))
        o3 = _profile(ref, module, ref.o3_sequence())
        problems: List[str] = []
        try:
            report = _profile(ref, module, sequence)
            cycles: Optional[int] = report.cycles
            if report.execution.observable() != base.execution.observable():
                problems.append("optimized module's observable() differs "
                                "from the unoptimized module's")
        except HLSCompilationError:
            cycles = None
        if cycles != row["cycles"]:
            problems.append(f"product claimed {row['cycles']} cycles, "
                            f"reference measured {cycles}")
        if row.get("o3_cycles") is not None and row["o3_cycles"] != o3.cycles:
            problems.append(f"product claimed -O3 = {row['o3_cycles']}, "
                            f"reference measured {o3.cycles}")
        if row.get("bounded_by_o3") and cycles is not None \
                and cycles > o3.cycles:
            problems.append(f"served {cycles} cycles > -O3 {o3.cycles}")
        raw = cycles if cycles is not None else base.cycles
        scored = min(raw, o3.cycles) if row.get("fallback_o3") else raw
        out_rows.append({"program": row["program"], "cycles": cycles,
                         "o0_cycles": base.cycles, "o3_cycles": o3.cycles,
                         "vs_o3": o3.cycles / scored,
                         "raw_vs_o3": o3.cycles / raw})
        for why in problems:
            wrong.append({"program": row["program"], "sequence": sequence,
                          "message": why})
    return {"rows": out_rows, "wrong": wrong,
            "qor": _geomean([r["vs_o3"] for r in out_rows]),
            "raw_qor": _geomean([r["raw_vs_o3"] for r in out_rows])}


def _geomean(ratios: List[float]) -> float:
    if not ratios:
        return float("nan")
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))
