"""Tables 1–3 of the paper, regenerated from the implementation so any
drift between code and paper is caught by the table tests/benches.
"""

from __future__ import annotations

from ..features.table import FEATURE_NAMES
from ..passes.registry import PASS_TABLE
from ..rl.agents import TABLE3

__all__ = ["render_table1", "render_table2", "render_table3"]


def render_table1() -> str:
    lines = ["Table 1 — LLVM Transform Passes (action indices)"]
    for i in range(0, len(PASS_TABLE), 6):
        chunk = PASS_TABLE[i:i + 6]
        lines.append("  ".join(f"{i + j:>2} {name:<24}" for j, name in enumerate(chunk)))
    return "\n".join(lines)


def render_table2() -> str:
    lines = ["Table 2 — Program Features"]
    for i, name in enumerate(FEATURE_NAMES):
        lines.append(f"{i:>2}  {name}")
    return "\n".join(lines)


def render_table3() -> str:
    lines = ["Table 3 — Observation and action spaces of the deep RL agents"]
    header = f"{'':<12}" + "".join(f"{name:>12}" for name in TABLE3)
    lines.append(header)
    algos = [TABLE3[n][0] for n in TABLE3]
    lines.append(f"{'Algorithm':<12}" + "".join(f"{a:>12}" for a in algos))
    lines.append(f"{'Observation':<12}")
    for name, (algo, obs, act) in TABLE3.items():
        lines.append(f"  {name:<12} obs: {obs:<36} action: {act}")
    return "\n".join(lines)
