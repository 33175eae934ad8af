"""Tables 1-3: regenerate and check against the paper's content."""

from repro.experiments import render_table1, render_table2, render_table3
from repro.features.table import FEATURE_NAMES
from repro.passes.registry import PASS_TABLE
from repro.rl.agents import TABLE3

from conftest import emit


def test_table1(benchmark):
    text = benchmark(render_table1)
    emit("Table 1 — LLVM transform passes", text)
    assert len(PASS_TABLE) == 46
    # spot-check the paper's indices
    assert PASS_TABLE[0] == "-correlated-propagation"
    assert PASS_TABLE[23] == "-loop-rotate"
    assert PASS_TABLE[33] == "-loop-unroll"
    assert PASS_TABLE[38] == "-mem2reg"
    assert PASS_TABLE[45] == "-terminate"


def test_table2(benchmark):
    text = benchmark(render_table2)
    emit("Table 2 — program features", text)
    assert len(FEATURE_NAMES) == 56
    assert FEATURE_NAMES[17] == "Number of critical edges"
    assert FEATURE_NAMES[51] == "Number of instructions (of all types)"


def test_table3(benchmark):
    text = benchmark(render_table3)
    emit("Table 3 — RL agent configurations", text)
    assert TABLE3["RL-PPO3"] == ("PPO", "Action History + Program Features", "Multiple-Action")
    assert TABLE3["RL-ES"][0] == "ES"
