"""Tier-1 smoke test of the end-to-end benchmark.

Runs all four workloads at ``--smoke`` size (2 programs, one untraced and
one traced pass each) through the real driver and checks the contract a
later performance PR relies on: every metric is there with its unit, the
counts repeat exactly between the two passes, the oracle ran, and the
span table accounts for the wall.
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import run as driver  # noqa: E402


def _run(cwd, script, *args):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@functools.lru_cache(maxsize=None)
def _smoke(workload):
    """(stdout's last line, the result file) of one smoke run, both modes."""
    done = _run(ROOT, os.path.join(HERE, "run.py"), "--workload", workload,
                "--smoke", "--seed", "1")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(os.path.join(HERE, "results", f"{workload}-seed1-full.json")) as fh:
        return json.loads(done.stdout.strip().splitlines()[-1]), json.load(fh)


@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
def test_smoke_workload(workload):
    final, result = _smoke(workload)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["attempted"] >= 1 and final["failed"] == 0
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        assert final["metrics"][metric.name]["unit"] == metric.unit, metric.name
    for metric in catalog.END_TO_END:
        assert final["metrics"][metric.name]["value"] > 0, metric.name
    # exact metrics equal across the untraced and the traced pass, warm
    # phase sample-free, warm == cold: all folded into "broken"
    assert result["broken"] == []
    assert result["qor_rows"], "the oracle checked nothing"
    assert result["stamp"]["sizes"] == catalog.SMOKE_SIZES[workload]
    attributed = sum(sum(row.values()) for row in result["layers"].values())
    assert attributed == pytest.approx(result["traced_wall_s"], rel=0.05)
    assert os.path.exists(os.path.join(HERE, "results",
                                       f"spans-{workload}-1.jsonl"))


def test_service_returns_what_the_engine_returns():
    assert _smoke("search_service")[1]["digest"] == \
        _smoke("search_engine")[1]["digest"]


def test_spec_file_matches_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == catalog.benchmark_spec()
    for entry in catalog.benchmark_spec()["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_refuses_incomparable_results():
    a = driver.stamp("search_engine", 1, catalog.SIZES["search_engine"], 3)
    assert driver.comparable(a, dict(a, passes=5)) is None
    assert "not comparable" in driver.comparable(a, dict(a, seed=2))
    assert "not comparable" in driver.comparable(
        a, dict(a, sizes=catalog.SMOKE_SIZES["search_engine"]))
    assert "not comparable" in driver.comparable(
        a, dict(a, knobs=dict(a["knobs"], REPRO_SIM_SIMD="off")))


def test_fails_without_the_product(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _run(tmp_path, os.path.join("benchmarks", "e2e", "run.py"),
                "--workload", "search_engine", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()
