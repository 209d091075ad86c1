"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, plus the correctness gate and the missing-sources exit.

Run from the root of a checkout: ``python3 -m pytest perfbench/test_smoke.py``
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_src()

import bench  # noqa: E402  (needs the checkout's src on the path)

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "kmeans-k10": {"cores": 4, "elems_per_core": 200},
    "vecadd-lazy": {"cores": 4, "elems_per_core": 1_000},
    "histogram-4096": {"cores": 4, "elems_per_core": 1_000},
}


def tiny(name: str) -> bench.Workload:
    return dataclasses.replace(bench.WORKLOADS[name], **TINY[name])


def test_workloads_match_the_contract():
    assert set(run.WORKLOAD_NAMES) == set(bench.WORKLOADS) == set(TINY)
    assert {w["name"] for w in CONTRACT["workloads"]} == set(bench.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = bench.measure(name, tiny(name), seed=5, seconds=0.2)
    assert result.correct and result.attempted > bench.SETUP_REPS + 1
    want = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {m: u for m, (_, u) in result.metrics.items()} == want
    assert all(v > 0 for v, _ in result.metrics.values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_self_times_add_up_to_the_op_time(name, tmp_path):
    path = tmp_path / "trace.json"
    result = bench.measure_traced(name, tiny(name), seed=5, seconds=0.4, trace_path=path)
    assert result.correct
    want = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {m: u for m, (_, u) in result.metrics.items()} == want

    ops = json.loads(path.read_text())["ops"]
    spans = set(bench.LAYER_TIMES.values())
    for op in ops:
        assert set(op["self_s"]) <= spans
        assert all(v >= 0 for v in op["self_s"].values())
        assert sum(op["self_s"].values()) == pytest.approx(op["seconds"], rel=0.01, abs=1e-4)
    layer_sum = sum(result.metrics[m][0] for m in bench.LAYER_TIMES)
    mean_op = sum(op["seconds"] for op in ops) / len(ops)
    assert layer_sum == pytest.approx(mean_op, rel=0.01, abs=1e-4)


def test_gate_counts_wrong_results_and_moved_counters():
    runner = bench.Runner(tiny("vecadd-lazy"), seed=1)
    runner.compute_oracle()
    assert runner.op().ok
    runner.ref_stats.dma_commands += 1
    assert not runner.op().ok
    runner.ref_stats.dma_commands -= 1
    runner.expected = runner.expected.copy()
    runner.expected[0] += 1
    assert not runner.op().ok
    assert (runner.attempted, runner.failed) == (3, 2)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "vecadd-lazy",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
