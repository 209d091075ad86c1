"""experiments/bench_pairs.py: the pair order, the record and the claim rule,
on stand-in checkouts whose ``perfbench/run.py`` prints a fixed result."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "experiments" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "run_s_p50", "better": "lower", "bound": 0.2},
    {"name": "elems_per_s", "better": "higher", "bound": 0.2},
    {"name": "model.dma_commands", "better": "lower", "bound": 0.02},
]

# Stands in for perfbench/run.py: appends its argv to calls.jsonl and prints
# the result line; run_s_p50 is the checkout's P50 (from p50.txt).
FAKE_RUN = """\
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
with open(here / "calls.jsonl", "a") as f:
    f.write(json.dumps(sys.argv[1:]) + "\\n")
p50 = float((here / "p50.txt").read_text())
print(json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": {
    "run_s_p50": {"value": p50, "unit": "s"},
    "elems_per_s": {"value": 1.0 / p50, "unit": "1/s"},
    "model.dma_commands": {"value": 7, "unit": "count"}}}))
"""


def _run(p50: float, failed: int = 0, correct: bool = True, exit_code: int = 0) -> dict:
    return {"run_s_p50": p50, "elems_per_s": 1.0 / p50, "model.dma_commands": 7,
            "correct": correct, "failed": failed, "attempted": 5, "exit": exit_code}


def _pairs(parent: list[float], change: list[float], **change_run) -> list[dict]:
    return [{"pair": i, "parent": _run(p), "change": _run(c, **change_run)}
            for i, (p, c) in enumerate(zip(parent, change))]


def _claim(pairs: list[dict]) -> str:
    record = {"workloads": {"w": bench_pairs.summarize(pairs, METRICS)}}
    return bench_pairs.claim_result(record, "w", "run_s_p50")


PARENT = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.02]
FASTER = [p - 0.2 for p in PARENT]


def test_a_clear_gain_with_every_run_correct_is_met():
    summary = bench_pairs.summarize(_pairs(PARENT, FASTER), METRICS)
    rows = summary["summary"]["run_s_p50"]
    assert rows["change_better"] == 10 and rows["worse_by"] < 0
    assert summary["summary"]["elems_per_s"]["change_better"] == 10
    assert summary["model_counters_identical_between_sides"]
    assert _claim(_pairs(PARENT, FASTER)).startswith("met:")


@pytest.mark.parametrize("change_run, shown", [
    ({"failed": 1}, "failed ops 0 -> 10"),
    ({"correct": False}, "every run correct: no"),
    ({"exit_code": 1}, "every run correct: no"),
], ids=["failed-op", "incorrect", "non-zero-exit"])
def test_a_gain_with_a_failing_change_run_is_not_met(change_run, shown):
    result = _claim(_pairs(PARENT, FASTER, **change_run))
    assert result.startswith("not met:")
    assert shown in result


def test_a_gain_inside_the_parent_spread_is_not_met():
    assert _claim(_pairs(PARENT, [p - 0.005 for p in PARENT])).startswith("not met:")


def _checkout(root: Path, p50: float, spec: dict | None,
              commit: str | None = "0abc123") -> Path:
    """A stand-in export without ``.git``; ``commit`` goes to its COMMIT file."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / "p50.txt").write_text(str(p50))
    if spec is not None:
        (root / "BENCHMARK.json").write_text(json.dumps(spec))
    if commit is not None:
        (root / "COMMIT").write_text(commit + "\n")
    return root


def test_main_runs_every_workload_of_the_change_benchmark_for_its_run_seconds(tmp_path):
    spec = {"run_seconds": 7, "workloads": [{"name": "a"}, {"name": "b"}],
            "end_to_end": METRICS}
    parent = _checkout(tmp_path / "parent", 1.0, None, "6e797ef")
    change = _checkout(tmp_path / "change", 0.5, spec, "1f2e3d4")
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--pairs", "2", "--seed", "40", "--held-out-seeds", "90",
                             "--claim", "a:run_s_p50", "--out", str(out)]) == 0
    calls = {side: [json.loads(line) for line in (root / "calls.jsonl").read_text().splitlines()]
             for side, root in (("parent", parent), ("change", change))}
    expected = [["--workload", w, "--seed", str(seed), "--seconds", "7", "--trace", "0"]
                for w, seed in (("a", 40), ("b", 40), ("a", 41), ("b", 41), ("a", 90))]
    assert calls["parent"] == calls["change"] == expected
    record = json.loads(out.read_text())
    assert (record["parent"]["commit"], record["change"]["commit"]) == ("6e797ef", "1f2e3d4")
    assert list(record["workloads"]) == ["a", "b"]
    assert [p["first"] for p in record["workloads"]["a"]["pairs"]] == ["parent", "change"]
    assert record["workloads"]["b"]["summary"]["run_s_p50"]["change_better"] == 2
    assert record["held_out"]["workloads"]["a"]["pairs"][0]["seed"] == 90
    # two pairs need both wins; the parent's runs do not spread
    assert record["claim"]["result"].startswith("met:")


def test_main_refuses_checkouts_whose_paths_differ_in_length(tmp_path, capsys):
    spec = {"run_seconds": 7, "workloads": [{"name": "a"}], "end_to_end": METRICS}
    parent = _checkout(tmp_path / "parent", 1.0, None)
    change = _checkout(tmp_path / "change-2", 0.5, spec)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(parent), "--change", str(change),
                          "--out", str(out)])
    assert exit_info.value.code == 2
    assert "different lengths" in capsys.readouterr().err
    assert not out.exists()
    assert not any((root / "calls.jsonl").exists() for root in (parent, change))


@pytest.mark.parametrize("side", ["parent", "change"])
def test_main_refuses_a_checkout_whose_commit_is_unknown(tmp_path, capsys, side):
    spec = {"run_seconds": 7, "workloads": [{"name": "a"}], "end_to_end": METRICS}
    roots = {s: _checkout(tmp_path / s, 1.0, spec, None if s == side else "6e797ef")
             for s in ("parent", "change")}
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(roots["parent"]), "--change", str(roots["change"]),
                          "--out", str(out)])
    assert exit_info.value.code == 2
    assert f"--{side} {roots[side]}: no git history and no COMMIT file" in capsys.readouterr().err
    assert not out.exists()
    assert not any((root / "calls.jsonl").exists() for root in roots.values())
