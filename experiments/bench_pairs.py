"""Run alternating pairs of perfbench runs on two checkouts and write one
``BENCH_<n>.json`` record.

Run from anywhere, with a checkout of the parent commit and one of the
change, each with its own ``perfbench/`` and ``src/``::

    python3 experiments/bench_pairs.py --parent ../parent --change ../change \\
        --pairs 10 --seed 100 --held-out-seeds 9200 9201 9202 9203 \\
        --claim vecadd-lazy:run_s_p50 --note "..." --out BENCH_15.json

Pair ``i`` runs ``perfbench/run.py --workload W --seed <seed + i> --seconds
S --trace 0`` once in each checkout, for every workload ``W`` and the
``run_seconds`` ``S`` of the change's ``BENCHMARK.json``, each run a fresh
process whose working directory is that checkout; the parent runs first when
``i`` is even and the change first when it is odd. For each pair index every
workload runs its pair before the next index starts, so a slow phase of the
host touches all workloads alike. Each held-out seed then runs one more pair
(parent first on even positions) of the claimed workload.

The end-to-end metrics, whether lower or higher is better, and their bounds
come from the same file. The record holds the commits, the per-pair values,
each side's median and quartiles (linear interpolation), the number of pairs
in which the change is better (ties count for neither), whether the
``model.*`` counters repeat on every run and match between the sides, failed
and attempted ops, the claim's result and the notes. A claim is met when the
change is better in at least nine pairs in ten, its median differs from the
parent's by more than the parent's interquartile range, every run of both
sides exits 0 with every op correct, and the change fails no more ops than
the parent. The record is rewritten after every pair, so an interrupted
session keeps what it ran.

The two checkouts must resolve to absolute paths of the same length: the
path's length moves glibc malloc's dynamic mmap threshold, which reads as a
few MB of ``peak_rss_mb`` and a few per cent of some timings that no code
change caused. Checkouts such as ``../parent`` and ``../change`` satisfy it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def commit_of(checkout: Path) -> str:
    """``git describe --always --dirty`` of the checkout, or "unknown"."""
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its end-to-end values, ``correct``, ``failed``,
    ``attempted`` and exit code (an empty metric set if it printed none)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    try:
        last = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        last = {}
    run = {name: m["value"] for name, m in last.get("metrics", {}).items()}
    run.update(correct=bool(last.get("correct")), failed=last.get("failed"),
               attempted=last.get("attempted"), exit=proc.returncode)
    return run


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "min": min(values), "max": max(values)}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric sides, wins and bound check, plus the counter self-check,
    for the pairs of one workload."""
    out = {"summary": {}, "model_counters": {}, "failed": {}, "attempted": {}}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        if (name.startswith("model.") or len(pairs) < 2
                or not all(name in p[s] for p in pairs for s in SIDES)):
            continue
        sides = {s: [p[s][name] for p in pairs] for s in SIDES}
        summary = {s: quartiles(v) for s, v in sides.items()}
        parent, change = summary["parent"]["median"], summary["change"]["median"]
        worse_by = (change - parent) / parent if lower else (parent - change) / parent
        summary.update(
            change_better=sum((c < p) if lower else (c > p)
                              for p, c in zip(sides["parent"], sides["change"])),
            pairs=len(pairs), median_diff=change - parent,
            median_ratio=change / parent, worse_by=worse_by, bound=metric["bound"],
            within_bound=worse_by <= metric["bound"])
        out["summary"][name] = summary
    counters = [m["name"] for m in metrics if m["name"].startswith("model.")]
    same = True
    for s in SIDES:
        seen = [{c: p[s].get(c) for c in counters} for p in pairs]
        same = same and all(v == seen[0] for v in seen)
        out["model_counters"][s] = seen[0]
        out["failed"][s] = sum(p[s]["failed"] or 0 for p in pairs)
        out["attempted"][s] = sum(p[s]["attempted"] or 0 for p in pairs)
    out["model_counters_same_on_every_run_of_each_side"] = same
    out["model_counters_identical_between_sides"] = (
        out["model_counters"]["parent"] == out["model_counters"]["change"])
    out["every_run_correct"] = all(p[s]["correct"] and p[s]["exit"] == 0
                                   for p in pairs for s in SIDES)
    return out


def claim_result(record: dict, workload: str, metric: str) -> str:
    summary = record["workloads"].get(workload, {})
    rows = summary.get("summary", {}).get(metric)
    if rows is None:
        return "not measured"
    parent, change = rows["parent"], rows["change"]
    failed, correct = summary["failed"], summary["every_run_correct"]
    needed = -(-9 * rows["pairs"] // 10)
    met = (rows["change_better"] >= needed
           and abs(rows["median_diff"]) > parent["iqr"] and rows["worse_by"] < 0
           and failed["change"] <= failed["parent"] and correct)
    return (f"{'met' if met else 'not met'}: median {parent['median']:.4g} -> "
            f"{change['median']:.4g}, change better in {rows['change_better']} of "
            f"{rows['pairs']} pairs (needs {needed}); median difference "
            f"{abs(rows['median_diff']):.3g} against the parent's IQR {parent['iqr']:.3g}; "
            f"failed ops {failed['parent']} -> {failed['change']}; every run correct: "
            f"{'yes' if correct else 'no'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100, help="seed of pair 0")
    parser.add_argument("--held-out-seeds", type=int, nargs="*", default=[])
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    parser.add_argument("--note", action="append", default=[])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds, metrics = spec["run_seconds"], spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    claim = args.claim.split(":", 1) if args.claim else None
    if args.pairs < 1 or (claim and len(claim) != 2):
        parser.error("--pairs >= 1 and --claim WORKLOAD:METRIC required")
    if args.held_out_seeds and not claim:
        parser.error("--held-out-seeds runs the claimed workload: give --claim")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(checkouts["parent"])) != len(str(checkouts["change"])):
        parser.error(f"--parent {checkouts['parent']} and --change {checkouts['change']} "
                     "resolve to paths of different lengths")
    record = {
        "benchmark": f"perfbench/run.py --workload <w> --seconds {seconds:g} "
                     f"--seed {args.seed}+pair --trace 0",
        "pairs_note": "pair i runs the parent first when i is even and the change first "
                      "when i is odd; each run is a fresh process; quartiles by linear "
                      "interpolation; written by experiments/bench_pairs.py",
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} usable CPUs; "
                   f"Python {platform.python_version()}; one run at a time",
        "parent": {"commit": commit_of(checkouts["parent"])},
        "change": {"commit": commit_of(checkouts["change"])},
        "claim": {"workload": claim[0], "metric": claim[1]} if claim else None,
        "notes": args.note,
        "workloads": {},
        "held_out": {"seeds": args.held_out_seeds, "workloads": {}} if claim else None,
    }
    raw = {w: [] for w in workloads}
    held = []

    def write() -> None:
        for w, pairs in raw.items():
            if pairs:
                record["workloads"][w] = {"pairs": pairs, **summarize(pairs, metrics)}
        if held:
            record["held_out"]["workloads"][claim[0]] = {"pairs": held,
                                                         **summarize(held, metrics)}
        if claim:
            record["claim"]["result"] = claim_result(record, *claim)
            if held:
                record["claim"]["held_out_result"] = claim_result(
                    {"workloads": record["held_out"]["workloads"]}, *claim)
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    def run_pair(index: int, workload: str, seed: int) -> dict:
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        pair = {"pair": index, "seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], workload, seed, seconds)
            print(f"{workload} pair {index} seed {seed} {side}: "
                  f"run_s_p50 {pair[side].get('run_s_p50')}", file=sys.stderr)
        return pair

    for i in range(args.pairs):
        for w in workloads:
            raw[w].append(run_pair(i, w, args.seed + i))
            write()
    for i, seed in enumerate(args.held_out_seeds):
        held.append(run_pair(i, claim[0], seed))
        write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
