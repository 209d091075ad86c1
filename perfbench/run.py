"""pimlite benchmark: host time and modelled traffic of three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py                                  # every workload
    python3 perfbench/run.py --workload vecadd-lazy --seed 3 --seconds 20
    python3 perfbench/run.py --workload kmeans-k10 --trace 1  # per-layer run

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans also go to ``perfbench/out/``).  End-to-end
host times are scaled to a fixed host speed by a reference loop timed after
each op (see ``bench.REFERENCE_S``); raw wall times are printed beside them,
and per-layer times are raw.  Each metric
is printed on its own line with its unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only if every op matched its oracle bit for
bit and every op's traffic counters matched, on the run's seed and on a
held-out seed.  ``--workload all`` runs each workload in its own fresh
process, one after another.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("kmeans-k10", "vecadd-lazy", "histogram-4096")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def use_checkout_src() -> None:
    """Put the checkout's ``src/`` first on the import path, or exit 2."""
    src = ROOT / "src"
    if not (src / "pimlite" / "__init__.py").is_file():
        print(f"no pimlite sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    use_checkout_src()
    import pimlite

    if not Path(pimlite.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"pimlite imported from {pimlite.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import bench

    workload = bench.WORKLOADS[name]
    print(f"workload {name}: {workload.app}, {workload.cores} cores x "
          f"{workload.elems_per_core} elems/core, seed {seed}, "
          f"{'traced' if trace else 'untraced'}, {seconds:g} s")
    if trace:
        result = bench.measure_traced(name, workload, seed, seconds,
                                      HERE / "out" / f"trace-{name}-seed{seed}.json")
    else:
        result = bench.measure(name, workload, seed, seconds)
    for metric, (value, unit) in result.metrics.items():
        print(f"  {metric:34s} {value:.6g} {unit}")
    for note in result.notes:
        print(f"  {note}")
    _emit(result.correct, result.attempted, result.failed,
          {m: {"value": v, "unit": u} for m, (v, u) in result.metrics.items()})
    return 0 if result.correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            last = {}
        if proc.returncode == 2 or not last:
            return proc.returncode or 1
        correct = correct and last["correct"] and proc.returncode == 0
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}/{m}": v for m, v in last["metrics"].items()})
    _emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # single-threaded numeric libraries; set before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
