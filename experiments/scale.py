"""Weak scaling of the six workloads at the size of real UPMEM machines.

PrIM (Gomez-Luna et al., arXiv 2105.03814) characterizes systems with 640
and 2,556 DPUs.  This script runs every workload under weak scaling at 640
cores x 10,000 elements per core and at 2,560 cores, one run at a time, each
in its own child process::

    python3 experiments/scale.py                   # every run in RUNS
    python3 experiments/scale.py vecadd-2560x10000 # selected runs by name

A run is ``pimlite run --scaling weak --cores N --elems E --out
experiments/scale/<name>.csv``, started from this checkout's ``src/``.  Next
to each CSV it writes ``<name>.json`` with the command, whether the run
matched its oracle, the child's peak RSS (its own ``ru_maxrss``, from
``os.wait4``) and its elapsed time, then rewrites the table in
``experiments/scale/README.md`` from every ``.json`` present.  The CSV
columns are those of ``pimlite run``; ``wall_time_ms`` there is the run
alone, without data generation and the oracle.

linreg, logreg and kmeans also run at 2,560 x 2,500, the same total as
640 x 10,000, which compares the two machine sizes at one data size.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "experiments" / "scale"
HOST_HEAVY = ("linreg", "logreg", "kmeans")
APPS = ("reduction", "vecadd", "histogram") + HOST_HEAVY
# the ``pimlite`` console script, runnable without installing the package
PIMLITE = "import sys; from pimlite.harness import main; sys.exit(main())"
RUNS = ([(app, 640, 10_000) for app in APPS]
        + [(app, 2560, 10_000) for app in APPS]
        + [(app, 2560, 2_500) for app in HOST_HEAVY])


def run_name(app: str, cores: int, elems: int) -> str:
    return f"{app}-{cores}x{elems}"


def run_one(app: str, cores: int, elems: int) -> dict:
    """Run one weak-scaling point in a child process; return its record."""
    name = run_name(app, cores, elems)
    csv_path = OUT / f"{name}.csv"
    cmd = [sys.executable, "-c", PIMLITE, "run", "--benchmark", app,
           "--scaling", "weak", "--cores", str(cores), "--elems", str(elems),
           "--out", str(csv_path.relative_to(ROOT))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    child = subprocess.Popen(cmd, cwd=ROOT, env=env)
    _, status, usage = os.wait4(child.pid, 0)
    elapsed = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise SystemExit(f"{name}: exited with {child.returncode}")
    with open(csv_path, newline="") as f:
        correct = next(csv.DictReader(f))["correct"] == "true"
    record = {"name": name, "command": " ".join(["pimlite"] + cmd[3:]),
              "correct": correct, "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
              "elapsed_s": round(elapsed, 2)}
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def write_table() -> None:
    """The table of every recorded run, in the order of RUNS."""
    lines = ["| run | cores | elems/core | correct | run wall (s) | process (s) "
             "| peak RSS (MB) |", "|---|---:|---:|---|---:|---:|---:|"]
    for app, cores, elems in RUNS:
        name = run_name(app, cores, elems)
        if not (OUT / f"{name}.json").exists():
            continue
        record = json.loads((OUT / f"{name}.json").read_text())
        with open(OUT / f"{name}.csv", newline="") as f:
            row = next(csv.DictReader(f))
        lines.append(f"| {app} | {cores} | {elems} | {row['correct']} | "
                     f"{float(row['wall_time_ms']) / 1e3:.2f} | "
                     f"{record['elapsed_s']:.2f} | {record['peak_rss_mb']:.0f} |")
    readme = OUT / "README.md"
    text = readme.read_text() if readme.exists() else ""
    head, sep, _ = text.partition("<!-- table -->\n")
    if not sep:
        head = "# Weak scaling at 640 and 2,560 cores\n\n"
    readme.write_text(head + "<!-- table -->\n" + "\n".join(lines) + "\n")


def main(argv: list[str]) -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    chosen = [r for r in RUNS if not argv or run_name(*r) in argv]
    unknown = set(argv) - {run_name(*r) for r in RUNS}
    if unknown:
        print(f"unknown runs: {sorted(unknown)}", file=sys.stderr)
        return 2
    for app, cores, elems in chosen:  # one at a time: the big runs need GBs
        record = run_one(app, cores, elems)
        print(f"{record['name']}: {record['elapsed_s']} s, "
              f"{record['peak_rss_mb']} MB peak RSS")
    write_table()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
