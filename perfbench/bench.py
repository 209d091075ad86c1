"""Workloads, the measured op, and the end-to-end and per-layer metrics.

Load model: a closed loop with one client in one single-threaded process.
One op builds a fresh ``PimDevice`` and ``ManagementContext`` with the
geometry ``harness.run_benchmark`` builds, calls ``apps.run_<app>`` once and
compares the result bit for bit to the oracle computed during set-up.

Two costs are reported separately: host time (the simulator's wall time,
scaled to a fixed host speed, see ``REFERENCE_S``) and the modelled
machine's traffic counters (``model.*``, exact and identical on every op and
on every seed).
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pimlite
from pimlite import apps, harness
from pimlite.apps import BenchmarkSpec
from pimlite.device import DeviceConfig, PimDevice
from pimlite.management import ManagementContext

import tracing

# added to the run's seed to get the held-out seed of the counter self-check
HELD_OUT_SEED_OFFSET = 1_000_003
# set-up (import, oracle, warm-up op) is repeated and its median reported
SETUP_REPS = 5
# ten samples must lie beyond the reported tail value
TAIL_BEYOND = 10
# The host's speed drifts by up to ~1.5x in phases lasting minutes (measured
# on a shared 2-vCPU VM), which moves the median of a 30 s run by 15-30 %.
# End-to-end host times are therefore scaled to a fixed host speed: each timed
# interval is multiplied by REFERENCE_S / (mean time of the reference loop
# runs just before and just after it), i.e. given in seconds on a host where
# that loop takes REFERENCE_S.  Raw wall times are printed beside them.
REFERENCE_S = 0.025


@dataclass(frozen=True)
class Workload:
    app: str
    cores: int
    elems_per_core: int
    dims: int = 10
    clusters: int = 10
    iterations: int = 3
    bins: int = 256
    run_kwargs: dict = field(default_factory=dict)

    def spec(self, seed: int) -> BenchmarkSpec:
        return BenchmarkSpec(name=self.app, total_elems=self.cores * self.elems_per_core,
                             dims=self.dims, bins=self.bins, clusters=self.clusters,
                             iterations=self.iterations, seed=seed)

    @property
    def elems_per_op(self) -> int:
        total = self.cores * self.elems_per_core
        return total * self.iterations if self.app == "kmeans" else total


# Why each workload was chosen is in BENCHMARK.json.  Sizes keep one op near
# 0.3-1 s on a 2-core x86 VM: long enough that an op spans the host's
# sub-second speed flicker, short enough that a 30 s run has 30 or more
# samples for a tail value with ten samples beyond it.
WORKLOADS = {
    "kmeans-k10": Workload(
        "kmeans", cores=32, elems_per_core=2_000, dims=10, clusters=10, iterations=3,
        run_kwargs={"variant": "auto"}),
    "vecadd-lazy": Workload(
        "vecadd", cores=32, elems_per_core=100_000, run_kwargs={"eager": False}),
    "histogram-4096": Workload(
        "histogram", cores=32, elems_per_core=25_000, bins=4096,
        run_kwargs={"variant": "auto"}),
}

MODEL_COUNTERS = ("host_to_pim_bytes", "pim_to_host_bytes", "bank_scratch_bytes",
                  "dma_commands", "kernel_launches")
MODEL_UNITS = {"dma_commands": "count", "kernel_launches": "count"}

# per-layer time metrics and the span whose self time each one is; together
# they cover every span under an op, so they add up to the traced op time
LAYER_TIMES = {
    "device.dma.s": "device.dma",
    "device.host_xfer.s": "device.host_xfer",
    "device.sched.s": "device.sched",
    "management.s": "management",
    "comm.scatter.s": "comm.scatter",
    "comm.gather.s": "comm.gather",
    "comm.broadcast.s": "comm.broadcast",
    "processing.array_red.s": "processing.array_red",
    "processing.array_map.s": "processing.array_map",
    "processing.array_zip.s": "processing.array_zip",
    "processing.update_context.s": "processing.update_context",
    "processing.kernel.s": "processing.kernel",
    "processing.host_fold.s": "processing.host_fold",
    "apps.map_to_val.s": "apps.map_to_val",
    "apps.acc.s": "apps.acc",
    "apps.map.s": "apps.map",
    "apps.init.s": "apps.init",
    "apps.datagen.s": "apps.datagen",
    "apps.run.self_s": "apps.run",
    "unattributed_s": "op",
}
LAYER_CALLS = {
    "device.dma.calls": "device.dma",
    "device.host_xfer.calls": "device.host_xfer",
    "device.launch.calls": "device.sched",
    "management.calls": "management",
    "comm.scatter.calls": "comm.scatter",
    "comm.gather.calls": "comm.gather",
    "comm.broadcast.calls": "comm.broadcast",
    "processing.array_red.calls": "processing.array_red",
    "processing.array_map.calls": "processing.array_map",
    "processing.array_zip.calls": "processing.array_zip",
    "processing.update_context.calls": "processing.update_context",
    "apps.map_to_val.calls": "apps.map_to_val",
    "apps.acc.calls": "apps.acc",
    "apps.map.calls": "apps.map",
}
LAYER_COUNTS = {"device.host_xfer.bytes": "B", "device.kernel_steps": "count",
                "device.lock.acquisitions": "count", "processing.kernel.batches": "count"}


class ReferenceLoop:
    """A fixed mix of interpreter, small-array numpy and memory-copy work,
    independent of pimlite, like the simulator's own mix.  Runs once when
    built, so that the first interval measured has a run before it."""

    def __init__(self) -> None:
        rng = np.random.Generator(np.random.PCG64(0))
        self._small = [rng.integers(0, 100, 64) for _ in range(8)]
        self._big = np.ones(2_000_000, np.uint8)
        self.samples: list[float] = []
        self.seconds()

    def seconds(self) -> float:
        start = time.perf_counter()
        x = 0
        for i in range(100_000):
            x += i * i
        for i in range(2_000):
            a = self._small[i % 8]
            c = a[np.argsort(a)]
            np.flatnonzero(c[:-1] == c[1:])
        for _ in range(5):
            z = np.zeros(4_000_000, np.uint8)
            z[:2_000_000] = self._big
            z[2_000_000:] = self._big
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def scale(self, seconds: float) -> float:
        """``seconds`` just measured (since the last reference run), at the
        reference host speed."""
        before = self.samples[-1]
        return seconds * 2 * REFERENCE_S / (before + self.seconds())


@dataclass
class Op:
    seconds: float
    ok: bool
    scaled: float = 0.0  # seconds at the reference host speed
    bank_cursor_after: int = 0
    live_arrays_after: int = 0
    plans: list = field(default_factory=list)


class Runner:
    """Runs ops of one workload at one seed and checks each one."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.spec = workload.spec(seed)
        self.run_app = getattr(apps, f"run_{workload.app}")
        self.oracle = getattr(apps, f"oracle_{workload.app}")
        self.expected = None
        self.ref_stats = None  # TrafficStats of the first op
        self.attempted = 0
        self.failed = 0

    def compute_oracle(self) -> None:
        self.expected = self.oracle(self.spec)

    def _body(self, tracer: tracing.Tracer | None):
        w = self.workload
        dev = PimDevice(DeviceConfig(
            num_cores=w.cores,
            dram_bank_bytes=harness._bank_bytes_for(self.spec.total_elems, w.cores)))
        mgmt = ManagementContext(dev)
        run = self.run_app
        if tracer is not None:
            tracing.instrument_op(tracer, dev, mgmt)
            run = tracer.wrap("apps.run", run)
        result = np.asarray(run(mgmt, self.spec, **w.run_kwargs))
        exp = self.expected
        ok = (result.dtype == exp.dtype and result.shape == exp.shape
              and np.array_equal(result, exp))
        return ok, dev, mgmt

    def op(self, tracer: tracing.Tracer | None = None) -> Op:
        """One op; a raised error or any mismatch counts as a failure."""
        self.attempted += 1
        body = self._body if tracer is None else tracer.wrap("op", self._body)
        start = time.perf_counter()
        try:
            ok, dev, mgmt = body(tracer)
        except Exception:  # an op boundary: record, count, keep running
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return Op(time.perf_counter() - start, False)
        seconds = time.perf_counter() - start
        if self.ref_stats is None:
            self.ref_stats = dev.stats.copy()
        if not ok:
            print(f"result differs from the oracle (seed {self.spec.seed})", file=sys.stderr)
        elif dev.stats != self.ref_stats:
            print(f"traffic counters differ from the first op: {dev.stats}",
                  file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
        return Op(seconds, ok, bank_cursor_after=dev.cursors[0],
                  live_arrays_after=len(mgmt.registry))


def import_seconds() -> float:
    """Time ``import pimlite`` in a fresh interpreter (the first step of set-up)."""
    src = str(Path(pimlite.__file__).resolve().parent.parent)
    code = (f"import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
            "import pimlite; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(proc.stdout)


def set_up(runner: Runner, ref: ReferenceLoop) -> tuple[float, float]:
    """Import, oracle and one untimed warm-up op, repeated; returns the
    medians of the whole set-up (at the reference speed) and of the oracle
    alone (raw), in seconds."""
    totals, oracle_times = [], []
    for _ in range(SETUP_REPS):
        import_s = import_seconds()
        start = time.perf_counter()
        runner.compute_oracle()
        mid = time.perf_counter()
        runner.op()
        totals.append(ref.scale(import_s + time.perf_counter() - start))
        oracle_times.append(mid - start)
    return statistics.median(totals), statistics.median(oracle_times)


def timed_ops(runner: Runner, seconds: float, ref: ReferenceLoop) -> list[Op]:
    ops = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        op = runner.op()
        op.scaled = ref.scale(op.seconds)
        ops.append(op)
    return ops


def held_out_check(workload: Workload, seed: int, ref_stats) -> bool:
    """One checked op on a seed not otherwise used; true if it is correct and
    its counters equal the main seed's."""
    other = Runner(workload, seed + HELD_OUT_SEED_OFFSET)
    other.compute_oracle()
    other.op()
    same = other.failed == 0 and other.ref_stats == ref_stats
    if not same:
        print(f"held-out seed {other.spec.seed}: counters {other.ref_stats} "
              f"!= {ref_stats}", file=sys.stderr)
    return same


def tail(values: list[float]) -> tuple[float, float, int]:
    """The value with ``TAIL_BEYOND`` samples strictly beyond it, its
    percentile and the sample count; the maximum when there are too few."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    notes: list[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0


def measure(name: str, workload: Workload, seed: int, seconds: float) -> Result:
    """The untraced run: end-to-end metrics."""
    runner = Runner(workload, seed)
    ref = ReferenceLoop()
    setup_s, _ = set_up(runner, ref)
    ops = timed_ops(runner, seconds, ref)
    same = held_out_check(workload, seed, runner.ref_stats)
    attempted, failed = runner.attempted + 1, runner.failed + (not same)
    ok_ops = [o for o in ops if o.ok]
    if not ok_ops:
        return Result(attempted, failed, {}, [f"{name}: no op succeeded"])
    p50 = statistics.median(o.scaled for o in ok_ops)
    tail_s, tail_pct, n = tail([o.scaled for o in ok_ops])
    raw = [o.seconds for o in ok_ops]
    stats = runner.ref_stats
    metrics = {
        "run_s_p50": (p50, "s"),
        "run_s_tail": (tail_s, "s"),
        "elems_per_s": (workload.elems_per_op / p50, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    for c in MODEL_COUNTERS:
        metrics[f"model.{c}"] = (getattr(stats, c), MODEL_UNITS.get(c, "B"))
    notes = [
        f"run_s_tail is p{tail_pct:.1f} of {n} timed ops ({TAIL_BEYOND} beyond it)",
        f"host times are at the reference speed ({REFERENCE_S} s reference loop); "
        f"raw wall time: p50 {statistics.median(raw):.4g} s, tail {tail(raw)[0]:.4g} s, "
        f"reference loop p50 {statistics.median(ref.samples):.4g} s",
        f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted} ops, warm-up "
        f"and held-out ops included)",
        f"model.* counters on held-out seed {seed + HELD_OUT_SEED_OFFSET}: "
        + ("identical" if same else "DIFFERENT"),
    ]
    return Result(attempted, failed, metrics, notes)


def per_layer(tracer: tracing.Tracer, traced: list[Op], oracle_s: float,
              untraced_p50: float) -> dict:
    """Per-op averages of the traced phase, as name -> (value, unit)."""
    k = len(traced)
    m = {name: (tracer.self_s[span] / k, "s") for name, span in LAYER_TIMES.items()}
    m.update({name: (tracer.calls[span] / k, "count")
              for name, span in LAYER_CALLS.items()})
    m.update({name: (tracer.counts[name] / k, unit) for name, unit in LAYER_COUNTS.items()})
    dma_calls = tracer.calls["device.dma"]
    m["device.dma.us_per_cmd"] = (
        1e6 * tracer.self_s["device.dma"] / dma_calls if dma_calls else 0.0, "us")
    m["device.bank_cursor_after"] = (statistics.mean(o.bank_cursor_after for o in traced), "B")
    m["management.live_arrays_after"] = (
        statistics.mean(o.live_arrays_after for o in traced), "count")
    tasklets = [p.num_tasklets for o in traced for p in o.plans]
    m["processing.red.tasklets"] = (statistics.mean(tasklets) if tasklets else 0.0, "count")
    m["apps.oracle.s"] = (oracle_s, "s")
    m["trace.overhead_ratio"] = (
        statistics.median(o.seconds for o in traced) / untraced_p50, "ratio")
    return m


def measure_traced(name: str, workload: Workload, seed: int, seconds: float,
                   trace_path=None) -> Result:
    """The traced run: untraced and traced ops alternate, so that the
    untraced ones are the baseline of the tracing overhead under the same
    host conditions; returns the per-layer metrics."""
    runner = Runner(workload, seed)
    _, oracle_s = set_up(runner, ReferenceLoop())
    tracer = tracing.Tracer()
    untraced, traced, records = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced:
        untraced.append(runner.op())
        before = dict(tracer.self_s)
        tracer.plans = []
        tracer.spans = None if traced else []
        with tracing.instrumented(tracer):
            op = runner.op(tracer)
        op.plans = tracer.plans
        if not traced:
            first_spans = tracer.spans
        traced.append(op)
        records.append({
            "seconds": op.seconds, "ok": op.ok,
            "plans": [[p.variant, p.num_tasklets] for p in op.plans],
            "bank_cursor_after": op.bank_cursor_after,
            "live_arrays_after": op.live_arrays_after,
            "self_s": {s: v - before.get(s, 0.0) for s, v in tracer.self_s.items()},
        })
    same = held_out_check(workload, seed, runner.ref_stats)
    attempted, failed = runner.attempted + 1, runner.failed + (not same)
    ok_untraced = [o.seconds for o in untraced if o.ok]
    if not ok_untraced or not all(o.ok for o in traced):
        return Result(attempted, failed, {}, [f"{name}: a traced or untraced op failed"])
    metrics = per_layer(tracer, traced, oracle_s, statistics.median(ok_untraced))
    plans = sorted({(p.variant, p.num_tasklets) for o in traced for p in o.plans})
    notes = [
        f"{len(untraced)} untraced and {len(traced)} traced ops",
        "executed reduction plans (variant, tasklets): "
        + (", ".join(f"{v} x{t}" for v, t in plans) if plans else "none"),
        f"after every op: bank cursor {sorted({o.bank_cursor_after for o in traced})} B, "
        f"live arrays {sorted({o.live_arrays_after for o in traced})}",
    ]
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_path, "w") as f:
            json.dump({"workload": name, "seed": seed, "ops": records,
                       "spans_of_first_traced_op": first_spans}, f)
        notes.append(f"spans written to {trace_path.name}")
    return Result(attempted, failed, metrics, notes)
