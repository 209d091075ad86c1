"""Experiment runner, acceptance checks, and the ``pimlite`` command line.

``run_experiment`` sweeps a benchmark over core counts in weak or strong
scaling mode, verifies every run against its sequential oracle, and reports
traffic counters as machine-readable CSV rows.  Performance is reported as
bytes and commands, never time: wall time of a functional model says nothing
about the modelled machine.  An ``ExperimentConfig`` that no run could
execute (bad values, too few k-means points, iterators that cannot be
planned) raises a ``PimError`` when it is built, before the first run;
``pimlite run`` reports that as a usage error.

``verify_all`` runs the programmatic verification suite (oracle equivalence,
communication fuzzing, DMA legality audit, variant agreement, thread
throttling, lazy-zip traffic, batch sizing, scaling shapes, determinism) and
is what ``pimlite verify`` executes.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import apps, comm, processing
from .apps import BenchmarkSpec
from .device import DeviceConfig, PimDevice, round_up
from .errors import InvalidArgument, OracleMismatch, PimError
from .management import ManagementContext

RUNNERS = {
    "reduction": (apps.run_reduction, apps.oracle_reduction),
    "vecadd": (apps.run_vecadd, apps.oracle_vecadd),
    "histogram": (apps.run_histogram, apps.oracle_histogram),
    "linreg": (apps.run_linreg, apps.oracle_linreg),
    "logreg": (apps.run_logreg, apps.oracle_logreg),
    "kmeans": (apps.run_kmeans, apps.oracle_kmeans),
}


@dataclass(frozen=True)
class ExperimentConfig:
    benchmark: str
    core_counts: tuple[int, ...] = (8, 16, 32)
    scaling: str = "weak"
    elems_per_core: int = 10_000
    bins: int = 256
    dims: int = 10
    clusters: int = 10
    iterations: int = 3
    seed: int = 0
    variant: str = "auto"
    transfer_log_path: str | None = None  # transfers are logged only when set

    def __post_init__(self) -> None:
        if self.benchmark not in RUNNERS:
            raise InvalidArgument(f"unknown benchmark {self.benchmark!r}")
        if self.scaling not in ("weak", "strong"):
            raise InvalidArgument("scaling must be weak or strong")
        if not self.core_counts or any(c < 1 for c in self.core_counts):
            raise InvalidArgument("core_counts must be positive")
        # every run's spec differs from this one in total_elems alone, and
        # has at least as many
        spec = _make_spec(self, self.elems_per_core * min(self.core_counts))
        if self.benchmark == "kmeans":
            apps.check_kmeans_spec(spec)
        # an iterator's plan depends on its element sizes, context and output
        # entries, never on element or core counts: one iteration over
        # ``clusters`` elements (k-means' fewest) on one core plans every
        # iterator of the sweep, and raises the planner's PimError before any
        # run starts when they cannot be planned
        probe = replace(spec, total_elems=spec.clusters, iterations=1)
        _run_app(self.benchmark, probe, 1, self.variant)


@dataclass
class ResultRow:
    benchmark: str
    cores: int
    scaling: str
    variant: str
    tasklets_used: int
    total_elems: int
    correct: bool
    host_to_pim_bytes: int
    pim_to_host_bytes: int
    dram_to_scratch_bytes: int
    scratch_to_dram_bytes: int
    dma_commands: int
    kernel_launches: int
    wall_time_ms: float


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _bank_bytes_for(total_elems: int, cores: int) -> int:
    # generous: a few working arrays per element plus accumulators/context
    per_core = -(-total_elems // max(cores, 1))
    return max(1 << 20, round_up(per_core * 64 + (1 << 17), 1 << 20))


def _bank_bytes_for_spec(spec: BenchmarkSpec, cores: int) -> int:
    """:func:`_bank_bytes_for`, widened where the spec's widest stored
    element exceeds the 64 B per element that allows: a k-means point holds
    4 bytes per dimension, a regression row one more value, its label."""
    widest = {"kmeans": 4 * spec.dims, "linreg": 4 * (spec.dims + 1),
              "logreg": 4 * (spec.dims + 1)}.get(spec.name, 0)
    per_core = -(-spec.total_elems // cores)
    return max(_bank_bytes_for(spec.total_elems, cores),
               round_up(per_core * widest + (1 << 17), 1 << 20))


def _make_spec(config: ExperimentConfig, total: int) -> BenchmarkSpec:
    return BenchmarkSpec(name=config.benchmark, total_elems=total,
                         dims=config.dims, bins=config.bins,
                         clusters=config.clusters, iterations=config.iterations,
                         seed=config.seed)


def _run_app(name: str, spec: BenchmarkSpec, cores: int, variant: str,
             log_transfers: bool = False):
    """Run one benchmark's app on a fresh device; returns (result, mgmt,
    wall_seconds)."""
    device = PimDevice(DeviceConfig(
        num_cores=cores, dram_bank_bytes=_bank_bytes_for_spec(spec, cores),
        log_transfers=log_transfers))
    mgmt = ManagementContext(device)
    runner = RUNNERS[name][0]
    start = time.perf_counter()
    if name == "vecadd":
        result = runner(mgmt, spec)
    else:
        result = runner(mgmt, spec, variant=variant)
    return result, mgmt, time.perf_counter() - start


def run_benchmark(name: str, spec: BenchmarkSpec, cores: int,
                  variant: str = "auto", log_transfers: bool = False):
    """Run one benchmark on a fresh device; returns
    (result, expected, correct, mgmt, wall_seconds).  ``mgmt.device`` holds
    the counters and ``mgmt.last_plan`` the plan of the last kernel run.
    The oracle runs before the device exists, so its working data is freed
    before the first bank page is touched."""
    expected = RUNNERS[name][1](spec)
    result, mgmt, wall = _run_app(name, spec, cores, variant, log_transfers)
    correct = bool(np.array_equal(np.asarray(result), np.asarray(expected)))
    return result, expected, correct, mgmt, wall


def _mismatch_diff(result, expected) -> str:
    r = np.asarray(result).ravel()
    e = np.asarray(expected).ravel()
    if r.shape != e.shape:
        return f"shape mismatch: {np.asarray(result).shape} vs {np.asarray(expected).shape}"
    bad = np.flatnonzero(r != e)
    pairs = ", ".join(f"[{i}] {r[i]} != {e[i]}" for i in bad[:5])
    return f"{bad.size} mismatching entries: {pairs}" + (", ..." if bad.size > 5 else "")


def run_experiment(config: ExperimentConfig, strict: bool = True) -> list[ResultRow]:
    """Sweep the benchmark over core counts, verifying each run.

    Weak scaling holds elements-per-core constant; strong scaling holds the
    total constant at ``elems_per_core * min(core_counts)``.  ``variant``
    and ``tasklets_used`` are those of the last iterator kernel that ran (the
    map for vecadd, whose variant is ``-``).
    """
    rows: list[ResultRow] = []
    log_lines: list[str] = []
    base_total = config.elems_per_core * min(config.core_counts)
    for cores in config.core_counts:
        total = config.elems_per_core * cores if config.scaling == "weak" else base_total
        spec = _make_spec(config, total)
        result, expected, correct, mgmt, wall = run_benchmark(
            config.benchmark, spec, cores, variant=config.variant,
            log_transfers=config.transfer_log_path is not None)
        if strict and not correct:
            raise OracleMismatch(
                f"{config.benchmark} on {cores} cores diverged from its oracle: "
                + _mismatch_diff(result, expected))
        plan = mgmt.last_plan
        stats = mgmt.device.stats
        rows.append(ResultRow(
            benchmark=config.benchmark, cores=cores, scaling=config.scaling,
            variant=plan.variant or "-", tasklets_used=plan.num_tasklets,
            total_elems=total, correct=correct,
            host_to_pim_bytes=stats.host_to_pim_bytes,
            pim_to_host_bytes=stats.pim_to_host_bytes,
            dram_to_scratch_bytes=stats.dram_to_scratch_bytes,
            scratch_to_dram_bytes=stats.scratch_to_dram_bytes,
            dma_commands=stats.dma_commands,
            kernel_launches=stats.kernel_launches,
            wall_time_ms=wall * 1e3))
        log_lines.extend(rec.as_line() for rec in mgmt.device.transfer_log)
        # free this point's device and data before the next point's oracle runs
        del result, expected, mgmt
    if config.transfer_log_path is not None:
        with open(config.transfer_log_path, "w") as f:
            f.write("\n".join(log_lines) + ("\n" if log_lines else ""))
    return rows


def emit_csv(rows: list[ResultRow], path_or_file) -> None:
    """Write rows with the fixed column order; booleans lowercase, wall time
    with millisecond precision (the one non-deterministic column)."""

    def _write(f) -> None:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            record = []
            for name in CSV_COLUMNS:
                value = getattr(row, name)
                if isinstance(value, bool):
                    record.append("true" if value else "false")
                elif isinstance(value, float):
                    record.append(f"{value:.3f}")
                else:
                    record.append(str(value))
            writer.writerow(record)

    if hasattr(path_or_file, "write"):
        _write(path_or_file)
    else:
        with open(path_or_file, "w", newline="") as f:
            _write(f)


def rows_to_csv_text(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    emit_csv(rows, buf)
    return buf.getvalue()


# --- verification suite -------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    data: object = None


def check_benchmark_oracles(cases_per_app: int = 100, seed: int = 20_240_601,
                            max_cores: int = 32) -> CheckResult:
    """Randomized configurations of every benchmark against its oracle."""
    rng = np.random.Generator(np.random.PCG64(seed))
    failures: list[str] = []
    counts: dict[str, int] = {}
    for name in RUNNERS:
        passed = 0
        for case in range(cases_per_app):
            cores = int(rng.integers(1, max_cores + 1))
            if case % 10 == 9:
                per_core = int(rng.integers(1000, 4000))
            else:
                per_core = int(rng.integers(1, 400))
            total = max(cores * per_core, 1)
            spec = BenchmarkSpec(
                name=name, total_elems=total,
                dims=int(rng.integers(1, 13)),
                bins=int(rng.integers(2, 4097)),
                clusters=int(rng.integers(1, 1 + min(10, total))),
                iterations=int(rng.integers(1, 4)),
                seed=int(rng.integers(0, 2**31)))
            _, _, correct, _, _ = run_benchmark(name, spec, cores)
            if correct:
                passed += 1
            else:
                failures.append(f"{name} cores={cores} total={total} seed={spec.seed}")
        counts[name] = passed
    detail = ", ".join(f"{k}:{v}/{cases_per_app}" for k, v in counts.items())
    return CheckResult("oracle-equivalence", not failures, detail, failures)


def check_comm_roundtrip(cases: int = 1000, seed: int = 77) -> CheckResult:
    """Fuzz scatter->gather identity and allgather consistency, covering
    non-power-of-two element sizes."""
    rng = np.random.Generator(np.random.PCG64(seed))
    type_sizes = (1, 2, 3, 4, 7, 8, 12, 16, 24, 40)
    failures = []
    for case in range(cases):
        if case % 25 == 24:  # occasional large arrays, small elements
            ts = (1, 2, 4)[case % 3]
            length = int(rng.integers(50_001, 100_001))
            cores = int(rng.integers(1, 17))
        else:
            ts = type_sizes[case % len(type_sizes)]
            length = int(rng.integers(0, 2001))
            cores = int(rng.integers(1, 65))
        bank_bytes = max(1 << 20, round_up(3 * length * ts, 1 << 20))
        device = PimDevice(DeviceConfig(num_cores=cores, dram_bank_bytes=bank_bytes))
        mgmt = ManagementContext(device)
        payload = rng.integers(0, 256, length * ts, dtype=np.uint8)
        comm.scatter(mgmt, "x", payload, length, ts)
        back = comm.gather(mgmt, "x")
        if not np.array_equal(back, payload):
            failures.append(f"roundtrip ts={ts} len={length} cores={cores}")
            continue
        comm.allgather(mgmt, "x", "xa")
        meta = mgmt.lookup("xa")
        nbytes = meta.len * meta.type_size
        for core in range(cores):
            replica = device.banks[core,
                                   meta.bank_offset:meta.bank_offset + nbytes]
            if not np.array_equal(replica, payload):
                failures.append(f"allgather ts={ts} len={length} core={core}")
                break
    return CheckResult("comm-roundtrip", not failures,
                       f"{cases} fuzzed (len, type_size, cores) triples",
                       failures)


def audit_transfer_log(device: PimDevice) -> list[str]:
    """All DMA commands must be aligned, within the command limit, and between
    a core and its own bank; collectives may only use host commands."""
    cfg = device.config
    problems = []
    for rec in device.transfer_log:
        if rec.op in ("dma_read", "dma_write"):
            if rec.nbytes <= 0 or rec.nbytes > cfg.dma_max_bytes:
                problems.append(f"size {rec.nbytes}: {rec.as_line()}")
            if (rec.nbytes % cfg.dma_alignment or rec.bank_offset % cfg.dma_alignment
                    or (rec.scratch_offset or 0) % cfg.dma_alignment):
                problems.append(f"alignment: {rec.as_line()}")
            if not 0 <= rec.core < cfg.num_cores:
                problems.append(f"core: {rec.as_line()}")
        elif rec.op not in ("parallel", "serial"):
            problems.append(f"unknown op: {rec.as_line()}")
    return problems


def check_alignment_audit(elems_per_core: int = 3000, cores: int = 4) -> CheckResult:
    """Run the whole benchmark suite with transfer logging and audit every
    DMA command against the hardware rules."""
    problems = []
    commands = 0
    for name in RUNNERS:
        spec = BenchmarkSpec(name=name, total_elems=elems_per_core * cores,
                             iterations=2, seed=5)
        _, _, correct, mgmt, _ = run_benchmark(name, spec, cores,
                                               log_transfers=True)
        if not correct:
            problems.append(f"{name}: oracle mismatch during audit run")
        problems.extend(audit_transfer_log(mgmt.device))
        commands += sum(1 for r in mgmt.device.transfer_log
                        if r.op in ("dma_read", "dma_write"))
    return CheckResult("alignment-audit", not problems,
                       f"{commands} DMA commands audited, {len(problems)} violations",
                       problems)


def check_variant_agreement(total_elems: int = 30_000, cores: int = 4,
                            bins_sweep=(256, 512, 1024, 2048, 4096)) -> CheckResult:
    """Shared-accumulator and thread-private reductions must agree bit for bit."""
    failures = []
    for bins in bins_sweep:
        spec = BenchmarkSpec(name="histogram", total_elems=total_elems,
                             bins=bins, seed=11)
        shared, _, ok_s, _, _ = run_benchmark("histogram", spec, cores,
                                              variant="shared")
        private, _, ok_p, _, _ = run_benchmark("histogram", spec, cores,
                                               variant="private")
        if not (ok_s and ok_p and np.array_equal(shared, private)):
            failures.append(f"bins={bins}")
    return CheckResult("variant-agreement", not failures,
                       f"bins {list(bins_sweep)} bit-identical across variants",
                       failures)


def check_thread_throttling(bins_sweep=(256, 512, 1024, 2048, 4096)) -> CheckResult:
    """Auto-selected tasklet counts for 4-byte-bin histograms."""
    config = DeviceConfig(num_cores=1)
    counts = [processing.plan_iterator(config, processing.REDUCE, (4,), 4,
                                       output_len=bins).num_tasklets
              for bins in bins_sweep]
    expected = [12, 12, 8, 4, 2]
    return CheckResult("thread-throttling", counts == expected,
                       f"tasklets {counts} for bins {list(bins_sweep)}", counts)


def measure_lazy_zip_ratio(elems_per_core: int = 10_000, cores: int = 8,
                           seed: int = 3) -> float:
    """Bank<->scratchpad traffic of eager (materialized zip) over lazy vecadd."""
    spec = BenchmarkSpec(name="vecadd", total_elems=elems_per_core * cores,
                         seed=seed)
    traffic = {}
    for mode in ("lazy", "eager"):
        device = PimDevice(DeviceConfig(
            num_cores=cores, dram_bank_bytes=_bank_bytes_for(spec.total_elems, cores)))
        mgmt = ManagementContext(device)
        result = apps.run_vecadd(mgmt, spec, eager=(mode == "eager"))
        if not np.array_equal(result, apps.oracle_vecadd(spec)):
            raise OracleMismatch(f"{mode} vecadd diverged from its oracle")
        traffic[mode] = device.stats.bank_scratch_bytes
    return traffic["eager"] / traffic["lazy"]


def check_lazy_zip_ratio() -> CheckResult:
    ratio = measure_lazy_zip_ratio()
    return CheckResult("lazy-zip-traffic", 2.0 <= ratio <= 2.5,
                       f"eager/lazy bank<->scratch ratio {ratio:.4f}", ratio)


def check_batch_sizing() -> CheckResult:
    got = [processing.compute_batch_elems(ts) for ts in (4, 12, 40)]
    return CheckResult("batch-sizing", got == [512, 170, 51],
                       f"batch elements {got} for type sizes [4, 12, 40]", got)


def check_scaling_shapes(core_counts=(2, 4, 8), elems_per_core: int = 1024) -> CheckResult:
    """Weak scaling: per-core kernel traffic is constant.  Strong scaling:
    total kernel traffic is constant up to the padding bound."""
    problems = []
    weak = run_experiment(ExperimentConfig(
        benchmark="vecadd", core_counts=tuple(core_counts), scaling="weak",
        elems_per_core=elems_per_core))
    per_core = [(r.dram_to_scratch_bytes + r.scratch_to_dram_bytes) / r.cores
                for r in weak]
    if len(set(per_core)) != 1:
        problems.append(f"weak per-core traffic varies: {per_core}")
    strong = run_experiment(ExperimentConfig(
        benchmark="vecadd", core_counts=tuple(core_counts), scaling="strong",
        elems_per_core=elems_per_core))
    totals = [r.dram_to_scratch_bytes + r.scratch_to_dram_bytes for r in strong]
    for row, total in zip(strong, totals):
        plan = comm.plan_scatter(row.total_elems, 4, row.cores)
        bound = row.cores * plan.padded_chunk_bytes
        if abs(total - totals[0]) > bound:
            problems.append(
                f"strong total {total} deviates from {totals[0]} beyond {bound}")
    detail = (f"weak per-core {per_core[0]:.0f} B constant; "
              f"strong totals {totals} within padding bound")
    return CheckResult("scaling-shapes", not problems, detail, problems)


def check_csv_determinism() -> CheckResult:
    """Identical seeds must produce byte-identical CSV except wall time."""
    config = ExperimentConfig(benchmark="histogram", core_counts=(2, 4),
                              elems_per_core=2000, seed=9)

    def stripped() -> str:
        rows = run_experiment(config)
        lines = rows_to_csv_text(rows).strip().splitlines()
        return "\n".join(line.rsplit(",", 1)[0] for line in lines)

    first, second = stripped(), stripped()
    return CheckResult("determinism", first == second,
                       "two seeded runs produced identical CSV (wall time excluded)",
                       (first, second))


ALL_CHECKS = (
    check_batch_sizing,
    check_thread_throttling,
    check_comm_roundtrip,
    check_alignment_audit,
    check_variant_agreement,
    check_lazy_zip_ratio,
    check_scaling_shapes,
    check_csv_determinism,
    check_benchmark_oracles,
)


def verify_all(stream=None) -> bool:
    """Run every verification check, print one line per check, and return
    whether all of them passed."""
    stream = stream or sys.stdout
    all_ok = True
    for check in ALL_CHECKS:
        result = check()
        all_ok &= result.passed
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name:20s} {result.detail}", file=stream)
        if not result.passed and isinstance(result.data, (list, tuple)):
            for item in list(result.data)[:5]:
                print(f"      {item}", file=stream)
    print("all checks passed" if all_ok else "CHECKS FAILED", file=stream)
    return all_ok


# --- command line ---------------------------------------------------------------------


def _parse_cores(text: str) -> tuple[int, ...]:
    try:
        cores = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad core list {text!r}") from None
    if not cores:
        raise argparse.ArgumentTypeError("empty core list")
    return cores


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pimlite",
        description="benchmarks and verification for the in-memory-compute model")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a benchmark sweep and emit CSV")
    run.add_argument("--benchmark", required=True, choices=sorted(RUNNERS))
    run.add_argument("--cores", type=_parse_cores, default=(8, 16, 32),
                     help="comma-separated core counts (default 8,16,32)")
    run.add_argument("--scaling", choices=("weak", "strong"), default="weak")
    run.add_argument("--elems", type=int, default=10_000,
                     help="elements per core; strong scaling fixes the total "
                          "at elems x min(cores)")
    run.add_argument("--bins", type=int, default=256)
    run.add_argument("--dims", type=int, default=10)
    run.add_argument("--clusters", type=int, default=10)
    run.add_argument("--iters", type=int, default=3)
    run.add_argument("--variant", choices=("auto", "shared", "private"),
                     default="auto")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default=None, help="CSV path (default: stdout)")
    run.add_argument("--log-transfers", action="store_true",
                     help="also write a transfer log next to the CSV")

    sub.add_parser("verify", help="run the full verification suite")

    args = parser.parse_args(argv)
    if args.command == "verify":
        return 0 if verify_all() else 1

    log_path = None
    if args.log_transfers:
        log_path = (args.out + ".transfers.txt") if args.out else "transfers.txt"
    try:
        config = ExperimentConfig(
            benchmark=args.benchmark, core_counts=args.cores, scaling=args.scaling,
            elems_per_core=args.elems, bins=args.bins, dims=args.dims,
            clusters=args.clusters, iterations=args.iters, seed=args.seed,
            variant=args.variant, transfer_log_path=log_path)
    except PimError as exc:  # a bad flag, or a sweep that cannot be planned
        run.error(str(exc))  # a usage error: exits with status 2
    rows = run_experiment(config)
    if args.out:
        emit_csv(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(rows_to_csv_text(rows))
    if log_path:
        print(f"transfer log: {log_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
