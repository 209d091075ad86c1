# Reproduce the two experiment shapes the harness supports:
#   - weak vs strong scaling sweeps (traffic counters as the cost proxy)
#   - the shared vs thread-private accumulator study for growing histograms
# and write the scaling results to CSV, the same artifact `pimlite run` emits.

import io

from pimlite import ExperimentConfig, run_experiment, emit_csv
from pimlite.harness import run_benchmark
from pimlite import BenchmarkSpec

# Weak scaling: elements per core fixed, cores grow. In this traffic model
# the per-core load is literally constant.
weak = run_experiment(ExperimentConfig(
    benchmark="vecadd", core_counts=(8, 16, 32), scaling="weak",
    elems_per_core=10_000))
print("weak scaling, vecadd, 10k elems/core:")
for row in weak:
    traffic = row.dram_to_scratch_bytes + row.scratch_to_dram_bytes
    print(f"  {row.cores:2d} cores: total={row.total_elems:>7} "
          f"kernel traffic/core={traffic // row.cores} B  correct={row.correct}")

# Strong scaling: total fixed at the smallest machine's size; per-core work
# halves as cores double, up to padding.
strong = run_experiment(ExperimentConfig(
    benchmark="vecadd", core_counts=(8, 16, 32), scaling="strong",
    elems_per_core=10_000))
print("strong scaling, vecadd, 80k elems total:")
for row in strong:
    traffic = row.dram_to_scratch_bytes + row.scratch_to_dram_bytes
    print(f"  {row.cores:2d} cores: kernel traffic/core={traffic // row.cores} B")

buf = io.StringIO()
emit_csv(weak + strong, buf)
print("\nCSV preview:")
print("\n".join(buf.getvalue().splitlines()[:4]))

# Accumulator variant study: as private histograms grow, fewer tasklets fit in
# the scratchpad (12, 12, 8, 4, 2), while the shared variant keeps all 12
# behind one lock per bin. Both produce bit-identical histograms.
print("\nhistogram accumulator variants (4 cores, 30k elements):")
print(f"  {'bins':>5} {'private t':>9} {'shared t':>8}  identical")
for bins in (256, 512, 1024, 2048, 4096):
    spec = BenchmarkSpec(name="histogram", total_elems=30_000, bins=bins, seed=11)
    rows = {}
    for variant in ("private", "shared"):
        result, _, ok, _, _ = run_benchmark("histogram", spec, 4,
                                            variant=variant)
        assert ok
        rows[variant] = result
    private_t = run_experiment(ExperimentConfig(
        benchmark="histogram", core_counts=(4,), elems_per_core=100,
        bins=bins))[0].tasklets_used
    shared_t = run_experiment(ExperimentConfig(
        benchmark="histogram", core_counts=(4,), elems_per_core=100,
        bins=bins, variant="shared"))[0].tasklets_used
    same = bool((rows["private"] == rows["shared"]).all())
    print(f"  {bins:>5} {private_t:>9} {shared_t:>8}  {same}")
