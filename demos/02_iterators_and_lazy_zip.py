# The three iterators: map over streamed batches, keyed reduction with its
# two accumulator variants, and zip's lazy evaluation (with the traffic it
# saves).

import numpy as np

from pimlite import (
    DeviceConfig,
    PimDevice,
    ManagementContext,
    array_map,
    array_red,
    array_zip,
    create_handle,
    gather,
    plan_iterator,
    scatter,
)


def fresh():
    device = PimDevice(DeviceConfig(num_cores=4, dram_bank_bytes=2 << 20))
    return device, ManagementContext(device)


# --- map: out[i] = f(in[i]), streamed through per-tasklet scratchpad buffers
device, mgmt = fresh()
data = np.arange(10_000, dtype=np.uint32)
scatter(mgmt, "x", data, len(data), 4)

def square(src, dst, ctx):
    v = src.view(np.uint32).ravel()
    out = dst.view(np.uint32).ravel()
    np.multiply(v, v, out=out)

plan = array_map(mgmt, "x", "x2", 4, create_handle(mgmt, "map", map_func=square))
assert np.array_equal(gather(mgmt, "x2").view(np.uint32), data * data)
print(f"map: squared {len(data)} elements with {plan.num_tasklets} tasklets x "
      f"{plan.batch_elems}-element batches, "
      f"{device.stats.bank_scratch_bytes} B moved bank<->scratchpad, "
      f"{device.stats.dma_commands} DMA commands")

# --- keyed reduction: each element contributes (value, output index).
# A histogram is the classic case: key = value * bins >> 12, value = 1.
# The combiner is declared as a ufunc over u32 entries: the accumulator starts
# at the ufunc's identity (0) and each batch folds with one np.add.at.  An
# opaque acc_func/init_func pair, as demo 01 passes to allreduce, works too.
device, mgmt = fresh()
values = np.random.default_rng(0).integers(0, 4096, 50_000, dtype=np.uint32)
scatter(mgmt, "pix", values, len(values), 4)
BINS = 256

def to_bin(src, ctx):
    d = src.view(np.uint32).ravel()
    return np.ones(d.size, np.uint32), (d.astype(np.int64) * BINS) >> 12

h = create_handle(mgmt, "reduce", map_to_val_func=to_bin,
                  combine=(np.add, np.uint32))
plan = array_red(mgmt, "pix", "histo", 4, BINS, h)
histo = gather(mgmt, "histo").view(np.uint32)
assert histo.sum() == len(values)
assert np.array_equal(histo, np.bincount((values.astype(np.int64) * BINS) >> 12,
                                         minlength=BINS))
print(f"reduce: {BINS}-bin histogram via {plan.variant} with "
      f"{plan.num_tasklets} tasklets per core")

# The planner throttles tasklets as private accumulators grow; the shared
# variant keeps one lock-guarded array and so keeps more tasklets.
cfg = DeviceConfig(num_cores=1)
for bins in (256, 1024, 4096):
    p = plan_iterator(cfg, "reduce", (4,), 4, output_len=bins)
    s = plan_iterator(cfg, "reduce", (4,), 4, output_len=bins, variant="shared")
    print(f"  {bins:5d} bins: private -> {p.num_tasklets:2d} tasklets "
          f"({p.occupancy_bytes} B), shared -> {s.num_tasklets:2d} tasklets")

# --- zip is lazy: no bytes move until an iterator consumes the pair.
device, mgmt = fresh()
a = np.arange(20_000, dtype=np.uint32)
b = a[::-1].copy()
scatter(mgmt, "a", a, len(a), 4)
scatter(mgmt, "b", b, len(b), 4)

before = device.stats.bank_scratch_bytes
array_zip(mgmt, "a", "b", "ab")
assert device.stats.bank_scratch_bytes == before
print("zip: lazy, zero bytes moved at zip time")

def add_pairs(src, dst, ctx):
    pairs = src.view(np.uint32).reshape(-1, 2)
    out = dst.view(np.uint32).ravel()
    np.add(pairs[:, 0], pairs[:, 1], out=out)

array_map(mgmt, "ab", "sum", 4, create_handle(mgmt, "map", map_func=add_pairs))
assert (gather(mgmt, "sum").view(np.uint32) == len(a) - 1).all()
lazy_traffic = device.stats.bank_scratch_bytes

# Same computation, but forcing the zipped array to be materialized first:
# the combined array is written out and read back, roughly 7/3 the traffic.
device, mgmt = fresh()
scatter(mgmt, "a", a, len(a), 4)
scatter(mgmt, "b", b, len(b), 4)
array_zip(mgmt, "a", "b", "ab", materialize=True)
array_map(mgmt, "ab", "sum", 4, create_handle(mgmt, "map", map_func=add_pairs))
eager_traffic = device.stats.bank_scratch_bytes
print(f"lazy {lazy_traffic} B vs eager {eager_traffic} B "
      f"-> ratio {eager_traffic / lazy_traffic:.3f} (analytic 7/3)")
