"""Lockstep execution equals per-core execution.

The iterator kernel splits the cores into runs of consecutive cores with the
same element count and the same context bytes (``processing._core_groups``)
and runs each batch step once per run.  Forcing one core per run gives
per-core execution, the reference: both must leave the same results,
counters and transfer log, and the scratchpads all zero.  A map or zip must
also leave the same bank bytes.  A reduction must leave the same defined
state (``conftest.defined_state``): its output is defined on core 0 only, and
a run writes its total to its first core's copy and the identity to the
others', where per-core execution writes each core's own partial.  Both
start from the same random bank bytes.
"""

import numpy as np
import pytest

from conftest import defined_state, make_mgmt
from pimlite import comm, processing
from pimlite.device import TO_PIM, DeviceConfig
from pimlite.processing import MAP, REDUCE, ZIP

ENTRIES = 13


def per_core_groups(per_core_elems, contexts):
    return [(core, core + 1) for core in range(len(per_core_elems))]


def recording_groups(runs):
    """``_core_groups`` that appends every split it returns to ``runs``."""
    core_groups = processing._core_groups

    def record(per_core_elems, contexts):
        groups = core_groups(per_core_elems, contexts)
        runs.append(groups)
        return groups

    return record


def weighted_row_sums(src, ctx):
    """One u64 per element row: its bytes weighted by column, plus the
    context bytes when there is a context."""
    weights = np.arange(1, src.shape[1] + 1, dtype=np.uint64)
    bias = 0 if ctx is None else ctx.astype(np.uint64).sum()
    return (src.astype(np.uint64) * weights).sum(axis=1) + bias


def keys_of(src, ctx):
    bias = 0 if ctx is None else int(ctx[0])
    return (src[:, 0].astype(np.int64) + bias) % ENTRIES


def reduce_handle(mgmt, declared, context):
    def to_val(src, ctx):
        return weighted_row_sums(src, ctx), keys_of(src, ctx)

    if declared:
        return processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val,
                                        combine=(np.add, np.uint64), context=context)

    def init(accum):
        accum[:] = 0

    def acc(dst, src):
        d = dst.view(np.uint64)
        np.add(d, src.view(np.uint64), out=d)

    return processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val,
                                    init_func=init, acc_func=acc, context=context)


def run_op(mgmt, op, sizes, total, rng):
    """Scatter two random byte streams of ``sizes`` bytes per element and run
    ``op`` on them; returns the gathered output bytes."""
    ctx = rng.integers(0, 256, 37, dtype=np.uint8)
    for name, size in zip("ab", sizes):
        comm.scatter(mgmt, name, rng.integers(0, 256, total * size, dtype=np.uint8),
                     total, size)
    if op == "zip":
        processing.array_zip(mgmt, "a", "b", "out", materialize=True)
    elif op.startswith("map"):
        src = "a"
        if op == "map-lazy-zip":
            processing.array_zip(mgmt, "a", "b", "ab")
            src = "ab"

        def map_func(src_rows, dst, ctx_bytes):
            dst.view(np.uint64).ravel()[:] = weighted_row_sums(src_rows, ctx_bytes)

        handle = processing.create_handle(mgmt, MAP, map_func=map_func, context=ctx)
        processing.array_map(mgmt, src, "out", 8, handle)
    else:  # red-<variant>-<declared|opaque>-<plain|lazy-zip>
        _, variant, combiner, source = op.split("-", 3)
        src = "a"
        if source == "lazy-zip":  # with a context
            processing.array_zip(mgmt, "a", "b", "ab")
            src = "ab"
        handle = reduce_handle(mgmt, combiner == "declared",
                               ctx if source == "lazy-zip" else None)
        processing.array_red(mgmt, src, "out", 8, ENTRIES, handle, variant=variant)
    return comm.gather(mgmt, "out")


# (cores, total elements, element bytes of the two streams).  Both streams of
# a geometry split the same way across cores.
GEOMETRIES = {
    "three-counts-empty-last": (4, 20, (2, 6)),  # 8, 8, 4, 0 elements per core
    "two-counts": (5, 4 * 700 + 3, (4, 12)),  # 562 x 4 and 555: several batches
    "one-count": (3, 3000, (8, 40)),
    "one-core": (1, 1001, (4, 12)),
    "many-cores": (8, 8 * 1300 + 5, (4, 4)),
    # 9400, 9400 and 9395: a full batch round or more before the last two
    "long": (3, 3 * 9400 - 5, (2, 6)),
}
OPS = ["map", "map-lazy-zip", "zip"] + [
    f"red-{variant}-{combiner}-{source}"
    for variant in ("private", "shared") for combiner in ("declared", "opaque")
    for source in ("plain", "lazy-zip")]


def test_geometries_cover_the_count_patterns():
    splits = {name: comm.plan_scatter(total, sizes[0], cores).per_core_elems
              for name, (cores, total, sizes) in GEOMETRIES.items()}
    for name, (cores, total, sizes) in GEOMETRIES.items():
        assert comm.plan_scatter(total, sizes[1], cores).per_core_elems == splits[name]
    assert splits["three-counts-empty-last"] == (8, 8, 4, 0)
    assert len(set(splits["two-counts"])) == 2
    assert len(set(splits["long"])) == 2
    config = DeviceConfig(num_cores=1)
    for kind, in_sizes in ((MAP, (2,)), (MAP, (2, 6)), (ZIP, (2, 6))):
        plan = processing.plan_iterator(config, kind, in_sizes, 8,
                                        context_bytes=37 if kind == MAP else 0)
        batches = -(-min(splits["long"]) // plan.batch_elems)
        assert batches >= 3 * plan.num_tasklets


class TestLockstepEqualsPerCore:
    def run(self, monkeypatch, geometry, op, lockstep):
        cores, total, sizes = GEOMETRIES[geometry]
        runs = []
        with monkeypatch.context() as patch:
            patch.setattr(processing, "_core_groups",
                          recording_groups(runs) if lockstep else per_core_groups)
            mgmt = make_mgmt(cores=cores, bank_bytes=1 << 18, log_transfers=True)
            # not zero, the identity of np.add: a copy left unwritten shows
            rng = np.random.default_rng(total)
            mgmt.device.banks[:] = rng.integers(0, 256, mgmt.device.banks.shape, np.uint8)
            out = run_op(mgmt, op, sizes, total, np.random.default_rng(cores * total))
        return out, mgmt, runs

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_same_bytes_counters_and_log(self, monkeypatch, geometry, op):
        out, mgmt, runs = self.run(monkeypatch, geometry, op, lockstep=True)
        ref, ref_mgmt, _ = self.run(monkeypatch, geometry, op, lockstep=False)
        dev, ref_dev = mgmt.device, ref_mgmt.device
        assert np.array_equal(out, ref)
        if op.startswith("red-"):
            assert defined_state(mgmt) == defined_state(ref_mgmt)
        else:
            assert np.array_equal(dev.banks, ref_dev.banks)
        assert not dev.scratchpads.any() and not ref_dev.scratchpads.any()
        assert dev.stats == ref_dev.stats
        assert dev.transfer_log == ref_dev.transfer_log
        # the lockstep run ran every core with the same count in one run
        cores, total, sizes = GEOMETRIES[geometry]
        counts = comm.plan_scatter(total, sizes[0], cores).per_core_elems
        assert runs and all(len(groups) == len(set(counts)) for groups in runs)


def test_a_rewritten_context_copy_splits_its_run(monkeypatch):
    mgmt = make_mgmt(cores=4)
    data = np.arange(400, dtype=np.uint32)
    comm.scatter(mgmt, "x", data, data.size, 4)
    weights = np.arange(10, dtype=np.uint32)

    def add_ctx_sum(src, dst, ctx):
        np.add(src.view(np.uint32).ravel(), ctx.view(np.uint32).sum(dtype=np.uint32),
               out=dst.view(np.uint32).ravel())

    handle = processing.create_handle(mgmt, MAP, map_func=add_ctx_sum, context=weights)
    processing.array_map(mgmt, "x", "y1", 4, handle)
    assert np.array_equal(comm.gather(mgmt, "y1").view(np.uint32),
                          data + np.uint32(weights.sum()))

    # core 2's copy of the resident context now differs from the others
    meta = mgmt.lookup(handle.ctx_array_id)
    other = np.zeros(meta.padded_chunk_bytes, np.uint8)
    other[:weights.nbytes] = (weights * 3).view(np.uint8)
    mgmt.device.host_serial_transfer(2, TO_PIM, other, meta.bank_offset,
                                     meta.padded_chunk_bytes)
    runs = []
    monkeypatch.setattr(processing, "_core_groups", recording_groups(runs))
    processing.array_map(mgmt, "x", "y2", 4, handle)
    assert runs == [[(0, 2), (2, 3), (3, 4)]]
    bias = np.full(data.size, weights.sum(), np.uint32)
    bias[200:300] = weights.sum() * 3  # core 2's elements
    assert np.array_equal(comm.gather(mgmt, "y2").view(np.uint32), data + bias)


def test_map_to_val_runs_once_per_batch_step_on_equal_cores():
    cores, per_core = 32, 10_000
    mgmt = make_mgmt(cores=cores)
    comm.scatter(mgmt, "x", np.arange(cores * per_core, dtype=np.uint32),
                 cores * per_core, 4)
    calls = []

    def to_val(src, ctx):
        calls.append(src.shape[0])
        v = src.view(np.uint32).ravel()
        return np.ones(v.size, np.uint32), (v % ENTRIES).astype(np.int64)

    handle = processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val,
                                      combine=(np.add, np.uint32))
    plan = processing.array_red(mgmt, "x", "out", 4, ENTRIES, handle)
    steps = -(-per_core // plan.batch_elems)
    assert steps > plan.num_tasklets > 1
    assert len(calls) == steps  # not cores x steps
    assert sum(calls) == cores * per_core
    counts = comm.gather(mgmt, "out").view(np.uint32)
    assert np.array_equal(counts, np.bincount(np.arange(cores * per_core) % ENTRIES))
