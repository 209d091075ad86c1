"""The iterator kernel equals a plain reference executor.

``reference_kernel`` runs an iterator's schedule the way a PrIM-style kernel
does: core by core, tasklet by tasklet and batch by batch, straight from
``dma_schedule``, with single-core ``dma_read``/``dma_write`` and one
callback per batch over that core's rows.  A reduction folds every element
with ``acc_func`` into its tasklet's table when private, merges those
tables ring-style and writes its partial.  Swapped in for
``processing._iterator_kernel`` (``_iterate``'s broadcast, output creation
and host fold stay shared), it must leave the same results, array elements,
counters, transfer log and plan as the library's lockstep kernel, with its
bulk pass over chunks of bank rows, its batch reads issued once per run,
its batches read where they lie and its one accumulator table per run, on
drawn geometries, with entries of up to 11 values as k-means's.
Scratchpad bytes and bank padding are undefined after a launch, so they are
not compared.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import defined_state, make_mgmt
from pimlite import comm, processing
from pimlite.errors import PimError
from pimlite.processing import MAP, REDUCE, VARIANT_PRIVATE
from test_lockstep import GEOMETRIES, weighted_row_sums


def reference_kernel(device, params):
    """Every core, tasklet and batch of the job's schedule, one at a time."""
    job, schedule = params
    plan, handle = job.plan, job.handle
    sizes = [s.type_size for s in job.in_streams]
    in_size, n, d = sum(sizes), job.out.len, job.out.type_size
    copies = plan.num_tasklets if plan.variant == VARIANT_PRIVATE else 1
    context, runs, partial = schedule
    for core, local in enumerate(job.per_core_elems):
        tasklets = runs[local]
        scratch = device.scratchpads[core]
        for bank, slot, nbytes in context:
            device.dma_read(core, bank, slot, nbytes)
        ctx = None if job.ctx is None else scratch[:job.ctx.len]
        if plan.variant is not None:
            accum = np.stack([scratch[plan.accum_base + c * plan.accum_slot:][:n * d]
                              for c in range(copies)]).reshape(copies, n, d)
            handle.init_func(accum.reshape(-1, d))
        for t, batches in enumerate(tasklets):
            block = plan.blocks_base + t * plan.block_bytes

            def slot_rows(rel, size, m):
                return scratch[block + rel:][:m * size].reshape(m, size)

            for m, reads, write in batches:
                for bank, slot, nbytes in reads:
                    device.dma_read(core, bank, slot, nbytes)
                if plan.combine_rel is None:
                    rows = slot_rows(plan.stream_rels[0], in_size, m)
                else:  # interleave the streams element by element
                    rows, col = slot_rows(plan.combine_rel, in_size, m), 0
                    for rel, size in zip(plan.stream_rels, sizes):
                        rows[:, col:col + size] = slot_rows(rel, size, m)
                        col += size
                if handle.map_func is not None:
                    handle.map_func(rows, slot_rows(plan.out_rel, d, m), ctx)
                if plan.variant is not None:
                    vals, keys = handle.map_to_val_func(rows, ctx)
                    vals = np.ascontiguousarray(vals).view(np.uint8).reshape(m, d)
                    mine = accum[t if copies > 1 else 0]
                    for i, key in enumerate(np.asarray(keys).ravel()):
                        handle.acc_func(mine[key:key + 1], vals[i:i + 1])
                if write is not None:
                    device.dma_write(core, *write)
        if plan.variant is None:
            continue
        # the ring merge of private copies (a shared one has nothing to merge)
        for step in range(copies - 1):
            for t in range(copies):
                seg = (t - 1 - step) % copies
                lo, hi = seg * n // copies, (seg + 1) * n // copies
                if hi > lo:
                    handle.acc_func(accum[t, lo:hi], accum[t - 1, lo:hi])
        for t in range(1, copies):
            own = (t + 1) % copies
            lo, hi = own * n // copies, (own + 1) * n // copies
            accum[0, lo:hi] = accum[t, lo:hi]
        for c in range(copies):
            scratch[plan.accum_base + c * plan.accum_slot:][:n * d] = accum[c].reshape(-1)
        for slot, bank, nbytes in partial:
            device.dma_write(core, slot, bank, nbytes)


def map_handle(mgmt, context):
    def map_func(src, dst, ctx):  # every output byte depends on its row
        sums = weighted_row_sums(src, ctx).view(np.uint8).reshape(-1, 8)
        dst[:] = np.tile(sums, (1, -(-dst.shape[1] // 8)))[:, :dst.shape[1]]

    return processing.create_handle(mgmt, MAP, map_func=map_func, context=context)


def reduce_handle(mgmt, declared, entries, lanes, context):
    def to_val(src, ctx):
        sums = weighted_row_sums(src, ctx)
        bias = 0 if ctx is None else int(ctx[0])
        keys = (src[:, 0].astype(np.int64) + bias) % entries
        return np.stack([sums * np.uint64(k + 1) for k in range(lanes)], axis=1), keys

    if declared:
        return processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val,
                                        combine=(np.add, np.uint64), context=context)

    def init(accum):
        accum[:] = 0

    def acc(dst, src):
        a = dst.view(np.uint64)
        np.add(a, src.view(np.uint64), out=a)

    return processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val,
                                    init_func=init, acc_func=acc, context=context)


def run_op(mgmt, i, op, rng):
    """Scatter op ``i``'s two streams and run it; returns the gathered output
    bytes, or the name of the ``PimError`` its plan raised."""
    kind, sizes, total, out_size, context = (op[k] for k in (
        "kind", "sizes", "total", "out_size", "context"))
    a, b, out = f"a{i}", f"b{i}", f"out{i}"
    for name, size in ((a, sizes[0]), (b, sizes[1])):
        comm.scatter(mgmt, name, rng.integers(0, 256, total * size, dtype=np.uint8),
                     total, size)
    ctx = None if context is None else rng.integers(0, 256, context, dtype=np.uint8)
    src = a
    if op["lazy_zip"]:
        processing.array_zip(mgmt, a, b, f"ab{i}")
        src = f"ab{i}"
    try:
        if kind == "zip":
            processing.array_zip(mgmt, a, b, out, materialize=True)
        elif kind == "map":
            processing.array_map(mgmt, src, out, out_size, map_handle(mgmt, ctx))
        else:
            handle = reduce_handle(mgmt, op["declared"], op["entries"], op["lanes"], ctx)
            processing.array_red(mgmt, src, out, 8 * op["lanes"], op["entries"], handle,
                                 variant=kind)
    except PimError as e:  # no plan fits this geometry: raised before any launch
        return type(e).__name__
    return comm.gather(mgmt, out)


SIZES = [1, 2, 3, 4, 6, 8, 12, 16, 40]


@st.composite
def ops(draw, cores, align):
    kind = draw(st.sampled_from(["map", "zip", "private", "shared"]))
    sizes = (draw(st.sampled_from(SIZES)), draw(st.sampled_from(SIZES)))
    # both streams split alike: the per-core count before rounding lies
    # within the smaller group of the base count, a multiple of both groups
    groups = [math.lcm(s, align) // s for s in sizes]
    base = math.lcm(*groups) * draw(st.integers(1, max(1, 400 // math.lcm(*groups))))
    total = draw(st.integers(max(0, base - min(groups)) * cores + 1, base * cores))
    return dict(
        kind=kind, sizes=sizes, total=total,
        lazy_zip=kind != "zip" and draw(st.booleans()),
        out_size=draw(st.sampled_from([1, 3, 4, 8, 12])),
        context=None if kind == "zip" else draw(st.sampled_from([None, 5, 37])),
        declared=draw(st.booleans()), entries=draw(st.integers(1, 20)),
        lanes=draw(st.integers(1, 11)))  # up to k-means's 11-value entries


@st.composite
def examples(draw):
    cores = draw(st.integers(1, 6))
    align = draw(st.sampled_from([4, 8, 12, 16]))
    scratch = draw(st.integers(1024, 4096))
    geometry = dict(
        max_tasklets=draw(st.integers(1, 12)), dma_alignment=align,
        dma_max_bytes=align * draw(st.integers(8, 1024 // align)),
        scratchpad_bytes=scratch, scratchpad_reserve_bytes=draw(st.integers(0, 512)))
    bulk_rows = draw(st.sampled_from([1, 7, 1000, processing._BULK_ROWS]))
    return cores, geometry, bulk_rows, [draw(ops(cores, align)) for _ in range(2)]


def run(cores, geometry, bulk_rows, op_list, reference):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(processing, "_BULK_ROWS", bulk_rows)
        if reference:
            patch.setattr(processing, "_iterator_kernel", reference_kernel)
        mgmt = make_mgmt(cores=cores, bank_bytes=1 << 18, log_transfers=True, **geometry)
        rng = np.random.default_rng(len(op_list))
        results = [run_op(mgmt, i, op, rng) for i, op in enumerate(op_list)]
    return results, mgmt


class TestReferenceExecutor:
    # two iterators back to back on one device, each reading what the
    # arrays hold, not what the other one left in the scratchpads
    @settings(max_examples=80, deadline=None)
    @given(example=examples())
    def test_library_equals_reference(self, example):
        results, mgmt = run(*example, reference=False)
        ref, ref_mgmt = run(*example, reference=True)
        for got, want in zip(results, ref):
            assert type(got) is type(want)
            assert np.array_equal(got, want)
        assert defined_state(mgmt) == defined_state(ref_mgmt)


def test_a_map_calls_back_once_per_chunk_of_bank_rows(monkeypatch):
    # 9400, 9400 and 9395 elements: two runs, several full batch rounds
    cores, total, (size, _) = GEOMETRIES["long"]
    monkeypatch.setattr(processing, "_BULK_ROWS", 1000)
    mgmt = make_mgmt(cores=cores, bank_bytes=1 << 18)
    comm.scatter(mgmt, "x", np.arange(total * size, dtype=np.uint8), total, size)
    rows = []

    def map_func(src, dst, ctx):  # u16 -> u64
        rows.append(src.shape[0])
        dst.view(np.uint64).ravel()[:] = src.view(np.uint16).ravel()

    handle = processing.create_handle(mgmt, MAP, map_func=map_func)
    plan = processing.array_map(mgmt, "x", "y", 8, handle)
    counts = mgmt.lookup("x").per_core_elems
    assert counts == (9400, 9400, 9395)
    assert -(-min(counts) // plan.batch_elems) >= 3 * plan.num_tasklets
    expected = []
    for run_cores, count in ((2, 9400), (1, 9395)):
        chunk = max(plan.batch_elems, 1000 // run_cores)
        expected += [run_cores * min(chunk, count - lo) for lo in range(0, count, chunk)]
    assert rows == expected
    assert np.array_equal(comm.gather(mgmt, "y").view(np.uint64),
                          np.arange(total * size, dtype=np.uint8).view(np.uint16))
