"""The DMA schedule is what the kernels execute, and every schedule is legal.

``processing.dma_schedule`` plans every bank <-> scratchpad command of an
iterator kernel.  Run against the transfer log, the schedule of each launch
must be the log, record for record and in order; swept over device
geometries without running anything, every planned command must be aligned,
within the command limit, inside the plan's scratchpad claim and inside the
bank range of the array it touches.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_lockstep as tl
import test_processing as tp
from conftest import make_mgmt
from pimlite import apps, processing
from pimlite.apps import BenchmarkSpec
from pimlite.device import DeviceConfig, round_up
from pimlite.errors import ElementTooLarge, NoFeasiblePlan
from pimlite.management import LAYOUT_REPLICATED, ArrayMetadata
from pimlite.processing import MAP, REDUCE, ZIP


def record_jobs(mgmt):
    """Wrap the device's kernel launcher; returns the list of (job, schedule
    the kernel got, DMA log records of the launch, stats before, stats after)
    of every launch."""
    device = mgmt.device
    launches = []
    launch = device.launch_kernel

    def recording(kernel, num_tasklets, params=None, scratch_bytes=0):
        start, before = len(device.transfer_log), device.stats.copy()
        launch(kernel, num_tasklets, params, scratch_bytes=scratch_bytes)
        records = [(r.op, r.core, r.bank_offset, r.scratch_offset, r.nbytes)
                   for r in device.transfer_log[start:]]
        launches.append((*params, records, before, device.stats.copy()))

    device.launch_kernel = recording
    return launches


def flatten(schedule, per_core_elems):
    """The schedule as log records, core by core: context reads, tasklets
    0..T-1 batch by batch (reads, then the write), partial writes."""
    records = []
    context, runs, partial = schedule
    for core, local in enumerate(per_core_elems):
        records += [("dma_read", core, *cmd) for cmd in context]
        for batches in runs[local]:
            for _, reads, write in batches:
                records += [("dma_read", core, *cmd) for cmd in reads]
                if write is not None:
                    records.append(("dma_write", core, write[1], write[0], write[2]))
        records += [("dma_write", core, bank, scratch, n) for scratch, bank, n in partial]
    return records


def assert_schedules_executed(mgmt, launches):
    assert launches, "nothing was launched"
    config = mgmt.device.config
    for job, schedule, records, before, after in launches:
        assert processing.dma_schedule(config, job) == schedule  # pure
        expected = flatten(schedule, job.per_core_elems)
        assert records == expected
        reads = [n for op, *_, n in expected if op == "dma_read"]
        writes = [n for op, *_, n in expected if op == "dma_write"]
        assert after.dram_to_scratch_bytes - before.dram_to_scratch_bytes == sum(reads)
        assert after.scratch_to_dram_bytes - before.scratch_to_dram_bytes == sum(writes)
        assert after.dma_commands - before.dma_commands == len(expected)


APP_SPECS = {
    "reduction": dict(),
    "histogram": dict(bins=37),
    "linreg": dict(dims=3, iterations=2),
    "logreg": dict(dims=5, iterations=2),
    "kmeans": dict(dims=3, clusters=3, iterations=2),
}


class TestScheduleIsExecuted:
    # 5 elements on 4 cores leave the last core empty; the others give full,
    # partial and one-element last batches
    SIZES = [(4, 5), (1, 1001), (3, 3 * 1300 + 7), (4, 4 * 2049 + 3)]

    @pytest.mark.parametrize("variant", ["shared", "private"])
    @pytest.mark.parametrize("app", sorted(APP_SPECS))
    def test_reducing_app(self, app, variant):
        for cores, total in self.SIZES:
            mgmt = make_mgmt(cores=cores, log_transfers=True)
            launches = record_jobs(mgmt)
            spec = BenchmarkSpec(name=app, total_elems=total, seed=total,
                                 **APP_SPECS[app])
            result = getattr(apps, f"run_{app}")(mgmt, spec, variant=variant)
            assert np.array_equal(result, getattr(apps, f"oracle_{app}")(spec))
            assert_schedules_executed(mgmt, launches)

    @pytest.mark.parametrize("eager", [False, True])
    def test_vecadd(self, eager):
        for cores, total in self.SIZES:
            mgmt = make_mgmt(cores=cores, log_transfers=True)
            launches = record_jobs(mgmt)
            spec = BenchmarkSpec(total_elems=total, seed=total)
            result = apps.run_vecadd(mgmt, spec, eager=eager)
            assert np.array_equal(result, apps.oracle_vecadd(spec))
            assert len(launches) == 1 + eager
            assert_schedules_executed(mgmt, launches)

    @pytest.mark.parametrize("scenario", tp.BIT_IDENTITY_SCENARIOS)
    def test_bit_identity_scenario(self, scenario):
        # the scenarios and the nine configurations of TestBatchLoopBitIdentity
        config = DeviceConfig(num_cores=1)
        if scenario.startswith("vecadd"):
            b = processing.plan_iterator(config, MAP, (4, 4), 4).batch_elems
        else:
            sizes = tuple(int(s) for s in scenario.split("-")[1].split("x"))
            b = processing.plan_iterator(config, ZIP, sizes, sum(sizes)).batch_elems
        rng = np.random.default_rng(4)
        for cores in (1, 3, 8):
            for per_core in (b + b // 3 + 1, 2 * b + 1, 13 * b + 1):
                mgmt = make_mgmt(cores=cores, bank_bytes=1 << 18, log_transfers=True)
                launches = record_jobs(mgmt)
                total = cores * per_core
                if scenario.startswith("vecadd"):
                    apps.run_vecadd(mgmt, BenchmarkSpec(total_elems=total, seed=cores),
                                    eager=scenario.endswith("eager"))
                else:
                    tp.TestBatchLoopBitIdentity().run_zipped(
                        mgmt, scenario, *sizes, total, rng)
                assert_schedules_executed(mgmt, launches)


    # map over a plain array, map over a lazy zip, materializing zip, with
    # one chunk per run and with one batch per core per chunk
    @pytest.mark.parametrize("chunk_rows", [processing._BULK_ROWS, 1])
    @pytest.mark.parametrize("op", ["map", "map-lazy-zip", "zip"])
    def test_full_batch_rounds(self, monkeypatch, op, chunk_rows):
        monkeypatch.setattr(processing, "_BULK_ROWS", chunk_rows)
        mgmt = make_mgmt(cores=3, log_transfers=True)
        launches = record_jobs(mgmt)
        tl.run_op(mgmt, op, (2, 6), 3 * 15_500 - 5, np.random.default_rng(7))
        (job, *_), = launches
        assert len(set(job.per_core_elems)) == 2
        # at least three full batch rounds before the last two on every core
        steps = -(-min(job.per_core_elems) // job.plan.batch_elems)
        assert steps - 2 * job.plan.num_tasklets >= 3 * job.plan.num_tasklets
        assert_schedules_executed(mgmt, launches)


class TestJobNamesItsArrays:
    """A launch's job holds the registry's own records of the arrays it
    streams, of the handle's resident context and of its output."""

    @pytest.mark.parametrize("op,sources", [
        ("map-lazy-zip", "ab"),  # with a context
        ("red-private-declared-lazy-zip", "ab"),  # with a context
        ("red-shared-opaque-plain", "a"),
    ])
    def test_records_are_the_registry_records(self, op, sources):
        mgmt = make_mgmt(cores=3)
        launches = record_jobs(mgmt)
        tl.run_op(mgmt, op, (4, 4), 3 * 700 + 1, np.random.default_rng(5))
        (job, *_), = launches
        assert len(job.in_streams) == len(sources)
        assert all(s is mgmt.lookup(i) for s, i in zip(job.in_streams, sources))
        if op == "red-shared-opaque-plain":
            assert job.ctx is None
        else:
            assert job.ctx is mgmt.lookup(f"__ctx_{job.handle.id}")
        assert job.out is mgmt.lookup("out")


def _audit(config, kind, in_sizes, out_size, output_len, context_bytes, counts, variant):
    """Plan one kernel the way the iterators do and check every command of
    its schedule; geometries without a plan are skipped."""
    try:
        plan = processing.plan_iterator(config, kind, in_sizes, out_size,
                                        output_len=output_len, variant=variant,
                                        context_bytes=context_bytes)
    except (NoFeasiblePlan, ElementTooLarge):
        return
    align = config.dma_alignment
    # bank layout as the iterators leave it: inputs, context, output
    regions, cursor = [], 0
    for size in in_sizes:
        regions.append((cursor, round_up(max(counts) * size, align)))
        cursor += regions[-1][1]
    ctx = None
    if context_bytes:
        ctx = ArrayMetadata("ctx", context_bytes, 1, cursor, (context_bytes,) * len(counts),
                            round_up(context_bytes, align), LAYOUT_REPLICATED)
        cursor += ctx.padded_chunk_bytes
    out_bytes = plan.accum_slot if kind == REDUCE else round_up(max(counts) * out_size, align)
    streams = tuple(ArrayMetadata(f"in{i}", sum(counts), size, off, tuple(counts), padded)
                    for i, ((off, padded), size) in enumerate(zip(regions, in_sizes)))
    out = ArrayMetadata("out", output_len if kind == REDUCE else sum(counts), out_size,
                        cursor, tuple(counts), out_bytes)
    job = processing._Job(None, plan, tuple(counts), streams, ctx, out)
    context, runs, partial = processing.dma_schedule(config, job)
    assert set(runs) == set(counts)

    def check(cmd_bank, cmd_scratch, nbytes, bank_range, scratch_range):
        assert nbytes % align == cmd_bank % align == cmd_scratch % align == 0
        assert 0 < nbytes <= config.dma_max_bytes
        assert scratch_range[0] <= cmd_scratch
        assert cmd_scratch + nbytes <= scratch_range[1] <= plan.occupancy_bytes
        assert bank_range[0] <= cmd_bank and cmd_bank + nbytes <= sum(bank_range)

    for bank, scratch, n in context:
        check(bank, scratch, n, (ctx.bank_offset, ctx.padded_chunk_bytes),
              (0, plan.accum_base))
    for scratch, bank, n in partial:
        check(bank, scratch, n, (cursor, out_bytes),
              (plan.accum_base, plan.accum_base + plan.accum_slot))
    assert sum(n for *_, n in partial) == (plan.accum_slot if kind == REDUCE else 0)
    for local, tasklets in runs.items():
        assert len(tasklets) == plan.num_tasklets
        for t, batches in enumerate(tasklets):
            block = plan.blocks_base + t * plan.block_bytes
            for m, reads, write in batches:
                assert 0 < m <= plan.batch_elems
                assert len(reads) == len(in_sizes)
                for (bank, scratch, n), region in zip(reads, regions):
                    check(bank, scratch, n, region, (block, block + plan.block_bytes))
                assert (write is None) == (kind == REDUCE)
                if write is not None:
                    check(write[1], write[0], write[2], (cursor, out_bytes),
                          (block, block + plan.block_bytes))
                slots = [(scratch, scratch + n) for _, scratch, n in reads]
                if write is not None:
                    slots.append((write[0], write[0] + write[2]))
                slots.sort()  # a batch's slots do not overlap
                assert all(a[1] <= b[0] for a, b in zip(slots, slots[1:]))
        assert sum(m for batches in tasklets for m, _, _ in batches) == local
        # each stream is read once per batch: ceil(local / batch) commands
        assert sum(map(len, tasklets)) == math.ceil(local / plan.batch_elems)


@st.composite
def geometries(draw):
    align = draw(st.one_of(st.sampled_from([12, 24]), st.integers(4, 32)))
    dma_max = align * draw(st.integers(1, 4096 // align))
    scratch = draw(st.integers(max(dma_max, 512), 65536))
    reserve = draw(st.integers(0, scratch - 1))
    return DeviceConfig(num_cores=1, scratchpad_bytes=scratch, scratchpad_reserve_bytes=reserve,
                        dma_max_bytes=dma_max, dma_alignment=align,
                        max_tasklets=draw(st.integers(1, 24)))


class TestScheduleGeometrySweep:
    @settings(max_examples=300, deadline=None)
    @given(config=geometries(), kind=st.sampled_from([MAP, ZIP, REDUCE]),
           in_sizes=st.lists(st.integers(1, 64), min_size=1, max_size=2),
           out_size=st.integers(1, 64), output_len=st.integers(1, 600),
           context_bytes=st.sampled_from([0, 0, 1, 37, 400, 4000]),
           counts=st.lists(st.integers(0, 3000), min_size=1, max_size=3),
           variant=st.sampled_from(["shared", "private"]))
    def test_every_command_is_legal(self, config, kind, in_sizes, out_size, output_len,
                                    context_bytes, counts, variant):
        if kind == ZIP:  # a materializing zip: two streams, no context
            in_sizes = (in_sizes * 2)[:2]
            out_size, context_bytes = sum(in_sizes), 0
        _audit(config, kind, in_sizes, out_size, output_len, context_bytes, counts,
               variant)
