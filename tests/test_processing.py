import collections
import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import defined_state, host_state, keep_freed_elements, make_mgmt
from pimlite import apps, comm, harness, processing
from pimlite.apps import BenchmarkSpec
from pimlite.device import DeviceConfig, round_up
from pimlite.errors import (
    DistributionMismatch,
    ElementTooLarge,
    HandleKindMismatch,
    HostBufferInvalid,
    InvalidCombiner,
    InvalidHandleKind,
    LengthMismatch,
    MissingCallback,
    NoFeasiblePlan,
    ScratchpadOverflow,
)
from pimlite.processing import (
    MAP,
    REDUCE,
    VARIANT_PRIVATE,
    VARIANT_SHARED,
    ZIP,
    IteratorPlan,
    compute_batch_elems,
    plan_iterator,
)
from test_reference_executor import reference_kernel


def scatter_u32(mgmt, name, values):
    arr = np.asarray(values, np.uint32)
    comm.scatter(mgmt, name, arr, arr.size, 4)
    return arr


def u32_map(fn):
    def map_func(src, dst, ctx):
        out = dst.view(np.uint32).ravel()
        out[:] = fn(src.view(np.uint32).ravel())
    return map_func


def sum_reduce_handle(mgmt, key_fn, entries, entry_dtype=np.uint32):
    """Keyed u32 reduction handle with the given key function."""
    width = np.dtype(entry_dtype).itemsize

    def init(a):
        a[:] = 0

    def to_val(src, ctx):
        v = src.view(np.uint32).ravel().astype(entry_dtype)
        return v, key_fn(src.view(np.uint32).ravel())

    def acc(dst, src):
        a = dst.view(entry_dtype)
        np.add(a, src.view(entry_dtype), out=a)

    handle = processing.create_handle(mgmt, REDUCE, init_func=init,
                                      map_to_val_func=to_val, acc_func=acc)
    return handle, width


class TestHandles:
    def test_invalid_kind(self, mgmt):
        with pytest.raises(InvalidHandleKind):
            processing.create_handle(mgmt, "fold")

    def test_map_requires_map_func(self, mgmt):
        with pytest.raises(MissingCallback):
            processing.create_handle(mgmt, MAP)

    def test_reduce_requires_all_three(self, mgmt):
        with pytest.raises(MissingCallback):
            processing.create_handle(mgmt, REDUCE, init_func=lambda a: None,
                                     map_to_val_func=lambda s, c: None)

    def test_kind_mismatch_at_call_site(self, mgmt):
        scatter_u32(mgmt, "x", range(8))
        map_handle = processing.create_handle(mgmt, MAP, map_func=u32_map(lambda v: v))
        with pytest.raises(HandleKindMismatch):
            processing.array_red(mgmt, "x", "y", 4, 1, map_handle)
        red_handle, _ = sum_reduce_handle(mgmt, lambda v: np.zeros(v.size, np.int64), 1)
        with pytest.raises(HandleKindMismatch):
            processing.array_map(mgmt, "x", "y", 4, red_handle)


class TestBatchSizing:
    def brute_force(self, type_size, dma_max=2048, align=8):
        for b in range(dma_max // type_size, 0, -1):
            if (b * type_size) % align == 0:
                return b
        return None

    @pytest.mark.parametrize("type_size,expected", [(4, 512), (12, 170), (40, 51)])
    def test_reference_sizes(self, type_size, expected):
        assert self.brute_force(type_size) == expected  # oracle agrees
        assert compute_batch_elems(type_size) == expected

    @settings(max_examples=200, deadline=None)
    @given(type_size=st.integers(1, 4096))
    def test_matches_enumeration(self, type_size):
        expected = self.brute_force(type_size)
        if expected is None:
            with pytest.raises(ElementTooLarge):
                compute_batch_elems(type_size)
        else:
            assert compute_batch_elems(type_size) == expected

    def test_element_too_large(self):
        with pytest.raises(ElementTooLarge):
            compute_batch_elems(4096)
        with pytest.raises(ElementTooLarge):
            compute_batch_elems(1500)  # no aligned multiple fits 2048


class TestReductionPlan:
    @pytest.mark.parametrize("bins,tasklets", [
        (256, 12), (512, 12), (1024, 8), (2048, 4), (4096, 2)])
    def test_histogram_throttling(self, bins, tasklets):
        plan = plan_iterator(DeviceConfig(num_cores=1), REDUCE, (4,), 4, output_len=bins)
        assert plan.variant == VARIANT_PRIVATE
        assert plan.num_tasklets == tasklets

    def test_tiny_accumulator_uses_all_tasklets(self):
        plan = plan_iterator(DeviceConfig(num_cores=1), REDUCE, (4,), 8, output_len=1)
        assert plan.variant == VARIANT_PRIVATE
        assert plan.num_tasklets == 12

    def test_occupancy_formulas(self):
        cfg = DeviceConfig(num_cores=1)
        private = plan_iterator(cfg, REDUCE, (4,), 4, output_len=1024, variant="private")
        assert private.occupancy_bytes == 8 * (1024 * 4 + 2048)
        shared = plan_iterator(cfg, REDUCE, (4,), 4, output_len=1024, variant="shared")
        assert shared.occupancy_bytes == 1024 * 4 + 12 * 2048
        assert shared.num_tasklets == 12

    def test_shared_keeps_more_tasklets_for_large_outputs(self):
        cfg = DeviceConfig(num_cores=1)
        assert plan_iterator(cfg, REDUCE, (4,), 4, output_len=4096,
                             variant="private").num_tasklets == 2
        assert plan_iterator(cfg, REDUCE, (4,), 4, output_len=4096,
                             variant="shared").num_tasklets == 12

    def test_no_feasible_plan(self):
        cfg = DeviceConfig(num_cores=1)
        with pytest.raises(NoFeasiblePlan):
            plan_iterator(cfg, REDUCE, (4,), 4, output_len=20_000)

    @settings(max_examples=150, deadline=None)
    @given(n1=st.integers(1, 8192), n2=st.integers(1, 8192),
           d=st.sampled_from([1, 2, 4, 8]))
    def test_tasklets_monotone_in_accumulator_size(self, n1, n2, d):
        cfg = DeviceConfig(num_cores=1)

        def tasklets(n):
            try:
                return plan_iterator(cfg, REDUCE, (4,), d, output_len=n).num_tasklets
            except NoFeasiblePlan:
                return 0

        lo, hi = sorted((n1, n2))
        assert tasklets(lo) >= tasklets(hi)


def record_launches(mgmt):
    """Wrap the device's kernel launcher; returns the list of
    (num_tasklets, scratch_bytes) of every launch."""
    launches = []
    launch = mgmt.device.launch_kernel

    def recording(kernel, num_tasklets, params=None, scratch_bytes=0):
        launches.append((num_tasklets, scratch_bytes))
        return launch(kernel, num_tasklets, params, scratch_bytes=scratch_bytes)

    mgmt.device.launch_kernel = recording
    return launches


def scatter_streams(mgmt, in_sizes, length):
    """Scatter one zero array per input size (zipped lazily when there are
    two); returns the iterator's source id and the stream bank offsets."""
    for i, ts in enumerate(in_sizes):
        comm.scatter(mgmt, f"s{i}", np.zeros(length * ts, np.uint8), length, ts)
    offsets = [mgmt.lookup(f"s{i}").bank_offset for i in range(len(in_sizes))]
    if len(in_sizes) == 1:
        return "s0", offsets
    processing.array_zip(mgmt, "s0", "s1", "z")
    return "z", offsets


def assert_streamed_in_batches(mgmt, in_sizes, offsets, length, batch):
    """Every input stream was read in ceil(length / batch) commands of at
    most one batch each."""
    reads = [rec for rec in mgmt.device.transfer_log if rec.op == "dma_read"]
    for ts, off in zip(in_sizes, offsets):
        mine = [rec.nbytes for rec in reads
                if off <= rec.bank_offset < off + length * ts]
        assert len(mine) == -(-length // batch)
        assert max(mine) == -(-min(length, batch) * ts // 8) * 8


class TestPlanner:
    """One planner: an iterator returns the plan launch_kernel ran, the public
    planner returns that same plan, and a plan it calls feasible fits."""

    INPUTS = [(4,), (48,), (4, 8), (12, 4)]
    CONTEXTS = [0, 1000, 19_200, 28_800, 40_000]

    @pytest.mark.parametrize("in_sizes", INPUTS)
    @pytest.mark.parametrize("variant", ["auto", "shared", "private"])
    def test_reduction_runs_the_public_plan(self, in_sizes, variant):
        for n, d in [(1, 8), (10, 88), (200, 104), (300, 104), (1024, 4),
                     (2730, 1), (4096, 4)]:
            for ctx in self.CONTEXTS:
                cfg = DeviceConfig(num_cores=1)
                try:
                    expected = plan_iterator(cfg, REDUCE, in_sizes, d, output_len=n,
                                             variant=variant, context_bytes=ctx)
                except NoFeasiblePlan:
                    expected = None
                length = 2 * expected.batch_elems + 1 if expected else 8
                mgmt = make_mgmt(cores=1, log_transfers=True)
                src, offsets = scatter_streams(mgmt, in_sizes, length)
                handle = processing.create_handle(
                    mgmt, REDUCE, init_func=lambda a: None,
                    map_to_val_func=lambda s, c: (np.zeros(s.shape[0] * d, np.uint8),
                                                  np.zeros(s.shape[0], np.int64)),
                    acc_func=lambda a, b: None,
                    context=np.zeros(ctx, np.uint8) if ctx else None)
                launches = record_launches(mgmt)
                if expected is None:
                    before = host_state(mgmt)
                    with pytest.raises(NoFeasiblePlan):
                        processing.array_red(mgmt, src, "o", d, n, handle, variant)
                    assert host_state(mgmt) == before and handle.ctx_array_id is None
                    continue
                plan = processing.array_red(mgmt, src, "o", d, n, handle, variant)
                assert plan == expected == mgmt.last_plan
                assert launches == [(plan.num_tasklets, plan.occupancy_bytes)]
                assert plan.occupancy_bytes <= cfg.usable_scratchpad_bytes
                assert_streamed_in_batches(mgmt, in_sizes, offsets, length,
                                           plan.batch_elems)

    @pytest.mark.parametrize("in_sizes", INPUTS)
    def test_map_and_zip_run_the_returned_plan(self, in_sizes):
        cfg = DeviceConfig(num_cores=1)
        for out in (4, 12):
            for ctx in self.CONTEXTS + [56_000]:
                try:
                    expected = processing.plan_iterator(
                        cfg, MAP, in_sizes, out, context_bytes=ctx)
                except NoFeasiblePlan:
                    expected = None
                length = 2 * expected.batch_elems + 1 if expected else 8
                mgmt = make_mgmt(cores=1, log_transfers=True)
                src, offsets = scatter_streams(mgmt, in_sizes, length)
                handle = processing.create_handle(
                    mgmt, MAP, map_func=lambda s, o, c: None,
                    context=np.zeros(ctx, np.uint8) if ctx else None)
                launches = record_launches(mgmt)
                if expected is None:
                    before = host_state(mgmt)
                    with pytest.raises(NoFeasiblePlan):
                        processing.array_map(mgmt, src, "o", out, handle)
                    assert host_state(mgmt) == before
                    continue
                plan = processing.array_map(mgmt, src, "o", out, handle)
                assert plan == expected == mgmt.last_plan
                assert plan.variant is None
                assert launches == [(plan.num_tasklets, plan.occupancy_bytes)]
                assert_streamed_in_batches(mgmt, in_sizes, offsets, length,
                                           plan.batch_elems)
        if len(in_sizes) == 2:
            mgmt = make_mgmt(cores=1, log_transfers=True)
            scatter_streams(mgmt, in_sizes, 300)
            launches = record_launches(mgmt)
            plan = processing.array_zip(mgmt, "s0", "s1", "m", materialize=True)
            assert plan == processing.plan_iterator(cfg, ZIP, in_sizes, sum(in_sizes))
            assert launches == [(plan.num_tasklets, plan.occupancy_bytes)]
            assert plan.out_rel == plan.combine_rel

    def test_lazy_zip_returns_no_plan(self, mgmt):
        scatter_u32(mgmt, "a", range(8))
        scatter_u32(mgmt, "b", range(8))
        assert processing.array_zip(mgmt, "a", "b", "ab") is None
        assert mgmt.last_plan is None

    def test_one_tasklet_runs_a_batch_beside_a_large_accumulator(self):
        # 8,664 B of bins leave 2,699 B of the 11,363 usable: too little for a
        # full 3,180 B command, enough for a 672-element batch.  Only several
        # tasklets need room for full commands each.
        geometry = dict(scratchpad_bytes=16384, scratchpad_reserve_bytes=5021,
                        dma_max_bytes=3180, dma_alignment=12)
        plan = plan_iterator(DeviceConfig(num_cores=1, **geometry), REDUCE, (4,), 4,
                             output_len=2166)
        assert (plan.num_tasklets, plan.batch_elems) == (1, 672)
        assert plan.occupancy_bytes == 11_352
        mgmt = make_mgmt(cores=3, log_transfers=True, **geometry)
        spec = BenchmarkSpec(name="histogram", total_elems=5000, bins=2166, seed=9)
        assert np.array_equal(apps.run_histogram(mgmt, spec), apps.oracle_histogram(spec))
        assert mgmt.last_plan == plan
        assert harness.audit_transfer_log(mgmt.device) == []

    def test_context_that_leaves_no_room_fails_before_broadcast(self):
        # k-means shape: 12-dim int32 points, 300 clusters of 13 int64 sums;
        # 28,800 B of centroids plus a 31,200 B accumulator exceed the budget
        mgmt = make_mgmt(cores=2)
        comm.scatter(mgmt, "pts", np.zeros(600 * 48, np.uint8), 600, 48)
        handle = processing.create_handle(
            mgmt, REDUCE, init_func=lambda a: None,
            map_to_val_func=lambda s, c: None, acc_func=lambda a, b: None,
            context=np.zeros((300, 12), np.int64))
        before = host_state(mgmt)
        with pytest.raises(NoFeasiblePlan):
            processing.array_red(mgmt, "pts", "acc", 8 * 13, 300, handle)
        assert host_state(mgmt) == before
        assert handle.ctx_array_id is None


class TestFailingCallbacks:
    """A call that raises leaves no trace, whatever the exception: the
    counters, the transfer log, the allocator, the registry, the handle's
    context and ``last_plan`` are as they were before the iterator was
    called, although the kernel read a batch before the callback raised."""

    def boom(self, mgmt, read):
        def callback(*args):
            read.append(mgmt.device.stats.dram_to_scratch_bytes)
            raise ZeroDivisionError("callback failed")
        return callback

    @pytest.mark.parametrize("context", [None, np.ones(100, np.uint8)])
    def test_failing_map_func(self, context):
        # a map's callback runs before any stream command: the output is
        # already registered and allocated when it raises
        mgmt = make_mgmt(cores=2, log_transfers=True)
        scatter_u32(mgmt, "x", range(100))
        read, created = [], []
        boom = self.boom(mgmt, read)

        def map_func(*args):
            created.append(("y" in mgmt.registry, list(mgmt.device.cursors)))
            boom(*args)

        handle = processing.create_handle(mgmt, MAP, map_func=map_func, context=context)
        before = host_state(mgmt, handle)
        with pytest.raises(ZeroDivisionError):
            processing.array_map(mgmt, "x", "y", 16, handle)
        (registered, cursors), = created
        assert registered and cursors > before[1]
        if context is not None:
            assert read[0] > before[0].dram_to_scratch_bytes
        assert host_state(mgmt, handle) == before

    @pytest.mark.parametrize("context", [None, np.ones(100, np.uint8)])
    @pytest.mark.parametrize("variant", ["shared", "private"])
    def test_failing_map_to_val_func(self, variant, context):
        mgmt = make_mgmt(cores=2, log_transfers=True)
        scatter_u32(mgmt, "x", range(100))
        read = []
        handle = processing.create_handle(mgmt, REDUCE, init_func=lambda a: None,
                                          map_to_val_func=self.boom(mgmt, read),
                                          acc_func=lambda a, b: None, context=context)
        before = host_state(mgmt, handle)
        with pytest.raises(ZeroDivisionError):
            processing.array_red(mgmt, "x", "y", 4, 4, handle, variant=variant)
        assert read and read[0] > before[0].dram_to_scratch_bytes
        assert host_state(mgmt, handle) == before

    @pytest.mark.parametrize("variant", ["shared", "private"])
    def test_acc_func_failing_in_the_host_fold(self, variant):
        # the fold runs after the launch, while the output array is allocated
        mgmt = make_mgmt(cores=2, log_transfers=True)
        scatter_u32(mgmt, "x", range(100))
        launches = mgmt.device.stats.kernel_launches
        host_calls = []

        def acc(dst, src):
            if mgmt.device.stats.kernel_launches > launches:  # the kernel has run
                host_calls.append(1)
                raise ZeroDivisionError("callback failed")
            a = dst.view(np.uint32)
            np.add(a, src.view(np.uint32), out=a)

        handle = processing.create_handle(
            mgmt, REDUCE, init_func=lambda a: a.fill(0), acc_func=acc,
            map_to_val_func=lambda s, c: (s.view(np.uint32).ravel(),
                                          np.zeros(s.shape[0], np.int64)),
            context=np.zeros(100, np.uint8))
        before = host_state(mgmt, handle)
        with pytest.raises(ZeroDivisionError):
            processing.array_red(mgmt, "x", "y", 4, 4, handle, variant=variant)
        assert host_calls == [1]
        assert host_state(mgmt, handle) == before

    @pytest.mark.parametrize("fail_at", [1, 3])
    def test_acc_func_failing_in_allreduce(self, fail_at):
        # the host pulled every core's copy before the fold's acc_func raised
        mgmt = make_mgmt(cores=4, log_transfers=True)
        comm.broadcast(mgmt, "r", np.arange(8, dtype=np.uint32), 8, 4)
        calls = []

        def acc(dst, src):
            calls.append(1)
            if len(calls) == fail_at:
                raise ZeroDivisionError("callback failed")

        handle = processing.create_handle(
            mgmt, REDUCE, init_func=lambda a: None, acc_func=acc,
            map_to_val_func=lambda s, c: None)
        before = host_state(mgmt, handle, banks=True)
        with pytest.raises(ZeroDivisionError):
            comm.allreduce(mgmt, "r", handle)
        assert len(calls) == fail_at
        assert host_state(mgmt, handle, banks=True) == before


class TestMap:
    def test_square(self):
        mgmt = make_mgmt(cores=2)
        scatter_u32(mgmt, "x", [1, 2, 3, 4])
        handle = processing.create_handle(mgmt, MAP, map_func=u32_map(lambda v: v * v))
        processing.array_map(mgmt, "x", "y", 4, handle)
        assert np.array_equal(comm.gather(mgmt, "y").view(np.uint32), [1, 4, 9, 16])
        assert mgmt.lookup("y").per_core_elems == mgmt.lookup("x").per_core_elems

    def test_identity(self):
        mgmt = make_mgmt(cores=3)
        data = scatter_u32(mgmt, "x", np.arange(1000))
        handle = processing.create_handle(mgmt, MAP, map_func=u32_map(lambda v: v))
        processing.array_map(mgmt, "x", "y", 4, handle)
        assert np.array_equal(comm.gather(mgmt, "y").view(np.uint32), data)

    def test_widening_output(self):
        mgmt = make_mgmt(cores=2)
        data = scatter_u32(mgmt, "x", np.arange(777))

        def widen(src, dst, ctx):
            out = dst.view(np.uint64).ravel()
            out[:] = src.view(np.uint32).ravel().astype(np.uint64) * 3

        handle = processing.create_handle(mgmt, MAP, map_func=widen)
        processing.array_map(mgmt, "x", "y", 8, handle)
        assert np.array_equal(comm.gather(mgmt, "y").view(np.uint64),
                              data.astype(np.uint64) * 3)

    def test_context_reaches_every_core(self):
        # 40 bytes of model data broadcast once, read by the kernel on all cores
        mgmt = make_mgmt(cores=4)
        data = scatter_u32(mgmt, "x", np.arange(100))
        weights = np.arange(10, dtype=np.uint32)  # 40 bytes

        def add_ctx_sum(src, dst, ctx):
            bias = ctx.view(np.uint32).sum(dtype=np.uint32)
            out = dst.view(np.uint32).ravel()
            np.add(src.view(np.uint32).ravel(), bias, out=out)

        handle = processing.create_handle(mgmt, MAP, map_func=add_ctx_sum,
                                          context=weights)
        processing.array_map(mgmt, "x", "y", 4, handle)
        expected = data + np.uint32(weights.sum())
        assert np.array_equal(comm.gather(mgmt, "y").view(np.uint32), expected)

    def test_pure_function_pool(self):
        rng = np.random.default_rng(7)
        pool = [lambda v: v + 1, lambda v: v * 17, lambda v: v ^ 0xDEAD,
                lambda v: np.maximum(v, 1000), lambda v: v >> 3]
        for i, fn in enumerate(pool):
            mgmt = make_mgmt(cores=int(rng.integers(1, 6)))
            data = scatter_u32(mgmt, "x", rng.integers(0, 1 << 32, 257, dtype=np.uint32))
            handle = processing.create_handle(mgmt, MAP, map_func=u32_map(fn))
            processing.array_map(mgmt, "x", "y", 4, handle)
            assert np.array_equal(comm.gather(mgmt, "y").view(np.uint32), fn(data))


class TestZip:
    def test_lazy_zip_moves_no_data(self):
        mgmt = make_mgmt(cores=2)
        scatter_u32(mgmt, "a", range(16))
        scatter_u32(mgmt, "b", range(16))
        before = mgmt.device.stats.copy()
        processing.array_zip(mgmt, "a", "b", "ab")
        after = mgmt.device.stats
        assert after.bank_scratch_bytes == before.bank_scratch_bytes
        assert after.host_to_pim_bytes == before.host_to_pim_bytes

    def test_map_over_lazy_zip(self):
        mgmt = make_mgmt(cores=3)
        a = scatter_u32(mgmt, "a", np.arange(100))
        b = scatter_u32(mgmt, "b", np.arange(100) * 7)
        processing.array_zip(mgmt, "a", "b", "ab")
        before = mgmt.device.stats.bank_scratch_bytes

        def add(src, dst, ctx):
            pairs = src.view(np.uint32).reshape(-1, 2)
            out = dst.view(np.uint32).ravel()
            np.add(pairs[:, 0], pairs[:, 1], out=out)

        handle = processing.create_handle(mgmt, MAP, map_func=add)
        processing.array_map(mgmt, "ab", "s", 4, handle)
        assert np.array_equal(comm.gather(mgmt, "s").view(np.uint32), a + b)
        # kernel traffic is exactly read A + read B + write out; no zipped
        # intermediate ever touches the banks (all splits land 8-aligned here)
        assert mgmt.device.stats.bank_scratch_bytes - before == 3 * 100 * 4

    def test_length_mismatch(self, mgmt):
        scatter_u32(mgmt, "a", range(5))
        scatter_u32(mgmt, "b", range(6))
        with pytest.raises(LengthMismatch):
            processing.array_zip(mgmt, "a", "b", "ab")

    def test_distribution_mismatch(self):
        mgmt = make_mgmt(cores=4)
        scatter_u32(mgmt, "a", range(10))  # (4, 4, 2, 0)
        comm.scatter(mgmt, "b", np.zeros(10 * 40, np.uint8), 10, 40)  # (3, 3, 3, 1)
        assert mgmt.lookup("a").per_core_elems != mgmt.lookup("b").per_core_elems
        with pytest.raises(DistributionMismatch):
            processing.array_zip(mgmt, "a", "b", "ab")

    def test_zip_of_lazy_materializes(self):
        mgmt = make_mgmt(cores=2)
        a = scatter_u32(mgmt, "a", np.arange(50))
        b = scatter_u32(mgmt, "b", np.arange(50) + 100)
        c = scatter_u32(mgmt, "c", np.arange(50) + 900)
        processing.array_zip(mgmt, "a", "b", "ab")
        before = mgmt.device.stats.copy()
        processing.array_zip(mgmt, "ab", "c", "abc")
        after = mgmt.device.stats
        meta = mgmt.lookup("abc")
        assert meta.layout == "scattered"
        assert meta.type_size == 12
        # materialization streamed all three inputs and wrote the combined array
        assert after.dram_to_scratch_bytes - before.dram_to_scratch_bytes >= 50 * 12
        assert after.scratch_to_dram_bytes - before.scratch_to_dram_bytes >= 50 * 12
        combined = comm.gather(mgmt, "abc").view(np.uint32).reshape(50, 3)
        assert np.array_equal(combined,
                              np.stack([a, b, c], axis=1))

    def test_zip_slot_is_filled_without_a_temporary(self, monkeypatch):
        """Each zip-slot column is copied from the bank rows the batch has
        just read, not from its stream slot: a copy between two views of the
        one scratchpad array would first copy the column into a temporary."""
        cores, per_core = 32, 238
        mgmt = make_mgmt(cores=cores)
        a = scatter_u32(mgmt, "a", np.arange(cores * per_core))
        b = scatter_u32(mgmt, "b", np.arange(cores * per_core) * 3)
        processing.array_zip(mgmt, "a", "b", "ab")
        peaks, interleave = [], processing._interleave

        def traced(dst, banks, sources, n):
            tracemalloc.start()
            try:
                interleave(dst, banks, sources, n)
                peaks.append((tracemalloc.get_traced_memory()[1], len(banks) * n * 4))
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(processing, "_interleave", traced)

        def add(src, dst, ctx):
            pairs = src.view(np.uint32).reshape(-1, 2)
            np.add(pairs[:, 0], pairs[:, 1], out=dst.view(np.uint32).ravel())

        handle = processing.create_handle(mgmt, MAP, map_func=add)
        processing.array_map(mgmt, "ab", "s", 4, handle)
        assert np.array_equal(comm.gather(mgmt, "s").view(np.uint32), a + b)
        assert peaks and all(peak < column for peak, column in peaks), peaks

    def test_materializing_zip_interleaves_without_a_temporary(self, monkeypatch):
        """A materializing zip interleaves each chunk into a host buffer and
        copies it to the output once: interleaving straight into the output,
        another view of the bank array, would first copy each source column
        into a temporary."""
        cores, per_core = 32, 5000
        mgmt = make_mgmt(cores=cores)
        a = scatter_u32(mgmt, "a", np.arange(cores * per_core))
        b = scatter_u32(mgmt, "b", np.arange(cores * per_core) * 3)
        peaks, interleave = [], processing._interleave

        def traced(dst, banks, sources, n):
            tracemalloc.start()
            try:
                interleave(dst, banks, sources, n)
                peaks.append((tracemalloc.get_traced_memory()[1], len(banks) * n * 4))
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(processing, "_interleave", traced)
        processing.array_zip(mgmt, "a", "b", "ab", materialize=True)
        pairs = comm.gather(mgmt, "ab").view(np.uint32).reshape(-1, 2)
        assert np.array_equal(pairs, np.stack([a, b], axis=1))
        assert peaks and all(peak < column for peak, column in peaks), peaks

    def test_eager_traffic_exceeds_lazy_by_two(self):
        def vecadd_traffic(eager):
            mgmt = make_mgmt(cores=2)
            a = scatter_u32(mgmt, "a", np.arange(5000))
            b = scatter_u32(mgmt, "b", np.arange(5000) * 3)
            processing.array_zip(mgmt, "a", "b", "ab", materialize=eager)

            def add(src, dst, ctx):
                pairs = src.view(np.uint32).reshape(-1, 2)
                out = dst.view(np.uint32).ravel()
                np.add(pairs[:, 0], pairs[:, 1], out=out)

            handle = processing.create_handle(mgmt, MAP, map_func=add)
            processing.array_map(mgmt, "ab", "s", 4, handle)
            assert np.array_equal(comm.gather(mgmt, "s").view(np.uint32), a + b)
            return mgmt.device.stats.bank_scratch_bytes

        ratio = vecadd_traffic(True) / vecadd_traffic(False)
        assert 2.0 <= ratio <= 2.5


def sequential_reduction_oracle(values, keys, entries, dtype):
    """Literal element-by-element general reduction on the host."""
    modulus = int(np.iinfo(dtype).max) + 1
    out = [0] * entries
    for v, k in zip(values.tolist(), keys.tolist()):
        out[k] = (out[k] + int(v)) % modulus
    return np.array(out, dtype)


class TestReduce:
    def test_sum_closed_form(self):
        mgmt = make_mgmt(cores=2)
        scatter_u32(mgmt, "x", np.arange(1, 101))
        handle, width = sum_reduce_handle(
            mgmt, lambda v: np.zeros(v.size, np.int64), 1, np.uint64)
        processing.array_red(mgmt, "x", "total", width, 1, handle)
        assert comm.gather(mgmt, "total").view(np.uint64)[0] == 5050

    def test_result_placed_on_core_zero(self):
        mgmt = make_mgmt(cores=4)
        scatter_u32(mgmt, "x", np.arange(100))
        handle, width = sum_reduce_handle(
            mgmt, lambda v: np.zeros(v.size, np.int64), 1, np.uint64)
        processing.array_red(mgmt, "x", "total", width, 1, handle)
        assert mgmt.lookup("total").per_core_elems == (1, 0, 0, 0)

    def test_histogram_key_rule_extremes(self):
        # value * bins >> 12 sends 1 to bin 0 and 4095 to the last bin; the
        # handle sums values per bin, which pins where each element landed
        mgmt = make_mgmt(cores=2)
        scatter_u32(mgmt, "x", [1, 4095])
        handle, width = sum_reduce_handle(
            mgmt, lambda v: (v.astype(np.int64) * 256) >> 12, 256)
        processing.array_red(mgmt, "x", "h", width, 256, handle)
        bins = comm.gather(mgmt, "h").view(np.uint32)
        assert bins[0] == 1 and bins[255] == 4095 and bins.sum() == 4096

    @pytest.mark.parametrize("variant", ["shared", "private"])
    def test_matches_sequential_oracle(self, variant):
        rng = np.random.default_rng(13)
        for cores in (1, 3, 8):
            mgmt = make_mgmt(cores=cores)
            data = rng.integers(0, 1 << 32, 1234, dtype=np.uint32)
            comm.scatter(mgmt, "x", data, data.size, 4)
            entries = 37
            handle, width = sum_reduce_handle(
                mgmt, lambda v: (v % entries).astype(np.int64), entries)
            processing.array_red(mgmt, "x", "out", width, entries, handle,
                                 variant=variant)
            got = comm.gather(mgmt, "out").view(np.uint32)
            expected = sequential_reduction_oracle(
                data, data % entries, entries, np.uint32)
            assert np.array_equal(got, expected)

    def test_variants_agree_bitwise(self):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 1 << 32, 4096, dtype=np.uint32)
        results = {}
        for variant in ("shared", "private"):
            mgmt = make_mgmt(cores=4)
            comm.scatter(mgmt, "x", data, data.size, 4)
            handle, width = sum_reduce_handle(
                mgmt, lambda v: (v % 512).astype(np.int64), 512)
            plan = processing.array_red(mgmt, "x", "out", width, 512, handle,
                                        variant=variant)
            assert plan.variant == (VARIANT_SHARED if variant == "shared"
                                    else VARIANT_PRIVATE)
            results[variant] = comm.gather(mgmt, "out").view(np.uint32)
        assert np.array_equal(results["shared"], results["private"])

    def test_reduce_over_lazy_zip(self):
        mgmt = make_mgmt(cores=3)
        a = scatter_u32(mgmt, "a", np.arange(500))
        b = scatter_u32(mgmt, "b", np.arange(500) * 11)
        processing.array_zip(mgmt, "a", "b", "ab")

        def init(x):
            x[:] = 0

        def to_val(src, ctx):
            pairs = src.view(np.uint32).reshape(-1, 2)
            return (pairs[:, 0] + pairs[:, 1]).astype(np.uint64), \
                (pairs[:, 0] % 4).astype(np.int64)

        def acc(dst, src):
            x = dst.view(np.uint64)
            np.add(x, src.view(np.uint64), out=x)

        handle = processing.create_handle(mgmt, REDUCE, init_func=init,
                                          map_to_val_func=to_val, acc_func=acc)
        processing.array_red(mgmt, "ab", "out", 8, 4, handle)
        got = comm.gather(mgmt, "out").view(np.uint64)
        expected = sequential_reduction_oracle(
            (a + b).astype(np.uint64), a % 4, 4, np.uint64)
        assert np.array_equal(got, expected)

    def test_init_func_writes_through_a_flat_view_of_a_shared_run(self):
        # one 8-byte entry, shared: the slot of each core has no padding, so
        # a run of two cores once got a strided view that lost these writes
        mgmt = make_mgmt(cores=2)
        comm.scatter(mgmt, "x", np.arange(16, dtype=np.uint64), 16, 8)
        mgmt.device.scratchpads[:] = 0xAB  # what a direct user of the device may leave
        seen = []

        def init(acc):
            seen.append(acc.flags.c_contiguous)
            acc.reshape(-1).view(np.uint64)[:] = 0

        def to_val(src, ctx):
            return src.view(np.uint64).ravel(), np.zeros(src.shape[0], np.int64)

        def acc(dst, src):
            x = dst.view(np.uint64)
            np.add(x, src.view(np.uint64), out=x)

        handle = processing.create_handle(mgmt, REDUCE, init_func=init,
                                          map_to_val_func=to_val, acc_func=acc)
        processing.array_red(mgmt, "x", "total", 8, 1, handle, variant="shared")
        assert seen == [True]
        assert comm.gather(mgmt, "total").view(np.uint64)[0] == 120

    def test_accumulator_too_large(self):
        mgmt = make_mgmt(cores=1)
        scatter_u32(mgmt, "x", range(8))
        handle, width = sum_reduce_handle(
            mgmt, lambda v: np.zeros(v.size, np.int64), 20_000)
        with pytest.raises((ScratchpadOverflow, NoFeasiblePlan)):
            processing.array_red(mgmt, "x", "out", width, 20_000, handle)


class TestBatchLegality:
    def test_streaming_commands_follow_the_batch_rule(self):
        mgmt = make_mgmt(cores=2, log_transfers=True)
        data = np.arange(5000, dtype=np.uint32)
        comm.scatter(mgmt, "x", data, 5000, 4)
        meta = mgmt.lookup("x")
        handle = processing.create_handle(mgmt, MAP, map_func=u32_map(lambda v: v + 1))
        processing.array_map(mgmt, "x", "y", 4, handle)
        cfg = mgmt.device.config
        reads = [rec for rec in mgmt.device.transfer_log if rec.op == "dma_read"]
        assert reads, "map must stream its input"
        batch_bytes = {rec.nbytes for rec in reads}
        for rec in reads:
            assert rec.nbytes % cfg.dma_alignment == 0
            assert 0 < rec.nbytes <= cfg.dma_max_bytes
        # full batches share one size; only the final partial batch differs
        full = max(batch_bytes)
        assert full % (compute_batch_elems(4) * 4) == 0 or full <= compute_batch_elems(4) * 4
        assert sum(1 for b in batch_bytes if b != full) <= 1


def keyed_handle(mgmt, key_fn, value_dtype, **kw):
    """Reduce handle whose values are the u32 inputs cast to ``value_dtype``."""
    def to_val(src, ctx):
        v = src.view(np.uint32).ravel()
        return v.astype(value_dtype), key_fn(v)

    return processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val, **kw)


class TestDeclaredCombiner:
    """``combine=(ufunc, dtype)``: validation before any state changes, the
    derived identity, and results equal to a host fold."""

    def to_val(self, src, ctx):
        v = src.view(np.uint32).ravel()
        return v.astype(np.int64), np.zeros(v.size, np.int64)

    def assert_rejected(self, mgmt, error, kind=REDUCE, **kw):
        before = host_state(mgmt)
        with pytest.raises(error):
            processing.create_handle(mgmt, kind, **kw)
        assert host_state(mgmt) == before

    def test_combine_with_acc_func_rejected(self, mgmt):
        scatter_u32(mgmt, "x", range(8))
        self.assert_rejected(mgmt, InvalidCombiner, map_to_val_func=self.to_val,
                             acc_func=lambda a, b: None, combine=(np.add, np.int64))

    @pytest.mark.parametrize("kind", [MAP, ZIP])
    def test_combine_on_non_reduce_handle_rejected(self, mgmt, kind):
        scatter_u32(mgmt, "x", range(8))
        self.assert_rejected(mgmt, InvalidCombiner, kind=kind,
                             map_func=lambda s, d, c: None, combine=(np.add, np.int64))

    @pytest.mark.parametrize("combine", [
        (lambda a, b: a + b, np.int64), (np.negative, np.int64),
        (np.divmod, np.int64), ("add", np.int64), np.add, (np.add,),
        (np.add, "no such dtype"),
        # binary integer ufuncs that are not commutative and associative
        (np.subtract, np.int64), (np.floor_divide, np.int64), (np.remainder, np.int64),
        (np.fmod, np.int32), (np.power, np.uint64), (np.left_shift, np.int64),
        (np.right_shift, np.uint32),
        # lcm wraps on overflow, and a wrapped lcm is not associative
        (np.lcm, np.uint8), (np.lcm, np.int64)])
    def test_combiner_must_be_a_binary_ufunc(self, mgmt, combine):
        scatter_u32(mgmt, "x", range(8))
        self.assert_rejected(mgmt, InvalidCombiner, map_to_val_func=self.to_val,
                             combine=combine)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128, object])
    def test_combiner_dtype_must_be_integer_or_bool(self, mgmt, dtype):
        scatter_u32(mgmt, "x", range(8))
        self.assert_rejected(mgmt, InvalidCombiner, map_to_val_func=self.to_val,
                             combine=(np.add, dtype))

    @pytest.mark.parametrize("ufunc,dtype", [(np.true_divide, np.int64),
                                             (np.logical_and, np.int32)])
    def test_combiner_must_map_dtype_to_itself(self, mgmt, ufunc, dtype):
        scatter_u32(mgmt, "x", range(8))
        self.assert_rejected(mgmt, InvalidCombiner, map_to_val_func=self.to_val,
                             combine=(ufunc, dtype))

    def test_ufunc_without_identity_needs_init_func(self, mgmt):
        data = scatter_u32(mgmt, "x", np.arange(1, 101) * 7 % 61)
        self.assert_rejected(mgmt, MissingCallback, map_to_val_func=self.to_val,
                             combine=(np.maximum, np.int64))

        def init(a):
            a[:] = 0

        handle = keyed_handle(mgmt, lambda v: (v % 5).astype(np.int64), np.int64,
                              init_func=init, combine=(np.maximum, np.int64))
        processing.array_red(mgmt, "x", "m", 8, 5, handle)
        expected = [data[data % 5 == k].max() for k in range(5)]
        assert np.array_equal(comm.gather(mgmt, "m").view(np.int64), expected)

    def test_entry_size_must_be_whole_values(self):
        mgmt = make_mgmt(cores=2)
        scatter_u32(mgmt, "x", range(100))
        handle = keyed_handle(mgmt, lambda v: np.zeros(v.size, np.int64), np.int64,
                              combine=(np.add, np.int64), context=np.zeros(100, np.uint8))
        before = host_state(mgmt)
        with pytest.raises(InvalidCombiner):
            processing.array_red(mgmt, "x", "o", 12, 1, handle)
        assert host_state(mgmt) == before
        assert handle.ctx_array_id is None and mgmt.last_plan is None

    @pytest.mark.parametrize("variant", ["shared", "private"])
    @pytest.mark.parametrize("ufunc,dtype", [
        (np.add, np.uint32), (np.bitwise_and, np.uint32), (np.bitwise_or, np.uint64),
        (np.bitwise_xor, np.int64), (np.multiply, np.uint64)])
    def test_declared_combiners_match_a_host_fold(self, ufunc, dtype, variant):
        rng = np.random.default_rng(11)
        entries, width = 7, 2  # two values per entry row
        for cores in (1, 3, 5):
            mgmt = make_mgmt(cores=cores)
            data = scatter_u32(mgmt, "x", rng.integers(1, 1 << 32, 2000, dtype=np.uint32))

            def to_val(src, ctx):
                v = src.view(np.uint32).ravel().astype(dtype)
                return np.stack([v, v >> 3], axis=1), (v % entries).astype(np.int64)

            handle = processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val,
                                              combine=(ufunc, dtype))
            item = np.dtype(dtype).itemsize
            processing.array_red(mgmt, "x", "o", width * item, entries, handle,
                                 variant=variant)
            got = comm.gather(mgmt, "o").view(dtype).reshape(entries, width)
            vals = data.astype(dtype)
            vals = np.stack([vals, vals >> 3], axis=1)
            for k in range(entries):
                expected = np.full(width, ufunc.identity).astype(dtype)
                for row in vals[data % entries == k]:
                    expected = ufunc(expected, row)
                assert np.array_equal(got[k], expected)


def opaque_create_handle(create):
    """``create_handle`` with every declared combiner replaced by the
    equivalent opaque ``acc_func`` and ``init_func``."""
    def create_handle(mgmt, kind, *, combine=None, **kw):
        if combine is not None:
            ufunc, dtype = combine

            def acc(dst, src):
                a = dst.view(dtype)
                ufunc(a, src.view(dtype), out=a)

            def init(accum):
                accum.view(dtype)[:] = ufunc.identity

            kw.setdefault("init_func", init)
            kw["acc_func"] = acc
        return create(mgmt, kind, **kw)

    return create_handle


class TestDeclaredCombinerDifferential:
    """Every reducing app gives the same results, bank bytes, counters and
    transfer log with its declared combiner (one ``ufunc.at`` per batch) as
    with the equivalent opaque callbacks (pair-reduced duplicate keys), and
    leaves the scratchpads all zero either way."""

    def run(self, monkeypatch, app, spec, cores, variant, opaque):
        folds = []
        scatter_accumulate = processing._scatter_accumulate

        def counting(*args):
            folds.append(1)
            return scatter_accumulate(*args)

        with monkeypatch.context() as patch:
            patch.setattr(processing, "_scatter_accumulate", counting)
            if opaque:
                patch.setattr(processing, "create_handle",
                              opaque_create_handle(processing.create_handle))
            mgmt = make_mgmt(cores=cores, bank_bytes=1 << 20, log_transfers=True)
            result = getattr(apps, f"run_{app}")(mgmt, spec, variant=variant)
        return result, mgmt.device, len(folds)

    @pytest.mark.parametrize("variant", ["shared", "private"])
    @pytest.mark.parametrize("app", ["reduction", "histogram", "linreg", "logreg",
                                     "kmeans"])
    def test_declared_equals_opaque(self, monkeypatch, app, variant):
        rng = np.random.default_rng(2024)
        for cores in (1, 3, 8):
            for per_core in (int(rng.integers(1, 300)), int(rng.integers(1, 300)),
                             int(rng.integers(1000, 4000))):
                total = cores * per_core
                spec = BenchmarkSpec(
                    name=app, total_elems=total, dims=int(rng.integers(1, 13)),
                    bins=int(rng.integers(2, 4097)),
                    clusters=int(rng.integers(1, 1 + min(10, total))),
                    iterations=int(rng.integers(1, 4)),
                    seed=int(rng.integers(0, 2**31)))
                fast, fdev, fast_folds = self.run(monkeypatch, app, spec, cores,
                                                  variant, opaque=False)
                slow, sdev, slow_folds = self.run(monkeypatch, app, spec, cores,
                                                  variant, opaque=True)
                assert fast_folds == 0 and slow_folds > 0
                assert np.array_equal(fast, slow)
                assert np.array_equal(fdev.banks, sdev.banks)
                assert not fdev.scratchpads.any() and not sdev.scratchpads.any()
                assert fdev.stats == sdev.stats
                assert fdev.transfer_log == sdev.transfer_log
                assert np.array_equal(fast, getattr(apps, f"oracle_{app}")(spec))


class TestReusedCallbackBuffers:
    """The callback contract: the kernel has read a step's ``vals`` and
    ``keys`` before it calls ``map_to_val_func`` again, and never writes to
    them.  A callback that returns views of one values buffer and one keys
    buffer, overwritten on every call, gives the same results, bank bytes,
    counters and transfer log as the same callback returning fresh arrays,
    and leaves the scratchpads all zero either way."""

    ENTRIES = 37

    def to_val(self, reuse):
        """Entries of two uint64 values, the element's word sum and its last
        word, keyed by its first word mod ``ENTRIES``."""
        bufs = [np.empty((0, 2), np.uint64), np.empty(0, np.int64)]

        def to_val(src, ctx):
            words = src.view(np.uint32).reshape(len(src), -1)
            m = len(words)
            if reuse and len(bufs[1]) < m:
                bufs[:] = np.empty((m, 2), np.uint64), np.empty(m, np.int64)
            vals, keys = ((bufs[0][:m], bufs[1][:m]) if reuse else
                          (np.empty((m, 2), np.uint64), np.empty(m, np.int64)))
            np.sum(words, axis=1, dtype=np.uint64, out=vals[:, 0])
            vals[:, 1] = words[:, -1]
            np.remainder(words[:, 0], self.ENTRIES, out=keys)
            return vals, keys

        return to_val

    def run(self, reuse, cores, variant, opaque, zipped):
        # uneven core counts split the cores into two runs; 13,000 words a
        # core take several batch steps per tasklet
        rng = np.random.default_rng(cores)
        total = cores * 13_000 + cores - 1
        mgmt = make_mgmt(cores=cores, log_transfers=True)
        streams = [rng.integers(0, 1 << 32, total, dtype=np.uint32)
                   for _ in range(1 + zipped)]
        for name, data in zip("ab", streams):
            comm.scatter(mgmt, name, data, total, 4)
        if zipped:
            processing.array_zip(mgmt, "a", "b", "ab")
        create = (opaque_create_handle(processing.create_handle) if opaque
                  else processing.create_handle)
        handle = create(mgmt, REDUCE, map_to_val_func=self.to_val(reuse),
                        combine=(np.add, np.uint64))
        processing.array_red(mgmt, "ab" if zipped else "a", "out", 16, self.ENTRIES,
                             handle, variant=variant)
        expected = np.zeros((self.ENTRIES, 2), np.uint64)
        words = np.stack(streams, axis=1)
        np.add.at(expected, words[:, 0] % self.ENTRIES,
                  np.stack([words.sum(axis=1, dtype=np.uint64), words[:, -1]], axis=1))
        got = comm.gather(mgmt, "out").view(np.uint64).reshape(self.ENTRIES, 2)
        assert np.array_equal(got, expected)
        return got, mgmt.device

    @pytest.mark.parametrize("zipped", [False, True], ids=["plain", "lazy-zip"])
    @pytest.mark.parametrize("opaque", [False, True], ids=["declared", "opaque"])
    @pytest.mark.parametrize("variant", ["shared", "private"])
    def test_reused_buffers_equal_fresh_arrays(self, variant, opaque, zipped):
        for cores in (1, 3):
            fresh, fdev = self.run(False, cores, variant, opaque, zipped)
            reused, rdev = self.run(True, cores, variant, opaque, zipped)
            assert np.array_equal(reused, fresh)
            assert np.array_equal(rdev.banks, fdev.banks)
            assert not rdev.scratchpads.any() and not fdev.scratchpads.any()
            assert rdev.stats == fdev.stats
            assert rdev.transfer_log == fdev.transfer_log


@pytest.mark.parametrize("zipped", [False, True], ids=["plain", "lazy-zip"])
@pytest.mark.parametrize("variant", ["shared", "private"])
def test_a_callback_that_writes_into_its_src_changes_no_array(variant, zipped):
    """A reduction reads its batches where they lie in the banks, but its
    ``map_to_val_func`` never gets a writable view of a bank: one that
    overwrites every ``src`` row it is given leaves every array's elements
    as they were, and the result is computed from the elements."""
    entries = 7
    for cores in (1, 3):
        rng = np.random.default_rng(cores)
        mgmt = make_mgmt(cores=cores)
        total = cores * 13_000 + cores - 1
        streams = [scatter_u32(mgmt, name, rng.integers(0, 1 << 32, total, dtype=np.uint32))
                   for name in "ab"[:1 + zipped]]
        if zipped:
            processing.array_zip(mgmt, "a", "b", "ab")
        before, _, _, _ = defined_state(mgmt)

        def to_val(src, ctx):
            words = src.view(np.uint32)
            vals, keys = words[:, -1].astype(np.uint64), (words[:, 0] % entries).astype(np.int64)
            src[...] = 0xA5
            return vals, keys

        handle = processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val,
                                          combine=(np.add, np.uint64))
        processing.array_red(mgmt, "ab" if zipped else "a", "out", 8, entries, handle,
                             variant=variant)
        arrays, _, _, _ = defined_state(mgmt)
        assert arrays[:len(before)] == before
        expected = np.zeros(entries, np.uint64)
        np.add.at(expected, streams[0] % entries, streams[-1].astype(np.uint64))
        assert np.array_equal(comm.gather(mgmt, "out").view(np.uint64), expected)


@pytest.mark.parametrize("kind", [MAP, REDUCE])
def test_a_callback_cannot_write_to_its_context(kind):
    """A callback's context is a read-only view of its bank rows: one that
    writes to it raises, and the resident context keeps its bytes."""
    mgmt = make_mgmt(cores=3)
    scatter_u32(mgmt, "a", np.arange(100, dtype=np.uint32))
    context = np.arange(5, dtype=np.uint64)
    seen, clobber = [], [False]

    def callback(*args):  # the context is the last argument of both kinds
        seen.append(args[-1].tobytes())
        if clobber[0]:
            args[-1][...] = 0
        if kind == MAP:
            args[1][...] = args[0]
            return None
        return np.zeros(len(args[0]), np.uint64), np.zeros(len(args[0]), np.int64)

    handle = processing.create_handle(mgmt, kind, context=context, **(
        {"map_func": callback} if kind == MAP else
        {"map_to_val_func": callback, "combine": (np.add, np.uint64)}))

    def run(dest):
        if kind == MAP:
            return processing.array_map(mgmt, "a", dest, 4, handle)
        return processing.array_red(mgmt, "a", dest, 8, 1, handle)

    run("first")
    clobber[0] = True
    with pytest.raises(ValueError, match="read-only"):
        run("second")
    clobber[0] = False
    run("third")
    assert set(seen) == {context.tobytes()}
    meta = mgmt.lookup(handle.ctx_array_id)
    assert (mgmt.device.banks[:, meta.bank_offset:meta.bank_offset + 40]
            == context.view(np.uint8)).all()


# every dtype a declared combiner may name: bool and the integer dtypes
COMBINER_DTYPES = [np.dtype(np.bool_)] + [np.dtype(f"{kind}{size}")
                                          for size in (1, 2, 4, 8) for kind in "iu"]


class TestOneAccumulatorTable:
    """Both variants fold every tasklet's batches into one accumulator table
    per core.  ``private`` and ``shared`` leave the elements that the
    reference executor, with its per-tasklet tables and ring merge, leaves,
    and the counters, transfer log and plan of its run of the same variant:
    for every declared combiner on every dtype it accepts and for an opaque
    ``acc_func``, with ``T`` tasklets and ``n`` entries of ``w`` values."""

    SHAPES = [(12, 10, 11), (2, 4096, 1), (5, 3, 2), (1, 7, 3)]  # (T, n, w)
    CORES, BATCH = 3, 16  # 16 uint32 indices per 64-byte read

    def total(self, num_t):
        """An input count that cores 0-1 hold ``k`` of and core 2 ``k - 5``
        (two runs), where each tasklet has more than two batches."""
        return 3 * (2 * num_t * self.BATCH + 6) - 5

    def run(self, shape, dtype, seed, reference, variant, **callbacks):
        """Reduce drawn entries of ``dtype`` into ``n`` drawn keys; returns
        the gathered result and the defined state."""
        num_t, n, w = shape
        d, total = w * dtype.itemsize, self.total(num_t)
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 256, (total, d), dtype=np.uint8)
        if dtype == np.bool_:
            values &= 1
        keys = rng.integers(0, n, total)

        def to_val(src, ctx):
            i = src.view(np.uint32).ravel()
            return values[i], keys[i]

        with pytest.MonkeyPatch.context() as patch:
            if reference:
                patch.setattr(processing, "_iterator_kernel", reference_kernel)
            mgmt = make_mgmt(cores=self.CORES, max_tasklets=num_t,
                             dma_max_bytes=4 * self.BATCH, scratchpad_bytes=1 << 17,
                             log_transfers=True)
            comm.scatter(mgmt, "i", np.arange(total, dtype=np.uint32), total, 4)
            handle = processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val,
                                              **callbacks)
            plan = processing.array_red(mgmt, "i", "out", d, n, handle, variant=variant)
        per_core = mgmt.lookup("i").per_core_elems
        assert (plan.num_tasklets, plan.batch_elems) == (num_t, self.BATCH)
        assert per_core[1] - per_core[2] == 5 and per_core[2] > 2 * num_t * self.BATCH
        return comm.gather(mgmt, "out"), defined_state(mgmt)

    def assert_variants_equal_the_reference(self, shape, dtype, seed, **callbacks):
        results = []
        for variant in ("private", "shared"):
            got, state = self.run(shape, dtype, seed, False, variant, **callbacks)
            want, ref_state = self.run(shape, dtype, seed, True, variant, **callbacks)
            assert np.array_equal(got, want)
            assert state == ref_state
            results.append(got)
        assert np.array_equal(*results)

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(map(str, s)))
    @pytest.mark.parametrize("ufunc", sorted(processing._ASSOCIATIVE_UFUNCS,
                                             key=lambda u: u.__name__),
                             ids=lambda u: u.__name__)
    def test_declared_combiner_equals_the_reference(self, ufunc, shape):
        accepted = []
        for dtype in COMBINER_DTYPES:
            try:
                processing._check_combine((ufunc, dtype), lambda a: None)
            except InvalidCombiner:
                continue
            accepted.append(dtype)
            init = None if ufunc.identity is not None else (lambda a: a.fill(1))
            self.assert_variants_equal_the_reference(
                shape, dtype, len(accepted), combine=(ufunc, dtype), init_func=init)
        assert accepted

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(map(str, s)))
    def test_opaque_acc_func_equals_the_reference(self, shape):
        def acc(dst, src):  # lanes mix: the lanewise max of the sorted rows
            a, b = dst.view(np.uint32), src.view(np.uint32)
            np.maximum(np.sort(a, axis=1), np.sort(b, axis=1), out=a)

        def init(accum):
            accum[:] = 0

        self.assert_variants_equal_the_reference(
            shape, np.dtype(np.uint32), 0, acc_func=acc, init_func=init)

    @pytest.mark.parametrize("variant", ["private", "shared"])
    def test_init_func_sets_up_one_table_per_run(self, variant):
        n, d = 7, 8
        calls = []

        def init(accum):
            calls.append(accum.shape)
            accum[:] = 0

        def to_val(src, ctx):
            v = src.view(np.uint32).ravel().astype(np.uint64)
            return v, v % n

        total = self.total(12)
        mgmt = make_mgmt(cores=self.CORES, dma_max_bytes=4 * self.BATCH)
        comm.scatter(mgmt, "i", np.arange(total, dtype=np.uint32), total, 4)
        handle = processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val,
                                          init_func=init, combine=(np.add, np.uint64))
        plan = processing.array_red(mgmt, "i", "out", d, n, handle, variant=variant)
        assert plan.num_tasklets == 12
        assert mgmt.lookup("i").per_core_elems == (390, 390, 385)
        assert calls == [(2 * n, d), (1 * n, d)]  # the runs of cores 0-1 and 2
        expected = np.zeros(n, np.uint64)
        np.add.at(expected, np.arange(total) % n, np.arange(total, dtype=np.uint64))
        assert np.array_equal(comm.gather(mgmt, "out").view(np.uint64)[:n], expected)


class TestContextLifetime:
    """A context broadcast by a call that then fails is freed again, and
    ``free_handle`` frees a resident context."""

    def boom(self, *args):
        raise RuntimeError("callback failed")

    def make_handle(self, mgmt, kind, fail):
        if kind == MAP:
            return processing.create_handle(
                mgmt, MAP, map_func=self.boom if fail else u32_map(lambda v: v),
                context=np.zeros(100, np.uint8))
        return keyed_handle(
            mgmt, self.boom if fail else (lambda v: np.zeros(v.size, np.int64)),
            np.uint64, combine=(np.add, np.uint64), context=np.zeros(100, np.uint8))

    def call(self, mgmt, kind, handle, variant):
        if kind == MAP:
            processing.array_map(mgmt, "x", "y", 4, handle)
        else:
            processing.array_red(mgmt, "x", "y", 8, 1, handle, variant=variant)

    @pytest.mark.parametrize("kind,variant", [(MAP, None), (REDUCE, "shared"),
                                              (REDUCE, "private")])
    def test_failing_first_use_frees_the_context(self, kind, variant):
        mgmt = make_mgmt(cores=2)
        scatter_u32(mgmt, "x", range(8))
        assert mgmt.device.cursors[0] == 16
        handle = self.make_handle(mgmt, kind, fail=True)
        with pytest.raises(RuntimeError):
            self.call(mgmt, kind, handle, variant)
        assert mgmt.device.cursors == [16, 16]
        assert set(mgmt.registry) == {"x"} and handle.ctx_array_id is None

    def test_context_of_an_earlier_call_stays_resident(self):
        mgmt = make_mgmt(cores=2, log_transfers=True)
        scatter_u32(mgmt, "x", range(8))
        handle = self.make_handle(mgmt, MAP, fail=False)
        self.call(mgmt, MAP, handle, None)
        cid = handle.ctx_array_id
        mgmt.free("y")
        handle.map_func = self.boom
        before = host_state(mgmt, handle)
        with pytest.raises(RuntimeError):
            self.call(mgmt, MAP, handle, None)
        assert host_state(mgmt, handle) == before
        assert handle.ctx_array_id == cid and cid in mgmt.registry

    @pytest.mark.parametrize("kind", [MAP, REDUCE])
    def test_free_handle_releases_the_context(self, kind):
        mgmt = make_mgmt(cores=2)
        scatter_u32(mgmt, "x", range(8))
        handle = self.make_handle(mgmt, kind, fail=False)
        for _ in range(2):  # the freed handle broadcasts its context again
            self.call(mgmt, kind, handle, "private")
            assert handle.ctx_array_id in mgmt.registry
            mgmt.free("y")
            processing.free_handle(mgmt, handle)
            assert handle.ctx_array_id is None
            assert mgmt.device.cursors[0] == 16 and set(mgmt.registry) == {"x"}
        processing.free_handle(mgmt, handle)  # nothing resident: no-op
        assert mgmt.device.cursors[0] == 16

    def test_update_context_misuse_raises_before_anything_moves(self):
        mgmt = make_mgmt(cores=2)
        scatter_u32(mgmt, "x", range(8))
        handle = self.make_handle(mgmt, MAP, fail=False)  # a 100-byte context
        for resident in (False, True):
            if resident:
                self.call(mgmt, MAP, handle, None)
            state, context = host_state(mgmt), handle.context.copy()
            banks = mgmt.device.banks.copy()
            # None, and a resized context once one is resident
            for new in (None,) + ((np.zeros(96, np.uint8),) if resident else ()):
                with pytest.raises(HostBufferInvalid):
                    processing.update_context(mgmt, handle, new)
                assert host_state(mgmt) == state
                assert np.array_equal(handle.context, context)
                assert np.array_equal(mgmt.device.banks, banks)


def _weighted_row_sums(src, ctx):
    """One u64 per element row: its bytes weighted by column, plus the context."""
    weights = np.arange(1, src.shape[1] + 1, dtype=np.uint64)
    return (src.astype(np.uint64) * weights).sum(axis=1) + ctx.astype(np.uint64).sum()


ZIPPED_SIZES = [(12, 4), (2, 6), (8, 8), (40, 8), (24, 16), (1, 1)]
BIT_IDENTITY_SCENARIOS = (
    ["vecadd-lazy", "vecadd-eager"]
    + [f"{kind}-{a}x{b}" for a, b in ZIPPED_SIZES
       for kind in ("zip", "map", "shared", "private")])

# SHA-256 over every configuration of a scenario (cores 1/3/8 x three lengths)
# of the bytes the model defines after the run: the element bytes of every
# array the scenario creates, repr(stats) and the transfer log.  Scratchpad
# bytes and bank padding are undefined after a launch and left out.  The
# digests were computed with the scratchpad-replaying kernel that preceded
# the in-place reduction reads; any change to an element, counter or command
# changes them.
BIT_IDENTITY_DIGESTS = {
    "vecadd-lazy": "38721490f442a8a26e418a5e268e7987b29a5e2b02cde88126549c4e9b165a3b",
    "vecadd-eager": "eaccff62eac076627f288d28f7b8c261db71840f4d49aac0efa75cd604630a87",
    "zip-12x4": "3723d59d055c60a0f02281be46048bd8ed57173293299899cd85a397df439d3d",
    "map-12x4": "980aeef6536b4d9a95d26acef5e8dbdd4fb4e139b30bb3285117d2e8e7f0b04f",
    "shared-12x4": "a7568197339dd85ed9d7c16e6c756283f051a05006bd1e57fa3e5f40f89cc3d3",
    "private-12x4": "0d7865b7ed6b9b25d9da58a4543d2d784567aed7f0d3079fc110a8100388fc26",
    "zip-2x6": "e8ec6deb376556e818b9558366603e351ea7bb38680a9fc5cac36cb24029b526",
    "map-2x6": "40479efdac70439a92e748c43b04ca6c8fd274411f089d6ba46f4e439adb07de",
    "shared-2x6": "a846bee59be562f98cb85fae8f92ef6c0171486cfbf9e77fc018c7b8a54c2478",
    "private-2x6": "e96219f9899bfe730f307753889940f172af0f60841c5dd7f5d72183af08d74f",
    "zip-8x8": "9944d300e7aae091c27a511dc3b5cbecf5dd70fd08fbfccca677fc9782298c44",
    "map-8x8": "b498526f2acb33d102ec74518f358ef861eb813ac644ca47332e4b7c8f38df1b",
    "shared-8x8": "549df4d83bf2a93c6d813386f59459218647ed3c4346b2df2eabeea4b159b731",
    "private-8x8": "8a0b8524fa652742016a28de69dea41de86e71867c2d29dc7d00fa6a4fc4ed48",
    "zip-40x8": "e556f41b5095b03b71b0068cf81439eadc929e7e3e50589939fb4fa388e81e0b",
    "map-40x8": "7fb228eefcf673353f979d5c547655571a3a0360e90c9523ef272e2e02eb5b7d",
    "shared-40x8": "562f664efba39d8ea0ea6e7db9df00c4371e8a7a2c4bb208dfa64ff6c8bd0c64",
    "private-40x8": "c06fcfcb84ca32d54a8f665e2d9602c212b15d9604634711f2d35b0d82836e18",
    "zip-24x16": "e8853ae76d4eb77fefa81c215fa1125b2ef9e545250fed85ec7167437552d346",
    "map-24x16": "0450299a92e7de7e432d846b364ade8c2e71658fac6f6c5e42faabb429d53ba1",
    "shared-24x16": "57223822178b42aced041ceedf94fe6fbd2685a7a779e43d014afea31201c125",
    "private-24x16": "a0acb831ea11f8319e0f46995e641edc94ca19d0473e2111ce62db5114f15baf",
    "zip-1x1": "549e79fcef1a6ec44b75dfe4596a7bc61cd49a430d3971690b2b52768893795b",
    "map-1x1": "5ae735668f10726fb1834e655683f64d41943a6f229bac58a6d250856cf4f671",
    "shared-1x1": "91a9000407d564114bd6cc7ceb29c8634a8a87c43b764c884abf24bb586e3926",
    "private-1x1": "38d2e51838b65a87ccfbfc8b18eaf39b9602075d77981c7fab2b2cc08d760731",
}


def _short_lengths(b, tasklets):
    """Per-core lengths whose batches all fall in the last two rounds of 12
    tasklets: full, partial and one-element last batches."""
    return (b + b // 3 + 1, 2 * b + 1, 13 * b + 1)


def _bulk_lengths(b, tasklets):
    """Per-core lengths with full batch rounds before the last two: one
    round and a partial batch more, and one batch more."""
    return (3 * tasklets * b + b // 3 + 1, (2 * tasklets + 1) * b)


BULK_SCENARIOS = [s for s in BIT_IDENTITY_SCENARIOS
                  if s.split("-")[0] in ("vecadd", "zip", "map")]

# The same digest at ``_bulk_lengths``, where every tasklet has full batch
# rounds before its last two, computed with the same kernel.
BULK_DIGESTS = {
    "vecadd-lazy": "af02f8cf2dcb3c11522b48508baed1b7b7c851261e1b6ed87ff83618e94a2065",
    "vecadd-eager": "e05925eae3cff7e8e972bdfcab998afdea8403f11249e891da1d1dd22fbe089a",
    "zip-12x4": "090a1635620d78a9c11078bae57174bb063341fb7d0997314d42f17f4288b6fc",
    "map-12x4": "b4eafb98243ec9392881bb843711d49172f4132de0df89e164c0cda2014cc6ed",
    "zip-2x6": "e360d925b6979bc2f29bd1ff857c3f39f47b5f49f2563622cf89cc1d6b8e668c",
    "map-2x6": "c55dd2f89745c780459f54d603124af180b3629890541f4f7ed4fee2f6038103",
    "zip-8x8": "8b1f175993082a4f3d7b25d6c62b8b8a4884582d86afeb3574c50e518bae9023",
    "map-8x8": "4ae5f38a52c483f854f4902a5fb9c23c691d064d3a4bcc78e7fb9efd6afed923",
    "zip-40x8": "6fbeb7f2a22347637d149b5f3485f08ae2d42c22f946bc6cbdf971d3a950b2a4",
    "map-40x8": "a37494bbb2f448313176514ab2cd669206379995eadaa9fa092495523ecc9f66",
    "zip-24x16": "ddae7d38671ed34d915a41c68e162f4439dada0e2105b427c5c40ec3e97b9384",
    "map-24x16": "f49b04d30941f45e727a1adad34f8d0721f5f8f6a957a73a4c8f85a76387006b",
    "zip-1x1": "76e1d79f71b0bab2aca3dda7803f45e28a3d42115007f0fdd1f6b4823e026528",
    "map-1x1": "07b16e611549b7c6bb935607db82666e21a861cffca02ae4a243c7923ccbe0e2",
}


class TestBatchLoopBitIdentity:
    """The kernel leaves the same elements, counters and commands behind as
    the kernel it replaced, on full, partial and one-element last batches."""

    def run_zipped(self, mgmt, scenario, a, b, total, rng):
        ctx = rng.integers(0, 256, 37, dtype=np.uint8)
        for name, size in (("a", a), ("b", b)):
            comm.scatter(mgmt, name, rng.integers(0, 256, total * size, dtype=np.uint8),
                         total, size)
        kind = scenario.split("-")[0]
        processing.array_zip(mgmt, "a", "b", "ab", materialize=kind == "zip")
        if kind == "zip":
            return
        if kind == "map":
            def map_func(src, dst, ctx_bytes):
                dst.view(np.uint64)[:, 0] = _weighted_row_sums(src, ctx_bytes)

            handle = processing.create_handle(mgmt, MAP, map_func=map_func, context=ctx)
            processing.array_map(mgmt, "ab", "out", 8, handle)
            return

        def to_val(src, ctx_bytes):
            keys = (src[:, 0].astype(np.int64) + int(ctx_bytes[0])) % 13
            return _weighted_row_sums(src, ctx_bytes), keys

        if kind == "private":
            handle = processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val,
                                              combine=(np.add, np.uint64), context=ctx)
        else:
            def acc(dst, src):
                d = dst.view(np.uint64)
                np.add(d, src.view(np.uint64), out=d)

            def init(accum):
                accum[:] = 0

            handle = processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val,
                                              init_func=init, acc_func=acc, context=ctx)
        processing.array_red(mgmt, "ab", "out", 8, 13, handle, variant=kind)

    def digest(self, scenario, lengths=_short_lengths):
        h = hashlib.sha256()
        config = DeviceConfig(num_cores=1)
        if scenario.startswith("vecadd"):
            plan = processing.plan_iterator(config, MAP, (4, 4), 4)
        else:
            kind, pair = scenario.split("-")
            sizes = tuple(int(s) for s in pair.split("x"))
            if kind == "zip":
                plan = processing.plan_iterator(config, ZIP, sizes, sum(sizes))
            elif kind == "map":
                plan = processing.plan_iterator(config, MAP, sizes, 8, context_bytes=37)
            else:
                plan = processing.plan_iterator(config, REDUCE, sizes, 8, output_len=13,
                                                variant=kind, context_bytes=37)
        rng = np.random.default_rng(4)
        for cores in (1, 3, 8):
            for per_core in lengths(plan.batch_elems, plan.num_tasklets):
                mgmt = make_mgmt(cores=cores, bank_bytes=1 << 18, log_transfers=True)
                freed = keep_freed_elements(mgmt)
                total = cores * per_core
                if scenario.startswith("vecadd"):
                    apps.run_vecadd(mgmt, BenchmarkSpec(total_elems=total, seed=cores),
                                    eager=scenario.endswith("eager"))
                else:
                    self.run_zipped(mgmt, scenario, *sizes, total, rng)
                arrays, stats, log, _ = defined_state(mgmt, freed)
                for array_id, elements in arrays:
                    h.update(f"{array_id}:{len(elements)}:".encode())
                    h.update(elements)
                h.update(repr(stats).encode())
                h.update("\n".join(r.as_line() for r in log).encode())
        return h.hexdigest()

    @pytest.mark.parametrize("scenario", BIT_IDENTITY_SCENARIOS)
    def test_digest_matches_the_previous_loop(self, scenario):
        assert self.digest(scenario) == BIT_IDENTITY_DIGESTS[scenario]

    # one chunk per run; one batch per core per chunk; chunks that are not
    # a whole number of batches on one core
    @pytest.mark.parametrize("chunk_rows", [processing._BULK_ROWS, 1, 1000])
    @pytest.mark.parametrize("scenario", BULK_SCENARIOS)
    def test_bulk_digest_matches_the_per_batch_loop(self, monkeypatch, scenario,
                                                    chunk_rows):
        monkeypatch.setattr(processing, "_BULK_ROWS", chunk_rows)
        assert self.digest(scenario, _bulk_lengths) == BULK_DIGESTS[scenario]


def _searched_plan(config, kind, in_sizes, out_size, output_len, variant,
                   context_bytes):
    """Reference planner: shrinks the batch in steps of the DMA granularity
    until the per-tasklet buffers, each rounded up to the alignment, fit, and
    lays the slots out rounded up too.  None when no tasklet count fits."""
    align, usable = config.dma_alignment, config.usable_scratchpad_bytes
    buffers = list(in_sizes) + ([sum(in_sizes)] if len(in_sizes) > 1 else [])
    if kind == REDUCE:
        variant = VARIANT_SHARED if variant == "shared" else VARIANT_PRIVATE
        accum_slot = round_up(output_len * out_size, align)
        dma_sizes = list(in_sizes)
    else:
        variant, accum_slot = None, 0
        dma_sizes = list(in_sizes) + [out_size]
        buffers += [out_size] if kind == MAP else []
    batch0, group = processing._dma_batch_bound(dma_sizes, config.dma_max_bytes, align)
    ctx_pad = round_up(context_bytes, align)
    for tasklets in processing._tasklet_candidates(config.max_tasklets):
        accum = accum_slot * (tasklets if variant == VARIANT_PRIVATE else 1)
        if tasklets > 1 and accum + tasklets * config.dma_max_bytes > usable:
            continue
        avail = usable - ctx_pad - accum

        def claim(b):
            return tasklets * sum(round_up(b * ts, align) for ts in buffers)

        batch = min(batch0, max(avail // (tasklets * sum(buffers)) // group * group, 0))
        while batch > 0 and claim(batch) > avail:
            batch -= group
        if batch > 0:
            break
    else:
        return None
    rels = list(itertools.accumulate(
        (round_up(batch * size, align) for size in buffers), initial=0))
    combine_rel = rels[len(in_sizes)] if len(in_sizes) > 1 else None
    return IteratorPlan(
        variant=variant, num_tasklets=tasklets, batch_elems=batch,
        stream_rels=tuple(rels[:len(in_sizes)]), combine_rel=combine_rel,
        out_rel={MAP: rels[-2], ZIP: combine_rel}.get(kind),
        accum_base=ctx_pad, accum_slot=accum_slot, blocks_base=ctx_pad + accum,
        block_bytes=rels[-1], occupancy_bytes=ctx_pad + accum + tasklets * rels[-1])


def test_closed_form_batch_equals_the_searched_batch():
    """``plan_iterator`` computes its batch; on 10,000 seeded random
    geometries it returns exactly the plan the reference search finds."""
    rng = random.Random(20231021)
    feasible = collections.Counter()
    for _ in range(10_000):
        align = rng.choice((4, 8, 12, 16, 24, 32))
        dma_max = align * rng.randint(1, 256)
        scratch = max(dma_max, rng.choice((4 << 10, 16 << 10, 64 << 10, 128 << 10)))
        config = DeviceConfig(num_cores=1, dram_bank_bytes=1 << 20,
                              scratchpad_bytes=scratch, dma_max_bytes=dma_max,
                              dma_alignment=align, max_tasklets=rng.randint(1, 16),
                              scratchpad_reserve_bytes=rng.randrange(0, scratch, 8))
        kind = rng.choice((MAP, ZIP, REDUCE))
        in_sizes = [rng.randint(1, 64) for _ in range(rng.choice((1, 1, 2, 3)))]
        if kind == ZIP and len(in_sizes) == 1:
            in_sizes.append(rng.randint(1, 64))
        out_size = {ZIP: sum(in_sizes), MAP: rng.randint(1, 128)}.get(kind) \
            or rng.randint(1, 32)
        output_len = rng.randint(1, 1024) if kind == REDUCE else 0
        variant = rng.choice(("shared", "private")) if kind == REDUCE else "auto"
        context = rng.choice((0, rng.randint(1, config.usable_scratchpad_bytes)))
        args = (config, kind, in_sizes, out_size)
        try:
            expected = _searched_plan(*args, output_len, variant, context)
        except ElementTooLarge:
            expected = ElementTooLarge
        try:
            got = processing.plan_iterator(*args, output_len=output_len,
                                           variant=variant, context_bytes=context)
        except (ElementTooLarge, NoFeasiblePlan) as exc:
            got = type(exc)
        assert got == (NoFeasiblePlan if expected is None else expected), args
        if isinstance(got, IteratorPlan):
            feasible[kind, got.variant] += 1
    assert len(feasible) == 4 and min(feasible.values()) >= 500, feasible
